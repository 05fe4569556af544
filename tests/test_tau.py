"""Propagation engine: builder arithmetic, rule selection, outcomes."""

import hashlib
from pathlib import Path

import pytest

from gridlink import (
    ConfigWord,
    Coordinate,
    GenMode,
    GenSpec,
    GenerationFailure,
    NumberedGrid,
    PuzzleState,
    ResidualExceeded,
    TauRule,
    TauStatus,
    apply_builder,
    enumerate_solutions,
    is_solved,
    node,
    generate,
    omega_star,
    parse_puzzle,
    run_tau,
)
from gridlink.tau import _stalls_at_start

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def square_grid():
    return NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2)])


class TestApplyBuilder:
    def test_residuals_drop_on_both_sides(self):
        g = square_grid()
        s = apply_builder(PuzzleState.empty(g), g.node_at(Coordinate(0, 0)), ConfigWord(1, 1, 0, 0))
        assert s.residual(g.node_at(Coordinate(0, 0))) == 0
        assert s.residual(g.node_at(Coordinate(0, 1))) == 1
        assert s.residual(g.node_at(Coordinate(1, 0))) == 1
        assert s.residual(g.node_at(Coordinate(1, 1))) == 2

    def test_zero_word_is_identity(self):
        g = square_grid()
        s = PuzzleState.empty(g)
        assert apply_builder(s, g.nodes[0], ConfigWord.zero()) == s

    def test_overdraw_raises(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 1)])
        s = PuzzleState.empty(g)
        with pytest.raises(ResidualExceeded):
            apply_builder(s, g.node_at(Coordinate(0, 0)), ConfigWord(0, 2, 0, 0))

    def test_word_toward_missing_neighbor_raises(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2)])
        s = PuzzleState.empty(g)
        with pytest.raises(ValueError):
            apply_builder(s, g.nodes[0], ConfigWord(1, 0, 0, 0))


class TestRunTau:
    def test_single_pair_solved_by_single_neighbor_rule(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1)])
        out = run_tau(g)
        assert out.status is TauStatus.SOLVED
        assert len(out.trace) == 1
        assert out.trace[0].rule in (TauRule.R1_FULL_SATURATION, TauRule.R2_SINGLE_NEIGHBOR)
        assert out.final_state.total_multiplicity() == 1

    def test_double_pair_solved(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2)])
        out = run_tau(g)
        assert out.status is TauStatus.SOLVED
        (e, m), = out.final_state.sorted_items()
        assert m == 2

    def test_square_solved_as_four_cycle(self):
        g = square_grid()
        out = run_tau(g)
        assert out.status is TauStatus.SOLVED
        assert out.trace[0].rule is TauRule.R4_OMEGA_STAR
        assert dict(out.final_state.sorted_items()) == enumerate_solutions(g).solutions[0]
        assert all(m == 1 for _, m in out.final_state.sorted_items())

    def test_screened_grid_short_circuits(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 2)])
        out = run_tau(g)
        assert out.status is TauStatus.UNSOLVABLE
        assert out.trace == ()
        assert out.screen_report is not None and out.screen_report.unsolvable

    def test_dynamic_infeasibility_detected(self):
        # Screens pass, but completing either pair seals it off from the rest.
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1), node(5, 5, 1), node(6, 5, 1)])
        out = run_tau(g)
        assert out.status in (TauStatus.UNSOLVABLE, TauStatus.STALLED)
        assert not is_solved(out.final_state)

    def test_progress_strictly_decreases_residual(self):
        g = square_grid()
        out = run_tau(g)
        assert out.status is TauStatus.SOLVED
        totals = []
        s = PuzzleState.empty(g)
        totals.append(sum(s.residual(n) for n in g.nodes))
        for step in out.trace:
            s = apply_builder(s, g.node_at(step.node), step.word)
            totals.append(sum(s.residual(n) for n in g.nodes))
        assert all(a > b for a, b in zip(totals, totals[1:]))
        assert len(out.trace) <= g.total_magnitude()

    def test_replayed_trace_reaches_final_state(self):
        g = square_grid()
        out = run_tau(g)
        s = PuzzleState.empty(g)
        for step in out.trace:
            s = apply_builder(s, g.node_at(step.node), step.word)
            assert s.digest() == step.state_digest
        assert s == out.final_state

    def test_deterministic_traces(self):
        g1, g2 = square_grid(), square_grid()
        out1, out2 = run_tau(g1), run_tau(g2)
        assert out1.trace == out2.trace
        assert out1.final_state == out2.final_state

    def test_statuses_are_exclusive_and_stall_reverifiable(self):
        grids = [
            NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1)]),
            square_grid(),
            NumberedGrid(1, [node(0, 0, 1), node(1, 0, 2)]),
            NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1), node(5, 5, 1), node(6, 5, 1)]),
        ]
        for g in grids:
            out = run_tau(g)
            assert (out.status is TauStatus.SOLVED) == bool(is_solved(out.final_state))
            if out.status is TauStatus.STALLED:
                for n in g.nodes:
                    if out.final_state.residual(n) > 0:
                        w = omega_star(out.final_state, n)
                        assert w is not None and w.is_zero

    def test_solved_outcomes_match_unique_oracle_solution(self):
        for g in [
            NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1)]),
            NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2)]),
            square_grid(),
            NumberedGrid(1, [node(0, 0, 1), node(1, 0, 2), node(2, 0, 1)]),
        ]:
            out = run_tau(g)
            assert out.status is TauStatus.SOLVED
            sols = enumerate_solutions(g)
            assert len(sols) == 1 and sols.exhausted
            assert sols.solutions[0] == dict(out.final_state.sorted_items())


def generated(shapes):
    """Grids from (width, height, density, k, mode, seeds) rows, skipping
    specs the generator cannot place."""
    grids = []
    for width, height, density, k, mode, seeds in shapes:
        for seed in seeds:
            spec = GenSpec(seed=seed, width=width, height=height, node_density=density, k=k, mode=mode)
            try:
                grids.append(generate(spec))
            except GenerationFailure:
                continue
    return grids


class TestStallProbe:
    def grids(self):
        fixtures = [parse_puzzle(p.read_text()) for p in sorted(FIXTURES.glob("*.puzzle"))]
        # The constructive window ends at the committed pinwheel_like witness.
        return fixtures + generated([
            (4, 4, 0.75, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(29440, 29640)),
            (4, 4, 0.75, 2, GenMode.RANDOM, range(200)),
        ])

    def test_probe_agrees_with_the_engine(self):
        grids = self.grids()
        assert len(grids) >= 300
        flagged = 0
        for g in grids:
            out = run_tau(g)
            expected = out.status is TauStatus.STALLED and not out.trace
            assert _stalls_at_start(g) == expected, g.nodes
            flagged += expected
        assert flagged >= 2


# Generated grids that reach every status, both of the engine's own
# unsolvable reasons, and every rule.
ENGINE_CORPUS = [
    (3, 3, 0.9, 1, GenMode.RANDOM, range(150, 190)),
    (4, 4, 0.65, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(20)),
    (5, 5, 0.6, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(20)),
    (5, 4, 0.7, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, range(20)),
]
# sha256 over every outcome's status, reason and full trace, recorded before
# run_tau became a loop over one step function: refactors of the engine must
# not change a single step.
ENGINE_CORPUS_DIGEST = "c3c92698207fdfd1c323d9ef19ccf6808c47b91dfb988601afd4ef5f1b871ec7"
ENGINE_REASONS = ("remain available around it", "has no feasible configuration left")


class TestEngineCorpus:
    def test_outcomes_are_pinned(self):
        digest = hashlib.sha256()
        statuses, reasons, rules = set(), set(), set()
        for g in generated(ENGINE_CORPUS):
            out = run_tau(g)
            steps = [
                (st.rule.value, str(st.node), st.word.digits(),
                 [(str(e), m) for e, m in st.edges], st.state_digest)
                for st in out.trace
            ]
            digest.update(repr((out.status.value, out.reason, steps)).encode("ascii"))
            statuses.add(out.status)
            reasons.update(r for r in ENGINE_REASONS if r in (out.reason or ""))
            rules.update(st.rule for st in out.trace)
        assert statuses == set(TauStatus)
        assert reasons == set(ENGINE_REASONS)
        assert rules == set(TauRule)
        assert digest.hexdigest() == ENGINE_CORPUS_DIGEST
