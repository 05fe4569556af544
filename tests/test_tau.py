"""Propagation engine: builder arithmetic, rule selection, outcomes."""

import dataclasses
import hashlib
import pickle
import random
from pathlib import Path
from typing import Optional

import pytest

from gridlink import (
    ConfigWord,
    Coordinate,
    GenMode,
    GenSpec,
    NumberedGrid,
    PuzzleState,
    ResidualExceeded,
    TauRule,
    TauStatus,
    TauStep,
    apply_builder,
    enumerate_solutions,
    is_solved,
    node,
    generate,
    omega_star,
    parse_puzzle,
    run_tau,
    screen,
)
import gridlink.tau as tau_module
import gridlink.words as words_module
from gridlink.tau import _Engine, _stalls_at_start
from gridlink.words import _Context

from reference import generated, toward

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def context(state):
    return _Context(state.grid, state._mult, state._res)


def square_grid():
    return NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2)])


def chain_grid(n):
    """A k=1 row of n nodes, magnitude 2 inside; R1 solves it one edge at a time, left to right."""
    return NumberedGrid(1, [node(i, 0, 1 if i in (0, n - 1) else 2) for i in range(n)])


class CountedHasher:
    """Stands in for a grid's cached _digest_prefix, and for each copy of it:
    counts the copies taken and the bytes fed to them."""

    def __init__(self, h, counts=None):
        self.h, self.counts = h, counts or {"copies": 0, "bytes": 0}

    def copy(self):
        self.counts["copies"] += 1
        return CountedHasher(self.h.copy(), self.counts)

    def update(self, data):
        self.counts["bytes"] += len(data)
        self.h.update(data)

    def hexdigest(self):
        return self.h.hexdigest()


def counted_run_tau(g):
    """run_tau(g), and the CountedHasher counts of its digests."""
    prefix = g.__dict__["_digest_prefix"] = CountedHasher(g._digest_prefix)
    try:
        return run_tau(g), prefix.counts
    finally:
        g.__dict__["_digest_prefix"] = prefix.h


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
        assert apply_builder(s, g.nodes[0], ConfigWord(0, 0, 0, 0)) == s

    def test_overdraw_raises(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 1)])
        s = PuzzleState.empty(g)
        with pytest.raises(ResidualExceeded):
            apply_builder(s, g.node_at(Coordinate(0, 0)), ConfigWord(0, 2, 0, 0))

    def test_word_toward_missing_neighbor_raises(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2)])
        s = PuzzleState.empty(g)
        with pytest.raises(ValueError, match=r"^word sends 1 connections TOP, but \(0, 0\) has no neighbor there$"):
            apply_builder(s, g.nodes[0], ConfigWord(1, 0, 0, 0))


class TestRunTau:
    def test_single_pair_solved_by_single_neighbor_rule(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1)])
        out = run_tau(g)
        assert out.status is TauStatus.SOLVED
        assert len(out.trace) == 1
        assert out.trace[0].rule in (TauRule.R1_FULL_SATURATION, TauRule.R2_SINGLE_NEIGHBOR)
        assert sum(out.final_state.connections().values()) == 1

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
        assert len(out.trace) <= sum(n.magnitude for n in g.nodes)

    def test_replayed_trace_reaches_final_state(self):
        # run_tau feeds its one hasher only the entries past the highest
        # connected edge id while a step draws past it alone, as every step
        # of a chain does, and else starts again from the grid's prefix: on
        # the 6x6 grids, a step often draws below it, and the k=2 ones raise
        # an edge that already has a connection five times, replacing its
        # entry. Each step's digest must be the replayed state's.
        chain, raised, steps, restarts = chain_grid(30), 0, 0, 0
        for g in [chain, square_grid()] + generated([(6, 6, 0.6, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(10))]):
            out, counts = counted_run_tau(g)
            steps += len(out.trace)
            restarts += counts["copies"] - 1  # the first copy starts the run
            if g is chain:
                assert (len(out.trace), counts["copies"]) == (29, 1)
            s = PuzzleState.empty(g)
            for step in out.trace:
                raised += sum(1 for e, _ in step.edges if s.multiplicity(e))
                s = apply_builder(s, g.node_at(step.node), step.word)
                assert s.digest() == step.state_digest
            assert s == out.final_state
        assert raised == 5
        assert 0 < restarts < steps - 29

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
                        assert w is not None and not any(w.counts)

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

    def test_probe_stops_at_the_first_word_that_is_not_zero(self, monkeypatch):
        # The probe consumes the engine's R4 pass only until a node has a
        # non-zero word, where a full pass (as next_move makes) tests every
        # node; this early exit is why the probe does not call next_move.
        g = generate(GenSpec(26640, 4, 4, 0.75, 2, GenMode.SOLVABLE_BY_CONSTRUCTION))
        calls = [0]
        feasible = words_module._feasible

        def counted(*args):
            calls[0] += 1
            return feasible(*args)

        monkeypatch.setattr(words_module, "_feasible", counted)
        assert not _stalls_at_start(g)
        assert calls[0] == 1
        calls[0] = 0
        move = _Engine(PuzzleState.empty(g)).next_move()
        assert move[1] is TauRule.R4_OMEGA_STAR
        assert calls[0] == len(g.nodes) == 12

    def test_probe_decides_at_its_first_decisive_check(self, monkeypatch):
        # Local checks first, stopping at the first node where one fires; then
        # the R4 pass; the screens run only on a candidate both leave open.
        calls = {"_revise": 0, "screen": 0, "_feasible": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(_Engine, "_revise")
        counted(tau_module, "screen")
        counted(words_module, "_feasible")
        # R1 fires first at node id 9 of 12; R2 and R3 fire at node id 11.
        g = generate(GenSpec(26641, 4, 4, 0.75, 2, GenMode.SOLVABLE_BY_CONSTRUCTION))
        assert not _stalls_at_start(g)
        assert calls == {"_revise": 10, "screen": 0, "_feasible": 0}
        # No check fires here; the first node's word is not zero.
        calls.update(dict.fromkeys(calls, 0))
        g = generate(GenSpec(26640, 4, 4, 0.75, 2, GenMode.SOLVABLE_BY_CONSTRUCTION))
        assert not _stalls_at_start(g)
        assert calls == {"_revise": 12, "screen": 0, "_feasible": 1}

    def test_probe_screens_a_grid_the_engine_stalls_on(self):
        # The 3x3 lattice, k=2, corners 2 and every other node 3: no check
        # fires and every word is zero, but the total 23 is odd. The probe
        # must still screen it, as run_tau does first.
        g = NumberedGrid(2, [node(x, y, 2 if x != 1 and y != 1 else 3) for x in range(3) for y in range(3)])
        engine = _Engine(PuzzleState.empty(g))
        assert not any(engine.fires)
        assert all(w == (0, 0, 0, 0) for _, w in engine._words())
        assert [v.condition for v in screen(g).violations] == [2]
        assert run_tau(g).status is TauStatus.UNSOLVABLE
        assert not _stalls_at_start(g)


def assert_within_every_solution(g, out, sols):
    """Each connection the engine drew is at most the same edge's in every
    solution found, and a SOLVED outcome is the only solution."""
    drawn = out.final_state.connections()
    assert sols.solutions, g.nodes
    for solution in sols.solutions:
        assert all(m <= solution.get(e, 0) for e, m in drawn.items()), g.nodes
    if out.status is TauStatus.SOLVED:
        assert len(sols) == 1 and sols.exhausted and sols.solutions[0] == drawn


class TestSoundnessBeyond4x4:
    # Constructive lattices where the enumerator stays fast at limit=2.
    SWEEP = [
        (8, 8, 0.6, 1, GenMode.SOLVABLE_BY_CONSTRUCTION, range(12)),
        (8, 8, 0.6, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(12)),
        (10, 10, 0.6, 1, GenMode.SOLVABLE_BY_CONSTRUCTION, range(12)),
        (12, 12, 0.6, 1, GenMode.SOLVABLE_BY_CONSTRUCTION, range(6)),
    ]

    @pytest.mark.parametrize("seed, size, steps", [(17, 8, 17), (19, 10, 27)])
    def test_stall_witness_on_a_unique_grid(self, seed, size, steps):
        # The engine stalls on these grids though each has one solution.
        g = generate(GenSpec(seed, size, size, 0.6, 1, GenMode.SOLVABLE_BY_CONSTRUCTION))
        sols = enumerate_solutions(g, limit=2)
        assert len(sols) == 1 and sols.exhausted
        out = run_tau(g)
        assert out.status is TauStatus.STALLED and len(out.trace) == steps
        assert_within_every_solution(g, out, sols)

    def test_drawn_connections_lie_within_every_solution(self):
        grids, statuses = generated(self.SWEEP), set()
        assert len(grids) == 42
        for g in grids:
            out = run_tau(g)
            assert_within_every_solution(g, out, enumerate_solutions(g, limit=2))
            statuses.add(out.status)
        assert statuses == {TauStatus.SOLVED, TauStatus.STALLED}


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


# Constructive 12x12-30x30 grids, k 1-3: the sizes where a step's cost
# matters. The engine stalls on all of them after 13-114 steps.
LARGE_CORPUS = [
    (12, 12, 0.6, 1, GenMode.SOLVABLE_BY_CONSTRUCTION, range(3)),
    (12, 12, 0.6, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(2)),
    (12, 12, 0.6, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, range(2)),
    (16, 16, 0.6, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(1)),
    (20, 20, 0.6, 1, GenMode.SOLVABLE_BY_CONSTRUCTION, range(2)),
    (20, 20, 0.6, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, [1]),
    (20, 20, 0.6, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, [1]),
    (24, 24, 0.6, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(1)),
    (30, 30, 0.6, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(2)),
    (30, 30, 0.6, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, range(1)),
]
# Hashed like ENGINE_CORPUS_DIGEST, and recorded before the engine kept a
# blocked-edge table and the word test read its neighborhood once.
LARGE_CORPUS_DIGEST = "7d3f724ec1988af56d21de41aebd0f4c4a1610ab1733357e82457efdccd8347f"


def outcome_record(out) -> bytes:
    """An outcome's status, reason and full trace, as pinned digests hash it."""
    steps = [
        (st.rule.value, str(st.node), st.word.digits(),
         [(str(e), m) for e, m in st.edges], st.state_digest)
        for st in out.trace
    ]
    return repr((out.status.value, out.reason, steps)).encode("ascii")


class TestEngineCorpus:
    def test_outcomes_are_pinned(self):
        digest = hashlib.sha256()
        statuses, reasons, rules = set(), set(), set()
        for g in generated(ENGINE_CORPUS):
            out = run_tau(g)
            digest.update(outcome_record(out))
            statuses.add(out.status)
            reasons.update(r for r in ENGINE_REASONS if r in (out.reason or ""))
            rules.update(st.rule for st in out.trace)
        assert statuses == set(TauStatus)
        assert reasons == set(ENGINE_REASONS)
        assert rules == set(TauRule)
        assert digest.hexdigest() == ENGINE_CORPUS_DIGEST

    def test_large_grid_outcomes_are_pinned(self):
        digest = hashlib.sha256()
        grids, steps, rules = generated(LARGE_CORPUS), 0, set()
        for g in grids:
            out = run_tau(g)
            digest.update(outcome_record(out))
            steps += len(out.trace)
            rules.update(st.rule for st in out.trace)
        assert len(grids) == 16 and steps == 810
        assert rules == {TauRule.R1_FULL_SATURATION, TauRule.R3_ONE_INCOMPLETE_NEIGHBOR, TauRule.R4_OMEGA_STAR}
        assert digest.hexdigest() == LARGE_CORPUS_DIGEST

    def test_unchecked_step_records_behave_as_constructed(self):
        """run_tau builds each TauStep without the dataclass constructor; every
        step must compare, hash, print, replace, pickle and refuse assignment
        like TauStep(...) built from its own fields."""
        grids = [parse_puzzle(p.read_text()) for p in sorted(FIXTURES.glob("*.puzzle"))]
        grids.append(next(g for g in generated(ENGINE_CORPUS) if g.k == 3 and run_tau(g).trace))
        steps = [st for g in grids for st in run_tau(g).trace]
        assert len(steps) >= 50 and {len(st.edges) for st in steps} >= {1, 2}
        for st in steps:
            built = TauStep(*(getattr(st, f.name) for f in dataclasses.fields(TauStep)))
            assert type(st) is TauStep and vars(st) == vars(built)
            assert st == built and hash(st) == hash(built) and repr(st) == repr(built)
            assert dataclasses.replace(st) == built
            assert dataclasses.replace(st, state_digest="") != built
            assert pickle.loads(pickle.dumps(st)) == built
            with pytest.raises(dataclasses.FrozenInstanceError):
                st.rule = built.rule


def reference_move(state):
    """The engine's step function as it was before it carried bookkeeping
    from step to step: every incomplete node's capacity, rules and
    omega_star recomputed from the state, the local rules as the table of
    functions they were before the engine evaluated them in one pass.
    Returns (node id, rule, word counts) or (status, reason), like
    _Engine.next_move."""

    def _overdrawn(state: PuzzleState, i: int, caps: tuple[int, ...]) -> bool:
        """Node i needs more than its surroundings can still hold: no word exists."""
        return state._res[i] > sum(caps)

    def _saturate(state: PuzzleState, i: int, caps: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        return caps if state._res[i] == sum(caps) else None

    def _single_neighbor(state: PuzzleState, i: int, caps: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        slots = [s for s, _, _ in state.grid._links[i]]
        return toward(slots[0], state._res[i]) if len(slots) == 1 else None

    # Read after _single_neighbor, which claims the nodes with one neighbor.
    def _one_open_neighbor(state: PuzzleState, i: int, caps: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        res = state._res
        slots = [s for s, q, _ in state.grid._links[i] if res[q]]
        return toward(slots[0], res[i]) if len(slots) == 1 else None

    _LOCAL_RULES = (
        (TauRule.R1_FULL_SATURATION, _saturate),
        (TauRule.R2_SINGLE_NEIGHBOR, _single_neighbor),
        (TauRule.R3_ONE_INCOMPLETE_NEIGHBOR, _one_open_neighbor),
    )

    grid = state.grid
    incomplete = [i for i, r in enumerate(state._res) if r > 0]
    if not incomplete:
        check = is_solved(state)
        return (TauStatus.SOLVED if check else TauStatus.STALLED), check.reason
    caps = {i: state._capacity(i) for i in incomplete}
    for i in incomplete:
        if _overdrawn(state, i, caps[i]):
            return TauStatus.UNSOLVABLE, (
                f"node at {grid.nodes[i].coord} needs {state._res[i]} more connections but only "
                f"{sum(caps[i])} remain available around it"
            )
    for rule, forced in _LOCAL_RULES:
        for i in incomplete:
            word = forced(state, i, caps[i])
            if word is not None:
                return i, rule, word
    candidates = []
    for i in incomplete:
        w = omega_star(state, grid.nodes[i])
        if w is None:
            return TauStatus.UNSOLVABLE, f"node at {grid.nodes[i].coord} has no feasible configuration left"
        if any(w.counts):
            r = len(grid._links[i])
            candidates.append((r, -abs(state._res[i] - (r * grid.k) // 2), i, w.counts))
    if not candidates:
        return TauStatus.STALLED, "no incomplete node has any guaranteed connection"
    _, _, i, counts = min(candidates)
    return i, TauRule.R4_OMEGA_STAR, counts


# Generated grids up to 8x8, k 1-3, both modes.
EQUIVALENCE_CORPUS = [
    (3, 3, 0.9, 1, GenMode.RANDOM, range(150, 175)),
    (4, 4, 0.75, 2, GenMode.RANDOM, range(25)),
    (5, 5, 0.6, 3, GenMode.RANDOM, range(15)),
    (4, 4, 0.65, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(20)),
    (5, 4, 0.7, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, range(20)),
    (6, 6, 0.6, 1, GenMode.SOLVABLE_BY_CONSTRUCTION, range(10)),
    (6, 6, 0.6, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(10)),
    (8, 8, 0.5, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(4)),
    (8, 8, 0.45, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, range(3)),
    # A step far from a node completes the last of its component but it.
    (7, 7, 0.3, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, [12]),
]

# Constructive grids small enough for the oracle to find a solution fast.
RANDOM_WALK_CORPUS = [
    (5, 5, 0.7, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(10)),
    (6, 6, 0.6, 1, GenMode.SOLVABLE_BY_CONSTRUCTION, range(10)),
    (6, 6, 0.6, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, range(10)),
    (8, 8, 0.4, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(10)),
    (8, 8, 0.5, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, range(10)),
]

# Small constructive grids, walked one slot at a time.
PARTIAL_WALK_CORPUS = [
    (n, n, 0.7, k, GenMode.SOLVABLE_BY_CONSTRUCTION, range(40)) for n in (3, 4, 5) for k in (2, 3)
]


def complete_node(rng, links, target, mult):
    """Word counts that complete a node the way the target multiplicities
    do, given the node's links and the current multiplicities."""
    counts = [0, 0, 0, 0]
    for s, _, e in links:
        counts[s] = target[e] - mult[e]
    return tuple(counts)


def partial_slot(rng, links, target, mult):
    """Word counts of 1 to all the connections the target still adds on one
    random slot of a node that still lacks some."""
    s, e = rng.choice([(s, e) for s, _, e in links if target[e] > mult[e]])
    return toward(s, rng.randint(1, target[e] - mult[e]))


def walk_toward_solutions(corpus, step, seed, least_steps, least_checks):
    """Walk each grid of corpus from the empty state to one of its
    solutions, each step the word step gives at a random incomplete node,
    with random draws seeded by seed.

    After each step the state vectors must equal those of the same steps
    replayed through apply_builder, the carried tables must equal tables
    built from scratch, and every omega_star the engine keeps must equal a
    fresh one.
    """
    rng = random.Random(seed)
    steps = memo_checks = 0
    for g in generated(corpus):
        solution = enumerate_solutions(g, limit=1).solutions[0]
        target = [solution.get(e, 0) for e in g.all_edges]
        engine = _Engine(PuzzleState.empty(g))
        state = PuzzleState.empty(g)
        while True:
            assert (engine.mult, engine.res) == (list(state._mult), list(state._res))
            assert engine.state.digest() == state.digest()
            fresh = _Engine(state)
            assert (engine.caps, engine.fires) == (fresh.caps, fresh.fires)
            assert engine.blocked == fresh.blocked
            if engine.fires[1] and not engine.fires[0]:  # next_move keeps R1's bound
                assert min(engine.fires[1]) >= engine.low
                assert engine.next_move()[0] == min(engine.fires[1])
            incomplete = [i for i, caps in enumerate(engine.caps) if caps is not None]
            if not incomplete:
                break
            engine._omega_move()  # fills in the missing omega_star words
            assert engine.ctx.dead == context(state).dead
            for i, w in engine.ctx.kept.items():
                expected = omega_star(state, g.nodes[i])
                assert w == (None if expected is None else expected.counts), (g.nodes, state.connections(), i)
                memo_checks += 1
            i = rng.choice(incomplete)
            counts = step(rng, g._links[i], target, state._mult)
            engine.apply(i, counts)
            state = apply_builder(state, g.nodes[i], ConfigWord(*counts))
            steps += 1
    assert steps >= least_steps and memo_checks >= least_checks, (steps, memo_checks)


# The first step seals the pair off; the square then needs R4.
SEALED_PAIR = NumberedGrid(2, [
    node(0, 0, 1), node(1, 0, 1), node(5, 5, 2), node(6, 5, 2), node(5, 6, 2), node(6, 6, 2),
])


class TestIncrementalEngine:
    def test_every_step_matches_the_from_scratch_reference(self):
        statuses, rules, reasons = set(), set(), set()
        crossed = memo_checks = 0
        for g in generated(EQUIVALENCE_CORPUS) + [SEALED_PAIR]:
            engine = _Engine(PuzzleState.empty(g))
            while True:
                move = engine.next_move()
                state = engine.state
                assert move == reference_move(state), (g.nodes, state.connections())
                fresh = context(state)
                # The engine's context, built at the first R4 step, leaves
                # starved nodes to the over-capacity check.
                assert engine.ctx is None or engine.ctx.dead == fresh.dead or engine.fires[0]
                if not fresh.dead:
                    for i, w in (engine.ctx.kept if engine.ctx else {}).items():
                        expected = omega_star(state, g.nodes[i])
                        assert w == (None if expected is None else expected.counts)
                        memo_checks += 1
                if isinstance(move[0], TauStatus):
                    statuses.add(move[0])
                    reasons.update(r for r in ENGINE_REASONS if r in (move[1] or ""))
                    break
                rules.add(move[1])
                engine.apply(move[0], move[2])
            crossed += any(state._mult[e] for e, cs in enumerate(g._crossings) if cs)
        assert statuses == set(TauStatus)
        assert rules == set(TauRule)
        assert reasons == set(ENGINE_REASONS)
        assert crossed >= 5
        assert memo_checks >= 1000

    def test_next_move_takes_the_lowest_id_of_the_first_local_table(self):
        # next_move scans R1's table up from a bound it keeps across steps,
        # and takes min() of R2's and R3's: each must give the lowest id.
        grids = generated([(5, 5, 0.6, k, GenMode.RANDOM, range(35)) for k in (1, 2, 3)]
                          + [(6, 6, 0.5, k, GenMode.SOLVABLE_BY_CONSTRUCTION, range(35)) for k in (1, 2, 3)])
        assert len(grids) >= 200
        taken = [0, 0, 0]
        for g in grids:
            engine = _Engine(PuzzleState.empty(g))
            while True:
                tables = engine.fires[1:]
                first = next((t for t in tables if t), None)
                assert min(engine.fires[1], default=engine.low) >= engine.low
                move = engine.next_move()
                if isinstance(move[0], TauStatus):
                    break
                if first is not None:
                    assert move[0] == min(first), (g.nodes, engine.state.connections())
                    taken[tables.index(first)] += 1
                engine.apply(move[0], move[2])
        assert min(taken) >= 10, taken

    def test_bookkeeping_survives_random_steps_toward_a_solution(self):
        # Each step completes a random incomplete node the way one solution
        # does, in an order the engine's own rules would not take.
        walk_toward_solutions(RANDOM_WALK_CORPUS, complete_node, 3, least_steps=700, least_checks=10000)

    def test_bookkeeping_survives_partial_steps_toward_a_solution(self):
        # Each step draws part of what one solution puts on a random slot of
        # a random incomplete node, so it can lower a neighbor's residual
        # without completing anything: a word kept at a neighbor of that
        # neighbor may then complete it and starve another node. A drop set
        # in _Context.step without the neighbors that can newly fill their
        # slot toward a touched node (its residual falls to k - mult on
        # their edge) leaves 27 to 45 such stale words on each walk with
        # seeds 0-9; the test takes two of them.
        for seed in (8, 0):
            walk_toward_solutions(PARTIAL_WALK_CORPUS, partial_slot, seed, least_steps=3000, least_checks=25000)

    def test_a_join_between_one_and_two_magnitudes_drops_omega_star(self):
        # A k=4 row (0, 0)..(5, 0) of magnitudes 4 5 2 2 2 1, beside a far
        # pair. The steps draw one connection down the row; the last one
        # completes (4, 0) and (5, 0), four links from (0, 0), and leaves
        # the row's component with residual sum 3 + 3: more than the largest
        # magnitude, at most twice it. (0, 0)'s only word, 3 toward (1, 0),
        # now seals the row off, so the omega_star kept from before the step
        # must go, though no other reason reaches (0, 0).
        g = NumberedGrid(4, [
            node(0, 0, 4), node(1, 0, 5), node(2, 0, 2), node(3, 0, 2), node(4, 0, 2), node(5, 0, 1),
            node(10, 5, 1), node(11, 5, 1),
        ])
        engine = _Engine(PuzzleState.empty(g))
        for x in range(5):
            engine._omega_move()  # fills in the missing omega_star words
            i, right = g._index[Coordinate(x, 0)], g._index[Coordinate(x + 1, 0)]
            engine.apply(i, toward(next(s for s, q, _ in g._links[i] if q == right), 1))
            state = engine.state
            assert not context(state).dead
            engine._omega_move()
            for j, w in engine.ctx.kept.items():
                expected = omega_star(state, g.nodes[j])
                assert w == (None if expected is None else expected.counts), (x, g.nodes[j])
        assert engine.ctx.kept[g._index[Coordinate(0, 0)]] is None

    def test_a_neighbor_completed_across_a_full_edge_is_revised(self):
        # k=2: (0, 0) draws 2 to (1, 0), which then completes toward (2, 0).
        # (0, 0)'s slot toward (1, 0) was 0 before and after, but (1, 0) no
        # longer counts as incomplete, so R3 now fires at (0, 0) toward (0, 1).
        g = NumberedGrid(2, [node(0, 0, 3), node(1, 0, 3), node(2, 0, 1), node(0, 1, 2), node(0, 2, 1)])
        engine = _Engine(PuzzleState.empty(g))
        for x, m in ((0, 2), (1, 1)):
            i, right = g._index[Coordinate(x, 0)], g._index[Coordinate(x + 1, 0)]
            engine.apply(i, toward(next(s for s, q, _ in g._links[i] if q == right), m))
        assert engine.fires == _Engine(engine.state).fires
        # next_move takes an R1 step elsewhere, so read the word's source:
        # (0, 0) needs 1 and has room toward (0, 1) alone.
        i = g._index[Coordinate(0, 0)]
        assert i in engine.fires[3] and (engine.res[i], engine.caps[i]) == (1, (2, 0, 0, 0))

    def test_a_neighbor_whose_slot_stays_capped_drops_omega_star(self):
        # k=2: (1, 10) hangs from a column of magnitude-3 nodes, so its
        # component's incomplete nodes lie along the column, in no node's
        # closed neighborhood, and ctx.step drops no word for a seal. The
        # last step draws one connection from (1, 10) to (0, 10).
        # (2, 10)'s slot toward (1, 10) stays 2, so its capacity and rules
        # need no revision; but (1, 10)'s residual falls to 2, so a word at
        # (2, 10) can now fill that slot: its word with 2 toward (1, 10)
        # completes that node and starves (0, 10), so the omega_star kept
        # for (2, 10) must go.
        g = NumberedGrid(2, [node(0, 10, 2), node(1, 10, 4), node(2, 10, 2), node(2, 11, 2), node(2, 12, 1)]
                         + [node(1, y, 1 if y == 2 else 3) for y in range(2, 10)])
        engine = _Engine(PuzzleState.empty(g))
        c = g._index[Coordinate(2, 10)]

        def draw(a, b):
            i, j = g._index[a], g._index[b]
            engine.apply(i, toward(next(s for s, q, _ in g._links[i] if q == j), 1))

        for y in range(2, 10):
            draw(Coordinate(1, y), Coordinate(1, y + 1))
        engine._omega_move()  # fills in the missing omega_star words
        assert engine.ctx.kept[c] == toward(3, 1)
        draw(Coordinate(1, 10), Coordinate(0, 10))
        engine._omega_move()
        state = engine.state
        for j, w in engine.ctx.kept.items():
            expected = omega_star(state, g.nodes[j])
            assert w == (None if expected is None else expected.counts), g.nodes[j]
        assert engine.ctx.kept[c] == (1, 0, 0, 1)

    def test_a_long_chain_costs_linear_capacity_work(self, monkeypatch):
        # Every interior node of a k=1 chain of magnitude-2 nodes is
        # saturated, so the engine solves it with 1199 R1 steps, each
        # drawing the edge past the last. Three costs per step made this
        # quadratic: re-examining every node's capacity and rules, hashing
        # every entry for the step's digest, and taking min() of R1's table,
        # which holds half the chain on average. A step re-examines only the
        # few nodes around it whose view changed, formats and hashes the
        # digest entry of the one edge it draws, and next_move scans R1's
        # table up from a bound on its lowest id: its probes are the bound's
        # total advance plus one per step.
        n = 1200
        g = chain_grid(n)
        calls = {"_revise": 0, "_entry": 0, "probes": 0}
        revise, entry, init = _Engine._revise, tau_module._entry, _Engine.__init__

        class Probed(set):
            def __contains__(self, i):
                calls["probes"] += 1
                return super().__contains__(i)

            def __iter__(self):
                for i in super().__iter__():
                    calls["probes"] += 1
                    yield i

        def probed_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            engine.fires[1] = Probed(engine.fires[1])

        def counted_revise(engine, i):
            calls["_revise"] += 1
            return revise(engine, i)

        def counted_entry(e, m):
            calls["_entry"] += 1
            return entry(e, m)

        monkeypatch.setattr(_Engine, "_revise", counted_revise)
        monkeypatch.setattr(_Engine, "__init__", probed_init)
        monkeypatch.setattr(tau_module, "_entry", counted_entry)
        out, hashed = counted_run_tau(g)
        assert out.status is TauStatus.SOLVED and len(out.trace) == n - 1
        assert calls["_revise"] <= 3 * n
        assert calls["_entry"] == n - 1
        entries = sum(len(entry(e, m)) for e, m in out.final_state.connections().items())
        assert hashed["bytes"] <= 2 * entries
        assert calls["probes"] <= 2 * n

    def test_r4_runs_retest_only_the_words_a_step_can_change(self, monkeypatch):
        # Five constructive k=2-3 grids that take 1-11 R4 steps each. A step
        # drops a kept word only where the word test reads what the step
        # changed: 313 word tests in all, where dropping every word near a
        # touched node and around the merged component made 369.
        calls = [0]
        feasible = words_module._feasible

        def counted(*args):
            calls[0] += 1
            return feasible(*args)

        monkeypatch.setattr(words_module, "_feasible", counted)
        for seed, side, density, k in ((3, 6, 0.5, 3), (5, 7, 0.4, 2), (4, 7, 0.4, 3), (8, 8, 0.3, 2), (13, 8, 0.3, 3)):
            run_tau(generate(GenSpec(seed, side, side, density, k, GenMode.SOLVABLE_BY_CONSTRUCTION)))
        assert calls[0] == 313
