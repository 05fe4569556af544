"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite stays within a desk-scale time budget.
"""

import io
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gridlink import (
    Direction,
    EdgeKey,
    GenMode,
    GenSpec,
    NumberedGrid,
    TauStatus,
    count_configs,
    enumerate_phi_k,
    enumerate_solutions,
    find_stall_witness,
    omega_star,
    parse_puzzle,
    parse_solution,
    run_tau,
    screen,
    serialize_puzzle,
    serialize_solution,
)
from gridlink.cli import main
from gridlink.core import PuzzleState

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"

# Search window for the stall witness: from seed base 0, the deterministic
# sweep first succeeds at candidate index 29639, inside the 50k budget.
STALL_SPEC = GenSpec(
    seed=0,
    width=4,
    height=4,
    node_density=0.75,
    k=2,
    mode=GenMode.SOLVABLE_BY_CONSTRUCTION,
)
STALL_BUDGET = 50_000


def ok(criterion, detail=""):
    print(f"criterion {criterion}: PASS {detail}".rstrip())


def all_puzzle_fixtures():
    return sorted(FIXTURES.glob("*.puzzle"))


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "gridlink", *map(str, argv)],
        capture_output=True,
        cwd=REPO,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )


def test_criterion_01_configuration_counts():
    assert count_configs(7, 4, 2) == 4
    assert count_configs(20, 4, 10) == 891
    ok(1, "(count 7/4/2 = 4, count 20/4/10 = 891)")


def test_criterion_02_word_listings():
    got_2 = {w.digits() for w in enumerate_phi_k(2, 2)}
    assert got_2 == {"11", "22", "33", "44", "12", "13", "14", "23", "24", "34"}
    got_5 = {w.digits() for w in enumerate_phi_k(5, 2)}
    assert got_5 == {
        "11223", "11224", "11233", "11234", "11244", "11334", "11344", "12233",
        "12234", "12244", "12334", "12344", "13344", "22334", "22344", "23344",
    }
    ok(2, "(10 words at n=2, 16 words at n=5 under bound 2)")


def test_criterion_03_table_identities():
    for r in (2, 3, 4):
        for k in range(1, 7):
            row = [count_configs(n, r, k) for n in range(r * k + 1)]
            assert row == row[::-1], f"row r={r} k={k} not symmetric"
            mid = (r * k) // 2
            peak = max(row)
            peaks = [n for n, c in enumerate(row) if c == peak]
            if (r * k) % 2 == 0:
                assert peaks == [mid], f"row r={r} k={k} max not unique at midpoint"
            else:
                assert peaks == [mid, mid + 1], f"row r={r} k={k} max not at twin midpoints"
    for k in range(1, 7):
        for i in range(1, k + 2):
            assert count_configs(4 * k - (i - 1), 4, k) == i * (i + 1) * (i + 2) // 6
            assert count_configs(3 * k - (i - 1), 3, k) == i * (i + 1) // 2
    for k in range(1, 5):
        for n in range(1, 13):
            if n > 4 * k:
                assert count_configs(n, 4, k) == 0
            else:
                assert len(enumerate_phi_k(n, k)) == count_configs(n, 4, k)
    ok(3, "(symmetry, midpoint maxima, tetrahedral/triangular tails, enumeration = DP)")


def test_criterion_04_engine_solutions_are_unique(corpus, corpus_solutions):
    assert len(corpus) >= 500
    solved = 0
    for grid, sols in zip(corpus, corpus_solutions):
        outcome = run_tau(grid)
        if outcome.status is TauStatus.SOLVED:
            solved += 1
            assert sols.exhausted
            assert len(sols) == 1, f"engine solved a grid with {len(sols)} solutions"
            assert sols.solutions[0] == dict(outcome.final_state.sorted_items())
    assert solved > 0
    ok(4, f"({len(corpus)} grids, {solved} engine-solved, all uniquely)")


def test_criterion_05_guaranteed_connections_are_sound(corpus, corpus_solutions):
    checked = 0
    for grid, sols in zip(corpus, corpus_solutions):
        if not sols.solutions:
            continue
        state = PuzzleState.empty(grid)
        for p in grid.nodes:
            w = omega_star(state, p)
            assert w is not None, "no feasible word on a solvable grid"
            if not any(w.counts):
                continue
            checked += 1
            for solution in sols.solutions:
                for d in Direction:
                    q = grid.neighbor(p, d)
                    used = (
                        solution.get(EdgeKey.between(p.coord, q.coord), 0)
                        if q is not None
                        else 0
                    )
                    assert w.counts[d - 1] <= used, (
                        f"guaranteed word {w} at {p.coord} not inside a solution"
                    )
    assert checked > 0
    ok(5, f"({checked} nonzero guaranteed words, all dominated by every solution)")


def test_criterion_06_screens_sound_but_incomplete(corpus, corpus_solutions):
    flagged = 0
    incomplete_witness = 0
    for grid, sols in zip(corpus, corpus_solutions):
        report = screen(grid)
        if report.unsolvable:
            flagged += 1
            assert len(sols) == 0, "screen flagged a solvable grid"
        elif len(sols) == 0:
            incomplete_witness += 1
    assert flagged > 0
    assert incomplete_witness > 0, "no grid passes screens while unsolvable"
    ok(6, f"({flagged} flagged grids all unsolvable; {incomplete_witness} pass screens yet unsolvable)")


def test_criterion_07_k_monotonicity(corpus, corpus_solutions):
    checked = 0
    for grid, sols in zip(corpus, corpus_solutions):
        if grid.k > 2 or not sols.solutions:
            continue
        checked += 1
        bigger = NumberedGrid(grid.k + 1, grid.nodes)
        assert len(enumerate_solutions(bigger, limit=1)) >= 1, (
            f"grid solvable at k={grid.k} but not at k={grid.k + 1}"
        )
    assert checked > 0
    ok(7, f"({checked} solvable grids stay solvable at k+1)")


def test_criterion_08_stall_witness():
    witness = find_stall_witness(STALL_BUDGET, STALL_SPEC)
    assert witness is not None, "no stall witness within budget"
    committed = parse_puzzle((FIXTURES / "pinwheel_like.puzzle").read_text())
    assert witness == committed, "search no longer reproduces the committed witness"
    outcome = run_tau(committed)
    assert outcome.status is TauStatus.STALLED and outcome.trace == ()
    sols = enumerate_solutions(committed, limit=2)
    assert len(sols) == 1 and sols.exhausted
    ok(8, f"(unique-solution grid with an empty propagation trace, budget {STALL_BUDGET})")


def test_criterion_09_cli_byte_determinism():
    fixtures = all_puzzle_fixtures()
    assert fixtures
    for fixture in fixtures:
        for args in (["tau", fixture, "--json"], ["enumerate", fixture, "--limit", "10"]):
            first, second = run_cli(*args), run_cli(*args)
            assert first.stdout == second.stdout and first.stdout
            assert first.returncode == second.returncode
    ok(9, f"(tau --json and enumerate --limit 10 byte-stable on {len(fixtures)} fixtures)")


def test_criterion_10_round_trip_and_verifier_rejections(tmp_path):
    fixtures = all_puzzle_fixtures()
    assert fixtures
    for fixture in fixtures:
        text = fixture.read_text()
        grid = parse_puzzle(text)
        assert parse_puzzle(serialize_puzzle(grid)) == grid

    rejected = 0
    for fixture in fixtures:
        solution_path = fixture.with_suffix(".solution")
        if not solution_path.exists():
            continue
        records = parse_solution(solution_path.read_text())
        assert serialize_solution(parse_solution(serialize_solution(records))) == \
            serialize_solution(records)
        assert run_cli("verify", fixture, solution_path).returncode == 0

        rng = random.Random(f"perturb:{fixture.name}")
        for case in range(20):
            lines = serialize_solution(records).splitlines()
            idx = rng.randrange(len(lines))
            parts = lines[idx].split()
            field = rng.choice([1, 2, 3, 4, 5])
            value = int(parts[field]) + rng.choice([-1, 1])
            if field <= 4 and value < 0:
                value = int(parts[field]) + 1  # keep the record changed
            parts[field] = str(value)
            lines[idx] = " ".join(parts)
            perturbed = tmp_path / f"perturbed_{fixture.stem}_{case}.solution"
            perturbed.write_text("\n".join(lines) + "\n")
            # In-process, so a traceback fails the test instead of exiting 1;
            # its report is dropped, so that -s shows only the PASS lines.
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(["verify", str(fixture), str(perturbed)])
            assert code != 0, (
                f"perturbation accepted: {fixture.name} case {case}: {lines[idx]}"
            )
            rejected += 1
    assert rejected >= 20
    ok(10, f"(round-trips clean; {rejected} perturbed solutions all rejected)")
