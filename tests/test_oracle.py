"""Exhaustive enumerator, minimal-k sweep, generator, stall search."""

import hashlib
import subprocess
import sys
from pathlib import Path
from random import Random
from typing import Optional

import pytest

from gridlink import formats, oracle
from gridlink import (
    GenMode,
    GenSpec,
    GenerationFailure,
    NumberedGrid,
    PuzzleState,
    enumerate_solutions,
    find_stall_witness,
    generate,
    is_solved,
    min_solvable_k,
    node,
    parse_puzzle,
    run_tau,
    screen,
    serialize_puzzle,
    SolutionSet,
    TauStatus,
)
from gridlink.core import _compile

from reference import brute_force_solutions, generated, planted


def listed(sols: SolutionSet):
    """A solution set with each solution's connections in their own order."""
    return sols.exhausted, [list(s.items()) for s in sols.solutions]


def reference_enumerate(grid: NumberedGrid, limit: Optional[int] = None) -> SolutionSet:
    """The enumerator as it was before it kept its components in a
    union-find: after every positive value it walks the positive-edge
    component of both endpoints. Enumerate every connection assignment that
    solves the grid.

    Edges take multiplicities in canonical order; branches die as soon as a
    node overshoots its magnitude, can no longer reach it, a crossing pair
    goes doubly positive, or a completed region seals itself off from the
    rest. Leaves are kept when the connection multigraph spans all nodes.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    edges = grid.all_edges
    ends, links, conflicts = grid._ends, grid._links, grid._crossings
    k = grid.k
    n_nodes = len(grid.nodes)
    magnitude = [n.magnitude for n in grid.nodes]
    degree = [0] * n_nodes
    # Per node: k * (number of incident edges not yet assigned); an upper
    # bound on connections the node can still receive.
    headroom = [k * len(node_links) for node_links in links]
    values = [0] * len(edges)
    found: list[dict] = []

    def sealed_off(start: int) -> bool:
        """True when start's positive-edge component is fully completed but
        does not span the grid."""
        comp = {start}
        stack = [start]
        while stack:
            c = stack.pop()
            if degree[c] != magnitude[c]:
                return False
            for _, q, e in links[c]:
                if values[e] > 0 and q not in comp:
                    comp.add(q)
                    stack.append(q)
        return len(comp) < n_nodes

    # Depth-first search with an explicit cursor: i is the edge being
    # assigned, and cursor[i] the next multiplicity to try on it; edges past
    # i hold 0. A recursion would need one frame per edge, which long grids
    # exceed. The loop ends with i < 0 unless the limit stopped it.
    cursor = [0] * len(edges)
    i = 0
    while i >= 0:
        if i == len(edges):
            # Every node is completed here, so sealed_off(0) is "not connected".
            if degree == magnitude and not sealed_off(0):
                found.append({edges[j]: values[j] for j in range(len(edges)) if values[j] > 0})
                if limit is not None and len(found) >= limit:
                    break
            i -= 1
            continue
        a, b = ends[i]
        if cursor[i] == 0:
            headroom[a] -= k
            headroom[b] -= k
        else:  # back from the subtree below: withdraw the value it assumed
            degree[a] -= values[i]
            degree[b] -= values[i]
        # A value above either endpoint's remaining magnitude overshoots it,
        # so the loop stops there rather than at k.
        blocked = any(values[j] > 0 for j in conflicts[i] if j < i)
        top = 0 if blocked else min(k, magnitude[a] - degree[a], magnitude[b] - degree[b])
        for v in range(cursor[i], top + 1):
            values[i] = v
            degree[a] += v
            degree[b] += v
            ok = magnitude[a] - degree[a] <= headroom[a] and magnitude[b] - degree[b] <= headroom[b]
            if ok and v > 0:
                ok = not any(degree[c] == magnitude[c] and sealed_off(c) for c in (a, b))
            if ok:
                cursor[i] = v + 1
                i += 1
                break
            degree[a] -= v
            degree[b] -= v
        else:
            values[i] = 0
            cursor[i] = 0
            headroom[a] += k
            headroom[b] += k
            i -= 1
    return SolutionSet(tuple(found), exhausted=i < 0)


# Generated grids up to 6x6, k 1-3, both modes; the frame-first constructive
# placements bring the crossing pairs.
REFERENCE_CORPUS = [
    (3, 3, 0.9, 1, GenMode.RANDOM, range(20)),
    (4, 4, 0.75, 2, GenMode.RANDOM, range(20)),
    (5, 5, 0.6, 3, GenMode.RANDOM, range(12)),
    (4, 4, 0.7, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(20)),
    (5, 5, 0.6, 1, GenMode.SOLVABLE_BY_CONSTRUCTION, range(15)),
    (5, 5, 0.8, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, range(12)),
    (6, 6, 0.7, 1, GenMode.SOLVABLE_BY_CONSTRUCTION, range(20)),
    (6, 6, 0.7, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, range(12)),
    (6, 6, 0.6, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, range(12)),
]


# Constructive 8x8 grids on which run_tau stalls, as `solve --method auto`
# then enumerates them: (seed, node density, k).
STALLED_8X8 = [(0, 0.5, 1), (2, 0.4, 1), (1, 0.5, 2), (3, 0.4, 2), (4, 0.5, 2), (0, 0.5, 3), (1, 0.4, 3), (9, 0.5, 3)]


# Generated grids of at most 8 edges whose assignments the brute force can
# list, (k + 1) ** edges at most 6561, as (width, height, density, k, seeds);
# each grid also runs relabeled by a planted assignment, which gives
# solutions, several per grid on cycles.
BRUTE_FORCE_CORPUS = [(3, 2, 1.0, 2, 12), (3, 3, 0.8, 1, 12), (3, 3, 0.7, 2, 20), (4, 4, 0.5, 2, 20), (4, 4, 0.45, 3, 12)]


# sha256 of every corpus grid's solutions in search order, with and without
# a limit, recorded before the enumerator's recursion became an explicit
# cursor: the order and the pruning must not change.
CORPUS_SOLUTIONS_DIGEST = "581793472cce27b5d52a907bf2844166d04404085c2fcc55b158f8e18668e407"


class TestEnumerateSolutions:
    def test_single_pair(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1)])
        sols = enumerate_solutions(g)
        assert len(sols) == 1 and sols.exhausted

    def test_forced_line_of_three(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 2), node(2, 0, 1)])
        sols = enumerate_solutions(g)
        assert len(sols) == 1
        assert all(m == 1 for m in sols.solutions[0].values())

    def test_square_matches_independent_brute_force(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2)])
        sols = enumerate_solutions(g)
        assert listed(sols) == listed(brute_force_solutions(g))
        assert len(sols) == 1 and sols.exhausted
        assert all(m == 1 for m in sols.solutions[0].values())

    def test_overloaded_pair_has_no_solutions(self):
        g = NumberedGrid(1, [node(0, 0, 2), node(1, 0, 2)])
        assert len(enumerate_solutions(g)) == 0

    def test_every_solution_passes_the_verifier(self):
        g = NumberedGrid(2, [
            node(0, 0, 2), node(1, 0, 3), node(2, 0, 1),
            node(0, 1, 1), node(1, 1, 3), node(2, 1, 2),
        ])
        sols = enumerate_solutions(g)
        assert sols.exhausted
        for m in sols.solutions:
            assert is_solved(PuzzleState(g, m))

    def test_limit_truncates_and_flags(self):
        g = NumberedGrid(2, [
            node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2),
            node(2, 0, 2), node(2, 1, 2),
        ])
        full = enumerate_solutions(g)
        if len(full) > 1:
            partial = enumerate_solutions(g, limit=1)
            assert len(partial) == 1 and not partial.exhausted
            assert partial.solutions[0] == full.solutions[0]

    def test_crossing_pairs_never_both_positive(self):
        g = NumberedGrid(2, [
            node(0, 1, 1), node(2, 1, 1), node(1, 0, 1), node(1, 2, 1),
            node(0, 0, 2), node(2, 0, 2), node(0, 2, 2), node(2, 2, 2),
        ])
        sols = enumerate_solutions(g)
        assert sols.exhausted
        for m in sols.solutions:
            for e in m:
                for other in g.crossing_conflicts[e]:
                    assert other not in m

    def test_long_chain_enumerates_to_its_path(self):
        # One edge per pair of neighbors, 1499 deep: more than a recursion
        # with one frame per edge can take.
        n = 1500
        g = NumberedGrid(1, [node(x, 0, 1 if x in (0, n - 1) else 2) for x in range(n)])
        sols = enumerate_solutions(g)
        assert sols.exhausted and len(sols) == 1
        assert sols.solutions[0] == {e: 1 for e in g.all_edges}

    def run_enumerate(self, puzzle):
        return subprocess.run(
            [sys.executable, "-m", "gridlink", "enumerate", str(puzzle), "--limit", "2"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent.parent,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )

    def test_huge_k_is_bounded_by_the_magnitudes(self, tmp_path):
        # No multiplicity above an endpoint's remaining magnitude is tried,
        # so k far beyond the magnitudes costs nothing.
        p = tmp_path / "pair.puzzle"
        p.write_text("k 1000000000\nnode 0 0 1\nnode 1 0 1\n")
        r = self.run_enumerate(p)
        assert r.returncode == 0
        assert r.stdout == "# solutions 1 exhausted true\n# solution 1\nconn 0 0 1 0 1\n"

    def test_matches_the_walker_reference(self):
        crossed = 0
        for g in generated(REFERENCE_CORPUS):
            crossed += any(g._crossings)
            for limit in (None, 1, 2):
                assert enumerate_solutions(g, limit) == reference_enumerate(g, limit), (g.nodes, limit)
        assert crossed

    def test_matches_the_walker_reference_where_the_engine_stalls(self):
        for seed, density, k in STALLED_8X8:
            g = generate(GenSpec(seed, 8, 8, density, k, GenMode.SOLVABLE_BY_CONSTRUCTION))
            assert run_tau(g).status is TauStatus.STALLED
            for limit in (None, 1, 2):
                assert listed(enumerate_solutions(g, limit)) == listed(reference_enumerate(g, limit)), (seed, k, limit)

    def test_matches_the_lexicographic_brute_force(self):
        seen = {"crossed": 0, "crossed and solved": 0, "several": 0}
        for width, height, density, k, seeds in BRUTE_FORCE_CORPUS:
            for seed in range(seeds):
                try:
                    g = generate(GenSpec(seed, width, height, density, k))
                except GenerationFailure:
                    continue
                if len(g.all_edges) > 8 or (k + 1) ** len(g.all_edges) > 6561:
                    continue
                for grid in filter(None, (g, planted(g, Random(seed)))):
                    crossed = any(grid.crossing_conflicts.values())
                    for limit in (None, 1, 2):
                        want = brute_force_solutions(grid, limit)
                        assert listed(enumerate_solutions(grid, limit)) == listed(want), (grid.nodes, limit)
                    seen["crossed"] += crossed
                    seen["crossed and solved"] += crossed and len(want) > 0
                    seen["several"] += len(want) > 1
        assert all(seen.values()), seen

    def test_long_chain_costs_linear_time(self, tmp_path):
        # A walk over the whole component after every value made this
        # quadratic: about 100 s for 20000 nodes.
        n = 20000
        p = tmp_path / "chain.puzzle"
        p.write_text("k 1\n" + "".join(f"node {x} 0 {1 if x in (0, n - 1) else 2}\n" for x in range(n)))
        r = self.run_enumerate(p)
        assert r.returncode == 0
        assert r.stdout.startswith("# solutions 1 exhausted true\n")

    def test_sealed_region_prunes_the_rest(self, tmp_path):
        # The square's cycle closes inside one component and completes it,
        # so the search must stop there. Without that cut it would enumerate
        # the constructive 12x12 grid beside the square, which shares no row
        # or column with it, for well over a minute.
        rest = generate(GenSpec(seed=0, width=12, height=12, node_density=0.6, k=2,
                                mode=GenMode.SOLVABLE_BY_CONSTRUCTION))
        square = [node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2)]
        moved = [node(n.coord.x + 2, n.coord.y + 2, n.magnitude) for n in rest.nodes]
        p = tmp_path / "sealed.puzzle"
        p.write_text(serialize_puzzle(NumberedGrid(2, square + moved)))
        r = self.run_enumerate(p)
        assert r.returncode == 2
        assert r.stdout.startswith("# solutions 0 exhausted true\n")

    def test_corpus_output_is_pinned(self, corpus, corpus_solutions):
        digest = hashlib.sha256()
        for g, full in zip(corpus, corpus_solutions):
            for sols in (full, enumerate_solutions(g, limit=2)):
                listed = [[(str(e), m) for e, m in s.items()] for s in sols.solutions]
                digest.update(repr((sols.exhausted, listed)).encode("ascii"))
        assert digest.hexdigest() == CORPUS_SOLUTIONS_DIGEST

    def test_deterministic_output_order(self):
        g = NumberedGrid(2, [
            node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2),
            node(2, 0, 2), node(2, 1, 2),
        ])
        a, b = enumerate_solutions(g), enumerate_solutions(g)
        assert a.solutions == b.solutions


class TestMinSolvableK:
    def test_double_pair_needs_two(self):
        g = NumberedGrid(1, [node(0, 0, 2), node(1, 0, 2)])
        assert min_solvable_k(g, 4) == 2

    def test_single_pair_needs_one(self):
        g = NumberedGrid(3, [node(0, 0, 1), node(1, 0, 1)])
        assert min_solvable_k(g, 4) == 1

    def test_odd_total_never_solvable(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 2)])
        assert min_solvable_k(g, 4) is None

    def test_candidates_share_the_compiled_topology(self, monkeypatch):
        g = NumberedGrid(1, [node(0, 0, 2), node(1, 0, 3), node(0, 1, 1), node(1, 1, 2)])
        digest = PuzzleState.empty(g).digest()  # caches g's digest prefix, which is of k
        tried = []
        real = oracle.enumerate_solutions
        monkeypatch.setattr(oracle, "enumerate_solutions", lambda grid, limit: tried.append(grid) or real(grid, limit))
        assert min_solvable_k(g, 4) == 2
        assert [c.k for c in tried] == [1, 2]
        digests = []
        for candidate in tried:
            assert candidate._links is g._links and candidate._ends is g._ends
            assert candidate._crossings is g._crossings and candidate.all_edges is g.all_edges
            fresh = NumberedGrid(candidate.k, g.nodes)
            assert candidate == fresh and candidate.nodes is g.nodes
            digests.append(PuzzleState.empty(candidate).digest())
            assert digests[-1] == PuzzleState.empty(fresh).digest()
        assert digests[0] == digest != digests[1]

    def test_k_max_bound_enforced(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1)])
        with pytest.raises(ValueError):
            min_solvable_k(g, 99)


class TestGenerate:
    def test_same_seed_same_grid(self):
        spec = GenSpec(seed=7, width=4, height=4, node_density=0.6, k=2)
        assert generate(spec) == generate(spec)

    def test_different_seeds_vary(self):
        grids = {
            generate(GenSpec(seed=s, width=4, height=4, node_density=0.6, k=2))
            for s in range(8)
        }
        assert len(grids) > 1

    def test_solvable_by_construction_has_a_solution(self):
        for seed in range(12):
            spec = GenSpec(
                seed=seed, width=3, height=3, node_density=0.9, k=2,
                mode=GenMode.SOLVABLE_BY_CONSTRUCTION,
            )
            g = generate(spec)
            assert len(enumerate_solutions(g, limit=1)) >= 1

    def test_random_mode_produces_odd_sum_screen_hits(self):
        hits = 0
        for seed in range(40):
            g = generate(GenSpec(seed=seed, width=3, height=3, node_density=0.8, k=2))
            report = screen(g)
            if any(v.condition == 2 for v in report.violations):
                hits += 1
        assert hits > 0

    def test_too_small_lattice_fails(self):
        with pytest.raises(GenerationFailure):
            generate(GenSpec(seed=1, width=1, height=1, node_density=1.0, k=1))

    # A generated or parsed grid takes the tables its builder compiled from
    # plain ints before any node existed, unchecked: they must equal those a
    # fresh compile of its nodes gives.
    @pytest.mark.parametrize("size, density", [(4, 0.75), (16, 0.5), (18, 0.45), (20, 0.4)])
    def test_shared_tables_equal_a_fresh_compile(self, size, density, monkeypatch):
        compiled = []

        def recording(xs, ys):
            compiled.append(tables := _compile(xs, ys))
            return tables

        def check(built):
            tables = (built._links, built._ends, built._crossings)
            # The builder's last compile, attached, not recompiled.
            assert all(t is c for t, c in zip(tables, compiled[-1], strict=True))
            fresh = NumberedGrid(built.k, built.nodes)
            assert built.nodes == fresh.nodes  # the nodes, built unchecked from sorted ints, are in row-major order
            assert tables == (fresh._links, fresh._ends, fresh._crossings)

        monkeypatch.setattr(oracle, "_compile", recording)
        monkeypatch.setattr(formats, "_compile", recording)
        styles = set()
        for seed in range(6):
            # generate's first draw picks the constructive placement style: frame-first below 0.5.
            styles.add(Random(seed).random() < 0.5)
            for mode in (GenMode.RANDOM, GenMode.SOLVABLE_BY_CONSTRUCTION):
                check(g := generate(GenSpec(seed, size, size, density, 2, mode)))
                header, *records = serialize_puzzle(g).splitlines()
                check(parse_puzzle(serialize_puzzle(g)))
                check(parse_puzzle("\n".join([header, *reversed(records)])))  # sorted by the parser, not the file
        assert styles == {True, False}

    # sha256 of serialize_puzzle(generate(spec)): a seed must keep naming the
    # same puzzle whatever changes in the topology code underneath.
    @pytest.mark.parametrize(
        "seed, size, density, k, digest",
        [
            (11, 16, 0.5, 2, "4725504c5bf1a67dbbf7b5bee0a836dedf463368f3b3eaececfacd805e640233"),
            (23, 18, 0.45, 3, "8eeda77bc4bda89cc3d13c3808835878ef504921c016d48d1f996f1be954de40"),
            (37, 20, 0.4, 2, "c9433e5ef639a153ac0396322364e3a189c5d3705dbe1b035e2da4c0a5eedd3f"),
        ],
    )
    def test_constructive_output_is_pinned(self, seed, size, density, k, digest):
        spec = GenSpec(
            seed=seed, width=size, height=size, node_density=density, k=k,
            mode=GenMode.SOLVABLE_BY_CONSTRUCTION,
        )
        text = serialize_puzzle(generate(spec))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    # The same for random mode, which sorts its nodes by cell after drawing
    # their magnitudes in placement order.
    @pytest.mark.parametrize(
        "seed, size, density, k, digest",
        [
            (5, 8, 0.5, 2, "8d49c565cc0b19fc7d49544475f70727db6ac8efab56d5ed94c92edd227eae62"),
            (13, 12, 0.4, 1, "4b126148a209b4b25d546eeb549cc702cf7f47aa8f6522523db14eb9cb977fae"),
            (29, 16, 0.6, 3, "b6781d52648079f9c59b4d87fd7c50fffe36f9a53c935fdea974cdd9ee84ca5f"),
        ],
    )
    def test_random_output_is_pinned(self, seed, size, density, k, digest):
        spec = GenSpec(seed=seed, width=size, height=size, node_density=density, k=k, mode=GenMode.RANDOM)
        text = serialize_puzzle(generate(spec))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


class TestFindStallWitness:
    def test_zero_budget_finds_nothing(self):
        spec = GenSpec(seed=0, width=3, height=3, node_density=1.0, k=2)
        assert find_stall_witness(0, spec) is None

    def test_solved_grids_are_rejected(self):
        # The all-2s square is uniquely solvable but the engine solves it,
        # so it can never be a stall witness.
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2)])
        out = run_tau(g)
        assert out.status is TauStatus.SOLVED
        assert len(enumerate_solutions(g)) == 1
