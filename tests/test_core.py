"""Grid model, neighbor resolution, crossing geometry, and the verifier."""

import hashlib
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlink import (
    CapacityExceeded,
    Coordinate,
    CrossingViolation,
    Direction,
    EdgeKey,
    GenMode,
    GenSpec,
    GridError,
    InvalidConnectionError,
    Node,
    NumberedGrid,
    PuzzleState,
    ResidualExceeded,
    generate,
    is_solved,
    node,
    segments_cross,
)
from gridlink import oracle
from gridlink.core import _compile, _Components, _nodes
from gridlink.oracle import SolutionSet, min_solvable_k

from reference import components, edge, random_grids


class TestNeighbor:
    def test_nearest_above_when_only_candidate(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(0, 5, 1)])
        p = g.node_at(Coordinate(0, 0))
        assert g.neighbor(p, Direction.TOP) == node(0, 5, 1)

    def test_nearest_above_skips_farther_node(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(0, 5, 1), node(0, 2, 1)])
        p = g.node_at(Coordinate(0, 0))
        assert g.neighbor(p, Direction.TOP) == node(0, 2, 1)

    def test_isolated_node_has_no_neighbors(self):
        g = NumberedGrid(1, [node(0, 0, 1)])
        p = g.nodes[0]
        for d in Direction:
            assert g.neighbor(p, d) is None

    def test_long_range_neighbors_in_sparse_row(self):
        g = NumberedGrid(2, [node(1, 3, 1), node(7, 3, 1)])
        left, right = g.node_at(Coordinate(1, 3)), g.node_at(Coordinate(7, 3))
        assert g.neighbor(left, Direction.RIGHT) == right
        assert g.neighbor(right, Direction.LEFT) == left
        assert g.neighbor(left, Direction.TOP) is None

    @settings(max_examples=60, derandomize=True)
    @given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=12))
    def test_neighbor_relation_is_symmetric(self, coords):
        g = NumberedGrid(2, [node(x, y, 1) for x, y in coords])
        for p in g.nodes:
            for d in Direction:
                q = g.neighbor(p, d)
                if q is not None:
                    assert g.neighbor(q, Direction((d + 1) % 4 + 1)) == p  # two steps round the 1..4 cycle

    @settings(max_examples=80, derandomize=True)
    @given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=15))
    def test_neighbor_is_nearest_node_on_the_line(self, coords):
        g = NumberedGrid(1, [node(x, y, 1) for x, y in coords])
        for p in g.nodes:
            x, y = p.coord.x, p.coord.y
            candidates = {
                Direction.TOP: [(y2 - y, (x2, y2)) for x2, y2 in coords if x2 == x and y2 > y],
                Direction.RIGHT: [(x2 - x, (x2, y2)) for x2, y2 in coords if y2 == y and x2 > x],
                Direction.BOTTOM: [(y - y2, (x2, y2)) for x2, y2 in coords if x2 == x and y2 < y],
                Direction.LEFT: [(x - x2, (x2, y2)) for x2, y2 in coords if y2 == y and x2 < x],
            }
            for d, found in candidates.items():
                q = g.neighbor(p, d)
                if found:
                    assert (q.coord.x, q.coord.y) == min(found)[1]
                else:
                    assert q is None
            nbrs = g.neighbors(p)
            assert list(nbrs) == [d for d in Direction if candidates[d]]


# Coordinate sets for the compiled-table tests: dense draws from 0..9, and
# sparse ones whose rows and columns sit up to 10^9 apart, so a vertical
# edge can span rows far apart with rows between that have no node on its
# column. One row or one column comes up whenever a side draws one value.
dense_coords = st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=40)


@st.composite
def sparse_coords(draw):
    lines = st.lists(st.integers(0, 10**9), min_size=1, max_size=7, unique=True)
    xs, ys = draw(lines), draw(lines)
    return draw(st.sets(st.tuples(st.sampled_from(xs), st.sampled_from(ys)), min_size=1, max_size=40))


class TestSegmentsCross:
    def test_interior_crossing(self):
        assert segments_cross(edge(0, 1, 2, 1), edge(1, 0, 1, 2))

    def test_shared_endpoint_does_not_cross(self):
        assert not segments_cross(edge(0, 1, 2, 1), edge(0, 0, 0, 1))

    def test_parallel_segments_never_cross(self):
        assert not segments_cross(edge(0, 0, 1, 0), edge(2, 0, 3, 0))

    def test_touching_endpoint_on_interior_does_not_cross(self):
        # The vertical segment starts on the horizontal one's interior.
        assert not segments_cross(edge(0, 1, 2, 1), edge(1, 1, 1, 3))

    @settings(max_examples=100, derandomize=True)
    @given(st.lists(st.integers(0, 6), min_size=8, max_size=8))
    def test_symmetry(self, raw):
        x1, y1, dx1, x2, y2, dy2, horiz_len, vert_len = raw
        e1 = edge(x1, y1, x1 + 1 + dx1, y1)
        e2 = edge(x2, y2, x2, y2 + 1 + dy2)
        assert segments_cross(e1, e2) == segments_cross(e2, e1)

    @settings(max_examples=160, derandomize=True)
    @given(st.one_of(dense_coords, sparse_coords()))
    def test_crossing_conflicts_match_pairwise_scan(self, coords):
        g = NumberedGrid(1, [node(x, y, 1) for x, y in coords])
        expected = {
            e: tuple(f for f in g.all_edges if segments_cross(e, f)) for e in g.all_edges
        }
        assert g.crossing_conflicts == expected

    # Every pinned digest depends on edge-id order, so the compiled tables are
    # checked here against a scan of every pair of coordinates.
    @settings(max_examples=160, derandomize=True)
    @given(st.one_of(dense_coords, sparse_coords()))
    def test_compiled_tables_match_pairwise_reference(self, coords):
        g = NumberedGrid(1, [node(x, y, 1) for x, y in coords])

        def on_line(p, q, r):
            return r[0] == p[0] == q[0] or r[1] == p[1] == q[1]

        # p < q in (x, y) order; a pair is a neighbor pair when nothing lies strictly between.
        pairs = [
            EdgeKey(Coordinate(*p), Coordinate(*q))
            for p in coords for q in coords
            if p < q and on_line(p, q, q) and not any(p < r < q and on_line(p, q, r) for r in coords)
        ]
        assert g.all_edges == tuple(sorted(pairs))
        # all_edges skips the checked constructor; its keys must still pass it.
        assert all(e.a < e.b and (e.a.x == e.b.x or e.a.y == e.b.y) for e in g.all_edges)
        index = {(n.coord.x, n.coord.y): i for i, n in enumerate(g.nodes)}
        assert g._ends == tuple((index[e.a.x, e.a.y], index[e.b.x, e.b.y]) for e in g.all_edges)
        step = dict(zip(Direction, [(0, 1), (1, 0), (0, -1), (-1, 0)]))
        slots = []
        for i, row in enumerate(g._links):
            # Only existing links are listed, no placeholder, in strictly increasing slot order.
            assert None not in row and all(len(link) == 3 for link in row)
            assert all(a[0] < b[0] for a, b in zip(row, row[1:]))
            for s, q, e in row:
                d = Direction(s + 1)
                # A node's TOP and RIGHT slots hold the edges it is the lower end of.
                lower = d in (Direction.TOP, Direction.RIGHT)
                assert g._ends[e] == ((i, q) if lower else (q, i))
                a, b = g.nodes[i].coord, g.nodes[q].coord
                dx, dy = b.x - a.x, b.y - a.y
                assert ((dx > 0) - (dx < 0), (dy > 0) - (dy < 0)) == step[d]
                slots.append(e)
        assert sorted(slots) == [e for e in range(len(g._ends)) for _ in range(2)]

    # The crossing sweep's work must follow the rows between a vertical
    # edge's ends, not the coordinate gap: one that walked y from 0 to 10^12
    # would not finish.
    def test_crossings_of_a_column_spanning_a_huge_gap(self):
        top = 10**12
        coords = [(5, 0), (5, top)]
        coords += [(0, y) for y in (1, 10**6, top - 1)] + [(10, y) for y in (1, 10**6, top - 1)]
        coords += [(0, 7), (3, 7), (7, 9), (9, 9)]  # rows with no edge over the column
        g = NumberedGrid(1, [node(x, y, 1) for x, y in coords])
        column = edge(5, 0, 5, top)
        rows = (edge(0, 1, 10, 1), edge(0, 10**6, 10, 10**6), edge(0, top - 1, 10, top - 1))
        assert g.crossing_conflicts[column] == rows
        assert all(g.crossing_conflicts[e] == (column,) for e in rows)
        assert g.crossing_conflicts == {
            e: tuple(f for f in g.all_edges if segments_cross(e, f)) for e in g.all_edges
        }

    def test_edge_keys_hash_and_look_up_alike_however_built(self):
        g = NumberedGrid(1, [node(0, 1, 1), node(2, 1, 1), node(1, 0, 1), node(1, 2, 1), node(2, 0, 1)])
        built = {edge(0, 1, 2, 1), edge(1, 0, 1, 2), edge(1, 0, 2, 0), edge(2, 0, 2, 1)}
        assert set(g.all_edges) == built and {hash(e) for e in g.all_edges} == {hash(e) for e in built}
        assert g.crossing_conflicts[edge(0, 1, 2, 1)] == (edge(1, 0, 1, 2),)
        for e in g.all_edges:
            twin = EdgeKey.between(e.b, e.a)
            assert twin == e and twin is not e and hash(twin) == hash(e)
            assert g.crossing_conflicts[twin] == g.crossing_conflicts[e]
            assert all(f in built and e in g.crossing_conflicts[f] for f in g.crossing_conflicts[e])


# All of a grid's nodes on one row or one column, far apart or close.
one_line_coords = st.tuples(
    st.sets(st.integers(0, 10**6), min_size=1, max_size=20), st.integers(0, 10**6), st.booleans()
).map(lambda t: {(v, t[1]) if t[2] else (t[1], v) for v in t[0]})


class TestUncheckedBuilders:
    """The parser and the generator compile plain ints with _compile and
    build nodes with _nodes before any grid exists."""

    @settings(max_examples=160, derandomize=True)
    @given(st.one_of(dense_coords, sparse_coords(), one_line_coords))
    def test_compile_over_plain_ints_matches_a_checked_grid(self, coords):
        g = NumberedGrid(1, [node(x, y, 1) for x, y in coords])
        cells = sorted((y, x) for x, y in coords)  # row-major order
        tables = _compile([x for _, x in cells], [y for y, _ in cells])
        assert tables == (g._links, g._ends, g._crossings)

    @settings(max_examples=100, derandomize=True)
    @given(st.lists(
        st.tuples(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(1, 8)),
        min_size=1, max_size=12, unique_by=lambda r: r[:2],
    ))
    def test_unchecked_nodes_behave_as_constructed(self, records):
        built = _nodes(*zip(*records))
        checked = tuple(node(x, y, m) for x, y, m in records)
        assert type(built) is tuple and built == checked
        for b, c in zip(built, checked):
            assert type(b) is Node and type(b.coord) is Coordinate
            assert hash(b) == hash(c) and hash(b.coord) == hash(c.coord)
            assert repr(b) == repr(c) and list(vars(b)) == list(vars(c)) and list(vars(b.coord)) == ["x", "y"]
            assert pickle.loads(pickle.dumps(b)) == c
            with pytest.raises(FrozenInstanceError):
                b.magnitude = 1
            with pytest.raises(FrozenInstanceError):
                b.coord.x = 0
        pairs = [(p.coord, q.coord) for p in built for q in built]
        twins = [(p.coord, q.coord) for p in checked for q in checked]
        for compare in (lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a == b):
            assert [compare(a, b) for a, b in pairs] == [compare(a, b) for a, b in twins]
        assert NumberedGrid(1, built).nodes == NumberedGrid(1, checked).nodes

    def test_a_grid_under_another_bound_shares_only_its_topology(self, monkeypatch):
        g = generate(GenSpec(3, 6, 6, 0.6, 2, GenMode.SOLVABLE_BY_CONSTRUCTION))
        digest, _ = PuzzleState.empty(g).digest(), g.crossing_conflicts  # both cached on g
        tried = []  # every candidate min_solvable_k builds, none found solvable
        monkeypatch.setattr(oracle, "enumerate_solutions", lambda grid, limit: tried.append(grid) or SolutionSet((), True))
        assert min_solvable_k(g, 3) is None and [c.k for c in tried] == [1, 2, 3]
        out, fresh = tried[-1], NumberedGrid(3, g.nodes)
        assert out == fresh and out.nodes is g.nodes
        assert (out._links, out._ends, out._crossings) == (fresh._links, fresh._ends, fresh._crossings)
        assert out._links is g._links and out._ends is g._ends and out._crossings is g._crossings
        assert out.all_edges is g.all_edges
        assert PuzzleState.empty(out).digest() == PuzzleState.empty(fresh).digest() != digest


class TestGridValidation:
    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            NumberedGrid(1, [node(0, 0, 1), node(0, 0, 2)])
        # Duplicates apart in the input; the message names the lowest in row-major order.
        with pytest.raises(ValueError, match=r"duplicate coordinate \(0, 0\)"):
            NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1), node(0, 0, 2)])
        with pytest.raises(ValueError, match=r"duplicate coordinate \(1, 0\)"):
            NumberedGrid(1, [node(0, 1, 1), node(1, 0, 1), node(0, 1, 2), node(1, 0, 3)])

    def test_k_and_magnitude_bounds(self):
        with pytest.raises(ValueError):
            NumberedGrid(0, [node(0, 0, 1)])
        with pytest.raises(ValueError):
            node(0, 0, 0)
        with pytest.raises(ValueError):
            Coordinate(-1, 0)

    def test_nodes_kept_in_row_major_order(self):
        g = NumberedGrid(1, [node(1, 1, 1), node(0, 0, 1), node(1, 0, 1)])
        assert [(n.coord.x, n.coord.y) for n in g.nodes] == [(0, 0), (1, 0), (1, 1)]


class TestDegreeAndState:
    def grid(self):
        return NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2)])

    def test_empty_state_has_degree_zero(self):
        g = self.grid()
        s = PuzzleState.empty(g)
        assert s.degree(g.nodes[0]) == 0
        assert s.residual(g.nodes[0]) == 2

    def test_degree_sums_multiplicities(self):
        g = self.grid()
        p = g.node_at(Coordinate(0, 0))
        s = PuzzleState.empty(g).add_connections(edge(0, 0, 1, 0), 1)
        assert s.degree(p) == 1
        s = s.add_connections(edge(0, 0, 0, 1), 1)
        assert s.degree(p) == 2
        assert s.residual(p) == 0

    def test_degree_reads_the_grids_magnitude(self):
        # The node passed names a coordinate; its magnitude is the grid's, not its own.
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1)])
        s = PuzzleState.empty(g)
        assert s.degree(node(0, 0, 7)) == 0
        assert s.add_connections(edge(0, 0, 1, 0), 1).degree(node(0, 0, 7)) == 1

    def test_double_edge_counts_twice(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2)])
        s = PuzzleState.empty(g).add_connections(edge(0, 0, 1, 0), 2)
        assert s.degree(g.nodes[0]) == 2

    def test_add_is_pure(self):
        g = self.grid()
        s0 = PuzzleState.empty(g)
        s1 = s0.add_connections(edge(0, 0, 1, 0), 1)
        assert s0.multiplicity(edge(0, 0, 1, 0)) == 0
        assert s1.multiplicity(edge(0, 0, 1, 0)) == 1

    def test_capacity_checked_before_residual(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2)])
        s = PuzzleState.empty(g)
        with pytest.raises(CapacityExceeded):
            s.add_connections(edge(0, 0, 1, 0), 3)

    def test_residual_exceeded(self):
        g = NumberedGrid(4, [node(0, 0, 2), node(1, 0, 4)])
        s = PuzzleState.empty(g)
        with pytest.raises(ResidualExceeded):
            s.add_connections(edge(0, 0, 1, 0), 3)

    def test_crossing_violation(self):
        g = NumberedGrid(2, [node(0, 1, 1), node(2, 1, 1), node(1, 0, 1), node(1, 2, 1)])
        s = PuzzleState.empty(g).add_connections(edge(0, 1, 2, 1), 1)
        with pytest.raises(CrossingViolation):
            s.add_connections(edge(1, 0, 1, 2), 1)
        with pytest.raises(CrossingViolation):
            PuzzleState(g, {edge(0, 1, 2, 1): 1, edge(1, 0, 1, 2): 1})
        # The column edge crosses both row edges; like the constructor,
        # add_connections names the first of them in edge order.
        g = NumberedGrid(1, [node(1, 0, 1), node(0, 1, 1), node(2, 1, 1), node(0, 2, 1), node(2, 2, 1), node(1, 3, 1)])
        rows = {edge(0, 1, 2, 1): 1, edge(0, 2, 2, 2): 1}
        with pytest.raises(CrossingViolation) as added:
            PuzzleState(g, rows).add_connections(edge(1, 0, 1, 3), 1)
        with pytest.raises(CrossingViolation) as built:
            PuzzleState(g, {**rows, edge(1, 0, 1, 3): 1})
        assert str(added.value) == str(built.value) == "(0, 1)-(2, 1) crosses (1, 0)-(1, 3)"

    def test_non_neighbor_edge_rejected(self):
        g = self.grid()
        s = PuzzleState.empty(g)
        with pytest.raises(InvalidConnectionError):
            s.add_connections(EdgeKey.between(Coordinate(0, 0), Coordinate(5, 0)), 1)
        for m in (0, -1):
            with pytest.raises(ValueError, match="multiplicity must be >= 1"):
                PuzzleState(g, {edge(0, 0, 1, 0): m})

    def test_remaining_capacity(self):
        g = self.grid()
        s = PuzzleState.empty(g)
        p = g.node_at(Coordinate(0, 0))
        caps = s.remaining_capacity(p)
        assert caps == {Direction.TOP: 2, Direction.RIGHT: 2, Direction.BOTTOM: 0, Direction.LEFT: 0}

    def test_digest_is_stable_and_sensitive(self):
        g = self.grid()
        s0 = PuzzleState.empty(g)
        s1 = s0.add_connections(edge(0, 0, 1, 0), 1)
        assert s0.digest() == PuzzleState.empty(self.grid()).digest()
        assert s0.digest() != s1.digest()


def random_states(rng, count):
    """States reached from the empty one by random add_connections calls on
    generated 2x2-6x6 grids (k 1-3, both modes); rejected additions are
    skipped."""
    for g in random_grids(rng, count, (2, 6), (0.4, 1.0), (1, 3), list(GenMode)):
        state = PuzzleState.empty(g)
        yield state
        for _ in range(rng.randint(1, 12)):
            try:
                state = state.add_connections(rng.choice(g.all_edges), rng.randint(1, g.k))
            except GridError:
                continue
            yield state


class TestStateBookkeeping:
    def test_added_connections_match_construction_from_scratch(self):
        checked = 0
        for s in random_states(random.Random(7), 100):
            g = s.grid
            conns = s.connections()
            assert PuzzleState(g, conns) == s
            for n in g.nodes:
                assert s.degree(n) == sum(m for e, m in conns.items() if n.coord in (e.a, e.b))
                expected = {}
                for d in Direction:
                    q = g.neighbors(n).get(d)
                    if q is None:
                        expected[d] = 0
                        continue
                    e = EdgeKey.between(n.coord, q.coord)
                    cap = min(g.k - s.multiplicity(e), s.residual(q))
                    crossed = any(s.multiplicity(c) > 0 for c in g.crossing_conflicts[e])
                    expected[d] = 0 if s.multiplicity(e) == 0 and crossed else cap
                assert s.remaining_capacity(n) == expected
            checked += 1
        assert checked > 400

    def test_an_addition_fails_or_succeeds_as_the_constructor_does(self):
        # add_connections checks only what one addition can break; building
        # the whole map with the addition must give the same state or raise
        # the same error with the same message.
        rng = random.Random(5)
        outcomes = {}
        for s in random_states(rng, 100):
            g = s.grid
            first = g.nodes[0].coord
            for e in g.all_edges + (EdgeKey.between(first, Coordinate(first.x + 50, first.y)),):
                m = rng.randint(1, g.k + 1)
                connections = s.connections()
                connections[e] = connections.get(e, 0) + m
                try:
                    expected = PuzzleState(g, connections)
                except GridError as error:
                    expected = error
                try:
                    got = s.add_connections(e, m)
                except GridError as error:
                    got = error
                if isinstance(expected, GridError):
                    assert (type(got), str(got)) == (type(expected), str(expected))
                else:
                    assert (got, got._res) == (expected, expected._res)
                outcomes[type(expected)] = outcomes.get(type(expected), 0) + 1
        kinds = (PuzzleState, InvalidConnectionError, CapacityExceeded, ResidualExceeded, CrossingViolation)
        assert set(outcomes) == set(kinds) and min(outcomes.values()) >= 20, outcomes



class TestDigest:
    def test_digest_hashes_the_documented_string(self):
        checked = empty = 0
        for s in random_states(random.Random(11), 80):
            g = s.grid
            parts = [f"k={g.k}"] + [f"n:{n.coord.x},{n.coord.y},{n.magnitude}" for n in g.nodes]
            parts += [f"e:{e.a.x},{e.a.y},{e.b.x},{e.b.y},{m}" for e, m in sorted(s.connections().items())]
            assert s.digest() == hashlib.sha256(";".join(parts).encode("ascii")).hexdigest()[:16]
            checked += 1
            empty += not s.connections()
        assert checked > 300 and empty > 50

class TestIsSolved:
    def test_single_pair_solved(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1)])
        s = PuzzleState.empty(g).add_connections(edge(0, 0, 1, 0), 1)
        assert is_solved(s)

    def test_two_complete_pairs_are_disconnected(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2)])
        s = PuzzleState.empty(g)
        s = s.add_connections(edge(0, 0, 1, 0), 2)
        s = s.add_connections(edge(0, 1, 1, 1), 2)
        check = is_solved(s)
        assert not check
        assert check.reason == "disconnected: node at (0, 1) is unreachable"

    def test_three_columns_name_the_lowest_unreachable_node(self):
        # Three vertical pairs; node ids run row-major, so the lowest id
        # outside node (0, 0)'s column is (1, 0), not the next column's top.
        g = NumberedGrid(1, [node(x, y, 1) for y in (0, 1) for x in (0, 1, 2)])
        s = PuzzleState.empty(g)
        for x in (0, 1, 2):
            s = s.add_connections(edge(x, 0, x, 1), 1)
        check = is_solved(s)
        assert not check
        assert check.reason == "disconnected: node at (1, 0) is unreachable"

    def test_incomplete_node_reported_with_witness(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 1)])
        s = PuzzleState.empty(g).add_connections(edge(0, 0, 1, 0), 1)
        check = is_solved(s)
        assert not check
        assert "incomplete node at (0, 0)" in check.reason

    def test_handshake_identity_on_solved_states(self):
        # Any solved state has total magnitude equal to twice the total
        # multiplicity, since each connection feeds two nodes.
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2)])
        s = PuzzleState.empty(g)
        for e in [edge(0, 0, 1, 0), edge(0, 0, 0, 1), edge(1, 0, 1, 1), edge(0, 1, 1, 1)]:
            s = s.add_connections(e, 1)
        assert is_solved(s)
        assert sum(n.magnitude for n in g.nodes) == 2 * sum(s.connections().values())


class TestComponents:
    @settings(max_examples=100, derandomize=True)
    @given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=24), st.data())
    def test_partition_matches_breadth_first_search_in_any_union_order(self, coords, data):
        g = NumberedGrid(1, [node(x, y, 1) for x, y in coords])
        order = data.draw(st.permutations(range(len(g._ends))))
        chosen = order[: data.draw(st.integers(0, len(order)))]
        flips = data.draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
        expected = {frozenset(c) for c in components(len(g.nodes), [g._ends[e] for e in chosen])}

        comps = _Components(len(g.nodes), g._ends)
        for e, flip in zip(chosen, flips):
            a, b = g._ends[e][::-1] if flip else g._ends[e]
            j = comps.union(a, b)
            assert comps.label[a] == comps.label[b] == j
        mult = [int(e in chosen) for e in range(len(g._ends))]
        for built in (comps, _Components(len(g.nodes), g._ends, mult)):
            assert {frozenset(m) for m in built.members.values()} == expected
            assert all(built.label[c] == j for j, m in built.members.items() for c in m)
