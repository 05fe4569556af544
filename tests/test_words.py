"""Configuration words: enumeration, counting, feasibility, guaranteed words."""

import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlink import (
    ConfigWord,
    Coordinate,
    GenMode,
    GenSpec,
    NoConfigurationsError,
    NumberedGrid,
    PuzzleState,
    apply_builder,
    count_configs,
    enumerate_feasible,
    enumerate_phi_k,
    enumerate_solutions,
    generate,
    node,
    omega_star,
    run_tau,
    word_meet,
)
from gridlink.words import _Context, _spread

from reference import fitting_words, random_grids, toward, whole_state_feasible

PHI_2_2 = {"11", "22", "33", "44", "12", "13", "14", "23", "24", "34"}
PHI_5_2 = {
    "11223", "11224", "11233", "11234", "11244", "11334", "11344", "12233",
    "12234", "12244", "12334", "12344", "13344", "22334", "22344", "23344",
}


def words_as_digits(ws):
    return {w.digits() for w in ws}


class TestConfigWord:
    def test_digit_round_trip(self):
        w = ConfigWord.from_digits("1212121")
        assert w.counts == (4, 3, 0, 0)
        assert w.digits() == "1111222"
        assert sum(w.counts) == 7

    def test_meet_is_componentwise_min(self):
        a, b = ConfigWord(2, 1, 0, 3), ConfigWord(1, 2, 2, 0)
        assert word_meet(a, b) == ConfigWord(1, 1, 0, 0)


class TestEnumeratePhi:
    def test_magnitude_two_bound_two(self):
        assert words_as_digits(enumerate_phi_k(2, 2)) == PHI_2_2

    def test_magnitude_five_bound_two(self):
        assert words_as_digits(enumerate_phi_k(5, 2)) == PHI_5_2

    def test_one_connection_four_directions(self):
        assert len(enumerate_phi_k(1, 1)) == 4

    def test_impossible_magnitude_raises(self):
        with pytest.raises(NoConfigurationsError):
            enumerate_phi_k(9, 2)

    def test_order_is_deterministic_lexicographic(self):
        ws = list(enumerate_phi_k(3, 2))
        assert [w.counts for w in ws] == sorted(w.counts for w in ws)

    @settings(max_examples=80, derandomize=True)
    @given(n=st.integers(1, 12), k=st.integers(1, 4))
    def test_cardinality_matches_dp_count(self, n, k):
        if n > 4 * k:
            assert count_configs(n, 4, k) == 0
            with pytest.raises(NoConfigurationsError):
                enumerate_phi_k(n, k)
        else:
            assert len(enumerate_phi_k(n, k)) == count_configs(n, 4, k)

    def test_spread_lists_every_capped_word_in_order(self):
        # Unequal and zero caps, against the full product filtered to sum n.
        for caps in itertools.product(range(4), (0, 2, 5), range(3), (0, 1, 4)):
            for n in range(sum(caps) + 2):
                listing = [c for c in itertools.product(*(range(c + 1) for c in caps)) if sum(c) == n]
                assert list(_spread(n, caps)) == listing, (n, caps)


class TestCountConfigs:
    def test_known_values(self):
        assert count_configs(7, 4, 2) == 4
        assert count_configs(20, 4, 10) == 891

    def test_empty_configuration(self):
        for r in (1, 2, 3, 4):
            assert count_configs(0, r, 3) == 1

    def test_full_saturation_has_one_way(self):
        for r in (1, 2, 3, 4):
            for k in (1, 2, 5):
                assert count_configs(r * k, r, k) == 1

    def test_overfull_is_zero(self):
        assert count_configs(9, 4, 2) == 0

    # A magnitude-3 node with four neighbors under bound 2 admits 16 counted
    # multisets; the generating-function semantics pin this value.
    def test_three_of_four_under_two(self):
        assert count_configs(3, 4, 2) == 16
        assert len(enumerate_phi_k(3, 2)) == 16

    @settings(max_examples=120, derandomize=True)
    @given(r=st.integers(1, 4), k=st.integers(1, 6), n=st.integers(0, 24))
    def test_row_symmetry(self, r, k, n):
        if n <= r * k:
            assert count_configs(n, r, k) == count_configs(r * k - n, r, k)

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_row_maximum_at_midpoint(self, r, k):
        row = [count_configs(n, r, k) for n in range(r * k + 1)]
        mid = (r * k) // 2
        assert row[mid] == max(row)
        peaks = [n for n, c in enumerate(row) if c == max(row)]
        if (r * k) % 2 == 0:
            assert peaks == [mid]
        else:
            assert peaks == [mid, mid + 1]

    def test_matches_enumeration_and_brute_force(self):
        for k in range(1, 5):
            for n in range(0, 4 * k + 2):
                if 1 <= n <= 4 * k:
                    assert count_configs(n, 4, k) == len(enumerate_phi_k(n, k))
                for r in (1, 2, 3, 4):
                    brute = sum(1 for c in itertools.product(range(k + 1), repeat=r) if sum(c) == n)
                    assert count_configs(n, r, k) == brute

    def test_huge_bound_counts_only_up_to_the_magnitude(self):
        # Coefficients past x^n are never needed, so k far above n is cheap.
        assert count_configs(3, 4, 10**6) == 20
        assert count_configs(2, 3, 10**9) == 6

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_tail_values(self, k):
        # Reading a row right to left, the first k+1 entries are tetrahedral
        # numbers for four neighbors and triangular numbers for three.
        for i in range(1, k + 2):
            assert count_configs(4 * k - (i - 1), 4, k) == i * (i + 1) * (i + 2) // 6
            assert count_configs(3 * k - (i - 1), 3, k) == i * (i + 1) // 2


def tutorial_grid():
    """Nine-node instance built so the corner node and, one step later, the
    magnitude-5 center node have hand-checked feasible sets."""
    return NumberedGrid(2, [
        node(0, 0, 2), node(2, 0, 2), node(3, 0, 1),
        node(0, 1, 2), node(1, 1, 2), node(2, 1, 5), node(3, 1, 3),
        node(1, 2, 2), node(2, 2, 3),
    ])


def engine_states():
    """The states run_tau passes through on constructive 6x6-8x8 grids with
    k=2-3, rebuilt by replaying each step's edges from the empty state."""
    for seed, side, density, k in ((3, 6, 0.5, 3), (5, 7, 0.4, 2), (4, 7, 0.4, 3), (8, 8, 0.3, 2), (13, 8, 0.3, 3)):
        g = generate(GenSpec(seed=seed, width=side, height=side, node_density=density, k=k,
                             mode=GenMode.SOLVABLE_BY_CONSTRUCTION))
        state = PuzzleState.empty(g)
        yield state
        for step in run_tau(g).trace:
            for e, m in step.edges:
                state = state.add_connections(e, m)
            yield state


def reachable_states(rng, count):
    """Generated grids, each followed from the empty state through a few
    random words that fit the remaining capacity, completing a node or not."""
    for g in random_grids(rng, count, (2, 6), (0.4, 1.0), (1, 3), list(GenMode)):
        state = PuzzleState.empty(g)
        yield state
        for _ in range(rng.randint(1, 10)):
            open_nodes = [n for n in g.nodes if state.residual(n) > 0]
            if not open_nodes:
                break
            p = rng.choice(open_nodes)
            words = fitting_words(state, p, rng.randint(1, min(state.residual(p), 4 * g.k)))
            if words:
                state = apply_builder(state, p, rng.choice(words))
                yield state


def random_moves(rng, steps):
    """A move chooser for follow_with_context: at a random incomplete node,
    mostly one connection toward a random slot with room, else a random
    word that fits; at most steps moves."""
    def choose(state):
        nonlocal steps
        g = state.grid
        open_ids = [c for c, r in enumerate(state._res) if r]
        while steps and open_ids:
            steps -= 1
            i = rng.choice(open_ids)
            caps = state._capacity(i)
            if rng.random() < 0.8:
                slots = [s for s, c in enumerate(caps) if c]
                if slots:
                    return i, toward(rng.choice(slots), 1)
            else:
                words = fitting_words(state, g.nodes[i], rng.randint(1, min(state._res[i], 4 * g.k)))
                if words:
                    return i, rng.choice(words).counts
        return None
    return choose


def far_first_moves(rng, g, solution):
    """A move chooser for follow_with_context that walks g to a solution,
    given by edge id: mostly at the incomplete node farthest from a random
    anchor, else at a random one, either all that the node lacks of the
    solution or part of what one of its slots lacks. The nodes near the
    anchor are left for last, so a step far from them often completes the
    rest of their component."""
    anchor = rng.choice(g.nodes).coord

    def choose(state):
        open_ids = [c for c, r in enumerate(state._res) if r]
        if not open_ids:
            return None
        if rng.random() < 0.8:
            i = max(open_ids, key=lambda c: abs(g.nodes[c].coord.x - anchor.x) + abs(g.nodes[c].coord.y - anchor.y))
        else:
            i = rng.choice(open_ids)
        lacks = [(s, solution[e] - state._mult[e]) for s, _, e in g._links[i] if solution[e] > state._mult[e]]
        if rng.random() < 0.3:
            s, m = rng.choice(lacks)
            return i, toward(s, rng.randint(1, m))
        counts = [0, 0, 0, 0]
        for s, m in lacks:
            counts[s] = m
        return i, tuple(counts)
    return choose


def follow_with_context(g, choose, tally):
    """Walk g from the empty state by the moves choose gives, (node id, word
    counts) or None to stop, with one context that each step is reported to,
    as the engine does. Before each step the context keeps every incomplete
    node's word while it is not dead; after it, the context must read like
    one built afresh: the same components, residual sums and sealed verdict
    (the starved one it leaves to the engine's over-capacity check), and
    each word and mask it still keeps equal to a fresh one. tally counts steps,
    sealed states, dropped words and checked words."""
    state = PuzzleState.empty(g)
    mult, res = list(state._mult), list(state._res)  # the context reads these; they are stepped in place
    ctx = _Context(g, mult, res)
    caps = [state._capacity(c) for c in range(len(res))]
    while (move := choose(state)) is not None:
        i, counts = move
        if not ctx.dead:
            for c, r in enumerate(res):
                if r:
                    ctx.word(c, caps[c])
        state = apply_builder(state, g.nodes[i], ConfigWord(*counts))
        mult[:], res[:] = state._mult, state._res
        before, caps = caps, [state._capacity(c) for c in range(len(res))]
        kept = len(ctx.kept)
        touched = [i] + [q for s, q, _ in g._links[i] if counts[s]]
        ctx.step(touched, 2 * sum(counts), [c for c, cap in enumerate(caps) if cap != before[c]])
        fresh = _Context(g, state._mult, state._res)
        pairs = {(ctx.label[c], fresh.label[c]) for c in range(len(res))}
        assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})
        for c in range(len(res)):
            assert ctx.sums[ctx.label[c]] == fresh.sums[fresh.label[c]]
            assert len(ctx.members[ctx.label[c]]) == len(fresh.members[fresh.label[c]])
            assert c in ctx.members[ctx.label[c]]
        is_sealed = any(not v and len(fresh.members[x]) < len(res) for x, v in fresh.sums.items())
        assert ctx.dead == is_sealed
        for c, w in ctx.kept.items():
            assert w == fresh.word(c, caps[c]), (g.nodes, state.connections(), c)
        for c, m in ctx.masks.items():
            fresh.word(c, caps[c])
            assert m == fresh.masks[c], (g.nodes, state.connections(), c)
        tally["steps"] += 1
        tally["sealed"] += is_sealed
        tally["dropped"] += kept - len(ctx.kept)
        tally["checked"] += len(ctx.kept)


class TestContext:
    def test_step_reads_like_a_fresh_context(self):
        # Random walks, mostly of single connections that lower a
        # neighbor's residual without completing it, and walks to a
        # solution that leave the nodes near an anchor for last. Only the
        # second kind shows a drop rule that skips the merged component's
        # incomplete nodes, and the first shows most of the stale words that
        # skipping the touched nodes' neighbors leaves; each leaves only a
        # handful over the whole test.
        rng = Random(9)
        tally = dict.fromkeys(("steps", "sealed", "dropped", "checked"), 0)
        for g in random_grids(rng, 200, (3, 7), (0.8, 1.0), (1, 3), list(GenMode)):
            follow_with_context(g, random_moves(rng, rng.randint(10, 60)), tally)
        for g in random_grids(rng, 120, (4, 6), (0.6, 1.0), (1, 4), [GenMode.SOLVABLE_BY_CONSTRUCTION]):
            solution = enumerate_solutions(g, limit=1).solutions[0]
            solution = [solution.get(e, 0) for e in g.all_edges]
            for _ in range(5):
                follow_with_context(g, far_first_moves(rng, g, solution), tally)
        assert tally["steps"] >= 10000 and tally["sealed"] >= 500, tally
        assert tally["dropped"] >= 50000 and tally["checked"] >= 50000, tally


class TestEnumerateFeasible:
    def test_corner_node_has_single_feasible_word(self):
        g = tutorial_grid()
        s = PuzzleState.empty(g)
        p = g.node_at(Coordinate(0, 0))
        assert words_as_digits(enumerate_feasible(s, p)) == {"12"}

    def test_center_node_after_corner_word(self):
        g = tutorial_grid()
        s = apply_builder(PuzzleState.empty(g), g.node_at(Coordinate(0, 0)), ConfigWord(1, 1, 0, 0))
        q = g.node_at(Coordinate(2, 1))
        assert words_as_digits(enumerate_feasible(s, q)) == {"11223", "11224", "11234", "12234"}

    def test_forced_single_direction(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1)])
        s = PuzzleState.empty(g)
        ws = enumerate_feasible(s, g.node_at(Coordinate(0, 0)))
        assert words_as_digits(ws) == {"2"}

    def test_sealing_doubles_rejected_in_square(self):
        # In the four-node square of magnitude-2 nodes, a double connection
        # from a corner completes a two-node region and strands the rest.
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2)])
        s = PuzzleState.empty(g)
        ws = enumerate_feasible(s, g.node_at(Coordinate(0, 0)))
        assert words_as_digits(ws) == {"12"}

    def test_feasible_is_subset_of_phi(self):
        g = tutorial_grid()
        s = PuzzleState.empty(g)
        for p in g.nodes:
            phi = {w.counts for w in enumerate_phi_k(s.residual(p), g.k)}
            assert {w.counts for w in enumerate_feasible(s, p)} <= phi

    def test_complete_node_rejected(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1)])
        s = PuzzleState.empty(g)
        s = apply_builder(s, g.nodes[0], ConfigWord(0, 1, 0, 0))
        with pytest.raises(ValueError):
            enumerate_feasible(s, g.nodes[0])

    def test_matches_whole_state_definition(self):
        # Random reachable states, then the states the engine reaches. A word
        # that seals the component it forms must send each neighbor it uses
        # that neighbor's whole residual: _feasible sums components only for
        # such words.
        counts = []
        for states in (reachable_states(Random(4), 60), engine_states()):
            checked = empty = sealing = 0
            for state in states:
                for p in state.grid.nodes:
                    if state.residual(p) > 0:
                        got, sealers = list(enumerate_feasible(state, p)), []
                        assert got == whole_state_feasible(state, p, sealers), (state.digest(), p.coord)
                        for w in sealers:
                            for d, q in state.grid.neighbors(p).items():
                                assert w.counts[d - 1] in (0, state.residual(q)), (w, p.coord)
                        checked += 1
                        empty += not got
                        sealing += len(sealers)
            counts.append((checked, empty, sealing))
        (checked, empty, _), (engine_checked, _, engine_sealing) = counts
        # Both outcomes must be well represented for the comparison to mean much.
        assert checked > 1500 and 0.2 < empty / checked < 0.8
        assert engine_checked > 800 and engine_sealing > 200, counts


class TestOmegaStar:
    def test_center_node_guarantee(self):
        g = tutorial_grid()
        s = apply_builder(PuzzleState.empty(g), g.node_at(Coordinate(0, 0)), ConfigWord(1, 1, 0, 0))
        assert omega_star(s, g.node_at(Coordinate(2, 1))) == ConfigWord(1, 1, 0, 0)

    def test_single_neighbor_forces_full_residual(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2)])
        s = PuzzleState.empty(g)
        assert omega_star(s, g.nodes[0]) == ConfigWord(0, 2, 0, 0)

    def test_infeasible_distinct_from_zero(self):
        # Two far-apart completed pairs: any word for the left corner seals a
        # region, so nothing is feasible at all.
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1), node(5, 5, 1), node(6, 5, 1)])
        s = PuzzleState.empty(g)
        assert omega_star(s, g.node_at(Coordinate(0, 0))) is None

    def test_zero_word_when_nothing_is_shared(self):
        g = NumberedGrid(2, [node(0, 0, 1), node(1, 0, 2), node(0, 1, 2), node(1, 1, 1)])
        s = PuzzleState.empty(g)
        w = omega_star(s, g.node_at(Coordinate(0, 0)))
        assert w is not None and not any(w.counts)
