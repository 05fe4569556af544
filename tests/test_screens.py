"""Syntactic unsolvability screens."""

import hashlib
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridlink import (
    GenerationFailure,
    GenMode,
    GenSpec,
    NumberedGrid,
    ScreenReport,
    ScreenVerdict,
    Violation,
    enumerate_solutions,
    generate,
    node,
    screen,
)


def conditions(report):
    return sorted(v.condition for v in report.violations)


class TestIndividualConditions:
    def test_no_neighbors_fires_for_both_nodes(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(5, 3, 1)])
        report = screen(g)
        assert report.unsolvable
        assert conditions(report) == [1, 1]
        assert {v.witness for v in report.violations} == {n.coord for n in g.nodes}

    def test_odd_total_magnitude(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 2)])
        report = screen(g)
        assert report.unsolvable
        assert 2 in conditions(report)
        c2 = next(v for v in report.violations if v.condition == 2)
        assert c2.witness is None

    def test_odd_total_magnitude_alone(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1), node(2, 0, 1)])
        report = screen(g)
        assert conditions(report) == [2]

    def test_neighbor_sum_below_magnitude(self):
        g = NumberedGrid(4, [node(0, 0, 4), node(1, 0, 1), node(0, 1, 1)])
        report = screen(g)
        assert 3 in conditions(report)

    def test_magnitude_exceeds_neighbor_capacity(self):
        g = NumberedGrid(2, [node(0, 0, 3), node(1, 0, 3)])
        report = screen(g)
        # Each node has one neighbor holding 3 >= 3, so only the r*k bound
        # fires (3 > 1*2), once per node.
        assert conditions(report) == [5, 5]

    def test_incompatible_neighbor_magnitudes(self):
        # Bound 2, magnitude 8 with four neighbors: every neighbor must take
        # a full 2, so a magnitude-1 neighbor is fatal. The surrounding
        # magnitudes are chosen so no other screen fires.
        g = NumberedGrid(2, [
            node(1, 1, 8),
            node(1, 0, 3), node(0, 1, 2), node(2, 1, 2), node(1, 2, 1),
            node(3, 0, 2),
        ])
        report = screen(g)
        assert conditions(report) == [6]
        c6 = next(v for v in report.violations if v.condition == 6)
        assert c6.witness.x == 1 and c6.witness.y == 1

    def test_incompatible_check_silent_for_k_one(self):
        # Same shape under bound 1 must not fire the incompatibility screen.
        g = NumberedGrid(1, [
            node(1, 1, 4),
            node(1, 0, 2), node(0, 1, 2), node(2, 1, 2), node(1, 2, 1),
        ])
        report = screen(g)
        assert 6 not in conditions(report)

    def test_clean_grid(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1)])
        report = screen(g)
        assert report.verdict is ScreenVerdict.MAYBE_SOLVABLE
        assert report.violations == ()


class TestScreenSoundnessAndIncompleteness:
    def test_flagged_grids_have_no_solutions(self):
        flagged = [
            NumberedGrid(1, [node(0, 0, 1), node(5, 3, 1)]),
            NumberedGrid(1, [node(0, 0, 1), node(1, 0, 2)]),
            NumberedGrid(2, [node(0, 0, 3), node(1, 0, 3)]),
            NumberedGrid(2, [
                node(1, 1, 8),
                node(1, 0, 2), node(0, 1, 2), node(2, 1, 2), node(1, 2, 1),
            ]),
        ]
        for g in flagged:
            assert screen(g).unsolvable
            assert len(enumerate_solutions(g)) == 0

    def test_screens_are_not_complete(self):
        # Two pairs that can only complete among themselves: every screen
        # passes, yet the finished graph would fall into two pieces.
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1), node(5, 5, 1), node(6, 5, 1)])
        report = screen(g)
        assert report.verdict is ScreenVerdict.MAYBE_SOLVABLE
        assert len(enumerate_solutions(g)) == 0

    def test_violations_reported_in_stable_order(self):
        g = NumberedGrid(1, [node(0, 0, 3), node(1, 0, 1), node(4, 4, 1)])
        r1, r2 = screen(g), screen(g)
        assert r1 == r2
        conds = [v.condition for v in r1.violations]
        assert conds == sorted(conds, key=lambda c: 0 if c == 2 else 1) or conds[0] == 2


# sha256 over the screen reports of 220 generated grids, recorded while
# screen still built a neighbor dict per node: reading the link table must
# not change a violation, its order or its message.
SCREEN_CORPUS_DIGEST = "38444f6890b241a89da20716c485b2905a2b87ff6c166a149c6a4d763e631a5d"


def test_reports_on_generated_grids_are_pinned():
    digest = hashlib.sha256()
    seen, modes, count = set(), set(), 0
    rng = random.Random(5)
    for seed in range(220):
        spec = GenSpec(
            seed=seed, width=rng.randint(2, 7), height=rng.randint(2, 7),
            node_density=rng.uniform(0.3, 1.0), k=rng.randint(1, 3), mode=rng.choice(list(GenMode)),
        )
        try:
            g = generate(spec)
        except GenerationFailure:
            continue
        report = screen(g)
        violations = [(v.condition, str(v.witness), v.message) for v in report.violations]
        digest.update(repr((report.verdict.value, violations)).encode("ascii"))
        seen.update(v.condition for v in report.violations)
        modes.add(spec.mode)
        count += 1
    assert count >= 200
    assert seen == {1, 2, 3, 5, 6}
    assert modes == set(GenMode)
    assert digest.hexdigest() == SCREEN_CORPUS_DIGEST


def reference_screen(grid: NumberedGrid) -> ScreenReport:
    """screen as it was before it read the magnitudes once and sorted only
    for condition 6: each node's neighbors sorted into row-major order
    first."""
    violations: list[Violation] = []
    k = grid.k

    total = sum(n.magnitude for n in grid.nodes)
    if total % 2 == 1:
        violations.append(
            Violation(2, None, f"total magnitude {total} is odd, connections always add 2")
        )

    nodes = grid.nodes
    for p, links in zip(nodes, grid._links):
        nbrs = sorted(q for _, q, _ in links)  # node ids: row-major order
        r = len(nbrs)
        if r == 0:
            violations.append(Violation(1, p.coord, f"node at {p.coord} has no neighbors"))
            continue
        nbr_sum = sum(nodes[q].magnitude for q in nbrs)
        if nbr_sum < p.magnitude:
            violations.append(
                Violation(
                    3,
                    p.coord,
                    f"node at {p.coord} needs {p.magnitude} but neighbors only hold {nbr_sum}",
                )
            )
        if p.magnitude > r * k:
            violations.append(
                Violation(
                    5,
                    p.coord,
                    f"node at {p.coord} has magnitude {p.magnitude} > r*k = {r}*{k}",
                )
            )
        if k > 1:
            j = p.magnitude - (r - 1) * k
            if 2 <= j <= k:
                for q in nbrs:
                    if nodes[q].magnitude <= j - 1:
                        violations.append(
                            Violation(
                                6,
                                p.coord,
                                f"node at {p.coord} (magnitude {(r - 1)}*{k}+{j}) needs at "
                                f"least {j} connections with every neighbor, but the one at "
                                f"{nodes[q].coord} can take at most {nodes[q].magnitude}",
                            )
                        )
                        break

    verdict = ScreenVerdict.UNSOLVABLE if violations else ScreenVerdict.MAYBE_SOLVABLE
    return ScreenReport(verdict, tuple(violations))


# Bound 3, a center of magnitude 3*3+3 with four neighbors, two of which
# can take at most 2: the top one (first in direction order) and the left
# one (first in row-major order, which the report names).
TWO_OFFENDERS = (3, [(1, 1, 12), (1, 2, 1), (2, 1, 3), (1, 0, 3), (0, 1, 2)])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 12)),
        min_size=1, max_size=25, unique_by=lambda row: row[:2],
    ),
)
@example(*TWO_OFFENDERS)
def test_screen_matches_the_reference(k, rows):
    g = NumberedGrid(k, [node(x, y, m) for x, y, m in rows])
    assert screen(g) == reference_screen(g)


def test_condition_6_names_the_first_offender_in_row_major_order():
    k, rows = TWO_OFFENDERS
    report = screen(NumberedGrid(k, [node(x, y, m) for x, y, m in rows]))
    (v,) = [v for v in report.violations if v.condition == 6]
    assert str(v.witness) == "(1, 1)"
    assert v.message.endswith("but the one at (0, 1) can take at most 2")
