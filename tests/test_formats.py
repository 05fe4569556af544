"""Text formats: parsing, serialization, verification, rendering, tables."""

import dataclasses
import hashlib
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlink import (
    ConfigWord,
    Coordinate,
    DuplicateCoordinateError,
    DuplicateEdgeError,
    GenMode,
    GridError,
    MissingHeaderError,
    NumberedGrid,
    ParseError,
    PuzzleState,
    RangeError,
    apply_builder,
    count_table,
    node,
    parse_puzzle,
    parse_solution,
    render_board,
    serialize_puzzle,
    serialize_solution,
    verify_solution,
)

from reference import edge, random_grids


def random_boards():
    """Generated grids of up to 12x12 cells, each with a random set of the
    connections its state accepts (multiplicities up to k = 3)."""
    rng = Random(12)
    for g in random_grids(rng, 40, (2, 12), (0.3, 0.9), (1, 3), list(GenMode)):
        state = PuzzleState.empty(g)
        for e in g.all_edges:
            if rng.random() < 0.5:
                try:
                    state = state.add_connections(e, rng.randint(1, g.k))
                except GridError:
                    pass
        yield state


# sha256 of render_board over random_boards(), recorded before render_board
# read each connection once: the board text must not change.
BOARDS_DIGEST = "24cb796a668f323753dc66e87abc6d9a299862a8c9bea55c4b00365b9797a8cb"


class TestParsePuzzle:
    def test_minimal_document(self):
        g = parse_puzzle("k 2\nnode 0 0 2\nnode 1 0 2\n")
        assert g.k == 2
        assert len(g.nodes) == 2

    def test_comments_and_blanks_ignored(self):
        text = "# a puzzle\n\nk 2  # bound\n\nnode 0 0 2\n# middle\nnode 1 0 2\n"
        assert parse_puzzle(text).k == 2

    def test_missing_header(self):
        for text, line in [("node 0 0 1\n", 1), ("# only a comment\n\n", None)]:
            with pytest.raises(MissingHeaderError) as exc:
                parse_puzzle(text)
            assert exc.value.line == line

    def test_duplicate_coordinate_carries_line_number(self):
        with pytest.raises(DuplicateCoordinateError) as exc:
            parse_puzzle("k 2\nnode 0 0 2\nnode 0 0 3\n")
        assert exc.value.line == 3
        # Two duplicates, neither on the line after its first use, and
        # coordinates out of row-major order: the first repeat in reading
        # order is reported, against the line that first placed it.
        with pytest.raises(DuplicateCoordinateError) as exc:
            parse_puzzle("k 1\nnode 3 0 1\nnode 1 0 1\n\nnode 2 0 2\nnode 1 0 1\nnode 3 0 1\n")
        assert (exc.value.line, str(exc.value)) == (6, "line 6: coordinate (1, 0) already used on line 3")

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 8)),
            min_size=1, max_size=30, unique_by=lambda row: row[:2],
        ).flatmap(st.permutations),
    )
    def test_parsed_nodes_equal_checked_ones(self, k, rows):
        # The parser builds its nodes and grid without the checked
        # constructors; what it builds must be indistinguishable from them.
        text = f"k {k}\n" + "".join(f"node {x} {y} {m}\n" for x, y, m in rows)
        parsed = parse_puzzle(text)
        checked = NumberedGrid(k, [node(x, y, m) for x, y, m in rows])
        assert parsed == checked and hash(parsed) == hash(checked)
        assert len(parsed.nodes) == len(checked.nodes) == len(rows)
        for a, b in zip(parsed.nodes, checked.nodes):
            assert (a, hash(a), repr(a)) == (b, hash(b), repr(b))
            assert (a.coord, hash(a.coord), repr(a.coord)) == (b.coord, hash(b.coord), repr(b.coord))
        coords, expected = [n.coord for n in parsed.nodes], [n.coord for n in checked.nodes]
        assert [c < d for c in coords for d in coords] == [c < d for c in expected for d in expected]
        assert coords == sorted(coords, key=lambda c: (c.y, c.x))
        # The unchecked build leaves the dataclasses' own checks in place.
        with pytest.raises(ValueError):
            dataclasses.replace(parsed.nodes[0], magnitude=0)
        with pytest.raises(ValueError):
            dataclasses.replace(parsed.nodes[0].coord, x=-1)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            parse_puzzle("k 0\nnode 0 0 1\n")
        with pytest.raises(RangeError):
            parse_puzzle("k 1\nnode 0 0 0\n")
        with pytest.raises(RangeError) as exc:
            parse_puzzle("k 1\nnode 0 0 1\nnode 2 -1 1\n")
        assert exc.value.line == 3

    def test_malformed_line(self):
        cases = [
            ("k 1\nnode 0 zero 1\n", 2),
            ("k 1\nnode 0 0 1\nk 2\n", 3),  # a second header
            ("k 1\nnode 0 0\n", 2),
            ("k 1\n# no nodes\n", None),
        ]
        for text, line in cases:
            with pytest.raises(ParseError) as exc:
                parse_puzzle(text)
            assert (type(exc.value), exc.value.line) == (ParseError, line), text

    def test_round_trip(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(3, 1, 5), node(0, 4, 1)])
        assert parse_puzzle(serialize_puzzle(g)) == g


class TestParseSolution:
    def test_records_canonicalized(self):
        records = parse_solution("conn 1 0 0 0 1\nconn 0 0 0 1 2\n")
        assert [(e.a.x, e.a.y, e.b.x, e.b.y, m) for e, m in records] == [
            (0, 0, 0, 1, 2),
            (0, 0, 1, 0, 1),
        ]

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            parse_solution("conn 0 0 1 0 1\nconn 1 0 0 0 2\n")

    def test_zero_multiplicity_rejected(self):
        for text, line in [("conn 0 0 1 0 0\n", 1), ("conn 0 0 1 0 1\nconn 0 -1 0 1 1\n", 2)]:
            with pytest.raises(RangeError) as exc:
                parse_solution(text)
            assert exc.value.line == line

    def test_diagonal_rejected(self):
        cases = [
            ("conn 0 0 1 1 1\n", 1),
            ("conn 0 0 1 0\n", 1),
            ("conn 0 0 1 0 1\nconn 1 1 1 1 1\n", 2),  # equal endpoints
        ]
        for text, line in cases:
            with pytest.raises(ParseError) as exc:
                parse_solution(text)
            assert (type(exc.value), exc.value.line) == (ParseError, line), text

    def test_round_trip(self):
        text = "conn 0 0 0 1 2\nconn 0 0 1 0 1\n"
        assert serialize_solution(parse_solution(text)) == text


# Each parser's outcome on documents at the edges of the format: the
# serialized result, or the error's (class, line, message). Recorded before
# the parsers read their lines inline; the reading must not change.
PUZZLE_OUTCOMES = [
    ('k 1\r\nnode 0 0 1\r\nnode 1 0 1\r\n', 'k 1\nnode 0 0 1\nnode 1 0 1\n'),
    ('k 1\rnode 0 0 1\rnode 1 0 1\r', 'k 1\nnode 0 0 1\nnode 1 0 1\n'),
    ('k 1\x0cnode 0 0 1\x0cnode 1 0 1', 'k 1\nnode 0 0 1\nnode 1 0 1\n'),
    ('k 1\u2028node 0 0 1\u2028node 1 0 1\u2028', 'k 1\nnode 0 0 1\nnode 1 0 1\n'),
    ('k\t2\nnode\t0  0\t2\n \tnode 0 1 2\t\n', 'k 2\nnode 0 0 2\nnode 0 1 2\n'),
    ('# title\nk 1 # bound\nnode 0 0 1# trailing\n  # indented\nnode 1 0 1 #\n', 'k 1\nnode 0 0 1\nnode 1 0 1\n'),
    ('k 1\nnode 0 0 1\nk 2\n', (ParseError, 3, 'line 3: duplicate `k` header')),
    ('k 1\nnode 0 0 1\nk 1 2\n', (ParseError, 3, 'line 3: duplicate `k` header')),
    ('k 1 2\nnode 0 0 1\n', (MissingHeaderError, 1, 'line 1: expected `k <int>` before any other record')),
    ('k\nnode 0 0 1\n', (MissingHeaderError, 1, 'line 1: expected `k <int>` before any other record')),
    ('k 1\nnode 0 0\n', (ParseError, 2, "line 2: expected `node <x> <y> <n>`, got 'node 0 0'")),
    ('k 1\nnode 0 0 1 2\n', (ParseError, 2, "line 2: expected `node <x> <y> <n>`, got 'node 0 0 1 2'")),
    ('k 1\nnode 0 zero 1\n', (ParseError, 2, "line 2: expected integers, got '0 zero 1'")),
    ('k 1\nnode 1.5 0 1\n', (ParseError, 2, "line 2: expected integers, got '1.5 0 1'")),
    ('k 1\nnode 0 0 0x1\n', (ParseError, 2, "line 2: expected integers, got '0 0 0x1'")),
    ('k zero\nnode 0 0 1\n', (ParseError, 1, "line 1: expected integers, got 'zero'")),
    ('k 1\nnode +3 0 1\nnode 1_0 0 1\nnode \u0663 1 \u0661\n', 'k 1\nnode 3 0 1\nnode 10 0 1\nnode 3 1 1\n'),
    ('k 1\nnode +3 0 1\nnode \u0663 \uff10 1\n', (DuplicateCoordinateError, 3, 'line 3: coordinate (3, 0) already used on line 2')),
    ('k +1\nnode 0 0 1\n', 'k 1\nnode 0 0 1\n'),
    ('k 1\nnode -1 0 0\n', (RangeError, 2, 'line 2: coordinates must be non-negative, got (-1, 0)')),
    ('k 1\nnode 0 0 0\n', (RangeError, 2, 'line 2: magnitude must be >= 1, got 0')),
    ('k 0\nnode 0 0 1\n', (RangeError, 1, 'line 1: k must be >= 1, got 0')),
    ('k 1\nnode 2 0 1\n\nnode 0 0 1\nnode 2 0 3\n', (DuplicateCoordinateError, 5, 'line 5: coordinate (2, 0) already used on line 2')),
    ('k 1\nedge 0 0 1\n', (ParseError, 2, "line 2: expected `node <x> <y> <n>`, got 'edge 0 0 1'")),
    ('k 1\nnode\t0 0\t1 x # comment\n', (ParseError, 2, "line 2: expected `node <x> <y> <n>`, got 'node\\t0 0\\t1 x'")),
    ('node 0 0 1\n', (MissingHeaderError, 1, 'line 1: expected `k <int>` before any other record')),
    ('# only a comment\n\n', (MissingHeaderError, None, 'document has no `k <int>` header')),
    ('', (MissingHeaderError, None, 'document has no `k <int>` header')),
    ('k 1\n# no nodes\n', (ParseError, None, 'document has no node records')),
    ('\ufeffk 1\nnode 0 0 1\n', (MissingHeaderError, 1, 'line 1: expected `k <int>` before any other record')),
]

SOLUTION_OUTCOMES = [
    ('conn 0 0 1 0 1\r\nconn 0 0 0 1 2\r\n', 'conn 0 0 0 1 2\nconn 0 0 1 0 1\n'),
    ('conn 0 0 1 0 1\rconn 0 0 0 1 2\r', 'conn 0 0 0 1 2\nconn 0 0 1 0 1\n'),
    ('conn 0 0 1 0 1\x0cconn 0 0 0 1 2', 'conn 0 0 0 1 2\nconn 0 0 1 0 1\n'),
    ('conn 0 0 1 0 1\u2028conn 0 0 0 1 2\u2028', 'conn 0 0 0 1 2\nconn 0 0 1 0 1\n'),
    ('# solved\nconn\t1 0\t0 0  1 # right\n\n  # done\n', 'conn 0 0 1 0 1\n'),
    ('', ''),
    ('conn 0 0 1 0\n', (ParseError, 1, "line 1: expected `conn <x1> <y1> <x2> <y2> <m>`, got 'conn 0 0 1 0'")),
    ('conn 0 0 1 0 1 1\n', (ParseError, 1, "line 1: expected `conn <x1> <y1> <x2> <y2> <m>`, got 'conn 0 0 1 0 1 1'")),
    ('conn 0 0 1 zero 1\n', (ParseError, 1, "line 1: expected integers, got '0 0 1 zero 1'")),
    ('conn 0 0 1.5 0 1\n', (ParseError, 1, "line 1: expected integers, got '0 0 1.5 0 1'")),
    ('conn 0 0 0x1 0 1\n', (ParseError, 1, "line 1: expected integers, got '0 0 0x1 0 1'")),
    ('conn +0 0 1_0 0 \u0661\n', 'conn 0 0 10 0 1\n'),
    ('conn 0 0 -1 0 0\n', (RangeError, 1, 'line 1: coordinates must be non-negative')),
    ('conn 0 0 1 0 0\n', (RangeError, 1, 'line 1: multiplicity must be >= 1, got 0')),
    ('conn 0 0 1 1 1\n', (ParseError, 1, 'line 1: connection must be horizontal or vertical')),
    ('conn 1 1 1 1 1\n', (ParseError, 1, 'line 1: connection endpoints must differ, got (1, 1) twice')),
    ('conn 0 0 1 0 1\nconn 1 0 0 0 2\n', (DuplicateEdgeError, 2, 'line 2: connection (0, 0)-(1, 0) already recorded on line 1')),
    ('node 0 0 1\n', (ParseError, 1, "line 1: expected `conn <x1> <y1> <x2> <y2> <m>`, got 'node 0 0 1'")),
    ('k 1\n', (ParseError, 1, "line 1: expected `conn <x1> <y1> <x2> <y2> <m>`, got 'k 1'")),
    ('conn\t0 0 1 0  1 x # comment\n', (ParseError, 1, "line 1: expected `conn <x1> <y1> <x2> <y2> <m>`, got 'conn\\t0 0 1 0  1 x'")),
]


def outcome(parse, serialize, text):
    try:
        return serialize(parse(text))
    except ParseError as exc:
        return type(exc), exc.line, str(exc)


class TestParserOutcomesPinned:
    def test_puzzle_outcomes(self):
        for text, expected in PUZZLE_OUTCOMES:
            assert outcome(parse_puzzle, serialize_puzzle, text) == expected, text

    def test_solution_outcomes(self):
        for text, expected in SOLUTION_OUTCOMES:
            assert outcome(parse_solution, serialize_solution, text) == expected, text


class TestVerifySolution:
    def grid(self):
        return NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2)])

    def test_accepts_true_solution(self):
        g = self.grid()
        records = [
            (edge(0, 0, 1, 0), 1), (edge(0, 0, 0, 1), 1),
            (edge(1, 0, 1, 1), 1), (edge(0, 1, 1, 1), 1),
        ]
        assert verify_solution(g, records)

    def test_rejects_incomplete(self):
        g = self.grid()
        check = verify_solution(g, [(edge(0, 0, 1, 0), 2), (edge(0, 1, 1, 1), 2)])
        assert not check and "disconnected" in check.reason

    def test_rejects_overfull(self):
        g = self.grid()
        check = verify_solution(g, [(edge(0, 0, 1, 0), 2), (edge(0, 0, 0, 1), 1)])
        assert not check
        g = NumberedGrid(1, [node(0, 1, 1), node(2, 1, 1), node(1, 0, 1), node(1, 2, 1)])
        check = verify_solution(g, [(edge(0, 1, 2, 1), 1), (edge(1, 0, 1, 2), 1)])
        assert not check and "crosses" in check.reason

    def test_rejects_non_neighbor_record(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1), node(2, 0, 2)])
        check = verify_solution(g, [(edge(0, 0, 2, 0), 1)])
        assert not check

    def test_rejects_multiplicity_above_k(self):
        g = NumberedGrid(1, [node(0, 0, 2), node(1, 0, 2)])
        check = verify_solution(g, [(edge(0, 0, 1, 0), 2)])
        assert not check
        # Below 1 is no solution either: a not-ok check, not the constructor's ValueError.
        for m in (0, -1):
            check = verify_solution(g, [(edge(0, 0, 1, 0), m)])
            assert not check and check.reason == f"multiplicity must be >= 1, got {m} on (0, 0)-(1, 0)"

    def test_rejects_an_edge_recorded_twice(self):
        # The first record exceeds k; keeping only the last one would accept the grid.
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1)])
        check = verify_solution(g, [(edge(0, 0, 1, 0), 2), (edge(0, 0, 1, 0), 1)])
        assert not check and check.reason == "connection (0, 0)-(1, 0) recorded twice"
        assert verify_solution(g, [(edge(0, 0, 1, 0), 1)]) and verify_solution(g, {edge(0, 0, 1, 0): 1})


class TestRenderBoard:
    def test_solved_pair_uses_single_dash(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1)])
        s = PuzzleState.empty(g).add_connections(edge(0, 0, 1, 0), 1)
        assert render_board(s) == "1---1\n"

    def test_double_connection_uses_equals(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2)])
        s = PuzzleState.empty(g).add_connections(edge(0, 0, 1, 0), 2)
        assert render_board(s) == "2===2\n"

    def test_empty_state_shows_residuals_and_no_links(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2)])
        out = render_board(PuzzleState.empty(g))
        assert "-" not in out and "=" not in out
        assert "2(2)" in out

    def test_vertical_connection_and_y_flip(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(0, 1, 1)])
        s = PuzzleState.empty(g).add_connections(edge(0, 0, 0, 1), 1)
        assert render_board(s) == "1\n|\n1\n"

    def test_long_range_connection_spans_gap_cells(self):
        g = NumberedGrid(1, [node(0, 0, 1), node(2, 0, 1)])
        s = PuzzleState.empty(g).add_connections(edge(0, 0, 2, 0), 1)
        assert render_board(s) == "1---.---1\n"

    def test_stable_output(self):
        g = NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2)])
        s = PuzzleState.empty(g)
        s = apply_builder(s, g.node_at(Coordinate(0, 0)), ConfigWord(1, 1, 0, 0))
        assert render_board(s) == render_board(s)

    def test_generated_boards_are_pinned(self):
        digest = hashlib.sha256()
        for state in random_boards():
            digest.update(render_board(state).encode("utf-8"))
        assert digest.hexdigest() == BOARDS_DIGEST


class TestCountTable:
    def test_known_cells_in_csv(self):
        text = count_table(4, 2, csv=True)
        rows = [line.split(",") for line in text.strip().splitlines()]
        header, row_k2 = rows[0], rows[2]
        assert header[:2] == ["k", "0"]
        assert row_k2[0] == "2"
        assert row_k2[1 + 7] == "4"  # magnitude 7 under bound 2

    def test_large_bound_cell(self):
        text = count_table(4, 10, csv=True)
        row_k10 = [line.split(",") for line in text.strip().splitlines()][10]
        assert row_k10[0] == "10"
        assert row_k10[1 + 20] == "891"

    def test_rows_symmetric_and_blank_past_rk(self):
        text = count_table(3, 4, csv=True)
        for line in text.strip().splitlines()[1:]:
            cells = line.split(",")
            k = int(cells[0])
            row = cells[1 : 1 + 3 * 4 + 1]
            filled = [c for c in row if c != ""]
            assert len(filled) == 3 * k + 1
            assert filled == filled[::-1]
            assert all(c == "" for c in row[3 * k + 1 :])

    def test_text_mode_flags_row_maximum(self):
        text = count_table(4, 2, csv=False)
        assert "*" in text
        assert "max" in text

    @pytest.mark.parametrize("k_max", [0, 33, 10**6])
    def test_k_max_outside_one_to_32_is_refused(self, k_max):
        with pytest.raises(ValueError, match=r"k_max must be in 1\.\.32"):
            count_table(4, k_max)
