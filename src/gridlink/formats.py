"""Text formats, board rendering, and the configuration-count table.

Puzzle documents are line oriented: `#` starts a comment, blank lines are
skipped, the first significant line is `k <int>`, and every following line is
`node <x> <y> <n>`. The format is sparse on purpose -- neighbors can be
arbitrarily far apart, so a dense character grid would mis-suggest unit
adjacency. Coordinates are y-up (Top means larger y); the board renderer
flips rows for display only.

Solution documents are lines of `conn <x1> <y1> <x2> <y2> <m>` in canonical
edge order.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .core import (
    Coordinate,
    EdgeKey,
    GridError,
    NumberedGrid,
    PuzzleState,
    SolvedCheck,
    _grid,
    _nodes,
    is_solved,
)
from .words import count_configs

# render_board draws every lattice cell, and sparse boards can span billions.
_MAX_BOARD_CELLS = 10**6
# count_table's cost grows about as k_max^4: past this bound it takes seconds.
_MAX_TABLE_K = 32


class ParseError(ValueError):
    """Malformed document; carries the offending 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class MissingHeaderError(ParseError):
    pass


class DuplicateCoordinateError(ParseError):
    pass


class DuplicateEdgeError(ParseError):
    pass


class RangeError(ParseError):
    pass


def _int_fields(parts: Sequence[str], lineno: int) -> list[int]:
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"expected integers, got {' '.join(parts)!r}", lineno) from None


def parse_puzzle(text: str) -> NumberedGrid:
    """Parse a puzzle document into a grid."""
    header_k: Optional[int] = None
    cells: list[tuple[int, int, int]] = []  # (y, x, magnitude): sorted, row-major order
    seen: dict[tuple[int, int], int] = {}  # (x, y) -> the line that placed a node there
    for lineno, raw in enumerate(text.splitlines(), 1):  # inline: no helper call per line
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        if header_k is None:
            if parts[0] != "k" or len(parts) != 2:
                raise MissingHeaderError("expected `k <int>` before any other record", lineno)
            (header_k,) = _int_fields(parts[1:], lineno)
            if header_k < 1:
                raise RangeError(f"k must be >= 1, got {header_k}", lineno)
            continue
        if parts[0] != "node" or len(parts) != 4:
            if parts[0] == "k":
                raise ParseError("duplicate `k` header", lineno)
            raise ParseError(f"expected `node <x> <y> <n>`, got {raw.partition('#')[0].strip()!r}", lineno)
        try:
            x, y, n = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError:  # _int_fields's error, without its call per line
            raise ParseError(f"expected integers, got {' '.join(parts[1:])!r}", lineno) from None
        if x < 0 or y < 0:
            raise RangeError(f"coordinates must be non-negative, got ({x}, {y})", lineno)
        if n < 1:
            raise RangeError(f"magnitude must be >= 1, got {n}", lineno)
        first = seen.setdefault((x, y), lineno)
        if first != lineno:
            raise DuplicateCoordinateError(f"coordinate ({x}, {y}) already used on line {first}", lineno)
        cells.append((y, x, n))
    if header_k is None:
        raise MissingHeaderError("document has no `k <int>` header")
    if not cells:
        raise ParseError("document has no node records")
    # Every value is checked above and the cells are distinct, so the grid
    # needs no second check; ties in the sort never reach the magnitudes.
    ys, xs, magnitudes = zip(*sorted(cells))
    return _grid(header_k, _nodes(xs, ys, magnitudes))


def serialize_puzzle(grid: NumberedGrid) -> str:
    lines = [f"k {grid.k}"]
    lines += [f"node {n.coord.x} {n.coord.y} {n.magnitude}" for n in grid.nodes]
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> tuple[tuple[EdgeKey, int], ...]:
    """Parse a solution document into canonical (edge, multiplicity) records."""
    records: list[tuple[EdgeKey, int]] = []
    seen: dict[EdgeKey, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "conn" or len(parts) != 6:
            raise ParseError(f"expected `conn <x1> <y1> <x2> <y2> <m>`, got {line!r}", lineno)
        x1, y1, x2, y2, m = _int_fields(parts[1:], lineno)
        if min(x1, y1, x2, y2) < 0:
            raise RangeError("coordinates must be non-negative", lineno)
        if m < 1:
            raise RangeError(f"multiplicity must be >= 1, got {m}", lineno)
        c1, c2 = Coordinate(x1, y1), Coordinate(x2, y2)
        if c1 == c2:
            raise ParseError(f"connection endpoints must differ, got ({x1}, {y1}) twice", lineno)
        if c1.x != c2.x and c1.y != c2.y:
            raise ParseError("connection must be horizontal or vertical", lineno)
        e = EdgeKey.between(c1, c2)
        if e in seen:
            raise DuplicateEdgeError(f"connection {e} already recorded on line {seen[e]}", lineno)
        seen[e] = lineno
        records.append((e, m))
    return tuple(sorted(records))


def serialize_solution(records) -> str:
    """Serialize (edge, multiplicity) pairs or a connection map to text."""
    items = sorted(dict(records).items())
    lines = [f"conn {e.a.x} {e.a.y} {e.b.x} {e.b.y} {m}" for e, m in items]
    return "\n".join(lines) + ("\n" if lines else "")


def verify_solution(grid: NumberedGrid, records) -> SolvedCheck:
    """Check claimed (edge, multiplicity) records, pairs or a mapping, against a grid.

    Accepts exactly the solutions of the grid; anything else comes back with
    the first reason found (an edge recorded twice, bad pair, capacity,
    over-connection, crossing, incompleteness, or disconnection).
    """
    connections: dict[EdgeKey, int] = {}
    for e, m in records.items() if isinstance(records, Mapping) else records:
        if e in connections:
            return SolvedCheck(False, f"connection {e} recorded twice")
        connections[e] = m
    try:
        state = PuzzleState(grid, connections)
    except (GridError, ValueError) as exc:  # ValueError: a multiplicity below 1
        return SolvedCheck(False, str(exc))
    return is_solved(state)


def render_board(state: PuzzleState) -> str:
    """Fixed-width ASCII-art board.

    Node cells show the magnitude, with the residual in parentheses while
    nonzero; `-`/`=` mark single/double horizontal connections (the count
    itself for more), `|`/`‖` the vertical ones. Rows print top-down,
    i.e. decreasing y. Boards over _MAX_BOARD_CELLS cells raise ValueError.
    """
    grid = state.grid
    max_x = max(n.coord.x for n in grid.nodes)
    max_y = max(n.coord.y for n in grid.nodes)
    if (max_x + 1) * (max_y + 1) > _MAX_BOARD_CELLS:
        raise ValueError(f"{max_x + 1}x{max_y + 1} board exceeds the {_MAX_BOARD_CELLS} cells render draws")

    texts = {(n.coord.x, n.coord.y): f"{n.magnitude}({r})" if r else f"{n.magnitude}"
             for n, r in zip(grid.nodes, state._res)}
    width = max(map(len, texts.values()))  # an empty cell's "." is never wider

    # (horizontal, x, y) of each unit gap a connection covers -> multiplicity;
    # a horizontal gap runs from (x, y) to (x + 1, y), a vertical one upward.
    gaps: dict[tuple[bool, int, int], int] = {}
    for e, m in state.sorted_items():
        if e.horizontal:
            gaps.update(((True, x, e.a.y), m) for x in range(e.a.x, e.b.x))
        else:
            gaps.update(((False, e.a.x, y), m) for y in range(e.a.y, e.b.y))

    h_glyphs = {1: "-" * 3, 2: "=" * 3}
    v_glyphs = {1: "|", 2: "‖"}
    lines = []
    for y in range(max_y, -1, -1):
        row_parts = []
        for x in range(max_x + 1):
            row_parts.append(texts.get((x, y), ".").center(width))
            if x < max_x:
                m = gaps.get((True, x, y), 0)
                row_parts.append(h_glyphs.get(m, f"-{m}-".center(3)) if m else " " * 3)
        lines.append("".join(row_parts).rstrip())
        if y > 0:
            gap_parts = []
            for x in range(max_x + 1):
                m = gaps.get((False, x, y - 1), 0)
                glyph = v_glyphs.get(m, str(m)) if m else " "
                gap_parts.append(glyph.center(width))
                if x < max_x:
                    gap_parts.append(" " * 3)
            lines.append("".join(gap_parts).rstrip())
    return "\n".join(lines) + "\n"


def count_table(r: int, k_max: int, csv: bool = False) -> str:
    """Table of configuration counts for a node with r neighbors.

    Rows are k = 1..k_max, columns are magnitudes n = 0..r*k_max; cells past
    n = r*k stay blank. Each row flags its maximum (at the midpoint
    floor(r*k/2), twinned when r*k is odd). k_max is at most _MAX_TABLE_K.
    """
    if not 1 <= r <= 4:
        raise ValueError(f"neighbor count must be in 1..4, got {r}")
    if not 1 <= k_max <= _MAX_TABLE_K:
        raise ValueError(f"k_max must be in 1..{_MAX_TABLE_K}, got {k_max}")
    n_max = r * k_max
    rows = []
    for k in range(1, k_max + 1):
        counts = [count_configs(n, r, k) for n in range(r * k + 1)]
        rows.append((k, counts, max(counts), (r * k) // 2))

    if csv:
        header = ["k"] + [str(n) for n in range(n_max + 1)] + ["row_max", "midpoint_n"]
        lines = [",".join(header)]
        for k, counts, row_max, mid in rows:
            cells = [str(c) for c in counts] + [""] * (n_max - r * k)
            lines.append(",".join([str(k)] + cells + [str(row_max), str(mid)]))
        return "\n".join(lines) + "\n"

    col = max(len(str(row_max)) for _, _, row_max, _ in rows) + 1
    corner = r"k\n"
    header = f"{corner:>5} |" + "".join(f"{n:>{col + 1}}" for n in range(n_max + 1))
    lines = [f"configurations for a node with {r} neighbors", header, "-" * len(header)]
    for k, counts, row_max, mid in rows:
        cells = []
        for n in range(n_max + 1):
            if n < len(counts):
                mark = "*" if counts[n] == row_max else " "
                cells.append(f"{counts[n]:>{col}}{mark}")
            else:
                cells.append(" " * (col + 1))
        lines.append(f"{k:>5} |" + "".join(cells).rstrip() + f"   (max {row_max} at n={mid})")
    return "\n".join(lines) + "\n"
