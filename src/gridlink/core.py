"""Core grid model: nodes, neighbor resolution, connection state, crossing
geometry, and the solved-grid verifier.

Coordinates grow rightward (x) and upward (y), so a node's Top neighbor is
the nearest node with the same x and a strictly larger y. Neighbors are the
nearest node in each axis direction; in sparse grids they may be far away.
Each grid works its neighbors out once, into a table that every neighbor,
edge and crossing query reads.

All types here are immutable values: operations that change a state return a
new one, which keeps speculative application and rollback cheap for the
propagation engine and the exhaustive solver.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional


class GridError(Exception):
    """Base class for connection-bookkeeping errors."""


class CapacityExceeded(GridError):
    """Adding connections would push an edge past the per-pair bound k."""


class ResidualExceeded(GridError):
    """Adding connections would push a node past its magnitude."""


class CrossingViolation(GridError):
    """Adding connections would cross an existing connection."""


class InvalidConnectionError(GridError):
    """A connection record does not join a neighboring pair of the grid."""


class Direction(IntEnum):
    """The four axis directions, with their fixed 1..4 encoding."""

    TOP = 1
    RIGHT = 2
    BOTTOM = 3
    LEFT = 4

    @property
    def opposite(self) -> "Direction":
        return _OPPOSITE[self]


_OPPOSITE = {
    Direction.TOP: Direction.BOTTOM,
    Direction.BOTTOM: Direction.TOP,
    Direction.RIGHT: Direction.LEFT,
    Direction.LEFT: Direction.RIGHT,
}


@dataclass(frozen=True, order=True)
class Coordinate:
    """Lattice position; ordering is lexicographic by (x, y)."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x < 0 or self.y < 0:
            raise ValueError(f"coordinates must be non-negative, got ({self.x}, {self.y})")

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


@dataclass(frozen=True)
class Node:
    """A labeled node: position plus the number of connections it requires."""

    coord: Coordinate
    magnitude: int

    def __post_init__(self) -> None:
        if self.magnitude < 1:
            raise ValueError(f"magnitude must be >= 1, got {self.magnitude} at {self.coord}")


def node(x: int, y: int, magnitude: int) -> Node:
    """Shorthand constructor used heavily in tests and demos."""
    return Node(Coordinate(x, y), magnitude)


@dataclass(frozen=True)
class EdgeKey:
    """Unordered neighbor pair, stored with endpoints in lexicographic order."""

    a: Coordinate
    b: Coordinate

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"edge endpoints must be canonically ordered, got {self.a}, {self.b}")
        if self.a.x != self.b.x and self.a.y != self.b.y:
            raise ValueError(f"edge must be axis-aligned, got {self.a}-{self.b}")

    @classmethod
    def between(cls, c1: Coordinate, c2: Coordinate) -> "EdgeKey":
        """Build the canonical key for an unordered pair."""
        if c1 == c2:
            raise ValueError(f"edge endpoints must differ, got {c1} twice")
        return cls(c1, c2) if c1 < c2 else cls(c2, c1)

    @property
    def horizontal(self) -> bool:
        return self.a.y == self.b.y

    def __str__(self) -> str:
        return f"{self.a}-{self.b}"


def segments_cross(e1: EdgeKey, e2: EdgeKey) -> bool:
    """True iff the two axis-aligned segments cross in their strict interiors.

    Parallel segments never cross (neighbor minimality keeps their interiors
    node-free, so collinear overlap cannot occur between neighbor pairs), and
    segments that merely share an endpoint do not cross.
    """
    if e1.horizontal == e2.horizontal:
        return False
    h, v = (e1, e2) if e1.horizontal else (e2, e1)
    return h.a.x < v.a.x < h.b.x and v.a.y < h.a.y < v.b.y


class NumberedGrid:
    """Immutable puzzle instance: the per-pair bound k plus the node set.

    Nodes are kept in row-major order (by y, then x), which fixes the scan
    order used throughout the package.
    """

    __slots__ = ("k", "nodes", "__dict__")

    def __init__(self, k: int, nodes) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        node_list = sorted(nodes, key=lambda n: (n.coord.y, n.coord.x))
        if not node_list:
            raise ValueError("grid must contain at least one node")
        coords = [n.coord for n in node_list]
        if len(set(coords)) != len(coords):
            dup = next(c for c in coords if coords.count(c) > 1)
            raise ValueError(f"duplicate coordinate {dup}")
        self.k = k
        self.nodes: tuple[Node, ...] = tuple(node_list)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumberedGrid):
            return NotImplemented
        return self.k == other.k and self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash((self.k, self.nodes))

    def __repr__(self) -> str:
        return f"NumberedGrid(k={self.k}, nodes={len(self.nodes)})"

    @cached_property
    def _by_coord(self) -> dict[Coordinate, Node]:
        return {n.coord: n for n in self.nodes}

    @cached_property
    def _adjacent(self) -> dict[Coordinate, dict[Direction, Node]]:
        """Coordinate -> existing neighbors in Direction order.

        One sorted pass along rows and one along columns link each node to
        the next node on its line.
        """
        slots: dict[Coordinate, list[Optional[Node]]] = {n.coord: [None] * 4 for n in self.nodes}
        for p, q in zip(self.nodes, self.nodes[1:]):  # row-major: (y, x)
            if p.coord.y == q.coord.y:
                slots[p.coord][Direction.RIGHT - 1] = q
                slots[q.coord][Direction.LEFT - 1] = p
        by_column = sorted(self.nodes, key=lambda n: (n.coord.x, n.coord.y))
        for p, q in zip(by_column, by_column[1:]):
            if p.coord.x == q.coord.x:
                slots[p.coord][Direction.TOP - 1] = q
                slots[q.coord][Direction.BOTTOM - 1] = p
        return {
            c: {d: q for d, q in zip(Direction, row) if q is not None}
            for c, row in slots.items()
        }

    def node_at(self, coord: Coordinate) -> Optional[Node]:
        return self._by_coord.get(coord)

    def neighbor(self, p: Node, d: Direction) -> Optional[Node]:
        """The nearest node strictly in direction d from p, or None.

        Neighbors are the nearest node in the shared row or column, not
        necessarily at distance 1; the grid works them all out once, on
        first use.
        """
        return self._adjacent[p.coord].get(d)

    def neighbors(self, p: Node) -> dict[Direction, Node]:
        """Existing neighbors of p, keyed by direction."""
        return dict(self._adjacent[p.coord])

    def neighbor_count(self, p: Node) -> int:
        return len(self._adjacent[p.coord])

    @cached_property
    def all_edges(self) -> tuple[EdgeKey, ...]:
        """Every neighbor-pair edge of the grid, in canonical order."""
        edges = []
        for p in self.nodes:
            nbrs = self._adjacent[p.coord]
            for d in (Direction.TOP, Direction.RIGHT):
                if d in nbrs:
                    edges.append(EdgeKey.between(p.coord, nbrs[d].coord))
        return tuple(sorted(edges, key=lambda e: (e.a, e.b)))

    @cached_property
    def edge_set(self) -> frozenset[EdgeKey]:
        return frozenset(self.all_edges)

    @cached_property
    def crossing_conflicts(self) -> dict[EdgeKey, tuple[EdgeKey, ...]]:
        """For each edge, the edges that geometrically cross it.

        Crossing is a static relation on the grid's edge set; of any crossing
        pair at most one edge may carry connections. A sorted sweep finds the
        pairs: the horizontal edges of a row are disjoint and come in x
        order, so each vertical edge meets at most one edge per row strictly
        between its endpoints, found by bisection.
        """
        conflicts: dict[EdgeKey, list[EdgeKey]] = {e: [] for e in self.all_edges}
        rows: dict[int, list[EdgeKey]] = {}
        for e in self.all_edges:
            if e.horizontal:
                rows.setdefault(e.a.y, []).append(e)
        ys = sorted(rows)
        for v in self.all_edges:
            if v.horizontal:
                continue
            x = v.a.x
            for y in ys[bisect_right(ys, v.a.y):bisect_left(ys, v.b.y)]:
                i = bisect_left(rows[y], x, key=lambda h: h.a.x) - 1
                if i >= 0 and x < rows[y][i].b.x:
                    conflicts[rows[y][i]].append(v)
                    conflicts[v].append(rows[y][i])
        return {e: tuple(sorted(cs, key=lambda e: (e.a, e.b))) for e, cs in conflicts.items()}

    def total_magnitude(self) -> int:
        return sum(n.magnitude for n in self.nodes)


class PuzzleState:
    """A grid plus an immutable connection multiset (edge -> multiplicity).

    Zero multiplicities are never stored. Construction validates the full
    invariant set unless the map comes from an already-checked operation.
    """

    __slots__ = ("grid", "_mult", "_deg")

    def __init__(
        self,
        grid: NumberedGrid,
        connections: Optional[Mapping[EdgeKey, int]] = None,
        *,
        _trusted: bool = False,
    ) -> None:
        self.grid = grid
        mult: dict[EdgeKey, int] = dict(connections) if connections else {}
        deg: dict[Coordinate, int] = {}
        for e, m in mult.items():
            deg[e.a] = deg.get(e.a, 0) + m
            deg[e.b] = deg.get(e.b, 0) + m
        self._mult = mult
        self._deg = deg
        if not _trusted:
            self._validate()

    def _validate(self) -> None:
        k = self.grid.k
        for e, m in self._mult.items():
            if e not in self.grid.edge_set:
                raise InvalidConnectionError(f"{e} does not join neighboring nodes")
            if m < 1:
                raise ValueError(f"multiplicity must be >= 1, got {m} on {e}")
            if m > k:
                raise CapacityExceeded(f"multiplicity {m} exceeds k={k} on {e}")
        for n in self.grid.nodes:
            if self.degree(n) > n.magnitude:
                raise ResidualExceeded(
                    f"node at {n.coord} has degree {self.degree(n)} > magnitude {n.magnitude}"
                )
        for e in self._mult:
            for c in self.grid.crossing_conflicts[e]:
                if c in self._mult:
                    raise CrossingViolation(f"{e} crosses {c}")

    @classmethod
    def empty(cls, grid: NumberedGrid) -> "PuzzleState":
        return cls(grid, None, _trusted=True)

    def multiplicity(self, e: EdgeKey) -> int:
        return self._mult.get(e, 0)

    def degree(self, p: Node) -> int:
        return self._deg.get(p.coord, 0)

    def residual(self, p: Node) -> int:
        return p.magnitude - self.degree(p)

    def completed(self, p: Node) -> bool:
        return self.residual(p) == 0

    def connections(self) -> dict[EdgeKey, int]:
        """The positive-multiplicity edges, in canonical order."""
        return {e: self._mult[e] for e in sorted(self._mult, key=lambda e: (e.a, e.b))}

    def sorted_items(self) -> tuple[tuple[EdgeKey, int], ...]:
        return tuple(self.connections().items())

    def total_multiplicity(self) -> int:
        return sum(self._mult.values())

    def add_connections(self, e: EdgeKey, m: int) -> "PuzzleState":
        """Return a new state with m extra connections on e.

        Raises CapacityExceeded, ResidualExceeded, or CrossingViolation when
        the addition would break an invariant; the input state is unchanged.
        """
        if m < 1:
            raise ValueError(f"must add at least one connection, got {m}")
        if e not in self.grid.edge_set:
            raise InvalidConnectionError(f"{e} does not join neighboring nodes")
        cur = self._mult.get(e, 0)
        if cur + m > self.grid.k:
            raise CapacityExceeded(f"{cur} + {m} connections on {e} exceeds k={self.grid.k}")
        for c in (e.a, e.b):
            n = self.grid.node_at(c)
            assert n is not None
            if self.residual(n) < m:
                raise ResidualExceeded(
                    f"node at {c} has residual {self.residual(n)}, cannot take {m} more"
                )
        if cur == 0:
            for other in self.grid.crossing_conflicts[e]:
                if other in self._mult:
                    raise CrossingViolation(f"{e} crosses {other}")
        new = dict(self._mult)
        new[e] = cur + m
        return PuzzleState(self.grid, new, _trusted=True)

    def remaining_capacity(self, p: Node) -> dict[Direction, int]:
        """Connections still addable from p in each direction.

        Capacity toward a direction is min(k - current multiplicity,
        neighbor residual); it is 0 when the neighbor is missing or when a
        fresh edge there would cross an existing connection.
        """
        caps = {}
        for d in Direction:
            q = self.grid.neighbor(p, d)
            if q is None:
                caps[d] = 0
                continue
            e = EdgeKey.between(p.coord, q.coord)
            cap = min(self.grid.k - self.multiplicity(e), self.residual(q))
            if cap > 0 and e not in self._mult:
                if any(c in self._mult for c in self.grid.crossing_conflicts[e]):
                    cap = 0
            caps[d] = max(cap, 0)
        return caps

    def digest(self) -> str:
        """Stable hex digest of the grid and connection map."""
        parts = [f"k={self.grid.k}"]
        parts += [f"n:{n.coord.x},{n.coord.y},{n.magnitude}" for n in self.grid.nodes]
        parts += [
            f"e:{e.a.x},{e.a.y},{e.b.x},{e.b.y},{m}" for e, m in self.sorted_items()
        ]
        return hashlib.sha256(";".join(parts).encode("ascii")).hexdigest()[:16]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PuzzleState):
            return NotImplemented
        return self.grid == other.grid and self._mult == other._mult

    def __hash__(self) -> int:
        return hash((self.grid, self.sorted_items()))

    def __repr__(self) -> str:
        return f"PuzzleState({self.grid!r}, edges={len(self._mult)})"


@dataclass(frozen=True)
class SolvedCheck:
    """Outcome of the solved-grid verifier: truthiness plus a reason on failure."""

    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _components(grid: NumberedGrid, edges: Iterable[EdgeKey]) -> Iterator[set[Coordinate]]:
    """Connected components of the node set under the given edges.

    Nodes without connections appear as singleton components.
    """
    adj: dict[Coordinate, list[Coordinate]] = {n.coord: [] for n in grid.nodes}
    for e in edges:
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    seen: set[Coordinate] = set()
    for n in grid.nodes:
        if n.coord in seen:
            continue
        comp = {n.coord}
        stack = [n.coord]
        while stack:
            c = stack.pop()
            for other in adj[c]:
                if other not in comp:
                    comp.add(other)
                    stack.append(other)
        seen |= comp
        yield comp


def is_solved(state: PuzzleState) -> SolvedCheck:
    """Check the four solved-grid clauses, reporting the first failure.

    Solved means: every node completed, every multiplicity within k, no two
    connections cross, and the connection multigraph spans all nodes.
    """
    grid = state.grid
    for n in grid.nodes:
        d = state.degree(n)
        if d != n.magnitude:
            return SolvedCheck(
                False, f"incomplete node at {n.coord}: degree {d} != magnitude {n.magnitude}"
            )
    for e, m in state.sorted_items():
        if m > grid.k:
            return SolvedCheck(False, f"multiplicity {m} on {e} exceeds k={grid.k}")
    for e, _ in state.sorted_items():
        for c in grid.crossing_conflicts[e]:
            if state.multiplicity(c) > 0 and (e.a, e.b) < (c.a, c.b):
                return SolvedCheck(False, f"crossing connections {e} and {c}")
    comp = next(_components(grid, state.connections()))
    if len(comp) != len(grid.nodes):
        outside = next(n.coord for n in grid.nodes if n.coord not in comp)
        return SolvedCheck(False, f"disconnected: node at {outside} is unreachable")
    return SolvedCheck(True)
