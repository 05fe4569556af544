"""Core grid model: nodes, neighbor resolution, connection state, crossing
geometry, and the solved-grid verifier.

Coordinates grow rightward (x) and upward (y), so a node's Top neighbor is
the nearest node with the same x and a strictly larger y. Neighbors are the
nearest node in each axis direction; in sparse grids they may be far away.

Each grid compiles its topology when built, over integer ids: a node id is
the node's position in nodes and an edge id its position in all_edges. The
tables are each node's links, as (slot, neighbor id, edge id) for the
neighbors that exist, the endpoints of each edge, and the ids of the edges
crossing each edge. One sweep over plain (x, y) ints, _compile, builds all
three, indexing rows by rank, so a vertical edge costs the rows between its
ends, whatever the coordinate gap. The generator and the parser compile
their sorted ints and build nodes with _nodes before any grid, unchecked.
PuzzleState keeps multiplicities by edge id and residuals by node id, and
words, tau and the oracle read these tables. Coordinate, EdgeKey and Node
appear only at the API edge. Connected components are kept by one routine,
_Components, which the verifier, the word test and the generator share.
A digest hashes a per-grid prefix and one _entry per connected edge; run_tau
extends one hasher while its steps draw past the highest connected edge id.

All types here are immutable values: operations that change a state return a
new one. The propagation engine and the enumerator step vectors of their own
in place; the engine builds a PuzzleState only where it returns one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import accumulate, compress
from operator import ne
from typing import Mapping, Optional, Sequence


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


def _nodes(xs: Sequence[int], ys: Sequence[int], magnitudes: Sequence[int]) -> tuple[Node, ...]:
    """node(x, y, m) for each x, y and m, unchecked: each x and y must be
    non-negative and each m at least 1."""
    new, nodes = object.__new__, []
    for x, y, m in zip(xs, ys, magnitudes):
        fields = (c := new(Coordinate)).__dict__  # a frozen dataclass refuses setattr, not its __dict__
        fields["x"], fields["y"] = x, y
        nodes.append(p := new(Node))
        fields = p.__dict__
        fields["coord"], fields["magnitude"] = c, m
    return tuple(nodes)


@dataclass(frozen=True, order=True)
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

    def __hash__(self) -> int:  # over the four ints in one frame, not one frame per Coordinate
        return hash((self.a.x, self.a.y, self.b.x, self.b.y))

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


def _compile(xs: Sequence[int], ys: Sequence[int]) -> tuple[tuple, tuple, tuple]:
    """(links, ends, crossings) of the nodes at the distinct (xs[i], ys[i]),
    in row-major order. A grid passes its nodes' coordinates; the generator
    passes its cells, and builds nodes with _nodes once it has magnitudes.

    Nodes are visited in (x, y) order. Each links to the next node on its
    column (slots TOP=0, BOTTOM=2) and row (RIGHT=1, LEFT=3), and hands out
    ids to the edges it is the lower end of, TOP before RIGHT: the canonical
    edge order. A node's links arrive LEFT, BOTTOM, TOP, RIGHT, so each row
    keeps slot order by inserting BOTTOM and TOP at the front and RIGHT
    after TOP. Per row rank, the row's place among the distinct y values,
    the sweep keeps the edge leaving the row's last swept node rightward,
    or None. No node sits on a vertical edge's column strictly between its
    ends, so it crosses exactly the open edges of the ranks between: its
    work is the rows in between, whatever the coordinate gap. Tables are
    built from lists, as tuple() over a generator resizes, which fills
    CPython's free lists.
    """
    n = len(xs)
    xs, ys = [*xs, -1], [*ys, -1]  # sentinel id n: on no row or column
    rank = list(accumulate(map(ne, ys[1:n], ys), initial=0))  # row-major order ranks rows in one pass
    by_column = sorted(range(n), key=xs.__getitem__)  # stable: row-major order within a column
    links: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    ends: list[tuple[int, int]] = []
    crossings: list = []  # per edge id; a horizontal edge's list fills in vertical id order
    open_right: list[Optional[int]] = [None] * (rank[-1] + 1)
    for a, up in zip(by_column, by_column[1:] + [n]):
        r = rank[a]
        top = xs[up] == xs[a]
        if top:
            v = len(ends)
            links[a].insert(0, (0, up, v))
            links[up].insert(0, (2, a, v))
            ends.append((a, up))
            crossed = ()
            if rank[up] > r + 1:
                crossed = [h for h in open_right[r + 1:rank[up]] if h is not None]
                for h in crossed:
                    crossings[h].append(v)
                crossed.sort()
            crossings.append(crossed)
        open_right[r] = None
        if ys[a + 1] == ys[a]:
            open_right[r] = right = len(ends)
            links[a].insert(top, (1, a + 1, right))
            links[a + 1].append((3, a, right))
            ends.append((a, a + 1))
            crossings.append([])
    return tuple([tuple(row) for row in links]), tuple(ends), tuple([tuple(cs) for cs in crossings])


class NumberedGrid:
    """Immutable puzzle instance: the per-pair bound k plus the node set.

    Nodes are kept in row-major order (by y, then x), which fixes the scan
    order used throughout the package. A node's id is its position in nodes
    and an edge's id its position in all_edges; the grid compiles its
    topology into tables over these ids when built, and every neighbor, edge
    and crossing query reads them. _links holds, per node id, its existing
    links as (slot, neighbor id, edge id) in increasing slot order, slot
    d - 1 pointing in Direction d; _ends, per edge id, its two node ids in
    canonical order; _crossings, per edge id, the sorted ids of the edges
    that geometrically cross it.
    """

    __slots__ = ("k", "nodes", "_links", "_ends", "_crossings", "__dict__")

    def __init__(self, k: int, nodes) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # Ties on the decorated key never compare nodes, and duplicates end up adjacent.
        keyed = sorted([((n.coord.y, n.coord.x), i, n) for i, n in enumerate(nodes)])
        if not keyed:
            raise ValueError("grid must contain at least one node")
        dup = next((n for (c, _, n), (d, _, _) in zip(keyed, keyed[1:]) if c == d), None)
        if dup is not None:
            raise ValueError(f"duplicate coordinate {dup.coord}")
        self.k = k
        self.nodes: tuple[Node, ...] = tuple([n for _, _, n in keyed])
        ys, xs = zip(*[c for c, _, _ in keyed])
        self._links, self._ends, self._crossings = _compile(xs, ys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumberedGrid):
            return NotImplemented
        return self.k == other.k and self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash((self.k, self.nodes))

    def __repr__(self) -> str:
        return f"NumberedGrid(k={self.k}, nodes={len(self.nodes)})"

    @cached_property
    def _index(self) -> dict[Coordinate, int]:
        return {n.coord: i for i, n in enumerate(self.nodes)}

    def node_at(self, coord: Coordinate) -> Optional[Node]:
        i = self._index.get(coord)
        return None if i is None else self.nodes[i]

    def neighbor(self, p: Node, d: Direction) -> Optional[Node]:
        """The nearest node strictly in direction d from p, or None.

        Neighbors are the nearest node in the shared row or column, not
        necessarily at distance 1.
        """
        s = d - 1
        return next((self.nodes[q] for t, q, _ in self._links[self._index[p.coord]] if t == s), None)

    def neighbors(self, p: Node) -> dict[Direction, Node]:
        """Existing neighbors of p, keyed by direction."""
        return {Direction(s + 1): self.nodes[q] for s, q, _ in self._links[self._index[p.coord]]}

    def _edge_id(self, e: EdgeKey) -> Optional[int]:
        """The id of e, or None when e does not join neighboring nodes."""
        a, b = self._index.get(e.a), self._index.get(e.b)
        links = () if a is None else self._links[a]
        return next((j for _, q, j in links if q == b), None)

    @cached_property
    def all_edges(self) -> tuple[EdgeKey, ...]:
        """Every neighbor-pair edge of the grid, in canonical order."""
        coords, new, edges = [n.coord for n in self.nodes], object.__new__, []
        for a, b in self._ends:  # each EdgeKey(coords[a], coords[b]), unchecked: the ends are canonical
            edges.append(e := new(EdgeKey))
            fields = e.__dict__  # as in _nodes
            fields["a"], fields["b"] = coords[a], coords[b]
        return tuple(edges)

    @cached_property
    def crossing_conflicts(self) -> dict[EdgeKey, tuple[EdgeKey, ...]]:
        """For each edge, the edges that geometrically cross it.

        Crossing is a static relation on the grid's edge set; of any crossing
        pair at most one edge may carry connections.
        """
        edges = self.all_edges  # most edges cross nothing and share ()
        return dict(zip(edges, [tuple(map(edges.__getitem__, cs)) if cs else () for cs in self._crossings]))

    @cached_property
    def _digest_prefix(self):
        """sha256 object fed the grid's part of every digest, which copies it."""
        import hashlib  # loads OpenSSL, a few MB resident: only when a digest is asked for
        parts = [f"k={self.k}"] + [f"n:{n.coord.x},{n.coord.y},{n.magnitude}" for n in self.nodes]
        return hashlib.sha256(";".join(parts).encode("ascii"))


def _grid(k: int, nodes: tuple[Node, ...], tables: tuple) -> NumberedGrid:
    """NumberedGrid(k, nodes), unchecked: k must be at least 1, and nodes non-empty,
    in row-major order and at distinct coordinates; tables must be their _compile."""
    grid = object.__new__(NumberedGrid)
    grid.k, grid.nodes = k, nodes
    grid._links, grid._ends, grid._crossings = tables
    return grid


class PuzzleState:
    """A grid plus an immutable connection multiset.

    Multiplicities are kept by edge id and residuals by node id, as tuples.
    The constructor checks the full invariant set on the map it is given;
    add_connections checks only what one addition can break, in the same
    order and with the same errors.
    """

    __slots__ = ("grid", "_mult", "_res")

    def __init__(self, grid: NumberedGrid, connections: Optional[Mapping[EdgeKey, int]] = None) -> None:
        mult = [0] * len(grid._ends)
        res = [n.magnitude for n in grid.nodes]
        given = []
        for e, m in dict(connections or {}).items():
            i = grid._edge_id(e)
            if i is None:
                raise InvalidConnectionError(f"{e} does not join neighboring nodes")
            if m < 1:
                raise ValueError(f"multiplicity must be >= 1, got {m} on {e}")
            if m > grid.k:
                raise CapacityExceeded(f"multiplicity {m} exceeds k={grid.k} on {e}")
            mult[i] = m
            for a in grid._ends[i]:
                res[a] -= m
            given.append(i)
        for n, r in zip(grid.nodes, res):
            if r < 0:
                raise ResidualExceeded(
                    f"node at {n.coord} has degree {n.magnitude - r} > magnitude {n.magnitude}"
                )
        for i in given:
            for j in grid._crossings[i]:
                if mult[j]:
                    raise CrossingViolation(f"{grid.all_edges[i]} crosses {grid.all_edges[j]}")
        self.grid = grid
        self._mult = tuple(mult)
        self._res = tuple(res)

    @classmethod
    def empty(cls, grid: NumberedGrid) -> "PuzzleState":
        return cls(grid)

    def multiplicity(self, e: EdgeKey) -> int:
        i = self.grid._edge_id(e)
        return 0 if i is None else self._mult[i]

    def degree(self, p: Node) -> int:
        i = self.grid._index[p.coord]
        return self.grid.nodes[i].magnitude - self._res[i]

    def residual(self, p: Node) -> int:
        return self._res[self.grid._index[p.coord]]

    def connections(self) -> dict[EdgeKey, int]:
        """The positive-multiplicity edges, in canonical order."""
        edges = self.grid.all_edges
        return {edges[i]: m for i, m in enumerate(self._mult) if m}

    def sorted_items(self) -> tuple[tuple[EdgeKey, int], ...]:
        return tuple(self.connections().items())

    def add_connections(self, e: EdgeKey, m: int) -> "PuzzleState":
        """Return a new state with m extra connections on e.

        Raises CapacityExceeded, ResidualExceeded, or CrossingViolation when
        the addition would break an invariant; the input state is unchanged.
        """
        if m < 1:
            raise ValueError(f"must add at least one connection, got {m}")
        grid, mult, res = self.grid, list(self._mult), list(self._res)
        i = grid._edge_id(e)
        if i is None:
            raise InvalidConnectionError(f"{e} does not join neighboring nodes")
        mult[i] += m
        if mult[i] > grid.k:
            raise CapacityExceeded(f"multiplicity {mult[i]} exceeds k={grid.k} on {e}")
        for a in grid._ends[i]:  # in node id order, as the constructor reports
            res[a] -= m
            if res[a] < 0:
                n, r = grid.nodes[a], res[a]
                raise ResidualExceeded(
                    f"node at {n.coord} has degree {n.magnitude - r} > magnitude {n.magnitude}"
                )
        # The state's edges cross none of each other; the lowest crossing one
        # is the first the constructor's scan in edge order would report.
        j = next((j for j in grid._crossings[i] if mult[j]), None)
        if j is not None:
            raise CrossingViolation(f"{grid.all_edges[j]} crosses {grid.all_edges[i]}")
        return _state(grid, mult, res)

    def remaining_capacity(self, p: Node) -> dict[Direction, int]:
        """Connections still addable from p in each direction.

        Capacity toward a direction is min(k - current multiplicity,
        neighbor residual); it is 0 when the neighbor is missing or when a
        fresh edge there would cross an existing connection.
        """
        return dict(zip(Direction, self._capacity(self.grid._index[p.coord])))

    def _capacity(self, i: int) -> tuple[int, ...]:
        """remaining_capacity of node id i, as counts in Direction order."""
        grid, mult = self.grid, self._mult
        caps = [0, 0, 0, 0]
        for s, q, e in grid._links[i]:
            cap = min(grid.k - mult[e], self._res[q])
            if cap > 0 and not mult[e] and any(mult[c] for c in grid._crossings[e]):
                cap = 0
            caps[s] = cap
        return tuple(caps)

    def digest(self) -> str:
        """Stable hex digest of the grid and connection map: the first 16 hex
        digits of the sha256 of "k=K", then ";n:x,y,magnitude" per node in
        row-major order, then ";e:ax,ay,bx,by,m" per connected edge in
        canonical order, in ASCII."""
        h = self.grid._digest_prefix.copy()
        h.update("".join([_entry(e, m) for e, m in zip(self.grid.all_edges, self._mult) if m]).encode("ascii"))
        return h.hexdigest()[:16]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PuzzleState):
            return NotImplemented
        return self.grid == other.grid and self._mult == other._mult

    def __hash__(self) -> int:
        return hash((self.grid, self._mult))

    def __repr__(self) -> str:
        return f"PuzzleState({self.grid!r}, edges={len(self._mult) - self._mult.count(0)})"


def _state(grid: NumberedGrid, mult: Sequence[int], res: Sequence[int]) -> PuzzleState:
    """A state over grid with multiplicities mult by edge id and residuals
    res by node id, unchecked."""
    state = object.__new__(PuzzleState)
    state.grid, state._mult, state._res = grid, tuple(mult), tuple(res)
    return state


def _entry(e: EdgeKey, m: int) -> str:
    """The digest entry ";e:ax,ay,bx,by,m" of m connections on edge e."""
    return f";e:{e.a.x},{e.a.y},{e.b.x},{e.b.y},{m}"


@dataclass(frozen=True)
class SolvedCheck:
    """Outcome of the solved-grid verifier: truthiness plus a reason on failure."""

    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


class _Components:
    """Connected components of a grid's node ids, merged by union.

    label[c] names the component of node id c, and members[j] lists the
    node ids of component j. union relabels the smaller side, so a node is
    relabeled O(log n) times over any run of unions. Given n nodes, a grid's
    ends table and a multiplicity vector by edge id, it unions the positive edges.
    """

    __slots__ = ("label", "members")

    def __init__(self, n: int, ends: Sequence[tuple[int, int]], mult: Sequence[int] = ()) -> None:
        self.label = list(range(n))
        self.members = {c: [c] for c in self.label}
        for a, b in compress(ends, mult):
            self.union(a, b)

    def union(self, a: int, b: int) -> int:
        """Merge the components of node ids a and b; returns the merged label."""
        label, members = self.label, self.members
        keep, gone = label[a], label[b]
        if keep != gone:
            if len(members[keep]) < len(members[gone]):
                keep, gone = gone, keep
            for c in members[gone]:
                label[c] = keep
            members[keep] += members.pop(gone)
        return keep


def is_solved(state: PuzzleState) -> SolvedCheck:
    """Check the solved-grid clauses, reporting the first failure.

    Solved means: every node completed, every multiplicity within k, no two
    connections cross, and the connection multigraph spans all nodes. Every
    PuzzleState already keeps multiplicities within k and connections
    uncrossed, so only completion and connectivity are checked here.
    """
    grid = state.grid
    for n, r in zip(grid.nodes, state._res):
        if r:
            return SolvedCheck(
                False, f"incomplete node at {n.coord}: degree {n.magnitude - r} != magnitude {n.magnitude}"
            )
    comps = _Components(len(grid.nodes), grid._ends, state._mult)
    if len(comps.members) > 1:
        outside = next(c for c, j in enumerate(comps.label) if j != comps.label[0])
        return SolvedCheck(False, f"disconnected: node at {grid.nodes[outside].coord} is unreachable")
    return SolvedCheck(True)
