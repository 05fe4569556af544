"""Exhaustive ground-truth machinery.

The enumerator assigns a multiplicity 0..k to every neighbor-pair edge by
depth-first search with residual and crossing pruning, in one loop that keeps
the components of the positive edges in a union-find written out inline and
rolled back as it backtracks. It is a desk-scale device: the propagation
engine is the scalable solver, and the enumerator, which shares no code with
it or with core._Components, is what we trust when the two must agree.

Also here: the minimal-k sweep, seeded random instance generation (including
a mode that is solvable by construction), and the search for grids with a
unique solution on which the propagation engine cannot move at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Optional

from .core import NumberedGrid, _compile, _Components, _grid, _nodes
from .formats import _MAX_BOARD_CELLS
from .tau import _stalls_at_start

MAX_SWEEP_K = 8
_MAGNITUDE_CAP = 8
_PLACEMENT_ATTEMPTS = 64


class GenerationFailure(Exception):
    """The requested dimensions/density cannot produce a usable grid."""


class GenMode(Enum):
    RANDOM = "random"
    SOLVABLE_BY_CONSTRUCTION = "solvable"


@dataclass(frozen=True)
class GenSpec:
    """Deterministic recipe for one generated instance."""

    seed: int
    width: int
    height: int
    node_density: float
    k: int
    mode: GenMode = GenMode.RANDOM

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be >= 1")
        if not 0 < self.node_density <= 1:
            raise ValueError(f"node_density must be in (0, 1], got {self.node_density}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class SolutionSet:
    """All (or the first few) solutions of a grid, in search order.

    Each solution is a connection map in canonical edge order; exhausted is
    False when a limit cut the search short.
    """

    solutions: tuple[dict, ...]
    exhausted: bool

    def __len__(self) -> int:
        return len(self.solutions)


def enumerate_solutions(grid: NumberedGrid, limit: Optional[int] = None) -> SolutionSet:
    """Enumerate every connection assignment that solves the grid.

    Edges take multiplicities in canonical order; branches die as soon as a
    node overshoots its magnitude, can no longer reach it, a crossing pair
    goes doubly positive, or a completed region seals itself off from the
    rest. Leaves are kept when the connection multigraph spans all nodes.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    edges = grid.all_edges
    ends, k = grid._ends, grid.k
    n_nodes, n_edges = len(grid.nodes), len(edges)
    magnitude = [n.magnitude for n in grid.nodes]
    degree = [0] * n_nodes
    # Per node: k * (number of incident edges not yet assigned); an upper
    # bound on connections the node can still receive.
    headroom = [k * len(node_links) for node_links in grid._links]
    # Per edge: the edges crossing it with lower ids, the only ones assigned when it is tried.
    earlier = [tuple([j for j in cs if j < i]) for i, cs in enumerate(grid._crossings)]
    values = [0] * n_edges
    found: list[dict] = []

    # The positive-edge components: a union-find with rollback (Westbrook and
    # Tarjan 1989), inlined in the loop, by size without path compression, so a
    # root walk is O(log n) and, as values are withdrawn in reverse order, an
    # undo resets one parent. A root holds its component's size and residual
    # (sum of magnitude - degree); merged[i] is the root edge i's value merged away, or None.
    parent = list(range(n_nodes))
    size = [1] * n_nodes
    residual = magnitude[:]
    merged: list[Optional[int]] = [None] * n_edges

    # Depth-first search with an explicit cursor: i is the edge being
    # assigned, and cursor[i] the next multiplicity to try on it; edges past
    # i hold 0. A recursion would need one frame per edge, which long grids
    # exceed. The loop ends with i < 0 unless the limit stopped it.
    cursor = [0] * n_edges
    i = 0
    while i >= 0:
        if i == n_edges:
            # Every node is completed here, and the seal test has cut every
            # component that does not span: this re-check is a backstop.
            root = 0
            while parent[root] != root:
                root = parent[root]
            if residual[root] == 0 and size[root] == n_nodes:
                found.append({edges[j]: values[j] for j in range(n_edges) if values[j] > 0})
                if limit is not None and len(found) >= limit:
                    break
            i -= 1
            continue
        a, b = ends[i]
        if cursor[i] == 0:
            headroom[a] -= k
            headroom[b] -= k
        elif values[i]:  # back from the subtree below: withdraw the value it assumed
            v = values[i]
            degree[a] -= v
            degree[b] -= v
            rb = merged[i]
            if rb is None:  # a and b were joined before it
                ra = a
                while parent[ra] != ra:
                    ra = parent[ra]
                residual[ra] += 2 * v
            else:
                ra = parent[rb]
                size[ra] -= size[rb]
                residual[ra] += 2 * v - residual[rb]
                parent[rb] = rb
                merged[i] = None
        # Values stop where an endpoint would overshoot, not at k; a positive crossing edge allows none.
        left_a, left_b = magnitude[a] - degree[a], magnitude[b] - degree[b]
        top = left_a if left_a < left_b else left_b
        top = top if top < k else k
        for j in earlier[i]:
            if values[j]:
                top = 0
                break
        for v in range(cursor[i], top + 1):
            if left_a - v > headroom[a] or left_b - v > headroom[b]:
                continue
            if v:
                ra, rb = a, b
                while parent[ra] != ra:
                    ra = parent[ra]
                while parent[rb] != rb:
                    rb = parent[rb]
                if ra == rb:
                    r, s = residual[ra] - 2 * v, size[ra]
                else:
                    r, s = residual[ra] + residual[rb] - 2 * v, size[ra] + size[rb]
                if r <= 0 and s < n_nodes:  # a completed component that does not span is sealed off
                    continue
                if ra != rb:
                    if size[ra] < size[rb]:
                        ra, rb = rb, ra
                    parent[rb] = ra
                    size[ra] = s
                    merged[i] = rb
                residual[ra] = r
            values[i] = v
            degree[a] += v
            degree[b] += v
            cursor[i] = v + 1
            i += 1
            break
        else:
            values[i] = 0
            cursor[i] = 0
            headroom[a] += k
            headroom[b] += k
            i -= 1
    return SolutionSet(tuple(found), exhausted=i < 0)


def min_solvable_k(grid: NumberedGrid, k_max: int) -> Optional[int]:
    """Smallest bound k' <= k_max under which the node set is solvable.

    Scans upward from 1, which is enough because any solution under k' is
    literally a solution under any larger bound.
    """
    if not 1 <= k_max <= MAX_SWEEP_K:
        raise ValueError(f"k_max must be in 1..{MAX_SWEEP_K}, got {k_max}")
    tables = grid._links, grid._ends, grid._crossings  # of the nodes alone, as all_edges is
    for k in range(1, k_max + 1):
        candidate = _grid(k, grid.nodes, tables)
        candidate.all_edges = grid.all_edges  # fills the cached property: built once, shared by all
        if enumerate_solutions(candidate, limit=1).solutions:
            return k
    return None


def _place_cells(rng: Random, spec: GenSpec, frame_first: bool = False) -> list[int]:
    """Distinct cells drawn for the nodes, in draw order, each as its
    row-major index y * width + x."""
    width, height = spec.width, spec.height
    cells = width * height
    if cells < 2:
        raise GenerationFailure(f"{width}x{height} lattice cannot hold the 2 nodes a grid needs")
    if cells > _MAX_BOARD_CELLS:
        raise GenerationFailure(f"{width}x{height} lattice exceeds the {_MAX_BOARD_CELLS} cells a grid may span")
    count = min(cells, max(2, round(spec.node_density * cells)))
    if not frame_first:
        return rng.sample(range(cells), count)
    # Frame-first placement: exhaust the boundary before touching the
    # interior. Interior gaps leave long sight lines and crossing pairs,
    # which is where the structurally hard instances live.
    rows = {*range(width), *range(cells - width, cells)}
    boundary = sorted(rows.union(range(0, cells, width), range(width - 1, cells, width)))
    taken = rng.sample(boundary, min(count, len(boundary)))
    if count > len(boundary):
        inner = width - 2
        picked = rng.sample(range(cells - len(boundary)), count - len(boundary))
        taken += [(1 + c // inner) * width + 1 + c % inner for c in picked]
    return taken


def _spanning_multigraph(rng: Random, cells: list[int], width: int, k: int) -> Optional[NumberedGrid]:
    """Random connected, non-crossing multigraph over the neighbor pairs of
    the nodes at cells (row-major indices on a lattice of the given width),
    returned as the grid of bound k whose nodes are labeled with their degree.

    Returns None when a randomized spanning pass dead-ends against the
    crossing constraints.
    """
    cells = sorted(cells)  # distinct and in row-major order: the tables and the grid need no check
    xs, ys = [c % width for c in cells], [c // width for c in cells]
    _, ends, crossing = tables = _compile(xs, ys)
    order = list(range(len(ends)))
    rng.shuffle(order)

    comps = _Components(len(cells), ends)
    label, members = comps.label, comps.members  # union updates both in place
    chosen: dict[int, int] = {}
    for e in order:
        if len(members) == 1:
            break
        a, b = ends[e]
        if label[a] != label[b] and chosen.keys().isdisjoint(crossing[e]):
            chosen[e] = 1
            comps.union(a, b)
    if len(members) > 1:
        return None

    # Thicken the tree into a multigraph: extra strands on used pairs and
    # occasional fresh non-crossing edges.
    random, randint = rng.random, rng.randint
    for e in order:
        if e in chosen:
            if chosen[e] < k and random() < 0.4:
                chosen[e] += randint(1, k - chosen[e])
        elif random() < 0.25 and chosen.keys().isdisjoint(crossing[e]):
            chosen[e] = randint(1, k)
    degree = [0] * len(cells)
    for e, m in chosen.items():
        a, b = ends[e]
        degree[a] += m
        degree[b] += m
    return _grid(k, _nodes(xs, ys, degree), tables)


def generate(spec: GenSpec) -> NumberedGrid:
    """Generate a grid, deterministically in the seed.

    Random mode places nodes uniformly by density and labels them with
    arbitrary magnitudes (such grids are often unsolvable, which is the
    point). The solvable-by-construction mode mixes uniform and frame-first
    placement, builds a random connected non-crossing multigraph, and labels
    each node with its degree, so the construction itself witnesses a
    solution.
    """
    return _generate(spec, spec.seed)


def _generate(spec: GenSpec, seed: int) -> NumberedGrid:
    """generate(spec) with seed for spec.seed: a seed sweep builds and checks no spec per seed."""
    rng = Random(seed)
    if spec.mode is GenMode.RANDOM:
        width, cap = spec.width, min(4 * spec.k, _MAGNITUDE_CAP)
        # Magnitudes are drawn in draw order; sorted by cell, the nodes are in row-major order.
        cells, magnitudes = zip(*sorted([(c, rng.randint(1, cap)) for c in _place_cells(rng, spec)]))
        xs, ys = [c % width for c in cells], [c // width for c in cells]
        return _grid(spec.k, _nodes(xs, ys, magnitudes), _compile(xs, ys))

    # The constructive mode alternates two placement styles: plain uniform
    # cells, and frame-first (boundary before interior). The latter produces
    # the crossing-rich instances that stress the propagation engine.
    frame_first = rng.random() < 0.5
    for _ in range(_PLACEMENT_ATTEMPTS):
        cells = _place_cells(rng, spec, frame_first=frame_first)
        grid = _spanning_multigraph(rng, cells, spec.width, spec.k)
        if grid is not None:
            return grid
    raise GenerationFailure(
        f"no connected non-crossing layout found for {spec.width}x{spec.height} "
        f"at density {spec.node_density}"
    )


def find_stall_witness(budget: int, spec: GenSpec) -> Optional[NumberedGrid]:
    """Search generated grids for a uniquely solvable instance on which the
    propagation engine makes no move at all.

    Varies the seed upward from the spec's; returns the first grid whose
    engine run stalls with an empty trace while the enumerator proves the
    solution unique. Returns None when the budget runs out.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    for i in range(budget):
        try:
            grid = _generate(spec, spec.seed + i)
        except GenerationFailure:
            continue
        # "run_tau stalls with an empty trace"; _stalls_at_start says how.
        if not _stalls_at_start(grid):
            continue
        sols = enumerate_solutions(grid, limit=2)
        if len(sols) == 1 and sols.exhausted:
            return grid
    return None
