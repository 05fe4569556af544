"""References written from the definitions, which the tests check the fast
code against (after the certifying-algorithms idea: a much simpler program
checks the fast one).

Each reads only names in gridlink.__all__ and shares no bookkeeping with
the engine, the word test's context or the enumerator: connectivity is one
breadth-first search over node ids, words are listed from phi_k and judged
on the whole state they leave, and solutions are listed by trying every
assignment. test_reference.py holds the module to that rule.
"""

import itertools
from random import Random
from typing import Optional

from gridlink import (
    Coordinate,
    Direction,
    EdgeKey,
    GenSpec,
    GenerationFailure,
    NumberedGrid,
    SolutionSet,
    apply_builder,
    enumerate_phi_k,
    generate,
    node,
    segments_cross,
)


def edge(x1, y1, x2, y2):
    return EdgeKey.between(Coordinate(x1, y1), Coordinate(x2, y2))


def toward(slot, m):
    """Word counts with m toward slot and 0 elsewhere."""
    counts = [0, 0, 0, 0]
    counts[slot] = m
    return tuple(counts)


def grids(specs):
    """The grids generated from specs, skipping specs the generator cannot
    place. specs is read one spec at a time, so a caller's random draws for
    the next spec come after its draws on the grid before."""
    for spec in specs:
        try:
            yield generate(spec)
        except GenerationFailure:
            continue


def generated(shapes):
    """Grids from (width, height, density, k, mode, seeds) rows, as a list."""
    return list(grids(
        GenSpec(seed=seed, width=width, height=height, node_density=density, k=k, mode=mode)
        for width, height, density, k, mode, seeds in shapes
        for seed in seeds
    ))


def random_grids(rng, count, sizes, densities, ks, modes):
    """Grids from count specs of random shape drawn from rng, skipping specs
    the generator cannot place."""
    return grids(
        GenSpec(
            seed=seed, width=rng.randint(*sizes), height=rng.randint(*sizes),
            node_density=rng.uniform(*densities), k=rng.randint(*ks), mode=rng.choice(modes),
        )
        for seed in range(count)
    )


def components(n_nodes, pairs):
    """The components of node ids 0..n_nodes-1 under the given (a, b) pairs,
    as sets, by breadth-first search from each lowest id not yet reached."""
    adjacent = [set() for _ in range(n_nodes)]
    for a, b in pairs:
        adjacent[a].add(b)
        adjacent[b].add(a)
    parts, seen = [], set()
    for start in range(n_nodes):
        if start not in seen:
            comp = frontier = {start}
            while frontier:
                frontier = {q for c in frontier for q in adjacent[c]} - comp
                comp = comp | frontier
            seen |= comp
            parts.append(comp)
    return parts


def ends(grid):
    """Each edge's endpoints as node ids, in all_edges order, looked up by
    coordinate in the node order."""
    index = {n.coord: i for i, n in enumerate(grid.nodes)}
    return [(index[e.a], index[e.b]) for e in grid.all_edges]


def fitting_words(state, p, n):
    """The words of n connections at p that its remaining capacity allows."""
    caps = state.remaining_capacity(p)
    return [w for w in enumerate_phi_k(n, state.grid.k) if all(w.counts[d - 1] <= caps[d] for d in Direction)]


def whole_state_feasible(state, p, sealers=None):
    """enumerate_feasible by its definition: apply each word that fits and
    judge the whole state it leaves. The words that seal the component they
    form, the one holding p, are appended to sealers if given."""
    grid = state.grid
    if state.residual(p) > 4 * grid.k:
        return []
    index = {n.coord: i for i, n in enumerate(grid.nodes)}
    neighbors = [[index[q.coord] for q in grid.neighbors(n).values()] for n in grid.nodes]
    kept = []
    for w in fitting_words(state, p, state.residual(p)):
        after = apply_builder(state, p, w)
        left = [after.residual(n) for n in grid.nodes]
        pairs = [(index[e.a], index[e.b]) for e in after.connections()]
        sealed = [
            comp for comp in components(len(left), pairs)
            if len(comp) < len(left) and all(left[c] == 0 for c in comp)
        ]
        if sealers is not None and any(index[p.coord] in comp for comp in sealed):
            sealers.append(w)
        starved = any(r > 0 and all(left[q] == 0 for q in neighbors[c]) for c, r in enumerate(left))
        if not sealed and not starved:
            kept.append(w)
    return kept


def brute_force_solutions(grid: NumberedGrid, limit: Optional[int] = None) -> SolutionSet:
    """Independent check with no DFS and no union-find: try every assignment
    of 0..k to the edges in canonical order, as itertools.product lists them
    (first edge most significant, which is the enumerator's own order), and
    keep those where every node's degree is its magnitude, no crossing pair
    is doubly positive and the positive edges join every node."""
    edges, pairs = grid.all_edges, ends(grid)
    crossing = [(x, y) for (x, e), (y, f) in itertools.combinations(enumerate(edges), 2) if segments_cross(e, f)]
    magnitudes = [n.magnitude for n in grid.nodes]
    found = []
    for values in itertools.product(range(grid.k + 1), repeat=len(edges)):
        degree = [0] * len(magnitudes)
        for (a, b), v in zip(pairs, values):
            degree[a] += v
            degree[b] += v
        if degree != magnitudes or any(values[x] and values[y] for x, y in crossing):
            continue
        if len(components(len(magnitudes), [ab for ab, v in zip(pairs, values) if v])) == 1:
            found.append({e: v for e, v in zip(edges, values) if v})
            if limit is not None and len(found) == limit:
                return SolutionSet(tuple(found), exhausted=False)
    return SolutionSet(tuple(found), exhausted=True)


def planted(grid: NumberedGrid, rng: Random) -> Optional[NumberedGrid]:
    """grid's nodes relabeled with their degrees under a random assignment
    that leaves no crossing pair doubly positive and joins every node, so
    that it has at least one solution; None when 20 draws do not join."""
    edges, pairs = grid.all_edges, ends(grid)
    for _ in range(20):
        values = [0] * len(edges)
        for x in rng.sample(range(len(edges)), len(edges)):
            if not any(v and segments_cross(edges[x], f) for f, v in zip(edges, values)):
                values[x] = rng.randint(0, grid.k)
        if len(components(len(grid.nodes), [ab for ab, v in zip(pairs, values) if v])) == 1:
            degree = [sum(v for ab, v in zip(pairs, values) if i in ab) for i in range(len(grid.nodes))]
            return NumberedGrid(grid.k, [node(n.coord.x, n.coord.y, d) for n, d in zip(grid.nodes, degree)])
    return None
