"""Shared corpus of generated grids plus cached oracle results.

The corpus mixes both generator modes over lattice shapes up to 4x4 and
bounds up to 3. Criteria that compare the propagation engine, the screens,
and the exhaustive oracle all walk the same grids, so the (expensive) full
enumeration per grid is computed once per session.
"""

import pytest

from gridlink import GenMode, GenSpec, NumberedGrid, node

from reference import grids

# (width, height, density, k, mode, seeds)
CORPUS_SHAPES = [
    (2, 2, 1.0, 1, GenMode.RANDOM, 20),
    (2, 2, 1.0, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, 20),
    (3, 2, 0.9, 1, GenMode.RANDOM, 25),
    (3, 2, 0.9, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, 25),
    (3, 3, 0.8, 1, GenMode.RANDOM, 25),
    (3, 3, 0.8, 2, GenMode.RANDOM, 35),
    (3, 3, 0.9, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, 40),
    (3, 3, 0.8, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, 30),
    (4, 3, 0.7, 2, GenMode.RANDOM, 35),
    (4, 3, 0.75, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, 40),
    (4, 3, 0.7, 3, GenMode.RANDOM, 25),
    (4, 3, 0.7, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, 30),
    (4, 4, 0.6, 2, GenMode.RANDOM, 35),
    (4, 4, 0.65, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, 40),
    (4, 4, 0.55, 3, GenMode.RANDOM, 25),
    (4, 4, 0.6, 3, GenMode.SOLVABLE_BY_CONSTRUCTION, 35),
    (4, 4, 0.85, 2, GenMode.SOLVABLE_BY_CONSTRUCTION, 40),
    (4, 4, 0.9, 1, GenMode.RANDOM, 20),
]

# Hand-built additions: grids the random corpus is not guaranteed to cover.
# The four-pair grid passes every screen yet admits no solution (any
# completion splits in two), witnessing that the screens are incomplete.
EXTRA_GRIDS = [
    NumberedGrid(1, [node(0, 0, 1), node(1, 0, 1), node(5, 5, 1), node(6, 5, 1)]),
    NumberedGrid(2, [node(0, 0, 2), node(1, 0, 2), node(0, 1, 2), node(1, 1, 2)]),
    NumberedGrid(1, [node(0, 0, 1), node(1, 0, 2), node(2, 0, 1)]),
]


def build_corpus():
    return list(grids(
        GenSpec(seed=seed * 7919 + shape_id * 1009, width=width, height=height, node_density=density, k=k, mode=mode)
        for shape_id, (width, height, density, k, mode, seeds) in enumerate(CORPUS_SHAPES)
        for seed in range(seeds)
    ))


@pytest.fixture(scope="session")
def corpus():
    built = build_corpus()
    assert len(built) >= 500
    return built + EXTRA_GRIDS


@pytest.fixture(scope="session")
def corpus_solutions(corpus):
    from gridlink import enumerate_solutions

    return [enumerate_solutions(g) for g in corpus]
