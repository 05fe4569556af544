"""Connection-configuration words.

A configuration word records how many connections a node sends in each of the
four directions. Words are counted multisets: rearranging symbols does not
produce a new word, so a 4-vector of per-direction counts is the canonical
representation.

This module enumerates the grid-agnostic word set for a magnitude, counts it
by generating-function dynamic programming, filters it down to the words that
are feasible in a concrete state, and intersects the survivors into the
guaranteed-connection word. The filter reads the state once per call (its
residuals and connected components) and then judges each word by the few
nodes it changes, not by rebuilding the state the word would leave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .core import Direction, Node, PuzzleState, _component_ids


class NoConfigurationsError(ValueError):
    """Raised when no word can exist because the magnitude exceeds 4k."""


@dataclass(frozen=True, order=True)
class ConfigWord:
    """Per-direction connection counts (top, right, bottom, left)."""

    top: int
    right: int
    bottom: int
    left: int

    def __post_init__(self) -> None:
        if min(self.counts) < 0:
            raise ValueError(f"counts must be non-negative, got {self.counts}")

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.top, self.right, self.bottom, self.left)

    @property
    def length(self) -> int:
        return self.top + self.right + self.bottom + self.left

    @property
    def is_zero(self) -> bool:
        return self.length == 0

    def count(self, d: Direction) -> int:
        return self.counts[d - 1]

    def dominates(self, other: "ConfigWord") -> bool:
        """True iff every component of self is >= the matching one in other."""
        return all(a >= b for a, b in zip(self.counts, other.counts))

    @classmethod
    def zero(cls) -> "ConfigWord":
        return cls(0, 0, 0, 0)

    @classmethod
    def from_counts(cls, counts: Iterable[int]) -> "ConfigWord":
        t, r, b, l = counts
        return cls(t, r, b, l)

    @classmethod
    def from_digits(cls, digits: str) -> "ConfigWord":
        """Build a word from direction symbols, e.g. '11223'."""
        counts = [0, 0, 0, 0]
        for ch in digits:
            if ch not in "1234":
                raise ValueError(f"direction symbols are 1-4, got {ch!r}")
            counts[int(ch) - 1] += 1
        return cls.from_counts(counts)

    def digits(self) -> str:
        """The word as sorted direction symbols, e.g. '11223'."""
        return "".join(str(d) * c for d, c in enumerate(self.counts, start=1))

    def __str__(self) -> str:
        return self.digits() or "<empty>"


def word_meet(a: ConfigWord, b: ConfigWord) -> ConfigWord:
    """Componentwise minimum of two words."""
    return ConfigWord.from_counts(min(x, y) for x, y in zip(a.counts, b.counts))


@dataclass(frozen=True)
class WordSet:
    """A duplicate-free set of words in deterministic lexicographic order."""

    words: tuple[ConfigWord, ...]

    @classmethod
    def from_words(cls, words: Iterable[ConfigWord]) -> "WordSet":
        return cls(tuple(sorted(set(words))))

    @classmethod
    def empty(cls) -> "WordSet":
        return cls(())

    def __iter__(self) -> Iterator[ConfigWord]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: ConfigWord) -> bool:
        return w in self.words

    def counts_set(self) -> frozenset[tuple[int, int, int, int]]:
        return frozenset(w.counts for w in self.words)


def enumerate_phi_k(n: int, k: int) -> WordSet:
    """All ways to distribute n connections over the four directions, each
    direction used at most k times.

    The enumeration is grid-agnostic: directions with no actual neighbor are
    still present and only die in the feasibility filter. Raises
    NoConfigurationsError when n > 4k, where no word exists.
    """
    if n < 1:
        raise ValueError(f"magnitude must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n > 4 * k:
        raise NoConfigurationsError(f"magnitude {n} exceeds 4k = {4 * k}")
    out = []
    for t in range(min(n, k) + 1):
        for r in range(min(n - t, k) + 1):
            for b in range(min(n - t - r, k) + 1):
                l = n - t - r - b
                if l <= k:
                    out.append(ConfigWord(t, r, b, l))
    return WordSet(tuple(out))


def count_configs(n: int, r: int, k: int) -> int:
    """Number of ways to distribute n connections over r directions with a
    per-direction cap of k.

    Computed as the coefficient of x^n in (1 + x + ... + x^k)^r by dynamic
    programming; returns 0 when n > rk.
    """
    if n < 0:
        raise ValueError(f"magnitude must be >= 0, got {n}")
    if not 1 <= r <= 4:
        raise ValueError(f"neighbor count must be in 1..4, got {r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n > r * k:
        return 0
    coeffs = [1]
    for _ in range(r):
        nxt = [0] * min(len(coeffs) + k, n + 1)
        for i, c in enumerate(coeffs):
            for j in range(k + 1):
                if i + j < len(nxt):
                    nxt[i + j] += c
        coeffs = nxt
    return coeffs[n]


def enumerate_feasible(state: PuzzleState, p: Node) -> WordSet:
    """The words for p's residual magnitude that survive all five feasibility
    conditions against the current state.

    The filters are: per-pair capacity including existing connections, no
    crossing with existing connections, per-direction neighbor residual (a
    missing neighbor has capacity 0), no sealed-off completed component, and
    no starved incomplete node -- the last two judged on the state as it
    would look one step after applying the word.

    The last two are judged without building that state. A word lowers
    residuals only at p and at the neighbors it sends connections to, and
    each of those has residual > 0 beforehand (capacity toward a neighbor is
    capped by its residual). So a component that is completed now stays so,
    untouched: if one does not span the grid, or an incomplete node has no
    incomplete neighbor, no word can help and the result is empty. Otherwise
    the only component a word can seal is the one it forms, p's merged with
    those of the neighbors it uses: sealed exactly when it does not span the
    grid and their residual sums add up to the 2 * len(word) the word uses.
    And since no node is starved before the word, the only nodes it can
    starve are the neighbors of the nodes it completes.

    An empty result is meaningful: the state admits no completion of p.
    """
    res = state.residual(p)
    if res < 1:
        raise ValueError(f"node at {p.coord} is already complete")
    grid = state.grid
    if res > 4 * grid.k:
        return WordSet.empty()
    total = len(grid.nodes)
    residual, links = state._res, grid._links
    label: dict[int, int] = {}
    sums, sizes = [], []
    for comp in _component_ids(grid, state._mult):
        comp_sum = sum(residual[c] for c in comp)
        if comp_sum == 0 and len(comp) < total:
            return WordSet.empty()
        label.update(dict.fromkeys(comp, len(sums)))
        sums.append(comp_sum)
        sizes.append(len(comp))

    def starved(c: int, after: dict[int, int]) -> bool:
        """Node c is incomplete and its neighbors are not, with after's residuals."""
        return after.get(c, residual[c]) > 0 and all(
            after.get(q, residual[q]) == 0 for q, _ in filter(None, links[c])
        )

    if any(starved(c, {}) for c in range(total)):
        return WordSet.empty()
    i = grid._index[p.coord]
    caps = state._capacity(i)
    survivors = []
    for word in enumerate_phi_k(res, grid.k):
        if any(m > cap for m, cap in zip(word.counts, caps)):
            continue
        after = {i: 0}
        for link, m in zip(links[i], word.counts):
            if m:
                after[link[0]] = residual[link[0]] - m
        merged = {label[c] for c in after}
        if sum(sums[j] for j in merged) == 2 * res and sum(sizes[j] for j in merged) < total:
            continue
        completed = [c for c, left in after.items() if not left]
        if any(starved(q, after) for c in completed for q, _ in filter(None, links[c])):
            continue
        survivors.append(word)
    return WordSet(tuple(survivors))


def omega_star(state: PuzzleState, p: Node) -> Optional[ConfigWord]:
    """Connections guaranteed to appear in every feasible completion of p:
    the componentwise minimum over the feasible words.

    Returns the zero word when feasible words exist but share nothing, and
    None when no feasible word exists at all -- the state cannot be extended
    to complete p, so no solution extends this state.
    """
    feasible = enumerate_feasible(state, p)
    if not len(feasible):
        return None
    result = None
    for w in feasible:
        result = w if result is None else word_meet(result, w)
    return result
