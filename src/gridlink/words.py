"""Connection-configuration words.

A configuration word records how many connections a node sends in each of the
four directions. Words are counted multisets: rearranging symbols does not
produce a new word, so a 4-vector of per-direction counts is the canonical
representation.

This module enumerates the grid-agnostic word set for a magnitude, counts it
by generating-function dynamic programming, filters it down to the words that
are feasible in a concrete state, and intersects the survivors into the
guaranteed-connection word. The filter reads the state once per call (its
residuals and components, and the slots a word must fill or must not fill
all of) and judges each word by two masks, the slots it fills and uses; it
sums components only for a word that fills every slot it uses. A state's
context (_Context) keeps the words it computed and the slot masks; told of
each engine step, it drops a word only where the filter reads what the step
changed: near the nodes the step completed, at the touched nodes, at their
neighbors whose slot toward them can be filled, and where a word may newly
seal the merged component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .core import Node, NumberedGrid, PuzzleState, _Components


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

    def __iter__(self) -> Iterator[ConfigWord]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)


def _word(counts: Sequence[int]) -> ConfigWord:
    """ConfigWord.from_counts(counts), unchecked: every count must be
    non-negative, as the engine's are by construction."""
    w = object.__new__(ConfigWord)
    fields = w.__dict__  # a frozen dataclass refuses setattr, not its __dict__
    fields["top"], fields["right"], fields["bottom"], fields["left"] = counts
    return w


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
    return WordSet(tuple([ConfigWord(*c) for c in _spread(n, (k, k, k, k))]))


def _spread(n: int, caps: tuple[int, ...]) -> Iterator[tuple[int, int, int, int]]:
    """Every way to send n connections over the four directions, at most
    caps[d] toward direction d, as counts in lexicographic order. Each loop
    starts where the later caps can take the rest, so it visits only words."""
    c0, c1, c2, c3 = caps
    for t in range(max(0, n - c1 - c2 - c3), min(n, c0) + 1):
        rest = n - t
        for r in range(rest - c2 - c3 if rest > c2 + c3 else 0, (rest if rest < c1 else c1) + 1):
            left = rest - r
            for b in range(left - c3 if left > c3 else 0, (left if left < c2 else c2) + 1):
                yield t, r, b, left - b


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
            for j in range(min(k, n - i) + 1):  # terms past x^n are dropped
                nxt[i + j] += c
        coeffs = nxt
    return coeffs[n]


class _Context(_Components):
    """What the word test reads of a state besides capacities, and what it
    has kept.

    The components of the positive edges of mult, as in _Components, plus
    mult and res, the multiplicities by edge id and residuals by node id (the
    engine's own lists, stepped in place), links, the grid's link table,
    sums, each component's residual sum, and, as far as computed, each node
    id's need and cuts masks and its omega_star counts (kept). dead is the
    verdict that rules out every word at once: a completed component does
    not span the grid, or an incomplete node has only completed neighbors
    (it is starved). Once true it stays true, as residuals only fall and a
    completed node takes no connection.
    """

    __slots__ = ("mult", "res", "links", "k", "sums", "dead", "masks", "kept")

    def __init__(self, grid: NumberedGrid, mult: Sequence[int], res: Sequence[int]) -> None:
        super().__init__(grid, mult)
        self.mult, self.res, self.links, self.k = mult, res, grid._links, grid.k
        self.sums = {j: sum(res[c] for c in comp) for j, comp in self.members.items()}
        self.dead = any(not s and len(self.members[j]) < len(res) for j, s in self.sums.items()) or any(
            r and all(not res[q] for _, q, _ in links) for r, links in zip(res, grid._links)
        )
        self.masks: dict[int, tuple[int, list[int]]] = {}
        self.kept: dict[int, Optional[tuple[int, ...]]] = {}

    def word(self, i: int, caps: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """omega_star of node id i as counts (None for no feasible word),
        given i's capacity per direction; kept until a step may change it.
        The meet is folded over the survivors and stops once it is zero."""
        kept = self.kept
        if i not in kept:
            meet = None
            for t, r, b, l in _feasible(self, i, caps):
                if meet is not None:
                    t, r, b, l = (t if t < t0 else t0, r if r < r0 else r0,
                                  b if b < b0 else b0, l if l < l0 else l0)
                meet = t0, r0, b0, l0 = t, r, b, l
                if not (t or r or b or l):
                    break
            kept[i] = meet
        return kept[i]

    def step(self, touched: list[int], spent: int, revised: Iterable[int]) -> None:
        """Follow a step that lowered the residuals of touched by spent in
        all (res and mult hold the new ones) and may have changed the
        capacity of revised: merge the components of touched, and drop what
        _feasible could now read differently. That is:

        (a) masks and words within three links of a node the step completed,
        along paths through incomplete nodes, as _feasible at i reads whether
        a node is complete only at i, its neighbors, and the neighbors of its
        incomplete neighbors and of theirs; the masks read nothing else;
        (b) words at touched and revised nodes, and at each neighbor c of a
        touched q with res[q] <= k - mult[e(c, q)]: elsewhere c's slot toward
        q holds at most k - mult < res[q], so no word at c fills it, and c
        reads q's residual only as non-zero;
        (c) words at each c whose closed neighborhood holds every incomplete
        member of the merged component K, with T <= 2 res(c) for T the
        residual sum of K. A word seals only if it fills each neighbor it
        uses and the sums it merges add up to 2 res(c), so only there can one
        newly seal K. Outside (b) such a word uses no touched node, and each
        part of K held a touched node, incomplete before the step, so no
        word sealed a part of K then either.
        """
        res, links, kept, masks, mult, k = self.res, self.links, self.kept, self.masks, self.mult, self.k
        total = sum(self.sums.pop(j) for j in {self.label[c] for c in touched}) - spent
        for c in touched:
            keep = self.union(touched[0], c)
        self.sums[keep] = total
        members = self.members[keep]
        # Starved nodes are not looked for: one has no capacity left, so the
        # engine's over-capacity check reports it before any word test runs.
        if not total and len(members) < len(self.label):
            self.dead = True
        if not kept and not masks:
            return
        ball = frontier = {c for c in touched if not res[c]}
        for _ in range(3 if ball else 0):
            frontier = {q for c in frontier for _, q, _ in links[c]} - ball
            ball |= frontier
            frontier = [c for c in frontier if res[c]]
        for c in ball:
            masks.pop(c, None)
        drop = ball.union(touched, revised)
        drop.update(c for q in touched for _, c, e in links[q] if res[q] <= k - mult[e])
        incomplete = [c for c in members if res[c]]
        for c in [incomplete[0]] + [q for _, q, _ in links[incomplete[0]]] if incomplete else ():
            if 2 * res[c] >= total and {c}.union(q for _, q, _ in links[c]).issuperset(incomplete):
                drop.add(c)
        for c in drop:
            kept.pop(c, None)


def _feasible(ctx: _Context, i: int, caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The feasible words of node id i, as counts in enumerate_phi_k order,
    given the context of the state (not dead) and i's capacity per
    direction.

    See enumerate_feasible for the argument. A word completes i and lowers
    the residuals of the neighbors it uses, and of no other node. Two
    neighbors of one node never neighbor each other: two in opposite
    directions have that node between them, and two in perpendicular ones
    share no row or column. So a word can starve only i's incomplete
    neighbors (through i) and the incomplete nodes two links away (through
    the neighbors it completes), and whether such a node's other neighbors
    are completed does not depend on the word. That part is read once and
    kept in the context as slot masks (bit s for slot s): need, the lonely
    slots, and cuts, the slots of each node two links away whose incomplete
    neighbors all neighbor i. A word is then judged by two masks: full, the
    slots s where it sends left[s], the residual of the neighbor there (-1
    if none), and nz, the slots it uses. It starves a node unless full
    covers need and holds no whole cut.

    It seals a component only if full == nz: the component it forms holds i
    and each neighbor it uses, once, so its residual sum is at least res(i)
    plus those neighbors' residuals, which add up to at least res(i), the
    connections the word sends them. A seal needs the sum to be 2 * res(i),
    so each neighbor used must get its whole residual. Only such a word
    reads the labels and sums of components.
    """
    residual, label, members, sums, links = ctx.res, ctx.label, ctx.members, ctx.sums, ctx.links
    res, total = residual[i], len(residual)
    left, lab = [-1, -1, -1, -1], [None] * 4
    for s, q, _ in links[i]:
        if residual[q]:
            left[s], lab[s] = residual[q], label[q]
    if i not in ctx.masks:
        need, cuts, slot = 0, [], {q: s for s, q, _ in links[i] if residual[q]}
        for q, s in slot.items():
            need |= 1 << s  # until q shows another incomplete neighbor p
            for _, p, _ in links[q]:
                if p != i and residual[p]:
                    need &= ~(1 << s)
                    cut = 0
                    for _, c, _ in links[p]:
                        if residual[c]:
                            if c not in slot:
                                break
                            cut |= 1 << slot[c]
                    else:
                        cuts.append(cut)
        ctx.masks[i] = need, cuts
    need, cuts = ctx.masks[i]

    # Capacity toward a direction is at most k, so only words within caps
    # are generated; there are none when res > 4k. A word uses only the
    # incomplete neighbors, as caps is 0 toward the others.
    l0, l1, l2, l3 = left
    own = label[i]
    for counts in _spread(res, caps):
        t, r, b, l = counts
        full = (t == l0) | (r == l1) << 1 | (b == l2) << 2 | (l == l3) << 3
        if full & need != need:
            continue
        for cut in cuts:
            if full & cut == cut:
                break
        else:
            if full == (t > 0) | (r > 0) << 1 | (b > 0) << 2 | (l > 0) << 3:
                merged, held, size = [own], sums[own], len(members[own])
                for j, c in zip(lab, counts):
                    if c and j not in merged:
                        merged.append(j)
                        held += sums[j]
                        size += len(members[j])
                if held == 2 * res and size < total:
                    continue
            yield counts


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

    The state-wide part (components, their sums and sizes, and the verdict)
    is read once per call into a context, and the per-word part reads it;
    the propagation engine keeps one context across its steps instead.

    An empty result is meaningful: the state admits no completion of p.
    """
    ctx, i = _context_at(state, p)
    words = [] if ctx.dead else _feasible(ctx, i, state._capacity(i))
    return WordSet(tuple([ConfigWord(*w) for w in words]))


def omega_star(state: PuzzleState, p: Node) -> Optional[ConfigWord]:
    """Connections guaranteed to appear in every feasible completion of p:
    the componentwise minimum over the feasible words.

    Returns the zero word when feasible words exist but share nothing, and
    None when no feasible word exists at all -- the state cannot be extended
    to complete p, so no solution extends this state.
    """
    ctx, i = _context_at(state, p)
    w = None if ctx.dead else ctx.word(i, state._capacity(i))
    return None if w is None else ConfigWord(*w)


def _context_at(state: PuzzleState, p: Node) -> tuple[_Context, int]:
    """A fresh context of state, and p's node id; p must be incomplete."""
    if state.residual(p) < 1:
        raise ValueError(f"node at {p.coord} is already complete")
    return _Context(state.grid, state._mult, state._res), state.grid._index[p.coord]
