"""Forced-connection propagation engine.

The engine repeatedly applies connections that must appear in every solution,
in a fixed rule priority:

  R1  a node whose residual equals its total remaining capacity: every
      remaining connection is forced (initially: magnitude = r*k);
  R2  a node with a single neighbor: all residual connections go there;
  R3  a node with a single incomplete neighbor: likewise;
  R4  the guaranteed-connection word (omega_star) of the most promising
      incomplete node, preferring few neighbors and residuals far from the
      configuration-count peak at floor(r*k/2).

R1-R3 are local: each reads one node, its neighbors' residuals and its
remaining capacity. _Engine._revise evaluates all three in one pass over
the capacity it computes, next to the over-capacity check that proves a
node dead. run_tau loops over the step function of an _Engine, which
steps its own multiplicity and residual vectors in place and carries its
bookkeeping from step to step: each incomplete node's capacity, the edges
a positive edge crosses, the ids of the nodes where the over-capacity
check and each rule fire, and the word test's context, which keeps each
node's omega_star as far as computed. The next move is the lowest node id
of the first non-empty table, in rule order, its word read off the node's
capacity, and R4 reads the context's kept words. R1's table can hold half
a long chain, so next_move scans it up from a bound under its lowest id,
which _revise lowers where it adds a node; R2's and R3's, which hold few,
take min().
A step re-examines only what it can change: the capacity and rules of the
nodes it connects, of their neighbors whose capacity toward them it cuts,
and of the ends of the edges crossing an edge it opens. It reports itself
to the context, which drops the kept words it may change
(words._Context.step says which), and returns what it drew: each edge id
with the connections added. run_tau builds the step's record from that
alone: it keeps each edge's digest entry and replaces only the drawn
edges'. One sha256 has taken the grid's prefix and the entries up to the
highest connected edge id; a step that draws only past that id, as each
step of a chain does, feeds it just the entries that follow, and any other
step hashes the joined entries from the prefix again. The TauStep is
built, like its word, unchecked. The stall search (_stalls_at_start, used
by oracle.find_stall_witness) reads the same bookkeeping on the empty
state, so a change to a rule reaches both. It tests first what most often
decides a candidate: the engine's first pass, stopped at the first node
where a check fires; then the same R4 pass, _Engine._words, stopped at the
first word that is not zero; and the screens last, which is safe as the
engine's checks raise nothing on any grid and a screen violation can only
turn the answer to False.

Every applied step strictly decreases the total residual, so the loop
terminates: solved, stalled (no guaranteed connection anywhere), or proven
unsolvable. When the engine finishes a grid, the solution it built is the
only one -- each step only ever drew connections present in every solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Optional

from .core import (
    Coordinate,
    Direction,
    EdgeKey,
    Node,
    NumberedGrid,
    PuzzleState,
    _entry,
    _state,
    is_solved,
)
from .screens import ScreenReport, screen
from .words import ConfigWord, _Context, _word


class TauRule(Enum):
    R1_FULL_SATURATION = "R1_FullSaturation"
    R2_SINGLE_NEIGHBOR = "R2_SingleNeighbor"
    R3_ONE_INCOMPLETE_NEIGHBOR = "R3_OneIncompleteNeighbor"
    R4_OMEGA_STAR = "R4_OmegaStar"


class TauStatus(Enum):
    SOLVED = "solved"
    STALLED = "stalled"
    UNSOLVABLE = "unsolvable"


@dataclass(frozen=True)
class TauStep:
    """One applied propagation step."""

    node: Coordinate
    rule: TauRule
    word: ConfigWord
    edges: tuple[tuple[EdgeKey, int], ...]  # connections created by this step
    state_digest: str


def _step(node: Coordinate, rule: TauRule, word: ConfigWord, edges: tuple, state_digest: str) -> TauStep:
    """TauStep(node, rule, word, edges, state_digest) without its __init__; it has no check to skip."""
    t = object.__new__(TauStep)
    fields = t.__dict__  # as in words._word
    fields["node"], fields["rule"], fields["word"] = node, rule, word
    fields["edges"], fields["state_digest"] = edges, state_digest
    return t


@dataclass(frozen=True)
class TauOutcome:
    status: TauStatus
    final_state: PuzzleState
    trace: tuple[TauStep, ...]
    reason: Optional[str] = None
    screen_report: Optional[ScreenReport] = None


def apply_builder(state: PuzzleState, p: Node, word: ConfigWord) -> PuzzleState:
    """Apply a configuration word at p, returning the new state.

    Each positive direction count becomes that many extra connections between
    p and the neighbor in that direction; residuals drop on both sides. The
    zero word is the identity. Capacity, residual, and crossing violations
    propagate from the underlying connection bookkeeping.
    """
    grid, counts = state.grid, word.counts
    links = grid._links[grid._index[p.coord]]
    slots = {s for s, _, _ in links}
    for d, c in zip(Direction, counts):
        if c and d - 1 not in slots:
            raise ValueError(f"word sends {c} connections {d.name}, but {p.coord} has no neighbor there")
    for s, _, e in links:
        if counts[s]:
            state = state.add_connections(grid.all_edges[e], counts[s])
    return state


class _Engine:
    """The engine's working state and its bookkeeping, carried across steps.

    mult and res are the state's vectors, by edge id and node id, which
    apply steps in place. links is the grid's link table, each node id's
    existing links as (slot, neighbor id, edge id); caps each node id's
    capacity per direction (None once the node is completed); fires, per
    check (over-capacity, R1, R2, R3), the set of node ids where it fires
    (next_move builds the chosen node's word from its caps); low, a bound
    under the lowest id in R1's; blocked, per edge id, whether a positive
    edge crosses it; and ctx the word test's context, built when R4 first
    needs it, which keeps the omega_star words.
    """

    def __init__(self, state: PuzzleState, *, stop_at_fire: bool = False) -> None:
        grid = self.grid = state.grid
        self.links = grid._links
        self.mult, self.res = list(state._mult), list(state._res)
        self.caps: list[Optional[tuple[int, ...]]] = [None] * len(self.res)
        self.fires: list[set[int]] = [set(), set(), set(), set()]
        self.low = 0
        # A blocked edge is empty, as positive edges never cross; and
        # multiplicities only grow here, so an edge once blocked stays so.
        self.blocked = [False] * len(self.mult)
        for e in compress(range(len(self.mult)), self.mult):
            for c in grid._crossings[e]:
                self.blocked[c] = True
        self.ctx: Optional[_Context] = None
        # With stop_at_fire (the stall probe), the first pass ends at the first
        # node where a check fires, and the later nodes are left unset.
        for i in range(len(self.res)):
            self._revise(i)
            if stop_at_fire and any(self.fires):
                break

    @property
    def state(self) -> PuzzleState:
        return _state(self.grid, self.mult, self.res)

    def _revise(self, i: int) -> None:
        """Re-evaluate node id i's capacity, the over-capacity check and the
        local rules: R1 when its residual equals its capacity, R2 when it has
        one neighbor, R3 when it has one incomplete neighbor (R2 claims the
        nodes with one neighbor first)."""
        res = self.res
        r = res[i]
        if not r:
            self.caps[i] = None
            for table in self.fires:
                table.discard(i)
            return
        over, full, single, one_open = self.fires
        mult, blocked, k, links = self.mult, self.blocked, self.grid.k, self.links[i]
        caps = [0, 0, 0, 0]
        room = n_open = 0
        for s, q, e in links:
            rq = res[q]
            if rq:
                n_open += 1
                if not blocked[e]:
                    cap = k - mult[e]
                    caps[s] = cap = rq if rq < cap else cap
                    room += cap
        self.caps[i] = tuple(caps)
        if r > room:
            over.add(i)
        else:
            over.discard(i)
        if r == room:
            full.add(i)
            if i < self.low:
                self.low = i
        else:
            full.discard(i)
        if len(links) == 1:
            single.add(i)
        else:
            single.discard(i)
        if n_open == 1:
            one_open.add(i)
        else:
            one_open.discard(i)

    def next_move(self):
        """The next step as (node id, rule, word counts), or the verdict as
        (status, reason).

        The lowest node id where the over-capacity check fires proves the
        state unsolvable; else R4 decides, unless a local rule fires: then
        the lowest node id in the first non-empty table of R1-R3 takes its
        caps clipped at its residual r. R1's caps sum to r; R2's and R3's one
        slot with room holds at least r, as no node is over capacity.
        """
        over, full, single, one_open = self.fires
        if over:
            i = min(over)
            return TauStatus.UNSOLVABLE, (
                f"node at {self.grid.nodes[i].coord} needs {self.res[i]} more connections but only "
                f"{sum(self.caps[i])} remain available around it"
            )
        table = full or single or one_open
        if table:
            if table is full:
                i = self.low
                while i not in full:
                    i += 1
                self.low, rule = i, TauRule.R1_FULL_SATURATION
            elif table is single:
                i, rule = min(single), TauRule.R2_SINGLE_NEIGHBOR
            else:
                i, rule = min(one_open), TauRule.R3_ONE_INCOMPLETE_NEIGHBOR
            c0, c1, c2, c3 = self.caps[i]
            r = self.res[i]
            return i, rule, (c0 if c0 < r else r, c1 if c1 < r else r, c2 if c2 < r else r, c3 if c3 < r else r)
        if not any(self.res):
            check = is_solved(self.state)
            # All nodes completed by forced moves, yet not a solution: the
            # engine cannot certify unsolvability here, only fail to solve.
            return (TauStatus.SOLVED if check else TauStatus.STALLED), check.reason
        return self._omega_move()

    def _words(self):
        """The R4 pass: each incomplete node id with its omega_star counts,
        kept or computed on demand, in id order; once the context proves the
        state dead, (id, None) for the first incomplete node, and no more."""
        if self.ctx is None:
            self.ctx = _Context(self.grid, self.mult, self.res)
        ctx = self.ctx
        for i, caps in enumerate(self.caps):
            if caps is None:
                continue
            if ctx.dead:
                yield i, None
                return
            yield i, ctx.word(i, caps)

    def _omega_move(self):
        """R4: the omega_star word of the incomplete node with the least
        (neighbor count, -distance of its residual from floor(r*k/2), id);
        the first incomplete node without a feasible word proves the state
        unsolvable."""
        grid, best = self.grid, None
        for i, w in self._words():
            if w is None:
                return TauStatus.UNSOLVABLE, f"node at {grid.nodes[i].coord} has no feasible configuration left"
            if any(w):
                r = len(self.links[i])
                key = (r, -abs(self.res[i] - (r * grid.k) // 2), i)
                if best is None or key < best[0]:
                    best = key, w
        if best is None:
            return TauStatus.STALLED, "no incomplete node has any guaranteed connection"
        return best[0][2], TauRule.R4_OMEGA_STAR, best[1]

    def apply(self, i: int, counts: tuple[int, ...]) -> list[tuple[int, int]]:
        """Apply the word counts at node id i in place, re-examine what it
        changes, and return what it drew: (edge id, connections added) per
        used slot, in slot order, from which run_tau builds the step's record.

        The residual changes at i and the neighbors the word connects to
        (touched), and the edges crossing an edge the step opened become
        blocked. Capacity and the local rules read a node's residual, the
        residuals of its neighbors, and the multiplicities and blocked flags
        of its edges, so they are re-evaluated at touched nodes, the ends of
        the edges the step blocked, and each neighbor of a touched node q
        whose slot toward q the step cut: q completed, or its residual fell
        below k - mult on their edge; a node completed in an earlier step is
        in no check table and is skipped. The step is then reported to the
        context, if built.
        """
        mult, res, links, k = self.mult, self.res, self.links, self.grid.k
        crossings, ends, blocked = self.grid._crossings, self.grid._ends, self.blocked
        touched, opened, drawn = [i], [], []
        for s, q, e in links[i]:
            m = counts[s]
            if m:
                if not mult[e]:
                    opened.append(e)
                mult[e] += m
                res[i] -= m
                res[q] -= m
                touched.append(q)
                drawn.append((e, m))

        revise = set(touched)
        for q in touched:
            rq = res[q]
            for _, c, e in links[q]:
                if not rq or rq < k - mult[e]:
                    revise.add(c)
        for e in opened:
            for x in crossings[e]:
                blocked[x] = True
                revise.update(ends[x])
        for c in revise:
            if self.caps[c] is not None:  # else completed in an earlier step
                self._revise(c)
        if self.ctx is not None:
            self.ctx.step(touched, 2 * sum(counts), revise)
        return drawn


def run_tau(grid: NumberedGrid) -> TauOutcome:
    """Run the propagation loop to a fixpoint.

    The grid is screened first; a screen violation short-circuits to
    unsolvable. Afterwards each iteration applies the move the engine's
    next_move finds, preferring R1 over R2 over R3 over R4. The outcome
    status is exactly one of solved, stalled, or unsolvable; a stall means
    every incomplete node's guaranteed word is empty, which the caller can
    re-verify against the final state.
    """
    report = screen(grid)
    state = PuzzleState.empty(grid)
    if report.unsolvable:
        first = report.violations[0]
        return TauOutcome(
            TauStatus.UNSOLVABLE,
            state,
            (),
            reason=f"screen condition {first.condition}: {first.message}",
            screen_report=report,
        )

    engine = _Engine(state)
    trace: list[TauStep] = []
    nodes, mult = grid.nodes, engine.mult
    all_edges, entries = grid.all_edges, [""] * len(grid._ends)  # each edge's digest entry, "" while empty
    # h has taken the prefix and each entry up to top, the highest connected edge id.
    prefix = grid._digest_prefix
    h, top = prefix.copy(), -1
    while True:
        move = engine.next_move()
        if isinstance(move[0], TauStatus):
            status, reason = move
            return TauOutcome(status, engine.state, tuple(trace), reason=reason, screen_report=report)
        i, rule, counts = move
        edges = []
        lo, hi = len(entries), top
        for e, m in engine.apply(i, counts):
            key = all_edges[e]
            entries[e] = _entry(key, mult[e])
            edges.append((key, m))
            if e < lo:
                lo = e
            if e > hi:
                hi = e
        if lo > top:
            h.update("".join(entries[top + 1 : hi + 1]).encode("ascii"))
        else:  # entries past hi are ""
            h = prefix.copy()
            h.update("".join(entries).encode("ascii"))
        top = hi
        trace.append(_step(nodes[i].coord, rule, _word(counts), tuple(edges), h.hexdigest()[:16]))


def _stalls_at_start(grid: NumberedGrid) -> bool:
    """True when run_tau stalls on the grid without drawing a connection.

    Reads the engine's bookkeeping on the empty state, testing first what
    most often decides: the engine's first pass stops at the first node
    where the over-capacity check or a local rule fires; else the engine's
    R4 pass must give every node the zero word, and stops at the first node
    that has another or none; else the grid must pass the screens. Screening
    last is safe: on any grid the engine's checks raise nothing, and a
    screen violation can only turn the answer to False.
    """
    engine = _Engine(PuzzleState.empty(grid), stop_at_fire=True)
    stalls = not any(engine.fires) and all(w is not None and not any(w) for _, w in engine._words())
    return stalls and not screen(grid).unsolvable
