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
a positive edge crosses, each node's first firing check (over capacity,
then R1-R3), and the word test's context, which keeps each node's
omega_star as far as computed. One heap holds (check, node id) pairs,
pushed where _revise changes a node's check; the least pair that still
matches names the lowest node id where the first check in rule order
fires, and next_move reads its word off the node's capacity. R4 reads the
context's kept words.
A step re-examines only what it can change: the capacity and rules of the
nodes it connects, of their neighbors whose capacity toward them it cuts,
and of the ends of the edges crossing an edge it opens. It reports itself
to the context, which drops the kept words it may change
(words._Context.step says which), and returns what it drew: each edge id
with the connections added. run_tau builds the step's record from that
alone, like its word, unchecked, and keeps what each step drew in the
run's _Digests, which computes every step's state digest in one replay on
the first read of any. A run whose digests are never read hashes nothing
and never loads OpenSSL. The stall search (_stalls_at_start, used by
oracle.find_stall_witness) reads the same bookkeeping on the empty state,
so a change to a rule reaches both. It tests first what most often
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
from heapq import heappop, heappush
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


_LOCAL_RULES = (TauRule.R1_FULL_SATURATION, TauRule.R2_SINGLE_NEIGHBOR, TauRule.R3_ONE_INCOMPLETE_NEIGHBOR)


@dataclass(frozen=True)
class TauStep:
    """One applied propagation step. A step that run_tau built takes its
    state_digest from the run's _Digests at the first read; until then vars()
    shows the private _run in its place, while asdict, pickle and copy read it."""

    node: Coordinate
    rule: TauRule
    word: ConfigWord
    edges: tuple[tuple[EdgeKey, int], ...]  # connections created by this step
    state_digest: str

    def __getattr__(self, name: str) -> str:
        fields = self.__dict__
        run = fields.get("_run") if name == "state_digest" else None
        if run is not None:  # the digest goes in before _run goes, so a racing read finds one
            fields[name] = run[0][run[1]]
            fields.pop("_run", None)
        if name in fields:
            return fields[name]
        raise AttributeError(f"'TauStep' object has no attribute {name!r}")

    def __getstate__(self) -> dict:
        self.state_digest  # pickles and copies hold the digest, not the run
        return self.__dict__


def _step(node: Coordinate, rule: TauRule, word: ConfigWord, edges: tuple, run: tuple) -> TauStep:
    """TauStep(...) without its __init__, which checks nothing; run is (the run's _Digests, step index)."""
    t = object.__new__(TauStep)
    fields = t.__dict__  # as in words._word
    fields["node"], fields["rule"], fields["word"] = node, rule, word
    fields["edges"], fields["_run"] = edges, run
    return t


class _Digests:
    """One run_tau run's state digests, all computed on the first read from
    the grid and each step's (edge id, connections added) pairs, which it
    then drops. One sha256 takes the grid's prefix and each entry up to top,
    the highest connected edge id: a step that draws only past top, as each
    step of a chain does, feeds it just the entries that follow, and any
    other step restarts it from the prefix."""

    def __init__(self, grid: NumberedGrid, drawn: list) -> None:
        self.run = grid, drawn  # the hex digests once read: one attribute, so racing reads stay safe

    def __getitem__(self, at: int) -> str:
        run = self.run
        if isinstance(run, tuple):
            (grid, drawn), hexes = run, []
            all_edges, prefix = grid.all_edges, grid._digest_prefix
            mult, entries = [0] * len(all_edges), [""] * len(all_edges)  # "" while empty
            h, top = prefix.copy(), -1
            for step in drawn:
                lo, hi = len(entries), top
                for e, m in step:
                    mult[e] += m
                    entries[e] = _entry(all_edges[e], mult[e])
                    if e < lo:
                        lo = e
                    if e > hi:
                        hi = e
                if lo <= top:  # entries past hi are ""
                    h, top = prefix.copy(), -1
                h.update("".join(entries[top + 1 : hi + 1]).encode("ascii"))
                top = hi
                hexes.append(h.hexdigest()[:16])
            self.run = run = hexes
        return run[at]


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
    capacity per direction (None once the node is completed); check each
    node id's first firing check (0 over capacity, 1-3 for R1-R3, 4 for
    none or completed); firing a heap of (check, node id) pairs, one pushed
    each time a node's check changes to one below 4, so a pair whose check
    no longer matches is stale; blocked, per edge id, whether a positive
    edge crosses it; and ctx the word test's context, built when R4 first
    needs it, which keeps the omega_star words.
    """

    def __init__(self, state: PuzzleState, *, stop_at_fire: bool = False) -> None:
        grid = self.grid = state.grid
        self.links = grid._links
        self.mult, self.res = list(state._mult), list(state._res)
        self.caps: list[Optional[tuple[int, ...]]] = [None] * len(self.res)
        self.check = [4] * len(self.res)
        self.firing: list[tuple[int, int]] = []
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
            if stop_at_fire and self.firing:
                break

    @property
    def state(self) -> PuzzleState:
        return _state(self.grid, self.mult, self.res)

    def _revise(self, i: int) -> None:
        """Re-evaluate node id i's capacity and its first firing check: over
        capacity when its residual exceeds its capacity, R1 when it equals
        it, R2 when it has one neighbor, R3 when it has one incomplete
        neighbor."""
        res = self.res
        r = res[i]
        if not r:
            self.caps[i], self.check[i] = None, 4
            return
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
        c = 0 if r > room else 1 if r == room else 2 if len(links) == 1 else 3 if n_open == 1 else 4
        if c != self.check[i]:
            self.check[i] = c
            if c < 4:
                heappush(self.firing, (c, i))

    def next_move(self):
        """The next step as (node id, rule, word counts), or the verdict as
        (status, reason).

        The heap's stale pairs are popped first; the least pair left names
        the lowest node id with the least check. Check 0, over capacity,
        proves the state unsolvable; R1-R3 take the node's caps clipped at
        its residual r (R1's caps sum to r; R2's and R3's one slot with room
        holds at least r, as no node is over capacity); with no pair left,
        R4 decides.
        """
        firing, check = self.firing, self.check
        while firing and firing[0][0] != check[firing[0][1]]:
            heappop(firing)
        if firing:
            c, i = firing[0]
            r = self.res[i]
            if not c:
                return TauStatus.UNSOLVABLE, (
                    f"node at {self.grid.nodes[i].coord} needs {r} more connections but only "
                    f"{sum(self.caps[i])} remain available around it"
                )
            c0, c1, c2, c3 = self.caps[i]
            rule = _LOCAL_RULES[c - 1]
            return i, rule, (c0 if c0 < r else r, c1 if c1 < r else r, c2 if c2 < r else r, c3 if c3 < r else r)
        if not any(self.res):
            solved = is_solved(self.state)
            # All nodes completed by forced moves, yet not a solution: the
            # engine cannot certify unsolvability here, only fail to solve.
            return (TauStatus.SOLVED if solved else TauStatus.STALLED), solved.reason
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
        below k - mult on their edge; a node completed in an earlier step
        fires no check and is skipped. The step is then reported to the
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
    nodes, all_edges, drawn_by_step = grid.nodes, grid.all_edges, []
    digests = _Digests(grid, drawn_by_step)
    while True:
        move = engine.next_move()
        if isinstance(move[0], TauStatus):
            status, reason = move
            return TauOutcome(status, engine.state, tuple(trace), reason=reason, screen_report=report)
        i, rule, counts = move
        drawn = engine.apply(i, counts)
        drawn_by_step.append(drawn)
        edges = tuple([(all_edges[e], m) for e, m in drawn])
        trace.append(_step(nodes[i].coord, rule, _word(counts), edges, (digests, len(trace))))


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
    stalls = not engine.firing and all(w is not None and not any(w) for _, w in engine._words())
    return stalls and not screen(grid).unsolvable
