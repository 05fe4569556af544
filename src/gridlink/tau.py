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

R1-R3 are local: each reads one node and its remaining capacity, and they
live in one rule table, _LOCAL_RULES, next to the over-capacity check that
proves a node dead. The step function _next_move walks that table; run_tau
loops over it; and the stall search (_stalls_at_start, used by
oracle.find_stall_witness) walks the same table node by node, so a change
to a rule reaches both.

Every applied step strictly decreases the total residual, so the loop
terminates: solved, stalled (no guaranteed connection anywhere), or proven
unsolvable. When the engine finishes a grid, the solution it built is the
only one -- each step only ever drew connections present in every solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import (
    Coordinate,
    Direction,
    EdgeKey,
    Node,
    NumberedGrid,
    PuzzleState,
    is_solved,
)
from .screens import ScreenReport, screen
from .words import ConfigWord, omega_star


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


@dataclass(frozen=True)
class TauOutcome:
    status: TauStatus
    final_state: PuzzleState
    trace: tuple[TauStep, ...]
    reason: Optional[str] = None
    screen_report: Optional[ScreenReport] = None

    @property
    def solved(self) -> bool:
        return self.status is TauStatus.SOLVED


def apply_builder(state: PuzzleState, p: Node, word: ConfigWord) -> PuzzleState:
    """Apply a configuration word at p, returning the new state.

    Each positive direction count becomes that many extra connections between
    p and the neighbor in that direction; residuals drop on both sides. The
    zero word is the identity. Capacity, residual, and crossing violations
    propagate from the underlying connection bookkeeping.
    """
    for e, c in _word_edges(state.grid, p, word):
        state = state.add_connections(e, c)
    return state


def _word_edges(grid: NumberedGrid, p: Node, word: ConfigWord) -> tuple[tuple[EdgeKey, int], ...]:
    out = []
    for d, link, c in zip(Direction, grid._links[grid._index[p.coord]], word.counts):
        if c > 0:
            if link is None:
                raise ValueError(f"word sends {c} connections {d.name}, but {p.coord} has no neighbor there")
            out.append((grid.all_edges[link[1]], c))
    return tuple(out)


def _toward(d: Direction, m: int) -> ConfigWord:
    return ConfigWord.from_counts(m if e is d else 0 for e in Direction)


# The local rules read node id i and its capacity per direction (caps, in
# Direction order) and return the word they force at i, or None otherwise.

def _overdrawn(state: PuzzleState, i: int, caps: tuple[int, ...]) -> bool:
    """Node i needs more than its surroundings can still hold: no word exists."""
    return state._res[i] > sum(caps)


def _saturate(state: PuzzleState, i: int, caps: tuple[int, ...]) -> Optional[ConfigWord]:
    if state._res[i] != sum(caps):
        return None
    return ConfigWord.from_counts(caps)


def _single_neighbor(state: PuzzleState, i: int, caps: tuple[int, ...]) -> Optional[ConfigWord]:
    dirs = [d for d, link in zip(Direction, state.grid._links[i]) if link]
    return _toward(dirs[0], state._res[i]) if len(dirs) == 1 else None


# Read after _single_neighbor, which claims the nodes with one neighbor.
def _one_open_neighbor(state: PuzzleState, i: int, caps: tuple[int, ...]) -> Optional[ConfigWord]:
    dirs = [d for d, link in zip(Direction, state.grid._links[i]) if link and state._res[link[0]]]
    return _toward(dirs[0], state._res[i]) if len(dirs) == 1 else None


_LOCAL_RULES = (
    (TauRule.R1_FULL_SATURATION, _saturate),
    (TauRule.R2_SINGLE_NEIGHBOR, _single_neighbor),
    (TauRule.R3_ONE_INCOMPLETE_NEIGHBOR, _one_open_neighbor),
)


def _next_move(state: PuzzleState):
    """The engine's next step as (node, rule, word), or its verdict as
    (status, reason).

    The over-capacity check runs over every incomplete node first, then each
    local rule in table order across the incomplete nodes in row-major
    order, then R4.
    """
    grid = state.grid
    incomplete = [i for i, r in enumerate(state._res) if r > 0]
    if not incomplete:
        check = is_solved(state)
        # All nodes completed by forced moves, yet not a solution: the
        # engine cannot certify unsolvability here, only fail to solve.
        return (TauStatus.SOLVED if check else TauStatus.STALLED), check.reason

    caps = {i: state._capacity(i) for i in incomplete}
    for i in incomplete:
        if _overdrawn(state, i, caps[i]):
            return TauStatus.UNSOLVABLE, (
                f"node at {grid.nodes[i].coord} needs {state._res[i]} more connections but only "
                f"{sum(caps[i])} remain available around it"
            )
    for rule, forced in _LOCAL_RULES:
        for i in incomplete:
            word = forced(state, i, caps[i])
            if word is not None:
                return grid.nodes[i], rule, word

    candidates = []
    for i in incomplete:  # row-major, so i breaks ties by (y, x)
        w = omega_star(state, grid.nodes[i])
        if w is None:
            return TauStatus.UNSOLVABLE, f"node at {grid.nodes[i].coord} has no feasible configuration left"
        if not w.is_zero:
            r = 4 - grid._links[i].count(None)
            peak_distance = abs(state._res[i] - (r * grid.k) // 2)
            candidates.append((r, -peak_distance, i, w))
    if not candidates:
        return TauStatus.STALLED, "no incomplete node has any guaranteed connection"
    _, _, i, w = min(candidates)
    return grid.nodes[i], TauRule.R4_OMEGA_STAR, w


def run_tau(grid: NumberedGrid) -> TauOutcome:
    """Run the propagation loop to a fixpoint.

    The grid is screened first; a screen violation short-circuits to
    unsolvable. Afterwards each iteration applies the first move that
    _next_move finds, preferring R1 over R2 over R3 over R4. The outcome
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

    trace: list[TauStep] = []
    while True:
        move = _next_move(state)
        if isinstance(move[0], TauStatus):
            status, reason = move
            return TauOutcome(status, state, tuple(trace), reason=reason, screen_report=report)
        n, rule, word = move
        state = apply_builder(state, n, word)
        trace.append(TauStep(n.coord, rule, word, _word_edges(grid, n, word), state.digest()))


def _stalls_at_start(grid: NumberedGrid) -> bool:
    """True when run_tau stalls on the grid without drawing a connection.

    Walks the engine's rule table node by node on the empty state, so most
    grids are rejected by a screen or a local rule before any
    guaranteed-connection word has to be computed.
    """
    if screen(grid).unsolvable:
        return False
    state = PuzzleState.empty(grid)
    for i in range(len(grid.nodes)):
        caps = state._capacity(i)
        if _overdrawn(state, i, caps) or any(
            forced(state, i, caps) is not None for _, forced in _LOCAL_RULES
        ):
            return False
    for n in grid.nodes:
        w = omega_star(state, n)
        if w is None or not w.is_zero:
            return False
    return True
