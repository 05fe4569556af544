"""Fast syntactic unsolvability screens.

Each screen is a necessary condition for solvability, checked on the initial
grid with no connections: a violation proves the grid unsolvable, while a
clean report proves nothing. One known unsolvability mode is intentionally
absent here -- the case where every completion of some node seals off part of
the graph. That one is dynamic and surfaces when the guaranteed-connection
computation (omega_star) finds no feasible word.

Condition ids:
  1  node with no neighbors
  2  odd total magnitude
  3  neighbor magnitudes sum below the node's magnitude
  5  magnitude exceeds r*k for a node with r neighbors
  6  incompatible neighbor: magnitude (r-1)k + j with j in 2..k forces j
     connections to some neighbor, but a neighbor can take at most j-1
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import Coordinate, NumberedGrid


class ScreenVerdict(Enum):
    MAYBE_SOLVABLE = "maybe_solvable"
    UNSOLVABLE = "unsolvable"


@dataclass(frozen=True)
class Violation:
    condition: int
    witness: Optional[Coordinate]  # None marks the grid-level condition 2
    message: str


@dataclass(frozen=True)
class ScreenReport:
    verdict: ScreenVerdict
    violations: tuple[Violation, ...]

    @property
    def unsolvable(self) -> bool:
        return self.verdict is ScreenVerdict.UNSOLVABLE


def screen(grid: NumberedGrid) -> ScreenReport:
    """Run every screen and collect all violations.

    The grid-level parity check comes first, then per-node checks in
    row-major order with ascending condition ids, so reports are stable.
    """
    violations: list[Violation] = []
    k = grid.k
    nodes = grid.nodes
    mags = [p.magnitude for p in nodes]

    total = sum(mags)
    if total % 2 == 1:
        violations.append(
            Violation(2, None, f"total magnitude {total} is odd, connections always add 2")
        )

    for p, m, links in zip(nodes, mags, grid._links):
        r = len(links)
        if r == 0:
            violations.append(Violation(1, p.coord, f"node at {p.coord} has no neighbors"))
            continue
        nbr_sum = 0
        for _, q, _ in links:  # a plain loop: no comprehension frame per node
            nbr_sum += mags[q]
        if nbr_sum < m:
            violations.append(
                Violation(3, p.coord, f"node at {p.coord} needs {m} but neighbors only hold {nbr_sum}")
            )
        if m > r * k:
            violations.append(
                Violation(5, p.coord, f"node at {p.coord} has magnitude {m} > r*k = {r}*{k}")
            )
        j = m - (r - 1) * k
        if 2 <= j <= k:
            # The first offending neighbor in row-major order, i.e. by node id.
            q = min([q for _, q, _ in links if mags[q] <= j - 1], default=None)
            if q is not None:
                violations.append(
                    Violation(
                        6,
                        p.coord,
                        f"node at {p.coord} (magnitude {(r - 1)}*{k}+{j}) needs at "
                        f"least {j} connections with every neighbor, but the one at "
                        f"{nodes[q].coord} can take at most {mags[q]}",
                    )
                )

    verdict = ScreenVerdict.UNSOLVABLE if violations else ScreenVerdict.MAYBE_SOLVABLE
    return ScreenReport(verdict, tuple(violations))
