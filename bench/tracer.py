"""In-memory span tracer that wraps gridlink's public functions from outside.

The tracer patches module-level names in every loaded ``gridlink`` module
(so ``from .x import f`` copies are caught too), the two cached topology
properties of ``NumberedGrid``, and adds a call counter to
``NumberedGrid.neighbor``. Each wrapped call records a span (id, parent id,
name, start, end); spans stay in memory until the run writes them out.
Nothing in the package itself is changed on disk.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import cached_property
from typing import Optional

# Wrapped function -> layer. The span name is "<layer>.<function>".
TRACED = {
    "core": ("is_solved",),
    "words": ("enumerate_feasible", "omega_star"),
    "screens": ("screen",),
    "tau": ("run_tau", "apply_builder"),
    "oracle": ("generate", "enumerate_solutions", "find_stall_witness"),
    "formats": ("parse_puzzle", "serialize_puzzle"),
}
TOPOLOGY = ("all_edges", "crossing_conflicts")
LAYERS = ("core", "words", "screens", "tau", "oracle", "formats", "cli")


class Tracer:
    """Spans and counters for one traced pass. install() patches gridlink and
    uninstall() restores it; counts accumulate across installs."""

    def __init__(self, gl) -> None:
        self.gl = gl
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.steps: Counter = Counter()
        self.errors: Counter = Counter()
        self.neighbor_calls = 0
        self.run_tau_solved = 0
        self.feasible_survivors = 0
        self.feasible_candidates = 0
        self.screen_rejects = 0
        self._next_id = 1
        self._seen_errors: list[BaseException] = []
        self._patches: list[tuple[object, str, object]] = []
        self._phi_sizes: dict[tuple[int, int], int] = {}

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "gridlink" or n.startswith("gridlink.")]
        after = {
            "run_tau": self._after_run_tau,
            "enumerate_feasible": self._after_feasible,
            "screen": self._after_screen,
        }
        for layer, names in TRACED.items():
            module = getattr(self.gl, layer)
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", layer, original, after.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

        grid_cls = self.gl.core.NumberedGrid
        for name in TOPOLOGY:
            prop = grid_cls.__dict__[name]
            wrapped = cached_property(self._wrap(f"core.{name}", "core", prop.func, None))
            wrapped.__set_name__(grid_cls, name)
            self._patch(grid_cls, name, wrapped)

        neighbor = grid_cls.neighbor
        tracer = self

        def counted_neighbor(grid, p, d):
            tracer.neighbor_calls += 1
            return neighbor(grid, p, d)

        self._patch(grid_cls, "neighbor", counted_neighbor)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, span_name: str, layer: str, func, after):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer.stack[-1] if tracer.stack else 0
            tracer.stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                tracer.error(layer, exc)
                raise
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, span_name, start, end))
                tracer.calls[span_name] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters read from the wrapped calls' arguments and results ------

    def error(self, layer: str, exc: BaseException) -> None:
        """Count an exception once, against the innermost layer that raised it."""
        if any(seen is exc for seen in self._seen_errors):
            return
        self._seen_errors.append(exc)
        self.errors[layer] += 1

    def _after_run_tau(self, args, outcome) -> None:
        for step in outcome.trace:
            self.steps[step.rule.value.split("_", 1)[0]] += 1
        if outcome.status is self.gl.TauStatus.SOLVED:
            self.run_tau_solved += 1

    def _after_feasible(self, args, words) -> None:
        state, p = args[0], args[1]
        res, k = state.residual(p), state.grid.k
        key = (res, k)
        if key not in self._phi_sizes:
            ok = 1 <= res <= 4 * k
            self._phi_sizes[key] = len(self.gl.words.enumerate_phi_k(res, k)) if ok else 0
        self.feasible_candidates += self._phi_sizes[key]
        self.feasible_survivors += len(words)

    def _after_screen(self, args, report) -> None:
        if report.unsolvable:
            self.screen_rejects += 1

    # -- results ------------------------------------------------------------

    def signature(self) -> tuple:
        """Counter state; the difference of two signatures is one operation's work."""
        return (self.neighbor_calls, Counter(self.calls), Counter(self.steps))

    @staticmethod
    def delta(before: tuple, after: tuple) -> tuple:
        return (
            after[0] - before[0],
            tuple(sorted((after[1] - before[1]).items())),
            tuple(sorted((after[2] - before[2]).items())),
        )

    def check_nesting(self) -> Optional[str]:
        """None when every span lies inside its parent and no span is open."""
        if self.stack:
            return f"{len(self.stack)} spans still open"
        by_id = {s[0]: s for s in self.spans}
        if len(by_id) != len(self.spans):
            return "duplicate span ids"
        children_ns: Counter = Counter()
        for sid, parent, name, start, end in self.spans:
            if end < start:
                return f"span {sid} ({name}) ends before it starts"
            p = by_id.get(parent) if parent else None
            if parent and p is None:
                return f"span {sid} ({name}) has unknown parent {parent}"
            if p is not None and not (p[3] <= start and end <= p[4]):
                return f"span {sid} ({name}) is not inside its parent {p[2]}"
            children_ns[parent] += end - start
        for sid, _, name, start, end in self.spans:
            if children_ns[sid] > end - start:
                return f"children of span {sid} ({name}) overlap"
        return None

    def durations_ns(self) -> tuple[Counter, Counter]:
        """Total and self duration per span name; self time excludes children."""
        children_ns: Counter = Counter()
        for _, parent, _, start, end in self.spans:
            if parent:
                children_ns[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        for sid, _, name, start, end in self.spans:
            total[name] += end - start
            own[name] += end - start - children_ns[sid]
        return total, own

    def nested(self, child: str, parent: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        names = {s[0]: s[2] for s in self.spans}
        return sum(1 for s in self.spans if s[2] == child and names.get(s[1]) == parent)

    def dump(self) -> list[list]:
        base = min((s[3] for s in self.spans), default=0)
        return [[sid, parent, name, start - base, end - base] for sid, parent, name, start, end in self.spans]
