"""Command-line surface.

Subcommands: screen, tau, solve, enumerate, verify, count-table, min-k, gen,
render.

Each subcommand builds one report and its text form; `main` prints the
report under `--json` and the text otherwise, and takes the exit code from
the report's status through the one table `_EXIT_CODES`: 0 solved/verified/ok,
2 proven unsolvable or claim proven wrong, 3 stalled/unknown/out of reach.
Usage and parse errors exit 1 before any report is built. The distinction
between 2 and 3 matters: the propagation engine failing to finish leaves
solvability open, while a screen violation or an exhausted search settles it.

`--json` reports carry the stable fields status, connections, trace, and
violations, and are byte-deterministic for a fixed input. tau and solve
build the trace, which reads every step's state digest, only under --json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core import GridError, PuzzleState
from .formats import (
    ParseError,
    count_table,
    parse_puzzle,
    parse_solution,
    render_board,
    serialize_puzzle,
    serialize_solution,
    verify_solution,
)
from .oracle import (
    GenerationFailure,
    GenMode,
    GenSpec,
    enumerate_solutions,
    generate,
    min_solvable_k,
)
from .screens import ScreenReport, screen
from .tau import TauOutcome, TauStatus, run_tau

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSOLVABLE = 2
EXIT_UNKNOWN = 3

# The exit code of every report status.
_EXIT_CODES = {
    "solved": EXIT_OK,
    "verified": EXIT_OK,
    "ok": EXIT_OK,
    "maybe_solvable": EXIT_OK,
    "unsolvable": EXIT_UNSOLVABLE,
    "rejected": EXIT_UNSOLVABLE,
    "stalled": EXIT_UNKNOWN,
    "unknown": EXIT_UNKNOWN,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep usage problems on exit code 1
        raise UsageError(message)


def _edge_record(e, m) -> list[int]:
    return [e.a.x, e.a.y, e.b.x, e.b.y, m]


def _connections_json(items) -> list[list[int]]:
    return [_edge_record(e, m) for e, m in items]


def _violations_json(report: Optional[ScreenReport]) -> list[dict]:
    if report is None:
        return []
    return [
        {
            "condition": v.condition,
            "witness": None if v.witness is None else [v.witness.x, v.witness.y],
            "message": v.message,
        }
        for v in report.violations
    ]


def _trace_json(outcome: TauOutcome) -> list[dict]:
    return [
        {
            "rule": step.rule.value,
            "node": [step.node.x, step.node.y],
            "word": list(step.word.counts),
            "edges": [_edge_record(e, m) for e, m in step.edges],
            "digest": step.state_digest,
        }
        for step in outcome.trace
    ]


def _report(status: str, connections=(), trace=(), violations=(), **extra) -> dict:
    report = {
        "status": status,
        "connections": list(connections),
        "trace": list(trace),
        "violations": list(violations),
    }
    report.update(extra)
    return report


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8-sig")  # skips a leading byte-order mark


def _cmd_screen(args) -> tuple[dict, str]:
    report = screen(parse_puzzle(_read(args.puzzle)))
    text = f"verdict: {report.verdict.value}\n"
    for v in report.violations:
        where = "grid" if v.witness is None else str(v.witness)
        text += f"  condition {v.condition} at {where}: {v.message}\n"
    return _report(report.verdict.value, violations=_violations_json(report)), text


def _cmd_tau(args) -> tuple[dict, str]:
    outcome = run_tau(parse_puzzle(_read(args.puzzle)))
    text = f"status: {outcome.status.value}\n"
    if outcome.reason:
        text += f"reason: {outcome.reason}\n"
    if args.trace:
        for i, step in enumerate(outcome.trace, start=1):
            edges = ", ".join(f"{e}x{m}" for e, m in step.edges)
            text += f"  step {i}: {step.rule.value} at {step.node} word {step.word} -> {edges}\n"
    if outcome.status is TauStatus.SOLVED:
        text += serialize_solution(outcome.final_state.connections())
    report = _report(
        outcome.status.value,
        connections=_connections_json(outcome.final_state.sorted_items()),
        trace=_trace_json(outcome) if args.json else [],
        violations=_violations_json(outcome.screen_report),
        reason=outcome.reason,
    )
    return report, text


def _cmd_solve(args) -> tuple[dict, str]:
    grid = parse_puzzle(_read(args.puzzle))
    outcome = None if args.method == "brute" else run_tau(grid)
    # The engine's verdict stands unless it stalled and brute force may follow.
    if outcome and (args.method == "tau" or outcome.status is not TauStatus.STALLED):
        engine, status, trace = "tau", outcome.status.value, _trace_json(outcome) if args.json else []
        connections = outcome.final_state.sorted_items() if status == "solved" else ()
    else:
        solutions = enumerate_solutions(grid, limit=args.limit).solutions
        engine, status, trace = "brute", "solved" if solutions else "unsolvable", []
        connections = tuple(solutions[0].items()) if solutions else ()
    text = f"# engine {engine}\n# status {status}\n"
    if connections:
        text += serialize_solution(dict(connections))
    report = _report(
        status,
        connections=_connections_json(connections),
        trace=trace,
        violations=_violations_json(outcome.screen_report if outcome else None),
        engine=engine,
    )
    return report, text


def _cmd_enumerate(args) -> tuple[dict, str]:
    sols = enumerate_solutions(parse_puzzle(_read(args.puzzle)), limit=args.limit)
    found = [_connections_json(s.items()) for s in sols.solutions]
    text = f"# solutions {len(found)} exhausted {str(sols.exhausted).lower()}\n"
    for i, s in enumerate(sols.solutions, start=1):
        text += f"# solution {i}\n" + serialize_solution(s)
    report = _report(
        "ok" if found else "unsolvable",
        connections=found[0] if found else [],
        solutions=found,
        count=len(found),
        exhausted=sols.exhausted,
    )
    return report, text


def _cmd_verify(args) -> tuple[dict, str]:
    grid = parse_puzzle(_read(args.puzzle))
    records = parse_solution(_read(args.solution))
    check = verify_solution(grid, records)
    status = "verified" if check.ok else "rejected"
    text = "verified\n" if check.ok else f"rejected: {check.reason}\n"
    return _report(status, connections=_connections_json(records), reason=check.reason), text


def _cmd_count_table(args) -> tuple[dict, str]:
    return _report("ok"), count_table(args.neighbors, args.k_max, csv=args.csv)


def _cmd_min_k(args) -> tuple[dict, str]:
    k = min_solvable_k(parse_puzzle(_read(args.puzzle)), args.k_max)
    if k is None:
        text = f"not solvable for any k <= {args.k_max}\n"
    else:
        text = f"min solvable k: {k}\n"
    return _report("ok" if k is not None else "unknown", min_k=k, k_max=args.k_max), text


def _cmd_gen(args) -> tuple[dict, str]:
    spec = GenSpec(
        seed=args.seed,
        width=args.width,
        height=args.height,
        node_density=args.density,
        k=args.k,
        mode=GenMode.SOLVABLE_BY_CONSTRUCTION if args.solvable else GenMode.RANDOM,
    )
    return _report("ok"), serialize_puzzle(generate(spec))


def _cmd_render(args) -> tuple[dict, str]:
    grid = parse_puzzle(_read(args.puzzle))
    if args.solution:
        state = PuzzleState(grid, dict(parse_solution(_read(args.solution))))
    else:
        state = PuzzleState.empty(grid)
    return _report("ok"), render_board(state)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridlink", description="Numbered grid-link puzzle toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("screen", _cmd_screen, help="run the unsolvability screens")
    p.add_argument("puzzle")
    p.add_argument("--json", action="store_true")

    p = add("tau", _cmd_tau, help="run the propagation engine")
    p.add_argument("puzzle")
    p.add_argument("--trace", action="store_true", help="print each applied step")
    p.add_argument("--json", action="store_true")

    p = add("solve", _cmd_solve, help="solve via propagation and/or brute force")
    p.add_argument("puzzle")
    p.add_argument("--method", choices=["tau", "brute", "auto"], default="auto")
    p.add_argument("--limit", type=int, default=1, help="solution cap for the brute engine")
    p.add_argument("--json", action="store_true")

    p = add("enumerate", _cmd_enumerate, help="enumerate solutions exhaustively")
    p.add_argument("puzzle")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("verify", _cmd_verify, help="check a claimed solution")
    p.add_argument("puzzle")
    p.add_argument("solution")
    p.add_argument("--json", action="store_true")

    p = add("count-table", _cmd_count_table, help="print the configuration-count table")
    p.add_argument("--neighbors", type=int, required=True, choices=[1, 2, 3, 4])
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--csv", action="store_true")

    p = add("min-k", _cmd_min_k, help="smallest bound that makes the node set solvable")
    p.add_argument("puzzle")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("gen", _cmd_gen, help="generate a puzzle")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--solvable", action="store_true")

    p = add("render", _cmd_render, help="ASCII-art board, optionally with a solution")
    p.add_argument("puzzle")
    p.add_argument("--solution")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "limit", 1) < 1:  # solve and enumerate
            parser.error(f"argument --limit: must be >= 1, got {args.limit}")
        report, text = args.func(args)
        if getattr(args, "json", False):
            text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        print(text, end="")
    except (UsageError, ParseError, GenerationFailure, GridError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return _EXIT_CODES[report["status"]]


if __name__ == "__main__":
    sys.exit(main())
