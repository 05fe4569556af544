"""Command-line surface.

Subcommands: screen, tau, solve, enumerate, verify, count-table, min-k, gen.

Exit codes: 0 solved/verified/ok, 2 proven unsolvable or claim proven wrong,
3 stalled/unknown/out of reach, 1 usage or parse errors. The distinction
between 2 and 3 matters: the propagation engine failing to finish leaves
solvability open, while a screen violation or an exhausted search settles it.

`--json` reports carry the stable fields status, connections, trace, and
violations, and are byte-deterministic for a fixed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core import GridError, NumberedGrid, PuzzleState
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


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))


def _load_puzzle(path: str) -> NumberedGrid:
    return parse_puzzle(Path(path).read_text(encoding="utf-8"))


def _cmd_screen(args) -> int:
    grid = _load_puzzle(args.puzzle)
    report = screen(grid)
    if args.json:
        _emit(_report(report.verdict.value, violations=_violations_json(report)))
    else:
        print(f"verdict: {report.verdict.value}")
        for v in report.violations:
            where = "grid" if v.witness is None else str(v.witness)
            print(f"  condition {v.condition} at {where}: {v.message}")
    return EXIT_UNSOLVABLE if report.unsolvable else EXIT_OK


def _tau_exit(outcome: TauOutcome) -> int:
    if outcome.status is TauStatus.SOLVED:
        return EXIT_OK
    if outcome.status is TauStatus.UNSOLVABLE:
        return EXIT_UNSOLVABLE
    return EXIT_UNKNOWN


def _print_tau_text(outcome: TauOutcome, show_trace: bool) -> None:
    print(f"status: {outcome.status.value}")
    if outcome.reason:
        print(f"reason: {outcome.reason}")
    if show_trace:
        for i, step in enumerate(outcome.trace, start=1):
            edges = ", ".join(f"{e}x{m}" for e, m in step.edges)
            print(f"  step {i}: {step.rule.value} at {step.node} word {step.word} -> {edges}")
    if outcome.status is TauStatus.SOLVED:
        print(serialize_solution(outcome.final_state.connections()), end="")


def _cmd_tau(args) -> int:
    grid = _load_puzzle(args.puzzle)
    outcome = run_tau(grid)
    if args.json:
        _emit(
            _report(
                outcome.status.value,
                connections=_connections_json(outcome.final_state.sorted_items()),
                trace=_trace_json(outcome),
                violations=_violations_json(outcome.screen_report),
                reason=outcome.reason,
            )
        )
    else:
        _print_tau_text(outcome, args.trace)
    return _tau_exit(outcome)


def _cmd_solve(args) -> int:
    grid = _load_puzzle(args.puzzle)
    method = args.method
    engine = None
    connections = None
    status = None
    outcome = None

    if method in ("tau", "auto"):
        outcome = run_tau(grid)
        if outcome.status is TauStatus.SOLVED:
            engine, status = "tau", "solved"
            connections = outcome.final_state.sorted_items()
        elif outcome.status is TauStatus.UNSOLVABLE:
            engine, status = "tau", "unsolvable"
        elif method == "tau":
            engine, status = "tau", "stalled"

    if status is None and method in ("brute", "auto"):
        sols = enumerate_solutions(grid, limit=args.limit)
        engine = "brute"
        if sols.solutions:
            status = "solved"
            connections = tuple(sols.solutions[0].items())
        else:
            status = "unsolvable"

    if args.json:
        _emit(
            _report(
                status,
                connections=_connections_json(connections) if connections else [],
                trace=_trace_json(outcome) if outcome and engine == "tau" else [],
                violations=_violations_json(outcome.screen_report if outcome else None),
                engine=engine,
            )
        )
    else:
        print(f"# engine {engine}")
        print(f"# status {status}")
        if connections:
            print(serialize_solution(dict(connections)), end="")
    if status == "solved":
        return EXIT_OK
    if status == "unsolvable":
        return EXIT_UNSOLVABLE
    return EXIT_UNKNOWN


def _cmd_enumerate(args) -> int:
    grid = _load_puzzle(args.puzzle)
    sols = enumerate_solutions(grid, limit=args.limit)
    if args.json:
        _emit(
            _report(
                "ok" if sols.solutions else "unsolvable",
                connections=_connections_json(sols.solutions[0].items()) if sols.solutions else [],
                solutions=[_connections_json(s.items()) for s in sols.solutions],
                count=len(sols.solutions),
                exhausted=sols.exhausted,
            )
        )
    else:
        print(f"# solutions {len(sols.solutions)} exhausted {str(sols.exhausted).lower()}")
        for i, s in enumerate(sols.solutions, start=1):
            print(f"# solution {i}")
            print(serialize_solution(s), end="")
    return EXIT_OK if sols.solutions else EXIT_UNSOLVABLE


def _cmd_verify(args) -> int:
    grid = _load_puzzle(args.puzzle)
    records = parse_solution(Path(args.solution).read_text(encoding="utf-8"))
    check = verify_solution(grid, records)
    if args.json:
        _emit(
            _report(
                "verified" if check.ok else "rejected",
                connections=_connections_json(records),
                reason=check.reason,
            )
        )
    else:
        print("verified" if check.ok else f"rejected: {check.reason}")
    return EXIT_OK if check.ok else EXIT_UNSOLVABLE


def _cmd_count_table(args) -> int:
    print(count_table(args.neighbors, args.k_max, csv=args.csv), end="")
    return EXIT_OK


def _cmd_min_k(args) -> int:
    grid = _load_puzzle(args.puzzle)
    k = min_solvable_k(grid, args.k_max)
    if args.json:
        _emit(_report("ok" if k is not None else "unknown", min_k=k, k_max=args.k_max))
    else:
        if k is not None:
            print(f"min solvable k: {k}")
        else:
            print(f"not solvable for any k <= {args.k_max}")
    return EXIT_OK if k is not None else EXIT_UNKNOWN


def _cmd_gen(args) -> int:
    spec = GenSpec(
        seed=args.seed,
        width=args.width,
        height=args.height,
        node_density=args.density,
        k=args.k,
        mode=GenMode.SOLVABLE_BY_CONSTRUCTION if args.solvable else GenMode.RANDOM,
    )
    grid = generate(spec)
    print(serialize_puzzle(grid), end="")
    return EXIT_OK


def _cmd_render(args) -> int:
    grid = _load_puzzle(args.puzzle)
    if args.solution:
        records = parse_solution(Path(args.solution).read_text(encoding="utf-8"))
        state = PuzzleState(grid, dict(records))
    else:
        state = PuzzleState.empty(grid)
    print(render_board(state), end="")
    return EXIT_OK


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
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ParseError, GenerationFailure, GridError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
