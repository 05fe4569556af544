"""Seeded benchmark for gridlink.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any directory holding ``src/gridlink`` and
``fixtures/``). With ``--trace 0`` the run sets up the workload several
times, then drives its operations in a closed loop with one client until S
seconds have passed and every input has run at least once, and reports the
end-to-end metrics, with every time scaled to a reference machine speed
(see ``REFERENCE_MS``). With ``--trace 1`` it makes one pass in which every input
runs untraced and then traced, re-runs the first fifth traced to check that
every count repeats, runs the CLI checks, and reports the per-layer metrics
and the tracing overhead. Every output is checked. Human-readable lines come
first; the last line of stdout is the JSON result. Details and the spans of
the traced pass are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPEATS = 7  # at least; cheap set-ups repeat for SETUP_MIN_S
SETUP_MIN_S = 2.0
# Typical median time of reference_kernel() on the host the benchmark was
# tuned on (Intel Xeon, 2 vCPUs at 2.1 GHz, Python 3.11.7). Every end-to-end
# time is scaled by REFERENCE_MS over the median of the kernel times taken
# just before it (see run_ops).
REFERENCE_MS = 0.7
PROBE_WINDOW = 8  # kernel times in the local median
WALL_LIMIT_S = 150  # stop timing early rather than overrun the 180 s budget
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# -- running operations ------------------------------------------------------


class PassResult:
    def __init__(self, n_ops: int) -> None:
        self.samples_ns: list[list[int]] = [[] for _ in range(n_ops)]
        self.scaled_ms: list[list[float]] = [[] for _ in range(n_ops)]
        self.runs = 0
        self.wrong = 0
        self.busy_ns = 0
        self.untraced_ns = 0
        self.signatures: list[tuple] = []
        self.failed_inputs: set[int] = set()
        self.failures: dict[str, int] = {}
        self.exceptions: dict[str, int] = {}  # layer -> exceptions raised

    @property
    def attempted(self) -> int:
        """Inputs run at least once; an input is one operation however often it repeats."""
        return min(self.runs, len(self.samples_ns))

    @property
    def failed(self) -> int:
        """Inputs that failed in any of their runs."""
        return len(self.failed_inputs)

    def fail(self, index: int, message: str) -> None:
        self.failed_inputs.add(index)
        self.failures[message] = self.failures.get(message, 0) + 1


def timed(op):
    t0 = time.perf_counter_ns()
    try:
        output = op.run()
    except Exception as exc:  # an operation failure is a measurement, not a crash
        return None, exc, time.perf_counter_ns() - t0
    return output, None, time.perf_counter_ns() - t0


def reference_kernel() -> int:
    """Fixed pure-Python work in gridlink's style: tuples, dict and set
    lookups on a small lattice, under a millisecond."""
    cells = {(x, y): (x * 7 + y * 3) % 5 for x in range(12) for y in range(12)}
    total = 0
    for _ in range(3):
        seen = set()
        for (x, y), v in cells.items():
            for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                w = cells.get((x + dx, y + dy))
                if w is not None and (x + dx, y + dy) not in seen:
                    total += v * w
            seen.add((x, y))
    return total


def run_ops(ops, deadline: float, until: float = 0.0, tracer=None, limit=None, probe=None) -> PassResult:
    """Run ops in order, cycling, until each has run once and the monotonic
    clock has reached `until` (or the hard deadline comes).

    With a probe list, the reference kernel runs twice in a row every 50 ms,
    its times go to the list, and each op time is also recorded scaled to
    reference speed by the median of the latest PROBE_WINDOW kernel times.

    With a tracer, each op runs twice in a row, untraced and then traced, so
    that the tracing overhead compares runs made at the same machine speed;
    the traced run is the one checked and recorded."""
    n = len(ops) if limit is None else limit
    result = PassResult(n)
    i = 0
    last_probe = 0.0
    local = 1.0
    while time.monotonic() < deadline and (i < n or time.monotonic() < until):
        if probe is not None and time.monotonic() - last_probe >= 0.05:
            for _ in range(2):
                t0 = time.perf_counter_ns()
                reference_kernel()
                probe.append(time.perf_counter_ns() - t0)
            last_probe = time.monotonic()
            local = statistics.median(probe[-PROBE_WINDOW:]) / 1e6
        op = ops[i % n]
        if tracer:
            result.untraced_ns += timed(op)[2]
            tracer.install()
            before = tracer.signature()
        output, error, dt = timed(op)
        if tracer:
            tracer.uninstall()
            if error is not None:
                tracer.error(op.layer, error)
            delta = tracer.delta(before, tracer.signature())
            result.signatures.append(delta + (type(error).__name__,))
        result.runs += 1
        result.busy_ns += dt
        if error is not None:
            result.exceptions[op.layer] = result.exceptions.get(op.layer, 0) + 1
            result.fail(i % n, f"{op.label}: {type(error).__name__}: {error}"[:200])
        else:
            try:
                problem = op.check(output)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                result.wrong += 1
                result.fail(i % n, f"{op.label}: {problem}"[:200])
            else:
                result.samples_ns[i % n].append(dt)
                result.scaled_ms[i % n].append(dt / 1e6 * REFERENCE_MS / local)
        i += 1
    return result


def load_gridlink():
    """Import gridlink afresh, so each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "gridlink" or m.startswith("gridlink.")]:
        del sys.modules[name]
    return importlib.import_module("gridlink")


# -- statistics --------------------------------------------------------------


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return TAIL_LADDER[-1]


def nearest_rank(sorted_values, p: float):
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def ratio(a, b) -> float:
    return a / b if b else 0.0


# -- the two kinds of run ----------------------------------------------------


def measure(build, seed: int, seconds: int, ctx, deadline: float):
    setups, scaled_setups, probe = [], [], []
    started = time.monotonic()
    while len(setups) < SETUP_REPEATS or time.monotonic() - started < SETUP_MIN_S:
        for _ in range(PROBE_WINDOW):
            t0 = time.perf_counter_ns()
            reference_kernel()
            probe.append(time.perf_counter_ns() - t0)
        local = statistics.median(probe[-PROBE_WINDOW:]) / 1e6
        gc.collect()
        t0 = time.perf_counter()
        gl = load_gridlink()
        ops = build(gl, seed, ctx)
        setups.append(time.perf_counter() - t0)
        scaled_setups.append(setups[-1] * REFERENCE_MS / local)
    gc.collect()
    loop = run_ops(ops, deadline, until=time.monotonic() + seconds, probe=probe)

    # An input's latency is the median of its repetitions, which the loop
    # spreads over the whole run, each scaled to reference speed. The speed
    # of a shared machine swings by up to 1.6x, in spells of seconds to
    # minutes; the kernel, timed every 50 ms of the same loop, swings with
    # it, so the scaled times move much less.
    per_input = sorted(statistics.median(s) for s in loop.scaled_ms if s)
    if not per_input:
        raise SystemExit("no operation succeeded; nothing to report")
    unscaled = sorted(statistics.median(s) / 1e6 for s in loop.samples_ns if s)
    pct = tail_percentile(len(per_input))
    ok_ops = sum(len(s) for s in loop.samples_ns)
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "latency_p50_ms": (statistics.median(per_input), "ms"),
        "latency_tail_ms": (nearest_rank(per_input, pct), "ms"),
        "throughput_ops_s": (1e3 * len(per_input) / sum(per_input), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(unscaled),
        "latency_tail_ms": nearest_rank(unscaled, pct),
        "throughput_ops_s": 1e3 * len(unscaled) / sum(unscaled),
    }
    details = {
        "tail_percentile": pct,
        "latency_samples": len(per_input),
        "timed_operations": loop.runs,
        "timed_seconds": loop.busy_ns / 1e9,
        "fail_share": ratio(loop.failed, loop.attempted),
        "setup_runs_s": setups,
        "unscaled": raw,
        "reference_median_ms": statistics.median(probe) / 1e6,
        "failures": loop.failures,
    }
    notes = [
        f"times scaled to reference speed: kernel median {statistics.median(probe) / 1e6:.4f} ms "
        f"in this run, {REFERENCE_MS} ms nominal; unscaled "
        + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
        f"tail is p{pct:g} of {len(per_input)} per-input median latencies "
        f"({loop.runs} timed operations in {loop.busy_ns / 1e9:.1f} s)",
        f"raw rate {ok_ops / (loop.busy_ns / 1e9):.6g} successful operations/s over the loop",
        f"fail_share {details['fail_share']:.6g} ({loop.failed} of {loop.attempted} inputs)",
    ]
    return metrics, loop.attempted, loop.failed, loop.wrong == 0, details, notes


def traced(build, seed: int, ctx, deadline: float, name: str):
    from tracer import LAYERS, Tracer
    from workloads import calibrate, cli_checks

    gl = load_gridlink()
    tracer = Tracer(gl)
    tracer.install()
    try:
        ops = build(gl, seed, ctx)  # setup work counts toward the layers
    finally:
        tracer.uninstall()
    gc.collect()
    main = run_ops(ops, deadline, tracer=tracer)
    repeat = Tracer(gl)
    again = run_ops(ops, deadline, tracer=repeat, limit=max(1, len(ops) // 5))

    problems = [f"span tree: {p}" for p in (tracer.check_nesting(), repeat.check_nesting()) if p]
    if again.signatures != main.signatures[: len(again.signatures)]:
        problems.append("call counts or tau steps differ between two traced passes")
    total, own = tracer.durations_ns()
    calib = calibrate(gl, seed, ctx)
    checks = run_ops(cli_checks(gl, ctx), deadline)
    tracer.errors["cli"] += checks.exceptions.get("cli", 0)
    attempted = main.attempted + checks.attempted
    failed = main.failed + checks.failed

    ms = 1e-6
    calls = tracer.calls
    steps = sum(tracer.steps.values())
    runs = calls["tau.run_tau"]
    metrics = {
        "core.neighbor_calls": (tracer.neighbor_calls, "count"),
        "core.topology_ms": ((own["core.all_edges"] + own["core.crossing_conflicts"]) * ms, "ms"),
        "core.crossing_scaling_exp": (calib["crossing"], "slope"),
        "words.feasible_calls": (calls["words.enumerate_feasible"], "count"),
        "words.feasible_self_ms": (own["words.enumerate_feasible"] * ms, "ms"),
        "words.feasible_ratio": (ratio(tracer.feasible_survivors, tracer.feasible_candidates), "ratio"),
        "words.omega_star_calls": (calls["words.omega_star"], "count"),
        "screens.screen_self_ms": (own["screens.screen"] * ms, "ms"),
        "screens.reject_share": (ratio(tracer.screen_rejects, calls["screens.screen"]), "ratio"),
        "tau.run_tau_ms": (total["tau.run_tau"] * ms, "ms"),
        "tau.self_ms": ((own["tau.run_tau"] + own["tau.apply_builder"]) * ms, "ms"),
        "tau.steps": (steps, "count"),
        **{f"tau.steps.R{r}": (tracer.steps[f"R{r}"], "count") for r in range(1, 5)},
        "tau.ms_per_step": (ratio(total["tau.run_tau"] * ms, steps + runs), "ms"),
        "tau.chain_scaling_exp": (calib["chain"], "slope"),
        "oracle.generate_ms": (total["oracle.generate"] * ms, "ms"),
        "oracle.generate_calls": (calls["oracle.generate"], "count"),
        "oracle.generate_scaling_exp": (calib["generate"], "slope"),
        "oracle.enumerate_ms": (total["oracle.enumerate_solutions"] * ms, "ms"),
        "oracle.enumerate_calls": (calls["oracle.enumerate_solutions"], "count"),
        "oracle.sweep_enumerated_share": (
            ratio(tracer.nested("oracle.enumerate_solutions", "oracle.find_stall_witness"),
                  calls["oracle.find_stall_witness"]),
            "ratio",
        ),
        "formats.parse_ms": (total["formats.parse_puzzle"] * ms, "ms"),
        "formats.serialize_ms": (total["formats.serialize_puzzle"] * ms, "ms"),
        "cli.cold_start_ms": (calib["cold_start_ms"], "ms"),
        "cli.inproc_ms": (calib["inproc_ms"], "ms"),
        "engine_solved_share": (ratio(tracer.run_tau_solved, runs), "ratio"),
        "fail_share": (ratio(failed, attempted), "ratio"),
        "trace.overhead_share": (main.busy_ns / main.untraced_ns - 1, "ratio"),
        **{f"{layer}.errors": (tracer.errors[layer], "count") for layer in LAYERS},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{name}.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    wrong = main.wrong + again.wrong + checks.wrong
    details = {
        "untraced_seconds": main.untraced_ns / 1e9,
        "traced_seconds": main.busy_ns / 1e9,
        "spans": len(tracer.spans),
        "self_check": problems or "ok",
        "failures": {**main.failures, **checks.failures},
    }
    notes = [
        f"{len(tracer.spans)} spans; tracing overhead {metrics['trace.overhead_share'][0]:.1%} "
        f"({main.untraced_ns / 1e9:.2f} s untraced, {main.busy_ns / 1e9:.2f} s traced)",
        "self-check: " + ("; ".join(problems) if problems else "spans nest, counts repeat"),
        f"CLI checks: {checks.attempted - checks.failed} of {checks.attempted} children match the in-process results",
    ]
    return metrics, attempted, failed, wrong == 0 and not problems, details, notes


# -- environment and output --------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, Context

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "gridlink" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: {ROOT} holds no src/gridlink package and fixtures/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    deadline = time.monotonic() + WALL_LIMIT_S

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    ctx = Context(ROOT, workdir, env)
    build = WORKLOADS[args.workload]
    try:
        if args.trace:
            result = traced(build, args.seed, ctx, deadline, args.workload)
        else:
            result = measure(build, args.seed, args.seconds, ctx, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted, failed, correct, details, notes = result

    environment = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(ROOT),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }
    print(f"gridlink benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for message, count in sorted(details["failures"].items()):
        print(f"  failed x{count}: {message}")
    print("  env " + json.dumps(environment, sort_keys=True))

    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(summary, environment=environment, details=details)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
