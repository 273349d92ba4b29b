"""Run one qdice benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns, and every output is checked. With --trace 0
the run is split over WORKERS fresh processes started one after another.
Each worker imports qdice, builds the inputs from the seed and times whole
passes over them; the metrics are medians over all passes of all workers,
and the last stdout line holds them. With --trace 1 the run stays in this
process, wraps qdice's public functions, writes its spans to perfbench/out/
and reports per-layer metrics instead. The line before the result gives
the tail percentile, the failed share, the reference time and the machine.

Times are in reference seconds. On a 2-vCPU cloud VM whose cores are
shared with other tenants, the speed of the same code drifted by up to 2x
over minutes. So a fixed kernel that is not qdice (`reference_seconds`) is timed
before the first pass and after every pass, and each pass's op times are
scaled by REF_NOMINAL_S over the mean of the two reference times around it.
Where the kernel takes REF_NOMINAL_S, reference seconds are seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKERS = 8
MIN_OPS = 20  # enough timed ops for a tail with 10 samples beyond it
TAIL_BEYOND = 10
REF_NOMINAL_S = 0.010
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the run's tail op time.

    The highest percentile with at least TAIL_BEYOND samples beyond it,
    capped at p99 so that long runs do not report one hiccup.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = max(TAIL_BEYOND, n // 100)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def per_pass(passes: list[list[float]]) -> tuple[float, float]:
    """(ops per second, median op time), each the median over passes.

    Every pass runs the same inputs, so passes are comparable; the median over
    them discounts a pass slowed by other load on the machine.
    """
    return (
        statistics.median(len(p) / sum(p) for p in passes),
        statistics.median(statistics.median(p) for p in passes),
    )


def reference_seconds() -> float:
    """Time of one run of a fixed kernel: interpreter loop, Fractions, small and large numpy ops.

    The mix follows the workloads' own mix of work, so a machine slowdown
    stretches the kernel and the ops alike. It takes about REF_NOMINAL_S.
    """
    start = perf_counter()
    acc, table = 0.0, {}
    for i in range(12_000):
        acc += (i % 97) * 0.5
        table[i & 255] = (i, acc)
    total = Fraction(0)
    for k in range(1, 400):
        total += Fraction(1, k * (k + 1))
    v = np.arange(1.0, 9.0)
    for _ in range(300):
        v = v / np.linalg.norm(v) + 1.0
        w = np.kron(v[:2], v[2:4]).reshape(2, 2).transpose(1, 0).reshape(-1)
        w.setflags(write=False)
    grid = np.linspace(0.0, 1.0, 20_000)
    for _ in range(10):
        grid = np.sqrt(grid * grid + 1.0) - 1.0
    return perf_counter() - start


def run_loop(workload, inputs, seconds: float, tracer=None):
    """Time whole passes over `inputs` until `seconds` have passed; check every output.

    Returns (op times in reference seconds, one list per pass; the reference
    times; the number of ops that failed; failure reasons, which also cover
    the workload's run-level checks).
    """
    failures: list[str] = []
    failed = 0
    reference_seconds()  # untimed: the first call pays numpy's lazy set-up
    refs = [reference_seconds()]
    raw: list[list[float]] = []
    if tracer:
        tracer.install()
    deadline = perf_counter() + seconds
    try:
        while not raw or perf_counter() < deadline:
            times = []
            for pos, x in enumerate(inputs):
                if tracer:
                    tracer.op_id = len(raw) * len(inputs) + pos
                start = perf_counter()
                try:
                    out = workload.op(x)
                    error = None
                except Exception as exc:  # a raising op is a failed op; the loop goes on
                    error = f"{x}: {type(exc).__name__}: {exc}"
                times.append(perf_counter() - start)
                reason = error or workload.check(pos, x, out)
                if reason:
                    failed += 1
                    failures.append(reason)
            raw.append(times)
            refs.append(reference_seconds())
    finally:
        if tracer:
            tracer.uninstall()
    passes = [
        [t * 2.0 * REF_NOMINAL_S / (before + after) for t in times]
        for times, before, after in zip(raw, refs, refs[1:])
    ]
    return passes, refs, failed, failures + workload.final()


def worker(workload, args) -> None:
    """Build the inputs, say so, then measure and print the raw results as JSON."""
    inputs = workload.inputs(args.seed)
    print("ready", flush=True)
    passes, refs, failed, failures = run_loop(workload, inputs, args.seconds)
    print(json.dumps({
        "passes": passes,
        "refs": refs,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))


def spawn_worker(args, seconds: float) -> dict:
    """One worker run; adds `setup_s`, the time from spawn to inputs ready, in reference seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--worker"]
    ref_before = reference_seconds()
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_wall_s = perf_counter() - start
        out = proc.stdout.read()
        code = proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker exited with code {code}")
    result = json.loads(out)
    result["setup_wall_s"] = setup_wall_s
    # scaled by the kernel times just before the spawn and just after the worker was ready
    result["setup_s"] = setup_wall_s * 2.0 * REF_NOMINAL_S / (ref_before + result["refs"][0])
    return result


def untraced(args) -> tuple[dict, list[list[float]], list[float], int, list[str]]:
    """End-to-end metrics from WORKERS fresh processes (more if MIN_OPS is not reached)."""
    reference_seconds()  # untimed: the first call pays numpy's lazy set-up
    runs: list[dict] = []
    while len(runs) < WORKERS or sum(len(p) for r in runs for p in r["passes"]) < MIN_OPS:
        runs.append(spawn_worker(args, args.seconds / WORKERS))
    passes = [p for r in runs for p in r["passes"]]
    ops_per_s, p50_s = per_pass(passes)
    metrics = {
        "ops_per_s": ops_per_s,
        "op_p50_s": p50_s,
        "op_tail_s": tail([t for p in passes for t in p])[0],
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    refs = [x for r in runs for x in r["refs"]]
    failures = [f for r in runs for f in r["failures"]]
    print(json.dumps({"setup_wall_s": [r["setup_wall_s"] for r in runs]}))
    return metrics, passes, refs, sum(r["failed"] for r in runs), failures


def traced(workload, args) -> tuple[dict, list[list[float]], list[float], int, list[str]]:
    """Per-layer metrics from whole passes in this process, spans written to perfbench/out/."""
    from tracing import Tracer

    tracer = Tracer()
    passes, refs, failed, failures = run_loop(workload, workload.inputs(args.seed), args.seconds, tracer)
    metrics = tracer.per_layer(sum(len(p) for p in passes))
    metrics["traced.ops_per_s"] = per_pass(passes)[0]
    tracer.write_spans(HERE / "out" / f"{args.workload}.spans.jsonl")
    return metrics, passes, refs, failed, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qdice" / "__init__.py").is_file():
        print(f"error: no qdice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    if args.worker:
        worker(workload, args)
        return 0

    if args.trace:
        from tracing import per_layer_units

        metrics, passes, refs, failed, failures = traced(workload, args)
        units = per_layer_units()
    else:
        metrics, passes, refs, failed, failures = untraced(args)
        units = END_TO_END_UNITS
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    attempted = sum(len(p) for p in passes)
    _, tail_pct, tail_beyond = tail([t for p in passes for t in p])
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "timed_ops": attempted,
        "failed_share": failed / attempted,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": tail_beyond,
        "reference_s_median": statistics.median(refs),
        "reference_nominal_s": REF_NOMINAL_S,
        "machine": machine_info(),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
