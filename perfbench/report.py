"""Run every workload untraced and traced, and print one table of the results.

    python3 perfbench/report.py --seed 1 --seconds 20 [--output perfbench/results/NAME.json]

For each workload it prints the end-to-end metrics with their units, the
failed share, and the tracing overhead (untraced over traced ops_per_s).
With --output it also writes every run's result, the per-layer metrics and
the machine info to a JSON file, one data point of the benchmark's record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line), json.loads(result_line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args()

    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    print(f"{'workload':12s} {'metric':12s} {'value':>12s}  unit")
    for name in WORKLOADS:
        info, result = run(name, args.seed, args.seconds, trace=0)
        traced_info, traced = run(name, args.seed, args.seconds, trace=1)
        metrics = result["metrics"]
        overhead = metrics["ops_per_s"]["value"] / traced["metrics"]["traced.ops_per_s"]["value"]
        for metric, m in metrics.items():
            note = ""
            if metric == "op_tail_s":
                note = (f"  p{info['op_tail_percentile']:.2f} of {info['timed_ops']} ops, "
                        f"{info['op_tail_samples_beyond']} beyond")
            print(f"{name:12s} {metric:12s} {m['value']:12.6g}  {m['unit']}{note}")
        print(f"{name:12s} {'failed_share':12s} {info['failed_share']:12.6g}  "
              f"1  ({result['failed']} of {result['attempted']}, correct={result['correct']})")
        print(f"{name:12s} {'trace_cost':12s} {overhead:12.6g}  x  (untraced / traced ops_per_s)")
        record["machine"] = info["machine"]
        record["workloads"][name] = {
            "untraced": {"info": info, "result": result},
            "traced": {"info": traced_info, "result": traced},
            "trace_overhead": overhead,
        }
    print(json.dumps({"machine": record["machine"]}))
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
