"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload eating --seeds 1-10 --seconds 25

It prints each run's wall time and final JSON line. For every metric it then
prints the median of the runs, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, and writes all runs to ``.perfbench_out/spread-<workload>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, **result})
        summary = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: wall={wall:.1f}s correct={result['correct']} attempted={result['attempted']} failed={result['failed']} {summary}", flush=True)
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>10}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>10.4f}")
    out = HERE.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}-trace{args.trace}.json").write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
