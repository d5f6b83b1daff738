"""Steadiness check: run one workload with several seeds and report spread.

    python3 perfbench/steady.py --workload query_mix --runs 10 --seconds 36

Runs `run.py` once per seed (1..runs, or `--first-seed` onwards), one run at
a time, and prints for every end-to-end metric its median, first and third
quartiles (`statistics.quantiles(values, n=4)`), and the spread
(q3 - q1) / median next to the bound in BENCHMARK.json.  A bound should sit
at three times the spread or more.  `--baseline` stores the summary for the workload in `baseline.json`, with
the commit, Python version and CPU count it was measured with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--baseline", action="store_true", help="record the summary in baseline.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              flush=True)

    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        bound = bounds[name]
        flag = "" if spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:>6}{flag}")
    if args.baseline:
        record_baseline(args, seconds, summary)
    return 0 if all(r["correct"] for r in runs) else 1


def record_baseline(args, seconds: float, summary: dict) -> None:
    path = os.path.join(HERE, "baseline.json")
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    doc.setdefault("workloads", {})[args.workload] = {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "metrics": summary,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
