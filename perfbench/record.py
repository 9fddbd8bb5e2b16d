"""Run every workload over several seeds and write one results file.

Usage (from the repository root):

    python3 perfbench/record.py --seeds 1-10 --out perfbench/results/NAME.json [--trace] [--workloads a,b]

Each (seed, workload) pair is one run of perfbench/run.py with the
run_seconds of BENCHMARK.json; seeds are the outer loop, so slow phases
of the machine spread over all workloads.  --trace adds one traced run
per workload on the first seed.  The file holds a context record
(Python version, CPU count, git commit, settings) and, per run, the
run's own context (op count, raw seconds, reference-loop times) and
result.  The table printed at the end gives, per workload and metric,
the median, the quartiles and their distance as a share of the median.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from compare import SPEC, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "context": json.loads(lines[-2])["context"], "result": json.loads(lines[-1])}


def summary(runs: list[dict]) -> list[str]:
    lines = [f"{'workload':<16}{'metric':<18}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}{'bound':>7}"]
    for workload in [w["name"] for w in SPEC["workloads"]]:
        plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        if not plain:
            continue
        for metric in SPEC["end_to_end"]:
            q1, med, q3 = quartiles([r["result"]["metrics"][metric["name"]]["value"] for r in plain])
            lines.append(f"{workload:<16}{metric['name']:<18}{metric['unit']:<6}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                         f"{(q3 - q1) / med:>8.3f}{metric['bound']:>7}")
        attempted = sum(r["result"]["attempted"] for r in plain)
        failed = sum(r["result"]["failed"] for r in plain)
        lines.append(f"{workload:<16}{'error_rate':<18}{'ratio':<6}{failed / attempted:>12.5g}"
                     f"   ({failed} of {attempted} ops, {len(plain)} runs)")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description="Run all workloads over several seeds.")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", required=True, help="results file to write")
    args = parser.parse_args()
    seeds, names = parse_seeds(args.seeds), args.workloads.split(",")
    runs = []
    for seed in seeds:
        for workload in names:
            runs.append(run_once(workload, seed, 0))
            print(f"seed {seed} {workload}: {json.dumps(runs[-1]['result']['metrics'])}", file=sys.stderr)
    if args.trace:
        for workload in names:
            runs.append(run_once(workload, seeds[0], 1))
    record = {
        "context": {
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "seconds": SPEC["run_seconds"],
            "seeds": seeds,
            "workloads": names,
        },
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(summary(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
