"""bernlab benchmark: one workload, one seed, a fixed measuring time.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-bernoulli --seed 1 --seconds 25 --trace 0

The run repeats episodes until --seconds have passed.  An episode is a
fresh worker process (perfbench/worker.py) that imports bernlab from
src/ and performs the seeded operations of the workload one after
another, a closed loop with one client.  Every episode of a run replays
the same operations, so its figures are repeats of one measurement.

All times are normalised seconds: raw seconds times the nominal
reference time over the reference time measured next to the operation.
The reference loop is interleaved with the operations, so drift in
machine speed divides out.  Results are checked after the loop against
independent routes (perfbench/checks.py).

With --trace 0 the last line of stdout carries the end-to-end metrics;
with --trace 1 traced and untraced episodes alternate and it carries
the per-layer metrics.  The line before it is a context record.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# About the median reference-loop time on the machine the baseline was
# taken on (Python 3.11, 2 vCPUs).  Only the ratio to it matters.
NOMINAL_REFERENCE_S = 0.0005
REFERENCE_WINDOW = 3
MIN_EPISODES = 3
RUN_LIMIT_S = 170.0

PER_LAYER_TIMES = {
    "combinatorics.row_s": "combinatorics",
    "bernoulli.recurrence_s": "bernoulli.recurrence",
    "bernoulli.stirling_sum_s": "bernoulli.stirling_sum",
    "bernoulli.split_s": "bernoulli.split",
    "polylog.neg_rf_s": "polylog.neg_rf",
    "polylog.oracle_s": "polylog.oracle",
    "polylog.compose_reciprocal_s": "polylog.compose_reciprocal",
    "polylog.eval_exact_s": "polylog.eval_exact",
    "quadrature.rule_s": "quadrature.rule",
    "quadrature.verify_s": "quadrature.verify",
    "quadrature.beta_s": "quadrature.beta",
    **{f"cli.run_s.{cmd}": f"cli.run.{cmd}" for cmd in workloads.CLI_COMMANDS},
}
PER_LAYER_COUNTS = (
    "combinatorics.row_calls",
    "combinatorics.rows_grown",
    "bernoulli.table_entries_grown",
    "bernoulli.split_calls",
    "bernoulli.split_terms",
    "quadrature.integrand_evals",
)
CACHES = ("polylog.neg_rf_cache", "polylog.oracle_cache", "quadrature.rule_cache")


class Episode:
    """One worker's reply, with its times put in normalised seconds.

    Each operation is normalised by the reference samples taken nearest
    to it (REFERENCE_WINDOW on each side), so a change of machine speed
    inside an episode divides out too.  The ratio to the nominal time is
    raised to the workload's PHASE_EXPONENT; set-up time uses the plain
    ratio of the first samples.
    """

    def __init__(self, reply: dict, spawned: float, traced: bool, exponent: float = 1.0):
        self.reply = reply
        self.traced = traced
        refs = reply["references"]
        positions = [p for p, _ in refs]
        ratios = []
        for j in range(len(reply["latencies"])):
            i = bisect.bisect_right(positions, j)
            near = refs[max(0, i - REFERENCE_WINDOW): i + REFERENCE_WINDOW]
            ratios.append(NOMINAL_REFERENCE_S / statistics.median(t for _, t in near))
        self.factors = [r**exponent for r in ratios]
        self.latencies = [t * f for t, f in zip(reply["latencies"], self.factors)]
        self.op_seconds = sum(self.latencies)
        self.reference_s = statistics.median(t for _, t in refs)
        self.setup_s = (reply["ready"] - spawned) * ratios[0]
        self.checked: list[tuple[bool, float | None]] = []


def run_worker(ops: list, traced: bool, timeout: float, exponent: float) -> Episode:
    request = json.dumps({"ops": ops, "trace": traced})
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER)],
        input=request,
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return Episode(json.loads(proc.stdout), spawned, traced, exponent)


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(episodes: list[Episode]) -> dict[str, float]:
    latencies = [t for e in episodes for t in e.latencies]
    return {
        # Total over the run, not a median of episodes: slow and fast
        # phases of the machine make episode figures bimodal.
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "setup_s": statistics.median(e.setup_s for e in episodes),
        "peak_rss_mb": statistics.median(e.reply["peak_rss_kb"] for e in episodes) / 1024,
    }


def layer_metrics(episode: Episode, ops: list) -> dict[str, float]:
    """Per-layer figures of one traced episode: self times, counts, ratios."""
    reply = episode.reply
    own = tracing.self_times(reply["spans"], episode.factors)
    out = {name: own[span] for name, span in PER_LAYER_TIMES.items()}
    out.update({name: reply["counts"].get(name, 0) for name in PER_LAYER_COUNTS})
    for cache in CACHES:
        hits, misses = reply["caches"][cache + ".hits"], reply["caches"][cache + ".misses"]
        out[cache + "_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[cache + "_lookups"] = hits + misses
    quad_s = out["quadrature.verify_s"] + out["quadrature.beta_s"]
    out["quadrature.evals_per_s"] = out["quadrature.integrand_evals"] / quad_s if quad_s else 0.0
    quad = [(ok, err) for op, (ok, err) in zip(ops, episode.checked) if op[0] in ("verify", "beta")]
    out["quadrature.fails"] = sum(not ok for ok, _ in quad)
    out["quadrature.max_rel_error"] = max((err for _, err in quad if err is not None), default=0.0)
    out["cli.stdout_bytes"] = sum(
        len(d["stdout"].encode()) for op, d in zip(ops, reply["digests"]) if op[0] == "cli" and "stdout" in d
    )
    return out


def per_layer(episodes: list[Episode], ops: list) -> dict[str, float]:
    traced = [e for e in episodes if e.traced]
    plain = [e for e in episodes if not e.traced]
    per_episode = [layer_metrics(e, ops) for e in traced]
    values = {name: statistics.median(m[name] for m in per_episode) for name in per_episode[0]}
    # Traced and untraced episodes alternate, so the two sums cover as many episodes.
    values["trace.overhead_ratio"] = sum(e.op_seconds for e in traced) / sum(e.op_seconds for e in plain)
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    ops = workloads.generate(workload, seed)
    started = time.perf_counter()
    episodes: list[Episode] = []
    kinds = (True, False) if trace else (False,)
    while True:
        for traced in kinds:
            remaining = RUN_LIMIT_S - (time.perf_counter() - started)
            episodes.append(run_worker(ops, traced, max(remaining, 1.0), workloads.PHASE_EXPONENT[workload]))
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and len(episodes) >= MIN_EPISODES * len(kinds):
            break
    measured_wall = time.perf_counter() - started

    # Checks run only now, after every timed loop of the run has ended.
    for episode in episodes:
        episode.checked = [checks.check(op, d) for op, d in zip(ops, episode.reply["digests"])]
    attempted = sum(len(e.checked) for e in episodes)
    failed = sum(not ok for e in episodes for ok, _ in e.checked)
    rel_errors = [err for e in episodes for _, err in e.checked if err is not None]

    metrics = per_layer(episodes, ops) if trace else end_to_end(episodes)
    section = "per_layer" if trace else "end_to_end"
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "episodes": len(episodes),
        "ops_per_episode": len(ops),
        "latency_samples": sum(len(e.latencies) for e in episodes if not e.traced),
        "error_rate": failed / attempted,
        "quad_max_rel_error": max(rel_errors, default=None),
        "raw_op_seconds": [sum(e.reply["latencies"]) for e in episodes],
        "normalised_op_seconds": [e.op_seconds for e in episodes],
        "reference_s": [e.reference_s for e in episodes],
        "nominal_reference_s": NOMINAL_REFERENCE_S,
        "phase_exponent": workloads.PHASE_EXPONENT[workload],
        "measured_wall_s": measured_wall,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in SPEC[section]},
    }
    return context, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    missing = [p for p in ("src/bernlab/__init__.py", workloads.NUMERATORS, workloads.DENOMINATORS) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    try:
        context, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
