"""Compare two results files written by record.py.

Usage: python3 perfbench/compare.py OLD.json NEW.json

One row per workload and end-to-end metric of BENCHMARK.json: each
side's median and quartiles, the pairs NEW won (runs paired by seed;
ties count for neither side) and a verdict:

  regression    NEW's median is worse than OLD's by more than the bound;
  gain          NEW won at least 9 of every 10 pairs and the medians
                differ by more than OLD's quartile distance;
  unresolved    OLD's own quartile distance exceeds the bound and not
                every NEW run beats every OLD run;
  within bound  otherwise.

The exit code is 1 when any row is a regression, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def values_by_seed(record: dict, workload: str, metric: str) -> dict[int, float]:
    return {
        r["seed"]: r["result"]["metrics"][metric]["value"]
        for r in record["runs"]
        if r["workload"] == workload and r["trace"] == 0
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(old: dict[int, float], new: dict[int, float], better: str, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs NEW won, pairs) by the rule in the module docstring."""
    sign = 1 if better == "higher" else -1
    pairs = sorted(set(old) & set(new))
    won = sum(sign * (new[s] - old[s]) > 0 for s in pairs)
    q1, med_old, q3 = quartiles(list(old.values()))
    med_new = statistics.median(new.values())
    if -sign * (med_new - med_old) > bound * med_old:
        return "regression", won, len(pairs)
    if pairs and won >= 0.9 * len(pairs) and abs(med_new - med_old) > q3 - q1:
        return "gain", won, len(pairs)
    all_better = min(sign * v for v in new.values()) > max(sign * v for v in old.values())
    if (q3 - q1) > bound * med_old and not all_better:
        return "unresolved", won, len(pairs)
    return "within bound", won, len(pairs)


def compare(old: dict, new: dict) -> tuple[list[str], bool]:
    lines = [f"{'workload':<16}{'metric':<18}{'old median [q1, q3]':>36}{'new median [q1, q3]':>36}{'won':>7}  verdict"]
    regressed = False
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for metric in SPEC["end_to_end"]:
            a = values_by_seed(old, workload, metric["name"])
            b = values_by_seed(new, workload, metric["name"])
            if not a or not b:
                continue
            result, won, pairs = verdict(a, b, metric["better"], metric["bound"])
            regressed |= result == "regression"
            cells = []
            for side in (a, b):
                q1, med, q3 = quartiles(list(side.values()))
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {metric['unit']}")
            lines.append(f"{workload:<16}{metric['name']:<18}{cells[0]:>36}{cells[1]:>36}{won:>4}/{pairs:<2}  {result}")
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    lines, regressed = compare(old, new)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
