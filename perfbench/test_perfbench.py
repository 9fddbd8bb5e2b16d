"""Fast tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import compare
import run
import workloads
import worker

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def bl():
    return worker.load_bernlab()


def small_ops(workload: str) -> list:
    """A cheap slice of a real episode that still has every kind of operation."""
    ops = workloads.generate(workload, 3)
    if workload == "exact-bernoulli":
        return [op for op in ops if sum(op[1:]) <= 60]
    if workload == "polylog-exact":
        return [op for op in ops if op[1] <= 6]
    return ops[:12] if workload == "integral-quad" else ops[:40]


def episode(bl, ops: list, traced: bool) -> run.Episode:
    reply = worker.run_episode(bl, ops, traced)
    reply["ready"] = 0.0
    ep = run.Episode(reply, 0.0, traced)
    ep.checked = [checks.check(op, d) for op, d in zip(ops, reply["digests"])]
    return ep


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_cli_mix_covers_every_subcommand_and_format():
    ops = workloads.generate("cli-mix", 1)
    valid = {(op[2]["cmd"], op[2]["fmt"]) for op in ops if op[2]["exit"] == 0}
    assert valid == {(c, f) for c in workloads.CLI_COMMANDS for f in workloads.FORMATS}
    assert any(op[2]["exit"] == 2 for op in ops)


def test_references_agree_with_known_values():
    assert checks.bernoulli_ref(1) == Fraction(-1, 2)
    assert checks.bernoulli_ref(12) == Fraction(-691, 2730)
    assert checks.stirling2_ref(5, 2) == 15 and checks.stirling2_ref(0, 0) == 1
    t = Fraction(3, 7)
    assert checks.polylog_ref(0, t) == -t / (1 + t)
    assert checks.polylog_ref(1, t) == -t / (1 + t) ** 2
    assert checks.parse_poly("-t + 3/2*t^3") == [0, -1, 0, Fraction(3, 2)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_operation_passes_at_the_current_code(bl, workload):
    ops = small_ops(workload)
    assert all(ok for ok, _ in episode(bl, ops, False).checked)


def test_wrong_route_is_a_failed_operation_not_a_crash(bl, monkeypatch):
    real = bl.bernoulli_split
    monkeypatch.setattr(bl, "bernoulli_split", lambda m, n: real(m, n) + 1)
    ops = [["split", 3, 4], ["recurrence", 7], ["split", 10, 2]]
    assert [ok for ok, _ in episode(bl, ops, False).checked] == [False, True, False]


def test_raising_route_and_wrong_cli_output_are_failed_operations(bl, monkeypatch):
    real = bl.cli.bernoulli_split
    monkeypatch.setattr(bl, "bernoulli_stirling_sum", lambda n: 1 / 0)
    monkeypatch.setattr(bl.cli, "bernoulli_split", lambda m, n: real(m, n) + 1)
    ops = [
        ["stirling_sum", 9],
        ["cli", ["identity", "3", "4", "--format", "json"], {"cmd": "identity", "fmt": "json", "exit": 0, "m": 3, "n": 4}],
        ["cli", ["stirling", "5", "2"], {"cmd": "stirling", "fmt": "plain", "exit": 0, "n": 5, "k": 2}],
    ]
    assert [ok for ok, _ in episode(bl, ops, False).checked] == [False, False, True]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(bl, workload):
    ops = small_ops(workload)
    episodes = [episode(bl, ops, True), episode(bl, ops, False)]
    metrics = run.per_layer(episodes, ops)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.overhead_ratio"] > 0


def test_run_prints_the_contract_line():
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "cli-mix", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    old = {s: 100.0 + s for s in range(10)}
    assert compare.verdict(old, {s: v * 1.5 for s, v in old.items()}, "lower", 0.1)[0] == "regression"
    assert compare.verdict(old, {s: v * 0.5 for s, v in old.items()}, "lower", 0.1) == ("gain", 10, 10)
    assert compare.verdict(old, {s: v * 1.01 for s, v in old.items()}, "lower", 0.1)[0] == "within bound"
    noisy = {s: 100.0 * (1 + s % 2) for s in range(10)}
    assert compare.verdict(noisy, {s: v * 1.01 for s, v in noisy.items()}, "lower", 0.1)[0] == "unresolved"
