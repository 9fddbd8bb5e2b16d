"""The package namespace: `bernlab` re-exports each module's `__all__`,
and nothing else."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import bernlab

# Every public name, in the order of bernlab.__all__, with the module that
# defines it.
PUBLIC = {
    "BRUTE_FORCE_MAX_N": "combinatorics",
    "BernoulliTable": "bernoulli",
    "MAX_BETA_SUM": "quadrature",
    "MAX_IDENTITY_SUM": "quadrature",
    "Polynomial": "polylog",
    "QuadratureReport": "quadrature",
    "RationalFunction": "polylog",
    "StirlingTriangle": "combinatorics",
    "bell": "combinatorics",
    "bernoulli_recurrence": "bernoulli",
    "bernoulli_split": "bernoulli",
    "bernoulli_stirling_sum": "bernoulli",
    "beta_integer": "exact_arith",
    "beta_quadrature_check": "quadrature",
    "binomial": "exact_arith",
    "expected_integral_value": "quadrature",
    "gauss_legendre": "quadrature",
    "polylog_neg_rf": "polylog",
    "polylog_oracle": "polylog",
    "polylog_stirling_form": "polylog",
    "rf_compose_reciprocal": "polylog",
    "rf_eval_exact": "polylog",
    "stirling2": "combinatorics",
    "stirling2_bruteforce": "combinatorics",
    "stirling2_row": "combinatorics",
    "verify_integral": "quadrature",
    "zeta_nonpositive": "bernoulli",
}
MODULES = ("bernoulli", "combinatorics", "exact_arith", "polylog", "quadrature")


def test_all_lists_the_public_names_in_order():
    assert len(PUBLIC) == 27
    assert bernlab.__all__ == list(PUBLIC)


def test_each_name_is_the_object_its_module_defines():
    for name, module_name in PUBLIC.items():
        module = import_module(f"bernlab.{module_name}")
        assert name in module.__all__ and getattr(bernlab, name) is getattr(module, name), name


def test_namespace_holds_nothing_else():
    # bernlab.cli is bound here once any test imports it; a fresh import
    # leaves it out (test_import_leaves_the_cli_unloaded).
    public = {name for name in dir(bernlab) if not name.startswith("_")} - {"cli"}
    assert public == set(PUBLIC) | set(MODULES)
    assert not hasattr(bernlab, "DEFAULT_PANELS")
    assert not hasattr(bernlab, "DEFAULT_NODES")


def test_import_leaves_the_cli_unloaded():
    # A fresh process, since other tests import the CLI.
    src = str(Path(bernlab.__file__).resolve().parents[1])
    code = "import sys, bernlab; print('bernlab.cli' in sys.modules, hasattr(bernlab, 'cli'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False False\n", "")
