"""The package namespace: `bernlab` re-exports each module's `__all__`,
and nothing else; `bernlab.cli`, which it leaves out, has its own list."""

from importlib import import_module

import bernlab
from support import run_code

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
# The public names of bernlab.cli, in the order of its __all__.
CLI_PUBLIC = [
    "BenchMismatchError",
    "MAX_BENCH_SUM",
    "MAX_BFILE_CHARS",
    "MAX_NODES",
    "MAX_PANELS",
    "MAX_SIZE",
    "MAX_AT_DIGITS",
    "MAX_OEIS_CHECK",
    "oeis_check",
    "bench_run",
    "run",
    "main",
]


def test_all_lists_the_public_names_in_order():
    assert len(PUBLIC) == 27
    assert bernlab.__all__ == list(PUBLIC)


def test_cli_all_lists_its_public_names_in_order():
    from bernlab import cli

    assert len(CLI_PUBLIC) == 12
    assert cli.__all__ == CLI_PUBLIC
    assert all(hasattr(cli, name) for name in CLI_PUBLIC)


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
    proc = run_code("import sys, bernlab; print('bernlab.cli' in sys.modules, hasattr(bernlab, 'cli'))")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False False\n", "")
