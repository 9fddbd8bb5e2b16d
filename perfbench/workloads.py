"""Seeded input generators for the four benchmark workloads.

Each generator turns a seed into the list of operations one worker
episode performs, as plain JSON-able lists; nothing here imports
bernlab.  The seed sets the order of the operations and the sizes
within narrow strata -- one draw from each of several equal slices of a
range -- so it changes which values are asked for but barely changes
the total work or where the latency percentiles fall, which keeps runs
with different seeds comparable.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-bernoulli", "polylog-exact", "integral-quad", "cli-mix")

# exact-bernoulli: cold table growth to B_400, the Stirling triangle to
# row 400 and the split double sum at N <= 250.  The one request that
# grows the table is a long operation with no reference sample inside
# it and varies most between episodes, so the splits carry most of the time.
RECURRENCE_MAX = 400
RECURRENCE_OPS = 48
STIRLING_SUM_OPS = 48
SPLIT_OPS = 60
SPLIT_TOTAL = (120, 250)

# polylog-exact: every order 0..POLYLOG_MAX_ORDER, in seeded order.
POLYLOG_MAX_ORDER = 22
EVALS_PER_ORDER = 20
EVAL_POINT_MAX = 10**12

# integral-quad: every identity pair with m + n <= 12 once, and BETA_OPS Beta
# integrals; every rule has panels * nodes = 512 integrand evaluations.
QUAD_RULES = ((16, 32), (8, 64), (32, 16))
IDENTITY_MAX_SUM = 12     # bernlab.quadrature.MAX_IDENTITY_SUM at the seed
BETA_MAX_SUM = 20         # bernlab.quadrature.MAX_BETA_SUM at the seed
BETA_OPS = 48
VERIFY_TOL = 1e-6         # CLI default for verify-integral
BETA_TOL = 1e-8           # CLI default for beta-check

# cli-mix: small, warm requests over all nine subcommands and formats.
# Its quadrature requests use rules of 128 evaluations, so that they do not
# make up the whole latency tail on their own.
CLI_QUAD_RULES = ((8, 16), (4, 32), (16, 8))
CLI_ROUNDS = 8            # requests per subcommand x format, stratified in size
CLI_INVALID_PER_ROUND = 5
FORMATS = ("plain", "csv", "json")
NUMERATORS = "data/bernoulli_numerators.txt"
DENOMINATORS = "data/bernoulli_denominators.txt"
BFILE_MAX = 30


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One uniform draw from each of `count` equal slices of [lo, hi]."""
    width = (hi - lo + 1) / count
    return [lo + int((i + rng.random()) * width) for i in range(count)]


def exact_bernoulli(rng: random.Random) -> list[list]:
    # Whole-number requests sit on a fixed grid up to RECURRENCE_MAX and the
    # seed sets their order: the median latency falls among the Stirling
    # sums, whose cost grows like n^2, so jittered sizes would move it.
    ops: list[list] = [["recurrence", RECURRENCE_MAX * (i + 1) // RECURRENCE_OPS] for i in range(RECURRENCE_OPS)]
    ops += [["stirling_sum", RECURRENCE_MAX * (i + 1) // STIRLING_SUM_OPS] for i in range(STIRLING_SUM_OPS)]
    # Stratum i of N meets stratum (7 i mod SPLIT_OPS) of m/N: a fixed
    # pairing, so the seed jitters the split sizes but not their spread.
    for i, total in enumerate(stratified(rng, *SPLIT_TOTAL, SPLIT_OPS)):
        share = (7 * i % SPLIT_OPS + rng.random()) / SPLIT_OPS
        m = min(total, int(share * (total + 1)))
        ops.append(["split", m, total - m])
    rng.shuffle(ops)
    # The first recurrence request grows the table all the way, so the
    # table is grown once per episode whatever the shuffle.
    first = next(i for i, op in enumerate(ops) if op[0] == "recurrence")
    top = ops.index(["recurrence", RECURRENCE_MAX])
    ops[first], ops[top] = ops[top], ops[first]
    return ops


def polylog_exact(rng: random.Random) -> list[list]:
    # The orders come in seeded order, but the oracle cross-checks climb
    # 0, 1, 2, ...: the oracle is a recurrence on the order, so each of
    # its requests then costs one step whatever the shuffle.
    orders = list(range(POLYLOG_MAX_ORDER + 1))
    rng.shuffle(orders)
    ops: list[list] = []
    for step, n in enumerate(orders):
        ops += [["neg_rf", n], ["compose", n], ["oracle", step]]
        for _ in range(EVALS_PER_ORDER):
            ops.append(["eval", n, rng.randint(1, EVAL_POINT_MAX), rng.randint(1, EVAL_POINT_MAX)])
    return ops


def integral_quad(rng: random.Random) -> list[list]:
    # Every identity pair once, so the seed sets which rule each pair
    # gets and the order, not how much work there is.
    pairs = [(m, s - m) for s in range(IDENTITY_MAX_SUM + 1) for m in range(s + 1)]
    betas = [(k, s - k) for s in range(BETA_MAX_SUM + 1) for k in range(s + 1)]
    rng.shuffle(pairs)
    ops: list[list] = [["verify", m, n, *QUAD_RULES[i % len(QUAD_RULES)]] for i, (m, n) in enumerate(pairs)]
    for i, (k, l) in enumerate(rng.sample(betas, BETA_OPS)):
        ops.append(["beta", k, l, *QUAD_RULES[i % len(QUAD_RULES)]])
    rng.shuffle(ops)
    # The rules and polylogs are built up front, as operations of their
    # own, so which verify request would pay for a cold build does not
    # depend on the shuffle.
    setup = [["rule", nodes] for _, nodes in QUAD_RULES] + [["neg_rf", n] for n in range(IDENTITY_MAX_SUM + 1)]
    rng.shuffle(setup)
    return setup + ops


def _cli_valid(rng: random.Random, cmd: str, fmt: str, size: float) -> tuple[list[str], dict]:
    """A well-formed request for `cmd` and what the checker needs to know.

    `size` in [0, 1) picks the parameter that sets the request's cost.
    """

    def scaled(lo: int, hi: int) -> int:
        return lo + int(size * (hi - lo + 1))

    spec: dict = {"cmd": cmd, "fmt": fmt, "exit": 0}
    if cmd == "bernoulli":
        n = scaled(0, 60)
        method = rng.choice(("recurrence", "stirling-sum", "split"))
        argv = ["bernoulli", str(n), "--method", method]
        if method == "split" and rng.random() < 0.5:
            argv += ["--m", str(rng.randint(0, n))]
        spec["n"] = n
    elif cmd == "stirling":
        n = scaled(0, 40)
        k = rng.randint(-1, n + 1)
        argv = ["stirling", str(n), str(k)]
        spec.update(n=n, k=k)
    elif cmd == "table":
        top = scaled(0, 30)
        argv = ["table", "bernoulli", "--max", str(top)]
        spec["max"] = top
    elif cmd == "identity":
        total = scaled(0, 50)
        m = rng.randint(max(0, total - 25), min(25, total))
        n = total - m
        argv = ["identity", str(m), str(n)]
        spec.update(m=m, n=n)
    elif cmd == "polylog":
        n = scaled(0, 12)
        argv = ["polylog", str(n)]
        spec["n"] = n
        if rng.random() < 0.5:
            at = f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
            argv += ["--at", at]
            spec["at"] = at
    elif cmd == "verify-integral":
        s = scaled(0, IDENTITY_MAX_SUM)
        m = rng.randint(0, s)
        panels, nodes = rng.choice(CLI_QUAD_RULES)
        argv = ["verify-integral", str(m), str(s - m), "--panels", str(panels), "--nodes", str(nodes)]
        spec.update(m=m, n=s - m, tol=VERIFY_TOL)
    elif cmd == "beta-check":
        s = scaled(0, BETA_MAX_SUM)
        k = rng.randint(0, s)
        panels, nodes = rng.choice(CLI_QUAD_RULES)
        argv = ["beta-check", str(k), str(s - k), "--panels", str(panels), "--nodes", str(nodes)]
        spec.update(k=k, l=s - k, tol=BETA_TOL)
    elif cmd == "oeis-check":
        top = scaled(0, BFILE_MAX)
        argv = ["oeis-check", "--numerators", NUMERATORS, "--denominators", DENOMINATORS, "--max", str(top)]
        spec["max"] = top
    else:
        top = scaled(0, 4)
        argv = ["bench", "--max-sum", str(top)]
        spec["max"] = top
    return argv + ["--format", fmt], spec


CLI_COMMANDS = (
    "bernoulli", "stirling", "table", "identity", "polylog",
    "verify-integral", "beta-check", "oeis-check", "bench",
)

# Requests the CLI must refuse with exit code 2 and an empty stdout.
CLI_INVALID = (
    ["bernoulli", "-1"],
    ["bernoulli", "5", "--m", "2"],
    ["stirling", "x", "1"],
    ["table", "bernoulli"],
    ["identity", "3"],
    ["polylog", "3", "--at", "-1"],
    ["verify-integral", "7", "6"],
    ["beta-check", "11", "10"],
    ["oeis-check", "--numerators", NUMERATORS, "--denominators", DENOMINATORS, "--max", "31"],
    ["bench", "--max-sum", "201"],
)


def cli_mix(rng: random.Random) -> list[list]:
    ops: list[list] = []
    for cmd in CLI_COMMANDS:
        for fmt in FORMATS:
            for stratum in range(CLI_ROUNDS):
                argv, spec = _cli_valid(rng, cmd, fmt, (stratum + rng.random()) / CLI_ROUNDS)
                ops.append(["cli", argv, spec])
    for _ in range(CLI_ROUNDS):
        for argv in rng.sample(CLI_INVALID, CLI_INVALID_PER_ROUND):
            ops.append(["cli", list(argv), {"cmd": argv[0], "exit": 2}])
    rng.shuffle(ops)
    return ops


# How strongly each workload's operation time follows the reference loop
# when the machine slows down: the slope of log operation time against
# log reference time over episodes, measured on the baseline machine
# (2 vCPUs shared with other tenants).  Normalising with it removes the
# dependence of a run's figures on the machine's phase.
PHASE_EXPONENT = {
    "exact-bernoulli": 1.1,
    "polylog-exact": 0.75,
    "integral-quad": 1.4,
    "cli-mix": 1.05,
}

GENERATORS = {
    "exact-bernoulli": exact_bernoulli,
    "polylog-exact": polylog_exact,
    "integral-quad": integral_quad,
    "cli-mix": cli_mix,
}


def generate(workload: str, seed: int) -> list[list]:
    """The operations of one episode of `workload`; equal seeds give equal lists."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
