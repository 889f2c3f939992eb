"""Seeded inputs and timed operations for the three workloads.

Each workload is a closed loop: one caller, one process, no threads, the
next operation sent only after the previous one returned (``falsify-cli``
keeps at most one child process alive).  Inputs come from the workload
seed alone; the program receives only the generated documents.

Operations run in blocks.  A block of ``pairs-free`` holds two pairs per
order 3..12, a block of ``pairs-dominated`` two pairs per order 2..6, a
block of ``falsify-cli`` one run of every suite.  Runs end on a block
boundary, so each run sees the same mix of orders and sizes whatever its
seed or speed.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

FREE_ORDERS = tuple(range(3, 13))
DOMINATED_ORDERS = tuple(range(2, 7))
GOLDEN = (math.sqrt(5) - 1) / 2  # step of the low-discrepancy size sequence
POOL_BLOCKS = 6  # blocks generated at set-up; a longer run cycles the pool

# Trial counts of the acceptance gate (tests/test_acceptance.py); the
# three suites it does not run take their counts from tests/test_falsify.py
# and tests/test_filters.py.  Each sweep runs a tenth of them.
GATE_TRIALS = {
    "asymptote": 200,
    "filter-audit": 1000,
    "fishburn": 1000,
    "gamma-identity": 200,
    "isd-noise-probe": 8,
    "isd-orderstat": 1000,
    "low-order-equivalence": 1000,
    "mu-oracle": 500,
    "noise": 50,
    "order-monotonicity": 1000,
    "separation": 300,
}


def sweep_trials(divisor: int) -> dict:
    return {s: max(1, round(t / divisor)) for s, t in GATE_TRIALS.items()}


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def free_m_max(n: int) -> int:
    """Largest support size drawn at order n: a decision costs about
    m * n^2, so large orders pair with small supports."""
    return max(20, min(240, 2500 // (n * n)))


def _random_atoms(rng: random.Random, m: int) -> tuple:
    """m distinct values on the 1/4 lattice, integer weights 1..50."""
    values = sorted(rng.sample(range(-2 * m, 2 * m + 1), m))
    weights = [rng.randint(1, 50) for _ in range(m)]
    total = sum(weights)
    return tuple((Fraction(v, 4), Fraction(w, total)) for v, w in zip(values, weights))


def _spread(atoms: tuple, s: Fraction) -> tuple:
    """Distribution of X + Z with Z = +-s, each with mass 1/2."""
    acc: dict = {}
    for v, m in atoms:
        for z in (-s, s):
            acc[v + z] = acc.get(v + z, Fraction(0)) + m / 2
    return tuple(sorted(acc.items()))


@dataclass
class Pair:
    n: int
    x: tuple  # exact atoms the benchmark generated
    y: tuple
    docs: tuple  # the JSON documents handed to the program


def doc_of(name: str, atoms: tuple) -> dict:
    return {
        "name": name,
        "atoms": [{"value": f"{v.numerator}/{v.denominator}", "mass": f"{m.numerator}/{m.denominator}"}
                  for v, m in atoms],
    }


def generate_pairs(workload: str, seed: int, blocks: int = POOL_BLOCKS) -> list:
    """Blocks of pairs for ``pairs-free`` or ``pairs-dominated``.

    Every block holds, for each order, one pair from each half of the
    support-size range.  The two positions mirror each other (u/2 and
    1 - u/2), so the two sizes of an order sum to the same total in
    every block.  u steps through a golden-ratio sequence from a random
    start, one step per block: m is uniform over the range, and the
    first few blocks of a run already cover it evenly.  On
    ``pairs-free`` the second support is the first scaled by 1 + r and
    1 - r.  Each block therefore has the same mix of orders and nearly
    the same amount of work, whatever the seed, and a run's figures do
    not shift with how many blocks it completes.
    """
    rng = random.Random(f"{workload}/{seed}")
    orders = FREE_ORDERS if workload == "pairs-free" else DOMINATED_ORDERS
    starts = {n: rng.random() for n in orders}
    out = []
    for b in range(blocks):
        block = []
        for n in orders:
            u, r = (starts[n] + b * GOLDEN) % 1.0, rng.uniform(-0.2, 0.2)
            for pos, scale in ((u / 2, 1 + r), (1 - u / 2, 1 - r)):
                if workload == "pairs-free":
                    lo, hi = 20, free_m_max(n)
                    m = lo + min(hi - lo, int(pos * (hi - lo + 1)))
                    m_y = max(lo, min(hi, round(scale * m)))
                    x, y = _random_atoms(rng, m), _random_atoms(rng, m_y)
                else:
                    x = _random_atoms(rng, 25 + min(75, int(pos * 76)))
                    y = _spread(x, Fraction(rng.randint(1, 8), 4))
                block.append(Pair(n, x, y, (doc_of("x", x), doc_of("y", y))))
        rng.shuffle(block)
        out.append(block)
    return out


def parse_pool(api, blocks: list) -> list:
    """The program's own distributions for every generated document."""
    return [[tuple(api.parse_distribution(d) for d in pair.docs) for pair in block] for block in blocks]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    decision_ms: list = field(default_factory=list)  # (label, ms)
    verdicts: list = field(default_factory=list)  # (op, call, ..., relation, strict)
    problems: list = field(default_factory=list)

    def fail(self, op: int, why, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(f"op {op}: {why}")


DECISIONS = ("sd_compare", "isd_compare", "strong_isd_compare")
MODES = {"sd_compare": "sd", "isd_compare": "isd", "strong_isd_compare": "strong-isd"}


def _calls(workload: str, pair: Pair) -> list:
    """(call name, first argument is x) for one pair query."""
    if workload == "pairs-free":
        return [(c, True) for c in DECISIONS + ("sd_moment_filter", "isd_orderstat_filter")]
    return [(c, first) for c in DECISIONS for first in (True, False)]


def _expected_dominated(call: str, n: int, x_first: bool) -> tuple:
    """(relation, strict) known by construction: x is a strict
    mean-preserving contraction of y, so x dominates y in SD and ISD at
    every order >= 2; strong ISD also needs mu_{1:j} equal for j < n,
    which holds for j = 1 (equal means) and fails for j = 2."""
    if call == "strong_isd_compare" and n >= 3:
        return ("Incomparable", False)
    return ("RightDominated" if x_first else "LeftDominated", True)


def run_pair(api, workload: str, op: int, pair: Pair, dists: tuple, tally: Tally) -> None:
    """One timed pair query, then its exact checks outside the timing."""
    dx, dy = dists
    results = []
    start = time.perf_counter()
    try:
        for call, x_first in _calls(workload, pair):
            fn = getattr(api, call)
            args = (dx, dy) if x_first else (dy, dx)
            t0 = time.perf_counter()
            res = fn(*args, pair.n)
            t1 = time.perf_counter()
            results.append((call, x_first, res))
            if call in DECISIONS:
                tally.decision_ms.append((call, (t1 - t0) * 1000.0))
    except Exception as exc:  # any crash counts against the op, the run goes on
        tally.busy_s += time.perf_counter() - start
        tally.attempted += 1
        tally.fail(op, f"{type(exc).__name__}: {exc}")
        return
    tally.busy_s += time.perf_counter() - start
    tally.attempted += 1
    problems = []
    exact = {}
    for call, x_first, res in results:
        a, b = (pair.x, pair.y) if x_first else (pair.y, pair.x)
        if call in DECISIONS:
            problems += checks.check_verdict(res, a, b, pair.n, MODES[call])
            exact[(call, x_first)] = res.relation.value
            tally.verdicts.append((op, call, x_first, res.relation.value, res.strict))
            if workload == "pairs-dominated":
                want = _expected_dominated(call, pair.n, x_first)
                if (res.relation.value, res.strict) != want:
                    problems.append(f"{call}: {res.relation.value}/{res.strict}, constructed {want}")
        else:
            kind = "sd" if call == "sd_moment_filter" else "isd"
            basis = exact[("sd_compare" if kind == "sd" else "isd_compare", True)]
            problems += checks.check_filter(res, a, b, pair.n, basis, kind)
            tally.verdicts.append((op, call, x_first, res.outcome.value, None))
    if problems:
        tally.fail(op, "; ".join(problems[:3]))


def more_time(busy_s: float, done: int, seconds: float) -> bool:
    """Whether to start another block: only if at least half of an
    average block still fits, so a run's busy time centres on
    ``seconds`` instead of overshooting it by up to a whole block."""
    return busy_s + (busy_s / done if done else 0.0) / 2 < seconds


def run_pairs(api, workload: str, blocks: list, dists: list, seconds: float, min_blocks: int,
              before_op=None, after_block=None) -> Tally:
    """Whole blocks, at least ``min_blocks``, while ``more_time`` says
    another fits in ``seconds`` of busy time; ``before_op(op)`` runs
    before each op and ``after_block()`` after each block, both outside
    the timing."""
    tally = Tally()
    b = 0
    while b < min_blocks or more_time(tally.busy_s, b, seconds):
        i = b % len(blocks)
        for j, pair in enumerate(blocks[i]):
            op = b * len(blocks[i]) + j
            if before_op is not None:
                before_op(op)
            run_pair(api, workload, op, pair, dists[i][j], tally)
        b += 1
        if after_block is not None:
            after_block()
    return tally


# ---------------------------------------------------------------------------
# falsify-cli
# ---------------------------------------------------------------------------


def sweep_seeds(seed: int, count: int) -> list:
    rng = random.Random(f"falsify-cli/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_suite(suite: str, trials: int, seed: int) -> tuple:
    """(wall seconds, completed process) for one ``stochdom falsify`` run,
    launched as ``python -m stochdom.cli`` with ``src`` on the path."""
    cmd = [sys.executable, "-m", "stochdom.cli", "falsify", "--suite", suite,
           "--trials", str(trials), "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=cli_env(), cwd=ROOT, timeout=120)
    return time.perf_counter() - t0, proc


def run_falsify_cli(seed: int, seconds: float, trials: dict, min_sweeps: int, after_block=None) -> Tally:
    """Whole sweeps of every suite, at least ``min_sweeps``, while
    ``more_time`` says another fits in ``seconds`` of busy time; an op
    is one trial, and a suite run that fails fails all its trials.  A run
    that times out ends the loop, so the benchmark still ends in time."""
    tally = Tally()
    seeds = sweep_seeds(seed, 1000)
    k = 0
    while k < min_sweeps or more_time(tally.busy_s, k, seconds):
        sweep_s = 0.0
        for i, suite in enumerate(sorted(trials)):
            op = k * len(trials) + i
            tally.attempted += trials[suite]
            try:
                wall, proc = run_cli_suite(suite, trials[suite], seeds[k])
            except subprocess.TimeoutExpired as exc:
                tally.busy_s += exc.timeout
                tally.fail(op, f"{suite} timed out", trials[suite])
                return tally
            tally.busy_s += wall
            sweep_s += wall
            problems, result = checks.check_suite_output(proc, suite, trials[suite], seeds[k])
            if problems:
                tally.fail(op, "; ".join(problems), trials[suite])
                continue
            stats = json.dumps(result["stats"], sort_keys=True)
            tally.verdicts.append((op, suite, seeds[k], "passed", stats))
        # the latency unit is one sweep, the whole battery's pass or fail:
        # single invocations differ by suite, so their percentiles would
        # sit on the edge between two suites' clusters
        tally.decision_ms.append(("sweep", sweep_s * 1000.0))
        k += 1
        if after_block is not None:
            after_block()
    return tally
