"""stochdom benchmark: three seeded workloads, exact checks, one JSON line.

    python3 bench/run.py --workload pairs-free --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run.  The
line before it is an ``info`` object with the run metadata, the verdict
digest and the error rate.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import workloads as wl
from spans import Recorder, profile_shares, rational_type, tracing, workload_metrics

WORKLOADS = ("pairs-free", "pairs-dominated", "falsify-cli")


@dataclass(frozen=True)
class Scale:
    pool_blocks: int  # pair blocks generated at set-up
    min_blocks: int  # blocks (or sweeps) every run completes; the digest covers them
    setup_probes: int  # fresh processes timed for setup_s
    sweep_divisor: int  # falsify-cli runs GATE_TRIALS / divisor per suite
    tour_divisor: int  # the falsify tour of a traced pairs-* run
    om_trials: int  # order-monotonicity trials of the profile check
    trace_blocks: int  # pair blocks of a traced run
    block_pairs: int | None  # pairs kept per block (None: all)


FULL = Scale(wl.POOL_BLOCKS, 2, 5, 10, 100, 200, 1, None)
TINY = Scale(1, 1, 1, 1000, 1000, 4, 1, 2)


def percentile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by a Beta((n+1)q, (n+1)(1-q)) density over their cells.  It
    moves smoothly where a single order statistic would jump between two
    clusters of samples, such as the orders of a pairs block."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)

    def log_density(t):
        return (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)

    # Simpson's rule on each cell [i/n, (i+1)/n], evaluated in log space
    # and shifted by the largest value so large n cannot underflow
    points = [(2 * i + 1) / (2 * n) for i in range(n)] + [i / n for i in range(1, n)]
    peak = max(log_density(t) for t in points)

    def density(t):
        return math.exp(log_density(t) - peak) if 0 < t < 1 else 0.0

    weights = [density(i / n) + 4 * density((2 * i + 1) / (2 * n)) + density((i + 1) / n) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def import_api():
    """stochdom from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, wl.SRC)
    import stochdom

    if not os.path.abspath(stochdom.__file__).startswith(os.path.join(wl.SRC, "")):
        raise ImportError(f"found stochdom at {stochdom.__file__}, outside this checkout")
    return stochdom


def setup(api, workload: str, seed: int, scale: Scale) -> tuple:
    """Everything before the first timed op: inputs and their parse."""
    if workload == "falsify-cli":
        return wl.sweep_trials(scale.sweep_divisor), None
    blocks = [b[:scale.block_pairs] for b in wl.generate_pairs(workload, seed, scale.pool_blocks)]
    return blocks, wl.parse_pool(api, blocks)


def setup_probe_s(args) -> float:
    """Wall time from launching a fresh process to its first timed op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - t0


def peak_rss_mb() -> float:
    """Own peak plus the largest child's: at most one child runs at a time."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def digest(workload: str, verdicts: list, ops: int) -> str:
    """Hash of (workload, op, call, relation, strict) over the first ops,
    which every run completes; witness points are left out."""
    h = hashlib.sha256()
    for entry in sorted(v for v in verdicts if v[0] < ops):
        h.update(("|".join(map(str, (workload,) + tuple(entry))) + "\n").encode())
    return h.hexdigest()[:16]


def metadata(args) -> dict:
    try:
        git = [subprocess.run(["git", "-C", wl.ROOT, "rev-parse", what], capture_output=True,
                              text=True, timeout=30).stdout.strip() for what in ("--show-toplevel", "HEAD")]
        commit = git[1] if git[0] and os.path.samefile(git[0], wl.ROOT) else None
    except OSError:
        commit = None
    lines = 0
    for base, _dirs, files in os.walk(wl.SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    rat = rational_type()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "python": sys.version.split()[0],
        "scalar": None if rat is None else f"{rat.__module__}.{rat.__qualname__}",
        "nproc": os.cpu_count(),
        "src_lines": lines,
    }


def untraced(api, args, scale: Scale) -> tuple:
    # setup probes run between blocks, so setup_s samples the machine over
    # the same stretch of time as the other metrics
    probes = []

    def probe():
        if len(probes) < scale.setup_probes:
            probes.append(setup_probe_s(args))

    state, dists = setup(api, args.workload, args.seed, scale)
    if args.workload == "falsify-cli":
        tally = wl.run_falsify_cli(args.seed, args.seconds, state, scale.min_blocks, probe)
        ops = scale.min_blocks * len(state)
    else:
        tally = wl.run_pairs(api, args.workload, state, dists, args.seconds, scale.min_blocks,
                             after_block=probe)
        ops = scale.min_blocks * len(state[0])
    while len(probes) < scale.setup_probes:
        probe()
    done = tally.attempted - tally.failed
    samples = [ms for _, ms in tally.decision_ms]
    metrics = {
        "throughput_ops_s": (done / tally.busy_s, "1/s"),
        "decision_p50_ms": (percentile(samples, 0.5), "ms"),
        "decision_p90_ms": (percentile(samples, 0.9), "ms"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "digest": digest(args.workload, tally.verdicts, ops),
        "digest_ops": ops,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "decision_samples": len(samples),
        "busy_s": tally.busy_s,
        "setup_probes_s": probes,
    }
    return tally, metrics, info


def _tour(api, trials: dict, seed: int, recorder=None) -> tuple:
    """In-process run of every suite: (per-suite wall seconds, failures)."""
    walls, failures = {}, []
    for suite in sorted(trials):
        if recorder is not None:
            recorder.op = "falsify:" + suite
        t0 = time.perf_counter()
        try:
            report = api.run_property_suite(suite, trials[suite], api.GenConfig(seed=seed))
            if not report.passed:
                failures.append(f"{suite}: in-process run reports violations")
        except Exception as exc:  # counted, the traced run goes on
            failures.append(f"{suite}: {type(exc).__name__}: {exc}")
        walls[suite] = time.perf_counter() - t0
    return walls, failures


def _import_ms() -> float:
    code = "import time; t = time.perf_counter(); import stochdom.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=wl.cli_env(), timeout=60)
        samples.append(float(proc.stdout.split()[-1]) * 1000.0)
    return statistics.median(samples)


def traced(api, args, scale: Scale) -> tuple:
    """Per-layer metrics from a fixed slice of the workload, recorded twice:
    untraced for the overhead baseline, then with spans.  A falsify tour
    (the workload itself on falsify-cli, a small one on pairs-*) makes
    every layer report on every workload."""
    rec = Recorder()
    pairs = args.workload != "falsify-cli"
    # fileio has no traffic on falsify-cli; it parses the first pairs-free block there
    blocks = [b[:scale.block_pairs] for b in
              wl.generate_pairs(args.workload if pairs else "pairs-free", args.seed, scale.trace_blocks)]
    with tracing(rec):
        dists = wl.parse_pool(api, blocks)
    tour_trials = wl.sweep_trials(scale.tour_divisor if pairs else scale.sweep_divisor)
    tour_seed = wl.sweep_seeds(args.seed, 1)[0]

    def before_op(op):
        rec.op = op

    def workload_slice(recorder=None):
        tally = None
        if pairs:
            tally = wl.run_pairs(api, args.workload, blocks, dists, 0, scale.trace_blocks,
                                 before_op if recorder else None)
        walls, failures = _tour(api, tour_trials, tour_seed, recorder)
        return tally, walls, failures

    # untraced, traced, untraced again: the overhead baseline is the mean
    # of the two untraced passes, so drift within the run cancels
    t0 = time.perf_counter()
    _, walls_plain, _ = workload_slice()
    t1 = time.perf_counter()
    with tracing(rec):
        tally, _, failures = workload_slice(rec)
    t2 = time.perf_counter()
    workload_slice()
    plain_s = (t1 - t0 + time.perf_counter() - t2) / 2
    traced_s = t2 - t1

    overhead = []
    for suite in sorted(tour_trials):
        wall, proc = wl.run_cli_suite(suite, tour_trials[suite], tour_seed)
        problems, _ = checks.check_suite_output(proc, suite, tour_trials[suite], tour_seed)
        failures += problems
        overhead.append((wall - walls_plain[suite]) * 1000.0)

    if pairs:
        profiled = profile_shares(lambda: wl.run_pairs(api, args.workload, blocks[:1], dists[:1], 0, 1))
    else:
        profiled = profile_shares(lambda: _tour(api, tour_trials, tour_seed))
    om200 = profile_shares(lambda: api.run_property_suite(
        "order-monotonicity", scale.om_trials, api.GenConfig(seed=tour_seed)))

    values = {"scalar.self_share": profiled["scalar_share"]}
    values.update(workload_metrics(rec.spans, sorted(wl.GATE_TRIALS),
                                   lambda sp: pairs and isinstance(sp[4], str)))
    values["cli.import_ms"] = _import_ms()
    values["cli.overhead_ms"] = statistics.median(overhead)
    values["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    values["profile.om200.scalar_share"] = om200["scalar_share"]
    values["profile.om200.make_share"] = om200["make_share"]
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}

    rec.dump(os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                          f"trace-{args.workload}-{args.seed}.jsonl"))
    attempted = (tally.attempted if tally else 0) + sum(tour_trials.values())
    failed = (tally.failed if tally else 0) + len(failures)
    info = {
        "spans": len(rec.spans),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "problems": failures + (tally.problems if tally else []),
    }
    return attempted, failed, metrics, info


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("_per_decision"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    scale = TINY if args.tiny else FULL

    try:
        api = import_api()
    except ImportError as exc:
        print(f"bench: cannot import stochdom from {wl.SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(api, args.workload, args.seed, scale)
        print(time.monotonic())
        return 0

    if args.trace:
        attempted, failed, metrics, info = traced(api, args, scale)
    else:
        tally, metrics, info = untraced(api, args, scale)
        attempted, failed = tally.attempted, tally.failed
        info["problems"] = tally.problems
    info.update(metadata(args))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
