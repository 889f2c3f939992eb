"""Command-line interface: batch dominance queries with JSON output.

Every invocation writes a single JSON document to stdout with stable
key order and all rationals as ``p/q`` strings.  Exit codes: 0 means
the command succeeded and, for ``compare``, the first distribution is
dominated by the second in the queried relation (for ``noise-search``,
a noise variable was found; for ``falsify``, no violations); 1 means
the command completed with a negative or inconclusive answer; 2 means
a usage or input error, reported on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._scalar import rat_str
from .distributions import min_orderstat_means, raw_moment
from .dominance import (
    OrderStatCheck,
    Relation,
    Verdict,
    isd_compare,
    sd_compare,
    strong_isd_compare,
)
from .errors import StochdomError
from .exact import NEG_INF, POS_INF, PieceSignDigest
from .falsify import GenConfig, PropertySuiteReport, registered_suites, run_property_suite
from .fileio import curve_sample_csv, export_curve, load_distribution
from .filters import FilterReport, isd_orderstat_filter, sd_moment_filter
from .noise import NoiseSearchReport, SearchBudget, SearchStatus, noise_search
from .transforms import N_MAX, CurveKind, asymptote, integrated_curve


def _count(minimum: int, maximum: int | None = None):
    """argparse type: an integer in [minimum, maximum], so a count out of
    range is a usage error (exit 2) instead of a crash, an empty answer or
    unbounded work."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


def _bound_json(b):
    if b == NEG_INF:
        return "-inf"
    if b == POS_INF:
        return "inf"
    return rat_str(b)


def _certificate_json(certificate) -> list:
    out = []
    for entry in certificate:
        if isinstance(entry, PieceSignDigest):
            out.append(
                {
                    "type": "piece",
                    "lower": _bound_json(entry.lower),
                    "upper": _bound_json(entry.upper),
                    "verdict": entry.verdict.value,
                    "witness": None if entry.witness is None else rat_str(entry.witness),
                    "touch_points": [rat_str(t) for t in entry.touch_points],
                }
            )
        elif isinstance(entry, OrderStatCheck):
            out.append(
                {
                    "type": "min-orderstat-equality",
                    "index": entry.index,
                    "left": rat_str(entry.left),
                    "right": rat_str(entry.right),
                    "equal": entry.equal,
                }
            )
    return out


def _witness_json(w):
    if w is None:
        return None
    return {"point": rat_str(w.point), "gap": rat_str(w.gap)}


def _verdict_json(v: Verdict, with_certificate: bool = True) -> dict:
    doc = {
        "relation": v.relation.value,
        "strict": v.strict,
        "mode": v.mode,
        "order": v.order,
        "witness_left": _witness_json(v.witness_left),
        "witness_right": _witness_json(v.witness_right),
    }
    if with_certificate:
        doc["certificate"] = _certificate_json(v.certificate)
    return doc


def _filter_json(report: FilterReport) -> dict:
    return {
        "outcome": report.outcome.value,
        "checks": [
            {
                "name": c.name,
                "left": rat_str(c.quantity_left),
                "right": rat_str(c.quantity_right),
                "required": c.required_relation,
                "satisfied": c.satisfied,
            }
            for c in report.checks
        ],
    }


def _noise_json(report: NoiseSearchReport) -> dict:
    return {
        "status": report.status.value,
        "gamma": rat_str(report.gamma),
        "candidates_tried": report.candidates_tried,
        "z": None
        if report.z is None
        else [{"value": rat_str(v), "mass": rat_str(m)} for v, m in report.z.atoms],
        "verdict": None
        if report.verdict is None
        else _verdict_json(report.verdict, with_certificate=False),
        "budget": {
            "max_candidates": report.budget.max_candidates,
            "support_cap": report.budget.support_cap,
            "spread": report.budget.spread,
        },
        "notes": list(report.notes),
    }


def _suite_json(report: PropertySuiteReport) -> dict:
    def records(items):
        return [
            {
                "seed": r.seed,
                "pair": [[list(atom) for atom in d] for d in r.pair],
                "property": r.prop,
                "details": r.details,
            }
            for r in items
        ]

    return {
        "suite": report.suite_name,
        "trials": report.trials,
        "passed": report.passed,
        "violations": records(report.violations),
        "witnesses": records(report.witnesses),
        "stats": {k: v for k, v in report.stats},
    }


def _emit(command: str, inputs: dict, result: dict, diagnostics: dict | None = None):
    doc = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "diagnostics": diagnostics or {},
    }
    print(json.dumps(doc, indent=2))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochdom",
        description="Exact higher-order (inverse) stochastic dominance checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="decide a dominance relation between two files")
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--relation", choices=("sd", "isd", "strong-isd"), default="sd"
    )
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("moments", help="raw moments and expected minimum order statistics")
    p.add_argument("--upto", type=_count(1, N_MAX + 1), required=True)
    p.add_argument("dist")

    p = sub.add_parser("transform", help="emit an integrated curve's exact pieces")
    p.add_argument("--kind", choices=sorted(k.value for k in CurveKind), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("dist")

    p = sub.add_parser("asymptote", help="moment polynomial matching the curve tail")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("dist")

    p = sub.add_parser("filter", help="run the necessary-condition prefilters only")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("noise-search", help="search for dominance-creating noise")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--relation", choices=("sd", "isd"), default="sd")
    p.add_argument("--max-candidates", type=_count(1), default=64)
    p.add_argument("--support-cap", type=_count(1), default=10**6)
    p.add_argument("--spread", type=_count(1), default=1)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("falsify", help="run a registered property suite")
    p.add_argument("--suite", required=True, help=", ".join(registered_suites()))
    p.add_argument("--trials", type=_count(1), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--denominator-cap", type=_count(1), default=12)

    p = sub.add_parser("export-curve", help="sample a curve on a rational grid")
    p.add_argument("--kind", choices=sorted(k.value for k in CurveKind), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--grid", type=_count(2), default=33)
    p.add_argument("--csv-out", default=None)
    p.add_argument("dist")

    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except StochdomError as exc:
        print(f"stochdom: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "compare":
        x = load_distribution(args.left)
        y = load_distribution(args.right)
        decide = {"sd": sd_compare, "isd": isd_compare, "strong-isd": strong_isd_compare}[
            args.relation
        ]
        verdict = decide(x, y, args.order)
        _emit(
            "compare",
            {"left": args.left, "right": args.right, "relation": args.relation,
             "order": args.order},
            _verdict_json(verdict),
        )
        return 0 if verdict.relation is Relation.LEFT_DOMINATED else 1

    if args.command == "moments":
        d = load_distribution(args.dist)
        result: dict = {}
        for k in range(1, args.upto + 1):
            result[f"moment_{k}"] = rat_str(raw_moment(d, k))
        for k, mu in enumerate(min_orderstat_means(d, args.upto), 1):
            result[f"mu_1_{k}"] = rat_str(mu)
        _emit("moments", {"dist": args.dist, "upto": args.upto}, result)
        return 0

    if args.command == "transform":
        d = load_distribution(args.dist)
        kind = CurveKind(args.kind)
        curve = integrated_curve(d, kind, args.order).curve
        result = {
            "kind": kind.value,
            "order": args.order,
            "continuity_class": curve.continuity_class,
            "pieces": [
                {
                    "lower": _bound_json(pc.lower),
                    "upper": _bound_json(pc.upper),
                    "coefficients": [rat_str(c) for c in pc.poly.coeffs],
                }
                for pc in curve.pieces
            ],
        }
        _emit("transform", {"dist": args.dist, "kind": args.kind, "order": args.order},
              result)
        return 0

    if args.command == "asymptote":
        d = load_distribution(args.dist)
        a = asymptote(d, args.order)
        _emit(
            "asymptote",
            {"dist": args.dist, "order": args.order},
            {
                "order": a.order,
                "side": a.side.value,
                "coefficients": [rat_str(c) for c in a.poly.coeffs],
            },
        )
        return 0

    if args.command == "filter":
        x = load_distribution(args.left)
        y = load_distribution(args.right)
        result = {"sd_moment": _filter_json(sd_moment_filter(x, y, args.order))}
        if args.order >= 3:
            result["isd_orderstat"] = _filter_json(
                isd_orderstat_filter(x, y, args.order)
            )
        else:
            result["isd_orderstat"] = None
        _emit(
            "filter",
            {"left": args.left, "right": args.right, "order": args.order},
            result,
        )
        return 0

    if args.command == "noise-search":
        x = load_distribution(args.left)
        y = load_distribution(args.right)
        budget = SearchBudget(
            max_candidates=args.max_candidates,
            support_cap=args.support_cap,
            spread=args.spread,
        )
        report = noise_search(x, y, args.order, budget, relation=args.relation)
        _emit(
            "noise-search",
            {"left": args.left, "right": args.right, "order": args.order,
             "relation": args.relation},
            _noise_json(report),
        )
        return 0 if report.status is SearchStatus.FOUND else 1

    if args.command == "falsify":
        cfg = GenConfig(seed=args.seed, denominator_cap=args.denominator_cap)
        report = run_property_suite(args.suite, args.trials, cfg)
        _emit(
            "falsify",
            {"suite": args.suite, "trials": args.trials, "seed": args.seed},
            _suite_json(report),
        )
        return 0 if report.passed else 1

    if args.command == "export-curve":
        d = load_distribution(args.dist)
        sample = export_curve(d, CurveKind(args.kind), args.order, args.grid)
        if args.csv_out:
            with open(args.csv_out, "w", encoding="utf-8", newline="") as fh:
                fh.write(curve_sample_csv(sample))
        _emit(
            "export-curve",
            {"dist": args.dist, "kind": args.kind, "order": args.order,
             "grid": args.grid, "csv_out": args.csv_out},
            {
                "kind": sample.kind.value,
                "order": sample.order,
                "points": [
                    {"t": t, "value": value, "exact_value": exact}
                    for t, value, exact in sample.points
                ],
            },
        )
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
