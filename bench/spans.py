"""Spans around stochdom's entry points, recorded from outside the package.

``tracing(recorder)`` rebinds each entry point's name in every stochdom
module that holds it (``dominance`` imports ``pw_nonneg`` and
``integrated_cdf`` by name, so patching ``stochdom.exact`` alone would
miss those calls) and restores the originals on exit.  Spans live in
memory as ``[name, start, end, parent, op, extra]`` lists; a layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import os
import pstats
import sys
import time
from contextlib import contextmanager

BUILDERS = ("integrated_cdf", "integrated_survival", "integrated_quantile", "integrated_upper_quantile")
COMPARES = ("dominance.sd_compare", "dominance.isd_compare", "dominance.strong_isd_compare")
RELATIONS = ("LeftDominated", "RightDominated", "Equivalent", "Incomparable")


def _keep(res):
    return res


# (module, attribute, span name, what to keep from the result)
TARGETS = [
    ("exact", "pw_nonneg", "exact.pw_nonneg", None),
    ("exact", "nonneg_on_interval", "exact.nonneg_on_interval", None),
    ("exact", "PiecewisePolynomial.make", "exact.make", None),
    ("exact", "pw_linear_combine", "exact.pw_linear_combine", _keep),
    *[("transforms", b, "transforms.build", lambda r: len(r.curve.pieces)) for b in BUILDERS],
    *[("transforms", b + "_via_recursion", "transforms.build", lambda r: len(r.curve.pieces)) for b in BUILDERS],
    *[("dominance", c.split(".")[1], c, lambda r: r.relation.value) for c in COMPARES],
    ("distributions", "convolve", "distributions.convolve", None),
    ("distributions", "min_orderstat_mean", "distributions.min_orderstat_mean", None),
    ("filters", "sd_moment_filter", "filters.sd_moment_filter", lambda r: r.outcome.value),
    ("filters", "isd_orderstat_filter", "filters.isd_orderstat_filter", lambda r: r.outcome.value),
    ("noise", "noise_search", "noise.noise_search", lambda r: (r.status.value, r.candidates_tried)),
    ("falsify", "run_property_suite", "falsify.suite", lambda r: (r.suite_name, r.trials)),
    ("fileio", "parse_distribution", "fileio.parse", None),
]


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1

    def wrap(self, name: str, fn, keep):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep is not None:
                span[5] = keep(res)
            return res

        return traced

    def dump(self, path: str) -> None:
        """Write the spans out, one JSON array per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, extra in self.spans:
                if name == "exact.pw_linear_combine":
                    extra = None
                fh.write(json.dumps([name, start, end, parent, op, extra]) + "\n")


@contextmanager
def tracing(recorder: Recorder):
    """Rebind every target in every loaded stochdom module, then restore.
    A target the package no longer has (the ROADMAP plans to delete the
    ``_via_recursion`` twins, for one) is skipped and its metrics read 0."""
    saved = []
    try:
        for modname, attr, name, keep in TARGETS:
            mod = importlib.import_module("stochdom." + modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                setattr(owner, meth, staticmethod(recorder.wrap(name, orig.__func__, keep)))
                saved.append((owner, meth, orig))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = recorder.wrap(name, orig, keep)
            for m in [m for k, m in sys.modules.items() if k == "stochdom" or k.startswith("stochdom.")]:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        saved.append((m, key, orig))
        yield recorder
    finally:
        for owner, key, orig in reversed(saved):
            setattr(owner, key, orig)


def rational_type():
    """The scalar type in use, ``stochdom._scalar.Rat``, or None once the
    package has no such module."""
    scalar = sys.modules.get("stochdom._scalar")
    return getattr(scalar, "Rat", None)


def profile_shares(fn) -> dict:
    """cProfile ``fn()``: the share of tottime spent in the rational
    type's own methods, and PiecewisePolynomial.make's cumulative share."""
    rat = rational_type()
    rat_file = getattr(sys.modules.get(getattr(rat, "__module__", "")), "__file__", None) or "<builtin>"
    prof = cProfile.Profile()
    prof.runcall(fn)
    total = scalar = make = 0.0
    for (path, _line, func), (_cc, _nc, tt, ct, _callers) in pstats.Stats(prof).stats.items():
        total += tt
        if path == rat_file:
            scalar += tt
        if func == "make" and path.endswith(os.path.join("stochdom", "exact.py")):
            make += ct
    return {"scalar_share": scalar / total, "make_share": make / total}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------


def _ancestors(spans: list, i: int):
    p = spans[i][3]
    while p >= 0:
        yield spans[p]
        p = spans[p][3]


def layer_metrics(spans: list, suites, include) -> dict:
    """Counts, busy seconds and ratios per layer (see README.md) over the
    spans for which ``include(span)`` holds; a span's children belong to
    the same op, so whole subtrees are kept or dropped together."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    kept = [i for i, s in enumerate(spans) if include(s)]
    calls: dict = {}
    busy: dict = {}  # outermost spans of each name, so recursion counts once
    for i in kept:
        s = spans[i]
        calls[s[0]] = calls.get(s[0], 0) + 1
        if all(a[0] != s[0] for a in _ancestors(spans, i)):
            busy[s[0]] = busy.get(s[0], 0.0) + dur[i]

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return busy.get(name, 0.0)

    out = {}
    bits = 0
    sweeps = decisions = 0
    relations = dict.fromkeys(RELATIONS, 0)
    dominance_self = 0.0
    build_calls = build_pieces = 0
    refutes = filters = 0
    candidates = found = 0
    per_suite = {name: [0.0, 0] for name in suites}
    for i in kept:
        name, extra = spans[i][0], spans[i][5]
        if name == "exact.pw_linear_combine":
            for pc in extra.pieces:
                for c in pc.poly.coeffs:
                    bits = max(bits, int(c.numerator).bit_length(), int(c.denominator).bit_length())
        elif name == "exact.pw_nonneg":
            if any(a[0] in COMPARES for a in _ancestors(spans, i)):
                sweeps += 1
        elif name in COMPARES:
            dominance_self += dur[i] - child[i]
            if name != "dominance.strong_isd_compare":
                decisions += 1
            if not any(a[0] in COMPARES for a in _ancestors(spans, i)):
                relations[extra] += 1
        elif name == "transforms.build":
            if all(a[0] != name for a in _ancestors(spans, i)):
                build_calls += 1
                build_pieces += extra
        elif name.startswith("filters."):
            filters += 1
            refutes += extra != "Inconclusive"
        elif name == "noise.noise_search":
            candidates += extra[1]
            found += extra[0] == "Found"
        elif name == "falsify.suite":
            per_suite[extra[0]][0] += dur[i]
            per_suite[extra[0]][1] += extra[1]

    out["scalar.coeff_bits_max"] = bits
    for name in ("exact.pw_nonneg", "exact.nonneg_on_interval", "exact.make"):
        out[name + ".calls"] = n(name)
        out[name + ".s"] = s(name)
    out["exact.sweeps_per_decision"] = sweeps / max(decisions, 1)
    out["exact.pw_linear_combine.s"] = s("exact.pw_linear_combine")
    out["transforms.build.calls"] = build_calls
    out["transforms.build.s"] = s("transforms.build")
    out["transforms.build.pieces"] = build_pieces
    for name in COMPARES:
        out[name + ".s"] = s(name)
    out["dominance.self_s"] = dominance_self
    for rel in RELATIONS:
        out["dominance.relation." + rel] = relations[rel]
    out["distributions.convolve.s"] = s("distributions.convolve")
    out["distributions.min_orderstat_mean.calls"] = n("distributions.min_orderstat_mean")
    out["distributions.min_orderstat_mean.s"] = s("distributions.min_orderstat_mean")
    out["filters.sd_moment_filter.s"] = s("filters.sd_moment_filter")
    out["filters.isd_orderstat_filter.s"] = s("filters.isd_orderstat_filter")
    out["filters.refute_share"] = refutes / max(filters, 1)
    out["noise.noise_search.calls"] = n("noise.noise_search")
    out["noise.noise_search.s"] = s("noise.noise_search")
    out["noise.candidates_tried"] = candidates
    out["noise.found_share"] = found / max(n("noise.noise_search"), 1)
    for name, (secs, trials) in per_suite.items():
        out[f"falsify.{name}.s"] = secs
        out[f"falsify.{name}.trials"] = trials
    out["fileio.parse.s"] = s("fileio.parse")
    return out


def _layer_of(metric: str) -> str:
    """The span-name prefix a metric is measured on."""
    parts = metric.split(".")
    if parts[0] == "distributions":
        return ".".join(parts[:2])
    if parts[0] == "scalar":
        return "exact.pw_linear_combine"
    return parts[0]


def workload_metrics(spans: list, suites, is_tour) -> dict:
    """Per-layer metrics of the workload's own spans; a layer the workload
    never calls is measured on the falsify tour's spans instead."""
    own = layer_metrics(spans, suites, lambda sp: not is_tour(sp))
    tour = layer_metrics(spans, suites, is_tour)
    called = {sp[0] for sp in spans if not is_tour(sp)}

    def reached(metric):
        layer = _layer_of(metric)
        return any(name == layer or name.startswith(layer + ".") for name in called)

    return {name: own[name] if reached(name) else tour[name] for name in own}
