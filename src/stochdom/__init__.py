"""Exact verification of higher-order (inverse) stochastic dominance
for finitely supported distributions.

Everything runs in arbitrary-precision rational arithmetic: integrated
distribution/quantile curves are exact piecewise polynomials, dominance
verdicts come with rational witnesses and per-piece sign certificates,
and the moment / order-statistic prefilters, background-noise search,
and randomized falsification suites share the same exact kernel.

Importing the package loads only the scalars and the errors.  Every
other public name, and every submodule, loads on first access (PEP 562),
so a caller pays only for the modules it uses.  The package caches no
such name, so it always hands out what the module holds now.

The entry points that a tracer or a mock rebinds for a while (the
compares, ``exact.pw_nonneg`` and ``pw_linear_combine``,
``distributions.convolve`` and ``min_orderstat_mean``) are called
through their module, as in ``exact.pw_nonneg(...)``, not through a name
bound at import.  A rebinding then reaches every caller, including a
module first loaded while it was on, and undoing it leaves no copy
behind.
"""

from importlib import import_module as _import_module

from ._scalar import Rat, rat, rat_str
from .errors import (
    DomainMismatch,
    EmptySupport,
    GenerationExhausted,
    InvalidArgument,
    InvalidBudget,
    MassNotOne,
    MomentHypothesisViolated,
    NegativeMass,
    NonIntegrable,
    OrderOutOfRange,
    ParseError,
    StochdomError,
    SupportCapExceeded,
    UnknownSuite,
    ValidationError,
    ValueTooLarge,
)

# submodule -> the public names it defines; each loads on first access
_LAZY = {
    "distributions": (
        "DiscreteDistribution", "QuantileStep", "convolve", "dist_validate",
        "min_orderstat_mean", "min_orderstat_means", "point_mass", "quantile",
        "raw_moment",
    ),
    "dominance": (
        "Relation", "Verdict", "Witness", "isd_compare", "sd_compare",
        "strong_isd_compare",
    ),
    "exact": (
        "Piece", "PiecewisePolynomial", "Polynomial", "SignReport", "SignVerdict",
        "nonneg_on_interval", "nonneg_on_ray", "pw_antiderivative", "pw_linear_combine",
    ),
    "falsify": (
        "GenConfig", "PropertySuiteReport", "gen_moment_matched_pair",
        "gen_orderstat_matched_pair", "gen_random_dist", "registered_suites",
        "run_property_suite",
    ),
    "fileio": (
        "CurveSample", "dump_distribution", "export_curve", "load_distribution",
        "parse_distribution",
    ),
    "filters": (
        "FilterOutcome", "FilterReport", "filter_consistency_audit",
        "isd_orderstat_filter", "sd_moment_filter",
    ),
    "noise": (
        "NoiseSearchReport", "SearchBudget", "SearchStatus", "dominance_gap_integral",
        "noise_precondition", "noise_search",
    ),
    "transforms": (
        "AsymptotePoly", "AsymptoteSide", "CurveKind", "IntegratedCurve", "N_MAX",
        "asymptote", "difference_curve", "integrated_curve",
        "integrated_curve_via_recursion", "orderstat_expansion",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(
    [name for name in globals() if not name.startswith("_")] + list(_HOME) + list(_LAZY)
)


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
