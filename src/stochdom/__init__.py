"""Exact verification of higher-order (inverse) stochastic dominance
for finitely supported distributions.

Everything runs in arbitrary-precision rational arithmetic: integrated
distribution/quantile curves are exact piecewise polynomials, dominance
verdicts come with rational witnesses and per-piece sign certificates,
and the moment / order-statistic prefilters, background-noise search,
and randomized falsification suites share the same exact kernel.
"""

from ._scalar import Rat, rat, rat_str
from .distributions import (
    DiscreteDistribution,
    QuantileStep,
    convolve,
    dist_validate,
    min_orderstat_mean,
    min_orderstat_means,
    point_mass,
    quantile,
    raw_moment,
)
from .dominance import (
    Relation,
    Verdict,
    Witness,
    isd_compare,
    sd_compare,
    strong_isd_compare,
)
from .errors import (
    DomainMismatch,
    EmptySupport,
    GenerationExhausted,
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
from .exact import (
    Piece,
    PiecewisePolynomial,
    Polynomial,
    SignReport,
    SignVerdict,
    nonneg_on_interval,
    nonneg_on_ray,
    pw_antiderivative,
    pw_linear_combine,
)
from .falsify import (
    GenConfig,
    PropertySuiteReport,
    gen_moment_matched_pair,
    gen_orderstat_matched_pair,
    gen_random_dist,
    registered_suites,
    run_property_suite,
)
from .fileio import (
    CurveSample,
    dump_distribution,
    export_curve,
    load_distribution,
    parse_distribution,
)
from .filters import (
    FilterOutcome,
    FilterReport,
    filter_consistency_audit,
    isd_orderstat_filter,
    sd_moment_filter,
)
from .noise import (
    NoiseSearchReport,
    SearchBudget,
    SearchStatus,
    dominance_gap_integral,
    noise_precondition,
    noise_search,
)
from .transforms import (
    AsymptotePoly,
    AsymptoteSide,
    CurveKind,
    IntegratedCurve,
    N_MAX,
    asymptote,
    difference_curve,
    integrated_curve,
    integrated_curve_via_recursion,
    orderstat_expansion,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
