"""Necessary-condition prefilters for dominance queries.

These run in moment space only: they can refute a dominance direction
from exact raw moments or expected minimum order statistics without
building curves, but they can never confirm one.  All comparisons are
exact rational equalities and inequalities; there is no tolerance.

Direction convention matches the dominance module: RefutesLeftDominance
means "the first argument cannot be dominated by the second".

The raw-moment filter screens both directions of the n-SD query in one
pass via the alternating moment inequalities: when the first k-1 raw
moments agree, the dominating side must win the (-1)^(k-1)-alternated
comparison of the k-th moment, for k below the order (the mean
comparison is a valid screen at every order).  When all moments up to
the order agree, strict dominance either way is impossible; that is
recorded as a failed check without refuting, since non-strict
equivalence remains open.

The order-statistic filter screens the left direction of the n-ISD
query at orders >= 3 (screen the reverse by swapping the arguments):
a dominated variable must have mu_{1:k} no larger than the dominator's
for every k >= n-1, strictly so for k >= n unless the distributions are
identical, and when the top of the mu chain is exactly equal the
alternating inequality applies at the first index where equality
breaks.  Orders 1 and 2 are excluded: the strict order-statistic
conclusions fail there.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ._scalar import Rat
from .distributions import DiscreteDistribution, min_orderstat_means, raw_moment
from .dominance import Relation, isd_compare, sd_compare
from .errors import OrderOutOfRange
from .transforms import N_MAX


class FilterOutcome(Enum):
    REFUTES_LEFT_DOMINANCE = "RefutesLeftDominance"
    REFUTES_RIGHT_DOMINANCE = "RefutesRightDominance"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class FilterCheck:
    name: str
    quantity_left: Rat
    quantity_right: Rat
    required_relation: str
    satisfied: bool


@dataclass(frozen=True)
class FilterReport:
    outcome: FilterOutcome
    checks: tuple

    @property
    def refutes_left(self) -> bool:
        return self.outcome is FilterOutcome.REFUTES_LEFT_DOMINANCE

    @property
    def refutes_right(self) -> bool:
        return self.outcome is FilterOutcome.REFUTES_RIGHT_DOMINANCE


def sd_moment_filter(
    x: DiscreteDistribution, y: DiscreteDistribution, n: int
) -> FilterReport:
    """Raw-moment screen for the n-SD query between x and y."""
    if not 1 <= n <= N_MAX:
        raise OrderOutOfRange(f"order {n} outside [1, {N_MAX}]")
    checks: list[FilterCheck] = []
    first_diff = None
    for k in range(1, n + 1):
        mx, my = raw_moment(x, k), raw_moment(y, k)
        if mx == my:
            checks.append(
                FilterCheck(f"raw_moment_equal_k{k}", mx, my, "left == right", True)
            )
            continue
        first_diff = (k, mx, my)
        break
    if first_diff is None:
        mn_x, mn_y = raw_moment(x, n), raw_moment(y, n)
        checks.append(
            FilterCheck(
                "strict_alternating_moment",
                mn_x,
                mn_y,
                "strict n-dominance either way needs the n-th moments to differ",
                False,
            )
        )
        return FilterReport(FilterOutcome.INCONCLUSIVE, tuple(checks))
    k, mx, my = first_diff
    sign = 1 if (k - 1) % 2 == 0 else -1
    left_ok = sign * (my - mx) > 0  # dominator y must win the alternating test
    right_ok = sign * (mx - my) > 0
    binding = k == 1 or k <= n - 1
    tag = "alternating_moment" if binding else "strict_alternating_moment"
    relation = f"(-1)^{k - 1} * E[dominator^{k}] >= (-1)^{k - 1} * E[dominated^{k}]"
    checks.append(FilterCheck(f"{tag}_left_k{k}", mx, my, relation, left_ok))
    checks.append(FilterCheck(f"{tag}_right_k{k}", mx, my, relation, right_ok))
    if binding:
        if not left_ok:
            return FilterReport(FilterOutcome.REFUTES_LEFT_DOMINANCE, tuple(checks))
        if not right_ok:
            return FilterReport(FilterOutcome.REFUTES_RIGHT_DOMINANCE, tuple(checks))
    # k == n (and n >= 2): only the strict conclusion applies; recorded,
    # not refuted
    return FilterReport(FilterOutcome.INCONCLUSIVE, tuple(checks))


def isd_orderstat_filter(
    x: DiscreteDistribution, y: DiscreteDistribution, n: int
) -> FilterReport:
    """Minimum-order-statistic screen of "x dominated by y" in n-ISD, n >= 3.

    All mu_{1:k} for k = 1..n+1 are evaluated exactly and recorded; the
    binding requirements are the necessary ordering at k = n-1 (weak) and
    k = n, n+1 (strict for distinct pairs), plus the alternating
    inequality at the first index where the equality chain below k = n-1
    breaks.  Any violated requirement refutes the left direction.
    """
    if not 3 <= n <= N_MAX:
        raise OrderOutOfRange(f"order {n} outside [3, {N_MAX}]")
    mu_x = dict(enumerate(min_orderstat_means(x, n + 1), 1))
    mu_y = dict(enumerate(min_orderstat_means(y, n + 1), 1))
    identical = x.atoms == y.atoms
    checks: list[FilterCheck] = []
    refuted = False

    for k in range(1, n + 2):
        if k == n - 1:
            ok = mu_x[k] <= mu_y[k]
            req = "dominated mu_{1:k} <= dominator mu_{1:k}"
        elif k >= n:
            ok = True if identical else mu_x[k] < mu_y[k]
            req = "dominated mu_{1:k} < dominator mu_{1:k} (distinct pairs)"
        else:
            ok = True
            req = "recorded (not binding at this order)"
        checks.append(FilterCheck(f"minstat_k{k}", mu_x[k], mu_y[k], req, ok))
        refuted |= not ok

    # alternating chain below an exactly equal top
    if mu_x[n - 1] == mu_y[n - 1]:
        for i in range(n - 2, 0, -1):
            if mu_x[i] == mu_y[i]:
                continue
            k_offset = n - 2 - i
            sign = 1 if (k_offset + 1) % 2 == 0 else -1
            ok = sign * mu_x[i] <= sign * mu_y[i]
            checks.append(
                FilterCheck(
                    f"minstat_alternating_k{i}",
                    mu_x[i],
                    mu_y[i],
                    f"(-1)^{k_offset + 1} * dominated mu_{{1:{i}}} <= "
                    f"(-1)^{k_offset + 1} * dominator mu_{{1:{i}}}",
                    ok,
                )
            )
            refuted |= not ok
            break

    # informational record when the chain is equal from index 2 through n
    if all(mu_x[k] == mu_y[k] for k in range(2, n + 1)):
        sign = 1 if n % 2 == 0 else -1
        checks.append(
            FilterCheck(
                "mean_given_minstat_chain",
                mu_x[1],
                mu_y[1],
                f"(-1)^{n} * E[dominated] < (-1)^{n} * E[dominator] "
                "(hypothesis: mu_{1:k} equal for k = 2..n)",
                sign * mu_x[1] < sign * mu_y[1],
            )
        )

    outcome = (
        FilterOutcome.REFUTES_LEFT_DOMINANCE if refuted else FilterOutcome.INCONCLUSIVE
    )
    return FilterReport(outcome, tuple(checks))


def filter_consistency_audit(
    x: DiscreteDistribution, y: DiscreteDistribution, n: int
) -> bool:
    """True iff no filter refutes a direction the exact decision confirms.

    Equivalent verdicts confirm both directions (each dominates the other
    non-strictly), so any refutation on an equivalent pair is unsound.
    The one-sided order-statistic filter is audited both ways by swapping
    its arguments.
    """
    sd_verdict = sd_compare(x, y, n)
    sd_report = sd_moment_filter(x, y, n)
    left_confirmed = sd_verdict.relation in (
        Relation.LEFT_DOMINATED,
        Relation.EQUIVALENT,
    )
    right_confirmed = sd_verdict.relation in (
        Relation.RIGHT_DOMINATED,
        Relation.EQUIVALENT,
    )
    if sd_report.refutes_left and left_confirmed:
        return False
    if sd_report.refutes_right and right_confirmed:
        return False
    if n >= 3:
        isd_verdict = isd_compare(x, y, n)
        left_confirmed = isd_verdict.relation in (
            Relation.LEFT_DOMINATED,
            Relation.EQUIVALENT,
        )
        right_confirmed = isd_verdict.relation in (
            Relation.RIGHT_DOMINATED,
            Relation.EQUIVALENT,
        )
        if isd_orderstat_filter(x, y, n).refutes_left and left_confirmed:
            return False
        if isd_orderstat_filter(y, x, n).refutes_left and right_confirmed:
            return False
    return True
