"""Background-noise search: find Z with X+Z strictly n-dominating Y+Z.

The moment precondition is that x and y share raw moments up to order
n-1 while (-1)^(n-1) E[x^n] > (-1)^(n-1) E[y^n]; the dominance gap
integral of such a pair equals gamma = (-1)^n (E[y^n]-E[x^n]) / n!,
which is then strictly positive.  Convolving a common independent noise
variable onto both sides can convert that moment ranking into exact
strict n-SD.

The search is an explicit bounded walk over a deterministic family of
uniform lattice distributions: step h = spread/q with q the least
common denominator of both supports (so every convolution stays on one
lattice and exact), half-widths growing linearly and then geometrically.
Found results carry the verdict of the exact dominance comparison on
the convolved pair.  NotFound is an honest budget outcome, never a
non-existence claim -- except that two support-hull obstructions are
conclusive for every finitely supported Z and short-circuit the walk:
the dominating side's support minimum may not lie below the dominated
side's, and its maximum may not lie below (odd orders) or above (even
orders) the dominated side's.

An experimental inverse-dominance probe is available through
``relation="isd"``: it retargets the same walk at the n-ISD comparison
under the matching minimum-order-statistic precondition.  Its outcome
carries no theorem; callers log it descriptively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ._scalar import Rat, ZERO, rat
from .distributions import (
    DiscreteDistribution,
    convolve,
    min_orderstat_means,
    raw_moment,
)
from .dominance import Relation, Verdict, isd_compare, sd_compare
from .errors import InvalidBudget, MomentHypothesisViolated, OrderOutOfRange
from .exact import pw_linear_combine, pw_integral
from .transforms import N_MAX, CurveKind, integrated_curve


@dataclass(frozen=True)
class SearchBudget:
    """Search configuration; the candidate order is prefix-stable, so a
    larger budget only ever extends the walk."""

    max_candidates: int = 64
    support_cap: int = 10**6
    spread: int = 1


class SearchStatus(Enum):
    FOUND = "Found"
    NOT_FOUND = "NotFound"
    PRECONDITION_REFUTED = "PreconditionRefuted"


@dataclass(frozen=True)
class PreconditionReport:
    ok: bool
    gamma: Rat
    failing_moment: Optional[int]


@dataclass(frozen=True)
class NoiseSearchReport:
    status: SearchStatus
    z: Optional[DiscreteDistribution]
    verdict: Optional[Verdict]
    gamma: Rat
    candidates_tried: int
    budget: SearchBudget
    notes: tuple


def noise_precondition(
    x: DiscreteDistribution, y: DiscreteDistribution, n: int
) -> PreconditionReport:
    """Exact check of the moment hypotheses; gamma computed regardless."""
    if not 1 <= n <= N_MAX:
        raise OrderOutOfRange(f"order {n} outside [1, {N_MAX}]")
    sign = 1 if n % 2 == 0 else -1
    gamma = sign * (raw_moment(y, n) - raw_moment(x, n)) / math.factorial(n)
    for k in range(1, n):
        if raw_moment(x, k) != raw_moment(y, k):
            return PreconditionReport(False, gamma, k)
    strict_sign = 1 if (n - 1) % 2 == 0 else -1
    if not strict_sign * (raw_moment(x, n) - raw_moment(y, n)) > 0:
        return PreconditionReport(False, gamma, n)
    return PreconditionReport(True, gamma, None)


def _isd_precondition(
    x: DiscreteDistribution, y: DiscreteDistribution, n: int
) -> PreconditionReport:
    """Experimental analogue in minimum-order-statistic space: mu_{1:k}
    equal below n and mu_{1:n} strictly smaller on the side that should
    end up dominated (the orientation exact examples force; see the
    order-statistic filter)."""
    if not 1 <= n <= N_MAX:
        raise OrderOutOfRange(f"order {n} outside [1, {N_MAX}]")
    mu_x, mu_y = min_orderstat_means(x, n), min_orderstat_means(y, n)
    gamma = mu_y[-1] - mu_x[-1]
    for k in range(1, n):
        if mu_x[k - 1] != mu_y[k - 1]:
            return PreconditionReport(False, gamma, k)
    if not gamma > 0:
        return PreconditionReport(False, gamma, n)
    return PreconditionReport(True, gamma, None)


def _common_denominator(x: DiscreteDistribution, y: DiscreteDistribution) -> int:
    q = 1
    for d in (x, y):
        for v, _ in d.atoms:
            q = math.lcm(q, int(v.denominator))
    return q


def _lattice_sizes(max_candidates: int):
    """0, 1, 2, ..., 31, then doubling; deterministic and prefix-stable."""
    emitted = 0
    k = 0
    while emitted < max_candidates:
        yield k
        emitted += 1
        if k < 31:
            k += 1
        elif k == 31:
            k = 32
        else:
            k *= 2


def _uniform_lattice(k: int, h: Rat) -> DiscreteDistribution:
    mass = rat(1, 2 * k + 1)
    return DiscreteDistribution(tuple((i * h, mass) for i in range(-k, k + 1)))


def _hull_obstruction(
    x: DiscreteDistribution, y: DiscreteDistribution, n: int
) -> Optional[str]:
    """Support-hull conditions no finitely supported Z can repair.

    Just above min(x)+min(Z) the order-n integrated CDF of x+Z is
    already positive while y+Z's is still zero, so min(x) >= min(y) is
    necessary.  Beyond the smaller of the two support maxima the curve
    difference reduces to an integrated survival term whose required
    sign flips with the parity of n, forcing the max ordering below.
    """
    if x.min_value < y.min_value:
        return "support minimum of the dominating side lies below the dominated side's"
    if n % 2 == 1 and x.max_value < y.max_value:
        return "odd order needs the dominating side's support maximum at or above the dominated side's"
    if n % 2 == 0 and x.max_value > y.max_value:
        return "even order needs the dominating side's support maximum at or below the dominated side's"
    return None


def noise_search(
    x: DiscreteDistribution,
    y: DiscreteDistribution,
    n: int,
    budget: SearchBudget = SearchBudget(),
    relation: str = "sd",
) -> NoiseSearchReport:
    """Walk the lattice family for Z with x+Z strictly dominating y+Z.

    relation="sd" (the theorem-backed mode) accepts a candidate when the
    exact comparison certifies y+Z strictly below x+Z in n-SD;
    relation="isd" is the experimental inverse-dominance probe.
    """
    if relation not in ("sd", "isd"):
        raise ValueError("relation must be 'sd' or 'isd'")
    if budget.spread < 1:
        # a lattice step of spread/q <= 0 stacks or reverses the atoms of Z
        raise InvalidBudget(f"spread must be at least 1, got {budget.spread}")
    for field in ("max_candidates", "support_cap"):
        # with no candidate to try the walk would end in a vacuous NotFound
        if getattr(budget, field) < 1:
            raise InvalidBudget(f"{field} must be at least 1, got {getattr(budget, field)}")
    pre = (
        noise_precondition(x, y, n)
        if relation == "sd"
        else _isd_precondition(x, y, n)
    )
    if not pre.ok:
        return NoiseSearchReport(
            SearchStatus.PRECONDITION_REFUTED,
            None,
            None,
            pre.gamma,
            0,
            budget,
            (f"moment hypothesis fails at index {pre.failing_moment}",),
        )
    notes: list[str] = []
    if relation == "sd":
        obstruction = _hull_obstruction(x, y, n)
        if obstruction is not None:
            return NoiseSearchReport(
                SearchStatus.NOT_FOUND,
                None,
                None,
                pre.gamma,
                0,
                budget,
                (f"unreachable with finite-support noise: {obstruction}",),
            )
    h = rat(budget.spread, _common_denominator(x, y))
    tried = 0
    for k in _lattice_sizes(budget.max_candidates):
        atoms = 2 * k + 1
        if atoms * max(x.size, y.size) > budget.support_cap:
            notes.append(f"support cap stopped the walk at half-width {k}")
            break
        z = _uniform_lattice(k, h)
        cx = convolve(x, z, budget.support_cap)
        cy = convolve(y, z, budget.support_cap)
        tried += 1
        if relation == "sd":
            verdict = sd_compare(cy, cx, n)
        else:
            verdict = isd_compare(cx, cy, n)
        if verdict.relation is Relation.LEFT_DOMINATED and verdict.strict:
            return NoiseSearchReport(
                SearchStatus.FOUND, z, verdict, pre.gamma, tried, budget, tuple(notes)
            )
    notes.append("budget exhausted; existence is not refuted")
    return NoiseSearchReport(
        SearchStatus.NOT_FOUND, None, None, pre.gamma, tried, budget, tuple(notes)
    )


def dominance_gap_integral(
    x: DiscreteDistribution, y: DiscreteDistribution, n: int
) -> Rat:
    """Integral over the real line of the order-n integrated-CDF gap,
    second minus first, exactly.

    Requires raw moments equal up to n-1, which makes the gap compactly
    supported: the difference polynomial on the unbounded right piece is
    a combination of equal moments and vanishes identically (asserted).
    Equals (-1)^n (E[y^n] - E[x^n]) / n!.
    """
    if not 1 <= n <= N_MAX:
        raise OrderOutOfRange(f"order {n} outside [1, {N_MAX}]")
    for k in range(1, n):
        if raw_moment(x, k) != raw_moment(y, k):
            raise MomentHypothesisViolated(k)
    diff = pw_linear_combine(
        integrated_curve(y, CurveKind.CDF, n).curve,
        integrated_curve(x, CurveKind.CDF, n).curve,
        1,
        -1,
    )
    tail = diff.pieces[-1].poly
    assert tail.is_zero, "equal moments up to n-1 must cancel the right tail"
    return pw_integral(diff)
