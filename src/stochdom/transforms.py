"""Integrated distribution, survival, and quantile functions as exact
piecewise polynomials, plus the moment-built asymptote polynomials.

For a finitely supported X with atoms (x_i, m_i) and cumulative masses
c_i, the four curve families are

* cdf, order n:       (1/(n-1)!) * sum_i m_i (x - x_i)_+^{n-1}
* survival, order n:  (1/(n-1)!) * sum_i m_i (x_i - x)_+^{n-1}
* quantile, order n:  (1/(n-1)!) * sum_i x_i [(p-c_{i-1})_+^{n-1} - (p-c_i)_+^{n-1}]
* upper quantile:     (1/(n-1)!) * sum_i x_i [(c_i-p)_+^{n-1} - (c_{i-1}-p)_+^{n-1}]

with n = 1 reducing to the right-continuous step CDF/survival and the
left-continuous quantile step.  The order-n curves for n >= 2 are
C^{n-2}, the CDF kind is nonnegative, nondecreasing and convex, and each
closed form equals the n-fold anchored integral of the step function
(``integrated_curve_via_recursion`` rebuilds them that way as an
independent cross-check).

Beyond the support maximum the cdf curve coincides exactly with a
degree-(n-1) polynomial in the raw moments: it is the right lower
asymptote for even n and the right upper asymptote for odd n (the
integrated survival vanishes there, so both coincide with the curve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._scalar import Rat, ZERO, ONE, rat
from .distributions import DiscreteDistribution, min_orderstat_mean, quantile, raw_moment
from .errors import OrderOutOfRange
from .exact import (
    NEG_INF,
    POS_INF,
    Piece,
    PiecewisePolynomial,
    Polynomial,
    monomial_power,
    pw_antiderivative,
)

N_MAX = 12


class CurveKind(Enum):
    CDF = "cdf"
    SURVIVAL = "survival"
    QUANTILE = "quantile"
    UPPER_QUANTILE = "upper-quantile"


class AsymptoteSide(Enum):
    LOWER_EVEN = "LowerEven"
    UPPER_ODD = "UpperOdd"


@dataclass(frozen=True)
class IntegratedCurve:
    kind: CurveKind
    order: int
    curve: PiecewisePolynomial
    source: DiscreteDistribution


@dataclass(frozen=True)
class AsymptotePoly:
    order: int
    side: AsymptoteSide
    poly: Polynomial


def _check_order(n: int, minimum: int = 1) -> None:
    if not minimum <= n <= N_MAX:
        raise OrderOutOfRange(f"order {n} outside [{minimum}, {N_MAX}]")


def _inv_factorial(n: int) -> Rat:
    return rat(1, math.factorial(n))


def integrated_cdf(d: DiscreteDistribution, n: int) -> IntegratedCurve:
    """n-fold left-tail integral of the CDF; step CDF for n = 1."""
    _check_order(n)
    values, masses = d.values, d.masses
    factor = _inv_factorial(n - 1)
    pieces = [Piece(NEG_INF, values[0], Polynomial.zero())]
    acc = Polynomial.zero()
    edges = list(values) + [POS_INF]
    for i in range(len(values)):
        acc = acc + monomial_power(values[i], n - 1).scale(factor * masses[i])
        pieces.append(Piece(edges[i], edges[i + 1], acc))
    curve = PiecewisePolynomial.make(pieces, n - 2)
    return IntegratedCurve(CurveKind.CDF, n, curve, d)


def integrated_survival(d: DiscreteDistribution, n: int) -> IntegratedCurve:
    """n-fold right-tail integral of the survival function; vanishes at
    and beyond the support maximum."""
    _check_order(n)
    values, masses = d.values, d.masses
    factor = _inv_factorial(n - 1)
    sign = ONE if (n - 1) % 2 == 0 else -ONE
    acc = Polynomial.zero()
    for v, m in d.atoms:
        # (x_i - x)^{n-1} = (-1)^{n-1} (x - x_i)^{n-1}
        acc = acc + monomial_power(v, n - 1).scale(sign * factor * m)
    tail = [Piece(NEG_INF, values[0], acc)]
    edges = list(values) + [POS_INF]
    for i in range(len(values)):
        acc = acc - monomial_power(values[i], n - 1).scale(sign * factor * masses[i])
        tail.append(Piece(edges[i], edges[i + 1], acc))
    curve = PiecewisePolynomial.make(tail, n - 2)
    return IntegratedCurve(CurveKind.SURVIVAL, n, curve, d)


def integrated_quantile(d: DiscreteDistribution, n: int) -> IntegratedCurve:
    """n-fold integral from 0 of the left-continuous quantile; the step
    itself for n = 1.  Domain [0, 1]."""
    _check_order(n)
    step = quantile(d)
    cuts, values = step.cut_points, step.values
    factor = _inv_factorial(n - 1)
    pieces = []
    acc = Polynomial.zero()
    prev_value = ZERO
    for i, v in enumerate(values):
        acc = acc + monomial_power(cuts[i], n - 1).scale(factor * (v - prev_value))
        prev_value = v
        pieces.append(Piece(cuts[i], cuts[i + 1], acc))
    curve = PiecewisePolynomial.make(pieces, n - 2)
    return IntegratedCurve(CurveKind.QUANTILE, n, curve, d)


def integrated_upper_quantile(d: DiscreteDistribution, n: int) -> IntegratedCurve:
    """n-fold integral toward 1 of the quantile; vanishes at p = 1."""
    _check_order(n)
    step = quantile(d)
    cuts, values = step.cut_points, step.values
    factor = _inv_factorial(n - 1)
    sign = ONE if (n - 1) % 2 == 0 else -ONE
    m = len(values)
    acc = monomial_power(ONE, n - 1).scale(sign * factor * values[-1])
    rev = [Piece(cuts[m - 1], cuts[m], acc)]
    for i in range(m - 2, -1, -1):
        # (c_i - p)^{n-1} = (-1)^{n-1}(p - c_i)^{n-1}
        acc = acc - monomial_power(cuts[i + 1], n - 1).scale(
            sign * factor * (values[i + 1] - values[i])
        )
        rev.append(Piece(cuts[i], cuts[i + 1], acc))
    rev.reverse()
    curve = PiecewisePolynomial.make(rev, n - 2)
    return IntegratedCurve(CurveKind.UPPER_QUANTILE, n, curve, d)


def integrated_curve(
    d: DiscreteDistribution, kind: CurveKind, n: int
) -> IntegratedCurve:
    """The order-n curve of the given kind."""
    build = {
        CurveKind.CDF: integrated_cdf,
        CurveKind.SURVIVAL: integrated_survival,
        CurveKind.QUANTILE: integrated_quantile,
        CurveKind.UPPER_QUANTILE: integrated_upper_quantile,
    }[kind]
    return build(d, n)


def asymptote(d: DiscreteDistribution, n: int) -> AsymptotePoly:
    """Degree-(n-1) moment polynomial equal to the order-n integrated CDF
    everywhere at and beyond the support maximum.

    (1/(n-1)!) E[(x-X)^{n-1}] expanded by the binomial theorem; the right
    lower asymptote when n is even, the right upper asymptote when n is
    odd.
    """
    _check_order(n, minimum=2)
    factor = _inv_factorial(n - 1)
    coeffs = []
    for power in range(n):
        j = n - 1 - power  # moment index paired with x**power
        coeffs.append(
            factor * math.comb(n - 1, j) * (-1) ** j * raw_moment(d, j)
        )
    side = AsymptoteSide.LOWER_EVEN if n % 2 == 0 else AsymptoteSide.UPPER_ODD
    return AsymptotePoly(n, side, Polynomial.make(coeffs))


def orderstat_expansion(d: DiscreteDistribution, n: int, p) -> Rat:
    """Moment side of the order-statistic expansion identity at p < 1.

    Returns s * (1/(n-1)!) * sum_{j=1}^{n-1} (-1)^j C(n-1, j)
    (1-p)^{n-1-j} mu_{1:j}, with s = +1 for odd n and s = -1 for even n.
    Equals F^[-n](p) - F~^[-n](p) for odd n and F^[-n](p) + F~^[-n](p)
    for even n (checked by the invariant suite, not here).
    """
    _check_order(n, minimum=3)
    p = rat(p)
    if not p < 1:
        raise ValueError("the expansion point must satisfy p < 1")
    one_minus = ONE - p
    total = ZERO
    for j in range(1, n):
        term = (
            math.comb(n - 1, j)
            * one_minus ** (n - 1 - j)
            * min_orderstat_mean(d, j)
        )
        total = total + (term if j % 2 == 0 else -term)
    total = total * _inv_factorial(n - 1)
    return total if n % 2 == 1 else -total


# ---------------------------------------------------------------------------
# recursive constructions (independent cross-check path)
# ---------------------------------------------------------------------------


def integrated_curve_via_recursion(
    d: DiscreteDistribution, kind: CurveKind, n: int
) -> IntegratedCurve:
    """Build the order-n curve by n-1 anchored integrations of the order-1
    step curve instead of the closed form: from the left end for the cdf
    and quantile kinds, from the right end for the other two."""
    _check_order(n)
    curve = integrated_curve(d, kind, 1).curve
    from_left = kind in (CurveKind.CDF, CurveKind.QUANTILE)
    for _ in range(n - 1):
        curve = pw_antiderivative(curve, from_left=from_left)
    return IntegratedCurve(kind, n, curve, d)
