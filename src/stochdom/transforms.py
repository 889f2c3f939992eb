"""Integrated distribution, survival, and quantile functions as exact
piecewise polynomials, plus the moment-built asymptote polynomials.

For a finitely supported X with atoms (x_i, m_i) and cumulative masses
c_i, the four curve families are

* cdf, order n:       (1/(n-1)!) * sum_i m_i (x - x_i)_+^{n-1}
* survival, order n:  (1/(n-1)!) * sum_i m_i (x_i - x)_+^{n-1}
* quantile, order n:  (1/(n-1)!) * sum_i x_i [(p-c_{i-1})_+^{n-1} - (p-c_i)_+^{n-1}]
* upper quantile:     (1/(n-1)!) * sum_i x_i [(c_i-p)_+^{n-1} - (c_{i-1}-p)_+^{n-1}]

with n = 1 reducing to the right-continuous step CDF/survival and the
left-continuous quantile step.

Each is the order-n curve (1/(n-1)!) * sum_a w_a (t - a)_+^{n-1} of a
measure, built by the one integer builder ``exact.pw_integrated_measure``.
The cdf's measure is the atoms (x_i, m_i); the quantile's is the jump
x_i - x_{i-1} (x_0 = 0) at each c_{i-1}.  The right-tail kinds are the
curves of reflected measures, read at -t: the survival's measure is
(-x_i, m_i), the upper quantile's is x_m at -1 and x_i - x_{i+1} at -c_i
for 0 < c_i < 1.  ``difference_curve`` builds the curve of X less that of
Y from the signed measure X - Y, in integer pieces, for the dominance
decisions; ``integrated_curve`` gives one distribution's curve in
rational pieces.

The order-n curves for n >= 2 are C^{n-2}, the CDF kind is nonnegative,
nondecreasing and convex, and each equals the n-fold anchored integral of
the step function (``integrated_curve_via_recursion`` rebuilds them that
way as an independent cross-check).

Beyond the support maximum the cdf curve coincides exactly with a
degree-(n-1) polynomial in the raw moments: it is the right lower
asymptote for even n and the right upper asymptote for odd n (the
integrated survival vanishes there, so both coincide with the curve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from heapq import merge
from operator import itemgetter
from typing import Sequence

from ._scalar import Rat, ZERO, ONE, rat
from .distributions import DiscreteDistribution, min_orderstat_means, quantile, raw_moment
from .errors import InvalidArgument, OrderOutOfRange
from .exact import (
    NEG_INF,
    POS_INF,
    Piece,
    PiecewisePolynomial,
    Polynomial,
    pw_antiderivative,
    pw_integrated_measure,
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


# the interval each kind's measure is built on; the curves of the
# reflected kinds live on its mirror image
_BUILD_DOMAIN = {
    CurveKind.CDF: (NEG_INF, POS_INF),
    CurveKind.SURVIVAL: (NEG_INF, POS_INF),
    CurveKind.QUANTILE: (ZERO, ONE),
    CurveKind.UPPER_QUANTILE: (-ONE, ZERO),
}


def _inv_factorial(n: int) -> Rat:
    return rat(1, math.factorial(n))


def _measure(d: DiscreteDistribution, kind: CurveKind) -> Sequence:
    """The atoms (a, w), sorted by a, of the measure whose left-tail curve
    is the kind's curve: at t for cdf and quantile, at -t for the
    reflected kinds."""
    if kind is CurveKind.CDF:
        return d.atoms
    if kind is CurveKind.SURVIVAL:
        return [(-v, m) for v, m in reversed(d.atoms)]
    step = quantile(d)
    cuts, values = step.cut_points, step.values
    if kind is CurveKind.QUANTILE:
        return list(zip(cuts, (b - a for a, b in zip((ZERO,) + values, values))))
    inner = [(-c, a - b) for c, a, b in zip(cuts[1:-1], values, values[1:])]
    return [(-ONE, values[-1])] + inner[::-1]


def _signed_measure(plus, minus) -> list:
    """The atoms (a, w) of the signed measure with +w at a for each (a, w)
    in ``plus`` and -w for each in ``minus``, both sorted by a; the result
    is sorted too, and shared atoms add up."""
    atoms: list = []
    for a, w in merge(plus, ((a, -w) for a, w in minus), key=itemgetter(0)):
        if atoms and atoms[-1][0] == a:
            atoms[-1] = (a, atoms[-1][1] + w)
        else:
            atoms.append((a, w))
    return atoms


def _build(atoms: list, kind: CurveKind, n: int) -> PiecewisePolynomial:
    """The order-n curve of the kind's measure, in integer pieces; for the
    reflected kinds each piece is read at -t and the order reverses."""
    lo, hi = _BUILD_DOMAIN[kind]
    curve = pw_integrated_measure(atoms, n - 1, lo, hi)
    if kind in (CurveKind.CDF, CurveKind.QUANTILE):
        return curve
    pieces = [Piece(-pc.upper, -pc.lower, pc.poly.reflect()) for pc in reversed(curve.pieces)]
    return PiecewisePolynomial(tuple(pieces), curve.continuity_class)


def integrated_curve(
    d: DiscreteDistribution, kind: CurveKind, n: int
) -> IntegratedCurve:
    """The order-n curve of the given kind, in rational pieces."""
    _check_order(n)
    curve = _build(_measure(d, kind), kind, n)
    pieces = tuple(Piece(pc.lower, pc.upper, pc.poly.as_rational()) for pc in curve.pieces)
    return IntegratedCurve(kind, n, PiecewisePolynomial(pieces, curve.continuity_class), d)


def difference_curve(
    x: DiscreteDistribution, y: DiscreteDistribution, kind: CurveKind, n: int
) -> PiecewisePolynomial:
    """The order-n curve of x less that of y, in integer pieces: the curve
    of the signed measure with x's atoms positive and y's negative."""
    _check_order(n)
    return _build(_signed_measure(_measure(x, kind), _measure(y, kind)), kind, n)


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
        raise InvalidArgument(f"the expansion point {p} must satisfy p < 1")
    one_minus = ONE - p
    total = ZERO
    for j, mu in enumerate(min_orderstat_means(d, n - 1), 1):
        term = math.comb(n - 1, j) * one_minus ** (n - 1 - j) * mu
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
    step curve, not from the measure: from the left end for the cdf
    and quantile kinds, from the right end for the other two."""
    _check_order(n)
    curve = integrated_curve(d, kind, 1).curve
    from_left = kind in (CurveKind.CDF, CurveKind.QUANTILE)
    for _ in range(n - 1):
        curve = pw_antiderivative(curve, from_left=from_left)
    return IntegratedCurve(kind, n, curve, d)
