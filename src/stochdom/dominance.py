"""Exact decision of n-SD, n-ISD, and strong n-ISD with certificates.

Direction convention: verdicts are reported from the first argument's
perspective, so LeftDominated means the first distribution is dominated
by the second in the tested order.

* n-SD: X is dominated by Y iff the order-n integrated CDF of X lies
  above that of Y everywhere on the real line.
* n-ISD: X is dominated by Y iff the order-n integrated quantile of X
  lies below that of Y on (0, 1).
* strong n-ISD: n-ISD together with exact equality of the expected
  minimum order statistics mu_{1:j} for j = 1..n-1.

Strictness means the difference curve is nonzero somewhere, which for
these curve families is equivalent to strict inequality at some point;
Equivalent (difference identically zero) happens only for identical
distributions.  Witnesses carry an exact point and the exact gap there.

The difference curve is built once, on integers, as the order-n curve
(1/(n-1)!) * sum_a w_a (t - a)_+^(n-1) of a signed measure: for n-SD the
atoms of X with +mass and those of Y with -mass, on the union of the
supports; for n-ISD the value jumps of the quantile of Y (+) and of X
(-), at the union of the cut points.  With D and W the common
denominators of the atoms and the weights, each piece is N(t) / K with
integer N(t) = sum_a w_a W (D t - a D)^(n-1) and K = (n-1)! W D^(n-1) > 0
(``exact.pw_integrated_measure``).  N divided by the gcd of its
coefficients is the primitive integer polynomial the sign kernel would
take from the rational difference, so the sweep sees the same
polynomials, and a witness value is N(t) / K exactly.

Every verdict comes from one sign sweep over the difference curve:
``pw_nonneg`` decides each piece once, which gives the certificate and
the first strictly negative point, and the pieces are then screened
negated, in order, only until the first one with a strictly positive
point.  The two points settle the relation: no negative point means
LeftDominated, no positive point RightDominated, both Incomparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import merge
from operator import itemgetter
from typing import Optional

from ._scalar import ONE, ZERO, Rat, rat
from .distributions import DiscreteDistribution, min_orderstat_mean, quantile
from .exact import NEG_INF, POS_INF, Piece, PiecewisePolynomial, _piece_sign, pw_integrated_measure, pw_nonneg
from .transforms import _check_order


class Relation(Enum):
    LEFT_DOMINATED = "LeftDominated"
    RIGHT_DOMINATED = "RightDominated"
    EQUIVALENT = "Equivalent"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class Witness:
    """An exact point together with the strictly positive gap there."""

    point: Rat
    gap: Rat


@dataclass(frozen=True)
class OrderStatCheck:
    """Equality record for one mu_{1:j} comparison (strong n-ISD)."""

    index: int
    left: Rat
    right: Rat
    equal: bool


@dataclass(frozen=True)
class Verdict:
    relation: Relation
    strict: bool
    witness_left: Optional[Witness]
    witness_right: Optional[Witness]
    certificate: tuple
    mode: str
    order: int


def _interiorize(curve: PiecewisePolynomial, point, lo, hi):
    """Nudge a witness at a closed endpoint into the open interval,
    preserving the sign of the curve there (possible by continuity)."""
    point = rat(point)
    if lo < point < hi:
        return point
    target = curve(point)
    probe = (point + (rat(hi) + rat(lo)) / 2) / 2
    while True:
        v = curve(probe)
        if (v > 0) == (target > 0) and (v < 0) == (target < 0):
            return probe
        probe = (probe + point) / 2


def _witness(diff: PiecewisePolynomial, point, gap, open_unit: bool) -> Witness:
    """On the unit interval the point moves into (0, 1), where the gap is
    read again; the move keeps the sign of the curve."""
    if open_unit:
        point = _interiorize(diff, point, 0, 1)
        gap = abs(diff(point))
    return Witness(point, gap)


def _decide(diff: PiecewisePolynomial, mode: str, order: int, open_unit: bool) -> Verdict:
    """Shared comparison core: LeftDominated iff diff >= 0 everywhere."""
    if diff.is_zero:
        return Verdict(Relation.EQUIVALENT, False, None, None, (), mode, order)
    res = pw_nonneg(diff)
    witness_left = witness_right = None
    if not res.nonnegative:
        witness_right = _witness(diff, res.witness, -res.witness_value, open_unit)
    for pc in diff.pieces:
        rep = _piece_sign(Piece(pc.lower, pc.upper, -pc.poly))
        if not rep.nonnegative:
            witness_left = _witness(diff, rep.witness, -rep.witness_value, open_unit)
            break
    if witness_right is None:
        relation = Relation.LEFT_DOMINATED
    elif witness_left is None:
        relation = Relation.RIGHT_DOMINATED
    else:
        relation = Relation.INCOMPARABLE
    strict = relation is not Relation.INCOMPARABLE
    return Verdict(
        relation, strict, witness_left, witness_right, res.pieces, mode, order
    )


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


def _quantile_jumps(d: DiscreteDistribution):
    """(cut point, jump) of the quantile step at each of its jumps, the
    first from 0 at p = 0."""
    step = quantile(d)
    values = step.values
    return zip(step.cut_points, (b - a for a, b in zip((ZERO,) + values, values)))


def _sd_difference(x: DiscreteDistribution, y: DiscreteDistribution, n: int) -> PiecewisePolynomial:
    """F_x^[n] - F_y^[n], the order-n curve of the signed measure X - Y."""
    _check_order(n)
    return pw_integrated_measure(_signed_measure(x.atoms, y.atoms), n - 1, NEG_INF, POS_INF)


def _isd_difference(x: DiscreteDistribution, y: DiscreteDistribution, n: int) -> PiecewisePolynomial:
    """F_y^[-n] - F_x^[-n], the order-n curve of the quantile jumps of y
    less those of x."""
    _check_order(n)
    measure = _signed_measure(_quantile_jumps(y), _quantile_jumps(x))
    return pw_integrated_measure(measure, n - 1, ZERO, ONE)


def sd_compare(x: DiscreteDistribution, y: DiscreteDistribution, n: int) -> Verdict:
    """Decide n-SD between x and y.

    LeftDominated iff the difference of the order-n integrated CDFs,
    first minus second, is nonnegative on every piece of the real line;
    witness_left locates a strictly positive gap (strictness evidence),
    witness_right a strictly negative one (refutation of LeftDominated).
    """
    return _decide(_sd_difference(x, y, n), "sd", n, open_unit=False)


def isd_compare(x: DiscreteDistribution, y: DiscreteDistribution, n: int) -> Verdict:
    """Decide n-ISD between x and y.

    The quantified inequality lives on the open unit interval; for n >= 2
    both curves are continuous and vanish at 0, so deciding on the closed
    interval is equivalent, and for n = 1 the piecewise-constant
    comparison on piece interiors is equivalent by left-continuity.
    Witnesses are always interior points.
    """
    return _decide(_isd_difference(x, y, n), "isd", n, open_unit=True)


def strong_isd_compare(
    x: DiscreteDistribution, y: DiscreteDistribution, n: int
) -> Verdict:
    """Decide strong n-ISD: n-ISD plus exact mu_{1:j} equality, j < n.

    When the base relation holds but an equality fails, the verdict is
    Incomparable and the failed OrderStatCheck entries in the certificate
    identify which index broke (they substitute for a pointwise witness,
    which need not exist on the failing side).
    """
    if n < 2:
        from .errors import OrderOutOfRange

        raise OrderOutOfRange("strong n-ISD needs order >= 2")
    base = isd_compare(x, y, n)
    checks = []
    for j in range(1, n):
        mx, my = min_orderstat_mean(x, j), min_orderstat_mean(y, j)
        checks.append(OrderStatCheck(j, mx, my, mx == my))
    certificate = tuple(checks) + base.certificate
    all_equal = all(c.equal for c in checks)
    if base.relation is Relation.EQUIVALENT:
        return Verdict(
            Relation.EQUIVALENT, False, None, None, certificate, "strong-isd", n
        )
    if base.relation is Relation.LEFT_DOMINATED and all_equal:
        return Verdict(
            Relation.LEFT_DOMINATED,
            base.strict,
            base.witness_left,
            None,
            certificate,
            "strong-isd",
            n,
        )
    if base.relation is Relation.RIGHT_DOMINATED and all_equal:
        return Verdict(
            Relation.RIGHT_DOMINATED,
            base.strict,
            None,
            base.witness_right,
            certificate,
            "strong-isd",
            n,
        )
    return Verdict(
        Relation.INCOMPARABLE,
        False,
        base.witness_left,
        base.witness_right,
        certificate,
        "strong-isd",
        n,
    )
