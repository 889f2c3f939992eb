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

The difference curve is ``transforms.difference_curve``, built once, on
integers, as the order-n curve of a signed measure: for n-SD the atoms
of X with +mass and those of Y with -mass; for n-ISD the quantile jumps
of Y (+) and of X (-).  Each piece is N(t) / K with integer N and K > 0
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
from typing import Optional

from ._scalar import Rat, rat
from .distributions import DiscreteDistribution, min_orderstat_means
from .errors import OrderOutOfRange
from .exact import Piece, PiecewisePolynomial, _piece_sign, pw_nonneg
from .transforms import CurveKind, difference_curve


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


def sd_compare(x: DiscreteDistribution, y: DiscreteDistribution, n: int) -> Verdict:
    """Decide n-SD between x and y.

    LeftDominated iff the difference of the order-n integrated CDFs,
    first minus second, is nonnegative on every piece of the real line;
    witness_left locates a strictly positive gap (strictness evidence),
    witness_right a strictly negative one (refutation of LeftDominated).
    """
    return _decide(difference_curve(x, y, CurveKind.CDF, n), "sd", n, open_unit=False)


def isd_compare(x: DiscreteDistribution, y: DiscreteDistribution, n: int) -> Verdict:
    """Decide n-ISD between x and y.

    The quantified inequality lives on the open unit interval; for n >= 2
    both curves are continuous and vanish at 0, so deciding on the closed
    interval is equivalent, and for n = 1 the piecewise-constant
    comparison on piece interiors is equivalent by left-continuity.
    Witnesses are always interior points.
    """
    return _decide(difference_curve(y, x, CurveKind.QUANTILE, n), "isd", n, open_unit=True)


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
        raise OrderOutOfRange("strong n-ISD needs order >= 2")
    base = isd_compare(x, y, n)
    mus = zip(min_orderstat_means(x, n - 1), min_orderstat_means(y, n - 1))
    checks = [OrderStatCheck(j, mx, my, mx == my) for j, (mx, my) in enumerate(mus, 1)]
    # a failed equality turns a dominance into Incomparable; the witnesses
    # stay the base's, where _decide already left the missing side None
    dominated = base.relation in (Relation.LEFT_DOMINATED, Relation.RIGHT_DOMINATED)
    broken = dominated and not all(c.equal for c in checks)
    return Verdict(
        Relation.INCOMPARABLE if broken else base.relation,
        base.strict and not broken,
        base.witness_left,
        base.witness_right,
        tuple(checks) + base.certificate,
        "strong-isd",
        n,
    )
