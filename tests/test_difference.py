"""The integer difference curves against an independent rational
reference: the pw_linear_combine of the two curves built by recursive
integration."""

from __future__ import annotations

import pytest

from stochdom import Relation, dist_validate, isd_compare, quantile, rat, sd_compare
from stochdom.exact import Piece, PiecewisePolynomial, Polynomial, pw_linear_combine
from stochdom.falsify import GenConfig, SplitMix64, _dominated_pair, _free_pair
from stochdom.transforms import N_MAX, CurveKind, difference_curve, integrated_curve_via_recursion


def _sharing_atoms(x):
    """A distribution with x's lower half of atoms at x's masses, the rest
    of the mass on one new atom above x."""
    atoms = list(x.atoms[: (x.size + 1) // 2])
    rest = 1 - sum(m for _, m in atoms)
    if rest:
        atoms.append((x.max_value + rat(1, 3), rest))
    return dist_validate(atoms)


def _pairs():
    rng = SplitMix64(2718)
    cfg = GenConfig(support_sizes=(1, 6))
    for t in range(12):
        x, y = _dominated_pair(rng, cfg) if t % 2 else _free_pair(rng, cfg)
        yield x, y
        yield y, x
        if t % 3 == 0:
            yield x, x
            yield x, _sharing_atoms(x)


def _rational(curve):
    """The integer curve's pieces as rational polynomials num / den."""
    return [Piece(pc.lower, pc.upper, pc.poly.as_rational()) for pc in curve.pieces]


@pytest.mark.parametrize("kind", list(CurveKind), ids=lambda kind: kind.value)
def test_integer_difference_matches_rational_reference(kind):
    compare = {CurveKind.CDF: sd_compare, CurveKind.QUANTILE: isd_compare}.get(kind)
    coalesced = 0
    for x, y in _pairs():
        for n in range(1, N_MAX + 1):
            diff = difference_curve(x, y, kind, n)
            ref = pw_linear_combine(
                integrated_curve_via_recursion(x, kind, n).curve,
                integrated_curve_via_recursion(y, kind, n).curve,
                1,
                -1,
            )
            assert _rational(diff) == list(ref.pieces)
            assert diff.continuity_class == ref.continuity_class == n - 2
            assert len({pc.poly.den for pc in diff.pieces}) == 1
            if x == y:
                assert diff.is_zero and len(diff.pieces) == 1
                if compare is not None:
                    assert compare(x, y, n).relation is Relation.EQUIVALENT
            if kind in (CurveKind.CDF, CurveKind.SURVIVAL):  # one piece per gap between atoms
                uncoalesced = len(set(x.values) | set(y.values)) + 1
            else:  # one piece per gap between cut points
                uncoalesced = len(set(quantile(x).cut_points) | set(quantile(y).cut_points)) - 1
            coalesced += x != y and len(diff.pieces) < uncoalesced
    assert coalesced  # shared atoms with equal mass leave no breakpoint


def test_continuity_check_rejects_a_corrupted_piece():
    x = dist_validate([(0, "1/4"), (1, "1/4"), (3, "1/2")])
    y = dist_validate([(rat(1, 2), "1/2"), (2, "1/2")])
    n = 4
    pieces = list(difference_curve(x, y, CurveKind.CDF, n).pieces)
    last = pieces[-1]
    rational = last.poly.as_rational()
    # the last piece has one breakpoint; (x - a)^(n-1) added there keeps
    # the curve C^(n-2), (x - a)^(n-2) breaks only its (n-2)-th derivative
    for power, smooth in ((n - 1, True), (n - 2, False)):
        bent = rational + Polynomial.make([0] * power + [1]).shift(-last.lower)
        pieces[-1] = Piece(last.lower, last.upper, bent.as_int())
        if smooth:
            PiecewisePolynomial.make(pieces, n - 2)
        else:
            with pytest.raises(ValueError, match="pieces disagree"):
                PiecewisePolynomial.make(pieces, n - 2)
