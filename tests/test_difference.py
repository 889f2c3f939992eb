"""The integer difference curves against the rational reference: the
pw_linear_combine of the two integrated curves."""

from __future__ import annotations

from fractions import Fraction

import pytest

from stochdom import Relation, dist_validate, isd_compare, quantile, rat, sd_compare
from stochdom.dominance import _isd_difference, _sd_difference
from stochdom.exact import Piece, PiecewisePolynomial, Polynomial, monomial_power, pw_linear_combine
from stochdom.falsify import GenConfig, SplitMix64, _dominated_pair, _free_pair
from stochdom.transforms import N_MAX, integrated_cdf, integrated_quantile


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
    return [
        Piece(pc.lower, pc.upper, Polynomial.make(Fraction(c, pc.poly.den) for c in pc.poly.num))
        for pc in curve.pieces
    ]


@pytest.mark.parametrize("kind", ["sd", "isd"])
def test_integer_difference_matches_rational_reference(kind):
    coalesced = 0
    for x, y in _pairs():
        for n in range(1, N_MAX + 1):
            if kind == "sd":
                diff = _sd_difference(x, y, n)
                ref = pw_linear_combine(integrated_cdf(x, n).curve, integrated_cdf(y, n).curve, 1, -1)
            else:
                diff = _isd_difference(x, y, n)
                ref = pw_linear_combine(
                    integrated_quantile(y, n).curve, integrated_quantile(x, n).curve, 1, -1
                )
            assert _rational(diff) == list(ref.pieces)
            assert diff.continuity_class == ref.continuity_class == n - 2
            assert len({pc.poly.den for pc in diff.pieces}) == 1
            if x == y:
                assert diff.is_zero and len(diff.pieces) == 1
                compare = sd_compare if kind == "sd" else isd_compare
                assert compare(x, y, n).relation is Relation.EQUIVALENT
            if kind == "sd":  # a zero piece left of the atoms, one right of each
                uncoalesced = len(set(x.values) | set(y.values)) + 1
            else:  # one piece right of each cut point below 1
                uncoalesced = len(set(quantile(x).cut_points) | set(quantile(y).cut_points)) - 1
            coalesced += x != y and len(diff.pieces) < uncoalesced
    assert coalesced  # shared atoms with equal mass leave no breakpoint


def test_continuity_check_rejects_a_corrupted_piece():
    x = dist_validate([(0, "1/4"), (1, "1/4"), (3, "1/2")])
    y = dist_validate([(rat(1, 2), "1/2"), (2, "1/2")])
    n = 4
    pieces = list(_sd_difference(x, y, n).pieces)
    last = pieces[-1]
    rational = Polynomial.make(Fraction(c, last.poly.den) for c in last.poly.num)
    # the last piece has one breakpoint; (x - a)^(n-1) added there keeps
    # the curve C^(n-2), (x - a)^(n-2) breaks only its (n-2)-th derivative
    for power, smooth in ((n - 1, True), (n - 2, False)):
        bent = rational + monomial_power(last.lower, power)
        pieces[-1] = Piece(last.lower, last.upper, bent.as_int())
        if smooth:
            PiecewisePolynomial.make(pieces, n - 2)
        else:
            with pytest.raises(ValueError, match="pieces disagree"):
                PiecewisePolynomial.make(pieces, n - 2)
