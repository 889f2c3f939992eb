"""Dominance verdicts: relations, strictness, witnesses, certificates."""

from __future__ import annotations

import pytest

from stochdom import (
    Relation,
    dist_validate,
    isd_compare,
    point_mass,
    rat,
    sd_compare,
    strong_isd_compare,
)
from stochdom.dominance import OrderStatCheck, Verdict, Witness, _interiorize
from stochdom.errors import OrderOutOfRange
from stochdom.exact import (
    NEG_INF,
    POS_INF,
    Piece,
    PiecewisePolynomial,
    Polynomial,
    pw_linear_combine,
    pw_nonneg,
)
from stochdom.falsify import GenConfig, SplitMix64, _dominated_pair, _free_pair, _random_dist
from stochdom.transforms import CurveKind, integrated_curve
from tests.conftest import symmetric_vs_zero


def test_sd_reflexive(crossing_triples):
    v = sd_compare(crossing_triples[0], crossing_triples[0], 2)
    assert v.relation is Relation.EQUIVALENT and not v.strict


def test_sd_shifted_point_masses():
    v = sd_compare(point_mass(0), point_mass(1), 1)
    assert v.relation is Relation.LEFT_DOMINATED and v.strict


def test_sd_mean_preserving_spread(mps_pair):
    spread, base = mps_pair
    v = sd_compare(spread, base, 2)
    assert v.relation is Relation.LEFT_DOMINATED and v.strict
    assert sd_compare(base, spread, 2).relation is Relation.RIGHT_DOMINATED


def test_sd_order_out_of_range(mps_pair):
    with pytest.raises(OrderOutOfRange):
        sd_compare(*mps_pair, 0)


def test_isd_jumpy(jumpy_pair):
    v = isd_compare(*jumpy_pair, 3)
    assert v.relation is Relation.LEFT_DOMINATED and v.strict


def test_isd_spread_vs_point(spread_vs_point):
    v = isd_compare(*spread_vs_point, 3)
    assert v.relation is Relation.LEFT_DOMINATED and v.strict


def test_isd_crossing_triples(crossing_triples):
    v = isd_compare(*crossing_triples, 4)
    assert v.relation is Relation.LEFT_DOMINATED and v.strict


def test_isd_symmetric_support():
    for a in (1, 2, rat(1, 2)):
        v = isd_compare(*symmetric_vs_zero(a), 4)
        assert v.relation is Relation.LEFT_DOMINATED and v.strict


def test_isd_witness_interior(jumpy_pair):
    # the reversed comparison must carry an interior witness of failure
    v = isd_compare(jumpy_pair[1], jumpy_pair[0], 3)
    assert v.relation is Relation.RIGHT_DOMINATED
    w = v.witness_right
    assert 0 < w.point < 1 and w.gap > 0


def test_strong_isd(strong_triples):
    v = strong_isd_compare(*strong_triples, 3)
    assert v.relation is Relation.LEFT_DOMINATED and v.strict


def test_strong_isd_fails_on_unequal_means(jumpy_pair):
    v = strong_isd_compare(*jumpy_pair, 3)
    assert v.relation is Relation.INCOMPARABLE
    failed = [
        c for c in v.certificate if isinstance(c, OrderStatCheck) and not c.equal
    ]
    assert failed and failed[0].index == 1


def test_strong_isd_reflexive(strong_triples):
    v = strong_isd_compare(strong_triples[0], strong_triples[0], 5)
    assert v.relation is Relation.EQUIVALENT


def test_equivalent_iff_identical():
    rng = SplitMix64(161803)
    cfg = GenConfig(support_sizes=(1, 4))
    for _ in range(40):
        a = _random_dist(rng, cfg)
        b = _random_dist(rng, cfg)
        for n in (1, 2, 3):
            v = sd_compare(a, b, n)
            assert (v.relation is Relation.EQUIVALENT) == (a.atoms == b.atoms)


def test_witnesses_reproduce_gaps():
    rng = SplitMix64(271828)
    cfg = GenConfig(support_sizes=(1, 4))
    checked = 0
    for _ in range(60):
        a = _random_dist(rng, cfg)
        b = _random_dist(rng, cfg)
        n = 1 + rng.below(4)
        v = sd_compare(a, b, n)
        diff = pw_linear_combine(
            integrated_curve(a, CurveKind.CDF, n).curve,
            integrated_curve(b, CurveKind.CDF, n).curve,
            1,
            -1,
        )
        if v.witness_left is not None:
            assert diff(v.witness_left.point) == v.witness_left.gap > 0
            checked += 1
        if v.witness_right is not None:
            assert diff(v.witness_right.point) == -v.witness_right.gap < 0
            checked += 1
        vi = isd_compare(a, b, n)
        qdiff = pw_linear_combine(
            integrated_curve(b, CurveKind.QUANTILE, n).curve,
            integrated_curve(a, CurveKind.QUANTILE, n).curve,
            1,
            -1,
        )
        if vi.witness_left is not None:
            assert qdiff(vi.witness_left.point) == vi.witness_left.gap > 0
        if vi.witness_right is not None:
            assert qdiff(vi.witness_right.point) == -vi.witness_right.gap < 0
    assert checked >= 30


def test_incomparable_has_two_sided_witnesses():
    # CDFs cross: neither first-order direction holds
    a = dist_validate([(0, "0.5"), (3, "0.5")])
    b = point_mass(1)
    v = sd_compare(a, b, 1)
    assert v.relation is Relation.INCOMPARABLE
    assert v.witness_left is not None and v.witness_right is not None
    assert v.witness_left.gap > 0 and v.witness_right.gap > 0


def test_order_monotonicity_small_sweep():
    rng = SplitMix64(102030)
    cfg = GenConfig(support_sizes=(1, 4))
    for t in range(25):
        pair = _dominated_pair(rng, cfg) if t % 2 else _free_pair(rng, cfg)
        for compare in (sd_compare, isd_compare):
            prev = None
            for n in range(1, 7):
                cur = compare(pair[0], pair[1], n)
                if prev is not None and prev.relation is Relation.LEFT_DOMINATED:
                    assert cur.relation is Relation.LEFT_DOMINATED
                    if prev.strict:
                        assert cur.strict
                prev = cur


def test_strong_touchpoint_at_matched_top(strong_triples):
    """The inverse-order-3 gap touches zero exactly at p = 1, consistent
    with the matched second minimum order statistic."""
    x, y = strong_triples
    gap = pw_linear_combine(
        integrated_curve(y, CurveKind.QUANTILE, 3).curve,
        integrated_curve(x, CurveKind.QUANTILE, 3).curve,
        1,
        -1,
    )
    assert gap(1) == 0


# ---------------------------------------------------------------------------
# reference: the three-sweep decision that the one-sweep _decide replaced
# ---------------------------------------------------------------------------


def _negated(f):
    pieces = tuple(Piece(pc.lower, pc.upper, -pc.poly) for pc in f.pieces)
    return PiecewisePolynomial(pieces, f.continuity_class)


def _find_positive(f):
    """A point where f > 0 with its value, from a full sweep of -f."""
    res = pw_nonneg(_negated(f))
    return None if res.nonnegative else (res.witness, -res.witness_value)


def _reference_decide(diff, mode, order, open_unit):
    if diff.is_zero:
        return Verdict(Relation.EQUIVALENT, False, None, None, (), mode, order)

    def witness(point, value, sign):
        if open_unit:
            point = _interiorize(diff, point, 0, 1)
            value = diff(point)
        return Witness(point, sign * value)

    res_pos = pw_nonneg(diff)
    cert = res_pos.pieces
    found = _find_positive(diff)
    left = None if found is None else witness(*found, 1)
    if res_pos.nonnegative:
        return Verdict(Relation.LEFT_DOMINATED, True, left, None, cert, mode, order)
    right = witness(res_pos.witness, res_pos.witness_value, -1)
    if pw_nonneg(_negated(diff)).nonnegative:
        return Verdict(Relation.RIGHT_DOMINATED, True, None, right, cert, mode, order)
    return Verdict(Relation.INCOMPARABLE, False, left, right, cert, mode, order)


def test_one_sweep_decide_matches_three_sweep_reference():
    tent = PiecewisePolynomial.make(
        [
            Piece(NEG_INF, rat(0), Polynomial.zero()),
            Piece(rat(0), rat(2), Polynomial.make((0, 1))),
            Piece(rat(2), POS_INF, Polynomial.constant(2)),
        ],
        0,
        validate=False,
    )
    point, value = _find_positive(tent)
    assert tent(point) == value > 0
    assert _find_positive(_negated(tent)) is None

    rng = SplitMix64(314159)
    cfg = GenConfig(support_sizes=(1, 4))
    seen = set()
    for t in range(24):
        x, y = _dominated_pair(rng, cfg) if t % 2 else _free_pair(rng, cfg)
        if t % 6 == 0:
            y = x
        for a, b in ((x, y), (y, x)):
            for n in range(1, 7):
                fa = integrated_curve(a, CurveKind.CDF, n).curve
                fb = integrated_curve(b, CurveKind.CDF, n).curve
                sd_diff = pw_linear_combine(fa, fb, 1, -1)
                v = sd_compare(a, b, n)
                assert v == _reference_decide(sd_diff, "sd", n, open_unit=False)
                qa = integrated_curve(a, CurveKind.QUANTILE, n).curve
                qb = integrated_curve(b, CurveKind.QUANTILE, n).curve
                isd_diff = pw_linear_combine(qb, qa, 1, -1)
                vi = isd_compare(a, b, n)
                assert vi == _reference_decide(isd_diff, "isd", n, open_unit=True)
                seen.update((v.relation, vi.relation))
    assert seen == set(Relation)
