"""Distribution model: validation, moments, quantiles, order statistics,
convolution."""

from __future__ import annotations

import pytest

from stochdom import (
    DiscreteDistribution,
    convolve,
    dist_validate,
    min_orderstat_mean,
    min_orderstat_means,
    point_mass,
    quantile,
    rat,
    raw_moment,
)
from stochdom.errors import (
    EmptySupport,
    MassNotOne,
    NegativeMass,
    OrderOutOfRange,
    SupportCapExceeded,
)
from stochdom.falsify import GenConfig, SplitMix64, _brute_min_orderstat, _random_dist


def test_validate_sorts(jumpy_pair):
    d = dist_validate([(10, "0.5"), (0, "0.5")])
    assert d.atoms == jumpy_pair[0].atoms


def test_validate_merges_duplicates():
    d = dist_validate([(1, rat(1, 3)), (1, rat(1, 3)), (2, rat(1, 3))])
    assert d.atoms == ((rat(1), rat(2, 3)), (rat(2), rat(1, 3)))


def test_validate_mass_not_one():
    with pytest.raises(MassNotOne):
        dist_validate([(0, rat(1, 2)), (1, rat(1, 4))])


def test_validate_negative_mass():
    with pytest.raises(NegativeMass):
        dist_validate([(0, rat(3, 2)), (1, rat(-1, 2))])


def test_validate_empty():
    with pytest.raises(EmptySupport):
        dist_validate([(0, 0), (1, 0)])


def test_validate_drops_zero_mass():
    d = dist_validate([(0, 0), (1, 1)])
    assert d.atoms == ((rat(1), rat(1)),)


def test_raw_moments(jumpy_pair, crossing_triples):
    x, y = jumpy_pair
    assert raw_moment(x, 1) == 5
    assert raw_moment(y, 1) == rat(401, 100)
    assert raw_moment(crossing_triples[1], 1) == rat(7, 2)
    assert raw_moment(x, 0) == 1


def test_quantile_steps(jumpy_pair, crossing_triples):
    qx = quantile(jumpy_pair[0])
    assert qx.cut_points == (rat(0), rat(1, 2), rat(1))
    assert qx.values == (rat(0), rat(10))
    qy = quantile(crossing_triples[1])
    assert qy.cut_points == (rat(0), rat(1, 5), rat(7, 10), rat(1))
    assert qy.values == (rat(1), rat(3), rat(6))
    qp = quantile(point_mass(rat(5, 2)))
    assert qp.cut_points == (rat(0), rat(1)) and qp.values == (rat(5, 2),)


def test_quantile_left_continuity(jumpy_pair):
    q = quantile(jumpy_pair[0])
    assert q(rat(1, 2)) == 0  # value at the cut belongs to the left piece
    assert q(rat(1, 2) + rat(1, 1000)) == 10
    assert q(0) == 0 and q(1) == 10


def test_quantile_round_trip(crossing_triples):
    for d in crossing_triples:
        assert quantile(d).to_distribution().atoms == d.atoms


def test_min_orderstat_values(crossing_triples):
    x, y = crossing_triples
    assert min_orderstat_mean(x, 2) == rat(53, 20)
    assert min_orderstat_mean(x, 3) == rat(83, 40)
    assert min_orderstat_mean(y, 2) == rat(51, 20)
    assert min_orderstat_mean(y, 3) == rat(421, 200)
    assert min_orderstat_mean(x, 1) == raw_moment(x, 1)


def test_min_orderstat_matches_brute_force():
    rng = SplitMix64(24601)
    cfg = GenConfig(support_sizes=(1, 5), denominator_cap=8)
    for t in range(25):
        d = _random_dist(rng, cfg)
        brute = tuple(_brute_min_orderstat(d, k) for k in range(1, 7))
        assert tuple(min_orderstat_mean(d, k) for k in range(1, 7)) == brute
        assert min_orderstat_means(d, 6) == brute


def test_raw_moment_rejects_negative_index(crossing_triples):
    with pytest.raises(OrderOutOfRange):
        raw_moment(crossing_triples[0], -1)


def test_min_orderstat_rejects_index_below_one(crossing_triples):
    for bad in (0, -2):
        with pytest.raises(OrderOutOfRange):
            min_orderstat_mean(crossing_triples[0], bad)
        with pytest.raises(OrderOutOfRange):
            min_orderstat_means(crossing_triples[0], bad)


def test_min_orderstat_nonincreasing_in_k():
    rng = SplitMix64(31337)
    cfg = GenConfig(support_sizes=(1, 6))
    for t in range(40):
        d = _random_dist(rng, cfg)
        mus = [min_orderstat_mean(d, k) for k in range(1, 8)]
        assert all(a >= b for a, b in zip(mus, mus[1:]))


def test_convolve_identity(crossing_triples):
    d = crossing_triples[0]
    assert convolve(d, point_mass(0)).atoms == d.atoms


def test_convolve_point_masses():
    assert convolve(point_mass(1), point_mass(2)).atoms == ((rat(3), rat(1)),)


def test_convolve_self(spread_vs_point):
    d = spread_vs_point[0]
    out = convolve(d, d)
    assert out.atoms == (
        (rat(2), rat(1, 4)),
        (rat(4), rat(1, 2)),
        (rat(6), rat(1, 4)),
    )


def test_convolve_moment_identities():
    rng = SplitMix64(555)
    cfg = GenConfig(support_sizes=(1, 4))
    for _ in range(25):
        a = _random_dist(rng, cfg)
        b = _random_dist(rng, cfg)
        s = convolve(a, b)
        assert raw_moment(s, 1) == raw_moment(a, 1) + raw_moment(b, 1)
        assert raw_moment(s, 2) == (
            raw_moment(a, 2)
            + 2 * raw_moment(a, 1) * raw_moment(b, 1)
            + raw_moment(b, 2)
        )


def test_convolve_cap():
    a = dist_validate([(i, rat(1, 4)) for i in range(4)])
    with pytest.raises(SupportCapExceeded):
        convolve(a, a, cap=8)
