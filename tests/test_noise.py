"""Background-noise search: preconditions, gap integral, bounded walk."""

from __future__ import annotations

import pytest

from stochdom import (
    Relation,
    SearchBudget,
    SearchStatus,
    dist_validate,
    dominance_gap_integral,
    noise_precondition,
    noise_search,
    point_mass,
    rat,
    sd_compare,
)
from stochdom.distributions import convolve, raw_moment
from stochdom.errors import InvalidBudget, MomentHypothesisViolated, StochdomError
from stochdom.falsify import GenConfig, SplitMix64, _random_dist, gen_moment_matched_pair
from dataclasses import replace


BIG_GAP = dist_validate([(0, "0.5"), (10, "0.5")])
NEARBY = point_mass("4.9")


def test_precondition_first_order_mean_gap():
    pre = noise_precondition(BIG_GAP, NEARBY, 1)
    assert pre.ok and pre.gamma == rat(1, 10) and pre.failing_moment is None


def test_precondition_second_order_orientation(mps_pair):
    spread, base = mps_pair
    pre = noise_precondition(spread, base, 2)
    assert not pre.ok and pre.gamma == rat(-1, 2) and pre.failing_moment == 2
    pre_sw = noise_precondition(base, spread, 2)
    assert pre_sw.ok and pre_sw.gamma == rat(1, 2)


def test_precondition_identical():
    d = point_mass(0)
    pre = noise_precondition(d, d, 1)
    assert not pre.ok and pre.gamma == 0


def test_search_identity_noise_suffices(mps_pair):
    spread, base = mps_pair
    report = noise_search(base, spread, 2)
    assert report.status is SearchStatus.FOUND
    assert report.z.atoms == ((rat(0), rat(1)),)
    assert report.verdict.relation is Relation.LEFT_DOMINATED and report.verdict.strict


def test_search_precondition_refuted():
    report = noise_search(point_mass(0), point_mass(0), 1)
    assert report.status is SearchStatus.PRECONDITION_REFUTED
    assert report.gamma == 0 and report.candidates_tried == 0


def test_search_hull_obstruction_is_conclusive():
    """A support minimum below the dominated side's cannot be repaired by
    any finitely supported noise: the walk short-circuits honestly."""
    report = noise_search(BIG_GAP, NEARBY, 1)
    assert report.status is SearchStatus.NOT_FOUND
    assert report.candidates_tried == 0
    assert any("unreachable" in note for note in report.notes)


def test_search_smooths_a_crossing_pair():
    x = BIG_GAP
    y = dist_validate([(-2, "0.25"), (1, "0.25"), (6, "0.5")])
    assert sd_compare(y, x, 1).relation is Relation.INCOMPARABLE
    report = noise_search(x, y, 1)
    assert report.status is SearchStatus.FOUND
    assert report.z.size > 1  # identity noise could not settle this pair
    # independent confirmation on the convolved pair
    check = sd_compare(convolve(y, report.z), convolve(x, report.z), 1)
    assert check.relation is Relation.LEFT_DOMINATED and check.strict


@pytest.mark.parametrize("spread", [0, -1])
def test_search_rejects_spread_below_one(mps_pair, spread):
    spread_side, base = mps_pair
    budget = SearchBudget(spread=spread)
    for relation in ("sd", "isd"):
        with pytest.raises(InvalidBudget, match="spread must be at least 1"):
            noise_search(base, spread_side, 2, budget, relation)
        # an empty candidate walk or support cap is rejected the same way
        for field in ("max_candidates", "support_cap"):
            empty = SearchBudget(**{field: spread})
            with pytest.raises(InvalidBudget, match=f"{field} must be at least 1"):
                noise_search(base, spread_side, 2, empty, relation)
    assert issubclass(InvalidBudget, StochdomError)


def test_search_budget_monotone():
    x = BIG_GAP
    y = dist_validate([(-2, "0.25"), (1, "0.25"), (6, "0.5")])
    found_at: list[bool] = []
    for cap in range(1, 10):
        report = noise_search(x, y, 1, SearchBudget(max_candidates=cap))
        found_at.append(report.status is SearchStatus.FOUND)
    # once found, found for every larger budget
    first = found_at.index(True)
    assert all(found_at[first:])
    assert not any(found_at[:first])


def test_search_isd_probe_runs():
    spread, base = dist_validate([(1, "0.5"), (3, "0.5")]), point_mass(2)
    report = noise_search(base, spread, 2, relation="isd")
    assert report.status in (SearchStatus.FOUND, SearchStatus.NOT_FOUND,
                             SearchStatus.PRECONDITION_REFUTED)


def test_gap_integral_identical():
    d = point_mass(3)
    assert dominance_gap_integral(d, d, 2) == 0


def test_gap_integral_spread(mps_pair):
    spread, base = mps_pair
    assert dominance_gap_integral(spread, base, 2) == rat(-1, 2)
    assert dominance_gap_integral(base, spread, 2) == rat(1, 2)


def test_gap_integral_requires_matched_moments():
    with pytest.raises(MomentHypothesisViolated) as err:
        dominance_gap_integral(point_mass(0), point_mass(1), 3)
    assert err.value.failing_moment == 1


def test_gap_integral_matches_moment_formula():
    import math

    cfg = GenConfig(seed=777)
    rng = SplitMix64(777)
    for t in range(30):
        n = 1 + rng.below(4)
        x, y = gen_moment_matched_pair(replace(cfg, seed=rng.next_u64()), n - 1)
        sign = 1 if n % 2 == 0 else -1
        expected = sign * (raw_moment(y, n) - raw_moment(x, n)) / math.factorial(n)
        assert dominance_gap_integral(x, y, n) == expected


def test_gap_tail_vanishes_under_matched_moments():
    cfg = GenConfig(seed=13)
    x, y = gen_moment_matched_pair(cfg, 2)
    from stochdom.exact import pw_linear_combine
    from stochdom.transforms import CurveKind, integrated_curve

    diff = pw_linear_combine(
        integrated_curve(y, CurveKind.CDF, 3).curve,
        integrated_curve(x, CurveKind.CDF, 3).curve,
        1,
        -1,
    )
    assert diff.pieces[-1].poly.is_zero
