"""Integrated curves, asymptotes, and the order-statistic expansion.

Expected coefficient tuples were expanded independently with sympy and
frozen; quadrature oracles re-derive curve values from the defining
integrals in floating point at stated tolerances.
"""

from __future__ import annotations

import math

import pytest

from stochdom import (
    dist_validate,
    min_orderstat_mean,
    point_mass,
    quantile,
    rat,
    raw_moment,
)
from stochdom.errors import InvalidArgument, OrderOutOfRange, StochdomError
from stochdom.exact import (
    NEG_INF,
    POS_INF,
    Piece,
    PiecewisePolynomial,
    Polynomial,
    pw_equal,
    pw_linear_combine,
)
from stochdom.falsify import GenConfig, SplitMix64, _random_dist
from stochdom.transforms import (
    AsymptoteSide,
    CurveKind,
    N_MAX,
    asymptote,
    integrated_curve,
    integrated_curve_via_recursion,
    orderstat_expansion,
)
from tests.conftest import symmetric_vs_zero


def _coeff_rows(curve):
    return [piece.poly.coeffs for piece in curve.pieces]


# ---------------------------------------------------------------------------
# integrated CDF / survival
# ---------------------------------------------------------------------------


def test_cdf_point_mass_order3():
    curve = integrated_curve(point_mass(0), CurveKind.CDF, 3).curve
    assert curve(-1) == 0
    assert curve(2) == 2  # x^2/2
    assert curve.pieces[-1].poly.coeffs == (rat(0), rat(0), rat(1, 2))


def test_cdf_two_pointer_order2(spread_vs_point):
    assert integrated_curve(spread_vs_point[0], CurveKind.CDF, 2).curve(3) == 1


def test_cdf_order1_boundaries(crossing_triples):
    curve = integrated_curve(crossing_triples[0], CurveKind.CDF, 1).curve
    assert curve(-1) == 0
    assert curve(5) == 1 and curve(99) == 1


def test_cdf_order_out_of_range(spread_vs_point):
    with pytest.raises(OrderOutOfRange):
        integrated_curve(spread_vs_point[0], CurveKind.CDF, 0)
    with pytest.raises(OrderOutOfRange):
        integrated_curve(spread_vs_point[0], CurveKind.CDF, 13)


def test_survival_point_mass():
    assert integrated_curve(point_mass(0), CurveKind.SURVIVAL, 2).curve(-1) == 1


def test_survival_jumpy(jumpy_pair):
    assert integrated_curve(jumpy_pair[1], CurveKind.SURVIVAL, 2).curve(4) == rat(1, 100)


def test_survival_vanishes_beyond_support(crossing_triples):
    for n in (1, 2, 3, 4):
        curve = integrated_curve(crossing_triples[0], CurveKind.SURVIVAL, n).curve
        assert curve(5) == 0 and curve(50) == 0
        assert curve.pieces[-1].poly.is_zero


# ---------------------------------------------------------------------------
# integrated quantile / upper quantile
# ---------------------------------------------------------------------------


def test_quantile_order3_jumpy(jumpy_pair):
    x, y = jumpy_pair
    assert _coeff_rows(integrated_curve(x, CurveKind.QUANTILE, 3).curve) == [
        (),
        (rat(5, 4), rat(-5), rat(5)),  # 5 (p - 1/2)^2
    ]
    assert _coeff_rows(integrated_curve(y, CurveKind.QUANTILE, 3).curve) == [
        (rat(0), rat(0), rat(2)),
        (rat(81, 2000), rat(-9, 100), rat(41, 20)),  # (p-9/10)^2/20 + 2 p^2
    ]


def test_quantile_order3_spread_vs_point(spread_vs_point):
    x, y = spread_vs_point
    assert _coeff_rows(integrated_curve(x, CurveKind.QUANTILE, 3).curve) == [
        (rat(0), rat(0), rat(1, 2)),
        (rat(1, 4), rat(-1), rat(3, 2)),
    ]
    assert _coeff_rows(integrated_curve(y, CurveKind.QUANTILE, 3).curve) == [
        (rat(0), rat(0), rat(5, 4))
    ]


def test_quantile_order4_crossing(crossing_triples):
    x, y = crossing_triples
    rows_x = _coeff_rows(integrated_curve(x, CurveKind.QUANTILE, 4).curve)
    six_x = [tuple(6 * c for c in row) for row in rows_x]
    assert six_x == [
        (),
        (rat(-4, 125), rat(12, 25), rat(-12, 5), rat(4)),
        (rat(-3, 8), rat(39, 20), rat(-9, 2), rat(5)),
    ]
    rows_y = _coeff_rows(integrated_curve(y, CurveKind.QUANTILE, 4).curve)
    six_y = [tuple(6 * c for c in row) for row in rows_y]
    assert six_y == [
        (rat(0), rat(0), rat(0), rat(1)),
        (rat(-2, 125), rat(6, 25), rat(-6, 5), rat(3)),
        (rat(-209, 200), rat(93, 20), rat(-15, 2), rat(6)),
    ]


def test_quantile_order3_strong_pair(strong_triples):
    _, y = strong_triples
    assert _coeff_rows(integrated_curve(y, CurveKind.QUANTILE, 3).curve) == [
        (rat(0), rat(0), rat(1, 2)),
        (rat(9, 200), rat(-9, 20), rat(13, 8)),
        (rat(37, 60), rat(-25, 12), rat(67, 24)),
    ]


def test_quantile_order4_symmetric():
    x, _ = symmetric_vs_zero(1)
    curve = integrated_curve(x, CurveKind.QUANTILE, 4).curve
    # -p^3/6 then (2 (p-1/2)^3 - p^3)/6
    assert curve(rat(1, 2)) == rat(-1, 48)
    assert curve(1) == (2 * rat(1, 8) - 1) / 6


def test_quantile_point_mass_order2():
    assert integrated_curve(point_mass(7), CurveKind.QUANTILE, 2).curve(rat(1, 3)) == rat(7, 3)


def test_quantile_starts_at_zero(crossing_triples):
    for d in crossing_triples:
        for n in (2, 3, 4, 5):
            assert integrated_curve(d, CurveKind.QUANTILE, n).curve(0) == 0


def test_upper_quantile_point_mass_order2():
    curve = integrated_curve(point_mass(7), CurveKind.UPPER_QUANTILE, 2).curve
    assert curve(rat(1, 4)) == 7 * rat(3, 4)  # c (1 - p)


def test_upper_quantile_two_pointer(spread_vs_point):
    curve = integrated_curve(spread_vs_point[0], CurveKind.UPPER_QUANTILE, 2).curve
    assert curve(rat(1, 2)) == rat(3, 2)


def test_upper_quantile_vanishes_at_one(crossing_triples):
    for d in crossing_triples:
        for n in (2, 3, 4):
            assert integrated_curve(d, CurveKind.UPPER_QUANTILE, n).curve(1) == 0


def test_endpoint_identities(crossing_triples, jumpy_pair):
    for d in (*crossing_triples, *jumpy_pair):
        for n in range(2, 7):
            value = integrated_curve(d, CurveKind.QUANTILE, n).curve(1)
            assert math.factorial(n - 1) * value == min_orderstat_mean(d, n - 1)
        assert integrated_curve(d, CurveKind.UPPER_QUANTILE, 2).curve(0) == raw_moment(d, 1)


# ---------------------------------------------------------------------------
# recursion cross-check and quadrature oracles
# ---------------------------------------------------------------------------


def test_closed_form_equals_recursion():
    rng = SplitMix64(97531)
    cfg = GenConfig(support_sizes=(1, 5))
    for _ in range(20):
        d = _random_dist(rng, cfg)
        for n in range(1, N_MAX + 1):
            for kind in CurveKind:
                closed = integrated_curve(d, kind, n)
                recursive = integrated_curve_via_recursion(d, kind, n)
                assert closed.kind is recursive.kind is kind
                assert pw_equal(closed.curve, recursive.curve)
                # the rational pieces are C^(n-2) again, reflected kinds too
                assert PiecewisePolynomial.make(closed.curve.pieces, n - 2) == closed.curve


def test_order_one_curves_are_the_step_functions():
    # the recursion above starts from the order-1 closed form, so pin that
    # form to the step definitions directly
    rng = SplitMix64(424242)
    cfg = GenConfig(support_sizes=(1, 6))

    def steps(edges, levels):
        return tuple(
            Piece(a, b, Polynomial.constant(c))
            for a, b, c in zip(edges, edges[1:], levels)
        )

    for _ in range(30):
        d = _random_dist(rng, cfg)
        edges = [NEG_INF, *d.values, POS_INF]
        cum = [rat(0), *d.cumulative_masses()]
        step = quantile(d)
        expected = {
            CurveKind.CDF: steps(edges, cum),
            CurveKind.SURVIVAL: steps(edges, [1 - c for c in cum]),
            CurveKind.QUANTILE: steps(step.cut_points, step.values),
            CurveKind.UPPER_QUANTILE: steps(step.cut_points, step.values),
        }
        for kind, pieces in expected.items():
            curve = integrated_curve(d, kind, 1).curve
            assert curve.continuity_class == -1
            assert curve.pieces == pieces


def test_cdf_matches_expectation_form_exactly():
    rng = SplitMix64(8642)
    cfg = GenConfig(support_sizes=(1, 5))
    for _ in range(10):
        d = _random_dist(rng, cfg)
        n = 2 + rng.below(4)
        curve = integrated_curve(d, CurveKind.CDF, n).curve
        fact = math.factorial(n - 1)
        for _ in range(10):
            x = rat(rng.randint(-40, 40), rng.randint(1, 8))
            expected = (
                sum(
                    (m * (x - v) ** (n - 1) for v, m in d.atoms if x > v),
                    rat(0),
                )
                / fact
            )
            assert curve(x) == expected


def _midpoint_on_segments(edges, func, panels):
    """Composite midpoint rule with the panel budget spread over the
    smooth segments (the integrand is piecewise polynomial, so aligning
    panels to its breakpoints keeps the rule's accuracy honest)."""
    total = edges[-1] - edges[0]
    acc = 0.0
    for a, b in zip(edges, edges[1:]):
        length = b - a
        if length <= 0:
            continue
        count = max(1, round(panels * length / total))
        h = length / count
        for i in range(count):
            acc += func(a + (i + 0.5) * h) * h
    return acc


def test_quantile_matches_defining_integral_quadrature():
    """Midpoint quadrature of the defining integral over 10^4 panels
    agrees within 1e-6 relative error."""
    panels = 10_000
    rng = SplitMix64(1357)
    cfg = GenConfig(support_sizes=(2, 4), denominator_cap=6)
    for _ in range(3):
        d = _random_dist(rng, cfg)
        n = 3 + rng.below(2)
        step = quantile(d)
        cuts = [float(c) for c in step.cut_points]
        vals = [float(v) for v in step.values]

        def qfloat(u):
            for j in range(len(vals)):
                if u <= cuts[j + 1]:
                    return vals[j]
            return vals[-1]

        curve = integrated_curve(d, CurveKind.QUANTILE, n).curve
        fact = math.factorial(n - 2)
        for pnum in (1, 3, 7, 9, 10):
            p = rat(pnum, 10)
            pf = float(p)
            edges = sorted({0.0, pf, *(c for c in cuts if 0.0 < c < pf)})
            approx = _midpoint_on_segments(
                edges,
                lambda u: qfloat(u) * (pf - u) ** (n - 2),
                panels,
            ) / fact
            exact = float(curve(p))
            scale = max(1.0, abs(exact))
            assert abs(approx - exact) <= 1e-6 * scale


def test_quantile_matches_alternative_representation_quadrature():
    """For nonnegative support, (n-1)! F^[-n](p) equals the quadrature of
    the CDF-side representation within 1e-6 relative error."""
    panels = 20_000
    rng = SplitMix64(8080)
    cfg = GenConfig(support_sizes=(2, 4), value_range=(0, 10), denominator_cap=4)
    for _ in range(2):
        d = _random_dist(rng, cfg)
        n = 2 + rng.below(3)
        curve = integrated_curve(d, CurveKind.QUANTILE, n).curve
        cdf = integrated_curve(d, CurveKind.CDF, 1).curve
        breaks = [float(v) for v in d.values]
        consts = [0.0] + [float(c) for c in d.cumulative_masses()]

        def cdf_float(t):
            idx = 0
            for j, b in enumerate(breaks):
                if t >= b:
                    idx = j + 1
            return consts[idx]

        top = float(d.max_value) + 1.0
        fact = math.factorial(n - 1)
        for pnum in range(1, 21):
            p = rat(pnum, 21)
            pf = float(p)
            edges = sorted({0.0, top, *(b for b in breaks if 0.0 < b < top)})
            approx = _midpoint_on_segments(
                edges,
                lambda t: max(pf - cdf_float(t), 0.0) ** (n - 1),
                panels,
            )
            exact = float(fact * curve(p))
            scale = max(1.0, abs(exact))
            assert abs(approx - exact) <= 1e-6 * scale


def test_jump_breaks_the_continuous_only_representation(jumpy_pair):
    """Atom-wise evaluation of the continuous-CDF-only integral form
    differs from the true second-order quantile integral at probabilities
    interior to a CDF jump: exact strict inequality."""
    x, _ = jumpy_pair
    cum = {v: c for (v, _m), c in zip(x.atoms, x.cumulative_masses())}
    p = rat(3, 4)  # inside the jump spanning (1/2, 1) at value 10
    atomwise = sum(
        (v * m for v, m in x.atoms if cum[v] < p),
        rat(0),
    )
    true_value = integrated_curve(x, CurveKind.QUANTILE, 2).curve(p)
    assert true_value == rat(5, 2)
    assert atomwise == 0
    assert atomwise != true_value


# ---------------------------------------------------------------------------
# asymptotes
# ---------------------------------------------------------------------------


def test_asymptote_order2_is_x_minus_mean(spread_vs_point):
    a = asymptote(spread_vs_point[0], 2)
    assert a.side is AsymptoteSide.LOWER_EVEN
    assert a.poly.coeffs == (rat(-2), rat(1))


def test_asymptote_order3_closed_form(spread_vs_point):
    d = spread_vs_point[0]
    a = asymptote(d, 3)
    mean = raw_moment(d, 1)
    var = raw_moment(d, 2) - mean * mean
    assert a.side is AsymptoteSide.UPPER_ODD
    assert a.poly.coeffs == ((mean * mean + var) / 2, -mean, rat(1, 2))


def test_asymptote_point_mass_order3():
    a = asymptote(point_mass(4), 3)
    assert a.poly.coeffs == (rat(8), rat(-4), rat(1, 2))  # (x-4)^2 / 2


def test_asymptote_exact_beyond_support():
    rng = SplitMix64(4242)
    cfg = GenConfig(support_sizes=(1, 5))
    for _ in range(20):
        d = _random_dist(rng, cfg)
        for n in range(2, 7):
            tail = integrated_curve(d, CurveKind.CDF, n).curve.pieces[-1].poly
            assert tail.coeffs == asymptote(d, n).poly.coeffs


def test_left_tail_is_zero(crossing_triples):
    for n in range(1, 6):
        curve = integrated_curve(crossing_triples[0], CurveKind.CDF, n).curve
        assert curve.pieces[0].poly.is_zero


# ---------------------------------------------------------------------------
# order-statistic expansion
# ---------------------------------------------------------------------------


def test_expansion_order3_at_zero(spread_vs_point):
    assert orderstat_expansion(spread_vs_point[0], 3, 0) == rat(-5, 4)


def test_expansion_order3_point_mass_midpoint():
    assert orderstat_expansion(point_mass(3), 3, rat(1, 2)) == 0


@pytest.mark.parametrize("p", [1, rat(3, 2)])
def test_expansion_rejects_p_at_or_above_one(spread_vs_point, p):
    with pytest.raises(InvalidArgument, match="p < 1") as err:
        orderstat_expansion(spread_vs_point[0], 3, p)
    assert isinstance(err.value, ValueError) and isinstance(err.value, StochdomError)


def test_expansion_order4_point_mass_at_one():
    assert orderstat_expansion(point_mass(1), 4, 0) == rat(1, 6)


def test_lower_minus_upper_combination_midpoint(spread_vs_point):
    """Combining the order-3 lower and upper quantile integrals with
    weights (1, -1) evaluates to -1/4 at the midpoint: the hand-computed
    value of integrating the step quantile against (1/2 - u)."""
    x, _ = spread_vs_point
    combo = pw_linear_combine(
        integrated_curve(x, CurveKind.QUANTILE, 3).curve,
        integrated_curve(x, CurveKind.UPPER_QUANTILE, 3).curve,
        1,
        -1,
    )
    assert combo(rat(1, 2)) == rat(-1, 4)


def test_step_quantile_antiderivative_reaches_mean(spread_vs_point):
    """Integrating the quantile step from the left lands on the mean at 1."""
    from stochdom.exact import pw_antiderivative

    x, _ = spread_vs_point
    step = integrated_curve(x, CurveKind.QUANTILE, 1).curve
    integral = pw_antiderivative(step, from_left=True)
    assert integral(1) == raw_moment(x, 1) == 2
    assert integral.continuity_class == 0


def test_expansion_identity_against_curves():
    rng = SplitMix64(600613)
    cfg = GenConfig(support_sizes=(1, 5))
    for _ in range(15):
        d = _random_dist(rng, cfg)
        for n in (3, 4, 5):
            p = rat(rng.randint(0, 9), 10)
            lower = integrated_curve(d, CurveKind.QUANTILE, n).curve(p)
            upper = integrated_curve(d, CurveKind.UPPER_QUANTILE, n).curve(p)
            expected = lower - upper if n % 2 == 1 else lower + upper
            assert orderstat_expansion(d, n, p) == expected
