"""Exact kernel: polynomials, sign decisions, piecewise machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochdom import rat
from stochdom.errors import DomainMismatch, NonIntegrable
from stochdom.exact import (
    NEG_INF,
    POS_INF,
    Piece,
    PiecewisePolynomial,
    Polynomial,
    SignVerdict,
    _descartes,
    _peval,
    _prem,
    _primitive_int,
    _pull_edge_inward,
    _rationalize,
    _refine_strictly_away,
    _sign_at,
    _taylor_at,
    nonneg_on_interval,
    nonneg_on_left_ray,
    nonneg_on_ray,
    pw_antiderivative,
    pw_equal,
    pw_integral,
    pw_linear_combine,
    pw_nonneg,
)
from stochdom.falsify import SplitMix64


def P(*coeffs):
    return Polynomial.make(coeffs)


# ---------------------------------------------------------------------------
# polynomial basics
# ---------------------------------------------------------------------------


def test_eval_square_minus_one():
    assert P(-1, 0, 1)(2) == 3


def test_eval_zero_polynomial():
    assert Polynomial.zero()(7) == 0


def test_eval_cubic_moment_polynomial():
    # (14 - 15x + 6x^2 - x^3)/6 evaluated at 3, expanded by hand from the
    # first three raw moments of the {1,3} fifty-fifty distribution
    p = P(rat(14, 6), rat(-15, 6), 1, rat(-1, 6))
    assert p(3) == rat(-2, 3)


def test_combine_cancellation():
    assert (P(0, 1) + P(0, 1).scale(-1)).is_zero


def test_combine_sum():
    assert (P(0, 0, 1) + P(1)).coeffs == (rat(1), rat(0), rat(1))


def test_combine_average_of_shifted_squares():
    a = P(1, -2, 1)  # (x-1)^2
    b = P(1, 2, 1)  # (x+1)^2
    half = rat(1, 2)
    assert (a.scale(half) + b.scale(half)).coeffs == (rat(1), rat(0), rat(1))


def test_antiderivative_of_one():
    assert P(1).antiderivative(0, 0).coeffs == (rat(0), rat(1))


def test_antiderivative_anchor():
    assert P(0, 2).antiderivative(1, 1).coeffs == (rat(0), rat(0), rat(1))


def test_antiderivative_solves_constant():
    assert P(0, 0, 3).antiderivative(2, 0).coeffs == (rat(-8), rat(0), rat(0), rat(1))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(max_denominator=20), max_size=5),
    st.lists(st.fractions(max_denominator=20), max_size=5),
    st.fractions(max_denominator=12),
    st.fractions(max_denominator=12),
    st.fractions(max_denominator=12),
)
def test_combine_is_bilinear(ac, bc, ca, cb, x):
    a, b = Polynomial.make(ac), Polynomial.make(bc)
    combined = a.scale(ca) + b.scale(cb)
    assert combined(x) == rat(ca) * a(x) + rat(cb) * b(x)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(max_denominator=20), max_size=6),
    st.fractions(max_denominator=10),
    st.fractions(max_denominator=10),
)
def test_antiderivative_derivative_roundtrip(coeffs, anchor, value):
    p = Polynomial.make(coeffs)
    prim = p.antiderivative(anchor, value)
    assert prim.derivative().coeffs == p.coeffs
    assert prim(anchor) == rat(value)


def test_taylor_shift():
    p = P(1, 2, 3)
    q = p.shift(rat(5, 7))
    for t in (0, 1, rat(-3, 2)):
        assert q(t) == p(rat(t) + rat(5, 7))


# ---------------------------------------------------------------------------
# sign decisions
# ---------------------------------------------------------------------------


def test_interval_perfect_square_touches():
    rep = nonneg_on_interval(P(1, -2, 1), 0, 2)
    assert rep.verdict is SignVerdict.NONNEGATIVE_EVERYWHERE
    assert rep.touch_points == (rat(1),)


def test_interval_linear_negative():
    rep = nonneg_on_interval(P(-3, 1), 0, 2)
    assert rep.verdict is SignVerdict.NEGATIVE_SOMEWHERE
    assert rep.witness_value < 0
    assert 0 <= rep.witness <= 2


def test_interval_concave_quadratic_positive():
    # 1/50 + s/5 - 3 s^2/8 on [0, 1/2]: concave, positive at both ends
    rep = nonneg_on_interval(P(rat(1, 50), rat(1, 5), rat(-3, 8)), 0, rat(1, 2))
    assert rep.verdict is SignVerdict.NONNEGATIVE_EVERYWHERE


def test_interval_endpoint_zeros_with_interior_negative():
    # -x (1-x) (x - 1/2)^2 vanishes at 0, 1/2, 1 but dips negative between
    p = (P(0, -1) * P(1, -1) * P(rat(-1, 2), 1) * P(rat(-1, 2), 1))
    rep = nonneg_on_interval(p, 0, 1)
    assert rep.verdict is SignVerdict.NEGATIVE_SOMEWHERE
    assert p(rep.witness) == rep.witness_value < 0


def test_interval_even_multiplicity_irrational_roots():
    q = P(-2, 0, 1)
    rep = nonneg_on_interval(q * q, -2, 2)
    assert rep.verdict is SignVerdict.NONNEGATIVE_EVERYWHERE


def test_interval_split_consistency():
    rng = SplitMix64(1234)
    for _ in range(300):
        coeffs = [rat(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        p = Polynomial.make(coeffs)
        a = rat(rng.randint(-4, 0))
        b = a + rat(rng.randint(1, 3))
        c = b + rat(rng.randint(1, 3))
        whole = nonneg_on_interval(p, a, c).nonnegative if not p.is_zero else True
        if p.is_zero:
            continue
        halves = (
            nonneg_on_interval(p, a, b).nonnegative
            and nonneg_on_interval(p, b, c).nonnegative
        )
        assert whole == halves


def test_ray_square():
    assert nonneg_on_ray(P(0, 0, 1), -5).nonnegative


def test_ray_eventually_negative():
    rep = nonneg_on_ray(P(10, -1), 0)
    assert rep.verdict is SignVerdict.NEGATIVE_SOMEWHERE
    assert rep.witness > 10


def test_ray_beyond_support_maximum():
    # x - 2 is positive on [3, inf)
    assert nonneg_on_ray(P(-2, 1), 3).nonnegative


def test_left_ray():
    rep = nonneg_on_left_ray(P(0, 1), -1)  # x on (-inf, -1]: negative
    assert rep.verdict is SignVerdict.NEGATIVE_SOMEWHERE
    assert rep.witness <= -1
    assert nonneg_on_left_ray(P(0, -1), -1).nonnegative


def test_nonneg_matches_dense_sampling_oracle():
    """4096-point rational sampling over 1000 random degree<=8 polys:
    no sampled counterexample on inputs judged nonnegative."""
    rng = SplitMix64(998877)
    grid = 4096
    judged_nonneg = 0
    for trial in range(1000):
        deg = rng.randint(0, 8)
        if trial % 2 == 0:
            coeffs = [rat(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(deg + 1)]
            p = Polynomial.make(coeffs)
        else:
            # sum of two squares: nonnegative by construction, exercising
            # the confirming path
            half = deg // 2
            q1 = Polynomial.make(
                [rat(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(half + 1)]
            )
            q2 = Polynomial.make(
                [rat(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(half + 1)]
            )
            p = q1 * q1 + q2 * q2
        if p.is_zero:
            continue
        lo = rat(rng.randint(-3, 0))
        hi = lo + rat(rng.randint(1, 5))
        rep = nonneg_on_interval(p, lo, hi)
        if not rep.nonnegative:
            assert p(rep.witness) < 0
            continue
        judged_nonneg += 1
        # fast float screen with exact confirmation of any suspicious point
        cs = np.array([float(c) for c in p.coeffs][::-1])
        xs = np.linspace(float(lo), float(hi), grid)
        vals = np.polyval(cs, xs)
        mags = np.polyval(np.abs(cs), np.abs(xs))
        suspicious = np.nonzero(vals < 1e-9 * (1.0 + mags))[0]
        step = (hi - lo) / (grid - 1)
        for idx in suspicious:
            exact_point = lo + step * int(idx)
            assert p(exact_point) >= 0, f"sampled counterexample at {exact_point}"
    assert judged_nonneg >= 300  # the confirming path saw real work


# ---------------------------------------------------------------------------
# integer kernel against Fraction references
# ---------------------------------------------------------------------------


def _fraction_rem(a: tuple, b: tuple) -> tuple:
    """Remainder of a by b by rational long division."""
    rem = [rat(c) for c in a]
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        for i, bi in enumerate(b):
            rem[k + i] -= c * bi
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def _positive_multiple(big, small) -> bool:
    """big == lam * small, entry by entry, for one lam > 0."""
    big = list(big) + [0] * (len(small) - len(big))
    small = list(small) + [0] * (len(big) - len(small))
    pairs = [(u, v) for u, v in zip(big, small) if u or v]
    if not pairs:
        return True
    lam = rat(pairs[0][0]) / pairs[0][1] if pairs[0][1] else rat(0)
    return lam > 0 and all(u == lam * v for u, v in zip(big, small))


def _sgn(v) -> int:
    return (v > 0) - (v < 0)


def _kernel_cases():
    """Seeded rational polynomials p of degree 1-11 with their rational
    roots among the points, and a divisor q of degree at most p's."""
    rng = SplitMix64(31337)
    for i in range(60):
        deg = 1 + i % 11
        roots = [rat(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, deg))]
        p = P(rat(rng.randint(-20, 20) or 1, rng.randint(1, 9)))
        for r in roots:
            p = p * P(-r, 1)
        while p.degree < deg:
            p = p * P(rat(rng.randint(-5, 5), rng.randint(1, 7)), rat(rng.randint(1, 5), rng.randint(1, 3)))
        q = P(*[rat(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, deg))])
        q = q + P(*[0] * (q.degree + 1), rng.randint(1, 4) * (1 - 2 * rng.below(2)))
        points = roots + [rat(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(4)]
        yield p, q, points


def test_integer_kernel_matches_fraction_reference():
    for p, q, points in _kernel_cases():
        ip = _primitive_int(p.as_int().num)
        assert _positive_multiple(ip, p.coeffs)
        for x in points:
            assert _sign_at(ip, x) == _sgn(_peval(p.coeffs, x))
            taylor = _taylor_at(ip, x, len(ip))
            a, b = x.as_integer_ratio()
            scaled = [r * b**j for j, r in enumerate(taylor)]
            assert _positive_multiple(scaled, p.shift(x).coeffs)
        iq = _primitive_int(q.as_int().num)
        if q.degree >= 1 and p.degree >= q.degree:
            assert _positive_multiple(_prem(ip, iq), _fraction_rem(p.coeffs, q.coeffs))
    assert _sign_at(_primitive_int(P(rat(-1, 4), 0, 1).as_int().num), rat(1, 2)) == 0


# ---------------------------------------------------------------------------
# root refinement
# ---------------------------------------------------------------------------

SQRT2 = (-2, 0, 1)  # x^2 - 2, one root in (1, 2)


def test_pull_edge_off_lo():
    # 3/2 lands right of sqrt 2, then 5/4 lands left of it and frees lo
    assert _pull_edge_inward(SQRT2, ("interval", rat(1), rat(2)), rat(1), rat(3)) == (
        "interval", rat(5, 4), rat(3, 2)
    )


def test_pull_edge_off_hi():
    assert _pull_edge_inward(SQRT2, ("interval", rat(1), rat(2)), rat(0), rat(2)) == (
        "interval", rat(1), rat(3, 2)
    )


def test_pull_edge_probe_lands_on_rational_root():
    g = (3, -7, 2)  # (2x - 1)(x - 3)
    loc = ("interval", rat(0), rat(1))
    assert _pull_edge_inward(g, loc, rat(0), rat(2)) == ("exact", rat(1, 2))
    assert _pull_edge_inward(g, loc, rat(-1), rat(2)) == loc


def test_rationalize_pins_rational_root():
    # Stern-Brocot probes 1/2, then 1/3 is the root of 3x - 1
    assert _rationalize((-1, 3), ("interval", rat(0), rat(1))) == ("exact", rat(1, 3))
    a, b = _rationalize(SQRT2, ("interval", rat(1), rat(2)))[1:]
    assert 1 < a < b < 2 and a * a < 2 < b * b and b - a < rat(1, 10**12)


def test_refine_away_from_deflated_midpoint_root():
    # isolating (1/3)(1/2)(2/3)-cubic roots meets 1/2 at the first midpoint;
    # the deflated quadratic's intervals must then exclude 1/2
    h = (rat(2, 9), -1, 1)  # (x - 1/3)(x - 2/3)
    half = rat(1, 2)
    assert _refine_strictly_away(h, ("interval", rat(0), half), half) == (
        "interval", rat(1, 4), rat(3, 8)
    )
    assert _refine_strictly_away(h, ("interval", half, rat(1)), half) == (
        "interval", rat(5, 8), rat(3, 4)
    )
    # 1/2 strictly inside: split there first, then keep narrowing
    assert _refine_strictly_away(SQRT2, ("interval", rat(1), rat(2)), rat(3, 2)) == (
        "interval", rat(11, 8), rat(23, 16)
    )
    assert _refine_strictly_away(h, ("exact", rat(1, 3)), half) == ("exact", rat(1, 3))
    cubic = P(-rat(1, 3), 1) * P(-half, 1) * P(-rat(2, 3), 1)
    rep = nonneg_on_interval(cubic * cubic, 0, 1)
    assert rep.nonnegative and rep.touch_points == (rat(1, 3), half, rat(2, 3))


def _oracle_cases():
    """Tangencies, irrational pairs and root clusters a hair from an edge;
    then double roots and root clusters strictly inside, and
    (x - c)^2 + tiny near the interval, which has no real root but two
    Descartes variations, so the bisection must run."""
    rng = SplitMix64(20261017)
    for i in range(70):
        lo = rat(rng.randint(-8, 4), rng.randint(1, 4))
        hi = lo + rat(rng.randint(1, 12), rng.randint(1, 4))
        inside = lo + (hi - lo) * rat(rng.randint(1, 19), 20)
        tiny = rat(1, 10 ** rng.randint(2, 9))
        kind = i % 4 if i < 40 else 4 + i % 3
        if kind == 0:  # a double rational root inside
            core = P(-inside, 1) * P(-inside, 1)
        elif kind == 1:  # x^2 - c twice, or next to x^2 - (c + tiny)
            c = inside * inside + tiny
            core = P(-c, 0, 1) * P(-c - tiny * rng.below(2), 0, 1)
        elif kind <= 3:  # two roots a hair from lo or hi, on either side of it
            edge = lo if kind == 2 else hi
            r = edge + (1 - 2 * rng.below(2)) * tiny
            core = P(-r, 1) * P(-r - (rng.below(3) - 1) * tiny, 1)
        elif kind == 4:  # two double roots inside, one rational, one not
            c = inside * inside + tiny
            core = P(-inside, 1) * P(-inside, 1) * P(-c, 0, 1) * P(-c, 0, 1)
        elif kind == 5:  # a cluster of two to four roots inside, some double
            core = P(1)
            for k in range(rng.randint(2, 4)):
                r = inside + k * tiny
                core = core * P(-r, 1) * (P(-r, 1) if rng.below(2) else P(1))
        else:  # (x - c)^2 + tiny with c inside or a hair outside
            c = inside if rng.below(2) else lo - tiny
            core = P(c * c + tiny, -2 * c, 1)
        a = lo + (hi - lo) * rat(rng.randint(0, 20), 20)
        p = core * P(a * a + rat(1, rng.randint(1, 50)), -2 * a, 1)
        yield (p.scale(-1) if i % 5 == 4 else p), lo, hi


def _sympy_roots(p, lo, hi):
    """sympy's exact real roots of p in [lo, hi], with multiplicity."""
    sympy = pytest.importorskip("sympy")
    roots = sympy.real_roots(sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"), domain="QQ"))
    return [r for r in roots if bool(lo <= r) and bool(r <= hi)]


def test_nonneg_matches_sympy_real_roots():
    verdicts = []
    for p, lo, hi in _oracle_cases():
        roots = _sympy_roots(p, lo, hi)
        odd_inside = any(
            roots.count(r) % 2 and bool(lo < r) and bool(r < hi) for r in set(roots)
        )
        # no sign change inside: the sign at any non-root point decides
        grid = (p(lo + (hi - lo) * rat(k, p.degree + 1)) for k in range(p.degree + 2))
        expected = not odd_inside and next(v for v in grid if v != 0) > 0
        rep = nonneg_on_interval(p, lo, hi)
        assert rep.nonnegative == expected, (p.coeffs, lo, hi)
        if not rep.nonnegative:
            assert lo <= rep.witness <= hi and p(rep.witness) == rep.witness_value < 0
        else:
            # touch points are exact roots; the 48 Stern-Brocot probes of
            # _rationalize pin each rational root of modest denominator
            # (not, say, 20001/10000 in (2, 8/3): each probe there only
            # steps from 2 + 1/k to 2 + 1/(k + 1))
            rational = {rat(int(r.p), int(r.q)) for r in roots if r.is_Rational}
            assert set(rep.touch_points) <= rational, (p.coeffs, lo, hi)
            assert {r for r in rational if r.denominator <= 1000} <= set(rep.touch_points)
        verdicts.append(expected)
    assert len(verdicts) / 4 <= sum(verdicts) <= 3 * len(verdicts) / 4


def test_descartes_count_bounds_the_roots():
    """The interval Descartes count is at least sympy's root count in
    (lo, hi), of the same parity, and 0 when every Taylor coefficient at
    lo is nonnegative; some cases need the bisection (count > roots)."""
    excess = 0
    cases = list(_oracle_cases())
    cases += [(p, lo, lo + 1 + rat(1, 3)) for p, _, pts in _kernel_cases() for lo in pts[:2]]
    for p, lo, hi in cases:
        ip = _primitive_int(p.as_int().num)
        taylor = _taylor_at(ip, lo, len(ip))
        count = _descartes(taylor, lo, hi)
        inside = sum(1 for r in _sympy_roots(p, lo, hi) if bool(lo < r) and bool(r < hi))
        assert count >= inside and (count - inside) % 2 == 0, (p.coeffs, lo, hi)
        if all(c >= 0 for c in taylor):
            assert count == 0
        excess += count > inside
    assert excess >= 10


# ---------------------------------------------------------------------------
# piecewise machinery
# ---------------------------------------------------------------------------


def _step(breaks, consts):
    """Right-continuous step on the real line from break/constant lists."""
    edges = [NEG_INF] + list(breaks) + [POS_INF]
    pieces = [
        Piece(edges[i], edges[i + 1], Polynomial.constant(consts[i]))
        for i in range(len(consts))
    ]
    return PiecewisePolynomial.make(pieces, -1, validate=False)


def test_combine_identical_is_zero():
    f = _step([0, 1], [0, rat(1, 2), 1])
    assert pw_linear_combine(f, f, 1, -1).is_zero


def test_combine_step_cdfs_of_point_masses():
    f = _step([0], [0, 1])  # CDF of a point mass at 0
    g = _step([1], [0, 1])  # CDF of a point mass at 1
    diff = pw_linear_combine(f, g, 1, -1)
    assert diff(-1) == 0 and diff(rat(1, 2)) == 1 and diff(2) == 0


def test_combine_domain_mismatch():
    f = _step([0], [0, 1])
    g = PiecewisePolynomial.make([Piece(rat(0), rat(1), Polynomial.constant(1))], -1)
    with pytest.raises(DomainMismatch):
        pw_linear_combine(f, g, 1, 1)


def test_antiderivative_of_point_mass_cdf():
    f = _step([0], [0, 1])
    prim = pw_antiderivative(f, from_left=True)
    # x_+ : zero below 0, identity above
    assert prim(-5) == 0 and prim(3) == 3
    prim2 = pw_antiderivative(prim, from_left=True)
    assert prim2(4) == 8  # x^2/2
    assert prim2.continuity_class == 1


def test_antiderivative_divergence_guard():
    f = _step([0], [1, 0])  # survival of a point mass at 0
    with pytest.raises(NonIntegrable):
        pw_antiderivative(f, from_left=True)
    back = pw_antiderivative(f, from_left=False)
    assert back(-3) == 3 and back(1) == 0


def test_antiderivative_then_derivative_recovers_input():
    f = _step([0, 2], [0, rat(1, 3), 1])
    prim = pw_antiderivative(f, from_left=True)
    for before, after in zip(f.pieces, prim.pieces):
        assert after.poly.derivative().coeffs == before.poly.coeffs


def test_pw_integral():
    tent = PiecewisePolynomial.make(
        [
            Piece(NEG_INF, rat(0), Polynomial.zero()),
            Piece(rat(0), rat(1), P(0, 1)),
            Piece(rat(1), rat(2), P(2, -1)),
            Piece(rat(2), POS_INF, Polynomial.zero()),
        ],
        0,
    )
    assert pw_integral(tent) == 1


def test_pw_nonneg_tent():
    tent = PiecewisePolynomial.make(
        [
            Piece(NEG_INF, rat(0), Polynomial.zero()),
            Piece(rat(0), rat(2), P(0, 1)),
            Piece(rat(2), POS_INF, Polynomial.constant(2)),
        ],
        0,
        validate=False,
    )
    res = pw_nonneg(tent)
    assert res.nonnegative
    assert res.witness is None and res.touch_points == (rat(0),)


@pytest.mark.parametrize("k", range(4))
def test_make_rejects_exactly_below_the_declared_class(k):
    # the pieces agree in derivatives 0..j-1 at 1/3 and differ in the j-th
    x0 = rat(1, 3)
    left = P(rat(2, 5), -1, rat(7, 3), 0, 1)
    for j in range(k + 3):
        right = left + P(*[0] * j, 1).shift(-x0).scale(rat(-3, 7))
        pieces = [Piece(rat(0), x0, left), Piece(x0, rat(1), right)]
        if j <= k:
            with pytest.raises(ValueError, match="disagree at breakpoint 1/3"):
                PiecewisePolynomial.make(pieces, k)
        else:
            assert PiecewisePolynomial.make(pieces, k).continuity_class == k
        assert PiecewisePolynomial.make(pieces, k, validate=False).pieces == tuple(pieces)


def test_pw_equal_across_different_breakpoints():
    one_piece = PiecewisePolynomial.make([Piece(rat(0), rat(1), P(0, 1))], 0)
    two_piece = PiecewisePolynomial.make(
        [Piece(rat(0), rat(1, 2), P(0, 1)), Piece(rat(1, 2), rat(1), P(0, 1))], 0
    )
    assert pw_equal(one_piece, two_piece)

