"""Exact polynomials, piecewise polynomials, and sign decision procedures.

Conventions
-----------
* A polynomial is a tuple of rational coefficients, lowest power first,
  trailing zeros trimmed; the zero polynomial is the empty tuple.
* A :class:`Piece` covers the half-open interval ``[lower, upper)`` so
  step functions built on pieces are right-continuous, matching the
  distribution-function convention.  A finite domain maximum belongs to
  the final piece.
* Sign decisions are exact and run on Python ints: signs do not change
  under positive scaling, so each polynomial is decided through its
  primitive integer multiple.  A rational point a/b enters as
  b**d * p(a/b) (homogeneous Horner) or as an integer Taylor shift.  When
  (1 + t)**d * p((lo + hi t) / (1 + t)) has no sign variation, p has no
  root in (lo, hi) (interval Descartes); otherwise bisection on that count
  isolates the roots of the square-free part, and signs are sampled at
  rational points between them.  Roots of even multiplicity never falsify
  nonnegativity; rational zeros located exactly are touch points.
* The sign kernel takes an :class:`IntPolynomial`, integer coefficients
  over a positive denominator; a :class:`Polynomial` is converted once
  on the way in.  ``pw_integrated_measure`` is the one curve builder:
  it builds the order-n curve of a signed measure in that form, so the
  difference curves of the dominance decisions never pass through
  rational coefficients, and a single curve becomes rational by one
  ``IntPolynomial.as_rational`` per piece.
* Values stay exact rationals at the boundary: bounds, witnesses, touch
  points and witness values are ``Rat``, and a witness value is
  evaluated exactly once it is reported.
* Unbounded domains use ``float('inf')`` sentinels for comparison only;
  they never take part in arithmetic.

Everything here is immutable and the functions are pure, so concurrent
use needs no synchronisation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from typing import Iterable, Optional, Sequence, Union

from ._scalar import Rat, ZERO, ONE, rat, rat_floor
from .errors import DomainMismatch, NonIntegrable

NEG_INF = float("-inf")
POS_INF = float("inf")

Bound = Union[Rat, float]

# How many Stern-Brocot probes to spend trying to pin an isolated root
# to an exact rational before leaving it as an interval.
_RATIONALIZE_ROUNDS = 48


# ---------------------------------------------------------------------------
# dense polynomials
# ---------------------------------------------------------------------------


def _trim(cs: list) -> tuple:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _peval(cs: Sequence, x) -> Rat:
    acc = ZERO
    for c in reversed(cs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial with exact rational coefficients."""

    coeffs: tuple

    @staticmethod
    def make(coeffs: Iterable) -> "Polynomial":
        return Polynomial(_trim([rat(c) for c in coeffs]))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def constant(c) -> "Polynomial":
        c = rat(c)
        return Polynomial((c,) if c != 0 else ())

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x) -> Rat:
        return _peval(self.coeffs, rat(x))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(_trim(out))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = rat(c)
        if c == 0:
            return Polynomial(())
        return Polynomial(tuple(c * a for a in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial(())
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return Polynomial(_trim(out))

    def derivative(self) -> "Polynomial":
        cs = self.coeffs
        return Polynomial(tuple(i * cs[i] for i in range(1, len(cs))))

    def antiderivative(self, anchor, value_at_anchor) -> "Polynomial":
        """The antiderivative P with P(anchor) = value_at_anchor, exactly."""
        cs = self.coeffs
        out = [ZERO] + [cs[i] / (i + 1) for i in range(len(cs))]
        anchor = rat(anchor)
        out[0] = rat(value_at_anchor) - _peval(out, anchor)
        return Polynomial(_trim(out))

    def shift(self, a) -> "Polynomial":
        """Taylor shift: returns q with q(t) = p(t + a)."""
        a = rat(a)
        if a == 0 or self.is_zero:
            return self
        out: tuple = ()
        for c in reversed(self.coeffs):
            # out := out * (t + a) + c
            prev = out
            res = [ZERO] * (len(prev) + 1)
            for i, p in enumerate(prev):
                res[i + 1] = res[i + 1] + p
                res[i] = res[i] + a * p
            res[0] = res[0] + c
            out = tuple(res)
        return Polynomial(_trim(list(out)))

    def as_int(self) -> "IntPolynomial":
        """The same polynomial as integers over their least common
        denominator."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return IntPolynomial(tuple(c.numerator * (den // c.denominator) for c in self.coeffs), den)


@dataclass(frozen=True)
class IntPolynomial:
    """The polynomial num(x) / den: integer coefficients ``num``, lowest
    power first with trailing zeros trimmed, over an integer ``den > 0``.

    This is the form the sign kernel decides on; ``den`` only enters the
    exact values it reports.
    """

    num: tuple
    den: int

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    def as_int(self) -> "IntPolynomial":
        return self

    def __call__(self, x) -> Rat:
        if not self.num:
            return ZERO
        a, b = rat(x).as_integer_ratio()
        return Rat(_homogeneous(self.num, a, b), b**self.degree * self.den)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.num), self.den)

    def reflect(self) -> "IntPolynomial":
        """num(-t) / den."""
        return IntPolynomial(
            tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.num)), self.den
        )

    def as_rational(self) -> Polynomial:
        """The same polynomial with rational coefficients; the inverse of
        ``Polynomial.as_int``."""
        return Polynomial(tuple(Rat(c, self.den) for c in self.num))


# ---------------------------------------------------------------------------
# integer kernel (see the module docstring)
# ---------------------------------------------------------------------------


def _primitive_int(cs: Sequence) -> tuple:
    """Integer coefficients divided by their gcd: coprime, same signs."""
    g = math.gcd(*cs)
    return tuple(c // g for c in cs) if g > 1 else tuple(cs)


def _homogeneous(cs: Sequence, a: int, b: int) -> int:
    """b**d * p(a/b) for integer coefficients of degree d, by homogeneous
    Horner: the whole evaluation stays on ints."""
    acc, bk = 0, 1
    for c in reversed(cs):
        acc = acc * a + c * bk
        bk *= b
    return acc


def _sign_at(cs: Sequence, x) -> int:
    """Sign of p(x) for integer coefficients, read off b**d * p(a/b)."""
    acc = _homogeneous(cs, *x.as_integer_ratio())
    return (acc > 0) - (acc < 0)


def _taylor_at(cs: Sequence, x, count: int) -> list:
    """Positive multiples of the ``count`` lowest Taylor coefficients of p
    at x, i.e. of the coefficients of p(x + t).

    For x = a/b, p(x + t) = P(a + b t) / b**d; shifting P by the integer
    a gives coefficients r_j, and p(x + t) has r_j * b**(j - d) at t**j.
    """
    a, b = x.as_integer_ratio()
    d = len(cs) - 1
    out = list(cs)
    bk = 1
    for i in range(d - 1, -1, -1):
        bk *= b
        out[i] *= bk
    if a:
        for j in range(min(count, d)):
            for i in range(d - 1, j - 1, -1):
                out[i] += a * out[i + 1]
    return out[:count]


def _prem(a: tuple, b: tuple) -> tuple:
    """Pseudo-remainder of integer a by integer b that keeps the sign: the
    remainder of |lc(b)|**k * a for some k <= deg a - deg b + 1, so it is a
    positive multiple of the rational remainder of a by b."""
    r = list(a)
    db = len(b) - 1
    lead = abs(b[-1])
    flip = 1 if b[-1] > 0 else -1
    for k in range(len(a) - 1 - db, -1, -1):
        top = r[k + db]
        if top == 0:
            continue
        q = top * flip
        for i in range(k + db):
            r[i] *= lead
        r[k + db] = 0
        for i in range(db):
            r[k + i] -= q * b[i]
    return _trim(r)


def _exquo(a: tuple, b: tuple) -> tuple:
    """The quotient of integer a by a primitive integer divisor b, exact
    (Gauss's lemma keeps it integral)."""
    r = list(a)
    db = len(b) - 1
    quo = [0] * (len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = r[k + db] // b[-1]
        for i in range(db + 1):
            r[k + i] -= c * b[i]
    assert not any(r), "exact division left a remainder"
    return _trim(quo)


def _deriv(cs: tuple) -> tuple:
    return tuple(i * cs[i] for i in range(1, len(cs)))


def _gcd_poly(a: tuple, b: tuple) -> tuple:
    while b:
        a, b = b, _primitive_int(_prem(a, b))
    return a


def _square_free(cs: tuple) -> tuple:
    """The primitive square-free part of integer cs: same roots, all simple."""
    if len(cs) <= 2:
        return cs
    g = _gcd_poly(cs, _primitive_int(_deriv(cs)))
    if len(g) <= 1:
        return cs
    return _exquo(cs, g)


def _deflate(cs: tuple, root) -> tuple:
    """Exact division of integer cs by the primitive (b x - a) for the root
    a/b; a primitive cs gives a primitive quotient (Gauss's lemma)."""
    a, b = root.as_integer_ratio()
    return _exquo(cs, (-a, b))


def _simplest_between(x, y) -> Rat:
    """The smallest-denominator rational strictly inside the open (x, y)."""
    n = rat_floor(x) + 1
    if n < y:
        return rat(n)
    f = n - 1
    a, b = x - f, y - f  # 0 <= a < b <= 1
    if a == 0:
        return f + rat(1, rat_floor(1 / b) + 1)
    return f + 1 / _simplest_between(1 / b, 1 / a)


def _descartes(taylor: list, lo, hi) -> int:
    """Sign variations of q(t) = (1 + t)**d * p((lo + hi t) / (1 + t)) from
    the r_j of ``taylor = _taylor_at(p, lo, d + 1)``: by Descartes' rule, at
    least the number of roots of p in the open (lo, hi), with the same parity.

    For lo = a/b and b (hi - lo) = e/f, sum r_j e**j f**(d-j) u**j is a
    positive multiple of p(lo + u (hi - lo)); reversed and shifted by 1 it
    is a positive multiple of q.
    """
    if min(taylor) >= 0:
        return 0  # then q has no negative coefficient either
    d = len(taylor) - 1
    e, f = (lo.denominator * (hi - lo)).as_integer_ratio()
    q = [r * e ** (d - i) * f**i for i, r in enumerate(reversed(taylor))]
    signs = [c > 0 for c in _taylor_at(q, 1, d + 1) if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _isolate_roots(g: tuple, lo, hi) -> list:
    """Locate the distinct real roots of square-free g in the open (lo, hi)
    by interval Descartes bisection.

    Preconditions: g(lo) != 0 and g(hi) != 0.  Returns a sorted list of
    ('exact', r) and ('interval', a, b) entries; intervals hold exactly
    one simple root, have non-root endpoints of opposite sign, and are
    pairwise disjoint from each other and from the exact roots.
    """
    out: list = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        n = _descartes(_taylor_at(g, a, len(g)), a, b)
        if n == 0:
            continue
        if n == 1:
            out.append(("interval", a, b))
            continue
        m = (a + b) / 2
        if _sign_at(g, m) == 0:
            h = _deflate(g, m)
            sub = _isolate_roots(h, a, b)
            for loc in sub:
                out.append(_refine_strictly_away(h, loc, m))
            out.append(("exact", m))
        else:
            stack.append((a, m))
            stack.append((m, b))
    out.sort(key=lambda loc: loc[1])
    return out


def _midpoint(a, b) -> Rat:
    return (a + b) / 2


def _narrow(g: tuple, a, b, probe, stop):
    """Shrink the isolating interval (a, b) of one simple root of g.

    Probes at ``probe(a, b)`` and keeps the half that still holds the
    sign change until ``stop(a, b, probes_made)`` holds.  The endpoints
    are never roots and bracket the root, so a probe's sign against the
    left endpoint's alone picks the half.  Returns ('exact', c) when a
    probe lands on the root, else the narrowed ('interval', a, b).
    """
    sa = _sign_at(g, a)
    k = 0
    while not stop(a, b, k):
        c = probe(a, b)
        k += 1
        sc = _sign_at(g, c)
        if sc == 0:
            return ("exact", c)
        if sc != sa:
            b = c
        else:
            a = c
    return ("interval", a, b)


def _refine_strictly_away(h: tuple, loc, point):
    """Refine an isolating interval of h until it excludes ``point``.

    ``point`` is not a root of h; exact locations pass through untouched.
    May upgrade the interval to an exact root if a probe hits it.
    """
    if loc[0] == "exact":
        return loc
    _, u, v = loc
    if v < point or u > point:
        return loc
    if u < point < v:
        if _sign_at(h, point) != _sign_at(h, u):
            v = point
        else:
            u = point
    # point is now an endpoint; shrink that endpoint strictly inward.
    return _narrow(h, u, v, _midpoint, lambda a, b, k: a != point and b != point)


def _rationalize(g: tuple, loc):
    """Try to pin an isolated root to an exact rational via Stern-Brocot
    probes; leaves the (narrowed) interval when the root resists."""
    if loc[0] == "exact":
        return loc
    _, a, b = loc
    return _narrow(g, a, b, _simplest_between, lambda a, b, k: k == _RATIONALIZE_ROUNDS)


def _pull_edge_inward(g: tuple, loc, lo, hi):
    """Ensure an isolating interval's endpoints differ from lo and hi."""
    if loc[0] == "exact":
        return loc
    _, a, b = loc
    return _narrow(g, a, b, _midpoint, lambda a, b, k: a != lo and b != hi)


# ---------------------------------------------------------------------------
# sign reports
# ---------------------------------------------------------------------------


class SignVerdict(Enum):
    NONNEGATIVE_EVERYWHERE = "NonnegativeEverywhere"
    NEGATIVE_SOMEWHERE = "NegativeSomewhere"


@dataclass(frozen=True)
class SignReport:
    """Outcome of an exact nonnegativity decision.

    ``witness`` is a rational point with strictly negative value when the
    verdict is NegativeSomewhere; ``touch_points`` are exactly-located
    rational zeros (roots that are irrational are decided against but not
    listed, since they have no exact representation).
    """

    verdict: SignVerdict
    witness: Optional[Rat]
    witness_value: Optional[Rat]
    touch_points: tuple

    @property
    def nonnegative(self) -> bool:
        return self.verdict is SignVerdict.NONNEGATIVE_EVERYWHERE


def _negative(point, value) -> SignReport:
    return SignReport(SignVerdict.NEGATIVE_SOMEWHERE, point, value, ())


def _nonnegative(touch: Iterable) -> SignReport:
    return SignReport(
        SignVerdict.NONNEGATIVE_EVERYWHERE, None, None, tuple(sorted(set(touch)))
    )


def nonneg_on_interval(p, lo, hi) -> SignReport:
    """Exact decision of p(x) >= 0 for all x in [lo, hi]; p is a
    Polynomial or an IntPolynomial."""
    lo, hi = rat(lo), rat(hi)
    if not lo < hi:
        raise ValueError("nonneg_on_interval requires lo < hi")
    p = p.as_int()
    if p.is_zero:
        return _nonnegative(())
    ip = _primitive_int(p.num)
    touch = set()
    for pt in (lo, hi, (lo + hi) / 2):
        s = _sign_at(ip, pt)
        if s < 0:
            return _negative(pt, p(pt))
        if s == 0:
            touch.add(pt)
    deg = len(ip) - 1
    if deg <= 1:
        # a constant or a line nonnegative at both ends: no other zero
        return _nonnegative(touch)
    if deg == 2:
        vertex = rat(-ip[1], 2 * ip[2])
        if lo <= vertex <= hi:
            s = _sign_at(ip, vertex)
            if ip[2] > 0 and s < 0:
                return _negative(vertex, p(vertex))
            if s == 0:
                touch.add(vertex)
        return _nonnegative(touch)
    # extra screen for higher degree
    quarter = (hi - lo) / 4
    for pt in (lo + quarter, hi - quarter):
        s = _sign_at(ip, pt)
        if s < 0:
            return _negative(pt, p(pt))
        if s == 0:
            touch.add(pt)
    if _descartes(_taylor_at(ip, lo, len(ip)), lo, hi) == 0:
        # no root in (lo, hi), and the midpoint was screened
        return _nonnegative(touch)
    return _nonneg_by_isolation(p, ip, lo, hi, touch)


def _nonneg_by_isolation(p: IntPolynomial, ip: tuple, lo, hi, touch: set) -> SignReport:
    """The isolation path of nonneg_on_interval, for a positive Descartes
    count on (lo, hi); ``ip`` is the primitive form of ``p.num``."""
    g = _square_free(ip)
    while _sign_at(g, lo) == 0:
        g = _deflate(g, lo)
    while _sign_at(g, hi) == 0:
        g = _deflate(g, hi)
    if len(g) <= 1:
        # all roots sat at the endpoints; interior sign is constant and the
        # midpoint was already screened
        return _nonnegative(touch)
    locs = _isolate_roots(g, lo, hi)
    locs = [_rationalize(g, loc) for loc in locs]
    locs = [_pull_edge_inward(g, loc, lo, hi) for loc in locs]
    samples = {lo, hi}
    prev = lo
    for loc in locs:
        if loc[0] == "exact":
            a = b = loc[1]
            touch.add(a)
        else:
            _, a, b = loc
            samples.add(a)
            samples.add(b)
        if prev < a:
            samples.add((prev + a) / 2)
        prev = b
    if prev < hi:
        samples.add((prev + hi) / 2)
    for s in samples:
        sign = _sign_at(ip, s)
        if sign < 0:
            return _negative(s, p(s))
        if sign == 0:
            touch.add(s)
    return _nonnegative(touch)


def _cauchy_root_bound(cs: tuple) -> Rat:
    """All real roots of the integer polynomial cs lie in [-B, B]."""
    return ONE + rat(max(abs(c) for c in cs[:-1]), abs(cs[-1]))


def nonneg_on_ray(p, lo) -> SignReport:
    """Exact decision of p(x) >= 0 for all x >= lo; p is a Polynomial or
    an IntPolynomial."""
    lo = rat(lo)
    p = p.as_int()
    cs = p.num
    if not cs:
        return _nonnegative(())
    if len(cs) == 1:
        if cs[0] < 0:
            return _negative(lo, p(lo))
        return _nonnegative(())
    cut = max(lo, _cauchy_root_bound(cs)) + 1
    if cs[-1] < 0:
        v = p(cut)
        assert v < 0
        return _negative(cut, v)
    return nonneg_on_interval(p, lo, cut)


def nonneg_on_left_ray(p, hi) -> SignReport:
    """Exact decision of p(x) >= 0 for all x <= hi; p is a Polynomial or
    an IntPolynomial."""
    rep = nonneg_on_ray(p.as_int().reflect(), -rat(hi))
    return SignReport(
        rep.verdict,
        None if rep.witness is None else -rep.witness,
        rep.witness_value,
        tuple(sorted(-t for t in rep.touch_points)),
    )


# ---------------------------------------------------------------------------
# piecewise polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """One polynomial piece on [lower, upper); bounds may be +/-inf.  The
    polynomial is rational or, on a curve built in integer form, an
    IntPolynomial."""

    lower: Bound
    upper: Bound
    poly: Union[Polynomial, IntPolynomial]


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Contiguous sorted pieces over a connected domain.

    ``continuity_class`` is -1 when jumps are allowed, 0 for continuous,
    k for C^k; adjacent pieces of a C^k function agree at shared
    breakpoints up to the k-th derivative, exactly.
    """

    pieces: tuple
    continuity_class: int

    @staticmethod
    def make(
        pieces: Sequence[Piece], continuity_class: int, validate: bool = True
    ) -> "PiecewisePolynomial":
        if not pieces:
            raise ValueError("a piecewise polynomial needs at least one piece")
        for pc in pieces:
            if not pc.lower < pc.upper:
                raise ValueError("piece bounds must satisfy lower < upper")
        for left, right in zip(pieces, pieces[1:]):
            if left.upper != right.lower:
                raise ValueError("pieces must be contiguous")
        if validate and continuity_class >= 0:
            # C^k at x: the k + 1 lowest Taylor coefficients of the
            # difference of the two pieces vanish there
            ints = [pc.poly.as_int() for pc in pieces]
            for left, lp, rp in zip(pieces, ints, ints[1:]):
                ld, rd = (1, 1) if lp.den == rp.den else (lp.den, rp.den)
                diff = _trim([u * rd - v * ld for u, v in zip_longest(lp.num, rp.num, fillvalue=0)])
                if diff and any(_taylor_at(diff, left.upper, continuity_class + 1)):
                    raise ValueError(
                        f"pieces disagree at breakpoint {left.upper} for "
                        f"declared continuity class {continuity_class}"
                    )
        return PiecewisePolynomial(tuple(pieces), continuity_class)

    @property
    def domain(self) -> tuple[Bound, Bound]:
        return (self.pieces[0].lower, self.pieces[-1].upper)

    @property
    def is_zero(self) -> bool:
        return all(pc.poly.is_zero for pc in self.pieces)

    def breakpoints(self) -> list:
        """Interior finite breakpoints, sorted."""
        return [pc.lower for pc in self.pieces[1:]]

    def piece_at(self, x) -> Piece:
        lowers = [pc.lower for pc in self.pieces[1:]]
        idx = bisect_right(lowers, x)
        lo, hi = self.domain
        if x < lo or x > hi:
            raise ValueError(f"{x} is outside the domain [{lo}, {hi}]")
        if idx == len(self.pieces):
            idx -= 1
        return self.pieces[idx]

    def __call__(self, x) -> Rat:
        """Value at x; breakpoints resolve to the right piece (the final
        piece also covers a finite domain maximum)."""
        x = rat(x)
        return self.piece_at(x).poly(x)


def _coalesce(pieces: list[Piece]) -> list[Piece]:
    out: list[Piece] = []
    for pc in pieces:
        if out and out[-1].poly == pc.poly:
            out[-1] = Piece(out[-1].lower, pc.upper, pc.poly)
        else:
            out.append(pc)
    return out


def pw_linear_combine(
    f: PiecewisePolynomial, g: PiecewisePolynomial, cf, cg
) -> PiecewisePolynomial:
    """cf*f + cg*g on the refined breakpoint set.

    Raises DomainMismatch unless the two domains are identical.
    """
    if f.domain != g.domain:
        raise DomainMismatch(f"domains differ: {f.domain} vs {g.domain}")
    cf, cg = rat(cf), rat(cg)
    cuts = sorted(set(f.breakpoints()) | set(g.breakpoints()))
    lo, hi = f.domain
    edges = [lo] + cuts + [hi]
    fi = gi = 0
    pieces = []
    for a, b in zip(edges, edges[1:]):
        while f.pieces[fi].upper <= a:
            fi += 1
        while g.pieces[gi].upper <= a:
            gi += 1
        poly = f.pieces[fi].poly.scale(cf) + g.pieces[gi].poly.scale(cg)
        pieces.append(Piece(a, b, poly))
    pieces = _coalesce(pieces)
    cls = min(f.continuity_class, g.continuity_class)
    return PiecewisePolynomial(tuple(pieces), cls)


def pw_integrated_measure(atoms: Sequence, k: int, lo: Bound, hi: Bound) -> PiecewisePolynomial:
    """(1/k!) * sum_a w_a (x - a)_+^k on [lo, hi] for a signed measure
    given by its atoms (a, w_a), sorted with distinct rational
    lo <= a < hi, built on ints.

    With D the least common denominator of the atoms and W that of the
    weights, the piece right of an atom is N(x) / K with integer
    N(x) = sum w_a W (D x - a D)^k over the atoms up to it and
    K = k! W D^k.  Pieces break at the atoms; adjacent pieces with equal N
    coalesce, and the result is checked to be C^(k-1).
    """
    unit = math.lcm(*(a.denominator for a, _ in atoms))
    wunit = math.lcm(*(w.denominator for _, w in atoms))
    den = math.factorial(k) * wunit * unit**k
    # N_j = C(k, j) D^j s_{k-j}, with s_i = sum w_a W (-a D)^i
    binom = [math.comb(k, j) * unit**j for j in range(k + 1)]
    sums = [0] * (k + 1)
    first = atoms[0][0]
    pieces = [] if first == lo else [Piece(lo, first, IntPolynomial((), den))]
    uppers = [a for a, _ in atoms[1:]] + [hi]
    for (a, w), upper in zip(atoms, uppers):
        if w:
            term = w.numerator * (wunit // w.denominator)
            shift = -a.numerator * (unit // a.denominator)
            for i in range(k + 1):
                sums[i] += term
                term *= shift
        num = _trim([binom[j] * sums[k - j] for j in range(k + 1)])
        pieces.append(Piece(a, upper, IntPolynomial(num, den)))
    return PiecewisePolynomial.make(_coalesce(pieces), k - 1)


def pw_antiderivative(
    f: PiecewisePolynomial, from_left: bool = True
) -> PiecewisePolynomial:
    """Anchored piecewise antiderivative.

    from_left: F(x) = integral of f from the left end of the domain up to
    x, anchored to 0 at that end; F' = f.
    from_left=False: G(x) = integral of f from x to the right end,
    anchored to 0 there; note G' = -f.

    Raises NonIntegrable when an unbounded end carries a nonzero piece
    (the anchored tail integral would diverge).
    """
    pieces = f.pieces
    out: list[Piece] = []
    if from_left:
        running = ZERO
        for i, pc in enumerate(pieces):
            if pc.lower == NEG_INF:
                if not pc.poly.is_zero:
                    raise NonIntegrable(
                        "nonzero integrand on an unbounded left piece"
                    )
                out.append(Piece(pc.lower, pc.upper, Polynomial.zero()))
            else:
                prim = pc.poly.antiderivative(pc.lower, running)
                out.append(Piece(pc.lower, pc.upper, prim))
                if pc.upper != POS_INF:
                    running = prim(pc.upper)
    else:
        running = ZERO
        for pc in reversed(pieces):
            if pc.upper == POS_INF:
                if not pc.poly.is_zero:
                    raise NonIntegrable(
                        "nonzero integrand on an unbounded right piece"
                    )
                out.append(Piece(pc.lower, pc.upper, Polynomial.zero()))
            else:
                prim = (-pc.poly).antiderivative(pc.upper, running)
                out.append(Piece(pc.lower, pc.upper, prim))
                if pc.lower != NEG_INF:
                    running = prim(pc.lower)
        out.reverse()
    return PiecewisePolynomial(tuple(out), f.continuity_class + 1)


def pw_integral(f: PiecewisePolynomial) -> Rat:
    """Integral of f over its whole domain, exactly.

    Unbounded pieces must carry the zero polynomial.
    """
    total = ZERO
    for pc in f.pieces:
        if pc.lower == NEG_INF or pc.upper == POS_INF:
            if not pc.poly.is_zero:
                raise NonIntegrable("nonzero integrand on an unbounded piece")
            continue
        prim = pc.poly.antiderivative(pc.lower, ZERO)
        total = total + prim(pc.upper)
    return total


def pw_equal(f: PiecewisePolynomial, g: PiecewisePolynomial) -> bool:
    return f.domain == g.domain and pw_linear_combine(f, g, 1, -1).is_zero


# ---------------------------------------------------------------------------
# piecewise sign analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PieceSignDigest:
    """Per-piece sign certificate used in dominance verdicts."""

    lower: Bound
    upper: Bound
    verdict: SignVerdict
    witness: Optional[Rat]
    witness_value: Optional[Rat]
    touch_points: tuple


@dataclass(frozen=True)
class PwSignResult:
    nonnegative: bool
    witness: Optional[Rat]
    witness_value: Optional[Rat]
    touch_points: tuple
    pieces: tuple


def _piece_sign(pc: Piece) -> SignReport:
    poly = pc.poly.as_int()
    if poly.degree <= 0:
        if poly.num and poly.num[0] < 0:
            if pc.lower == NEG_INF:
                pt = pc.upper - 1
            elif pc.upper == POS_INF:
                pt = pc.lower + 1
            else:
                pt = (pc.lower + pc.upper) / 2
            return _negative(rat(pt), poly(pt))
        return _nonnegative(())
    if pc.lower == NEG_INF:
        return nonneg_on_left_ray(poly, pc.upper)
    if pc.upper == POS_INF:
        return nonneg_on_ray(poly, pc.lower)
    return nonneg_on_interval(poly, pc.lower, pc.upper)


def pw_nonneg(f: PiecewisePolynomial) -> PwSignResult:
    """Decide f >= 0 on the whole domain, with per-piece certificates.

    Bounded pieces are decided on their closure, which is equivalent for
    the continuous curves this engine compares (step curves only ever
    carry constant pieces, decided on the piece itself).
    """
    digests = []
    first_witness = None
    first_value = None
    touch: set = set()
    for pc in f.pieces:
        rep = _piece_sign(pc)
        digests.append(
            PieceSignDigest(
                pc.lower, pc.upper, rep.verdict, rep.witness,
                rep.witness_value, rep.touch_points,
            )
        )
        if rep.nonnegative:
            touch.update(rep.touch_points)
        elif first_witness is None:
            first_witness, first_value = rep.witness, rep.witness_value
    return PwSignResult(
        first_witness is None,
        first_witness,
        first_value,
        tuple(sorted(touch)),
        tuple(digests),
    )
