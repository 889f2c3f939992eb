"""Finitely supported distributions with exact rational masses.

A distribution is a sorted tuple of (value, mass) atoms with positive
masses summing to exactly one.  Moments, quantile steps, expected
minimum order statistics, and convolution are all computed in exact
rational arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Sequence

from ._scalar import Rat, ZERO, ONE, rat
from .errors import (
    EmptySupport,
    InvalidArgument,
    MassNotOne,
    NegativeMass,
    OrderOutOfRange,
    SupportCapExceeded,
)

CONVOLVE_CAP = 10**6


@dataclass(frozen=True)
class DiscreteDistribution:
    """Sorted finite support with positive masses summing to one."""

    atoms: tuple

    @property
    def values(self) -> tuple:
        return tuple(v for v, _ in self.atoms)

    @property
    def masses(self) -> tuple:
        return tuple(m for _, m in self.atoms)

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def min_value(self) -> Rat:
        return self.atoms[0][0]

    @property
    def max_value(self) -> Rat:
        return self.atoms[-1][0]

    def cumulative_masses(self) -> list:
        """Running mass sums c_1 <= ... <= c_m = 1."""
        out = []
        acc = ZERO
        for _, m in self.atoms:
            acc = acc + m
            out.append(acc)
        return out


def dist_validate(raw: Iterable[tuple]) -> DiscreteDistribution:
    """Sort by value, merge duplicate values, drop zero masses, and check
    that the total mass is exactly one.

    One sorted pass: equal values are adjacent after the sort, and the
    total is summed on integers over the masses' common denominator.

    Raises NegativeMass, MassNotOne, or EmptySupport.
    """
    items = [(rat(v), rat(m)) for v, m in raw]
    for v, m in items:
        if m < 0:
            raise NegativeMass(f"atom at {v} has negative mass {m}")
    items.sort(key=itemgetter(0))
    merged = []
    last = None
    for v, m in items:
        if v == last:
            merged[-1] = (v, merged[-1][1] + m)
        else:
            merged.append((v, m))
            last = v
    atoms = tuple((v, m) for v, m in merged if m != 0)
    if not atoms:
        raise EmptySupport("no atoms with positive mass")
    unit = math.lcm(*(m.denominator for _, m in atoms))
    total = Rat(sum(m.numerator * (unit // m.denominator) for _, m in atoms), unit)
    if total != 1:
        raise MassNotOne(f"masses sum to {total}, not 1")
    return DiscreteDistribution(atoms)


def point_mass(value) -> DiscreteDistribution:
    return DiscreteDistribution(((rat(value), ONE),))


def raw_moment(d: DiscreteDistribution, j: int) -> Rat:
    """E[X^j], exactly."""
    if j < 0:
        raise OrderOutOfRange(f"moment index {j} must be nonnegative")
    if j == 0:
        return ONE
    return sum((m * v**j for v, m in d.atoms), ZERO)


@dataclass(frozen=True)
class QuantileStep:
    """Left-continuous quantile step function.

    value ``values[i]`` applies on the half-open-from-the-left interval
    (cut_points[i], cut_points[i+1]]; the value at 0 is the support
    minimum.
    """

    cut_points: tuple  # 0 = c_0 < c_1 < ... < c_m = 1
    values: tuple  # x_1 < ... < x_m

    def __call__(self, p) -> Rat:
        p = rat(p)
        if p < 0 or p > 1:
            raise InvalidArgument(f"quantile argument {p} must lie in [0, 1]")
        if p == 0:
            return self.values[0]
        idx = bisect_left(self.cut_points, p)
        return self.values[idx - 1]

    def to_distribution(self) -> DiscreteDistribution:
        atoms = tuple(
            (v, self.cut_points[i + 1] - self.cut_points[i])
            for i, v in enumerate(self.values)
        )
        return DiscreteDistribution(atoms)


def quantile(d: DiscreteDistribution) -> QuantileStep:
    """The left-continuous inverse of the CDF."""
    cuts = [ZERO] + d.cumulative_masses()
    return QuantileStep(tuple(cuts), d.values)


def min_orderstat_means(d: DiscreteDistribution, top: int) -> tuple:
    """(mu_{1:1}, ..., mu_{1:top}), the expected minima of j independent
    draws, in one pass on integers: mu_{1:j} = x_1 + sum_i (x_{i+1} - x_i)
    S_i**j with S_i the survival just above x_i.  Over the least common
    denominators D of the values and W of the masses, x_i = X_i / D and
    S_i = R_i / W, and D W**j mu_{1:j} = X_1 W**j + sum_i (X_{i+1} - X_i) R_i**j.
    """
    if top < 1:
        raise OrderOutOfRange(f"order statistic index {top} must be positive")
    unit = math.lcm(*(v.denominator for v, _ in d.atoms))
    wunit = math.lcm(*(m.denominator for _, m in d.atoms))
    xs = [v.numerator * (unit // v.denominator) for v, _ in d.atoms]
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    ws = [m.numerator * (wunit // m.denominator) for _, m in d.atoms[:-1]]
    surv = [wunit - c for c in accumulate(ws)]
    out, powers, wj = [], surv, wunit
    for _ in range(top):
        out.append(Rat(xs[0] * wj + sum(g * r for g, r in zip(gaps, powers)), unit * wj))
        powers = [r * s for r, s in zip(powers, surv)]
        wj *= wunit
    return tuple(out)


def min_orderstat_mean(d: DiscreteDistribution, k: int) -> Rat:
    """Expected minimum of k independent draws; see min_orderstat_means."""
    return min_orderstat_means(d, k)[-1]


def convolve(
    a: DiscreteDistribution, b: DiscreteDistribution, cap: int = CONVOLVE_CAP
) -> DiscreteDistribution:
    """Distribution of the independent sum, values merged exactly."""
    if a.size * b.size > cap:
        raise SupportCapExceeded(
            f"convolution would touch {a.size * b.size} atom pairs (cap {cap})"
        )
    acc: dict = {}
    for va, ma in a.atoms:
        for vb, mb in b.atoms:
            key = va + vb
            prev = acc.get(key)
            acc[key] = ma * mb if prev is None else prev + ma * mb
    return DiscreteDistribution(tuple(sorted(acc.items())))
