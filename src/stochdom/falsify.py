"""Seeded random generation of constrained distribution pairs and
registered property suites that exercise every dominance theorem at
desk scale.

Determinism: all randomness flows from a splitmix64 stream derived from
(config seed, suite tag, trial index) with pure integer mixing, so any
recorded violation replays identically on every platform.  Masses are
built from integer cut points over a common denominator, which makes
them exactly normalized by construction (the last atom absorbs the
residual).

Constrained pair generation solves exact rational linear systems:
raw-moment matching is linear in the second distribution's masses for a
fixed support, and minimum-order-statistic matching is linear in its
support values for fixed masses.  Both start from a feasible particular
solution, perturb along the null space, and reject until the positivity
or monotonicity side conditions hold.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from itertools import product as _iter_product
from typing import Callable, Optional

# traced entry points are called through their modules (see the package docstring)
from . import distributions, dominance, exact
from ._scalar import Rat, ZERO, ONE, rat, rat_str
from .distributions import (
    DiscreteDistribution,
    dist_validate,
    min_orderstat_means,
    quantile,
    raw_moment,
)
from .dominance import Relation
from .errors import GenerationExhausted, UnknownSuite
from .transforms import (
    CurveKind,
    asymptote,
    difference_curve,
    integrated_curve,
    integrated_curve_via_recursion,
)

# ``noise`` and ``filters`` are imported by the suites that call them, so
# a run of any other suite loads neither.

# ---------------------------------------------------------------------------
# deterministic pseudo-random stream
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Tiny platform-independent 64-bit mixing generator."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


def _substream_seed(seed: int, *tags: int) -> int:
    s = seed & _MASK64
    for t in tags:
        s = _mix64(s ^ ((t * _GOLDEN) & _MASK64))
    return s


def _suite_tag(name: str) -> int:
    return zlib.crc32(name.encode("ascii"))


# ---------------------------------------------------------------------------
# generator configuration and primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    support_sizes: tuple = (2, 5)
    value_range: tuple = (-10, 10)
    denominator_cap: int = 12
    seed: int = 0


def _draw_values(rng: SplitMix64, cfg: GenConfig, size: int) -> list:
    lo, hi = rat(cfg.value_range[0]), rat(cfg.value_range[1])
    den = rng.randint(1, cfg.denominator_cap)
    units = int((hi - lo) * den)
    while units + 1 < 2 * size:
        den *= 2
        units = int((hi - lo) * den)
    chosen: set = set()
    while len(chosen) < size:
        chosen.add(rng.below(units + 1))
    return sorted(lo + rat(u, den) for u in chosen)


def _draw_masses(rng: SplitMix64, cfg: GenConfig, size: int) -> list:
    if size == 1:
        return [ONE]
    den = max(cfg.denominator_cap, size + 1)
    cuts: set = set()
    while len(cuts) < size - 1:
        cuts.add(rng.randint(1, den - 1))
    edges = [0] + sorted(cuts) + [den]
    return [rat(b - a, den) for a, b in zip(edges, edges[1:])]


def _random_dist(rng: SplitMix64, cfg: GenConfig) -> DiscreteDistribution:
    size = rng.randint(cfg.support_sizes[0], cfg.support_sizes[1])
    values = _draw_values(rng, cfg, size)
    masses = _draw_masses(rng, cfg, size)
    return DiscreteDistribution(tuple(zip(values, masses)))


def gen_random_dist(cfg: GenConfig) -> DiscreteDistribution:
    """Deterministic distribution draw; identical configs yield identical
    results."""
    return _random_dist(SplitMix64(_substream_seed(cfg.seed, 1)), cfg)


# exact affine solve: particular solution plus null-space basis


def _solve_affine(rows: list, rhs: list) -> tuple[list, list]:
    m, ncols = len(rows), len(rows[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((rr for rr in range(r, m) if aug[rr][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [a / pv for a in aug[r]]
        for rr in range(m):
            if rr != r and aug[rr][c] != 0:
                f = aug[rr][c]
                aug[rr] = [a - f * b for a, b in zip(aug[rr], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for rr in range(r, m):
        if aug[rr][ncols] != 0:
            raise ValueError("inconsistent linear system")
    free = [c for c in range(ncols) if c not in set(pivots)]
    particular = [ZERO] * ncols
    for i, c in enumerate(pivots):
        particular[c] = aug[i][ncols]
    basis = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for i, c in enumerate(pivots):
            vec[c] = -aug[i][fc]
        basis.append(vec)
    return particular, basis


def _small_rat(rng: SplitMix64, cap: int) -> Rat:
    num = rng.randint(-cap, cap)
    den = rng.randint(1, cap)
    return rat(num, den)


def _project_onto_solutions(target: list, particular: list, basis: list) -> list:
    """Exact least-squares projection of ``target`` onto the affine
    solution set ``particular + span(basis)``; the basis has full column
    rank, so the normal equations are nonsingular."""
    m, nb = len(target), len(basis)
    gram = [
        [sum(basis[i][r] * basis[j][r] for r in range(m)) for j in range(nb)]
        for i in range(nb)
    ]
    rhs = [
        sum(basis[i][r] * (target[r] - particular[r]) for r in range(m))
        for i in range(nb)
    ]
    coeffs, _ = _solve_affine(gram, rhs)
    return [
        particular[r] + sum(coeffs[i] * basis[i][r] for i in range(nb))
        for r in range(m)
    ]


def gen_moment_matched_pair(
    cfg: GenConfig, match_up_to: int
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """A pair with raw moments exactly equal for j = 0..match_up_to.

    The second support is drawn fresh (alternating with supersets of the
    first support); its masses are found by exact least-squares
    projection of a random positive mass vector onto the moment-equation
    subspace, rejected until strictly positive.  Raises
    GenerationExhausted after the retry budget.
    """
    rng = SplitMix64(_substream_seed(cfg.seed, 2, match_up_to))
    lo, hi = cfg.support_sizes
    if hi < match_up_to + 2:
        raise GenerationExhausted(
            f"matching {match_up_to + 1} moment equations needs at least "
            f"{match_up_to + 2} support points; the config caps supports at {hi}"
        )
    x = _random_dist(rng, cfg)
    targets = [raw_moment(x, j) for j in range(match_up_to + 1)]
    for attempt in range(20):
        if attempt % 2 == 0 and x.size + 1 <= hi:
            extra_n = min(hi - x.size, max(2, match_up_to + 2 - x.size))
            extra = _draw_values(rng, cfg, extra_n)
            support = sorted(set(x.values) | set(extra))
        else:
            support = _draw_values(rng, cfg, rng.randint(max(lo, match_up_to + 2), hi))
        if len(support) < match_up_to + 2:
            continue
        rows = [[s**j for s in support] for j in range(match_up_to + 1)]
        try:
            particular, basis = _solve_affine(rows, targets)
        except ValueError:
            continue
        if not basis:
            continue
        for _ in range(10):
            seeded = _draw_masses(rng, cfg, len(support))
            q = _project_onto_solutions(seeded, particular, basis)
            if all(qi > 0 for qi in q):
                y = dist_validate(zip(support, q))
                if y.atoms != x.atoms:
                    return x, y
    raise GenerationExhausted(
        f"no positive moment-matched partner after 200 tries (k={match_up_to})"
    )


def gen_orderstat_matched_pair(
    cfg: GenConfig, match_up_to: int
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """A pair with mu_{1:j} exactly equal for j = 1..match_up_to.

    The second distribution reuses the first one's masses; its support
    values solve the linear order-statistic system (the first one's own
    values are a feasible point) perturbed along the null space, rejected
    until strictly increasing and distinct from the original.
    """
    rng = SplitMix64(_substream_seed(cfg.seed, 3, match_up_to))
    lo = max(cfg.support_sizes[0], match_up_to + 1)
    hi = max(cfg.support_sizes[1], lo)
    size_cfg = replace(cfg, support_sizes=(lo, hi))
    for _ in range(20):
        x = _random_dist(rng, size_cfg)
        m = x.size
        cum = x.cumulative_masses()
        surv = [ONE] + [ONE - c for c in cum]
        rows = [
            [surv[i] ** j - surv[i + 1] ** j for i in range(m)]
            for j in range(1, match_up_to + 1)
        ]
        targets = list(min_orderstat_means(x, match_up_to))
        _, basis = _solve_affine(rows, targets)
        if not basis:
            continue
        for inner in range(10):
            # progressively smaller steps keep the values increasing
            shrink = rat(1, 1 << inner)
            v = list(x.values)
            for vec in basis:
                c = _small_rat(rng, 4) * shrink
                v = [vi + c * bi for vi, bi in zip(v, vec)]
            if all(a < b for a, b in zip(v, v[1:])) and tuple(v) != x.values:
                y = DiscreteDistribution(tuple(zip(v, x.masses)))
                return x, y
    raise GenerationExhausted(
        f"no increasing order-statistic-matched partner after 200 tries "
        f"(k={match_up_to})"
    )


# ---------------------------------------------------------------------------
# pair recipes shared by the suites
# ---------------------------------------------------------------------------


def _shift_down(d: DiscreteDistribution, c) -> DiscreteDistribution:
    c = rat(c)
    return DiscreteDistribution(tuple((v - c, m) for v, m in d.atoms))


def _mean_preserving_spread(
    d: DiscreteDistribution, rng: SplitMix64
) -> DiscreteDistribution:
    idx = rng.below(d.size)
    v, m = d.atoms[idx]
    dl = rat(rng.randint(1, 4), rng.randint(1, 3))
    dr = rat(rng.randint(1, 4), rng.randint(1, 3))
    ml = m * dr / (dl + dr)
    mr = m * dl / (dl + dr)
    atoms = [a for i, a in enumerate(d.atoms) if i != idx]
    atoms += [(v - dl, ml), (v + dr, mr)]
    return dist_validate(atoms)


def _dominated_pair(
    rng: SplitMix64, cfg: GenConfig
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """(dominated candidate, dominator candidate) from a recipe mix."""
    base = _random_dist(rng, cfg)
    kind = rng.below(3)
    if kind == 0:
        return _shift_down(base, rat(rng.randint(1, 3), rng.randint(1, 2))), base
    if kind == 1:
        return _mean_preserving_spread(base, rng), base
    spread = _mean_preserving_spread(base, rng)
    return _mean_preserving_spread(spread, rng), base


def _free_pair(
    rng: SplitMix64, cfg: GenConfig
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    return _random_dist(rng, cfg), _random_dist(rng, cfg)


# ---------------------------------------------------------------------------
# suite reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    pair: tuple
    prop: str
    details: str


@dataclass(frozen=True)
class PropertySuiteReport:
    suite_name: str
    trials: int
    violations: tuple
    witnesses: tuple
    stats: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def _pair_snapshot(*dists: DiscreteDistribution) -> tuple:
    return tuple(
        tuple((rat_str(v), rat_str(m)) for v, m in d.atoms) for d in dists
    )


class _SuiteRun:
    def __init__(self, name: str, cfg: GenConfig):
        self.name = name
        self.cfg = cfg
        self.violations: list[TrialRecord] = []
        self.witnesses: list[TrialRecord] = []
        self.stats: dict[str, int] = {}

    def trial_rng(self, t: int) -> SplitMix64:
        return SplitMix64(self.trial_seed(t))

    def trial_seed(self, t: int) -> int:
        return _substream_seed(self.cfg.seed, _suite_tag(self.name), t)

    def violate(self, t: int, pair: tuple, prop: str, details: str) -> None:
        self.violations.append(TrialRecord(self.trial_seed(t), pair, prop, details))

    def witness(self, t: int, pair: tuple, prop: str, details: str) -> None:
        self.witnesses.append(TrialRecord(self.trial_seed(t), pair, prop, details))

    def bump(self, key: str, by: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + by

    def report(self, trials: int) -> PropertySuiteReport:
        return PropertySuiteReport(
            self.name,
            trials,
            tuple(self.violations),
            tuple(self.witnesses),
            tuple(sorted((k, str(v)) for k, v in self.stats.items())),
        )


def _first_moment_diff(
    a: DiscreteDistribution, b: DiscreteDistribution, upto: int
) -> Optional[tuple]:
    for k in range(1, upto + 1):
        ma, mb = raw_moment(a, k), raw_moment(b, k)
        if ma != mb:
            return k, ma, mb
    return None


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_fishburn(trials: int, cfg: GenConfig) -> PropertySuiteReport:
    """Alternating raw-moment inequalities on pairs with verified n-SD."""
    run = _SuiteRun("fishburn", cfg)
    for t in range(trials):
        rng = run.trial_rng(t)
        n = rng.randint(2, 5)
        choice = rng.below(8)
        if choice == 0:
            pair = _free_pair(rng, cfg)
        elif choice == 1:
            # deeper moment-equality prefixes, dominance opportunistic
            try:
                pair = gen_moment_matched_pair(
                    replace(cfg, seed=rng.next_u64()), min(2, n - 1)
                )
            except GenerationExhausted:
                run.bump("generation-exhausted")
                continue
        else:
            pair = _dominated_pair(rng, cfg)
        verdict = dominance.sd_compare(pair[0], pair[1], n)
        if verdict.relation is Relation.LEFT_DOMINATED:
            dominated, dominator = pair
        elif verdict.relation is Relation.RIGHT_DOMINATED:
            dominator, dominated = pair
        else:
            run.bump("unordered")
            continue
        run.bump("ordered")
        diff = _first_moment_diff(dominated, dominator, n)
        snap = _pair_snapshot(dominated, dominator)
        if diff is None:
            # strict dominance with all moments equal through n contradicts
            # the strict alternating-moment theorem
            run.violate(t, snap, "fishburn-strict", f"n={n}: moments equal through {n}")
            continue
        k, m_dominated, m_dominator = diff
        sign = 1 if (k - 1) % 2 == 0 else -1
        if sign * (m_dominator - m_dominated) <= 0:
            run.violate(
                t,
                snap,
                "fishburn-alternating",
                f"n={n} k={k}: dominated {rat_str(m_dominated)} vs "
                f"dominator {rat_str(m_dominator)}",
            )
    return run.report(trials)


def _suite_isd_orderstat(trials: int, cfg: GenConfig) -> PropertySuiteReport:
    """Minimum-order-statistic necessary conditions on verified n-ISD pairs."""
    run = _SuiteRun("isd-orderstat", cfg)
    for t in range(trials):
        rng = run.trial_rng(t)
        n = rng.randint(3, 5)
        choice = rng.below(4)
        if choice == 0:
            try:
                pair = gen_orderstat_matched_pair(
                    replace(cfg, seed=rng.next_u64()), n - 1
                )
            except GenerationExhausted:
                run.bump("generation-exhausted")
                continue
        elif choice <= 2:
            pair = _dominated_pair(rng, cfg)
        else:
            pair = _free_pair(rng, cfg)
        verdict = dominance.isd_compare(pair[0], pair[1], n)
        if verdict.relation is Relation.LEFT_DOMINATED:
            dominated, dominator = pair
        elif verdict.relation is Relation.RIGHT_DOMINATED:
            dominator, dominated = pair
        else:
            run.bump("unordered")
            continue
        run.bump("ordered")
        snap = _pair_snapshot(dominated, dominator)
        mu_d = dict(enumerate(min_orderstat_means(dominated, n + 3), 1))
        mu_o = dict(enumerate(min_orderstat_means(dominator, n + 3), 1))
        for k in range(n - 1, n + 4):
            if mu_d[k] > mu_o[k]:
                run.violate(
                    t, snap, "isd-minstat-necessary",
                    f"n={n} k={k}: {rat_str(mu_d[k])} > {rat_str(mu_o[k])}",
                )
        if verdict.strict:
            for k in range(n, n + 4):
                if mu_d[k] >= mu_o[k]:
                    run.violate(
                        t, snap, "isd-minstat-strict",
                        f"n={n} k={k}: dominated mu_(1:k) not strictly below",
                    )
        if mu_d[n - 1] == mu_o[n - 1]:
            for i in range(n - 2, 0, -1):
                if mu_d[i] == mu_o[i]:
                    continue
                k_offset = n - 2 - i
                sign = 1 if (k_offset + 1) % 2 == 0 else -1
                if sign * mu_d[i] > sign * mu_o[i]:
                    run.violate(
                        t, snap, "isd-minstat-alternating",
                        f"n={n} index={i}: alternating inequality violated",
                    )
                break
        if all(mu_d[j] == mu_o[j] for j in range(1, n)):
            run.bump("strong-pairs")
            if verdict.strict and not mu_d[n] < mu_o[n]:
                run.violate(
                    t, snap, "strong-isd-top-moment",
                    f"n={n}: mu_(1:n) {rat_str(mu_d[n])} vs {rat_str(mu_o[n])}",
                )
    return run.report(trials)


def _suite_low_order_equivalence(trials: int, cfg: GenConfig) -> PropertySuiteReport:
    """sd_compare and isd_compare agree exactly at orders 1 and 2."""
    run = _SuiteRun("low-order-equivalence", cfg)
    for t in range(trials):
        rng = run.trial_rng(t)
        n = 1 + rng.below(2)
        pair = _dominated_pair(rng, cfg) if rng.below(2) else _free_pair(rng, cfg)
        vs = dominance.sd_compare(pair[0], pair[1], n)
        vi = dominance.isd_compare(pair[0], pair[1], n)
        if (vs.relation, vs.strict) != (vi.relation, vi.strict):
            run.violate(
                t, _pair_snapshot(*pair), "low-order-equivalence",
                f"n={n}: sd {vs.relation.value}/{vs.strict} vs "
                f"isd {vi.relation.value}/{vi.strict}",
            )
        run.bump(f"relation-{vs.relation.value}")
    return run.report(trials)


def _suite_order_monotonicity(trials: int, cfg: GenConfig) -> PropertySuiteReport:
    """LeftDominated at order n implies LeftDominated at n+1, n <= 5."""
    run = _SuiteRun("order-monotonicity", cfg)
    for t in range(trials):
        rng = run.trial_rng(t)
        compare = dominance.sd_compare if t % 2 == 0 else dominance.isd_compare
        pair = _dominated_pair(rng, cfg) if rng.below(2) else _free_pair(rng, cfg)
        prev = None
        for n in range(1, 7):
            cur = compare(pair[0], pair[1], n)
            if prev is not None and prev.relation is Relation.LEFT_DOMINATED:
                if cur.relation is not Relation.LEFT_DOMINATED:
                    run.violate(
                        t, _pair_snapshot(*pair), "order-monotonicity",
                        f"{compare.__name__} lost dominance from {n - 1} to {n}",
                    )
                elif prev.strict and not cur.strict:
                    run.violate(
                        t, _pair_snapshot(*pair), "order-monotonicity-strict",
                        f"{compare.__name__} lost strictness from {n - 1} to {n}",
                    )
            prev = cur
    return run.report(trials)


def _brute_min_orderstat(d: DiscreteDistribution, k: int) -> Rat:
    """Independent oracle: enumerate all support index tuples."""
    den = 1
    for _, m in d.atoms:
        den = math.lcm(den, int(m.denominator))
    weights = [int(m.numerator) * (den // int(m.denominator)) for _, m in d.atoms]
    acc = [0] * d.size
    for combo in _iter_product(range(d.size), repeat=k):
        w = 1
        for i in combo:
            w *= weights[i]
        acc[min(combo)] += w
    total = ZERO
    for i, v in enumerate(d.values):
        total = total + v * acc[i]
    return total / rat(den) ** k


def _suite_mu_oracle(trials: int, cfg: GenConfig) -> PropertySuiteReport:
    """Survival-power mu_{1:k} equals brute enumeration and k! F^[-k-1](1)."""
    run = _SuiteRun("mu-oracle", cfg)
    small = replace(cfg, support_sizes=(1, 6))
    for t in range(trials):
        rng = run.trial_rng(t)
        d = _random_dist(rng, replace(small, seed=rng.next_u64()))
        k = rng.randint(1, 6)
        mu = distributions.min_orderstat_mean(d, k)
        brute = _brute_min_orderstat(d, k)
        via_curve = math.factorial(k) * integrated_curve(d, CurveKind.QUANTILE, k + 1).curve(ONE)
        if mu != brute or mu != via_curve:
            run.violate(
                t, _pair_snapshot(d), "mu-oracle",
                f"k={k}: power {rat_str(mu)}, brute {rat_str(brute)}, "
                f"curve {rat_str(via_curve)}",
            )
    return run.report(trials)


def _suite_asymptote(trials: int, cfg: GenConfig) -> PropertySuiteReport:
    """The curve beyond the support maximum is exactly the moment polynomial."""
    run = _SuiteRun("asymptote", cfg)
    for t in range(trials):
        rng = run.trial_rng(t)
        d = _random_dist(rng, replace(cfg, seed=rng.next_u64()))
        n = rng.randint(2, 6)
        tail = integrated_curve(d, CurveKind.CDF, n).curve.pieces[-1].poly
        poly = asymptote(d, n).poly
        if tail.coeffs != poly.coeffs:
            run.violate(
                t, _pair_snapshot(d), "asymptote-tail",
                f"n={n}: final piece differs from the moment polynomial",
            )
        mean = raw_moment(d, 1)
        if n == 2 and poly.coeffs != (-mean, ONE):
            run.violate(t, _pair_snapshot(d), "asymptote-order2", "not x - mean")
        if n == 3:
            var = raw_moment(d, 2) - mean * mean
            expected = ((mean * mean + var) / 2, -mean, rat(1, 2))
            if poly.coeffs != expected:
                run.violate(
                    t, _pair_snapshot(d), "asymptote-order3",
                    "not (x - mean)^2/2 + var/2",
                )
    return run.report(trials)


def _suite_gamma_identity(trials: int, cfg: GenConfig) -> PropertySuiteReport:
    """Gap integral equals the alternating n-th moment difference."""
    from .noise import dominance_gap_integral

    run = _SuiteRun("gamma-identity", cfg)
    produced = 0
    attempt = 0
    while produced < trials and attempt < trials * 5:
        rng = run.trial_rng(attempt)
        attempt += 1
        n = rng.randint(1, 5)
        lo, hi = cfg.support_sizes
        pair_cfg = replace(
            cfg,
            seed=rng.next_u64(),
            support_sizes=(max(lo, n + 1), max(hi, n + 2)),
        )
        try:
            x, y = gen_moment_matched_pair(pair_cfg, n - 1)
        except GenerationExhausted:
            run.bump("generation-exhausted")
            continue
        produced += 1
        gap = dominance_gap_integral(x, y, n)
        sign = 1 if n % 2 == 0 else -1
        expected = sign * (raw_moment(y, n) - raw_moment(x, n)) / math.factorial(n)
        if gap != expected:
            run.violate(
                attempt - 1, _pair_snapshot(x, y), "gamma-identity",
                f"n={n}: integral {rat_str(gap)} vs moments {rat_str(expected)}",
            )
    run.bump("pairs", produced)
    return run.report(trials)


def _fixable_order1_pair(
    rng: SplitMix64, cfg: GenConfig
) -> Optional[tuple[DiscreteDistribution, DiscreteDistribution]]:
    """A pair that is moment-ranked but not order-1 ranked, yet provably
    repaired by wide uniform lattice noise.

    With integer supports and unit lattice step, full noise windows carry
    the exact gap integral, so the search succeeds as soon as the order-2
    gap curve of (y, x) and the order-2 survival gap of (x, y) are both
    nonnegative.  Candidates are screened against those exact conditions.
    """
    int_cfg = replace(cfg, denominator_cap=1, support_sizes=(2, 4))
    for _ in range(16):
        x = _random_dist(rng, replace(int_cfg, seed=rng.next_u64()))
        w = rat(rng.randint(2, 3), 10)
        head = x.min_value - rng.randint(2, 4)
        # head mass below x buys early slack; the first inner atom is
        # pushed up one step so the CDFs cross and identity noise fails
        atoms = [(head, w)]
        for i, (v, m) in enumerate(x.atoms):
            atoms.append((v + 1 if i == 0 else v, m * (1 - w)))
        y = dist_validate(atoms)
        if raw_moment(x, 1) <= raw_moment(y, 1):
            continue
        if dominance.sd_compare(y, x, 1).relation is Relation.LEFT_DOMINATED:
            continue  # want a pair the identity noise cannot settle
        gap2 = difference_curve(y, x, CurveKind.CDF, 2)
        if not exact.pw_nonneg(gap2).nonnegative:
            continue
        surv2 = difference_curve(x, y, CurveKind.SURVIVAL, 2)
        if not exact.pw_nonneg(surv2).nonnegative:
            continue
        return x, y
    return None


def _reverify_found(report, x, y, n: int) -> bool:
    """Re-verify a Found result through the recursive curve construction,
    an independent path from the signed-measure builder the search used."""
    cx = distributions.convolve(x, report.z)
    cy = distributions.convolve(y, report.z)
    fd = integrated_curve_via_recursion(cy, CurveKind.CDF, n).curve
    fo = integrated_curve_via_recursion(cx, CurveKind.CDF, n).curve
    diff = exact.pw_linear_combine(fd, fo, 1, -1)
    return (not diff.is_zero) and exact.pw_nonneg(diff).nonnegative


def _suite_noise(trials: int, cfg: GenConfig) -> PropertySuiteReport:
    """Bounded background-noise search on moment-ranked pairs.

    The pair mix guarantees a high Found floor: shifted and
    mean-preserving-spread pairs are already strictly ordered (identity
    noise suffices), screened order-1 pairs provably need and get lattice
    smoothing, and a residual slice of free moment-ranked pairs keeps the
    walk honest -- their NotFound outcomes are logged, never asserted
    away.
    """
    from .noise import SearchStatus, noise_precondition, noise_search

    run = _SuiteRun("noise", cfg)
    for t in range(trials):
        rng = run.trial_rng(t)
        slot = t % 10
        base = _random_dist(rng, replace(cfg, seed=rng.next_u64()))
        if slot <= 2:
            n = 1
            x, y = base, _shift_down(base, rat(rng.randint(1, 3), rng.randint(1, 2)))
        elif slot <= 4:
            n = 1
            pair = _fixable_order1_pair(rng, cfg)
            if pair is None:
                x, y = base, _shift_down(base, 1)
                run.bump("fixable-fallback")
            else:
                x, y = pair
                run.bump("fixable-screened")
        elif slot <= 8:
            n = 2
            x, y = base, _mean_preserving_spread(base, rng)
        else:
            n = 1 + rng.below(2)
            x, y = _free_pair(rng, cfg)
            pre = noise_precondition(x, y, n)
            if not pre.ok:
                pre_sw = noise_precondition(y, x, n)
                if pre_sw.ok:
                    x, y = y, x
                else:
                    x, y = base, _shift_down(base, 1)
                    n = 1
                    run.bump("free-fallback")
        report = noise_search(x, y, n)
        run.bump(f"status-{report.status.value}")
        snap = _pair_snapshot(x, y)
        if report.status is SearchStatus.FOUND:
            if not _reverify_found(report, x, y, n):
                run.violate(
                    t, snap, "noise-reverify",
                    f"n={n}: Found Z failed independent re-verification",
                )
            if report.z.size > 1:
                run.bump("nontrivial-found")
        elif report.status is SearchStatus.NOT_FOUND:
            run.witness(
                t, snap, "noise-not-found",
                f"n={n}: tried {report.candidates_tried}; {'; '.join(report.notes)}",
            )
        else:
            run.violate(
                t, snap, "noise-precondition",
                f"n={n}: generated pair failed the precondition",
            )
    found = int(run.stats.get("status-Found", 0))
    run.stats["found-rate-percent"] = (100 * found) // max(trials, 1)
    return run.report(trials)


def _suite_separation(trials: int, cfg: GenConfig) -> PropertySuiteReport:
    """Hunt for order-3 pairs where SD and ISD verdicts differ; finds are
    witnesses, not violations."""
    run = _SuiteRun("separation", cfg)
    for t in range(trials):
        rng = run.trial_rng(t)
        pair = _free_pair(rng, cfg) if rng.below(2) else _dominated_pair(rng, cfg)
        vs = dominance.sd_compare(pair[0], pair[1], 3)
        vi = dominance.isd_compare(pair[0], pair[1], 3)
        if vs.relation is not vi.relation:
            run.witness(
                t, _pair_snapshot(*pair), "sd-isd-separation",
                f"sd {vs.relation.value} vs isd {vi.relation.value}",
            )
            run.bump("separations")
    return run.report(trials)


def _suite_filter_audit(trials: int, cfg: GenConfig) -> PropertySuiteReport:
    """Prefilters never refute a direction the exact decision confirms."""
    from .filters import filter_consistency_audit

    run = _SuiteRun("filter-audit", cfg)
    for t in range(trials):
        rng = run.trial_rng(t)
        n = rng.randint(1, 5)
        pair = _dominated_pair(rng, cfg) if rng.below(2) else _free_pair(rng, cfg)
        if not filter_consistency_audit(pair[0], pair[1], n):
            run.violate(
                t, _pair_snapshot(*pair), "filter-audit",
                f"n={n}: a filter refuted a confirmed direction",
            )
    return run.report(trials)


def _suite_isd_noise_probe(trials: int, cfg: GenConfig) -> PropertySuiteReport:
    """Experimental probe of the inverse-dominance noise question; results
    are logged descriptively, never asserted."""
    from .noise import SearchBudget, SearchStatus, noise_search

    run = _SuiteRun("isd-noise-probe", cfg)
    for t in range(trials):
        rng = run.trial_rng(t)
        n = 3
        try:
            x, y = gen_orderstat_matched_pair(replace(cfg, seed=rng.next_u64()), n - 1)
        except GenerationExhausted:
            run.bump("generation-exhausted")
            continue
        if distributions.min_orderstat_mean(x, n) == distributions.min_orderstat_mean(y, n):
            run.bump("tied-top-moment")
            continue
        if distributions.min_orderstat_mean(x, n) > distributions.min_orderstat_mean(y, n):
            x, y = y, x
        report = noise_search(x, y, n, SearchBudget(max_candidates=24), relation="isd")
        run.bump(f"status-{report.status.value}")
        if report.status is SearchStatus.FOUND:
            run.witness(
                t, _pair_snapshot(x, y), "isd-noise-found",
                f"lattice half-width {(report.z.size - 1) // 2}",
            )
    return run.report(trials)


_SUITES: dict[str, Callable[[int, GenConfig], PropertySuiteReport]] = {
    "fishburn": _suite_fishburn,
    "isd-orderstat": _suite_isd_orderstat,
    "low-order-equivalence": _suite_low_order_equivalence,
    "order-monotonicity": _suite_order_monotonicity,
    "mu-oracle": _suite_mu_oracle,
    "asymptote": _suite_asymptote,
    "gamma-identity": _suite_gamma_identity,
    "noise": _suite_noise,
    "separation": _suite_separation,
    "filter-audit": _suite_filter_audit,
    "isd-noise-probe": _suite_isd_noise_probe,
}


def registered_suites() -> tuple:
    return tuple(sorted(_SUITES))


def run_property_suite(name: str, trials: int, cfg: GenConfig) -> PropertySuiteReport:
    """Run a registered suite; deterministic in (name, trials, cfg)."""
    try:
        suite = _SUITES[name]
    except KeyError:
        raise UnknownSuite(
            f"unknown suite {name!r}; registered: {', '.join(registered_suites())}"
        ) from None
    return suite(trials, cfg)
