"""Independent exact checks of stochdom's answers.

Everything here uses plain ``fractions.Fraction`` on the atom lists the
benchmark generated itself, never the package's curves, so a wrong
verdict cannot be confirmed by the code that produced it.

* order-n SD curve:  F^[n](t) = E[(t - X)_+^(n-1)] / (n-1)!
* order-n ISD curve: F^[-n](p) = (1/(n-1)!) * sum_i x_i
  [(p - c_{i-1})_+^(n-1) - (p - c_i)_+^(n-1)], with c_i the cumulative
  masses (the quantile sum in the ``transforms`` docstring).

Each check returns a list of problems; an empty list means the answer
checked out exactly.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

Atoms = tuple  # ((value, mass), ...) as Fractions, sorted by value


def _pos_pow(z: Fraction, k: int) -> Fraction:
    return z**k if z > 0 else Fraction(0)


def sd_curve(atoms: Atoms, n: int, t: Fraction) -> Fraction:
    if n < 2:
        raise ValueError("closed-form SD check needs order >= 2")
    total = sum((m * _pos_pow(t - v, n - 1) for v, m in atoms), Fraction(0))
    return total / math.factorial(n - 1)


def isd_curve(atoms: Atoms, n: int, p: Fraction) -> Fraction:
    if n < 2:
        raise ValueError("closed-form ISD check needs order >= 2")
    total = Fraction(0)
    c_prev = Fraction(0)
    for v, m in atoms:
        c = c_prev + m
        total += v * (_pos_pow(p - c_prev, n - 1) - _pos_pow(p - c, n - 1))
        c_prev = c
    return total / math.factorial(n - 1)


def raw_moment(atoms: Atoms, k: int) -> Fraction:
    return sum((m * v**k for v, m in atoms), Fraction(0))


def min_mean(atoms: Atoms, k: int) -> Fraction:
    """E[min of k iid draws] = sum_i x_i (P(X >= x_i)^k - P(X > x_i)^k)."""
    total = Fraction(0)
    at_least = Fraction(1)
    for v, m in atoms:
        above = at_least - m
        total += v * (at_least**k - above**k)
        at_least = above
    return total


def _difference(mode: str, a: Atoms, b: Atoms, n: int, point: Fraction) -> Fraction:
    """The curve difference whose sign the verdict reports: LeftDominated
    iff it is >= 0 everywhere (SD: F_a - F_b; ISD: Q_b - Q_a)."""
    if mode == "sd":
        return sd_curve(a, n, point) - sd_curve(b, n, point)
    return isd_curve(b, n, point) - isd_curve(a, n, point)


def check_verdict(verdict, a: Atoms, b: Atoms, n: int, mode: str) -> list:
    """Relation shape, strictness and every witness gap, exactly."""
    problems = []
    rel = verdict.relation.value
    if verdict.order != n or verdict.mode != mode:
        problems.append(f"{mode}: verdict reports mode {verdict.mode} order {verdict.order}")
    base_mode = "sd" if mode == "sd" else "isd"
    for side, w, sign in (("left", verdict.witness_left, 1), ("right", verdict.witness_right, -1)):
        if w is None:
            continue
        point, gap = Fraction(w.point), Fraction(w.gap)
        if base_mode == "isd" and not 0 < point < 1:
            problems.append(f"{mode}: {side} witness {point} outside (0, 1)")
            continue
        expect = sign * _difference(base_mode, a, b, n, point)
        if gap != expect or not gap > 0:
            problems.append(f"{mode}: {side} witness gap {gap} at {point}, closed form {expect}")
    left, right = verdict.witness_left is not None, verdict.witness_right is not None
    unequal = False
    if mode == "strong-isd":
        records, unequal = _check_orderstat_records(verdict, a, b)
        problems += records
    if rel == "Equivalent":
        if a != b or verdict.strict or left or right:
            problems.append(f"{mode}: Equivalent on distinct inputs or with witnesses")
    elif rel == "LeftDominated":
        if right or unequal or verdict.strict != left:
            problems.append(f"{mode}: LeftDominated with a refutation or bad strictness")
    elif rel == "RightDominated":
        if left or unequal or verdict.strict != right:
            problems.append(f"{mode}: RightDominated with a refutation or bad strictness")
    elif verdict.strict:
        problems.append(f"{mode}: strict Incomparable")
    elif not (left and right or unequal):
        problems.append(f"{mode}: Incomparable without a refutation on both sides")
    return problems


def _check_orderstat_records(verdict, a: Atoms, b: Atoms) -> tuple:
    """(problems, whether some mu_{1:j} differs) for the strong-ISD
    equality records in the certificate."""
    problems = []
    unequal = False
    for entry in verdict.certificate:
        if not hasattr(entry, "index"):
            continue
        j = entry.index
        ma, mb = min_mean(a, j), min_mean(b, j)
        if Fraction(entry.left) != ma or Fraction(entry.right) != mb or entry.equal != (ma == mb):
            problems.append(f"strong-isd: mu_1:{j} record disagrees with the closed form")
        unequal |= ma != mb
    return problems, unequal


_K = re.compile(r"_k(\d+)$")


def check_filter(report, a: Atoms, b: Atoms, n: int, exact_relation: str, kind: str) -> list:
    """Recorded moments must match the closed form, and a refutation may
    never contradict the exact verdict (filters are refutation-only)."""
    problems = []
    quantity = raw_moment if kind == "sd" else min_mean
    for c in report.checks:
        found = _K.search(c.name)
        k = int(found.group(1)) if found else (n if kind == "sd" else 1)
        if Fraction(c.quantity_left) != quantity(a, k) or Fraction(c.quantity_right) != quantity(b, k):
            problems.append(f"{kind} filter: check {c.name} quantities disagree with the closed form")
    outcome = report.outcome.value
    if outcome == "RefutesLeftDominance" and exact_relation in ("LeftDominated", "Equivalent"):
        problems.append(f"{kind} filter refutes a confirmed left dominance")
    if outcome == "RefutesRightDominance" and exact_relation in ("RightDominated", "Equivalent"):
        problems.append(f"{kind} filter refutes a confirmed right dominance")
    return problems


def check_suite_output(proc, suite: str, trials: int, seed: int) -> tuple:
    """(problems, parsed result) for one ``stochdom falsify`` run."""
    if proc.returncode != 0:
        return [f"{suite}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"], None
    if "Traceback" in proc.stderr:
        return [f"{suite}: traceback on stderr"], None
    try:
        doc = json.loads(proc.stdout)
        result = doc["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{suite}: unparseable output ({exc})"], None
    problems = []
    if result.get("passed") is not True or result.get("violations"):
        problems.append(f"{suite}: passed is not true")
    if result.get("suite") != suite or result.get("trials") != trials or doc["inputs"].get("seed") != seed:
        problems.append(f"{suite}: output echoes other inputs")
    return problems, result
