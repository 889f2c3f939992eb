"""Distribution files, curve sampling, and report serialization.

Wire format for a distribution (UTF-8 JSON)::

    {"name": "X", "atoms": [{"value": "4", "mass": "0.9"},
                            {"value": "4.1", "mass": "1/10"}]}

Values and masses are strings holding either a ``p/q`` rational or an
exact decimal literal (integers are also accepted); JSON *numbers with a
fractional part are rejected* so binary floating point can never leak
into the exact pipeline.  Serialization re-emits every rational as
``p/q``, which round-trips exactly.

Curve samples carry both the authoritative exact value and a
display-only decimal rendering at 12 significant digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from ._scalar import Rat, rat, rat_str, decimal_str
from .distributions import DiscreteDistribution, dist_validate
from .errors import ParseError
from .transforms import CurveKind, integrated_curve


def _parse_scalar(raw, where: str) -> Rat:
    if isinstance(raw, bool):
        raise ParseError(f"{where}: boolean is not a number")
    if isinstance(raw, int):
        return rat(raw)
    if isinstance(raw, float):
        raise ParseError(
            f"{where}: JSON floats are inexact; quote the literal instead"
        )
    if isinstance(raw, str):
        try:
            return rat(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: cannot parse {raw!r} ({exc})") from None
    raise ParseError(f"{where}: expected a string or integer, got {type(raw).__name__}")


def parse_distribution(doc: dict, origin: str = "<memory>") -> DiscreteDistribution:
    if not isinstance(doc, dict) or "atoms" not in doc:
        raise ParseError(f"{origin}: expected an object with an 'atoms' array")
    atoms_raw = doc["atoms"]
    if not isinstance(atoms_raw, list):
        raise ParseError(f"{origin}: 'atoms' must be an array")
    pairs = []
    for i, entry in enumerate(atoms_raw):
        if not isinstance(entry, dict) or "value" not in entry or "mass" not in entry:
            raise ParseError(f"{origin}: atoms[{i}] needs 'value' and 'mass'")
        pairs.append(
            (
                _parse_scalar(entry["value"], f"{origin}: atoms[{i}].value"),
                _parse_scalar(entry["mass"], f"{origin}: atoms[{i}].mass"),
            )
        )
    return dist_validate(pairs)


def load_distribution(path: str) -> DiscreteDistribution:
    """Exact rational parse of a distribution file, then validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return parse_distribution(doc, origin=path)


def distribution_doc(d: DiscreteDistribution, name: Optional[str] = None) -> dict:
    doc: dict = {}
    if name is not None:
        doc["name"] = name
    doc["atoms"] = [
        {"value": rat_str(v), "mass": rat_str(m)} for v, m in d.atoms
    ]
    return doc


def dump_distribution(d: DiscreteDistribution, path: str, name: Optional[str] = None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(distribution_doc(d, name), fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class CurveSample:
    """Grid samples of one integrated curve; exact values authoritative."""

    kind: CurveKind
    order: int
    points: tuple  # (t decimal str, value decimal str, exact "p/q")


def export_curve(
    d: DiscreteDistribution, kind: CurveKind, n: int, grid_size: int
) -> CurveSample:
    """Sample the exact curve at equally spaced rational grid points over
    its natural hull: [0, 1] for quantile kinds, [min-1, max+1] for the
    real-line kinds."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    curve = integrated_curve(d, kind, n).curve
    if kind in (CurveKind.QUANTILE, CurveKind.UPPER_QUANTILE):
        lo, hi = rat(0), rat(1)
    else:
        lo, hi = d.min_value - 1, d.max_value + 1
    step = (hi - lo) / (grid_size - 1)
    points = []
    for i in range(grid_size):
        t = lo + step * i
        value = curve(t)
        points.append((decimal_str(t), decimal_str(value), rat_str(value)))
    return CurveSample(kind, n, tuple(points))


def curve_sample_csv(sample: CurveSample) -> str:
    """CSV rendering: header t,value; 12 significant digits; LF endings."""
    lines = ["t,value"]
    for t_str, value_str, _ in sample.points:
        lines.append(f"{t_str},{value_str}")
    return "\n".join(lines) + "\n"
