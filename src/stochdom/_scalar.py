"""Exact rational scalars.

Every quantity in this package is an arbitrary-precision rational and
every operation on it is exact; binary floating point never enters a
computation path (floats appear only as the +/-inf domain sentinels,
which are compared against but never combined arithmetically).

The one scalar type is the stdlib ``fractions.Fraction``, which keeps
canonical form automatically: positive denominator, gcd-reduced.  Sign
decisions in ``exact`` run on primitive integer coefficients instead, so
rationals are built only at the boundary.

String literals are bounded before they are parsed: at most
``MAX_LITERAL_DIGITS`` digits in all and a decimal exponent of at most
``MAX_LITERAL_EXPONENT`` in magnitude, so a short literal such as
``"1e999999999"`` cannot demand an enormous integer.
"""

from __future__ import annotations

import decimal
import sys
from fractions import Fraction
from typing import Union

from .errors import ValueTooLarge

Rat = Fraction

RatLike = Union[int, str, Fraction]

# With both bounds the numerator and the denominator of a parsed literal
# have at most about 4000 digits, under Python's 4300-digit int-string limit,
# so every value read in can be written back out by ``rat_str``.
MAX_LITERAL_DIGITS = 2000
MAX_LITERAL_EXPONENT = 2000

ZERO = Rat(0)
ONE = Rat(1)


def _check_literal_size(text: str) -> None:
    """Reject a literal whose digits or decimal exponent exceed the bounds;
    raises ValueError."""
    if len(text) > MAX_LITERAL_DIGITS:
        digits = sum(map(str.isdigit, text))
        if digits > MAX_LITERAL_DIGITS:
            raise ValueError(f"literal has {digits} digits; at most {MAX_LITERAL_DIGITS} allowed")
    if "e" in text or "E" in text:
        exponent = text.lower().partition("e")[2].strip()
        # Fraction reads an exponent as [-+]?\d+(_\d+)*, so the underscores
        # go before it is measured; anything else that is not decimal digits
        # is a literal Fraction rejects anyway
        size = exponent.replace("_", "").lstrip("+-").lstrip("0")
        if size.isdecimal() and (
            len(size) > len(str(MAX_LITERAL_EXPONENT)) or int(size) > MAX_LITERAL_EXPONENT
        ):
            raise ValueError(f"decimal exponent {exponent} exceeds {MAX_LITERAL_EXPONENT} in magnitude")


def rat(value: RatLike = 0, denominator: int | None = None) -> Rat:
    """Build an exact rational from an int, a ``p/q`` or decimal string,
    a Fraction, or a (numerator, denominator) pair."""
    if denominator is not None:
        return Rat(value, denominator)
    if value.__class__ is Rat:
        return value
    if isinstance(value, str):
        _check_literal_size(value)
    return Rat(value)


def as_int_pair(q) -> tuple[int, int]:
    """Return (numerator, denominator) as plain Python ints."""
    return int(q.numerator), int(q.denominator)


def rat_str(q) -> str:
    """Canonical wire form ``p/q`` (denominator always written).

    Raises ValueTooLarge past Python's int-to-string digit limit.
    """
    n, d = as_int_pair(q)
    try:
        return f"{n}/{d}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueTooLarge(f"an exact value has more than {limit} digits and cannot be written out") from None


def decimal_str(q, significant: int = 12) -> str:
    """Display-only decimal rendering at the given significant digits.

    Uses the decimal module, not binary floats, so the rendering is a
    correctly rounded decimal of the exact value.
    """
    n, d = as_int_pair(q)
    with decimal.localcontext() as ctx:
        ctx.prec = significant
        val = decimal.Decimal(n) / decimal.Decimal(d)
    return str(val)


def rat_floor(q) -> int:
    n, d = as_int_pair(q)
    return n // d
