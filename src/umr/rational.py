"""Exact rational parsing and formatting, and the header rule, shared by all
text formats.

Everything in this package is computed over ``fractions.Fraction``; floats
are rejected at the boundaries so no rounding can creep in.  The canonical
text form is lowest terms with ``p/q`` for proper fractions and the bare
integer for denominator 1.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FormatError


def as_fraction(value) -> Fraction:
    """Coerce int/Fraction to Fraction; refuse floats outright."""
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact rational required, got {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def parse_rational(token: str) -> Fraction:
    """Parse ``p/q`` or the integer shorthand ``p``."""
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {token!r}") from exc


def body_lines(text: str, header: str) -> list[str]:
    """The stripped non-blank lines of a text after its first line, which
    must be ``header``."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines or lines[0] != header:
        raise FormatError(f"expected {header!r} header")
    return lines[1:]


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
