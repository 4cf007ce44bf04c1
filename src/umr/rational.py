"""Exact rational parsing and formatting, and the header rule, shared by all
text formats.

Everything in this package is computed over ``fractions.Fraction``; floats
are rejected at the boundaries so no rounding can creep in.  The canonical
text form is lowest terms with ``p/q`` for proper fractions and the bare
integer for denominator 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def _terms(token: str) -> tuple[int, int]:
    """``rational_terms`` before the reduction: both terms as ``int`` reads
    them, the denominator nonzero."""
    num, slash, den = token.partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError as exc:
        raise FormatError(f"bad rational {token!r}") from exc
    if not q:
        raise FormatError(f"bad rational {token!r}")
    return p, q


def rational_terms(token: str) -> tuple[int, int]:
    """The token rule: ``p/q`` or the integer shorthand ``p``, each term as
    ``int`` reads it, as (numerator, denominator) in lowest terms with the
    denominator positive."""
    p, q = _terms(token)
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    return p // g, q // g


def parse_rational(token: str) -> Fraction:
    """Parse ``p/q`` or the integer shorthand ``p`` (``rational_terms``);
    the ``Fraction`` reduces the terms, once."""
    return Fraction(*_terms(token))


def body_lines(text: str, header: str) -> list[str]:
    """The stripped non-blank lines of a text after its first line, which
    must be ``header``."""
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines or lines[0] != header:
        raise FormatError(f"expected {header!r} header")
    return lines[1:]


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
