"""Exact rational parsing and formatting.

All money amounts in this package are `fractions.Fraction` values. Floats are
never accepted on the computation path: tightness of core constraints is an
exact equality test and would not survive rounding.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import gcd

from .errors import CorematchError

#: Most decimal digits of any integer parsed from text or printed: CPython's
#: default int/str conversion limit, enforced here on every version.
MAX_DIGITS = 4300
_TOO_BIG = 10**MAX_DIGITS


def _check_digits(n: int) -> None:
    if n > MAX_DIGITS:
        raise ValueError(f"a number of {n} digits exceeds the limit {MAX_DIGITS}")


def parse_int(text: str) -> int:
    """An integer literal of at most ``MAX_DIGITS`` digits."""
    _check_digits(len(text.lstrip("+-")))
    return int(text)


def _decimal_fraction(d: Decimal) -> Fraction:
    """``Fraction(d)``, refused before it is built if its numerator or its
    power-of-ten denominator would exceed ``MAX_DIGITS`` digits."""
    _, digits, exp = d.as_tuple()
    if isinstance(exp, int):  # NaN and infinities carry a letter
        _check_digits(len(digits) + exp if exp >= 0 else max(len(digits), 1 - exp))
    return Fraction(d)


def parse_rational(value: object) -> Fraction:
    """Parse a number given as int, "p/q", or an exact decimal string.

    Accepted forms: ``8``, ``"8"``, ``"143/28"``, ``"2.25"``, ``"-3/2"``.
    Floats are rejected so that inexact binary values never enter the solver.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise ValueError(
            f"refusing float {value!r}: pass an int, 'p/q', or a decimal string"
        )
    if isinstance(value, Decimal):
        return _decimal_fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            try:
                return Fraction(parse_int(num.strip()), parse_int(den.strip()))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"not a rational number: {value!r}") from exc
        try:
            return _decimal_fraction(Decimal(text))
        except (InvalidOperation, ValueError, OverflowError) as exc:
            # Decimal accepts "NaN" and "Infinity", which have no ratio
            raise ValueError(f"not a rational number: {value!r}") from exc
    raise ValueError(f"not a rational number: {value!r}")


def format_rational(q: Fraction) -> str:
    """Render exactly: integers as "p", everything else as "p/q"."""
    if q.denominator == 1:
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


def _int_text(n: int) -> str:
    """``str(n)``; raises ``CorematchError`` above ``MAX_DIGITS`` digits."""
    if abs(n) >= _TOO_BIG:
        raise CorematchError(
            f"a result of more than {MAX_DIGITS} digits is too large to print"
        )
    return str(n)


def format_decimal(q: Fraction, digits: int) -> str:
    """Render with a fixed number of decimal digits, round half to even."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    scale = 10**digits
    scaled = q * scale
    floor = scaled.numerator // scaled.denominator
    rem = scaled - floor
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and floor % 2 == 1):
        floor += 1
    sign = "-" if floor < 0 else ""
    mag = abs(floor)
    if digits == 0:
        return f"{sign}{_int_text(mag)}"
    return f"{sign}{_int_text(mag // scale)}.{_int_text(mag % scale).zfill(digits)}"


def common_denominator(values) -> int:
    """Least common denominator of an iterable of Fractions."""
    lcm = 1
    for v in values:
        d = v.denominator
        lcm = lcm // gcd(lcm, d) * d
    return lcm
