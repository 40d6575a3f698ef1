"""Exact scalar arithmetic over the rationals.

A scalar is a plain Python ``int`` whenever the value is integral and a
``fractions.Fraction`` otherwise.  Both carry exact numerator/denominator
data in lowest terms with a positive denominator, and they mix freely in
arithmetic; keeping the integer case primitive makes the dense linear
algebra roughly an order of magnitude faster than all-Fraction code.

Floats are rejected everywhere: every quantity in this package is an
exact rational.  A number is read and written in decimal only up to the
interpreter's digit limit, ``sys.get_int_max_str_digits()``; past it both
directions raise the ``ValueError`` of ``_digit_limit``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


def to_scalar(value) -> Scalar:
    """Coerce ``value`` (int, Fraction, rational string) to canonical form.

    Strings use the text syntax of the package and nothing else (no
    decimals or exponents): ``"p/q"`` or a plain integer, e.g. ``"-3/4"``.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, str):
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value.strip()):
            raise ValueError(f"not an integer or p/q rational: {value!r}")
        try:
            parsed = Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        except ValueError:  # the syntax is checked, so only the digit limit is left
            raise _digit_limit() from None
        return to_scalar(parsed)
    if isinstance(value, int):  # bools and int subclasses
        return int(value)
    if isinstance(value, float):
        raise TypeError(f"floats are not exact rationals: {value!r}")
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def scalar_div(a: Scalar, b: Scalar) -> Scalar:
    """Exact division ``a / b``; stays an int when the quotient is integral."""
    if b == 0:
        raise ZeroDivisionError("scalar division by zero")
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return to_scalar(Fraction(a) / Fraction(b))


def scalar_str(x: Scalar) -> str:
    """Render as ``"p"`` or ``"p/q"`` (the package's text format)."""
    try:
        return str(x)
    except ValueError:  # an int or Fraction fails only at the digit limit
        raise _digit_limit() from None


def _digit_limit() -> ValueError:
    limit = sys.get_int_max_str_digits()
    return ValueError(f"a number has more than {limit} decimal digits, the limit for reading or writing one")
