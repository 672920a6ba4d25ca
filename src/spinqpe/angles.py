"""Angle expressions: decimal radians or rational multiples of pi.

Grammar (no whitespace inside a token, surrounding whitespace ignored):

    angle   := pifrac | decimal
    pifrac  := '-'? (INT ('/' INT)?)? 'pi' ('/' INT)?
    decimal := '-'? INT ('.' INT?)? (('e'|'E') ('+'|'-')? INT)?
    INT     := [0-9]+   (ASCII digits only)

Examples: "pi", "pi/3", "-pi/3", "3pi/4", "15/16pi", "2", "1.0471975512",
"-2.5e-3". parse_angle returns the value in radians as a float; records
echo the raw text through the command line they store. Malformed input,
and a number too large for a float, raise AngleParseError carrying the
offending position.

On the command line argparse reads a value that starts with '-' as a
flag unless it is a plain negative decimal such as -0.7, so "--aux -pi/4"
or "--eta -2.5e-3" is a usage error (exit 2); attach the value instead:
"--aux=-pi/4".
"""

import math

from .errors import AngleParseError

_DIGITS = "0123456789"


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _read_int(text: str, i: int, what: str) -> tuple[int, int]:
    start = i
    while i < len(text) and text[i] in _DIGITS:
        i += 1
    if i == start:
        raise AngleParseError(text, start, f"expected {what}")
    try:
        return i, int(text[start:i])
    except ValueError:  # beyond the interpreter's integer string limit
        raise AngleParseError(text, start, "integer has too many digits") from None


def _expect_end(text: str, i: int) -> None:
    i = _skip_ws(text, i)
    if i != len(text):
        raise AngleParseError(text, i, f"unexpected character {text[i]!r}")


def _pi_tail(text: str, i: int, base: float) -> float:
    """Optional '/INT' divisor after 'pi'."""
    if i < len(text) and text[i] == "/":
        den_pos = i + 1
        i, den = _read_int(text, den_pos, "an integer divisor")
        if den == 0:
            raise AngleParseError(text, den_pos, "division by zero")
        base /= den
    _expect_end(text, i)
    return base


def _decimal_end(text: str, i: int) -> int:
    """Index just past a decimal literal whose integer part ends at i."""
    if i < len(text) and text[i] == ".":
        i += 1
        while i < len(text) and text[i] in _DIGITS:
            i += 1
    if i < len(text) and text[i] in "eE":
        i += 1
        if i < len(text) and text[i] in "+-":
            i += 1
        start = i
        while i < len(text) and text[i] in _DIGITS:
            i += 1
        if i == start:
            raise AngleParseError(text, start, "expected exponent digits")
    return i


def parse_angle(text: str) -> float:
    """The value in radians of an angle expression; see the module grammar."""
    try:
        value = _value(text)
    except OverflowError:  # an integer too large for a float
        value = math.inf
    if not math.isfinite(value):
        raise AngleParseError(text, _skip_ws(text, 0), "number too large for a float")
    return value


def _value(text: str) -> float:
    i = _skip_ws(text, 0)
    if i == len(text):
        raise AngleParseError(text, i, "expected a number or 'pi'")
    sign = 1.0
    if text[i] == "-":
        sign = -1.0
        i += 1
    if text.startswith("pi", i):
        return _pi_tail(text, i + 2, sign * math.pi)
    if i < len(text) and text[i] in _DIGITS:
        num_start = i
        i, num = _read_int(text, i, "digits")
        if i < len(text) and text[i] in ".eE":
            end = _decimal_end(text, i)
            _expect_end(text, end)
            return sign * float(text[num_start:end])
        if i < len(text) and text[i] == "/":
            den_pos = i + 1
            i, den = _read_int(text, den_pos, "an integer denominator")
            if den == 0:
                raise AngleParseError(text, den_pos, "division by zero")
            if not text.startswith("pi", i):
                raise AngleParseError(text, i, "expected 'pi' after a fraction")
            return _pi_tail(text, i + 2, sign * math.pi * num / den)
        if text.startswith("pi", i):
            return _pi_tail(text, i + 2, sign * math.pi * num)
        _expect_end(text, i)
        return sign * float(num)
    raise AngleParseError(text, i, "expected a digit or 'pi'")
