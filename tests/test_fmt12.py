"""Checks `cde.cli._fmt12` against a digit-splicing rendering of the same 12
significant digits, kept here as an independent reference."""
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cde.cli import _fmt12


def _fmt12_by_digits(value: float) -> str:
    """Reference for _fmt12: splices the digits of the 12-significant-digit
    scientific form into positional notation."""
    if math.isinf(value):
        return "inf"
    mantissa, exp_text = format(value, ".11e").split("e")
    negative = mantissa.startswith("-")
    digits = mantissa.lstrip("-").replace(".", "")
    exponent = int(exp_text)
    if exponent >= 0:
        if exponent + 1 >= len(digits):
            whole = digits + "0" * (exponent + 1 - len(digits))
            frac = ""
        else:
            whole = digits[: exponent + 1]
            frac = digits[exponent + 1 :]
    else:
        whole = "0"
        frac = "0" * (-exponent - 1) + digits
    text = whole + (f".{frac}" if frac else "")
    return f"-{text}" if negative else text


@settings(max_examples=2000, database=None, deadline=None)
@given(st.floats(allow_nan=False))
@example(-0.0)
@example(5e-324)
@example(1.8e308)
@example(1e12)
@example(999999999999.5)
def test_fmt12_matches_digit_splicing(value):
    assert _fmt12(value) == _fmt12_by_digits(value)
