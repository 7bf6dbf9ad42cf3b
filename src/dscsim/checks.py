"""Argument checks. Each names the argument, the values it may take and the
value it got; the module imports nothing from the package."""

from __future__ import annotations

import math


def check_integer(name: str, value, minimum: int | None = None) -> None:
    """Reject a value without __index__ (50.0, 2.5, "3") or below minimum,
    naming it; numpy integers pass."""
    if not hasattr(value, "__index__") or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def check_real(name: str, value, *, gt=-math.inf, ge=None, lt=math.inf, le=None):
    """Return a value inside the interval from gt (open) or ge (closed) to
    lt (open) or le (closed); reject one outside it, naming it, the interval
    and the value. An omitted bound is open at infinity: NaN always fails,
    and +-inf fail unless le=math.inf closes the interval there."""
    low, high = gt if ge is None else ge, lt if le is None else le
    above = value > low if ge is None else value >= low
    if above and (value < high if le is None else value <= high):
        return value
    if le is not None or high < math.inf:
        interval = f"in {'(' if ge is None else '['}{low}, {high}{')' if le is None else ']'}"
    elif low > -math.inf:
        interval = f"finite and {'>' if ge is None else '>='} {low}"
    else:
        interval = "finite"
    raise ValueError(f"{name} must be {interval}, got {value}")
