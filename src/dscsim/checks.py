"""Argument checks, and the package's one conversion of an argument to the
value the code runs on: each check returns the int, float, float array or
bool it judged, and callers compute with that, not with the object given.
A rejection names the argument, the values it may take and the value it
got; the module imports nothing from the package. A bool is a flag, never
a number: check_integer and check_real reject it, and only check_flag
accepts it."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


def check_integer(name: str, value, minimum: int | None = None,
                  maximum: int | None = None) -> int:
    """Return the int operator.index(value) if it lies in [minimum, maximum];
    reject a bool, an ndarray, a value without __index__ (50.0, 2.5, "3") or
    one outside, naming it. An omitted bound is open; numpy integers pass."""
    low = -math.inf if minimum is None else minimum
    high = math.inf if maximum is None else maximum
    if isinstance(value, (bool, np.ndarray)) or not hasattr(value, "__index__") or not low <= value <= high:
        if maximum is not None:
            bound = f" in [{low}, {maximum}]"
        else:
            bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return operator.index(value)


def check_real(name: str, value, *, gt=-math.inf, ge=None, lt=math.inf, le=None) -> float:
    """Return the float of a real number (numbers.Real, not a bool) if that
    float lies inside the interval from gt (open) or ge (closed) to lt
    (open) or le (closed); reject any other value, naming it, the interval
    and the value (its repr if it is no real number). A real that no float
    holds (10**400) is outside the float range. An omitted bound is open at
    infinity: NaN always fails, and +-inf fail unless le=math.inf closes
    the interval there."""
    low, high = gt if ge is None else ge, lt if le is None else le
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            raise ValueError(f"{name} must be within the float range, got {value}") from None
        above = number > low if ge is None else number >= low
        if above and (number < high if le is None else number <= high):
            return number
    if le is not None or high < math.inf:
        interval = f"in {'(' if ge is None else '['}{low}, {high}{')' if le is None else ']'}"
    elif low > -math.inf:
        interval = f"finite and {'>' if ge is None else '>='} {low}"
    else:
        interval = "finite"
    shown = value if isinstance(value, numbers.Real) else repr(value)
    raise ValueError(f"{name} must be {interval}, got {shown}")


def check_array(name: str, value, *, gt=-math.inf, ge=None, lt=math.inf, le=None) -> np.ndarray:
    """check_real for an array argument of any shape: return
    np.asarray(value, dtype=float) if every element lies in the interval,
    else raise naming its first element outside. A complex value, or one
    that numpy cannot convert (an element no float holds, a string that is
    no number, a ragged list), is rejected, naming the whole value."""
    try:
        array = None if np.iscomplexobj(value) else np.asarray(value, dtype=float)
    except OverflowError:  # an element that no float holds
        raise ValueError(f"{name} must be within the float range, got {value}") from None
    except (TypeError, ValueError):
        array = None
    if array is not None:
        inside = (array > gt if ge is None else array >= ge) & (
            array < lt if le is None else array <= le)
        if inside.all():
            return array
        value = array[~inside].item(0)
    check_real(name, value, gt=gt, ge=ge, lt=lt, le=le)  # raises: no float array, or outside


def check_flag(name: str, value) -> bool:
    """Return the Python bool of a Python or numpy bool; reject any other
    value (0, "false", None), naming it."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def store_checked(obj, name: str, check, *bounds, **interval) -> None:
    """Set field `name` of the frozen dataclass obj to what check returns for it."""
    object.__setattr__(obj, name, check(name, getattr(obj, name), *bounds, **interval))
