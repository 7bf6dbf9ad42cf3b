"""Every real argument is checked by one rule, dscsim.checks.check_real, and
every real array argument by dscsim.checks.check_array, worded the same way.

ROWS holds one row per real parameter of the public functions and of the
config dataclasses, with the interval it accepts. For each row the table
tries NaN, -inf, +inf (unless the interval is closed there) and the value
just outside each finite bound, and expects a ValueError that names the
parameter, its interval and the value; every closed bound must pass. A
bool, a string, None, a complex or an ndarray of any shape is no real
number and is rejected the same way, shown by its repr, and a real that no
float holds (10**400) is rejected as outside the float range. ARRAYS does
the same for the real array arguments: each value outside sits at index 2
of an otherwise valid array, and the message names that element; a list
holding 10**400 there, and a complex array, are rejected naming the
argument. FLAGS holds the bool fields of the config dataclasses, which
take only a Python or numpy bool.
test_every_real_parameter_has_a_row, test_every_array_argument_has_a_row
and test_every_flag_field_has_a_row keep the tables complete, and
test_closed_forms_give_finite_values_or_name_an_argument tries the rows'
callables at the extremes of the float range and beyond it.
test_only_checks_catches_overflow keeps the conversion to float in
dscsim.checks.
"""

import ast
import dataclasses
import inspect
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dscsim
from dscsim.checks import check_array
from dscsim.config import ExperimentConfig, MeanFieldSettings, PdeSettings, RunSettings

SPEC = dscsim.SensorSpec(c_star=154.5, tau_star=5, r_star=40.0)
MODEL = dscsim.ConcentrationModel(c0=150.0)
# A step front one cell further right at every record: speed 1 cell per time.
STEPS = dscsim.PdeTrajectory(times=np.arange(6.0), active=[], passive=[], dx=1.0,
                             profiles=np.array([np.arange(10) < k + 2 for k in range(6)], float))

# Keyword arguments at which each callable succeeds.
VALID = {
    dscsim.extract_plateau: dict(trajectory=np.ones(20), tail_fraction=0.25),
    dscsim.alpha_from_sim: dict(plateau_active_fraction=0.5, tau_star=5.0, n=400),
    dscsim.ConcentrationModel: dict(c0=150.0),
    dscsim.alpha_theory: dict(spec=SPEC, s=1e6, p=0.5, g=1.0),
    dscsim.r0: dict(p=0.5, n=400, r_star=40.0, s=1e6, g=1.0),
    dscsim.logistic_solution: dict(z0=0.1, b=0.5, t=np.array([0.0, 0.5, 1.0])),
    dscsim.steady_state: dict(r0_value=2.0),
    dscsim.relaxation_time: dict(r0_value=2.0, tau_star=5.0),
    dscsim.info_gain_conditions: dict(theta=0.5, delta=0.1, p=0.5, tau_star=5.0, n=400,
                                      t_detect=100.0, s=1e6, r_star=40.0),
    dscsim.integrate_sis: dict(alpha=1e-3, tau_star=5.0, n=400.0, nu=1.0, y0=0.0, t_end=10.0,
                               dt=1.0),
    dscsim.integrate_pde: dict(fields=(np.full((2, 5), 0.2), np.full((2, 5), 0.8)),
                               alpha_field=np.full((2, 5), 0.4), tau_star=5.0, t_end=1.0, dt=0.25,
                               dx=1.0, d=0.1),
    dscsim.front_positions: dict(trajectory=STEPS, level=0.5),
    dscsim.front_speed: dict(trajectory=STEPS, level=0.5),
    dscsim.synchronization_check: dict(alpha=1e-3, tau_star=5.0, r_star=40.0, v_star=0.0),
    dscsim.NetworkConfig: dict(n=10, width=100.0, height=100.0, initial_active=0),
    dscsim.neighbor_csr: dict(positions=np.zeros((3, 2)), r_star=40.0),
    dscsim.SensorSpec: dict(c_star=154.5, tau_star=5, r_star=40.0),
    dscsim.read: dict(spec=SPEC, c=100.0),
    RunSettings: {},
    MeanFieldSettings: {},
    PdeSettings: {},
    dscsim.calibrate_g: dict(pairs=np.full((3, 2), 2e-4)),
    dscsim.fit_power_law: dict(xs=np.array([1.0, 2.0, 4.0]), ys=np.array([2.0, 8.0, 32.0])),
    dscsim.ks_distance: dict(samples=np.array([0.0, 10.0, 100.0]), model=MODEL),
    dscsim.cdf: dict(model=MODEL, c=np.array([0.0, 10.0, 100.0])),
    dscsim.pdf_continuous: dict(model=MODEL, c=np.array([0.0, 10.0, 100.0])),
    dscsim.quantile: dict(model=MODEL, u=np.array([0.0, 0.5, 0.99])),
    dscsim.environment.uniform_threshold: dict(model=MODEL, c_star=np.array([0.0, 154.5, 300.0])),
}

# (callable, parameter, interval); bounds are written as the message prints them.
ROWS = [
    (dscsim.extract_plateau, "tail_fraction", "(0, 1]"),
    (dscsim.alpha_from_sim, "plateau_active_fraction", "(0, 1)"),
    (dscsim.alpha_from_sim, "tau_star", "(0, inf)"),
    (dscsim.alpha_from_sim, "n", "(0, inf)"),
    (dscsim.ConcentrationModel, "c0", "(0, inf)"),
    (dscsim.ConcentrationModel, "gamma", "(2, inf)"),
    (dscsim.ConcentrationModel, "omega", "[0, 1]"),
    (dscsim.alpha_theory, "s", "(0, inf)"),
    (dscsim.alpha_theory, "p", "[0, 1]"),
    (dscsim.alpha_theory, "g", "(0, inf)"),
    (dscsim.r0, "p", "[0, 1]"),
    (dscsim.r0, "n", "[0, inf)"),
    (dscsim.r0, "r_star", "(0, inf)"),
    (dscsim.r0, "s", "(0, inf)"),
    (dscsim.r0, "g", "(0, inf)"),
    (dscsim.logistic_solution, "z0", "[0, 1]"),
    (dscsim.logistic_solution, "b", "(-inf, inf)"),
    (dscsim.steady_state, "r0_value", "(1, inf)"),
    (dscsim.relaxation_time, "r0_value", "(1, inf)"),
    (dscsim.relaxation_time, "tau_star", "(0, inf)"),
    (dscsim.info_gain_conditions, "theta", "[0, inf)"),
    (dscsim.info_gain_conditions, "delta", "[0, 1]"),
    (dscsim.info_gain_conditions, "p", "(0, 1)"),
    (dscsim.info_gain_conditions, "tau_star", "(0, inf)"),
    (dscsim.info_gain_conditions, "t_detect", "(0, inf)"),
    (dscsim.info_gain_conditions, "s", "(0, inf)"),
    (dscsim.info_gain_conditions, "r_star", "(0, inf)"),
    (dscsim.integrate_sis, "alpha", "[0, inf)"),
    (dscsim.integrate_sis, "tau_star", "(0, inf)"),
    (dscsim.integrate_sis, "n", "[0, inf)"),
    (dscsim.integrate_sis, "nu", "[0, 1]"),
    (dscsim.integrate_sis, "y0", "[0, 400.0]"),
    (dscsim.integrate_sis, "t_end", "(0, inf)"),
    (dscsim.integrate_sis, "dt", "(0, inf)"),
    (dscsim.integrate_sis, "rel_tol", "(0, inf)"),
    (dscsim.integrate_pde, "tau_star", "(0, inf]"),
    (dscsim.integrate_pde, "t_end", "(0, inf)"),
    (dscsim.integrate_pde, "dt", "(0, inf)"),
    (dscsim.integrate_pde, "dx", "(0, inf)"),
    (dscsim.integrate_pde, "d", "[0, inf)"),
    (dscsim.front_positions, "level", "(-inf, inf)"),
    (dscsim.front_speed, "level", "(-inf, inf)"),
    (dscsim.synchronization_check, "alpha", "[0, inf)"),
    (dscsim.synchronization_check, "tau_star", "(0, inf)"),
    (dscsim.synchronization_check, "r_star", "(0, inf)"),
    (dscsim.synchronization_check, "v_star", "[0, inf)"),
    (dscsim.NetworkConfig, "width", "(0, inf)"),
    (dscsim.NetworkConfig, "height", "(0, inf)"),
    (dscsim.NetworkConfig, "delta", "[0, 1]"),
    (dscsim.NetworkConfig, "failure_rate", "[0, 1]"),
    (dscsim.neighbor_csr, "r_star", "(0, inf)"),
    (dscsim.SensorSpec, "c_star", "[0, inf)"),
    (dscsim.SensorSpec, "r_star", "(0, inf)"),
    (dscsim.read, "c", "[0, inf)"),
    (RunSettings, "tail_fraction", "(0, 1]"),
    (MeanFieldSettings, "g", "(0, inf)"),
    (MeanFieldSettings, "t_detect", "(0, inf)"),
    (MeanFieldSettings, "v_star", "[0, inf)"),
    (PdeSettings, "dx", "(0, inf)"),
    (PdeSettings, "t_end", "(0, inf)"),
    (PdeSettings, "dt", "[0, inf)"),
    (PdeSettings, "diffusivity", "[0, inf)"),
    (PdeSettings, "alpha", "[0, inf)"),
    (PdeSettings, "seed_level", "(0, 1]"),
    (PdeSettings, "level", "[0, 1]"),
]


def _bounds(interval):
    low, high = (float(b) for b in interval[1:-1].split(", "))
    return low, interval[0] == "[", high, interval[-1] == "]"


def _described(interval):
    """The interval as check_real words it."""
    low, high = interval[1:-1].split(", ")
    if interval.endswith("inf)"):
        relation = ">=" if interval[0] == "[" else ">"
        return "finite" if low == "-inf" else f"finite and {relation} {low}"
    return f"in {interval}"


def _outside(interval):
    """NaN, the infinities the interval excludes, and the floats just
    outside its finite bounds."""
    low, low_closed, high, high_closed = _bounds(interval)
    values = [math.nan, -math.inf] + ([] if high_closed and high == math.inf else [math.inf])
    if low > -math.inf:
        values.append(math.nextafter(low, -math.inf) if low_closed else low)
    if high < math.inf:
        values.append(math.nextafter(high, math.inf) if high_closed else high)
    return values


def _call(target, **changed):
    return target(**{**VALID[target], **changed})


# No real number: a bool is a flag, "5", None and 1j do not compare, and an
# ndarray is no scalar, whether empty, 0-d or of two elements.
NO_NUMBER = [True, np.False_, "5", None, 1j]
NOT_REAL = NO_NUMBER + [np.array([]), np.array(2.0), np.array([1.0, 2.0])]
REJECTED = [(target, param, interval, value) for target, param, interval in ROWS
            for value in _outside(interval) + NOT_REAL]


@pytest.mark.parametrize(
    "target, param, interval, value", REJECTED,
    ids=[f"{t.__name__}-{p}-{v}" for t, p, _, v in REJECTED],
)
def test_value_outside_the_interval_rejected_naming_it(target, param, interval, value):
    message = f"^{param} must be {re.escape(_described(interval))}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        _call(target, **{param: value})


# Reals that no float holds. Most rows used to raise a bare OverflowError for
# 10**400, and 14 accepted it.
BEYOND = [10**400, -(10**400), Fraction(10**400, 3)]
BEYOND_IDS = ["10**400", "-10**400", "Fraction(10**400, 3)"]


@pytest.mark.parametrize("value", BEYOND, ids=BEYOND_IDS)
@pytest.mark.parametrize("target, param", [(t, p) for t, p, _ in ROWS],
                         ids=[f"{t.__name__}-{p}" for t, p, _ in ROWS])
def test_real_no_float_holds_rejected_naming_it(target, param, value):
    message = f"^{param} must be within the float range, got {re.escape(str(value))}$"
    with pytest.raises(ValueError, match=message):
        _call(target, **{param: value})


def _closed_bounds(interval):
    low, low_closed, high, high_closed = _bounds(interval)
    return [bound for bound, closed in ((low, low_closed), (high, high_closed)) if closed]


ACCEPTED = [(target, param, value) for target, param, interval in ROWS
            for value in _closed_bounds(interval)]
# Open above: meanfield_report passes theta = 1 / R0, above 1 when subcritical.
ACCEPTED.append((dscsim.info_gain_conditions, "theta", 2.0))


@pytest.mark.parametrize("target, param, value", ACCEPTED,
                         ids=[f"{t.__name__}-{p}-{v}" for t, p, v in ACCEPTED])
def test_closed_bound_accepted(target, param, value):
    _call(target, **{param: value})


@pytest.mark.parametrize("n", [2.5, 0, math.nan, True])
def test_info_gain_counts_sensors_in_integers(n):
    # info_gain_conditions(..., n=2.5) used to be evaluated
    with pytest.raises(ValueError, match=f"^n must be an integer >= 1, got {n}$"):
        _call(dscsim.info_gain_conditions, n=n)


def _section_fields(annotation):
    """(config section, field) for every field of that annotation."""
    sections = [t for t in get_type_hints(ExperimentConfig).values() if dataclasses.is_dataclass(t)]
    return {(cls, f.name) for cls in sections for f in dataclasses.fields(cls)
            if f.type in (annotation.__name__, annotation)}


def _real_parameters():
    """(callable, parameter) for every float-annotated parameter of a function
    in dscsim.__all__ and every float field of a config section."""
    found = _section_fields(float)
    for name in dscsim.__all__:
        obj = getattr(dscsim, name)
        if inspect.isfunction(obj):
            found |= {(obj, p.name) for p in inspect.signature(obj).parameters.values()
                      if p.annotation in ("float", float)}
    return found


def test_every_real_parameter_has_a_row():
    missing = _real_parameters() - {(target, param) for target, param, _ in ROWS}
    assert sorted(f"{t.__name__}.{p}" for t, p in missing) == []


# (callable, array parameter, interval); "fields[0]" is element 0 of the
# fields tuple. An array passes when every element lies in the interval.
ARRAYS = [
    (dscsim.extract_plateau, "trajectory", "(-inf, inf)"),
    (dscsim.calibrate_g, "pairs", "(0, inf)"),
    (dscsim.fit_power_law, "xs", "(0, inf)"),
    (dscsim.fit_power_law, "ys", "(0, inf)"),
    (dscsim.ks_distance, "samples", "[0, inf)"),
    # c = inf passes check_array and is rejected by the scaled check, naming c and c0
    (dscsim.cdf, "c", "[0, inf]"),
    (dscsim.pdf_continuous, "c", "[0, inf]"),
    (dscsim.quantile, "u", "[0, 1)"),
    (dscsim.environment.uniform_threshold, "c_star", "[0, inf]"),
    (dscsim.logistic_solution, "t", "(-inf, inf)"),
    (dscsim.integrate_pde, "fields[0]", "[0, inf)"),
    (dscsim.integrate_pde, "fields[1]", "[0, inf)"),
    (dscsim.integrate_pde, "alpha_field", "[0, inf)"),
    (dscsim.neighbor_csr, "positions", "(-inf, inf)"),
]


def _planted(array, value):
    out = np.array(array, dtype=float)
    out.flat[2] = value
    return out


def _as_list_holding(array, value):
    """The array as nested Python lists, with value at flat index 2."""
    out = np.array(array, dtype=object)
    out.flat[2] = value
    return out.tolist()


def _with_element(target, param, value, plant=_planted):
    """VALID[target] with value at flat index 2 of the param array, or with
    the array replaced by plant(array, value)."""
    name, _, index = param.partition("[")
    kwargs = dict(VALID[target])
    if index:
        items = list(kwargs[name])
        items[int(index[:-1])] = plant(items[int(index[:-1])], value)
        kwargs[name] = tuple(items)
    else:
        kwargs[name] = plant(kwargs[name], value)
    return kwargs


ARRAY_REJECTED = [(target, param, interval, value) for target, param, interval in ARRAYS
                  for value in _outside(interval)]


@pytest.mark.parametrize(
    "target, param, interval, value", ARRAY_REJECTED,
    ids=[f"{t.__name__}-{p}-{v}" for t, p, _, v in ARRAY_REJECTED],
)
def test_array_element_outside_the_interval_rejected_naming_it(target, param, interval, value):
    message = (f"^{re.escape(param)} must be {re.escape(_described(interval))}, "
               f"got {re.escape(str(value))}$")
    with pytest.raises(ValueError, match=message):
        target(**_with_element(target, param, value))


@pytest.mark.parametrize("value", BEYOND, ids=BEYOND_IDS)
@pytest.mark.parametrize("target, param", [(t, p) for t, p, _ in ARRAYS],
                         ids=[f"{t.__name__}-{p}" for t, p, _ in ARRAYS])
def test_list_holding_a_real_no_float_holds_rejected_naming_it(target, param, value):
    # each raised a bare OverflowError
    kwargs = _with_element(target, param, value, plant=_as_list_holding)
    with pytest.raises(ValueError, match=f"^{re.escape(param)} must be within the float range, "):
        target(**kwargs)


@pytest.mark.parametrize("target, param, interval", ARRAYS,
                         ids=[f"{t.__name__}-{p}" for t, p, _ in ARRAYS])
def test_complex_array_rejected_naming_it(target, param, interval):
    # each warned "Casting complex values to real discards the imaginary part"
    kwargs = _with_element(target, param, None, plant=lambda array, _: array + 0j)
    message = f"^{re.escape(param)} must be {re.escape(_described(interval))}, got .*j"
    with pytest.raises(ValueError, match=message):
        target(**kwargs)


# uniform_threshold reads c_star = inf as a threshold no reading reaches.
ARRAY_ACCEPTED = [(target, param, value) for target, param, interval in ARRAYS
                  for value in _closed_bounds(interval) if math.isfinite(value)]
ARRAY_ACCEPTED.append((dscsim.environment.uniform_threshold, "c_star", math.inf))


@pytest.mark.parametrize("target, param, value", ARRAY_ACCEPTED,
                         ids=[f"{t.__name__}-{p}-{v}" for t, p, v in ARRAY_ACCEPTED])
def test_array_closed_bound_accepted(target, param, value):
    target(**_with_element(target, param, value))


def test_infinite_threshold_gives_u_star_one():
    assert dscsim.environment.uniform_threshold(MODEL, [math.inf]).tolist() == [1.0]


def _array_arguments():
    """(callable, parameter) for every ndarray in VALID, and parameter[i] for
    each ndarray in a tuple."""
    found = set()
    for target, kwargs in VALID.items():
        for name, value in kwargs.items():
            if isinstance(value, np.ndarray):
                found.add((target, name))
            elif isinstance(value, tuple):
                found |= {(target, f"{name}[{i}]") for i, item in enumerate(value)
                          if isinstance(item, np.ndarray)}
    return found


def test_every_array_argument_has_a_row():
    missing = _array_arguments() - {(target, param) for target, param, _ in ARRAYS}
    assert sorted(f"{t.__name__}.{p}" for t, p in missing) == []


# None converts to NaN; numpy converts no complex, no word and no ragged list.
@pytest.mark.parametrize("value, shown", [
    (np.array([None, None]), "nan"),
    ([None, 1.0], "nan"),
    (np.array([1j, 1j]), "array([0.+1.j, 0.+1.j])"),
    ([1j, 1.0], "[1j, 1.0]"),
    ([np.complex128(1j)], "[np.complex128(1j)]"),
    (np.array([1, 1j], dtype=object), "array([1, 1j], dtype=object)"),
    (["5", "five"], "['5', 'five']"),
    ([[1.0, 2.0], [3.0]], "[[1.0, 2.0], [3.0]]"),
], ids=repr)
def test_array_no_float_holds_rejected(value, shown):
    with pytest.raises(ValueError, match=f"^x must be finite, got {re.escape(shown)}$"):
        check_array("x", value)


# What np.asarray(value, dtype=float) converts passes, as every array
# argument was converted before it was checked.
@pytest.mark.parametrize("value", [np.array([True, False]), np.array(["5", "0.1"]),
                                   np.full(2, 0.1, np.float32), [np.False_, 2], 3],
                         ids=repr)
def test_array_converted_as_numpy_converts_it(value):
    converted = check_array("x", value)
    assert converted.dtype == np.float64
    assert converted.tobytes() == np.asarray(value, dtype=float).tobytes()


# Each raised a RuntimeWarning ("overflow encountered in dot", "invalid value
# encountered in scalar divide", "overflow encountered in reduce", "invalid
# value encountered in multiply") under -W error.
@pytest.mark.parametrize("call, name", [
    (lambda: dscsim.calibrate_g([(1e300, 1e300)]),
     "dot(alpha_sim, alpha_theory) / dot(alpha_theory, alpha_theory)"),
    (lambda: dscsim.calibrate_g([(5e-324, 5e-324)]),
     "dot(alpha_sim, alpha_theory) / dot(alpha_theory, alpha_theory)"),
    (lambda: dscsim.extract_plateau(np.full(20, 1.7e308)), "std of the trajectory's tail"),
    (lambda: dscsim.logistic_solution(0.5, 0.0, np.inf), "t"),
], ids=["calibrate_g-overflow", "calibrate_g-underflow", "extract_plateau", "logistic_solution"])
def test_array_arithmetic_past_the_float_range_names_a_value(call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite"):
            call()


# (config dataclass, bool field); each takes a Python or numpy bool only.
FLAGS = [(dscsim.NetworkConfig, "single_shot"), (dscsim.NetworkConfig, "refresh_on_detect")]


def test_every_flag_field_has_a_row():
    missing = _section_fields(bool) - set(FLAGS)
    assert sorted(f"{t.__name__}.{p}" for t, p in missing) == []


# "false" would be truthy, and apply_override passes it through untouched.
@pytest.mark.parametrize("value", [0, 1, "false", None, 1.0])
@pytest.mark.parametrize("target, param", FLAGS)
def test_flag_other_than_a_bool_rejected_naming_it(target, param, value):
    with pytest.raises(ValueError, match=f"^{param} must be a bool, got {re.escape(repr(value))}$"):
        _call(target, **{param: value})


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
@pytest.mark.parametrize("target, param", FLAGS)
def test_bool_flag_accepted(target, param, value):
    assert getattr(_call(target, **{param: value}), param) is value


def test_every_row_has_valid_arguments():
    for target, _, _ in ROWS:
        _call(target)


# Every callable of ROWS but the two solvers, whose step counts and
# stability bounds are policies of their own.
SOLVERS = {dscsim.integrate_sis, dscsim.integrate_pde}
CLOSED_FORMS = sorted({target for target, _, _ in ROWS} - SOLVERS, key=lambda t: t.__name__)
EXTREMES = [sign * size for sign in (1.0, -1.0)
            for size in (1e300, 1e-300, 5e-324, 1.7976931348623157e308, 1e160, 1e-160)]
EXTREMES += [10**400, -(10**400)]  # beyond the float range


def _near_bounds(interval):
    """Each finite bound of the interval and the floats on either side of it."""
    low, _, high, _ = _bounds(interval)
    return [value for bound in (low, high) if math.isfinite(bound)
            for value in (math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf))]


@st.composite
def _closed_form_calls(draw):
    """A callable of CLOSED_FORMS and some of its rows' parameters, each at
    an extreme or next to a bound of its interval."""
    target = draw(st.sampled_from(CLOSED_FORMS))
    changed = {}
    for row_target, param, interval in ROWS:
        if row_target is target and draw(st.booleans()):
            changed[param] = draw(st.sampled_from(EXTREMES + _near_bounds(interval)))
    return target, changed


def _floats(value):
    """Every float in a result: a scalar, an array, or a tuple or dataclass of them."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in _floats(item)]
    if isinstance(value, np.ndarray):
        return value.ravel().tolist()
    return [value] if isinstance(value, float) else []


@settings(derandomize=True, deadline=None, max_examples=500)
@given(call=_closed_form_calls())
# each raised ZeroDivisionError or OverflowError, or returned inf or NaN
@example(call=(dscsim.info_gain_conditions, dict(p=1e-300, t_detect=1e-300)))
@example(call=(dscsim.info_gain_conditions, dict(t_detect=5e-324)))
@example(call=(dscsim.synchronization_check, dict(r_star=1e300)))
@example(call=(dscsim.synchronization_check, dict(v_star=1e300)))
@example(call=(dscsim.synchronization_check, dict(r_star=1e-300)))
@example(call=(dscsim.logistic_solution, dict(z0=0.0, b=1e300)))
@example(call=(dscsim.logistic_solution, dict(z0=1.0, b=-1e300)))
@example(call=(dscsim.relaxation_time, dict(r0_value=1.0000000000000002, tau_star=1e300)))
def test_closed_forms_give_finite_values_or_name_an_argument(call):
    target, changed = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = _call(target, **changed)
        except ValueError as exc:
            names = inspect.signature(target).parameters
            assert any(re.search(rf"\b{name}\b", str(exc)) for name in names), exc
            return
    if target is dscsim.front_positions:  # NaN where the profile never reaches the level
        level = changed.get("level", VALID[target]["level"])
        result = result[STEPS.profiles.max(axis=1) >= level]
    assert all(math.isfinite(x) for x in _floats(result)), result


def _catches_overflow(handler):
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(name, ast.Name) and name.id == "OverflowError" for name in names)


def test_only_checks_catches_overflow():
    # a real that no float holds is decided in dscsim.checks, nowhere else
    package = Path(dscsim.__file__).parent
    catching = sorted(
        f"{path.name}:{node.lineno}" for path in package.glob("*.py") if path.name != "checks.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and _catches_overflow(node))
    assert catching == []
