"""Environment law: pdf/cdf/quantile consistency and the seeded sampler.

Closed forms are checked against independent oracles: adaptive quadrature
of the density (normalization, mean, cdf), finite differences (pdf vs
cdf), and bisection inversion (quantile vs cdf).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from dscsim import analysis, environment, rng
from dscsim.environment import (
    ConcentrationModel,
    atom_weight,
    cdf,
    pdf_continuous,
    quantile,
    time_series,
    uniform_threshold,
)
from dscsim.sensor import SensorSpec, detection_probability

REFERENCE = ConcentrationModel(c0=150.0, gamma=26.0 / 3.0, omega=0.98)

# Oracle-computed reference points (quadrature / bisection cross-checked below).
CDF_AT_1p03_C0 = 0.6674965936546449  # cdf(154.5); survival there is 0.3325034063453551
QUANTILE_AT_0p9 = 353.83720533381563


class TestModelValidation:
    def test_rejects_nonpositive_c0(self):
        with pytest.raises(ValueError, match="c0"):
            ConcentrationModel(c0=0.0)

    def test_rejects_gamma_at_or_below_two(self):
        with pytest.raises(ValueError, match="gamma"):
            ConcentrationModel(c0=1.0, gamma=2.0)

    @pytest.mark.parametrize("field", ["c0", "gamma"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        params = {"c0": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ConcentrationModel(**params)

    @pytest.mark.parametrize("omega", [-0.1, 1.1])
    def test_rejects_omega_outside_unit_interval(self, omega):
        with pytest.raises(ValueError, match="omega"):
            ConcentrationModel(c0=1.0, omega=omega)

    def test_degenerate_omega_zero_allowed(self):
        m = ConcentrationModel(c0=1.0, omega=0.0)
        assert atom_weight(m) == 1.0


class TestPdf:
    def test_value_at_zero_nonintermittent(self):
        # (gamma - 1) / (gamma - 2) = 23/20 for gamma = 26/3, omega = 1, c0 = 1
        m = ConcentrationModel(c0=1.0, gamma=26.0 / 3.0, omega=1.0)
        assert pdf_continuous(m, 0.0) == pytest.approx(1.15, abs=1e-12)

    def test_tail_decays_to_zero(self):
        assert pdf_continuous(REFERENCE, 1e9) < 1e-12
        c = np.logspace(0, 6, 50)
        dens = pdf_continuous(REFERENCE, c)
        assert np.all(np.diff(dens) < 0)

    def test_negative_concentration_rejected(self):
        with pytest.raises(ValueError):
            pdf_continuous(REFERENCE, -1.0)

    def test_matches_cdf_finite_difference(self):
        h = 1e-3
        numeric = (cdf(REFERENCE, 150.0 + h) - cdf(REFERENCE, 150.0 - h)) / (2 * h)
        assert pdf_continuous(REFERENCE, 150.0) == pytest.approx(numeric, rel=1e-6)

    def test_normalization_by_quadrature(self):
        total, _ = integrate.quad(lambda c: pdf_continuous(REFERENCE, c), 0, np.inf, limit=200)
        assert atom_weight(REFERENCE) + total == pytest.approx(1.0, abs=1e-8)

    def test_mean_equals_c0_by_quadrature(self):
        mean, _ = integrate.quad(lambda c: c * pdf_continuous(REFERENCE, c), 0, np.inf, limit=200)
        assert mean == pytest.approx(REFERENCE.c0, rel=1e-6)


class TestCdf:
    @pytest.mark.parametrize("omega", [0.3, 0.98, 1.0])
    def test_value_at_zero_is_atom_weight(self, omega):
        m = ConcentrationModel(c0=5.0, omega=omega)
        assert cdf(m, 0.0) == pytest.approx(1.0 - omega, abs=1e-15)

    def test_reference_value(self):
        assert cdf(REFERENCE, 1.03 * REFERENCE.c0) == pytest.approx(CDF_AT_1p03_C0, abs=1e-12)

    def test_reference_value_against_quadrature(self):
        part, _ = integrate.quad(lambda c: pdf_continuous(REFERENCE, c), 0, 154.5, limit=200)
        assert atom_weight(REFERENCE) + part == pytest.approx(CDF_AT_1p03_C0, abs=1e-8)

    def test_monotone_and_bounded(self):
        c = np.linspace(0, 5000, 2000)
        vals = cdf(REFERENCE, c)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == pytest.approx(0.02, abs=1e-15)
        assert np.all(vals <= 1.0)

    def test_saturates_at_one(self):
        m = ConcentrationModel(c0=1.0, omega=1.0)
        assert cdf(m, 1e12) == pytest.approx(1.0, abs=1e-6)

    def test_negative_concentration_rejected(self):
        with pytest.raises(ValueError):
            cdf(REFERENCE, -0.5)


def _bisect_cdf_inverse(model, u, lo=0.0, hi=1e9, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(model, mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestQuantile:
    def test_zero_below_atom(self):
        assert quantile(REFERENCE, 0.01) == 0.0

    def test_branch_boundary_continuous(self):
        assert quantile(REFERENCE, 1.0 - REFERENCE.omega) == pytest.approx(0.0, abs=1e-12)

    def test_reference_value(self):
        assert quantile(REFERENCE, 0.9) == pytest.approx(QUANTILE_AT_0p9, abs=1e-9)

    def test_reference_value_against_bisection(self):
        assert quantile(REFERENCE, 0.9) == pytest.approx(
            _bisect_cdf_inverse(REFERENCE, 0.9), rel=1e-9
        )

    @pytest.mark.parametrize("u", [-0.01, 1.0, 1.5])
    def test_domain_errors(self, u):
        with pytest.raises(ValueError):
            quantile(REFERENCE, u)

    def test_round_trip_with_cdf(self):
        u = np.concatenate([
            np.array([1.0 - REFERENCE.omega]),
            np.linspace(1.0 - REFERENCE.omega + 1e-6, 0.999999, 500),
        ])
        back = cdf(REFERENCE, quantile(REFERENCE, u))
        assert np.max(np.abs(back - u)) < 1e-9

    @pytest.mark.parametrize("omega", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("gamma", [2.5, 26.0 / 3.0, 12.0])
    @pytest.mark.parametrize("c0", [0.1, 150.0])
    def test_round_trip_across_models(self, omega, gamma, c0):
        m = ConcentrationModel(c0=c0, gamma=gamma, omega=omega)
        u = np.linspace(1.0 - omega, 0.999999, 200)
        back = cdf(m, quantile(m, u))
        assert np.max(np.abs(back - u)) < 1e-9

    def test_strictly_increasing_above_atom(self):
        u = np.linspace(1.0 - REFERENCE.omega, 0.999999, 400)
        q = quantile(REFERENCE, u)
        assert np.all(np.diff(q) > 0)

    def test_subnormal_omega_reads_zero_without_warning(self):
        # (1 - u) / omega overflows on the discarded branch.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = quantile(ConcentrationModel(1.0, omega=5e-324), np.array([0.5]))
        assert out.tolist() == [0.0]


class TestSampler:
    def test_omega_zero_all_samples_zero(self):
        m = ConcentrationModel(c0=1.0, omega=0.0)
        series = time_series(m, 1000, rng.sensor_stream(0, 0))
        assert np.all(series == 0.0)

    def test_single_sample_is_deterministic(self):
        a = time_series(REFERENCE, 1, rng.sensor_stream(5, 3))
        b = time_series(REFERENCE, 1, rng.sensor_stream(5, 3))
        assert a.tobytes() == b.tobytes()
        assert a[0] == quantile(REFERENCE, rng.sensor_stream(5, 3).random(1))[0]

    def test_large_sample_statistics(self):
        series = time_series(REFERENCE, 10**6, rng.sensor_stream(42, 0))
        assert 148.5 <= series.mean() <= 151.5  # analytic mean is exactly c0
        zero_frac = float(np.mean(series == 0.0))
        assert abs(zero_frac - 0.02) <= 0.002
        assert analysis.ks_distance(series, REFERENCE) < 0.005

    def test_time_series_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            time_series(REFERENCE, 0, rng.sensor_stream(0, 0))

    def test_time_series_seeded_determinism(self):
        a = time_series(REFERENCE, 257, rng.sensor_stream(11, 4))
        b = time_series(REFERENCE, 257, rng.sensor_stream(11, 4))
        assert a.tobytes() == b.tobytes()

    def test_sensor_streams_are_distinct(self):
        a = time_series(REFERENCE, 64, rng.sensor_stream(11, 0))
        b = time_series(REFERENCE, 64, rng.sensor_stream(11, 1))
        assert not np.array_equal(a, b)


_LATTICE = 2**53  # Generator.random() draws k * 2**-53, k in [0, 2**53)
_MODELS = st.builds(
    ConcentrationModel,
    c0=st.floats(1e-3, 1e3),
    gamma=st.floats(2.01, 50.0),
    omega=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
)


class TestUniformThreshold:
    """u* turns a reading quantile(u) >= c_star into u >= u* on the lattice
    of uniforms that Generator.random() draws."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(model=_MODELS, ratio=st.one_of(st.just(0.0), st.floats(0.0, 30.0)))
    @example(model=ConcentrationModel(c0=150.0, omega=0.0), ratio=1.03)
    @example(model=ConcentrationModel(c0=150.0, omega=1.0), ratio=1e-300)
    @example(model=REFERENCE, ratio=1.03)
    def test_readings_are_a_step_at_u_star(self, model, ratio):
        c_star = ratio * model.c0
        (u_star,) = uniform_threshold(model, [c_star])
        k_star = u_star * _LATTICE
        assert k_star == int(k_star) and 0 <= k_star <= _LATTICE
        # Evaluated as arrays, as the kernel's readings were.
        k = np.clip(int(k_star) + np.arange(-1024, 1024), 0, _LATTICE - 1)
        u = k / _LATTICE
        assert np.array_equal(quantile(model, u) >= c_star, u >= u_star)
        if c_star == 0.0:
            assert u_star == 0.0
        else:
            # Above the 2**-53 spacing of the lattice and of cdf near 1.
            p = detection_probability(SensorSpec(c_star=c_star, tau_star=1, r_star=1.0), model)
            assert abs((1.0 - u_star) - p) <= 1e-12 * p + 2.0**-53

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(model=_MODELS)
    def test_threshold_above_the_top_reading_is_never_reached(self, model):
        top = quantile(model, np.array([1.0 - 2.0**-53]))[0]
        unreachable, reached = uniform_threshold(model, [np.nextafter(top, math.inf), top])
        assert unreachable == 1.0 and reached <= 1.0 - 2.0**-53

    def test_one_threshold_per_entry(self):
        c_star = [0.0, 150.0, 154.5, 1e9]
        got = uniform_threshold(REFERENCE, c_star)
        assert got.tolist() == [uniform_threshold(REFERENCE, [c])[0] for c in c_star]
        assert got[0] == 0.0 and got[-1] == 1.0
        assert uniform_threshold(REFERENCE, []).shape == (0,)

    def test_non_monotone_quantile_is_an_error(self, monkeypatch):
        (u_star,) = uniform_threshold(REFERENCE, [154.5])
        original = environment.quantile

        def dipping(model, u):
            # One reading just above u* falls back below c_star.
            return np.where(np.asarray(u) == u_star + 3 * 2.0**-53, 0.0, original(model, u))

        monkeypatch.setattr(environment, "quantile", dipping)
        with pytest.raises(ArithmeticError, match="not monotone"):
            uniform_threshold(REFERENCE, [154.5])
