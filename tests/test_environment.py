"""Environment law: pdf/cdf/quantile consistency and the seeded sampler.

Closed forms are checked against independent oracles: adaptive quadrature
of the density (normalization, mean, cdf), finite differences (pdf vs
cdf), and bisection inversion (quantile vs cdf).
"""

import math

import numpy as np
import pytest
from scipy import integrate

from dscsim import analysis, environment, rng
from dscsim.environment import (
    ConcentrationModel,
    atom_weight,
    cdf,
    pdf_continuous,
    quantile,
    sample,
    time_series,
)

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


class TestSampler:
    def test_omega_zero_all_samples_zero(self):
        m = ConcentrationModel(c0=1.0, omega=0.0)
        series = time_series(m, 1000, rng.sensor_stream(0, 0))
        assert np.all(series == 0.0)

    def test_single_sample_is_deterministic(self):
        a = sample(REFERENCE, rng.sensor_stream(5, 3))
        b = sample(REFERENCE, rng.sensor_stream(5, 3))
        assert a == b

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


def test_public_sample_matches_quantile_of_uniform():
    gen_a = rng.substream(123, 9)
    gen_b = rng.substream(123, 9)
    drawn = sample(REFERENCE, gen_a)
    assert drawn == environment.quantile(REFERENCE, gen_b.random())
