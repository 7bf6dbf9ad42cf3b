"""Threshold sensor: readings, detection probability, optimal threshold."""

import math

import numpy as np
import pytest

from dscsim import rng
from dscsim.environment import ConcentrationModel, time_series
from dscsim.sensor import SensorSpec, detection_probability, optimal_threshold, read

REFERENCE = ConcentrationModel(c0=150.0, gamma=26.0 / 3.0, omega=0.98)

# survival at c_star = 1.03 * c0, frozen from the closed form and verified
# against quadrature in test_environment and Monte Carlo below
P_AT_1p03 = 0.33250340634535513


class TestSpecValidation:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="c_star"):
            SensorSpec(c_star=-1.0, tau_star=5, r_star=10.0)

    def test_zero_tau_rejected(self):
        with pytest.raises(ValueError, match="tau_star"):
            SensorSpec(c_star=1.0, tau_star=0, r_star=10.0)

    @pytest.mark.parametrize("tau_star", [2.5, 5.0, np.float64(5.0), "5", math.nan, math.inf])
    def test_non_integer_tau_rejected(self, tau_star):
        # A timer of 2.5 would be stored as 2 while the theory used 2.5.
        with pytest.raises(ValueError, match="tau_star must be an integer"):
            SensorSpec(c_star=150.0, tau_star=tau_star, r_star=40.0)

    @pytest.mark.parametrize("tau_star", [1, 5, np.int64(5), np.int32(5), 2**63 - 1])
    def test_integer_tau_accepted(self, tau_star):
        assert SensorSpec(c_star=150.0, tau_star=tau_star, r_star=40.0).tau_star == tau_star

    def test_tau_beyond_the_int64_timers_rejected(self):
        with pytest.raises(ValueError, match=r"^tau_star must be an integer in "
                           r"\[1, 9223372036854775807\], got 9223372036854775808$"):
            SensorSpec(c_star=150.0, tau_star=2**63, r_star=40.0)

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError, match="r_star"):
            SensorSpec(c_star=1.0, tau_star=5, r_star=0.0)

    @pytest.mark.parametrize("field", ["c_star", "r_star"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        params = {"c_star": 1.0, "tau_star": 5, "r_star": 10.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SensorSpec(**params)


class TestRead:
    def test_boundary_is_inclusive(self):
        spec = SensorSpec(c_star=100.0, tau_star=5, r_star=10.0)
        assert read(spec, 100.0) == 1

    def test_below_threshold(self):
        spec = SensorSpec(c_star=100.0, tau_star=5, r_star=10.0)
        assert read(spec, 0.0) == 0
        assert read(spec, 99.999) == 0

    @pytest.mark.parametrize("c", [-1.0, math.nan])
    @pytest.mark.parametrize("c_star", [0.0, 100.0])
    def test_negative_or_nan_rejected(self, c, c_star):
        spec = SensorSpec(c_star=c_star, tau_star=5, r_star=10.0)
        with pytest.raises(ValueError, match="c must be finite and >= 0"):
            read(spec, c)

    def test_degenerate_zero_threshold_always_fires(self):
        spec = SensorSpec(c_star=0.0, tau_star=5, r_star=10.0)
        for c in (0.0, 1e-9, 17.0):
            assert read(spec, c) == 1


class TestDetectionProbability:
    def test_zero_threshold_gives_omega(self):
        spec = SensorSpec(c_star=0.0, tau_star=5, r_star=10.0)
        assert detection_probability(spec, REFERENCE) == pytest.approx(REFERENCE.omega, abs=1e-15)

    def test_reference_value(self):
        spec = SensorSpec(c_star=1.03 * 150.0, tau_star=5, r_star=10.0)
        assert detection_probability(spec, REFERENCE) == pytest.approx(P_AT_1p03, abs=1e-12)

    def test_huge_threshold_vanishes(self):
        spec = SensorSpec(c_star=1e12, tau_star=5, r_star=10.0)
        assert detection_probability(spec, REFERENCE) < 1e-9

    def test_threshold_past_the_float_range_of_the_law_rejected(self):
        # cdf used to overflow in multiply and return p = 0
        spec = SensorSpec(c_star=1e308, tau_star=5, r_star=10.0)
        with pytest.raises(ValueError, match=r"got c = 1e\+308 and c0 = 1e-300$"):
            detection_probability(spec, ConcentrationModel(c0=1e-300))

    def test_nonincreasing_in_threshold_and_bounded(self):
        thresholds = np.linspace(0, 2000, 200)
        ps = [
            detection_probability(SensorSpec(c_star=c, tau_star=5, r_star=10.0), REFERENCE)
            for c in thresholds
        ]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert all(0.0 <= p <= REFERENCE.omega for p in ps)

    def test_monte_carlo_agreement(self):
        # 1e7 draws; empirical rate within 3 binomial sigmas of p
        spec = SensorSpec(c_star=1.03 * 150.0, tau_star=5, r_star=10.0)
        series = time_series(REFERENCE, 10**7, rng.sensor_stream(7, 0))
        empirical = float(np.mean(series >= spec.c_star))
        p = detection_probability(spec, REFERENCE)
        sigma = np.sqrt(p * (1.0 - p) / series.size)
        assert abs(empirical - p) <= 3.0 * sigma


class TestOptimalThreshold:
    def test_reference_value_paper_model(self):
        # closed form at omega=0.98, gamma=26/3, c0=150
        assert optimal_threshold(REFERENCE) == pytest.approx(93.61515510144592, abs=1e-9)

    def test_reference_value_nonintermittent(self):
        # (20/3) * (2**(3/23) - 1) for omega=1, gamma=26/3, c0=1
        m = ConcentrationModel(c0=1.0, gamma=26.0 / 3.0, omega=1.0)
        assert optimal_threshold(m) == pytest.approx(0.6308235762314583, abs=1e-12)

    @pytest.mark.parametrize("omega", [0.5, 0.3])
    def test_infeasible_below_half(self, omega):
        with pytest.raises(ValueError, match="infeasible"):
            optimal_threshold(ConcentrationModel(c0=1.0, omega=omega))

    @pytest.mark.parametrize("omega", [0.51, 0.7, 0.98, 1.0])
    def test_round_trip_gives_half(self, omega):
        m = ConcentrationModel(c0=37.5, gamma=26.0 / 3.0, omega=omega)
        spec = SensorSpec(c_star=optimal_threshold(m), tau_star=5, r_star=10.0)
        assert detection_probability(spec, m) == pytest.approx(0.5, abs=1e-9)
