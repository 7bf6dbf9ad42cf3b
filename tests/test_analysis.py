"""Plateau extraction, calibration, power-law fits, and the KS check."""

import math
from pathlib import Path

import numpy as np
import pytest

from dscsim import netsim, rng
from dscsim.analysis import (
    SWEEP_COLUMNS,
    alpha_from_sim,
    analyze_sweep,
    calibrate_g,
    extract_plateau,
    fit_power_law,
    ks_distance,
    sweep,
)
from dscsim.config import parse_config
from dscsim.environment import ConcentrationModel, quantile, time_series
from dscsim.meanfield import logistic_solution

REFERENCE = ConcentrationModel(c0=150.0, gamma=26.0 / 3.0, omega=0.98)


class TestExtractPlateau:
    def test_constant_trajectory(self):
        assert extract_plateau(np.full(40, 0.5)) == (0.5, 0.0)

    def test_ramp_then_constant(self):
        traj = np.concatenate([np.linspace(0, 0.8, 30), np.full(10, 0.8)])
        mean, std = extract_plateau(traj, tail_fraction=0.25)
        assert mean == pytest.approx(0.8) and std == pytest.approx(0.0)

    def test_saturated_logistic(self):
        traj = logistic_solution(0.01, 0.5, np.arange(200.0))
        mean, _ = extract_plateau(traj, tail_fraction=0.25)
        assert 0.999 <= mean <= 1.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            extract_plateau(np.ones(9))

    def test_trending_tail_returns_its_tail_mean(self):
        mean, _ = extract_plateau(np.linspace(0.0, 1.0, 100))
        assert mean == pytest.approx(np.linspace(0.0, 1.0, 100)[-25:].mean())

    def test_bad_tail_fraction(self):
        with pytest.raises(ValueError):
            extract_plateau(np.ones(20), tail_fraction=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [slice(None), slice(5, 6)])
    def test_non_finite_trajectory_rejected(self, bad, where):
        # extract_plateau([nan] * 20) used to return (nan, nan)
        traj = np.ones(20)
        traj[where] = bad
        with pytest.raises(ValueError, match=f"^trajectory must be finite, got {bad}$"):
            extract_plateau(traj)


class TestAlphaFromSim:
    def test_reference_value(self):
        assert alpha_from_sim(0.5, 5.0, 400) == pytest.approx(1.0e-3, rel=1e-12)

    @pytest.mark.parametrize("plateau, tau_star, n, message", [
        (0.0, 5.0, 400, r"plateau_active_fraction must be in \(0, 1\), got 0.0"),
        (1.0, 5.0, 400, r"plateau_active_fraction must be in \(0, 1\), got 1.0"),
        # alpha_from_sim(0.5, -5, 400) used to return -0.001
        (0.5, -5, 400, "tau_star must be finite and > 0, got -5"),
        (0.5, 0.0, 400, "tau_star must be finite and > 0, got 0.0"),
        (0.5, math.nan, 400, "tau_star must be finite and > 0, got nan"),
        (0.5, 5.0, -400, "n must be finite and > 0, got -400"),
        (0.5, 5.0, 0, "n must be finite and > 0, got 0"),
        (0.5, 5.0, math.nan, "n must be finite and > 0, got nan"),
        # alpha_from_sim(0.5, 1e-320, 1) used to return inf
        (0.5, 1e-320, 1, r"tau_star \* n \* \(1 - plateau_active_fraction\) must be "
                         r"finite and > 5.56\d*e-309, got 5e-321"),
    ])
    def test_degenerate_arguments_rejected(self, plateau, tau_star, n, message):
        with pytest.raises(ValueError, match=message):
            alpha_from_sim(plateau, tau_star, n)

    @pytest.mark.parametrize("alpha", [6e-4, 1e-3, 5e-3])
    def test_inverts_steady_state_exactly(self, alpha):
        tau, n = 5.0, 400
        plateau = 1.0 - 1.0 / (alpha * tau * n)
        assert alpha_from_sim(plateau, tau, n) == pytest.approx(alpha, rel=1e-12)


class TestCalibrateG:
    def test_exact_proportionality(self):
        theory = np.array([1e-4, 2e-4, 5e-4])
        pairs = list(zip(0.7 * theory, theory))
        assert calibrate_g(pairs) == pytest.approx(0.7, rel=1e-12)

    def test_single_pair(self):
        assert calibrate_g([(2e-4, 2e-4)]) == pytest.approx(1.0)

    def test_scale_equivariance(self):
        gen = np.random.default_rng(0)
        theory = gen.uniform(1e-4, 1e-3, 6)
        sim = theory * gen.uniform(0.5, 1.5, 6)
        g1 = calibrate_g(list(zip(sim, theory)))
        g2 = calibrate_g(list(zip(3.0 * sim, theory)))
        assert g2 == pytest.approx(3.0 * g1, rel=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            calibrate_g([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            calibrate_g([(0.0, 1e-4)])

    @pytest.mark.parametrize("pairs", [[1e-4, 2e-4], [(1e-4, 2e-4, 3e-4)], [[(1e-4, 2e-4)]]])
    def test_pairs_of_another_shape_rejected(self, pairs):
        with pytest.raises(ValueError, match=r"pairs must be \(alpha_sim, alpha_theory\) tuples"):
            calibrate_g(pairs)

    @pytest.mark.parametrize("pair", [
        (math.nan, 1e-4), (1e-4, math.nan), (math.inf, 1e-4), (1e-4, math.inf),
    ])
    def test_non_finite_rejected(self, pair):
        bad = pair[0] if not 0 < pair[0] < math.inf else pair[1]
        with pytest.raises(ValueError, match=f"^pairs must be finite and > 0, got {bad}$"):
            calibrate_g([(2e-4, 2e-4), pair])


class TestFitPowerLaw:
    def test_exact_square_law(self):
        fit = fit_power_law([1.0, 2.0, 4.0], [2.0, 8.0, 32.0])
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_ys_zero_exponent(self):
        fit = fit_power_law([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_recovers_planted_exponent(self):
        gen = np.random.default_rng(2)
        xs = gen.uniform(0.5, 50.0, 12)
        for planted in (-1.3, 0.5, 2.7):
            ys = 3.7 * xs ** planted
            fit = fit_power_law(xs, ys)
            assert fit.exponent == pytest.approx(planted, abs=1e-12)
            assert fit.intercept == pytest.approx(np.log(3.7), abs=1e-10)

    def test_r_squared_bounded(self):
        gen = np.random.default_rng(3)
        xs = gen.uniform(1.0, 10.0, 30)
        ys = np.exp(gen.normal(0.0, 1.0, 30))
        fit = fit_power_law(xs, ys)
        assert 0.0 <= fit.r_squared <= 1.0

    def test_nonpositive_data_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_data_rejected(self, capfd, bad, axis):
        # LAPACK would complain on stderr and then raise LinAlgError.
        data = {"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]}
        data[axis][2] = bad
        with pytest.raises(ValueError, match=f"^{axis}s must be finite and > 0, got {bad}$"):
            fit_power_law(data["x"], data["y"])
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("xs, ys", [
        ([1.0, 2.0], [1.0, 2.0]),
        # 2-D inputs used to raise LinAlgError: Incompatible dimensions
        ([[1.0, 2.0, 4.0]], [[2.0, 8.0, 32.0]]),
        ([1.0, 2.0, 4.0], [[2.0], [8.0], [32.0]]),
        ([[1.0], [2.0], [4.0]], [2.0, 8.0, 32.0]),
    ])
    def test_too_few_points_rejected(self, xs, ys):
        with pytest.raises(ValueError, match="xs and ys must be 1-D with one length >= 3"):
            fit_power_law(xs, ys)


class TestKsDistance:
    def test_self_samples_small_distance(self):
        series = time_series(REFERENCE, 10**6, rng.sensor_stream(9, 0))
        assert ks_distance(series, REFERENCE) < 0.005  # DKW bound scale at this size

    def test_shifted_model_detected(self):
        # doubling c0 opens an analytic sup gap of about 0.23
        shifted = ConcentrationModel(c0=300.0, gamma=REFERENCE.gamma, omega=REFERENCE.omega)
        series = time_series(shifted, 10**5, rng.sensor_stream(9, 1))
        assert ks_distance(series, REFERENCE) > 0.05

    def test_single_sample_at_median(self):
        median = quantile(REFERENCE, 0.5)
        assert ks_distance([median], REFERENCE) <= 0.5

    def test_atom_handled_right_continuously(self):
        # all-zero sample: empirical cdf is 1 at 0, analytic cdf is
        # 1 - omega there with left limit 0
        assert ks_distance(np.zeros(100), REFERENCE) == pytest.approx(REFERENCE.omega, abs=1e-12)

    def test_tied_positive_samples(self):
        # repeated identical positive values: distance is the larger of the
        # gap above and below the tie block
        x = quantile(REFERENCE, 0.6)
        d = ks_distance([x, x, x, x], REFERENCE)
        assert d == pytest.approx(0.6, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], REFERENCE)

    @pytest.mark.parametrize("samples, bad", [([1.0, math.nan], "nan"), ([math.nan], "nan"),
                                              ([0.0, -1.0], "-1.0")])
    def test_nan_or_negative_rejected(self, samples, bad):
        with pytest.raises(ValueError, match=f"^samples must be finite and >= 0, got {bad}$"):
            ks_distance(samples, REFERENCE)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SWEEP_CONFIG = """\
[environment]
c0 = 150.0

[sensor]
c_star = 154.5
tau_star = 5
r_star = 40.0

[network]
n = 100
width = 500.0
height = 500.0

[run]
steps = 40
n_seeds = 3

[sweep]
sensor.r_star = 30, 90
"""


class TestSweepBridge:
    def test_sweep_rows_do_not_depend_on_jobs(self):
        cfg = parse_config(SWEEP_CONFIG)
        rows = sweep(cfg, jobs=1)
        assert sweep(cfg, jobs=2) == rows
        assert [row[:2] for row in rows] == [[0, 30.0]] * 3 + [[1, 90.0]] * 3
        assert [row[2] for row in rows] == [0, 1, 2, 0, 1, 2]  # seed column
        assert all(len(row) == 2 + len(SWEEP_COLUMNS) for row in rows)

    @pytest.mark.parametrize("text", [
        SWEEP_CONFIG.replace("steps = 40", "steps = 9"),
        SWEEP_CONFIG.replace("sensor.r_star = 30, 90", "run.steps = 40, 5"),
    ])
    def test_sweep_rejects_short_runs_before_running(self, monkeypatch, text):
        def unreachable(*args, **kwargs):
            raise AssertionError("a member ran")

        monkeypatch.setattr(netsim, "run_members", unreachable)
        with pytest.raises(ValueError, match=r"run.steps must be >= 10 .*, got (9|5)$"):
            sweep(parse_config(text))

    def test_sweep_rejects_an_infinite_area_before_running(self, monkeypatch):
        # demo-sparse at width = height = 1e200, reached through a sweep point
        text = (CONFIGS / "demo-sparse.ini").read_text(encoding="utf-8")

        def unreachable(*args, **kwargs):
            raise AssertionError("a member ran")

        monkeypatch.setattr(netsim, "run_members", unreachable)
        with pytest.raises(ValueError, match=r"width \* height must be finite and > 0, got inf"):
            config = parse_config(text.replace("height = 1000.0", "height = 1e200")
                                  + "network.width = 1e200\n")
            sweep(config)

    def test_sweep_rejects_a_vanishing_range_before_running(self, monkeypatch):
        # r_star ** 2 underflows to 0 at 1e-170, where alpha_theory_g1 used
        # to be written as 0.0 after every member ran
        def unreachable(*args, **kwargs):
            raise AssertionError("a member ran")

        monkeypatch.setattr(netsim, "run_members", unreachable)
        config = parse_config(SWEEP_CONFIG.replace("r_star = 30, 90", "r_star = 30, 1e-170"))
        with pytest.raises(ValueError, match=r"^r_star \*\* 2 must be finite and > 0, got 0.0$"):
            sweep(config)

    def test_analyze_sweep_groups_points(self):
        header = ["point", "sensor.r_star", *SWEEP_COLUMNS]
        rows = [dict(zip(header, row)) for row in sweep(parse_config(SWEEP_CONFIG))]
        report = analyze_sweep(rows)
        assert report["sweep_axes"] == ["sensor.r_star"]
        assert [e["params"] for e in report["per_point"]] == [
            {"sensor.r_star": 30.0}, {"sensor.r_star": 90.0}
        ]
        for entry, point in zip(report["per_point"], (rows[:3], rows[3:])):
            plateaus = [r["plateau_mean"] for r in point]
            assert entry["plateau_sim"] == float(np.mean(plateaus))

    def test_analyze_sweep_rejects_no_rows(self):
        with pytest.raises(ValueError, match="no sweep rows"):
            analyze_sweep([])

    @pytest.mark.parametrize("column", ["plateau_mean", "p", "alpha_theory_g1", "tau_star"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_analyze_sweep_rejects_non_finite_cells(self, column, cell):
        header = ["point", "sensor.r_star", *SWEEP_COLUMNS]
        rows = [dict(zip(header, map(str, row))) for row in sweep(parse_config(SWEEP_CONFIG))]
        for row in rows[3:]:
            row[column] = cell
        with pytest.raises(ValueError, match=f"sweep column {column} is '{cell}' at point 1$"):
            analyze_sweep(rows)

    def test_analyze_sweep_names_missing_columns(self):
        rows = [{"point": "0", "seed": "0", "plateau_mean": "0.1"}]
        absent = "plateau_std, p, alpha_theory_g1, n, tau_star, initial_active"
        with pytest.raises(ValueError, match=f"lack the columns {absent}$"):
            analyze_sweep(rows)
