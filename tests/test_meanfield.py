"""Mean-field engine: closed forms, the density-corrected ODE, and the
reaction-diffusion extension, each checked against an independent oracle
(hand arithmetic, a local RK4 integrator, constructed fields)."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dscsim import meanfield
from dscsim.config import parse_config
from dscsim.meanfield import (
    alpha_theory,
    front_positions,
    front_speed,
    info_gain_conditions,
    integrate_pde,
    integrate_sis,
    logistic_solution,
    r0,
    relaxation_time,
    steady_state,
    synchronization_check,
)
from dscsim.sensor import SensorSpec


def rk4_logistic(z0, b, times):
    """Independent fixed-step RK4 oracle for dz/dt = b z (1 - z)."""
    def f(z):
        return b * z * (1.0 - z)

    out = np.empty(times.size)
    out[0] = z = z0
    for k in range(times.size - 1):
        h = (times[k + 1] - times[k]) / 8.0
        for _ in range(8):
            k1 = f(z)
            k2 = f(z + 0.5 * h * k1)
            k3 = f(z + 0.5 * h * k2)
            k4 = f(z + h * k3)
            z += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = z
    return out


class TestClosedForms:
    def test_alpha_theory_reference(self):
        spec = SensorSpec(c_star=1.0, tau_star=5, r_star=40.0)
        value = alpha_theory(spec, s=1e6, p=0.333, g=0.7)
        assert value == pytest.approx(0.7 * math.pi * 1600 * 0.333 / 5e6, abs=1e-12)
        assert value == pytest.approx(2.343e-4, abs=1e-7)

    def test_alpha_theory_zero_p(self):
        spec = SensorSpec(c_star=1.0, tau_star=5, r_star=40.0)
        assert alpha_theory(spec, 1e6, 0.0, 0.7) == 0.0

    def test_alpha_theory_quadratic_in_range(self):
        s1 = SensorSpec(c_star=1.0, tau_star=5, r_star=40.0)
        s2 = SensorSpec(c_star=1.0, tau_star=5, r_star=80.0)
        assert alpha_theory(s2, 1e6, 0.4, 1.0) == pytest.approx(
            4.0 * alpha_theory(s1, 1e6, 0.4, 1.0), rel=1e-12
        )

    def test_r0_reference(self):
        assert r0(0.5, 400, 40.0, 1e6, g=1.0) == pytest.approx(1.00531, abs=1e-5)

    def test_r0_zero_without_detection(self):
        assert r0(0.0, 400, 40.0, 1e6) == 0.0

    def test_r0_equals_alpha_tau_n(self):
        # tau_star cancels: r0 computed from alpha matches the direct form
        spec = SensorSpec(c_star=1.0, tau_star=17, r_star=40.0)
        a = alpha_theory(spec, 1e6, 0.5, 1.0)
        assert a * spec.tau_star * 400 == pytest.approx(r0(0.5, 400, 40.0, 1e6), rel=1e-12)

    def test_steady_state_symmetric_point(self):
        assert steady_state(2.0) == (0.5, 0.5)

    def test_steady_state_limit(self):
        active, theta = steady_state(1e9)
        assert active > 0.999999 and theta < 1e-8

    def test_steady_state_reference(self):
        _, theta = steady_state(1.0053096491487339)
        assert theta == pytest.approx(0.9947183943243458, abs=1e-10)

    @pytest.mark.parametrize("r0_value", [1.0, 0.5, -math.inf, math.nan])
    def test_steady_state_subcritical_error(self, r0_value):
        with pytest.raises(ValueError, match="subcritical"):
            steady_state(r0_value)

    def test_relaxation_time_values(self):
        assert relaxation_time(2.0, 5.0) == pytest.approx(5.0)
        assert relaxation_time(11.0, 5.0) == pytest.approx(0.5)

    def test_relaxation_time_diverges_near_threshold(self):
        assert relaxation_time(1.0 + 1e-9, 5.0) > 1e9

    @pytest.mark.parametrize("r0_value", [0.9, 1.0, -math.inf, math.nan])
    def test_relaxation_subcritical_error(self, r0_value):
        with pytest.raises(ValueError, match="subcritical"):
            relaxation_time(r0_value, 5.0)

    def test_theta_scaling_laws(self):
        # theta = 1/R0 scales as 1/r*^2, 1/n, 1/p: evaluate at doubled arguments
        p, n, r, s = 0.4, 900, 55.0, 1e6
        theta = 1.0 / r0(p, n, r, s)
        assert 1.0 / r0(p, n, 2 * r, s) == pytest.approx(theta / 4.0, rel=1e-12)
        assert 1.0 / r0(p, 2 * n, r, s) == pytest.approx(theta / 2.0, rel=1e-12)
        assert 1.0 / r0(2 * p, n, r, s) == pytest.approx(theta / 2.0, rel=1e-12)


class TestLogistic:
    def test_frozen_growth_rate_solution(self):
        assert logistic_solution(0.1, 0.2, 10.0) == pytest.approx(0.4508530603792838, abs=1e-12)

    def test_zero_rate_is_constant(self):
        t = np.linspace(0, 50, 11)
        assert np.allclose(logistic_solution(0.37, 0.0, t), 0.37, atol=1e-15)

    def test_long_time_limits(self):
        assert logistic_solution(0.01, 0.5, 1e4) == pytest.approx(1.0, abs=1e-12)
        assert logistic_solution(0.99, -0.5, 1e4) == pytest.approx(0.0, abs=1e-12)

    def test_matches_rk4_oracle(self):
        times = np.linspace(0, 20, 201)
        for z0 in (0.01, 0.5):
            for b in (-0.5, 1.0):
                closed = logistic_solution(z0, b, times)
                assert np.max(np.abs(closed - rk4_logistic(z0, b, times))) < 1e-6

    def test_satisfies_logistic_ode(self):
        # centered finite difference of z equals b z (1 - z) on a dense grid
        b, z0 = 0.7, 0.05
        t = np.linspace(0.0, 15.0, 20001)
        z = logistic_solution(z0, b, t)
        h = t[1] - t[0]
        dz = (z[2:] - z[:-2]) / (2 * h)
        assert np.max(np.abs(dz - b * z[1:-1] * (1 - z[1:-1]))) < 1e-6

    def test_domain_error(self):
        with pytest.raises(ValueError):
            logistic_solution(1.2, 0.1, 1.0)


class TestInfoGain:
    def test_reference_counts(self):
        report = info_gain_conditions(
            theta=0.5, delta=0.01, p=0.5, tau_star=5.0, n=400,
            t_detect=100.0, s=1e6, r_star=40.0,
        )
        assert report.n_star == 796  # ceil of 795.77
        assert report.n_threshold == report.n_star  # (p(1-p))^-1 minimal at p = 1/2

    def test_reference_delta_min(self):
        report = info_gain_conditions(
            theta=0.5, delta=0.01, p=0.333, tau_star=5.0, n=400,
            t_detect=100.0, s=1e6, r_star=40.0,
        )
        assert report.delta_min == pytest.approx(3.753753753753754e-4, abs=1e-9)

    def test_flags_consistent(self):
        report = info_gain_conditions(
            theta=0.2, delta=0.1, p=0.5, tau_star=5.0, n=1000,
            t_detect=200.0, s=1e6, r_star=40.0,
        )
        assert report.dsc_superior  # 0.2 <= 0.9
        assert report.epidemic_within_t  # 0.1*0.5*1000*200/5 = 2000 >= 1
        assert report.event_gain  # 0.2 < 0.5
        assert report.consistency  # delta_min = 5e-5 <= 0.8

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_p_rejected(self, p):
        with pytest.raises(ValueError):
            info_gain_conditions(0.5, 0.01, p, 5.0, 400, 100.0, 1e6, 40.0)


def reference_sis_pass(alpha, tau_star, n, nu, y0, times, substeps):
    """integrate_sis's RK4 pass written without the fixed-point stop:
    every interval of the grid is computed."""
    out = np.empty(len(times))
    out[0] = y = float(y0)
    for k in range(len(times) - 1):
        h = (times[k + 1] - times[k]) / substeps
        half, sixth = 0.5 * h, h / 6.0
        for _ in range(substeps):
            c = 0.0 if y < 0.0 else (n if y > n else y)
            k1 = alpha * c ** nu * (n - c) - c / tau_star
            c = y + half * k1
            c = 0.0 if c < 0.0 else (n if c > n else c)
            k2 = alpha * c ** nu * (n - c) - c / tau_star
            c = y + half * k2
            c = 0.0 if c < 0.0 else (n if c > n else c)
            k3 = alpha * c ** nu * (n - c) - c / tau_star
            c = y + h * k3
            c = 0.0 if c < 0.0 else (n if c > n else c)
            k4 = alpha * c ** nu * (n - c) - c / tau_star
            y += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = y
    return out


def sis_pass_bytes(alpha, tau_star, n, nu, y0, dt, steps, substeps):
    """(_sis_pass, reference) bytes on integrate_sis's grid of `steps` dt."""
    times = np.arange(steps + 1) * dt
    grid = times.tolist()
    got = meanfield._sis_pass(alpha, tau_star, n, nu, y0, grid,
                              meanfield._equal_widths(times), substeps)
    return got.tobytes(), reference_sis_pass(alpha, tau_star, n, nu, y0, grid, substeps).tobytes()


@st.composite
def sis_cases(draw):
    n = draw(st.one_of(st.integers(1, 1000), st.floats(1.0, 1000.0)))
    tau_star = draw(st.floats(0.5, 20.0))
    # alpha through R0 = alpha tau_star n, so that most runs settle in the grid
    alpha = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0).map(lambda r: r / (tau_star * n))))
    nu = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    y0 = draw(st.one_of(st.sampled_from([0.0, -0.0, n]), st.floats(0.0, n)))
    dt = draw(st.sampled_from([1.0, 0.25, 0.1, 1 / 3]))
    return (alpha, tau_star, n, nu, y0, dt, draw(st.integers(1, 400)),
            draw(st.sampled_from([1, 2, 4])))


class CountedRate(float):
    """A contact rate that counts its multiplications: 4 per RK4 substep."""

    calls = 0

    def __mul__(self, other):
        self.calls += 1
        return float(self) * other


class TestSisFixedPoint:
    """A pass on a grid of equal widths stops once an interval ends on its
    start value; its values must stay those of the full loop."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(case=sis_cases())
    # the benchmark's nu = 0.5 call at one substep: settles at interval 355
    @example(case=(1e-3, 5.0, 400, 0.5, 10.0, 1.0, 400, 1))
    def test_pass_matches_the_full_loop(self, case):
        got, expected = sis_pass_bytes(*case)
        assert got == expected

    def test_unequal_widths_run_in_full(self):
        # an interval of this 1/3 grid ends on its start, but the next
        # width differs, so a stop there would change later bytes
        times = np.arange(309) * (1 / 3)
        assert not meanfield._equal_widths(times)
        case = (2.459e-4, 1.0, 400, 0.5, 384.9, 1 / 3, 308, 2)
        stopped = meanfield._sis_pass(*case[:5], times.tolist(), True, 2)
        got, expected = sis_pass_bytes(*case)
        assert stopped.tobytes() != expected
        assert got == expected

    @pytest.mark.parametrize("dt, substeps", [(1.0, 3), (0.1, 3000)])
    def test_work_stops_at_the_fixed_point(self, dt, substeps):
        # y0 = 0 is a fixed point at nu > 0: on the unit grid each pass
        # stops after its first interval, and the passes of 1 and 2
        # substeps agree; the 0.1 grid has unequal widths and runs in full
        alpha = CountedRate(1e-3)
        traj = integrate_sis(alpha, 5.0, 400.0, 0.7, 0.0, 1000 * dt, dt)
        assert traj.y.size == 1001 and not traj.y.any()
        assert alpha.calls == 4 * substeps


class TestIntegrateSis:
    def test_nu_one_matches_logistic_closed_form(self):
        alpha, tau, n, y0 = 1e-3, 5.0, 400.0, 10.0
        traj = integrate_sis(alpha, tau, n, nu=1.0, y0=y0, t_end=60.0, dt=0.25)
        b = alpha * n - 1.0 / tau
        z0 = alpha * y0 / b
        closed = (b / alpha) * logistic_solution(z0, b, traj.t)
        assert np.max(np.abs(traj.y - closed)) < 1e-6

    def test_zero_start_is_fixed_point(self):
        traj = integrate_sis(1e-3, 5.0, 400.0, nu=0.8, y0=0.0, t_end=20.0, dt=0.5)
        assert np.all(traj.y == 0.0)

    def test_density_corrected_plateau_regression(self):
        # nu = 0.7 plateau frozen from a converged run; far below the
        # nu = 1 value of 200 for the same parameters
        traj = integrate_sis(1e-3, 5.0, 400.0, nu=0.7, y0=10.0, t_end=400.0, dt=1.0)
        assert traj.y[-1] == pytest.approx(9.317774405173934, rel=1e-6)

    def test_equal_r0_trajectories_collapse(self):
        # same R0 = 2 and same initial fraction, different (alpha, tau, n)
        tau1, n1, tau2, n2 = 5.0, 400.0, 20.0, 500.0
        a1, a2 = 2.0 / (tau1 * n1), 2.0 / (tau2 * n2)
        t1 = integrate_sis(a1, tau1, n1, 1.0, 0.025 * n1, t_end=12 * tau1, dt=0.05 * tau1)
        t2 = integrate_sis(a2, tau2, n2, 1.0, 0.025 * n2, t_end=12 * tau2, dt=0.05 * tau2)
        assert np.max(np.abs(t1.y / n1 - t2.y / n2)) < 1e-6

    @pytest.mark.parametrize("r0_target", [1.2, 2.0, 5.0])
    def test_plateau_matches_steady_state(self, r0_target):
        tau, n = 5.0, 400.0
        alpha = r0_target / (tau * n)
        t_end = 40.0 * relaxation_time(r0_target, tau) + 50.0
        traj = integrate_sis(alpha, tau, n, 1.0, 10.0, t_end=t_end, dt=1.0)
        active, _ = steady_state(r0_target)
        assert traj.y[-1] / n == pytest.approx(active, abs=1e-5)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            integrate_sis(1e-3, 5.0, 400.0, nu=1.5, y0=10.0, t_end=10.0, dt=0.1)
        with pytest.raises(ValueError):
            integrate_sis(1e-3, 5.0, 400.0, nu=1.0, y0=500.0, t_end=10.0, dt=0.1)

    SIS_ARGS = {"alpha": 1e-3, "tau_star": 5.0, "n": 400.0, "nu": 1.0, "y0": 10.0,
                "t_end": 10.0, "dt": 1.0}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["alpha", "tau_star", "n", "y0", "dt", "t_end"])
    def test_non_finite_input_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            integrate_sis(**dict(self.SIS_ARGS, **{name: value}))

    @pytest.mark.parametrize("tau_star", [0.0, -5.0])
    def test_nonpositive_tau_star_rejected(self, tau_star):
        with pytest.raises(ValueError, match="tau_star must be > 0"):
            integrate_sis(**dict(self.SIS_ARGS, tau_star=tau_star))

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-8, math.nan])
    def test_nonpositive_rel_tol_rejected(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol"):
            integrate_sis(**self.SIS_ARGS, rel_tol=rel_tol)

    def test_nan_alpha_fails_fast(self):
        # used to refine for about 30 s and return NaN
        start = time.perf_counter()
        with pytest.raises(ValueError, match="alpha must be finite"):
            integrate_sis(math.nan, 5.0, 400.0, 1.0, 10.0, t_end=2.0, dt=1.0)
        assert time.perf_counter() - start < 1.0

    def test_unreachable_tolerance_raises_within_the_substep_budget(self, monkeypatch):
        # 1e-15 is below the round-off between refinements; this used to
        # refine for more than a minute and silently return the last pass
        substeps = []
        original = meanfield._sis_pass

        def counted(*args):
            substeps.append(args[-1])
            return original(*args)

        monkeypatch.setattr(meanfield, "_sis_pass", counted)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"did not converge to rel_tol = 1e-15.*differ by"):
            integrate_sis(1e-3, 5.0, 400.0, 0.7, 10.0, t_end=10.0, dt=1.0, rel_tol=1e-15)
        assert max(substeps) == meanfield._SIS_MAX_SUBSTEPS
        assert time.perf_counter() - start < 5.0

    def test_overflowing_step_count_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            integrate_sis(1e-3, 5.0, 400.0, 1.0, 10.0, t_end=1e300, dt=1e-300)

    def test_long_grid_converges(self):
        # the benchmark's call on a 5 000-step grid, converging at 128
        # substeps per step; R0 = 2 saturates at n / 2, so each pass stops
        # at its fixed point well before t_end
        traj = integrate_sis(1e-3, 5.0, 400, 1.0, 10.0, 5000.0, 1.0, rel_tol=1e-12)
        assert traj.y[-1] == pytest.approx(200.0, rel=1e-9)

    def test_bench_tolerance_converges_within_budget(self):
        # a grid as long as the benchmark's (500 unit steps) at its rel_tol
        for nu in (0.5, 0.7, 1.0):
            traj = integrate_sis(1e-3, 5.0, 400, nu, 10.0, 500.0, 1.0, rel_tol=1e-12)
            assert np.all((traj.y >= 0.0) & (traj.y <= 400.0))


def seeded_fields(nx=30, ny=8, columns=3, level=0.5):
    active = np.zeros((ny, nx))
    active[:, :columns] = level
    return active, 1.0 - active


# dx and d of the seeded grid, unless a test says otherwise
DX, D = 5.0, 10.0


class TestIntegratePde:
    def test_cfl_violation_rejected(self):
        # bound: 25/40 = 0.625
        with pytest.raises(ValueError, match="stability"):
            integrate_pde(seeded_fields(), 0.4, 5.0, t_end=1.0, dt=1.0, dx=5.0, d=10.0)

    def test_zero_diffusion_reduces_to_percell_ode(self):
        starts = np.array([[0.1, 0.2, 0.3, 0.0], [0.05, 0.5, 0.9, 0.01]])
        traj = integrate_pde((starts, 1.0 - starts), 0.4, 5.0, t_end=10.0, dt=0.01,
                             dx=1.0, d=0.0, record_every=1000)
        for iy in range(2):
            for ix in range(4):
                ode = integrate_sis(0.4, 5.0, 1.0, 1.0, starts[iy, ix], 10.0, 10.0)
                cells = np.array([snap[iy, ix] for snap in traj.active])
                assert np.max(np.abs(cells - ode.y)) < 1e-6

    def test_uniform_fields_stay_uniform(self):
        fields = (np.full((9, 12), 0.3), np.full((9, 12), 0.7))
        traj = integrate_pde(fields, 0.5, 5.0, t_end=4.0, dt=0.25, dx=2.0, d=1.0,
                             record_every=4)
        for snap in traj.active:
            assert np.ptp(snap) < 1e-12

    def test_mass_conserved_without_reactions(self):
        gen = np.random.default_rng(3)
        active = gen.uniform(0.1, 1.0, (10, 20))
        passive = gen.uniform(0.1, 1.0, (10, 20))
        traj = integrate_pde((active, passive), 0.0, math.inf, t_end=20.0, dt=1.0,
                             dx=2.0, d=1.0, record_every=1)
        for snaps, start in ((traj.active, active), (traj.passive, passive)):
            totals = np.array([s.sum() for s in snaps])
            assert np.max(np.abs(np.diff(totals))) < 1e-8
            assert totals[-1] == pytest.approx(start.sum(), abs=1e-8)

    def test_fields_stay_nonnegative(self):
        traj = integrate_pde(seeded_fields(), 0.4, 5.0, t_end=30.0, dt=0.25, dx=DX, d=D,
                             record_every=8)
        assert all(snap.min() >= 0.0 for snap in traj.active)
        assert all(snap.min() >= 0.0 for snap in traj.passive)

    @pytest.mark.parametrize("t_end, dt", [(1.0, math.inf), (1.0, math.nan),
                                           (math.inf, 0.25), (math.nan, 0.25)])
    def test_non_finite_time_grid_rejected(self, t_end, dt):
        # d = 0: no stability bound to catch dt = inf
        with pytest.raises(ValueError, match="finite"):
            integrate_pde(seeded_fields(), 0.4, 5.0, t_end=t_end, dt=dt, dx=DX, d=0.0)

    def test_step_count_overflow_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            integrate_pde(seeded_fields(), 0.4, 5.0, t_end=1e300, dt=1e-300, dx=DX, d=0.0)

    @pytest.mark.parametrize("tau_star", [0.0, -5.0, math.nan])
    def test_nonpositive_tau_star_rejected(self, tau_star):
        with pytest.raises(ValueError, match="tau_star"):
            integrate_pde(seeded_fields(), 0.4, tau_star, t_end=1.0, dt=0.25, dx=DX, d=D)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, bad):
        alpha = np.full((8, 30), 0.4)
        alpha[3, 7] = bad
        with pytest.raises(ValueError, match="alpha_field must be finite"):
            integrate_pde(seeded_fields(), alpha, 5.0, t_end=1.0, dt=0.25, dx=DX, d=D)
        with pytest.raises(ValueError, match="alpha_field must be finite"):
            integrate_pde(seeded_fields(), bad, 5.0, t_end=1.0, dt=0.25, dx=DX, d=D)

    @pytest.mark.parametrize("shape", [(2, 8, 30), (9, 30), (8, 29), (8,)])
    def test_alpha_field_must_fit_the_grid(self, shape):
        # a (2, ny, nx) alpha used to grow the fields to that shape
        with pytest.raises(ValueError, match="does not fit the grid"):
            integrate_pde(seeded_fields(), np.full(shape, 0.4), 5.0, t_end=1.0, dt=0.25,
                          dx=DX, d=D)

    @pytest.mark.parametrize("shape", [(), (1, 30), (30,), (8, 1)])
    def test_broadcasting_alpha_matches_the_full_field(self, shape):
        full = integrate_pde(seeded_fields(), np.full((8, 30), 0.4), 5.0, 2.0, 0.25, DX, D)
        traj = integrate_pde(seeded_fields(), np.full(shape, 0.4), 5.0, 2.0, 0.25, DX, D)
        for a, b in zip(traj.active + traj.passive, full.active + full.passive):
            assert a.tobytes() == b.tobytes()

    def test_record_every_below_one_rejected(self):
        with pytest.raises(ValueError, match="record_every"):
            integrate_pde(seeded_fields(), 0.4, 5.0, t_end=1.0, dt=0.25, dx=DX, d=D,
                          record_every=0)

    @pytest.mark.parametrize("record_every", [2.5, math.nan])
    def test_non_integer_record_every_rejected(self, record_every):
        # 2.5 used to record every 5 steps, NaN only the first and last
        with pytest.raises(ValueError, match="record_every must be an integer >= 1"):
            integrate_pde(seeded_fields(), 0.4, 5.0, t_end=1.0, dt=0.25, dx=DX, d=D,
                          record_every=record_every)

    def test_numpy_integer_record_every_accepted(self):
        traj = integrate_pde(seeded_fields(), 0.4, 5.0, t_end=3.0, dt=0.25, dx=DX, d=D,
                             record_every=np.int64(4))
        assert traj.times.tolist() == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("dx, d", [(math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_grid_must_be_finite(self, dx, d):
        with pytest.raises(ValueError, match="finite"):
            integrate_pde(seeded_fields(), 0.4, 5.0, t_end=1.0, dt=0.25, dx=dx, d=d)

    @pytest.mark.parametrize("dx, d", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5)])
    def test_grid_spacing_positive_and_diffusivity_non_negative(self, dx, d):
        with pytest.raises(ValueError, match="dx must be > 0 and d >= 0"):
            integrate_pde(seeded_fields(), 0.4, 5.0, t_end=1.0, dt=0.25, dx=dx, d=d)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    @pytest.mark.parametrize("field", ["field_active", "field_passive"])
    def test_initial_fields_must_be_finite_and_non_negative(self, field, bad):
        # one NaN cell used to spread over the whole grid within four steps
        fields = {"field_active": np.full((2, 5), 0.2), "field_passive": np.full((2, 5), 0.8)}
        fields[field][1, 3] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            integrate_pde((fields["field_active"], fields["field_passive"]), 0.4, 5.0,
                          t_end=1.0, dt=0.25, dx=1.0, d=0.1)

    @pytest.mark.parametrize("passive_shape", [(2, 6), (3, 5), (10,), (1, 2, 5)])
    def test_fields_must_be_2d_of_one_shape(self, passive_shape):
        active, passive = np.full((2, 5), 0.2), np.full(passive_shape, 0.8)
        with pytest.raises(ValueError, match="2-D arrays of one shape"):
            integrate_pde((active, passive), 0.4, 5.0, t_end=1.0, dt=0.25, dx=1.0, d=0.1)
        with pytest.raises(ValueError, match="2-D arrays of one shape"):
            integrate_pde((np.full(10, 0.2), np.full(10, 0.8)), 0.4, 5.0, 1.0, 0.25, 1.0, 0.1)

    @pytest.mark.parametrize("d", [1.0, 0.0])
    def test_dx_with_overflowing_square_rejected(self, d):
        # dx ** 2 used to raise OverflowError, which names no argument
        with pytest.raises(ValueError, match=r"dx = 1e\+200 is too large"):
            integrate_pde(seeded_fields(), 0.4, 5.0, t_end=1.0, dt=0.25, dx=1e200, d=d)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    def test_dx_too_small_for_the_field_bound_rejected(self, scale):
        # a pad cell between rows 1 and 2 used to overflow in the division
        # by dx^2 (a RuntimeWarning) although no interior cell did; fields
        # 1 000 times smaller fit the bound and run
        active = np.ones((4, 4))
        active[1, 2:] = (0.2, 0.0)
        dx, d = math.sqrt(1 / 7e307), 1e-300
        dt = dx * dx / (4 * d)
        args = ((scale * active, np.zeros((4, 4))), 0.0, math.inf, dt, dt, dx, d)
        if scale == 1.0:
            with pytest.raises(ValueError, match=r"dx = 1\.19\d*e-154 is too small"):
                integrate_pde(*args)
        else:
            assert np.isfinite(integrate_pde(*args).active[-1]).all()

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0)])
    def test_empty_fields_rejected(self, shape):
        # they used to reach the mean of an empty slice (a RuntimeWarning)
        fields = (np.zeros(shape), np.ones(shape))
        message = rf"must not be empty, got shape \({shape[0]}, {shape[1]}\)"
        with pytest.raises(ValueError, match=message):
            integrate_pde(fields, 0.4, 5.0, t_end=1.0, dt=0.25, dx=1.0, d=0.1)

    def test_zero_diffusion_ignores_dx(self):
        # d * lap is zero at d = 0, also where dx * dx underflows
        starts = np.array([[0.1, 0.2, 0.3], [0.05, 0.5, 0.9]])
        unit, tiny = (integrate_pde((starts, 1.0 - starts), 0.4, 5.0, 2.0, 0.25, dx, 0.0)
                      for dx in (1.0, 1e-160))
        for a, b in zip(unit.active + unit.passive, tiny.active + tiny.passive):
            assert a.tobytes() == b.tobytes()

    def test_alpha_field_hook_orders_growth(self):
        # a larger contact rate on the right half -> faster local growth
        alpha = np.full((4, 10), 0.25)
        alpha[:, 5:] = 0.5
        fields = (np.full((4, 10), 0.05), np.full((4, 10), 0.95))
        traj = integrate_pde(fields, alpha, 5.0, t_end=30.0, dt=0.1, dx=2.0, d=0.0,
                             record_every=300)
        final = traj.active[-1]
        assert final[:, 5:].mean() > final[:, :5].mean()


def random_rows(nx, ny, seed):
    """(active, passive) whose ny rows repeat one random row each."""
    gen = np.random.default_rng(seed)
    row_a, row_p = gen.uniform(0.0, 0.6, nx), gen.uniform(0.2, 1.0, nx)
    return np.tile(row_a, (ny, 1)), np.tile(row_p, (ny, 1))


def trajectory_bytes(traj):
    return [traj.times.tobytes(), traj.profiles.tobytes()] + [
        f.tobytes() for f in traj.active + traj.passive]


class TestOneRowPath:
    """y-invariant inputs are solved on one row; every record must equal,
    byte for byte, the full-grid solve forced by patching _y_invariant."""

    def both_paths(self, monkeypatch, *args, **kwargs):
        """(one-row path taken?, its trajectory, the forced full-grid one),
        after checking how many rows each path hands the stencil."""
        original, rhs = meanfield._y_invariant, meanfield._pde_rhs
        taken, rows = [], []

        def spy(*arrays):
            taken.append(original(*arrays))
            return taken[-1]

        def counted_rhs(src, *rest):
            rows.append(src.interior.shape[1])
            rhs(src, *rest)

        monkeypatch.setattr(meanfield, "_y_invariant", spy)
        monkeypatch.setattr(meanfield, "_pde_rhs", counted_rhs)
        traj = integrate_pde(*args, **kwargs)
        ny = np.shape(args[0][0])[0]
        assert set(rows) == {1 if taken[0] else ny}
        rows.clear()
        monkeypatch.setattr(meanfield, "_y_invariant", lambda *arrays: False)
        full = integrate_pde(*args, **kwargs)
        assert set(rows) == {ny}
        return taken[0], traj, full

    @pytest.mark.parametrize("ny", [3, 8])
    @pytest.mark.parametrize("keep_fields", [True, False])
    @pytest.mark.parametrize("record_every", [1, 4])
    def test_seeded_front_matches_the_full_grid(self, monkeypatch, ny, keep_fields,
                                                record_every):
        taken, traj, full = self.both_paths(
            monkeypatch, seeded_fields(ny=ny), 0.4, 5.0, 5.0, 0.25, DX, D,
            record_every, keep_fields=keep_fields)
        assert taken
        assert len(traj.active) == (traj.times.size if keep_fields else 0)
        assert trajectory_bytes(traj) == trajectory_bytes(full)
        for f in traj.active + traj.passive:
            assert f.shape == (ny, 30) and f.flags.c_contiguous and f.flags.writeable

    @pytest.mark.parametrize("ny", [3, 8])
    def test_clamped_run_matches_the_full_grid(self, monkeypatch, ny):
        # the inputs of the golden clamp case, which overshoots below zero
        fields = seeded_fields(nx=12, ny=ny, columns=3, level=0.8)
        taken, traj, full = self.both_paths(monkeypatch, fields, 20.0, 5.0, 1.0, 0.25,
                                            2.0, 1.0)
        assert taken
        assert trajectory_bytes(traj) == trajectory_bytes(full)

    @pytest.mark.parametrize("ny", [3, 8])
    @pytest.mark.parametrize("alpha_shape", ["full", "row", "flat"])
    def test_random_rows_and_alpha_match_the_full_grid(self, monkeypatch, ny, alpha_shape):
        ramp = np.linspace(0.1, 0.9, 16)
        alpha = {"full": np.tile(ramp, (ny, 1)), "row": ramp[None, :], "flat": ramp}
        taken, traj, full = self.both_paths(
            monkeypatch, random_rows(16, ny, 11), alpha[alpha_shape], math.inf, 10.0, 0.5,
            2.0, 1.0, record_every=3)
        assert taken
        assert trajectory_bytes(traj) == trajectory_bytes(full)

    @pytest.mark.parametrize("ny", [3, 8])
    @pytest.mark.parametrize("where", ["field", "alpha"])
    def test_negative_zero_row_takes_the_full_grid(self, monkeypatch, ny, where):
        # -0.0 == 0.0, but the rows differ in their bits
        active, passive = seeded_fields(ny=ny)
        alpha = np.full((ny, 30), 0.4)
        alpha[:, 10] = 0.0
        assert active[0, 10] == 0.0
        {"field": active, "alpha": alpha}[where][2, 10] = -0.0
        taken, traj, full = self.both_paths(monkeypatch, (active, passive), alpha, 5.0,
                                            5.0, 0.25, DX, D)
        assert not taken
        assert trajectory_bytes(traj) == trajectory_bytes(full)

    def test_y_invariance_is_bitwise(self):
        row = np.linspace(0.0, 1.0, 6)
        grid = np.tile(row, (4, 1))
        assert meanfield._y_invariant(grid, grid, np.asarray(0.4), row, row[None, :])
        varied = grid.copy()
        varied[3, 0] = -0.0
        assert not meanfield._y_invariant(grid, varied)
        assert not meanfield._y_invariant(grid, np.outer(np.arange(1.0, 5.0), row))


def reference_pde(fields, alpha, tau_star, t_end, dt, dx, d, record_every):
    """integrate_pde's documented arithmetic, written out slowly on whole
    arrays: an np.pad(mode="edge") Laplacian, RK4 in the order of
    integrate_pde's comment, and a per-field clamp. Returns the trajectory
    and how many times a field was clamped."""
    a, p = (np.array(f, dtype=float) for f in fields)
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), a.shape)
    decay = 0.0 if math.isinf(tau_star) else 1.0 / tau_star
    dx2 = dx * dx if d > 0 else 1.0

    def lap(f):
        g = np.pad(f, 1, mode="edge")
        up, down, left, right = g[:-2, 1:-1], g[2:, 1:-1], g[1:-1, :-2], g[1:-1, 2:]
        return ((((up + down) + left) + right) - 4.0 * f) / dx2 * d

    def rhs(u):
        react = (alpha * u[0]) * u[1] - decay * u[0]
        return lap(u[0]) + react, lap(u[1]) - react

    def plus(u, h, k):
        return [f + h * q for f, q in zip(u, k)]

    u, clamps = [a, p], 0
    records = [(0.0, a.mean(axis=0), a.copy(), p.copy())]
    n_steps = max(1, round(t_end / dt))
    for step in range(1, n_steps + 1):
        k1 = rhs(u)
        k2 = rhs(plus(u, 0.5 * dt, k1))
        k3 = rhs(plus(u, 0.5 * dt, k2))
        k4 = rhs(plus(u, dt, k3))
        u = [f + dt / 6.0 * (((q1 + 2.0 * q2) + 2.0 * q3) + q4)
             for f, q1, q2, q3, q4 in zip(u, k1, k2, k3, k4)]
        for i, f in enumerate(u):
            if f.min() < 0:
                u[i], clamps = np.maximum(f, 0.0), clamps + 1
        if step % record_every == 0 or step == n_steps:
            records.append((step * dt, u[0].mean(axis=0), u[0].copy(), u[1].copy()))
    times, profiles, active, passive = zip(*records)
    traj = meanfield.PdeTrajectory(times=np.array(times), active=list(active),
                                   passive=list(passive), dx=dx, profiles=np.array(profiles))
    return traj, clamps


class TestOperationOrder:
    """integrate_pde must equal the slow reference byte for byte, whatever
    buffers it steps: the arithmetic is pinned apart from its layout."""

    @pytest.mark.parametrize("nx", [1, 2, 5])
    @pytest.mark.parametrize("ny", [1, 2, 4])
    @pytest.mark.parametrize("alpha_shape", [(), "row", "column", "grid"])
    @pytest.mark.parametrize("same_rows", [False, True])
    def test_awkward_grids_match_the_reference(self, nx, ny, alpha_shape, same_rows):
        gen = np.random.default_rng(100 * nx + 10 * ny + same_rows)
        fields = random_rows(nx, ny, 5) if same_rows else (
            gen.uniform(0.0, 0.6, (ny, nx)), gen.uniform(0.2, 1.0, (ny, nx)))
        shape = {(): (), "row": (nx,), "column": (ny, 1), "grid": (ny, nx)}[alpha_shape]
        alpha = gen.uniform(0.1, 0.9, shape)
        # dx, d and dt not powers of two, so that reordering a product rounds
        args = (fields, alpha, 5.0, 3.0, 0.3, 1.5, 0.3, 4)
        expected, _ = reference_pde(*args)
        assert trajectory_bytes(integrate_pde(*args)) == trajectory_bytes(expected)

    @pytest.mark.parametrize("case", ["no-diffusion", "tau-inf", "clamp-rows", "clamp-grid"])
    def test_edge_cases_match_the_reference(self, case):
        gen = np.random.default_rng(7)
        random_grid = (gen.uniform(0.0, 0.6, (3, 4)), gen.uniform(0.2, 1.0, (3, 4)))
        seeded = seeded_fields(nx=12, ny=5, columns=3, level=0.8)
        bumped = (seeded[0].copy(), seeded[1])
        bumped[0][2, 6] = 0.3
        args = {
            "no-diffusion": (random_grid, 0.4, 5.0, 2.0, 0.25, 1e-160, 0.0, 3),
            "tau-inf": (random_grid, 0.3, math.inf, 4.0, 0.5, 1.5, 0.7, 3),
            "clamp-rows": (seeded, 20.0, 5.0, 1.0, 0.25, 2.0, 1.0, 1),
            "clamp-grid": (bumped, 20.0, 5.0, 1.0, 0.25, 2.0, 1.0, 1),
        }[case]
        expected, clamps = reference_pde(*args)
        assert clamps >= (2 if case.startswith("clamp") else 0)
        assert trajectory_bytes(integrate_pde(*args)) == trajectory_bytes(expected)


class TestRunPde:
    CONFIG = """\
[environment]
c0 = 150.0

[sensor]
c_star = 154.5
tau_star = 5
r_star = 40.0

[network]
n = 400
width = 1000.0
height = 1000.0

[pde]
nx = 40
ny = 4
dx = 10.0
t_end = 6.0
dt = 0.0625
diffusivity = 320.0
alpha = 0.4
level = 0.25
seed_columns = 3
seed_level = 0.5
"""

    def test_seeded_front_with_one_snapshot_per_time_unit(self):
        traj, level = meanfield.run_pde(parse_config(self.CONFIG))
        assert level == 0.25
        assert traj.times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert traj.active == [] and traj.passive == []
        start = traj.profiles[0]
        assert start.shape == (40,)
        assert np.all(start[:3] == 0.5) and np.all(start[3:] == 0.0)

    def test_matches_integrate_pde_on_the_same_grid(self):
        cfg = parse_config(self.CONFIG + "record_every = 32\n")
        traj, _ = meanfield.run_pde(cfg)
        fields = seeded_fields(nx=40, ny=4, columns=3, level=0.5)
        direct = integrate_pde(fields, 0.4, 5, t_end=6.0, dt=0.0625, dx=10.0, d=320.0,
                               record_every=32)
        assert traj.times.tolist() == direct.times.tolist() == [0.0, 2.0, 4.0, 6.0]
        assert traj.profiles.tobytes() == direct.profiles.tobytes()
        expected = np.array([snap.mean(axis=0) for snap in direct.active])
        assert direct.profiles.tobytes() == expected.tobytes()
        assert front_positions(traj, 0.25).tobytes() == front_positions(direct, 0.25).tobytes()


def front_trajectory(snaps, dx):
    """A trajectory at times 0, 1, ... whose profiles are the y-means of
    hand-made fields."""
    profiles = np.array([f.mean(axis=0) for f in snaps])
    return meanfield.PdeTrajectory(times=np.arange(float(len(snaps))), active=[],
                                   passive=[], dx=dx, profiles=profiles)


class TestFrontTracking:
    def test_stationary_front_speed_zero(self):
        snaps = [seeded_fields()[0] for _ in range(8)]
        traj = front_trajectory(snaps, dx=5.0)
        assert front_speed(traj, 0.25) == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_front_two_cells_per_step(self):
        nx, ny, dx = 60, 4, 3.0
        snaps = []
        for k in range(10):
            f = np.zeros((ny, nx))
            f[:, : 5 + 2 * k] = 1.0
            snaps.append(f)
        traj = front_trajectory(snaps, dx=dx)
        assert front_speed(traj, 0.5) == pytest.approx(2.0 * dx, rel=1e-12)

    def test_positions_nan_before_crossing(self):
        f0 = np.zeros((2, 10))
        f1 = np.zeros((2, 10))
        f1[:, :4] = 1.0
        traj = front_trajectory([f0, f1], dx=1.0)
        pos = front_positions(traj, 0.5)
        assert np.isnan(pos[0]) and not np.isnan(pos[1])

    def test_no_front_error_when_level_unreached(self):
        snaps = [np.zeros((2, 12)) for _ in range(8)]
        traj = front_trajectory(snaps, dx=1.0)
        with pytest.raises(ValueError, match="no front"):
            front_speed(traj, 0.5)

    def test_retreating_front_rejected(self):
        snaps = []
        for k in range(8):
            f = np.zeros((2, 40))
            f[:, : 20 - 2 * k] = 1.0
            snaps.append(f)
        traj = front_trajectory(snaps, dx=1.0)
        with pytest.raises(ValueError, match="monotone"):
            front_speed(traj, 0.5)


class TestSynchronization:
    def test_no_wind_always_synchronized(self):
        assert synchronization_check(1e-9, 5.0, 40.0, 0.0)

    def test_reference_cases(self):
        # threshold v*^2 tau / r*^2: 0.2^2*5/1600 = 1.25e-4; 1^2*5/1600 = 3.125e-3
        assert synchronization_check(2.34e-4, 5.0, 40.0, 0.2)
        assert not synchronization_check(2.34e-4, 5.0, 40.0, 1.0)
