"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion NN: PASS/FAIL (...)` line with the
measured numbers before asserting, so a red criterion still reports what
was actually observed. Run with `pytest tests/test_acceptance.py -v -s`.

The expensive agent-based ensembles (criteria 4-7) are computed once in
module-scoped fixtures and shared.
"""

import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from dscsim import analysis, meanfield, netsim, rng, sensor
from dscsim.environment import ConcentrationModel, time_series
from dscsim.netsim import NetworkConfig, neighbor_csr, run
from dscsim.sensor import SensorSpec

C0 = 150.0
REFERENCE = ConcentrationModel(c0=C0, gamma=26.0 / 3.0, omega=0.98)
AREA = 1000.0 * 1000.0
N = 400
TAU = 5
SEEDS = 50
STEPS = 500
INITIAL = 10
SATURATION_RANGE = 65.0


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)


def base_config(seed: int = 0) -> NetworkConfig:
    return NetworkConfig(
        n=N, width=1000.0, height=1000.0, initial_active=INITIAL, seed=seed
    )


def ensemble_plateau(spec: SensorSpec, n_seeds: int = SEEDS, steps: int = STEPS) -> float:
    """Mean over seeds of the per-run tail-mean active fraction (identical
    to the tail mean of the ensemble-mean trajectory)."""
    members = [(base_config(seed=k), spec, REFERENCE, steps) for k in range(n_seeds)]
    plateaus = [analysis.extract_plateau(traj, 0.25)[0]
                for traj in netsim.run_members(members, jobs=1)]
    return float(np.mean(plateaus))


def spec_for(r_star: float, ratio: float = 1.03) -> SensorSpec:
    return SensorSpec(c_star=ratio * C0, tau_star=TAU, r_star=r_star)


@pytest.fixture(scope="module")
def range_sweep():
    """Criterion 4 ensembles: plateau per communication range, plus wall time."""
    start = time.perf_counter()
    plateaus = {r: ensemble_plateau(spec_for(r)) for r in (20.0, 27.0, 30.0, 40.0)}
    return plateaus, time.perf_counter() - start


@pytest.fixture(scope="module")
def percolating_range():
    """Criterion 4 saturation ensemble at r* = 65 m, where the communication
    graph percolates (mean degree ~5.3 > ~4.5). Kept out of `range_sweep`,
    whose points criterion 6 calibrates against; returns (plateau, seconds)."""
    start = time.perf_counter()
    plateau = ensemble_plateau(spec_for(SATURATION_RANGE))
    return plateau, time.perf_counter() - start


@pytest.fixture(scope="module")
def threshold_sweep():
    """Criterion 5 ensembles: plateau per threshold ratio at r* = 40 m."""
    return {ratio: ensemble_plateau(spec_for(40.0, ratio)) for ratio in (1.00, 1.02, 1.05)}


@pytest.fixture(scope="module")
def scaling_sweep():
    """Criterion 7 ensembles: supercritical threshold sweep at r* = 65 m,
    where the network percolates and the steady-state back-out of the
    contact rate is meaningful."""
    out = []
    for ratio in (1.0, 1.1, 1.2, 1.3, 1.4):
        spec = spec_for(65.0, ratio)
        out.append((sensor.detection_probability(spec, REFERENCE), ensemble_plateau(spec)))
    return out


def test_criterion_01_environment_law():
    start = time.perf_counter()
    series = time_series(REFERENCE, 10**6, rng.sensor_stream(42, 0))
    ks = analysis.ks_distance(series, REFERENCE)
    zero_frac = float(np.mean(series == 0.0))
    mean = float(series.mean())
    elapsed = time.perf_counter() - start
    ok = (
        ks < 0.005
        and abs(zero_frac - 0.02) <= 0.002
        and abs(mean - C0) <= 0.01 * C0
        and elapsed < 5.0
    )
    report(1, ok, f"KS={ks:.5f}, zeros={zero_frac:.5f}, mean={mean:.2f}, {elapsed:.2f}s")
    assert ks < 0.005
    assert abs(zero_frac - 0.02) <= 0.002
    assert abs(mean - C0) <= 0.01 * C0
    assert elapsed < 5.0


def _rk4(f, y0, times, substeps=8):
    out = np.empty(times.size)
    out[0] = y = y0
    for k in range(times.size - 1):
        h = (times[k + 1] - times[k]) / substeps
        for _ in range(substeps):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = y
    return out


def test_criterion_02_logistic_closed_form_vs_rk4():
    start = time.perf_counter()
    times = np.linspace(0.0, 20.0, 201)
    worst = 0.0
    for z0 in (0.01, 0.1, 0.5):
        for b in (-0.5, 0.0, 0.2, 1.0):
            closed = meanfield.logistic_solution(z0, b, times)
            numeric = _rk4(lambda z, b=b: b * z * (1.0 - z), z0, times)
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 1.0
    report(2, ok, f"max abs error={worst:.2e} over 12 (z0, b) pairs, {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 1.0


def test_criterion_03_equal_r0_collapse():
    tau1, n1, tau2, n2 = 5.0, 400.0, 20.0, 500.0
    a1 = 2.0 / (tau1 * n1)
    a2 = 2.0 / (tau2 * n2)
    z0 = 0.025
    t1 = meanfield.integrate_sis(a1, tau1, n1, 1.0, z0 * n1, t_end=12 * tau1, dt=0.05 * tau1)
    t2 = meanfield.integrate_sis(a2, tau2, n2, 1.0, z0 * n2, t_end=12 * tau2, dt=0.05 * tau2)
    gap = float(np.max(np.abs(t1.y / n1 - t2.y / n2)))
    ok = gap < 1e-6
    report(3, ok, f"R0=2 trajectories differ by {gap:.2e} in n+(t/tau*)")
    assert gap < 1e-6


def test_criterion_04_epidemic_dichotomy(range_sweep, percolating_range):
    """Die-off where the model is subcritical, saturation where it is
    supercritical. The saturation point is r* = 65 m: at r* = 40 m the
    theory has R0 < 1 and the graph is below the ~4.5 percolation degree
    of a 2-D random geometric graph, so no plateau above 0.3 is expected."""
    plateaus, sweep_elapsed = range_sweep
    saturated, saturation_elapsed = percolating_range
    values = [plateaus[r] for r in (20.0, 27.0, 30.0, 40.0)] + [saturated]
    elapsed = sweep_elapsed + saturation_elapsed
    p = sensor.detection_probability(spec_for(SATURATION_RANGE), REFERENCE)
    r0_low = meanfield.r0(p, N, 20.0, AREA)
    r0_high = meanfield.r0(p, N, SATURATION_RANGE, AREA)
    degree_high = N * np.pi * SATURATION_RANGE**2 / AREA
    die_off = plateaus[20.0] < 0.05
    saturates = saturated > 0.3
    ordered = all(a <= b for a, b in zip(values, values[1:]))
    in_time = elapsed < 60.0
    ok = die_off and saturates and ordered and in_time
    detail = (
        "plateaus r*=20/27/30/40/65: "
        + "/".join(f"{v:.4f}" for v in values)
        + f"; R0(20)={r0_low:.3f}, R0(65)={r0_high:.3f}, degree(65)={degree_high:.2f}"
        + f"; die-off {die_off}, >0.3 at r*=65 {saturates}, ordered {ordered}, {elapsed:.1f}s"
    )
    report(4, ok, detail)
    assert r0_low < 1.0, f"R0 at r*=20 is {r0_low:.3f}; die-off premise needs < 1"
    assert r0_high > 1.0, f"R0 at r*=65 is {r0_high:.3f}; saturation premise needs > 1"
    assert degree_high > 4.5, (
        f"mean degree at r*=65 is {degree_high:.2f}; saturation premise needs a "
        f"percolating graph (> ~4.5)"
    )
    assert die_off, f"plateau at r*=20 is {plateaus[20.0]:.4f}, expected < 0.05"
    assert ordered, f"plateaus not nondecreasing in r*: {values}"
    assert in_time, f"sweep took {elapsed:.1f}s, expected < 60s"
    assert saturates, f"plateau at r*=65 is {saturated:.4f}, expected > 0.3"


def test_criterion_05_threshold_ordering(threshold_sweep):
    values = [threshold_sweep[r] for r in (1.00, 1.02, 1.05)]
    ok = all(a >= b for a, b in zip(values, values[1:]))
    report(5, ok, "plateaus C*/C0=1.00/1.02/1.05: " + "/".join(f"{v:.4f}" for v in values))
    assert ok, f"plateaus not nonincreasing in C*/C0: {values}"


def test_criterion_06_calibration(range_sweep, threshold_sweep):
    plateaus_by_spec = [
        (spec_for(r), plateau) for r, plateau in range_sweep[0].items()
    ] + [
        (spec_for(40.0, ratio), plateau) for ratio, plateau in threshold_sweep.items()
    ]
    pairs = []
    points = []
    for spec, plateau in plateaus_by_spec:
        if not INITIAL / N < plateau < 1.0:
            continue  # subcritical: no steady state to calibrate against
        p = sensor.detection_probability(spec, REFERENCE)
        alpha_s = analysis.alpha_from_sim(plateau, TAU, N)
        alpha_t = meanfield.alpha_theory(spec, AREA, p, 1.0)
        pairs.append((alpha_s, alpha_t))
        points.append((spec, plateau, p))
    g = analysis.calibrate_g(pairs)
    in_bracket = 0.4 <= g <= 1.0
    worst_gap = 0.0
    for spec, plateau, p in points:
        r0_cal = meanfield.r0(p, N, spec.r_star, AREA, g)
        theory = 1.0 - 1.0 / r0_cal if r0_cal > 1.0 else 0.0
        worst_gap = max(worst_gap, abs(theory - plateau))
    agrees = worst_gap <= 0.15
    ok = in_bracket and agrees
    report(
        6,
        ok,
        f"g={g:.3f} over {len(pairs)} supercritical points, bracket [0.4,1.0] "
        f"{in_bracket}; worst |theory-sim| plateau gap {worst_gap:.3f} (<=0.15 {agrees})",
    )
    assert agrees, f"calibrated theory deviates from simulation by {worst_gap:.3f} > 0.15"
    assert in_bracket, (
        f"g = {g:.3f} outside [0.4, 1.0]; with the consistent concentration law "
        f"p = 0.3325, every supercritical point has alpha_s >= 1/(tau* N) = "
        f"{1.0 / (TAU * N):.2e} while alpha_theory(g=1) <= "
        f"{meanfield.alpha_theory(spec_for(40.0, 1.00), AREA, 0.3425, 1.0):.2e}, "
        f"so any origin-constrained slope exceeds 1.4"
    )


def test_criterion_07_scaling_exponent(scaling_sweep):
    xs, ys = [], []
    for p, plateau in scaling_sweep:
        if INITIAL / N < plateau < 1.0:
            xs.append(p)
            ys.append(analysis.alpha_from_sim(plateau, TAU, N))
    fit = analysis.fit_power_law(xs, ys)
    ok = 0.8 <= fit.exponent <= 1.6
    report(
        7,
        ok,
        f"q={fit.exponent:.3f} (r^2={fit.r_squared:.3f}) over {len(xs)} "
        f"supercritical points at r*=65 m",
    )
    assert ok, f"q = {fit.exponent:.3f} outside [0.8, 1.6]"


def test_criterion_08_meanfield_report_numbers():
    r0_value = meanfield.r0(p=0.5, n=400, r_star=40.0, s=1e6, g=1.0)
    n_star = meanfield.info_gain_conditions(
        theta=0.5, delta=0.01, p=0.5, tau_star=TAU, n=400,
        t_detect=100.0, s=1e6, r_star=40.0,
    ).n_star
    c_opt = sensor.optimal_threshold(REFERENCE)
    p_at_opt = sensor.detection_probability(
        SensorSpec(c_star=c_opt, tau_star=TAU, r_star=40.0), REFERENCE
    )
    ok = (
        abs(r0_value - 1.00531) <= 1e-5
        and n_star == 796
        and abs(p_at_opt - 0.5) <= 1e-9
    )
    report(8, ok, f"R0={r0_value:.7f}, N*={n_star}, p(c_opt)={p_at_opt:.12f}")
    assert abs(r0_value - 1.00531) <= 1e-5
    assert n_star == 796
    assert abs(p_at_opt - 0.5) <= 1e-9


def test_criterion_09_pde_front():
    start = time.perf_counter()
    # growth b = alpha * 1 - 1/tau = 0.2 per step at unit cell density
    b, d = 0.2, 320.0
    alpha = b + 1.0 / TAU
    ny, nx, dx = 100, 400, 10.0
    active = np.zeros((ny, nx))
    active[:, :5] = 0.5
    traj = meanfield.integrate_pde((active, 1.0 - active), alpha, TAU, t_end=150.0,
                                   dt=0.0625, dx=dx, d=d, record_every=16, keep_fields=False)
    capacity = b / alpha
    speed = meanfield.front_speed(traj, capacity / 2.0)
    lo, hi = np.sqrt(b * d), 4.0 * np.sqrt(b * d)

    # degenerate d = 0 check against the well-mixed integrator
    starts = np.array([[0.1, 0.3], [0.6, 0.05]])
    degenerate = meanfield.integrate_pde((starts, 1.0 - starts), alpha, TAU, t_end=10.0,
                                         dt=0.01, dx=1.0, d=0.0, record_every=100)
    worst = 0.0
    for iy in range(2):
        for ix in range(2):
            ode = meanfield.integrate_sis(alpha, TAU, 1.0, 1.0, starts[iy, ix], 10.0, 1.0)
            cells = np.array([s[iy, ix] for s in degenerate.active])
            worst = max(worst, float(np.max(np.abs(cells - ode.y))))
    elapsed = time.perf_counter() - start
    ok = lo <= speed <= hi and worst < 1e-6 and elapsed < 30.0
    report(
        9,
        ok,
        f"front speed {speed:.2f} m/step in [{lo:.0f}, {hi:.0f}]; "
        f"d=0 vs ODE max err {worst:.2e}; {elapsed:.1f}s",
    )
    assert lo <= speed <= hi
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_10_conservation_determinism_neighbors():
    # conservation under failures, rotation and standby sensors
    cfg = NetworkConfig(
        n=200, width=800.0, height=800.0, delta=0.1, rotation_period=25,
        initial_active=10, failure_rate=0.005, seed=7,
    )
    spec = spec_for(40.0)
    records = run(cfg, spec, REFERENCE, 300)
    conserved = all(r.n_active + r.n_passive + r.n_faulty == cfg.n for r in records)

    # byte-level determinism of repeated invocations
    again = run(cfg, spec, REFERENCE, 300)
    identical = records == again

    # neighbor search equals the brute-force oracle on 100 random layouts
    oracle_ok = True
    gen = np.random.default_rng(123)
    for _ in range(100):
        n = int(gen.integers(2, 150))
        pos = gen.random((n, 2)) * [gen.uniform(50, 1000), gen.uniform(50, 1000)]
        radius = float(gen.uniform(5.0, 150.0))
        i = int(gen.integers(n))
        d2 = ((pos - pos[i]) ** 2).sum(axis=1)
        brute = np.flatnonzero((d2 <= radius * radius) & (np.arange(n) != i))
        indptr, indices = neighbor_csr(pos, radius)
        if not np.array_equal(indices[indptr[i]:indptr[i + 1]], brute):
            oracle_ok = False
            break
    ok = conserved and identical and oracle_ok
    report(
        10,
        ok,
        f"conservation {conserved}, identical reruns {identical}, "
        f"neighbor oracle 100/100 {oracle_ok}",
    )
    assert conserved
    assert identical
    assert oracle_ok
