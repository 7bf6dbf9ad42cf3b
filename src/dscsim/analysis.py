"""Bridges between simulation output and mean-field theory.

Plateau extraction from trajectories, back-out of the empirical contact
rate, calibration of the order-unity factor g, power-law fitting of
scaling relations, a goodness-of-fit check for the environment sampler,
and the sweep -> analyze experiment that ties them together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import environment, meanfield, netsim, sensor
from .config import ExperimentConfig, apply_override, sweep_points
from .environment import ConcentrationModel

# Columns of sweep.csv after "point" and the sweep axes.
SWEEP_COLUMNS = (
    "seed", "plateau_mean", "plateau_std", "p", "alpha_theory_g1", "n", "tau_star", "initial_active",
)


@dataclass(frozen=True)
class FitResult:
    """Log-log power-law fit y ~ exp(intercept) * x**exponent."""

    exponent: float
    intercept: float
    r_squared: float


def extract_plateau(
    trajectory, tail_fraction: float = 0.25, check_stationary: bool = True
) -> tuple[float, float]:
    """Mean and std of the trajectory over its final tail_fraction.

    With check_stationary (the default) a tail whose linear trend exceeds
    twice its standard deviation is rejected as not yet saturated. Batch
    consumers that record raw tail statistics for every run, including
    dying ones, pass check_stationary=False.
    """
    y = np.asarray(trajectory, dtype=float)
    if y.size < 10:
        raise ValueError(f"trajectory too short: {y.size} < 10 points")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    k = max(1, int(np.ceil(y.size * tail_fraction)))
    tail = y[-k:]
    mean = float(tail.mean())
    std = float(tail.std())
    if check_stationary and k >= 3:
        slope = np.polyfit(np.arange(k), tail, 1)[0]
        trend = abs(slope) * (k - 1)
        roundoff = 1e-9 * (1.0 + abs(mean))  # polyfit noise on constant tails
        if trend > 2.0 * std + roundoff:
            raise ValueError(
                f"tail not stationary: linear trend {trend:.3g} exceeds 2 x std {std:.3g}"
            )
    return mean, std


def alpha_from_sim(plateau_active_fraction: float, tau_star: float, n: int) -> float:
    """Contact rate implied by a saturated active fraction.

    Inverts theta = 1 / (alpha tau_star n) at theta = 1 - plateau:
    alpha_s = 1 / (tau_star * n * (1 - plateau)). Only meaningful for a
    genuinely supercritical plateau in (0, 1).
    """
    if not 0.0 < plateau_active_fraction < 1.0:
        raise ValueError(
            f"plateau must be in (0, 1), got {plateau_active_fraction}"
        )
    return 1.0 / (tau_star * n * (1.0 - plateau_active_fraction))


def calibrate_g(pairs) -> float:
    """Least-squares slope through the origin of alpha_sim vs alpha_theory(g=1).

    pairs: iterable of (alpha_sim, alpha_theory_at_g1), all positive.
    """
    arr = np.asarray(list(pairs), dtype=float)
    if arr.size == 0:
        raise ValueError("calibrate_g needs at least one pair")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be (alpha_sim, alpha_theory) tuples")
    if np.any(arr <= 0):
        raise ValueError("all rates must be positive")
    sim, theory = arr[:, 0], arr[:, 1]
    return float(np.dot(sim, theory) / np.dot(theory, theory))


def fit_power_law(xs, ys) -> FitResult:
    """Ordinary least squares on (log x, log y)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 3 or y.size != x.size:
        raise ValueError("need at least 3 matching (x, y) points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit requires positive data")
    lx, ly = np.log(x), np.log(y)
    design = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return FitResult(exponent=float(slope), intercept=float(intercept), r_squared=r2)


def ks_distance(samples, model: ConcentrationModel) -> float:
    """Kolmogorov-Smirnov distance between samples and the analytic cdf.

    Handles the atom at zero by the right-continuous convention: the
    analytic cdf jumps to 1 - omega at c = 0, and its left limit there
    is 0.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    m = xs.size
    if m == 0:
        raise ValueError("need at least one sample")
    f_right = np.asarray(environment.cdf(model, xs))
    f_left = np.where(xs == 0.0, 0.0, f_right)
    grid = np.arange(1, m + 1) / m
    d_plus = float(np.max(grid - f_right))
    d_minus = float(np.max(f_left - (grid - 1.0 / m)))
    return max(d_plus, d_minus, 0.0)


def sweep(config: ExperimentConfig, jobs: int = 1) -> list[list]:
    """Rows of sweep.csv: [point, *axis values, *SWEEP_COLUMNS].

    Every grid point runs run.n_seeds members at seeds network.seed + k
    through netsim.run_members; each row holds one member's raw tail
    statistics (dying runs included) and the point's p and alpha at g = 1.
    Rows come in grid order, then seed order, whatever jobs is.
    """
    n_seeds, base_seed = config.run.n_seeds, config.network.seed
    points = sweep_points(config)
    configs = []
    for point in points:
        cfg = config
        for path, value in point.items():
            cfg = apply_override(cfg, path, value)
        configs.append(cfg)
    members = [
        (replace(cfg.network, seed=base_seed + k), cfg.sensor, cfg.environment, cfg.run.steps)
        for cfg in configs
        for k in range(n_seeds)
    ]
    trajectories = iter(netsim.run_members(members, jobs))
    rows = []
    for index, (point, cfg) in enumerate(zip(points, configs)):
        spec, net = cfg.sensor, cfg.network
        p = sensor.detection_probability(spec, cfg.environment)
        alpha_g1 = meanfield.alpha_theory(spec, net.area, p, 1.0)
        for k in range(n_seeds):
            mean, std = extract_plateau(
                next(trajectories), cfg.run.tail_fraction, check_stationary=False
            )
            rows.append([index, *point.values(), base_seed + k, mean, std, p, alpha_g1,
                         net.n, spec.tau_star, net.initial_active])
    return rows


def analyze_sweep(rows) -> dict:
    """The analysis.json payload for sweep.csv records (column -> cell, as
    csv.DictReader reads them; params keep the cells as given).

    Per point: the ensemble plateau and its scatter, and alpha_s where the
    plateau lies above the initial active fraction. Then g calibrated on
    those points, each point's calibrated R0 and plateau, and the power-law
    fit of alpha_s against p once three distinct p are supercritical.
    """
    if not rows:
        raise ValueError("no sweep rows")
    missing = [c for c in ("point", *SWEEP_COLUMNS) if c not in rows[0]]
    if missing:
        raise ValueError(f"sweep rows lack the columns {', '.join(missing)}")
    fixed = {"point", *SWEEP_COLUMNS}
    axes = [c for c in rows[0] if c not in fixed]
    grouped: dict[int, list] = {}
    for row in rows:
        grouped.setdefault(int(row["point"]), []).append(row)

    per_point, sizes, pairs, power_xs = [], [], [], []
    for point_idx, members in sorted(grouped.items()):
        first = members[0]
        plateaus = [float(r["plateau_mean"]) for r in members]
        plateau_sim = float(np.mean(plateaus))
        p = float(first["p"])
        alpha_g1 = float(first["alpha_theory_g1"])
        n = int(first["n"])
        tau_star = float(first["tau_star"])
        supercritical = int(first["initial_active"]) / n < plateau_sim < 1.0
        alpha_s = alpha_from_sim(plateau_sim, tau_star, n) if supercritical else None
        if supercritical:
            pairs.append((alpha_s, alpha_g1))
            power_xs.append(p)
        per_point.append(
            {
                "point": point_idx,
                "params": {a: first[a] for a in axes},
                "p": p,
                "plateau_sim": plateau_sim,
                "plateau_scatter": float(np.std(plateaus)),
                "alpha_s": alpha_s,
                "alpha_theory_g1": alpha_g1,
                "supercritical": supercritical,
            }
        )
        sizes.append((tau_star, n))

    g = calibrate_g(pairs) if pairs else None
    if g is not None:
        for entry, (tau_star, n) in zip(per_point, sizes):
            r0_cal = g * entry["alpha_theory_g1"] * tau_star * n
            entry["r0"] = r0_cal
            entry["plateau_theory"] = 1.0 - 1.0 / r0_cal if r0_cal > 1.0 else 0.0
    fit = None
    if len(set(power_xs)) >= 3:
        result = fit_power_law(power_xs, [alpha_s for alpha_s, _ in pairs])
        fit = {"q": result.exponent, "intercept": result.intercept,
               "r_squared": result.r_squared}
    return {
        "g": g,
        "q": fit["q"] if fit else None,
        "power_law": fit,
        "supercritical_rule": "ensemble plateau above the initial active fraction",
        "sweep_axes": axes,
        "per_point": per_point,
    }
