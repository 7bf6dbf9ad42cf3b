"""Bridges between simulation output and mean-field theory.

Plateau extraction from trajectories, back-out of the empirical contact
rate, calibration of the order-unity factor g, power-law fitting of
scaling relations, a goodness-of-fit check for the environment sampler,
and the sweep -> analyze experiment that ties them together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import environment, meanfield, netsim, sensor
from .checks import check_array, check_real
from .config import ExperimentConfig, sweep_grid
from .environment import ConcentrationModel

# Columns of sweep.csv after "point" and the sweep axes.
SWEEP_COLUMNS = (
    "seed", "plateau_mean", "plateau_std", "p", "alpha_theory_g1", "n", "tau_star", "initial_active",
)
# Fewest trajectory points extract_plateau and sweep accept, kept as a bound on configs.
_MIN_POINTS = 10


@dataclass(frozen=True)
class FitResult:
    """Log-log power-law fit y ~ exp(intercept) * x**exponent."""

    exponent: float
    intercept: float
    r_squared: float


def extract_plateau(trajectory, tail_fraction: float = 0.25) -> tuple[float, float]:
    """Mean and std of the finite trajectory over its final tail_fraction,
    whatever its trend: a dying or still rising run gives its raw tail
    statistics. A std that is not finite (the tail's mean or spread
    overflows) is rejected."""
    size = np.size(trajectory)
    if size < _MIN_POINTS:
        raise ValueError(f"trajectory too short: {size} < {_MIN_POINTS} points")
    y = check_array("trajectory", trajectory)
    check_real("tail_fraction", tail_fraction, gt=0, le=1)
    k = max(1, int(np.ceil(y.size * tail_fraction)))
    tail = y[-k:]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed mean gives an inf or NaN std
        mean = float(tail.mean())
        std = float(tail.std())
    check_real("std of the trajectory's tail", std)
    return mean, std


def alpha_from_sim(plateau_active_fraction: float, tau_star: float, n: int) -> float:
    """Contact rate implied by a saturated active fraction.

    Inverts theta = 1 / (alpha tau_star n) at theta = 1 - plateau:
    alpha_s = 1 / (tau_star * n * (1 - plateau)). Only meaningful for a
    genuinely supercritical plateau in (0, 1).
    """
    check_real("plateau_active_fraction", plateau_active_fraction, gt=0, lt=1)
    check_real("tau_star", tau_star, gt=0)
    check_real("n", n, gt=0)
    scale = tau_star * n * (1.0 - plateau_active_fraction)
    # 1 / scale overflows at and below 2**-1024; an infinite scale is rejected too
    check_real("tau_star * n * (1 - plateau_active_fraction)", scale, gt=2.0 ** -1024)
    return 1.0 / scale


def calibrate_g(pairs) -> float:
    """Least-squares slope through the origin of alpha_sim vs alpha_theory(g=1).

    pairs: iterable of (alpha_sim, alpha_theory_at_g1), all finite and
    positive.
    """
    pairs = list(pairs)
    shape = np.shape(pairs)
    if 0 in shape:
        raise ValueError("calibrate_g needs at least one pair")
    if len(shape) != 2 or shape[1] != 2:
        raise ValueError("pairs must be (alpha_sim, alpha_theory) tuples")
    arr = check_array("pairs", pairs, gt=0)
    sim, theory = arr[:, 0], arr[:, 1]
    with np.errstate(all="ignore"):  # a dot that overflows or underflows is rejected below
        g = float(np.dot(sim, theory) / np.dot(theory, theory))
    return check_real("dot(alpha_sim, alpha_theory) / dot(alpha_theory, alpha_theory)", g, gt=0)


def fit_power_law(xs, ys) -> FitResult:
    """Ordinary least squares on (log x, log y)."""
    shape = np.shape(xs)
    if len(shape) != 1 or shape != np.shape(ys) or shape[0] < 3:
        raise ValueError(f"xs and ys must be 1-D with one length >= 3, got shapes {shape} "
                         f"and {np.shape(ys)}")
    x = check_array("xs", xs, gt=0)
    y = check_array("ys", ys, gt=0)
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
    xs = np.sort(check_array("samples", samples, ge=0))
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
    Rows come in grid order, then seed order, whatever jobs is. A point
    with fewer run.steps than extract_plateau needs, or whose contact rate
    alpha_theory rejects, is rejected before any member runs.
    """
    n_seeds, base_seed = config.run.n_seeds, config.network.seed
    grid = sweep_grid(config)
    theory = []  # (p, alpha at g = 1) per point
    for _, cfg in grid:
        if cfg.run.steps < _MIN_POINTS:
            raise ValueError(f"run.steps must be >= {_MIN_POINTS} to extract a plateau, "
                             f"got {cfg.run.steps}")
        p = sensor.detection_probability(cfg.sensor, cfg.environment)
        theory.append((p, meanfield.alpha_theory(cfg.sensor, cfg.network.area, p, 1.0)))
    members = [
        (replace(cfg.network, seed=base_seed + k), cfg.sensor, cfg.environment, cfg.run.steps)
        for _, cfg in grid
        for k in range(n_seeds)
    ]
    trajectories = iter(netsim.run_members(members, jobs))
    rows = []
    for index, ((point, cfg), (p, alpha_g1)) in enumerate(zip(grid, theory)):
        spec, net = cfg.sensor, cfg.network
        for k in range(n_seeds):
            mean, std = extract_plateau(next(trajectories), cfg.run.tail_fraction)
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

    def number(row, column):
        value = float(row[column])
        if not math.isfinite(value):
            raise ValueError(f"sweep column {column} is {row[column]!r} at point {row['point']}")
        return value

    per_point, sizes, pairs, power_xs = [], [], [], []
    for point_idx, members in sorted(grouped.items()):
        first = members[0]
        plateaus = [number(r, "plateau_mean") for r in members]
        plateau_sim = float(np.mean(plateaus))
        p = number(first, "p")
        alpha_g1 = number(first, "alpha_theory_g1")
        n = int(first["n"])
        tau_star = number(first, "tau_star")
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
            entry["plateau_theory"] = meanfield.steady_state(r0_cal)[0] if r0_cal > 1.0 else 0.0
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
