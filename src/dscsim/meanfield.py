"""Mean-field theory of the collaborating network.

Treats the active/passive populations as a two-compartment contact system

    dN+/dt = alpha * N+ * N-  -  N+ / tau_star,      N- = n - N+

with contact rate alpha = g * pi * r_star**2 * p / (tau_star * s), where p
is the single-reading detection probability, s the region area, and g an
order-unity calibration constant. The closed forms used throughout:

    R0    = alpha * tau_star * n = g * p * n * pi * r_star**2 / s
    b     = (R0 - 1) / tau_star                    (net growth rate)
    z(t)  = z0 / ((1 - z0) * exp(-b t) + z0)       (logistic solution)
    theta = 1 / R0                                 (steady passive fraction)
    tau   = tau_star / (R0 - 1)                    (relaxation-time scale)

R0 > 1 is the activation-epidemic threshold. A density-dependent variant
replaces N+ with N+**nu (nu in [0, 1]) to model message overlap in dense
deployments; it is integrated numerically. The spatial extension adds
diffusion D * laplacian to both compartments, which supports traveling
activation fronts (Fisher-type, speed of order sqrt(b * D)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import environment, sensor
from .config import ExperimentConfig, resolve_pde
from .sensor import SensorSpec


@dataclass(frozen=True)
class MeanFieldParams:
    """Derived mean-field quantities for one network configuration."""

    alpha: float
    g: float
    r0: float
    b: float
    theta: float | None  # None when subcritical (no nonzero steady state)


def alpha_theory(spec: SensorSpec, s: float, p: float, g: float) -> float:
    """Contact rate alpha = g * pi * r_star**2 * p / (tau_star * s)."""
    if not s > 0:
        raise ValueError("area must be > 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if not g > 0:
        raise ValueError("g must be > 0")
    return g * math.pi * spec.r_star ** 2 * p / (spec.tau_star * s)


def r0(p: float, n: int, r_star: float, s: float, g: float = 1.0) -> float:
    """Basic reproductive number R0 = g * p * n * pi * r_star**2 / s.

    The sampling time tau_star cancels: whether an epidemic is possible
    does not depend on how long individual sensors stay awake.
    """
    if not s > 0:
        raise ValueError("area must be > 0")
    return g * p * n * math.pi * r_star ** 2 / s


def derive_params(p: float, n: int, spec: SensorSpec, s: float, g: float) -> MeanFieldParams:
    """Bundle alpha, R0, b and theta for a configuration."""
    a = alpha_theory(spec, s, p, g)
    r = a * spec.tau_star * n
    b = (r - 1.0) / spec.tau_star
    theta = 1.0 / r if r > 1.0 else None
    return MeanFieldParams(alpha=a, g=g, r0=r, b=b, theta=theta)


def logistic_solution(z0: float, b: float, t):
    """Closed-form logistic evolution z(t) = z0 / ((1 - z0) exp(-b t) + z0).

    Solves dz/dt = b z (1 - z) with z(0) = z0 in [0, 1]. b = 0 freezes z;
    b < 0 drives it to 0, b > 0 to 1.
    """
    if not 0.0 <= z0 <= 1.0:
        raise ValueError("z0 must be in [0, 1]")
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):  # exp overflow -> inf denominator -> z = 0
        out = z0 / ((1.0 - z0) * np.exp(-b * t_arr) + z0)
    return out if t_arr.ndim else float(out)


def steady_state(r0_value: float) -> tuple[float, float]:
    """Supercritical steady state: (active_fraction, theta) with theta = 1/R0."""
    if r0_value <= 1.0:
        raise ValueError(
            f"subcritical: R0 = {r0_value} <= 1 has no nonzero steady state"
        )
    theta = 1.0 / r0_value
    return 1.0 - theta, theta


def relaxation_time(r0_value: float, tau_star: float) -> float:
    """Time scale tau_star / (R0 - 1) to reach the supercritical steady state."""
    if r0_value <= 1.0:
        raise ValueError(f"subcritical: R0 = {r0_value} <= 1 never saturates")
    return tau_star / (r0_value - 1.0)


@dataclass(frozen=True)
class InfoGainReport:
    """Collaboration-vs-benchmark conditions for one configuration.

    dsc_superior: collaborating network out-informs an always-on fleet of
        delta*n sensors (theta <= 1 - delta).
    epidemic_within_t: the standby fraction delta suffices to trigger the
        activation chain within t_detect (delta * p * n * t / tau_star >= 1).
    delta_min: smallest standby fraction for that trigger condition.
    consistency: delta_min is compatible with the steady state
        (delta_min <= 1 - theta).
    event_gain: collaborating network produces more detection events than
        the same n sensors run independently (theta < 1 - p).
    n_threshold: sensor count above which collaboration wins at this p,
        ceil of (s / (pi r*^2)) / (p (1 - p)).
    n_star: universal version at the optimal p = 1/2, ceil of (4/pi) s / r*^2.
    """

    dsc_superior: bool
    epidemic_within_t: bool
    delta_min: float
    consistency: bool
    event_gain: bool
    n_threshold: int
    n_star: int


def info_gain_conditions(
    theta: float,
    delta: float,
    p: float,
    tau_star: float,
    n: int,
    t_detect: float,
    s: float,
    r_star: float,
) -> InfoGainReport:
    """Evaluate every information-gain condition; see InfoGainReport."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1) for the count thresholds, got {p}")
    if t_detect <= 0 or tau_star <= 0 or n < 1 or s <= 0 or r_star <= 0:
        raise ValueError("t_detect, tau_star, n, s and r_star must be positive")
    delta_min = tau_star / (p * n * t_detect)
    cell = s / (math.pi * r_star ** 2)
    return InfoGainReport(
        dsc_superior=theta <= 1.0 - delta,
        epidemic_within_t=delta * p * n * t_detect / tau_star >= 1.0,
        delta_min=delta_min,
        consistency=delta_min <= 1.0 - theta,
        event_gain=theta < 1.0 - p,
        n_threshold=math.ceil(cell / (p * (1.0 - p))),
        n_star=math.ceil(4.0 / math.pi * s / r_star ** 2),
    )


@dataclass(frozen=True)
class Trajectory:
    """Times and values of an integrated scalar ODE."""

    t: np.ndarray
    y: np.ndarray


def _rk4_scalar(rhs, y0: float, times: np.ndarray, substeps: int) -> np.ndarray:
    out = np.empty(times.size)
    out[0] = y = float(y0)
    for k in range(times.size - 1):
        h = (times[k + 1] - times[k]) / substeps
        for _ in range(substeps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = y
    return out


def integrate_sis(
    alpha: float,
    tau_star: float,
    n: float,
    nu: float,
    y0: float,
    t_end: float,
    dt: float,
    rel_tol: float = 1e-8,
) -> Trajectory:
    """Integrate dN+/dt = alpha * N+**nu * (n - N+) - N+ / tau_star.

    Classic fourth-order Runge-Kutta on the grid 0, dt, ..., t_end, with
    internal step halving until two refinements agree to rel_tol
    (relative to the trajectory scale). nu = 1 recovers the closed-form
    logistic case; nu < 1 damps growth in dense deployments.
    """
    if not 0.0 <= y0 <= n:
        raise ValueError("y0 must be in [0, n]")
    if not 0.0 <= nu <= 1.0:
        raise ValueError("nu must be in [0, 1]")
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be > 0")

    def rhs(y: float) -> float:
        y = min(max(y, 0.0), n)  # clamp off-domain excursions of the solver
        return alpha * y ** nu * (n - y) - y / tau_star

    m = max(1, round(t_end / dt))
    times = np.arange(m + 1) * dt
    substeps = 1
    prev = _rk4_scalar(rhs, y0, times, substeps)
    for _ in range(20):
        substeps *= 2
        cur = _rk4_scalar(rhs, y0, times, substeps)
        scale = max(1.0, float(np.max(np.abs(cur))))
        if float(np.max(np.abs(cur - prev))) <= rel_tol * scale:
            return Trajectory(t=times, y=cur)
        prev = cur
    return Trajectory(t=times, y=prev)


@dataclass
class PdeGrid:
    """Rectangular grid of active/passive densities for the spatial model.

    Fields are (ny, nx) arrays; x is the second axis. d is the diffusivity
    in m^2/step (of order r_star**2 / tau_star for a sensor network).
    """

    nx: int
    ny: int
    dx: float
    d: float
    field_active: np.ndarray
    field_passive: np.ndarray

    def __post_init__(self):
        self.field_active = np.asarray(self.field_active, dtype=float)
        self.field_passive = np.asarray(self.field_passive, dtype=float)
        expected = (self.ny, self.nx)
        if self.field_active.shape != expected or self.field_passive.shape != expected:
            raise ValueError(f"fields must have shape {expected}")
        if np.any(self.field_active < 0) or np.any(self.field_passive < 0):
            raise ValueError("initial fields must be non-negative")
        if self.dx <= 0 or self.d < 0:
            raise ValueError("dx must be > 0 and d >= 0")

    @classmethod
    def uniform(cls, nx: int, ny: int, dx: float, d: float, active: float, passive: float):
        return cls(
            nx=nx,
            ny=ny,
            dx=dx,
            d=d,
            field_active=np.full((ny, nx), float(active)),
            field_passive=np.full((ny, nx), float(passive)),
        )


def _laplacian_neumann(f: np.ndarray, dx: float) -> np.ndarray:
    """5-point Laplacian with zero-flux (reflecting) boundaries."""
    padded = np.pad(f, 1, mode="edge")
    return (
        padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
        - 4.0 * f
    ) / (dx * dx)


@dataclass(frozen=True)
class PdeTrajectory:
    """Recorded snapshots of the reaction-diffusion fields."""

    times: np.ndarray
    active: list[np.ndarray]
    passive: list[np.ndarray]
    dx: float


def integrate_pde(
    grid: PdeGrid,
    alpha_field,
    tau_star: float,
    t_end: float,
    dt: float,
    record_every: int = 1,
) -> PdeTrajectory:
    """Integrate the spatial two-compartment model on the grid.

        da/dt = d * lap(a) + alpha(r) * a * p - a / tau_star
        dp/dt = d * lap(p) - alpha(r) * a * p + a / tau_star

    Explicit method of lines: 5-point Laplacian with zero-flux boundaries,
    classic Runge-Kutta in time, subject to the diffusive stability bound
    dt <= dx^2 / (4 d). With d = 0 every cell reduces to the well-mixed
    contact model. alpha_field may be a scalar or a per-cell array (the
    hook for spatially varying mean concentration). tau_star = inf turns
    off deactivation. Snapshots are recorded every `record_every` steps.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be > 0")
    if grid.d > 0:
        limit = grid.dx ** 2 / (4.0 * grid.d)
        if dt > limit * (1.0 + 1e-12):
            raise ValueError(
                f"stability violation: dt = {dt} exceeds dx^2/(4 d) = {limit}"
            )
    alpha = np.asarray(alpha_field, dtype=float)
    decay = 0.0 if math.isinf(tau_star) else 1.0 / tau_star
    d = grid.d
    dx = grid.dx

    def rhs(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        react = alpha * a * p - decay * a
        if d > 0:
            return d * _laplacian_neumann(a, dx) + react, d * _laplacian_neumann(p, dx) - react
        return react, -react

    a = grid.field_active.copy()
    p = grid.field_passive.copy()
    n_steps = max(1, round(t_end / dt))
    times = [0.0]
    snaps_a = [a.copy()]
    snaps_p = [p.copy()]
    for step in range(1, n_steps + 1):
        ka1, kp1 = rhs(a, p)
        ka2, kp2 = rhs(a + 0.5 * dt * ka1, p + 0.5 * dt * kp1)
        ka3, kp3 = rhs(a + 0.5 * dt * ka2, p + 0.5 * dt * kp2)
        ka4, kp4 = rhs(a + dt * ka3, p + dt * kp3)
        a = a + (dt / 6.0) * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4)
        p = p + (dt / 6.0) * (kp1 + 2.0 * kp2 + 2.0 * kp3 + kp4)
        if a.min() < 0:
            np.maximum(a, 0.0, out=a)
        if p.min() < 0:
            np.maximum(p, 0.0, out=p)
        if step % record_every == 0 or step == n_steps:
            times.append(step * dt)
            snaps_a.append(a.copy())
            snaps_p.append(p.copy())
    return PdeTrajectory(times=np.array(times), active=snaps_a, passive=snaps_p, dx=dx)


def run_pde(config: ExperimentConfig) -> tuple[PdeTrajectory, float]:
    """The config's spatial model from a front seeded at x = 0.

    The first seed_columns columns start at active density seed_level and
    the rest of the grid fully passive; snapshots default to about one per
    time unit. Returns the trajectory and the resolved front level.
    """
    pde = resolve_pde(config)
    active = np.zeros((pde.ny, pde.nx))
    active[:, : pde.seed_columns] = pde.seed_level
    grid = PdeGrid(
        nx=pde.nx, ny=pde.ny, dx=pde.dx, d=pde.diffusivity,
        field_active=active, field_passive=1.0 - active,
    )
    record_every = pde.record_every or max(1, round(1.0 / pde.dt))
    trajectory = integrate_pde(
        grid, pde.alpha, config.sensor.tau_star, pde.t_end, pde.dt, record_every
    )
    return trajectory, pde.level


def _crossing_position(profile: np.ndarray, level: float, dx: float) -> float | None:
    """Rightmost x (cell centers at (i + 1/2) dx) where the profile is at
    `level`, linearly interpolated; None if the profile never reaches it."""
    above = np.flatnonzero(profile >= level)
    if above.size == 0:
        return None
    i = int(above[-1])
    x_i = (i + 0.5) * dx
    if i + 1 >= profile.size:
        return x_i
    drop = profile[i] - profile[i + 1]
    frac = (profile[i] - level) / drop if drop > 0 else 0.0
    return x_i + min(max(frac, 0.0), 1.0) * dx


def front_positions(trajectory: PdeTrajectory, level: float) -> np.ndarray:
    """Per-snapshot x of the front (level crossing of the y-averaged
    active profile); NaN where the profile never reaches the level."""
    out = np.empty(trajectory.times.size)
    for k, snap in enumerate(trajectory.active):
        pos = _crossing_position(snap.mean(axis=0), level, trajectory.dx)
        out[k] = np.nan if pos is None else pos
    return out


def front_speed(trajectory: PdeTrajectory, level: float) -> float:
    """Speed (m/step) of the advancing activation front.

    Tracks the level crossing of the y-averaged active profile and fits a
    least-squares slope to position vs time over the central half of the
    recorded run. Raises if the level is never crossed there or if the
    front retreats (no monotone advance to measure).
    """
    n_rec = trajectory.times.size
    if n_rec < 4:
        raise ValueError("trajectory too short to measure a front")
    lo, hi = n_rec // 4, (3 * n_rec) // 4 + 1
    positions = front_positions(trajectory, level)[lo:hi]
    if np.any(np.isnan(positions)):
        raise ValueError(f"no front: profile never reaches level {level}")
    if np.any(np.diff(positions) < -1e-9 * trajectory.dx):
        raise ValueError("no monotone advancing front at this level")
    times = trajectory.times[lo:hi]
    slope = np.polyfit(times, positions, 1)[0]
    return float(slope)


def synchronization_check(alpha: float, tau_star: float, r_star: float, v_star: float) -> bool:
    """True iff the activation front can keep up with wind advection:
    alpha >= v_star**2 * tau_star / r_star**2."""
    if alpha < 0 or tau_star <= 0 or r_star <= 0 or v_star < 0:
        raise ValueError("inputs must be positive (v_star may be zero)")
    return alpha >= v_star ** 2 * tau_star / r_star ** 2


def meanfield_report(config: ExperimentConfig) -> dict:
    """Analytic summary of a config: the meanfield.json payload.

    The information-gain conditions, delta_min and n_threshold need a
    detection probability strictly inside (0, 1) and are None otherwise.
    """
    model, spec, net, mf = config.environment, config.sensor, config.network, config.meanfield
    s = net.area
    p = sensor.detection_probability(spec, model)
    alpha = alpha_theory(spec, s, p, mf.g)
    r0_value = r0(p, net.n, spec.r_star, s, mf.g)
    supercritical = r0_value > 1.0
    try:
        c_star_opt = sensor.optimal_threshold(model)
    except ValueError:
        c_star_opt = None
    gain = None
    if 0.0 < p < 1.0:
        gain = info_gain_conditions(
            theta=1.0 / r0_value,
            delta=net.delta,
            p=p,
            tau_star=spec.tau_star,
            n=net.n,
            t_detect=mf.t_detect,
            s=s,
            r_star=spec.r_star,
        )
    return {
        "p": p,
        "alpha": alpha,
        "r0": r0_value,
        "theta": 1.0 / r0_value if supercritical else None,
        "relaxation_time": relaxation_time(r0_value, spec.tau_star) if supercritical else None,
        "delta_min": gain.delta_min if gain else None,
        "n_threshold": gain.n_threshold if gain else None,
        "n_star": math.ceil(4.0 / math.pi * s / spec.r_star ** 2),
        "c_star_opt": c_star_opt,
        "synchronized": synchronization_check(alpha, spec.tau_star, spec.r_star, mf.v_star),
        "conditions": {
            key: getattr(gain, key)
            for key in ("dsc_superior", "epidemic_within_t", "consistency", "event_gain")
        } if gain else None,
    }


def alpha_field_from_mean_concentration(
    c0_field, gamma: float, omega: float, spec: SensorSpec, s: float, g: float
) -> np.ndarray:
    """Per-cell contact rate from a spatially varying mean concentration.

    Detection probability depends on c_star / c0 only, so the per-cell p
    is evaluated against a unit-mean law at the local threshold ratio.
    """
    c0_arr = np.asarray(c0_field, dtype=float)
    if np.any(c0_arr <= 0):
        raise ValueError("mean concentration must be > 0 everywhere")
    unit = environment.ConcentrationModel(c0=1.0, gamma=gamma, omega=omega)
    p_cell = 1.0 - np.asarray(environment.cdf(unit, spec.c_star / c0_arr))
    return g * math.pi * spec.r_star ** 2 * p_cell / (spec.tau_star * s)
