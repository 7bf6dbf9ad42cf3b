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

from . import sensor
from .config import ExperimentConfig, resolve_pde
from .sensor import SensorSpec


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


# The most RK4 substeps integrate_sis spends on one grid interval. A grid
# of m steps therefore costs at most m * (2 * _SIS_MAX_SUBSTEPS - 1)
# substeps over all refinement passes; the benchmark's converge at 128.
_SIS_MAX_SUBSTEPS = 1 << 12


def _sis_pass(alpha, tau_star, n, nu, y0, times: list, substeps: int) -> np.ndarray:
    """One classic RK4 pass over the grid `times` with `substeps` equal
    steps per interval. Each stage evaluates the right-hand side at the
    iterate clamped to [0, n], which keeps solver excursions off-domain."""
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
    logistic case; nu < 1 damps growth in dense deployments. Raises
    ValueError when the refinements have not agreed by _SIS_MAX_SUBSTEPS
    substeps per grid step.
    """
    for name, value in (("alpha", alpha), ("tau_star", tau_star), ("n", n),
                        ("y0", y0), ("dt", dt), ("t_end", t_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not 0.0 <= y0 <= n:
        raise ValueError("y0 must be in [0, n]")
    if not 0.0 <= nu <= 1.0:
        raise ValueError("nu must be in [0, 1]")
    if dt <= 0 or t_end <= 0 or tau_star <= 0:
        raise ValueError("dt, t_end and tau_star must be > 0")
    if not rel_tol > 0:
        raise ValueError("rel_tol must be > 0")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt = {t_end} / {dt} steps is not finite")

    m = max(1, round(t_end / dt))
    times = np.arange(m + 1) * dt
    grid = times.tolist()  # scalar arithmetic is faster on floats than on numpy scalars
    prev = _sis_pass(alpha, tau_star, n, nu, y0, grid, 1)
    substeps = 2
    while True:
        cur = _sis_pass(alpha, tau_star, n, nu, y0, grid, substeps)
        scale = max(1.0, float(np.max(np.abs(cur))))
        diff = float(np.max(np.abs(cur - prev)))
        if diff <= rel_tol * scale:
            return Trajectory(t=times, y=cur)
        if substeps >= _SIS_MAX_SUBSTEPS:
            raise ValueError(
                f"integrate_sis did not converge to rel_tol = {rel_tol} within "
                f"{substeps} RK4 substeps per step: the last two refinements "
                f"differ by {diff:.3g} at trajectory scale {scale:.3g}"
            )
        prev = cur
        substeps *= 2


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
        for f in (self.field_active, self.field_passive):
            if not np.all((f >= 0) & np.isfinite(f)):
                raise ValueError("initial fields must be finite and non-negative")
        if not (math.isfinite(self.dx) and math.isfinite(self.d)):
            raise ValueError("dx and d must be finite")
        if self.dx <= 0 or self.d < 0:
            raise ValueError("dx must be > 0 and d >= 0")


def _pde_rhs(u: np.ndarray, alpha, decay: float, d: float, dx2: float,
             out: np.ndarray, lap: np.ndarray, react: np.ndarray) -> None:
    """Write the time derivative of the stacked fields u = (a, p) into out.

    lap is a work buffer of u's shape, react one of a field's shape.
    The arithmetic is, in this order and rounded at every step,

        react = alpha * a * p - decay * a
        lap(f) = (up + down + left + right - 4 f) / dx2
        out = (d * lap(a) + react, d * lap(p) - react)   (d > 0)
        out = (react, -react)                            (d = 0)

    where a neighbor beyond the edge is the edge cell itself (zero flux).
    """
    a, p = u
    np.multiply(a, alpha, out=react)
    react *= p
    np.multiply(a, decay, out=out[0])
    react -= out[0]
    if not d > 0:
        out[0] = react
        np.negative(react, out=out[1])
        return
    lap[:, 1:] = u[:, :-1]
    lap[:, :1] = u[:, :1]
    lap[:, :-1] += u[:, 1:]
    lap[:, -1:] += u[:, -1:]
    # Left, then right neighbors, each as one contiguous pass over the
    # flattened stack. That pass gives the edge column the wrong
    # neighbor, so the column is then recomputed from its saved sum.
    flat, u_flat = lap.reshape(-1), u.reshape(-1)
    edge = lap[:, :, 0].copy()
    flat[1:] += u_flat[:-1]
    np.add(edge, u[:, :, 0], out=lap[:, :, 0])
    edge = lap[:, :, -1].copy()
    flat[:-1] += u_flat[1:]
    np.add(edge, u[:, :, -1], out=lap[:, :, -1])
    np.multiply(u, 4.0, out=out)
    lap -= out
    lap /= dx2
    lap *= d
    np.add(lap[0], react, out=out[0])
    np.subtract(lap[1], react, out=out[1])


@dataclass(frozen=True)
class PdeTrajectory:
    """Recorded state of the reaction-diffusion fields.

    profiles[k] is the y-averaged active density at times[k], the input of
    the front tracking. active and passive hold the full fields at the
    same times, or are empty when the run did not keep them.
    """

    times: np.ndarray
    active: list[np.ndarray]
    passive: list[np.ndarray]
    dx: float
    profiles: np.ndarray


def integrate_pde(
    grid: PdeGrid,
    alpha_field,
    tau_star: float,
    t_end: float,
    dt: float,
    record_every: int = 1,
    keep_fields: bool = True,
) -> PdeTrajectory:
    """Integrate the spatial two-compartment model on the grid.

        da/dt = d * lap(a) + alpha(r) * a * p - a / tau_star
        dp/dt = d * lap(p) - alpha(r) * a * p + a / tau_star

    Explicit method of lines: 5-point Laplacian with zero-flux boundaries,
    classic Runge-Kutta in time, subject to the diffusive stability bound
    dt <= dx^2 / (4 d). With d = 0 every cell reduces to the well-mixed
    contact model. alpha_field is the contact rate: a scalar, or a per-cell
    array that broadcasts to the grid for a spatially varying rate.
    tau_star = inf turns off deactivation. The state is recorded every
    `record_every` steps and at the end: always the y-averaged active
    profile, and the full fields unless keep_fields is false.
    """
    if not (math.isfinite(dt) and math.isfinite(t_end)) or dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be finite and > 0")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt = {t_end} / {dt} steps is not finite")
    if not tau_star > 0:
        raise ValueError("tau_star must be > 0 (inf turns off deactivation)")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if grid.d > 0:
        limit = grid.dx ** 2 / (4.0 * grid.d)
        if dt > limit * (1.0 + 1e-12):
            raise ValueError(
                f"stability violation: dt = {dt} exceeds dx^2/(4 d) = {limit}"
            )
    alpha = np.asarray(alpha_field, dtype=float)
    if not np.all(np.isfinite(alpha)):
        raise ValueError("alpha_field must be finite")
    shape = (grid.ny, grid.nx)
    try:
        fits = np.broadcast_shapes(alpha.shape, shape) == shape
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(f"alpha_field of shape {alpha.shape} does not fit the grid {shape}")
    decay = 0.0 if math.isinf(tau_star) else 1.0 / tau_star
    rhs_args = (alpha, decay, grid.d, grid.dx * grid.dx)

    # u holds (a, p); each RK4 stage is computed in place as
    #   k1 = rhs(u), k2 = rhs(u + (dt/2) k1), k3 = rhs(u + (dt/2) k2),
    #   k4 = rhs(u + dt k3), u += (dt/6) (((k1 + 2 k2) + 2 k3) + k4)
    # with acc summing the k's in that order.
    u = np.stack((grid.field_active, grid.field_passive))
    stage, k, acc, lap = (np.empty_like(u) for _ in range(4))
    react = np.empty_like(u[0])
    half, sixth = 0.5 * dt, dt / 6.0
    n_steps = max(1, round(t_end / dt))
    times = [0.0]
    profiles = [u[0].mean(axis=0)]
    snaps_a = [u[0].copy()] if keep_fields else []
    snaps_p = [u[1].copy()] if keep_fields else []
    for step in range(1, n_steps + 1):
        _pde_rhs(u, *rhs_args, acc, lap, react)
        np.multiply(acc, half, out=stage)
        stage += u
        _pde_rhs(stage, *rhs_args, k, lap, react)
        np.multiply(k, half, out=stage)
        stage += u
        k *= 2.0
        acc += k
        _pde_rhs(stage, *rhs_args, k, lap, react)
        np.multiply(k, dt, out=stage)
        stage += u
        k *= 2.0
        acc += k
        _pde_rhs(stage, *rhs_args, k, lap, react)
        acc += k
        acc *= sixth
        u += acc
        for field in u:
            if field.min() < 0:
                np.maximum(field, 0.0, out=field)
        if step % record_every == 0 or step == n_steps:
            times.append(step * dt)
            profiles.append(u[0].mean(axis=0))
            if keep_fields:
                snaps_a.append(u[0].copy())
                snaps_p.append(u[1].copy())
    return PdeTrajectory(times=np.array(times), active=snaps_a, passive=snaps_p,
                         dx=grid.dx, profiles=np.array(profiles))


def run_pde(config: ExperimentConfig) -> tuple[PdeTrajectory, float]:
    """The config's spatial model from a front seeded at x = 0.

    The first seed_columns columns start at active density seed_level and
    the rest of the grid fully passive; records are taken every resolved
    record_every steps and hold only the front profiles. Returns the
    trajectory and the resolved front level.
    """
    pde = resolve_pde(config)
    active = np.zeros((pde.ny, pde.nx))
    active[:, : pde.seed_columns] = pde.seed_level
    grid = PdeGrid(
        nx=pde.nx, ny=pde.ny, dx=pde.dx, d=pde.diffusivity,
        field_active=active, field_passive=1.0 - active,
    )
    trajectory = integrate_pde(
        grid, pde.alpha, config.sensor.tau_star, pde.t_end, pde.dt, pde.record_every,
        keep_fields=False,
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
    """Per-record x of the front (level crossing of the y-averaged
    active profile); NaN where the profile never reaches the level."""
    out = np.empty(trajectory.times.size)
    for k, profile in enumerate(trajectory.profiles):
        pos = _crossing_position(profile, level, trajectory.dx)
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
