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
from collections import namedtuple
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
    if not r0_value > 1.0:  # NaN fails too
        raise ValueError(f"subcritical: R0 = {r0_value} is not > 1, no nonzero steady state")
    theta = 1.0 / r0_value
    return 1.0 - theta, theta


def relaxation_time(r0_value: float, tau_star: float) -> float:
    """Time scale tau_star / (R0 - 1) to reach the supercritical steady state."""
    if not r0_value > 1.0:  # NaN fails too
        raise ValueError(f"subcritical: R0 = {r0_value} is not > 1, never saturates")
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
# substeps over all refinement passes, fewer when a pass reaches its
# fixed point early; the benchmark's converge at 128.
_SIS_MAX_SUBSTEPS = 1 << 12


def _equal_widths(times) -> bool:
    """True when every interval of the grid `times` has the same width."""
    widths = np.diff(times)
    return bool((widths == widths[0]).all())


def _sis_pass(alpha, tau_star, n, nu, y0, times: list, equal_widths: bool,
              substeps: int) -> np.ndarray:
    """One classic RK4 pass over the grid `times` with `substeps` equal
    steps per interval. Each stage evaluates the right-hand side at the
    iterate clamped to [0, n], which keeps solver excursions off-domain.

    On a grid of equal widths every interval applies one fixed map to y,
    so once an interval ends bitwise on its start value (a 0.0 after a
    -0.0 is a change) every later value is that value: the pass stops
    there and fills the rest of the grid with it."""
    out = np.empty(len(times))
    out[0] = y = float(y0)
    for k in range(len(times) - 1):
        h = (times[k + 1] - times[k]) / substeps
        half, sixth = 0.5 * h, h / 6.0
        start = y
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
        if equal_widths and y == start and (
                y != 0.0 or math.copysign(1.0, y) == math.copysign(1.0, start)):
            out[k + 2:] = y
            break
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
    substeps per grid step. On a grid of equal widths a pass stops at the
    first interval that ends bitwise on its start value, a fixed point of
    the step map, and repeats it to t_end; the values are the ones the
    full pass would compute.
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
    equal = _equal_widths(times)
    prev = _sis_pass(alpha, tau_star, n, nu, y0, grid, equal, 1)
    substeps = 2
    while True:
        cur = _sis_pass(alpha, tau_star, n, nu, y0, grid, equal, substeps)
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


# Views of a zeroed (2, R, nx + 2) buffer: R = rows + 2 with pad rows, R = 1
# on one row. pads pairs each pad with its edge; span runs flat from the first
# interior cell to the last, and up, down, left, right are its neighbors.
_Padded = namedtuple("_Padded", "grid interior pads span up down left right")


def _padded(rows: int, nx: int) -> _Padded:
    w, r0 = nx + 2, int(rows > 1)
    grid = np.zeros((2, rows + 2 * r0, w))
    pads = [(grid[:, :, ::w - 1], grid[:, :, 1:w - 1:max(nx - 1, 1)])]
    if r0:
        pads.append((grid[:, ::rows + 1], grid[:, 1:rows + 1:rows - 1]))
    flat, start = grid.reshape(-1), r0 * w + 1
    return _Padded(grid, grid[:, r0:r0 + rows, 1:-1], pads, *(
        flat[start + s:flat.size - start + s] for s in (0, -r0 * w, r0 * w, -1, 1)))


def _pde_rhs(src, dst, lap, alpha, decay: float, d: float, dx2: float) -> None:
    """Write the time derivative of the stacked fields src = (a, p) into dst,
    once src's pads hold their edge cells (zero flux); lap is a work buffer.
    Per cell, in this order and rounded at every step,

        react = alpha * a * p - decay * a
        lap(f) = (up + down + left + right - 4 f) / dx2
        out = (d * lap(a) + react, d * lap(p) - react)
    """
    for pad, edge in src.pads:
        np.copyto(pad, edge)
    total = lap.span
    np.add(src.up, src.down, out=total)
    total += src.left
    total += src.right
    np.multiply(src.span, 4.0, out=dst.span)
    total -= dst.span
    total /= dx2
    total *= d
    (a, p), (out, react) = src.grid, dst.grid
    np.multiply(a, alpha, out=react)
    react *= p
    np.multiply(a, decay, out=out)
    react -= out
    np.add(lap.grid[0], react, out=out)
    np.subtract(lap.grid[1], react, out=react)


def _y_invariant(*arrays: np.ndarray) -> bool:
    """True when every 2-D array among `arrays` has rows bitwise equal to
    its first row (so a -0.0 where row 0 holds 0.0 counts as a change)."""
    bits = [x.view(np.uint64) for x in arrays if x.ndim == 2]
    return all((b == b[:1]).all() for b in bits)


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
    fields,
    alpha_field,
    tau_star: float,
    t_end: float,
    dt: float,
    dx: float,
    d: float,
    record_every: int = 1,
    keep_fields: bool = True,
) -> PdeTrajectory:
    """Integrate the spatial two-compartment model from fields = (a, p).

        da/dt = d * lap(a) + alpha(r) * a * p - a / tau_star
        dp/dt = d * lap(p) - alpha(r) * a * p + a / tau_star

    a and p are (ny, nx) arrays of one shape, x along the second axis, on
    square cells of side dx; d is the diffusivity in m^2/step (of order
    r_star**2 / tau_star for a sensor network). Explicit method of lines:
    5-point Laplacian with zero-flux boundaries, classic Runge-Kutta in
    time, subject to the diffusive stability bound dt <= dx^2 / (4 d).
    With d = 0 every cell reduces to the well-mixed contact model.
    alpha_field is the contact rate: a scalar, or a per-cell array that
    broadcasts to the grid for a spatially varying rate. tau_star = inf
    turns off deactivation. The state is recorded every `record_every`
    steps and at the end: always the y-averaged active profile, and the
    full fields unless keep_fields is false.

    Each field is stepped inside a border of pad cells that copy its edge
    cells, so the Laplacian is one pass over a flat run whose neighbors are
    shifted views. When both fields and alpha_field are the same in every
    row (bitwise), the solver steps a single row: with zero-flux edges a
    y-uniform cell's up and down neighbors are the cell itself, so that row,
    and every record, is bitwise the full grid's.

    With d > 0, dx must leave room for every Laplacian the solver forms,
    pad cells included: a ValueError names dx unless 64 M / dx^2 is a
    finite float, where M = max(a0 + p0). The argument: a + p only
    diffuses and the clamp keeps both fields non-negative, so between
    steps each stays within [0, M] up to RK4's overshoot. A stencil's
    |up + down + left + right - 4 f| is at most 8 times the largest |value|
    it reads, so h d |lap| <= 8 (h d / dx^2) B for a stage bounded by B.
    Under the stability limit dt d / dx^2 <= 1/4, the diffusion part of
    the stages u + (dt/2) k1, u + (dt/2) k2 and u + dt k3 is then bounded
    by M + M = 2M, M + 2M = 3M and M + 2 * 3M = 7M. Rounding 7M up to 8M
    absorbs the stability test's 1e-12 slack and the overshoot, and
    8 * 8M / dx^2 is the bound. Growth the reaction adds on top reaches
    interior cells as well, so it is the model's own, not the pads'.
    """
    a0, p0 = (np.asarray(f, dtype=float) for f in fields)
    if a0.ndim != 2 or a0.shape != p0.shape:
        raise ValueError(f"fields must be 2-D arrays of one shape, got {a0.shape} and {p0.shape}")
    if a0.size == 0:
        raise ValueError(f"fields must not be empty, got shape {a0.shape}")
    for f in (a0, p0):
        if not np.all((f >= 0) & np.isfinite(f)):
            raise ValueError("initial fields must be finite and non-negative")
    if not (math.isfinite(dx) and math.isfinite(d)):
        raise ValueError("dx and d must be finite")
    if dx <= 0 or d < 0:
        raise ValueError("dx must be > 0 and d >= 0")
    if not math.isfinite(dx * dx):
        raise ValueError(f"dx = {dx} is too large: dx^2 is not finite")
    if not (math.isfinite(dt) and math.isfinite(t_end)) or dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be finite and > 0")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt = {t_end} / {dt} steps is not finite")
    if not tau_star > 0:
        raise ValueError("tau_star must be > 0 (inf turns off deactivation)")
    sensor.check_integer("record_every", record_every, 1)
    if d > 0:
        limit = dx ** 2 / (4.0 * d)
        if dt > limit * (1.0 + 1e-12):
            raise ValueError(
                f"stability violation: dt = {dt} exceeds dx^2/(4 d) = {limit}"
            )
        with np.errstate(over="ignore"):  # an infinite sum is rejected below
            top = float((a0 + p0).max())
        if not math.isfinite(64.0 * (top / (dx * dx))):  # see the docstring
            raise ValueError(
                f"dx = {dx} is too small for fields up to {top}: the Laplacian "
                f"bound 64 * {top} / dx^2 is not finite"
            )
    alpha = np.asarray(alpha_field, dtype=float)
    if not np.all(np.isfinite(alpha)):
        raise ValueError("alpha_field must be finite")
    shape = a0.shape
    try:
        full = np.broadcast_to(alpha, shape)
    except ValueError:
        raise ValueError(f"alpha_field of shape {alpha.shape} does not fit the grid {shape}") from None
    rows, nx = 1 if _y_invariant(a0, p0, full) else shape[0], shape[1]
    if alpha.ndim:  # padded like a field; a scalar stays one
        alpha = np.pad(full[:rows], [(int(rows > 1),) * 2, (1, 1)], mode="edge")
    # 1 / tau_star is 0.0 at tau_star = inf. d * lap is zero at d = 0 for any
    # finite lap; a unit dx2 there keeps lap finite when dx * dx underflows.
    work = (alpha, 1.0 / tau_star, d, dx * dx if d > 0 else 1.0)

    # u holds (a, p); each RK4 stage is computed in place as
    #   k1 = rhs(u), k2 = rhs(u + (dt/2) k1), k3 = rhs(u + (dt/2) k2),
    #   k4 = rhs(u + dt k3), u += (dt/6) (((k1 + 2 k2) + 2 k3) + k4)
    # with acc summing the k's in that order, on whole padded buffers.
    vu, vstage, vk, vacc, vlap = views = [_padded(rows, nx) for _ in range(5)]
    u, stage, k, acc = (v.grid for v in views[:4])
    vu.interior[0], vu.interior[1] = a0[:rows], p0[:rows]
    interiors = list(vu.interior)
    half, sixth = 0.5 * dt, dt / 6.0
    n_steps = max(1, round(t_end / dt))
    times, profiles, snaps_a, snaps_p = [], [], [], []

    def record(step: int) -> None:
        # On the one-row path each record is that row broadcast to the grid;
        # the mean keeps numpy's reduction order over the full grid's rows.
        a, p = (np.broadcast_to(f, shape) for f in vu.interior)
        times.append(step * dt)
        profiles.append(a.mean(axis=0))
        if keep_fields:
            snaps_a.append(a.copy())
            snaps_p.append(p.copy())

    record(0)
    for step in range(1, n_steps + 1):
        _pde_rhs(vu, vacc, vlap, *work)
        np.multiply(acc, half, out=stage)
        for h in (half, dt):
            stage += u
            _pde_rhs(vstage, vk, vlap, *work)
            np.multiply(k, h, out=stage)
            k *= 2.0
            acc += k
        stage += u
        _pde_rhs(vstage, vk, vlap, *work)
        acc += k
        acc *= sixth
        u += acc
        # per field, so that a NaN in one does not skip the other's clamp
        for field, low in zip(interiors, vu.interior.min(axis=(1, 2)).tolist()):
            if low < 0:
                np.maximum(field, 0.0, out=field)
        if step % record_every == 0 or step == n_steps:
            record(step)
    return PdeTrajectory(times=np.array(times), active=snaps_a, passive=snaps_p,
                         dx=dx, profiles=np.array(profiles))


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
    trajectory = integrate_pde(
        (active, 1.0 - active), pde.alpha, config.sensor.tau_star, pde.t_end, pde.dt,
        pde.dx, pde.diffusivity, pde.record_every, keep_fields=False,
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
