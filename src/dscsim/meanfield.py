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
from .checks import check_array, check_integer, check_real
from .config import ExperimentConfig, resolve_pde
from .sensor import SensorSpec


def alpha_theory(spec: SensorSpec, s: float, p: float, g: float) -> float:
    """Contact rate alpha = g * pi * r_star**2 * p / (tau_star * s)."""
    s = check_real("s", s, gt=0)
    p = check_real("p", p, ge=0, le=1)
    g = check_real("g", g, gt=0)
    check_real("r_star ** 2", spec.r_star * spec.r_star, gt=0)  # ** raises OverflowError
    return check_real("alpha = g pi r_star^2 p / (tau_star s)",
                      g * math.pi * spec.r_star ** 2 * p / (spec.tau_star * s), ge=0)


def r0(p: float, n: int, r_star: float, s: float, g: float = 1.0) -> float:
    """Basic reproductive number R0 = g * p * n * pi * r_star**2 / s.

    The sampling time tau_star cancels: whether an epidemic is possible
    does not depend on how long individual sensors stay awake.
    """
    s = check_real("s", s, gt=0)
    p = check_real("p", p, ge=0, le=1)
    g = check_real("g", g, gt=0)
    n = check_real("n", n, ge=0)
    r_star = check_real("r_star", r_star, gt=0)
    check_real("r_star ** 2", r_star * r_star, gt=0)  # ** raises OverflowError
    return check_real("R0 = g p n pi r_star^2 / s", g * p * n * math.pi * r_star ** 2 / s, ge=0)


def logistic_solution(z0: float, b: float, t):
    """Closed-form logistic evolution z(t) = z0 / ((1 - z0) exp(-b t) + z0).

    Solves dz/dt = b z (1 - z) with z(0) = z0 in [0, 1]. b = 0 freezes z;
    b < 0 drives it to 0, b > 0 to 1.
    """
    z0 = check_real("z0", z0, ge=0, le=1)
    b = check_real("b", b)
    t_arr = check_array("t", t)
    if z0 in (0, 1):  # fixed points, where the formula can give 0 / 0 or 0 * inf
        out = np.full(t_arr.shape, z0, dtype=float)
    else:
        with np.errstate(over="ignore"):  # exp overflow -> inf denominator -> z = 0
            out = z0 / ((1.0 - z0) * np.exp(-b * t_arr) + z0)
    return out if t_arr.ndim else float(out)


def steady_state(r0_value: float) -> tuple[float, float]:
    """Supercritical steady state: (active_fraction, theta) with theta = 1/R0."""
    theta = 1.0 / check_real("r0_value", r0_value, gt=1)
    return 1.0 - theta, theta


def relaxation_time(r0_value: float, tau_star: float) -> float:
    """Time scale tau_star / (R0 - 1) to reach the supercritical steady state."""
    r0_value = check_real("r0_value", r0_value, gt=1)
    tau_star = check_real("tau_star", tau_star, gt=0)
    return check_real("tau_star / (r0_value - 1)", tau_star / (r0_value - 1.0))


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
    theta = check_real("theta", theta, ge=0)
    delta = check_real("delta", delta, ge=0, le=1)
    p = check_real("p", p, gt=0, lt=1)  # the count thresholds divide by p (1 - p)
    tau_star = check_real("tau_star", tau_star, gt=0)
    n = check_integer("n", n, 1)
    t_detect = check_real("t_detect", t_detect, gt=0)
    s = check_real("s", s, gt=0)
    r_star = check_real("r_star", r_star, gt=0)
    check_real("r_star ** 2", r_star * r_star, gt=0)  # ** raises OverflowError; a divisor
    rate = check_real("p n t_detect", p * n * t_detect, gt=0, le=math.inf)  # a divisor
    delta_min = check_real("delta_min = tau_star / (p n t_detect)", tau_star / rate)
    quotient = s / (math.pi * r_star ** 2) / (p * (1.0 - p))
    return InfoGainReport(
        dsc_superior=theta <= 1.0 - delta,
        epidemic_within_t=delta * p * n * t_detect / tau_star >= 1.0,
        delta_min=delta_min,
        consistency=delta_min <= 1.0 - theta,
        event_gain=theta < 1.0 - p,
        n_threshold=math.ceil(check_real("s / (pi r_star^2 p (1 - p))", quotient, gt=0)),
        n_star=_n_star(s, r_star),
    )


def _n_star(s: float, r_star: float) -> int:
    """InfoGainReport.n_star, for any p; a ValueError names it when it is not
    finite. The callers have checked that r_star ** 2 is finite and > 0."""
    count = 4.0 / math.pi * s / r_star ** 2
    return math.ceil(check_real("n_star = (4 / pi) s / r_star^2", count, ge=0))


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
# The most steps m whose grid of m + 1 points numpy allows in one float64 array.
_MAX_STEPS = np.iinfo(np.intp).max // np.dtype(float).itemsize - 1


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
    there and fills the rest of the grid with it. A pass that leaves the
    float range raises ValueError, naming alpha."""
    out = np.empty(len(times))
    out[0] = y = y0
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
    if not np.isfinite(out).all():
        raise ValueError(f"integrate_sis left the float range in an RK4 pass of {substeps} "
                         f"substeps per step at alpha = {alpha}, tau_star = {tau_star}, n = {n}, "
                         f"nu = {nu}")
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
    ValueError when a pass is not finite, or when the refinements have not
    agreed by _SIS_MAX_SUBSTEPS substeps per grid step. On a grid of equal
    widths a pass stops at the first interval that ends bitwise on its
    start value, a fixed point of the step map, and repeats it to t_end;
    the values are the ones the full pass would compute. A grid of more
    points than one float64 array can hold is rejected, naming t_end / dt.

    The passes work on the floats check_real returns: an int or numpy
    operand takes every stage off CPython's float fast path. An int up to
    2**53 converts exactly, so its bytes are the int's.
    """
    alpha = check_real("alpha", alpha, ge=0)
    tau_star = check_real("tau_star", tau_star, gt=0)
    n = check_real("n", n, ge=0)
    nu = check_real("nu", nu, ge=0, le=1)
    y0 = check_real("y0", y0, ge=0, le=n)
    t_end = check_real("t_end", t_end, gt=0)
    dt = check_real("dt", dt, gt=0)
    rel_tol = check_real("rel_tol", rel_tol, gt=0)
    m = max(1, round(check_real("t_end / dt", t_end / dt, ge=0, lt=_MAX_STEPS)))

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
# on one row. fields holds its two per-field (R, nx + 2) views, built once so
# that no stencil call slices grid. pads pairs each pad with its edge; span
# runs flat from the first interior cell to the last, and up, down, left,
# right are its neighbors.
_Padded = namedtuple("_Padded", "grid fields interior pads span up down left right")


def _padded(rows: int, nx: int) -> _Padded:
    w, r0 = nx + 2, int(rows > 1)
    grid = np.zeros((2, rows + 2 * r0, w))
    pads = [(grid[:, :, ::w - 1], grid[:, :, 1:w - 1:max(nx - 1, 1)])]
    if r0:
        pads.append((grid[:, ::rows + 1], grid[:, 1:rows + 1:rows - 1]))
    flat, start = grid.reshape(-1), r0 * w + 1
    return _Padded(grid, tuple(grid), grid[:, r0:r0 + rows, 1:-1], pads, *(
        flat[start + s:flat.size - start + s] for s in (0, -r0 * w, r0 * w, -1, 1)))


def _scalars(*values) -> list[np.ndarray]:
    """Each value as a 0-d float64 array. As a ufunc operand it gives the
    same IEEE operation as a Python float, without numpy converting the
    float on every call of the stencil's small arrays."""
    return [np.array(v, dtype=float) for v in values]


def _pde_rhs(src, dst, lap, alpha, decay, d, dx2, four) -> None:
    """Write the time derivative of the stacked fields src = (a, p) into dst,
    once src's pads hold their edge cells (zero flux); lap is a work buffer.
    Per cell, in this order and rounded at every step,

        react = alpha * a * p - decay * a
        lap(f) = (up + down + left + right - four * f) / dx2
        out = (d * lap(a) + react, d * lap(p) - react)

    alpha is a 0-d or a padded float64 array; decay, d, dx2 and four (4.0)
    are 0-d float64 arrays, see _scalars."""
    for pad, edge in src.pads:
        pad[...] = edge
    total = lap.span
    np.add(src.up, src.down, out=total)
    total += src.left
    total += src.right
    np.multiply(src.span, four, out=dst.span)
    total -= dst.span
    total /= dx2
    total *= d
    (a, p), (out, react), (lap_a, lap_p) = src.fields, dst.fields, lap.fields
    np.multiply(a, alpha, out=react)
    react *= p
    np.multiply(a, decay, out=out)
    react -= out
    np.add(lap_a, react, out=out)
    np.subtract(lap_p, react, out=react)


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
    try:
        a0, p0 = fields
    except (TypeError, ValueError):  # no pair to unpack
        raise ValueError(f"fields must be a pair (a, p), got {fields!r}") from None
    a0 = check_array("fields[0]", a0, ge=0)
    p0 = check_array("fields[1]", p0, ge=0)
    shape = a0.shape
    if a0.ndim != 2 or shape != p0.shape:
        raise ValueError(f"fields must be 2-D arrays of one shape, got {shape} and {p0.shape}")
    if 0 in shape:
        raise ValueError(f"fields must not be empty, got shape {shape}")
    dx = check_real("dx", dx, gt=0)
    d = check_real("d", d, ge=0)
    check_real("dx ** 2", dx * dx)
    dt = check_real("dt", dt, gt=0)
    t_end = check_real("t_end", t_end, gt=0)
    n_steps = max(1, round(check_real("t_end / dt", t_end / dt)))
    tau_star = check_real("tau_star", tau_star, gt=0, le=math.inf)  # inf turns off deactivation
    record_every = check_integer("record_every", record_every, 1)
    if d > 0:
        limit = dx ** 2 / (4.0 * d)
        if dt > limit * (1.0 + 1e-12):
            raise ValueError(
                f"stability violation: dt = {dt} exceeds dx^2/(4 d) = {limit}"
            )
        with np.errstate(over="ignore"):  # an infinite sum is rejected below
            top = float((a0 + p0).max())
        check_real("64 max(a0 + p0) / dx^2", 64.0 * (top / (dx * dx)))  # see the docstring
    alpha = check_array("alpha_field", alpha_field, ge=0)
    try:
        full = np.broadcast_to(alpha, shape)
    except ValueError:
        raise ValueError(f"alpha_field of shape {alpha.shape} does not fit the grid {shape}") from None
    rows, nx = 1 if _y_invariant(a0, p0, full) else shape[0], shape[1]
    if alpha.ndim:  # padded like a field; a scalar stays one
        alpha = np.pad(full[:rows], [(int(rows > 1),) * 2, (1, 1)], mode="edge")
    # 1 / tau_star is 0.0 at tau_star = inf. d * lap is zero at d = 0 for any
    # finite lap; a unit dx2 there keeps lap finite when dx * dx underflows.
    work = (alpha, *_scalars(1.0 / tau_star, d, dx * dx if d > 0 else 1.0, 4.0))

    # u holds (a, p); each RK4 stage is computed in place as
    #   k1 = rhs(u), k2 = rhs(u + (dt/2) k1), k3 = rhs(u + (dt/2) k2),
    #   k4 = rhs(u + dt k3), u += (dt/6) (((k1 + 2 k2) + 2 k3) + k4)
    # with acc summing the k's in that order, on whole padded buffers.
    vu, vstage, vk, vacc, vlap = views = [_padded(rows, nx) for _ in range(5)]
    u, stage, k, acc = (v.grid for v in views[:4])
    vu.interior[0], vu.interior[1] = a0[:rows], p0[:rows]
    interiors = list(vu.interior)
    half, whole, two, sixth = _scalars(0.5 * dt, dt, 2.0, dt / 6.0)
    times, profiles, snaps_a, snaps_p = [], [], [], []

    def record(step: int) -> None:
        # On the one-row path each record is that row broadcast to the grid;
        # the mean keeps numpy's reduction order over the full grid's rows.
        a = np.broadcast_to(vu.interior[0], shape)
        times.append(step * dt)
        profiles.append(a.mean(axis=0))
        if keep_fields:
            snaps_a.append(a.copy())
            snaps_p.append(np.broadcast_to(vu.interior[1], shape).copy())

    record(0)
    for step in range(1, n_steps + 1):
        _pde_rhs(vu, vacc, vlap, *work)
        np.multiply(acc, half, out=stage)
        for h in (half, whole):
            stage += u
            _pde_rhs(vstage, vk, vlap, *work)
            np.multiply(k, h, out=stage)
            k *= two
            acc += k
        stage += u
        _pde_rhs(vstage, vk, vlap, *work)
        acc += k
        acc *= sixth
        u += acc
        # per field, so that a NaN in one does not skip the other's clamp
        for field, low in zip(interiors, np.minimum.reduce(vu.interior, axis=(1, 2)).tolist()):
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


def front_positions(trajectory: PdeTrajectory, level: float) -> np.ndarray:
    """Per-record x of the front, in one pass over the profiles: from the
    center (i + 1/2) dx of the rightmost cell i at or above `level`, the
    fraction (profile[i] - level) / drop of a cell on, clipped to [0, 1],
    where drop = profile[i] - profile[i + 1] is positive (0 at the last
    cell); NaN where the profile never reaches the level."""
    level = check_real("level", level)
    profiles, dx = np.asarray(trajectory.profiles, dtype=float), trajectory.dx
    above = profiles >= level
    last = profiles.shape[1] - 1
    i = last - above[:, ::-1].argmax(axis=1)
    rows = np.arange(len(profiles))
    top = profiles[rows, i]
    drop = top - profiles[rows, np.minimum(i + 1, last)]
    frac = np.divide(top - level, drop, out=np.zeros_like(drop), where=drop > 0)
    x = (i + 0.5) * dx + np.clip(frac, 0.0, 1.0) * dx
    return np.where(above[rows, i], x, np.nan)


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
    alpha = check_real("alpha", alpha, ge=0)
    tau_star = check_real("tau_star", tau_star, gt=0)
    r_star = check_real("r_star", r_star, gt=0)
    v_star = check_real("v_star", v_star, ge=0)
    check_real("r_star ** 2", r_star * r_star, gt=0)  # ** raises OverflowError; a divisor
    check_real("v_star ** 2", v_star * v_star)  # ** raises OverflowError
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
    theta = 1.0 / r0_value if r0_value else math.inf  # R0 = 0 where p = 0
    supercritical = r0_value > 1.0
    try:
        c_star_opt = sensor.optimal_threshold(model)
    except ValueError:
        c_star_opt = None
    gain = None
    if 0.0 < p < 1.0:
        gain = info_gain_conditions(
            theta=theta,
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
        "theta": theta if supercritical else None,
        "relaxation_time": relaxation_time(r0_value, spec.tau_star) if supercritical else None,
        "delta_min": gain.delta_min if gain else None,
        "n_threshold": gain.n_threshold if gain else None,
        "n_star": _n_star(s, spec.r_star),
        "c_star_opt": c_star_opt,
        "synchronized": synchronization_check(alpha, spec.tau_star, spec.r_star, mf.v_star),
        "conditions": {
            key: getattr(gain, key)
            for key in ("dsc_superior", "epidemic_within_t", "consistency", "event_gain")
        } if gain else None,
    }
