"""Intermittent turbulent-concentration environment.

Concentration fluctuations at a sensor are modeled by a mixed law: an atom
at zero with weight 1 - omega (intermittency, no tracer present) plus a
heavy-tailed continuous part with mean chosen so the overall mean equals
the mean concentration c0:

    density(c) = (1 - omega) * delta(c)
                 + (omega^2 / c0) * ((gamma - 1) / (gamma - 2))
                   * (1 + (omega / (gamma - 2)) * c / c0) ** (-gamma)

    cdf(c)     = 1 - omega * (1 + (omega / (gamma - 2)) * c / c0) ** (1 - gamma)

    quantile(u) = 0                                           for u < 1 - omega
                = c0 * ((gamma - 2) / omega)
                  * (((1 - u) / omega) ** (-1 / (gamma - 1)) - 1)   otherwise

The three expressions form a consistent triple: the cdf is the integral of
the density and the quantile inverts the cdf exactly, which makes the
inverse-transform sampler testable against the closed forms. The overall
mean is exactly c0 for any gamma > 2 and any omega.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_array, check_integer, check_real


@dataclass(frozen=True)
class ConcentrationModel:
    """Parameters of the intermittent concentration law.

    c0: mean concentration (arbitrary units, finite, > 0). Only ratios such
        as threshold / c0 matter downstream.
    gamma: tail exponent (finite, > 2; 26/3 is the usual turbulence value).
    omega: intermittency factor in [0, 1]; 1 - omega is the probability of
        reading exactly zero. omega = 0 is the degenerate all-zero
        environment.
    """

    c0: float
    gamma: float = 26.0 / 3.0
    omega: float = 0.98

    def __post_init__(self):
        check_real("c0", self.c0, gt=0)
        check_real("gamma", self.gamma, gt=2)
        check_real("omega", self.omega, ge=0, le=1)


def atom_weight(model: ConcentrationModel) -> float:
    """Probability mass of the zero-concentration atom, 1 - omega."""
    return 1.0 - model.omega


def _scaled(model: ConcentrationModel, c) -> tuple[np.ndarray, np.ndarray]:
    """c >= 0 and omega / (gamma - 2) * c / c0, as float arrays; a scaled
    value that is not finite is rejected, naming c and c0."""
    c_arr = check_array("c", c, ge=0, le=np.inf)  # inf is named below
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        z = model.omega / ((model.gamma - 2.0) * model.c0) * c_arr
    if not np.all(np.isfinite(z)):
        raise ValueError(f"c / c0 scaled by omega / (gamma - 2) must be finite, got "
                         f"c = {float(c_arr.max())} and c0 = {model.c0}")
    return c_arr, z


def pdf_continuous(model: ConcentrationModel, c):
    """Density of the continuous (non-atom) part at concentration c >= 0.

    Integrates to omega over [0, inf); the atom carries the rest.
    """
    c_arr, z = _scaled(model, c)
    g = model.gamma
    out = (model.omega ** 2 / model.c0) * ((g - 1.0) / (g - 2.0)) * (1.0 + z) ** (-g)
    return out if c_arr.ndim else float(out)


def cdf(model: ConcentrationModel, c):
    """Cumulative probability P(C <= c) for c >= 0.

    Right-continuous; cdf(0) equals the atom weight 1 - omega.
    """
    c_arr, z = _scaled(model, c)
    out = 1.0 - model.omega * (1.0 + z) ** (1.0 - model.gamma)
    return out if c_arr.ndim else float(out)


def quantile(model: ConcentrationModel, u):
    """Inverse cdf: smallest c with cdf(c) >= u, for u in [0, 1).

    Returns 0 on the atom (u < 1 - omega) and the positive branch above it.
    u = 1 is excluded: the inverse diverges there.
    """
    u_arr = check_array("u", u, ge=0, lt=1)
    if model.omega == 0.0:
        out = np.zeros_like(u_arr)
        return out if u_arr.ndim else 0.0
    g = model.gamma
    span = model.c0 * (g - 2.0) / model.omega
    # For u below the atom the bracket is negative (or, for a subnormal
    # omega, (1 - u) / omega overflows to inf); np.where discards it.
    # The outer clamp removes rounding dust (~1e-16 relative) right at the
    # branch boundary when 1 - omega is not exactly representable.
    with np.errstate(over="ignore"):
        branch = span * (((1.0 - u_arr) / model.omega) ** (-1.0 / (g - 1.0)) - 1.0)
    out = np.where(u_arr < 1.0 - model.omega, 0.0, np.maximum(branch, 0.0))
    return out if u_arr.ndim else float(out)


_LATTICE = 2**53  # Generator.random() draws k / 2**53, k in [0, 2**53)


def uniform_threshold(model: ConcentrationModel, c_star) -> np.ndarray:
    """u* for each c_star: the smallest u = k / 2**53 with quantile(model, u)
    >= c_star, or 1.0 if no u in [0, 1) reaches it, so that a uniform drawn
    by Generator.random() reads >= c_star iff it is >= u*. Bisects over k on
    arrays only (numpy's scalar pow may differ from its array pow in the last
    bit); raises if the readings on the 256 lattice points each side of a u*
    are not a step, i.e. the float quantile is not monotone there.
    """
    target = check_array("c_star", c_star, ge=0, le=np.inf).reshape(-1, 1)
    below = np.full(target.shape, -1)  # the largest k known to read below c_star
    for step in 2 ** np.arange(53, -1, -1):
        k = np.minimum(below + step, _LATTICE - 1)
        below = np.where(quantile(model, k / _LATTICE) < target, k, below)
    k = np.clip(below + np.arange(-255, 257), 0, _LATTICE - 1)
    if np.any((quantile(model, k / _LATTICE) >= target) != (k > below)):
        raise ArithmeticError("quantile is not monotone near a threshold on the 2**-53 lattice")
    return (below[:, 0] + 1) / _LATTICE


def time_series(model: ConcentrationModel, steps: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. concentration series of the given length (one value per step)."""
    check_integer("steps", steps, 1)
    return np.asarray(quantile(model, rng.random(steps)))
