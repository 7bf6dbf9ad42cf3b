"""Binary threshold sensor and its detection statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import environment
from .environment import ConcentrationModel


def check_integer(name: str, value, minimum: int | None = None) -> None:
    """Reject a value without __index__ (50.0, 2.5, "3") or below minimum,
    naming it; numpy integers pass."""
    if not hasattr(value, "__index__") or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


@dataclass(frozen=True)
class SensorSpec:
    """Hardware parameters shared by every sensor in a network.

    c_star: detection threshold (concentration units, finite, >= 0)
    tau_star: active-period duration (time steps, >= 1)
    r_star: communication range (meters, finite, > 0)
    """

    c_star: float
    tau_star: int
    r_star: float

    def __post_init__(self):
        if not 0 <= self.c_star < math.inf:
            raise ValueError(f"c_star must be finite and >= 0, got {self.c_star}")
        check_integer("tau_star", self.tau_star, 1)
        if not 0 < self.r_star < math.inf:
            raise ValueError(f"r_star must be finite and > 0, got {self.r_star}")


def read(spec: SensorSpec, c: float) -> int:
    """Binary reading: 1 iff c >= c_star (boundary inclusive)."""
    if not c >= 0:  # NaN fails too
        raise ValueError("concentration must be >= 0")
    return 1 if c >= spec.c_star else 0


def detection_probability(spec: SensorSpec, model: ConcentrationModel) -> float:
    """Probability that a single reading detects, p = 1 - cdf(c_star).

    Capped at omega: the zero readings produced by intermittency count as
    non-detections under this survival-function convention, so p(c_star=0)
    is omega, not 1.
    """
    return 1.0 - environment.cdf(model, spec.c_star)


def optimal_threshold(model: ConcentrationModel) -> float:
    """Threshold at which the detection probability is exactly 1/2.

        c_opt = c0 * ((gamma - 2) / omega) * ((2 * omega) ** (1 / (gamma - 1)) - 1)

    p = 1/2 maximizes the information-gain headroom of a collaborating
    network (the sensor-count threshold is minimized there). Requires
    omega > 1/2: detection probability never exceeds omega, so p = 1/2 is
    unreachable otherwise.
    """
    if model.omega <= 0.5:
        raise ValueError(
            f"p = 1/2 is infeasible: detection probability is capped at omega = {model.omega}"
        )
    g = model.gamma
    return model.c0 * ((g - 2.0) / model.omega) * ((2.0 * model.omega) ** (1.0 / (g - 1.0)) - 1.0)
