"""Binary threshold sensor and its detection statistics."""

from __future__ import annotations

from dataclasses import dataclass

from . import environment
from .checks import check_integer, check_real, store_checked
from .environment import ConcentrationModel


@dataclass(frozen=True)
class SensorSpec:
    """Hardware parameters shared by every sensor in a network.

    c_star: detection threshold (concentration units, finite, >= 0)
    tau_star: active-period duration (time steps, in [1, 2**63 - 1]: the
              timers are int64)
    r_star: communication range (meters, finite, > 0)
    """

    c_star: float
    tau_star: int
    r_star: float

    def __post_init__(self):
        store_checked(self, "c_star", check_real, ge=0)
        store_checked(self, "tau_star", check_integer, 1, 2**63 - 1)
        store_checked(self, "r_star", check_real, gt=0)


def read(spec: SensorSpec, c: float) -> int:
    """Binary reading: 1 iff c >= c_star (boundary inclusive)."""
    return 1 if check_real("c", c, ge=0) >= spec.c_star else 0


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
