"""Parameter drift models and closed-form observable physics.

Two drift mechanisms move calibration parameters between maintenance
operations:

* ``logistic``: a random walk whose per-cycle step scale follows a
  logistic ramp in the time since the last calibration. Freshly
  calibrated parameters are quiet; stale ones random-walk at full rate.
* ``exponential``: deterministic relaxation of the parameter from its
  value ``v0`` at the last calibration toward a limit value,
  ``limit + (v0 - limit) * exp(-rate * tau)``. With the limit below the
  anchor value this is a decay; with the limit above it is the mirrored
  rising mode.

:func:`transfer_probability` is the closed-form physics of the
transition and gate observables that check_data experiments measure:
two-level population transfer under detuning and pulse-time errors, and
pi-rotation fidelity with an extra phase error. It works elementwise on
arrays, so the simulator evaluates one formula both for single readings
and for whole drift paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOGISTIC = "logistic"
EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class LogisticDriftCfg:
    """Random-walk drift with a logistic ramp of the step scale.

    rate(tau) = r_max / (1 + exp(-(tau - tau_mid) / tau_scale)); the
    value moves by N(0, 1) * sigma * rate(tau) each cycle.
    """

    r_max: float = 1.0
    tau_mid: float = 0.0
    tau_scale: float = 1.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.r_max < 0.0:
            raise ValueError(f"r_max must be >= 0, got {self.r_max}")
        if self.tau_scale <= 0.0:
            raise ValueError(f"tau_scale must be > 0, got {self.tau_scale}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class ExponentialDriftCfg:
    """Deterministic relaxation toward ``limit`` at unit-cycle ``rate``.

    A parameter starts at its ``ParamSpec.optimal`` (a disturbance at 0.0)
    and relaxes from its value at its last calibration.
    """

    rate: float = 0.0
    limit: float = 0.0

    def __post_init__(self) -> None:
        if self.rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")


DriftCfg = LogisticDriftCfg | ExponentialDriftCfg

# each drift model's config name and class
DRIFT_MODELS = {LOGISTIC: LogisticDriftCfg, EXPONENTIAL: ExponentialDriftCfg}


def logistic_rate(tau, cfg: LogisticDriftCfg):
    """Step-scale ramp at time-since-calibration ``tau``. Accepts arrays."""
    # tau_mid - tau is -(tau - tau_mid) bit for bit, up to the sign of a
    # zero, which exp does not see
    return cfg.r_max / (1.0 + np.exp(np.subtract(cfg.tau_mid, tau, dtype=float) / cfg.tau_scale))


def logistic_drift_path(value, cycles_since_cal, cfg: LogisticDriftCfg, zs: np.ndarray) -> np.ndarray:
    """Values after each of ``len(zs)`` consecutive cycles, vectorised.

    Each cycle adds z * sigma * rate(tau) for its standard normal z, the
    tau of cycle k being ``cycles_since_cal`` + k; ``zs`` holds one row
    per cycle and is drawn by the caller, which owns the random stream. With ``zs`` of shape (k, n), the
    other arguments (and the fields of ``cfg``) may be length-n arrays:
    column i is then an independent walk with its own start and drift
    parameters, computed by the same elementwise operations.
    """
    steps = np.arange(len(zs), dtype=float).reshape((-1,) + (1,) * (np.ndim(zs) - 1))
    # tau is laid out in memory as zs is, and so is every array made from
    # them, so that no operation below mixes layouts
    tau = np.add(cycles_since_cal, steps, out=np.empty_like(zs, dtype=float))
    return drift_walk(value, zs * cfg.sigma * logistic_rate(tau, cfg))


def drift_walk(value, increments: np.ndarray) -> np.ndarray:
    """``value`` plus the running sums of ``increments`` (one row per
    cycle, written over): the walk of ``logistic_drift_path``, for a caller
    that has the rows ``zs * sigma * rate(tau)`` at hand."""
    if len(increments) == 0:
        return increments
    # accumulate from the starting value so results are bit-identical to
    # the per-step recurrence regardless of how cycles are chunked
    increments[0] += value
    return np.cumsum(increments, axis=0)


def exponential_decay_value(cycles_since_cal, cfg: ExponentialDriftCfg, v0):
    """Value after ``cycles_since_cal`` cycles of relaxation from the anchor
    ``v0``, the value at the last calibration. Accepts arrays.

    The value at each tau depends on tau alone, so the fields of ``cfg``
    and ``v0`` may also be arrays that broadcast against
    ``cycles_since_cal``.
    """
    tau = np.asarray(cycles_since_cal, dtype=float)
    out = cfg.limit + (v0 - cfg.limit) * np.exp(-cfg.rate * tau)
    return float(out) if out.ndim == 0 else out


def transfer_probability(omega: float, t_nominal: float | None, detuning, time_err, phase_err=None):
    """Population transfer of a nominal pi pulse with control errors.

    P = (omega^2 / g^2) * sin^2(g * (t_nominal + time_err) / 2), with
    g^2 = omega^2 + detuning^2, clipped to [0, 1]; ``t_nominal=None``
    means pi / omega, so P = 1 with zero errors. With ``phase_err`` the
    result is the fidelity of a pi-rotation gate: a phase error rotates
    the target axis and contributes a factor cos^2(phase_err / 2).
    The error arguments may be floats or equal-length arrays.
    """
    t_nom = t_nominal if t_nominal is not None else math.pi / omega
    w2 = omega * omega
    g2 = w2 + detuning * detuning
    # squares as x * x: numpy computes ``** 2`` on an array that way but
    # not always on a scalar, and a reading must equal its tracked path
    s = np.sin(np.sqrt(g2) * (t_nom + time_err) / 2.0)
    # np.maximum and np.minimum give np.clip's bits at less cost: the
    # product is never -0.0, and a NaN passes through all three alike
    p = np.minimum(np.maximum((w2 / g2) * (s * s), 0.0), 1.0)
    if phase_err is not None:
        c = np.cos(phase_err / 2.0)
        p = p * (c * c)
    return p

