"""Parameter drift models and closed-form observable physics.

Two drift mechanisms move calibration parameters between maintenance
operations:

* ``logistic``: a random walk whose per-cycle step scale follows a
  logistic ramp in the time since the last calibration. Freshly
  calibrated parameters are quiet; stale ones random-walk at full rate.
* ``exponential``: deterministic relaxation of the parameter toward a
  limit value, ``limit + (v0 - limit) * exp(-rate * tau)``. With the
  limit below the anchor value this is a decay; with the limit above it
  is the mirrored rising mode.

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

DRIFT_MODELS = (LOGISTIC, EXPONENTIAL)


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

    @property
    def model(self) -> str:
        return LOGISTIC


@dataclass(frozen=True)
class ExponentialDriftCfg:
    """Deterministic relaxation toward ``limit`` at unit-cycle ``rate``."""

    rate: float = 0.0
    limit: float = 0.0
    v0: float = 0.0

    def __post_init__(self) -> None:
        if self.rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")

    @property
    def model(self) -> str:
        return EXPONENTIAL


DriftCfg = LogisticDriftCfg | ExponentialDriftCfg


def drift_cfg_from_dict(raw: dict) -> DriftCfg:
    """Parse a drift model mapping from a config file.

    Unknown model names are a load-time error.
    """
    data = dict(raw)
    model = data.pop("model", None)
    if model == LOGISTIC:
        return LogisticDriftCfg(**data)
    if model == EXPONENTIAL:
        return ExponentialDriftCfg(**data)
    raise ValueError(f"unknown drift model {model!r}; expected one of {DRIFT_MODELS}")


def drift_cfg_to_dict(cfg: DriftCfg) -> dict:
    if isinstance(cfg, LogisticDriftCfg):
        return {
            "model": LOGISTIC,
            "r_max": cfg.r_max,
            "tau_mid": cfg.tau_mid,
            "tau_scale": cfg.tau_scale,
            "sigma": cfg.sigma,
        }
    return {"model": EXPONENTIAL, "rate": cfg.rate, "limit": cfg.limit, "v0": cfg.v0}


def logistic_rate(tau, cfg: LogisticDriftCfg):
    """Step-scale ramp at time-since-calibration ``tau``. Accepts arrays."""
    return cfg.r_max / (1.0 + np.exp(-(np.asarray(tau, dtype=float) - cfg.tau_mid) / cfg.tau_scale))


def logistic_drift_step(value: float, cycles_since_cal: int, cfg: LogisticDriftCfg, z: float) -> float:
    """Advance one cycle: value + z * sigma * rate(tau).

    ``z`` is a standard normal draw supplied by the caller so that RNG
    stream ownership stays with the simulator. sigma = 0 leaves the
    value unchanged.
    """
    rate = cfg.r_max / (1.0 + math.exp(-(cycles_since_cal - cfg.tau_mid) / cfg.tau_scale))
    return value + z * cfg.sigma * rate


def logistic_drift_path(value: float, cycles_since_cal: int, cfg: LogisticDriftCfg, zs: np.ndarray) -> np.ndarray:
    """Values after each of ``len(zs)`` consecutive cycles, vectorised.

    Equivalent to iterating :func:`logistic_drift_step` over ``zs``.
    """
    n = len(zs)
    if n == 0:
        return np.empty(0, dtype=float)
    taus = cycles_since_cal + np.arange(n, dtype=float)
    increments = zs * cfg.sigma * logistic_rate(taus, cfg)
    # accumulate from the starting value so results are bit-identical to
    # the per-step recurrence regardless of how cycles are chunked
    return np.cumsum(np.concatenate(([value], increments)))[1:]


def exponential_decay_value(cycles_since_cal, cfg: ExponentialDriftCfg, v0: float | None = None):
    """Value after ``cycles_since_cal`` cycles of relaxation. Accepts arrays.

    ``v0`` overrides the configured anchor value; the simulator passes
    the value the parameter actually had at its last calibration.
    """
    anchor = cfg.v0 if v0 is None else v0
    tau = np.asarray(cycles_since_cal, dtype=float)
    out = cfg.limit + (anchor - cfg.limit) * np.exp(-cfg.rate * tau)
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
    p = (w2 / g2) * np.sin(np.sqrt(g2) * (t_nom + time_err) / 2.0) ** 2
    p = np.clip(p, 0.0, 1.0)
    if phase_err is not None:
        p = p * np.cos(phase_err / 2.0) ** 2
    return p


@dataclass
class DriftState:
    """Live state of one drifting parameter.

    ``anchor`` is the value at the last calibration (tau = 0); the
    exponential model relaxes from it, the logistic model random-walks
    from ``value``.
    """

    value: float
    cycles_since_cal: int = 0
    anchor: float = 0.0

    def reset(self, value: float) -> None:
        self.value = value
        self.anchor = value
        self.cycles_since_cal = 0
