import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spaq.drift import (
    DriftState,
    ExponentialDriftCfg,
    LogisticDriftCfg,
    drift_cfg_from_dict,
    drift_cfg_to_dict,
    exponential_decay_value,
    logistic_drift_path,
    logistic_drift_step,
    logistic_rate,
    transfer_probability,
)


class TestLogistic:
    def test_rate_at_midpoint_is_half_max(self):
        cfg = LogisticDriftCfg(r_max=0.8, tau_mid=50.0, tau_scale=10.0, sigma=1.0)
        assert logistic_rate(50.0, cfg) == pytest.approx(0.4)

    def test_rate_saturates(self):
        cfg = LogisticDriftCfg(r_max=0.8, tau_mid=10.0, tau_scale=2.0, sigma=1.0)
        assert logistic_rate(1e6, cfg) == pytest.approx(0.8)
        assert logistic_rate(0.0, cfg) < 0.01

    @given(st.floats(0, 1e4), st.floats(0, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_rate_monotone_nondecreasing(self, t1, t2):
        cfg = LogisticDriftCfg(r_max=1.0, tau_mid=100.0, tau_scale=25.0, sigma=1.0)
        lo, hi = sorted((t1, t2))
        assert logistic_rate(lo, cfg) <= logistic_rate(hi, cfg) + 1e-12

    def test_zero_sigma_is_identity(self):
        cfg = LogisticDriftCfg(r_max=1.0, tau_mid=0.0, tau_scale=1.0, sigma=0.0)
        assert logistic_drift_step(1.234, 17, cfg, z=2.5) == 1.234

    def test_step_formula(self):
        cfg = LogisticDriftCfg(r_max=0.5, tau_mid=0.0, tau_scale=1.0, sigma=0.1)
        v = logistic_drift_step(1.0, 0, cfg, z=2.0)
        assert v == pytest.approx(1.0 + 2.0 * 0.1 * 0.25)

    def test_path_matches_scalar_iteration(self):
        cfg = LogisticDriftCfg(r_max=0.7, tau_mid=5.0, tau_scale=2.0, sigma=0.3)
        zs = np.random.default_rng(0).standard_normal(20)
        path = logistic_drift_path(0.5, 3, cfg, zs)
        v, tau = 0.5, 3
        for i, z in enumerate(zs):
            v = logistic_drift_step(v, tau, cfg, float(z))
            tau += 1
            assert path[i] == pytest.approx(v, rel=1e-12)

    def test_empty_path(self):
        cfg = LogisticDriftCfg(sigma=0.1)
        assert logistic_drift_path(0.0, 0, cfg, np.empty(0)).size == 0

    def test_bad_cfg_rejected(self):
        with pytest.raises(ValueError):
            LogisticDriftCfg(tau_scale=0.0)
        with pytest.raises(ValueError):
            LogisticDriftCfg(sigma=-1.0)
        with pytest.raises(ValueError):
            LogisticDriftCfg(r_max=-0.1)


class TestExponential:
    def test_anchor_at_zero(self):
        cfg = ExponentialDriftCfg(rate=0.01, limit=2.0, v0=0.5)
        assert exponential_decay_value(0, cfg) == pytest.approx(0.5)

    def test_approaches_limit(self):
        cfg = ExponentialDriftCfg(rate=0.05, limit=2.0, v0=0.5)
        assert exponential_decay_value(1e5, cfg) == pytest.approx(2.0)

    def test_decay_mode(self):
        cfg = ExponentialDriftCfg(rate=0.1, limit=0.0, v0=1.0)
        vals = exponential_decay_value(np.arange(50), cfg)
        assert np.all(np.diff(vals) < 0)
        assert vals[0] == 1.0

    def test_rising_mirror(self):
        cfg = ExponentialDriftCfg(rate=0.1, limit=1.0, v0=0.0)
        vals = exponential_decay_value(np.arange(50), cfg)
        assert np.all(np.diff(vals) > 0)

    def test_anchor_override(self):
        cfg = ExponentialDriftCfg(rate=0.1, limit=0.0, v0=1.0)
        assert exponential_decay_value(0, cfg, v0=3.0) == pytest.approx(3.0)


class TestRabi:
    def test_resonant_pi_pulse(self):
        omega = 2.0
        assert transfer_probability(omega, math.pi / omega, 0.0, 0.0) == pytest.approx(1.0)

    @given(
        st.floats(0.1, 10.0),
        st.floats(-10.0, 10.0),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded(self, omega, detuning, t):
        p = transfer_probability(omega, t, detuning, 0.0)
        assert 0.0 <= p <= 1.0

    def test_detuning_reduces_peak(self):
        omega = 1.0
        on = transfer_probability(omega, math.pi, 0.0, 0.0)
        off = transfer_probability(omega, math.pi, 0.5, 0.0)
        assert off < on

    def test_arrays_match_elementwise_scalars(self):
        rng = np.random.default_rng(3)
        det, terr, phase = rng.normal(0.0, 0.3, size=(3, 50))
        for phase_err in (None, phase):
            vec = transfer_probability(1.7, None, det, terr, phase_err)
            for j in range(50):
                one = transfer_probability(1.7, None, det[j], terr[j], None if phase_err is None else phase[j])
                assert vec[j] == pytest.approx(one, rel=1e-12, abs=1e-15)


class TestGateFidelity:
    def test_perfect_gate(self):
        assert transfer_probability(1.5, None, 0.0, 0.0, 0.0) == pytest.approx(1.0)

    def test_default_t_nominal_is_pi_pulse(self):
        assert transfer_probability(2.5, None, 0.3, 0.1) == transfer_probability(2.5, math.pi / 2.5, 0.3, 0.1)

    @pytest.mark.parametrize("phase", [0.1, 0.5, 1.0])
    def test_phase_error_decreases_fidelity(self, phase):
        assert transfer_probability(1.0, None, 0.0, 0.0, phase) == pytest.approx(math.cos(phase / 2) ** 2)

    def test_time_error_decreases_fidelity(self):
        assert transfer_probability(1.0, None, 0.0, 0.5, 0.0) < 1.0


class TestCfgSerialisation:
    @pytest.mark.parametrize(
        "cfg",
        [
            LogisticDriftCfg(r_max=0.2, tau_mid=40.0, tau_scale=8.0, sigma=0.01),
            ExponentialDriftCfg(rate=0.003, limit=1.5, v0=0.2),
        ],
    )
    def test_round_trip(self, cfg):
        assert drift_cfg_from_dict(drift_cfg_to_dict(cfg)) == cfg

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            drift_cfg_from_dict({"model": "levy"})


class TestDriftState:
    def test_reset(self):
        s = DriftState(value=1.0, cycles_since_cal=42, anchor=0.0)
        s.reset(0.25)
        assert (s.value, s.anchor, s.cycles_since_cal) == (0.25, 0.25, 0)
