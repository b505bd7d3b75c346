import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from spaq.drift import (
    ExponentialDriftCfg,
    LogisticDriftCfg,
    exponential_decay_value,
    logistic_drift_path,
    logistic_rate,
    transfer_probability,
)
from spaq.errors import ConfigError
from spaq.graph import DisturbanceSpec, graph_from_dict, graph_to_dict, load_graph

from oracles import logistic_drift_step
from tests.conftest import make_graph, make_node


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

    # the simulator catches a parameter up over however many cycles have
    # passed since it was last read; the value at a cycle must not depend
    # on how those cycles were split into calls
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=8), st.integers(0, 2000), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_chained_splits_equal_one_call_bit_for_bit(self, splits, tau0, seed):
        cfg = LogisticDriftCfg(r_max=0.9, tau_mid=60.0, tau_scale=7.0, sigma=0.13)
        zs = np.random.default_rng(seed).standard_normal(sum(splits))
        whole = logistic_drift_path(0.37, tau0, cfg, zs)
        value, tau, at, chained = 0.37, tau0, 0, []
        for k in splits:
            part = logistic_drift_path(value, tau, cfg, zs[at : at + k])
            chained.extend(part.tolist())
            value, tau, at = float(part[-1]), tau + k, at + k
        assert chained == whole.tolist()

    # ground-truth tracking draws a block of normals ahead and draws only
    # the shortfall when it rebuilds, so the draws of a stream must not
    # depend on how they are chunked
    @given(st.lists(st.integers(0, 300), min_size=1, max_size=8), st.integers(0, 2**64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_standard_normal_chunks_equal_one_draw_bit_for_bit(self, splits, seed):
        whole = np.random.Generator(np.random.PCG64(seed)).standard_normal(sum(splits))
        rng = np.random.Generator(np.random.PCG64(seed))
        chunked = np.concatenate([rng.standard_normal(k) for k in splits])
        assert chunked.tobytes() == whole.tobytes()

    def test_stacked_columns_equal_separate_walks_bit_for_bit(self):
        cfgs = [
            LogisticDriftCfg(r_max=1.0, tau_mid=750, tau_scale=80, sigma=0.05),
            LogisticDriftCfg(r_max=0.4, tau_mid=3.0, tau_scale=1.5, sigma=0.2),
            LogisticDriftCfg(r_max=1.0, tau_mid=0.0, tau_scale=1.0, sigma=0.0),
        ]
        rng = np.random.default_rng(11)
        zs = rng.standard_normal((57, 3))
        values, taus = np.array([0.1, -0.4, 2.0]), np.array([0.0, 812.0, 5.0])
        names = ("r_max", "tau_mid", "tau_scale", "sigma")
        stacked_cfg = SimpleNamespace(**{f: np.array([getattr(c, f) for c in cfgs], dtype=float) for f in names})
        stacked = logistic_drift_path(values, taus, stacked_cfg, zs)
        for i, cfg in enumerate(cfgs):
            alone = logistic_drift_path(float(values[i]), int(taus[i]), cfg, np.ascontiguousarray(zs[:, i]))
            assert stacked[:, i].tolist() == alone.tolist()

    def test_bad_cfg_rejected(self):
        with pytest.raises(ValueError):
            LogisticDriftCfg(tau_scale=0.0)
        with pytest.raises(ValueError):
            LogisticDriftCfg(sigma=-1.0)
        with pytest.raises(ValueError):
            LogisticDriftCfg(r_max=-0.1)


class TestExponential:
    def test_anchor_at_zero(self):
        cfg = ExponentialDriftCfg(rate=0.01, limit=2.0)
        assert exponential_decay_value(0, cfg, v0=0.5) == pytest.approx(0.5)

    def test_approaches_limit(self):
        cfg = ExponentialDriftCfg(rate=0.05, limit=2.0)
        assert exponential_decay_value(1e5, cfg, v0=0.5) == pytest.approx(2.0)

    def test_decay_mode(self):
        cfg = ExponentialDriftCfg(rate=0.1, limit=0.0)
        vals = exponential_decay_value(np.arange(50), cfg, v0=1.0)
        assert np.all(np.diff(vals) < 0)
        assert vals[0] == 1.0

    def test_rising_mirror(self):
        cfg = ExponentialDriftCfg(rate=0.1, limit=1.0)
        vals = exponential_decay_value(np.arange(50), cfg, v0=0.0)
        assert np.all(np.diff(vals) > 0)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=8), st.integers(0, 2000), st.floats(0.0, 0.2))
    @settings(max_examples=150, deadline=None)
    def test_end_tau_equals_path_end_bit_for_bit(self, splits, tau0, rate):
        # a catch-up evaluates the end tau alone; tracking evaluates every
        # tau of the stretch; both must give the same value at the end
        cfg = ExponentialDriftCfg(rate=rate, limit=1.3)
        k = sum(splits)
        path = exponential_decay_value(tau0 + np.arange(1, k + 1, dtype=float), cfg, v0=-0.2)
        tau = tau0
        for step in splits:
            tau += step
            assert exponential_decay_value(tau, cfg, v0=-0.2) == path[tau - tau0 - 1]


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
            ExponentialDriftCfg(rate=0.003, limit=1.5),
        ],
    )
    def test_round_trip(self, cfg):
        # through a graph, as a parameter's drift and as a disturbance's
        node = make_node("a")
        graph = make_graph(
            replace(node, params=(("p", replace(node.params[0][1], drift=cfg)),)),
            disturbances=(DisturbanceSpec(tag="d", affected=("a",), strength=0.5, drift=cfg),),
        )
        assert graph_from_dict(graph_to_dict(graph)) == graph

    def test_a_config_that_gives_an_exponential_anchor_is_refused(self, tmp_path):
        # the anchor is the value at the last calibration, never a config key
        node = make_node("a")
        cfg = ExponentialDriftCfg(rate=0.003, limit=1.5)
        raw = graph_to_dict(make_graph(replace(node, params=(("p", replace(node.params[0][1], drift=cfg)),))))
        raw["nodes"][0]["params"]["p"]["drift"]["v0"] = 0.2
        path = tmp_path / "graph.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match=r"^nodes\[0\]\.params\.p\.drift: unknown key 'v0'$"):
            load_graph(path)
