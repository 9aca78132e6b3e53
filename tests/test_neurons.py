import math

import numpy as np
import pytest
from scipy import sparse

from lsmkit import (
    ConfigError,
    NeuronParams,
    NumericsError,
    PopulationState,
    lif_step,
)


def iterate_lif_oracle(steps, drive, tau_v=16.0, tau_u=16.0, theta=20.0, u0=0.0):
    """Plain-Python recurrence, independent of the engine internals."""
    v, u = 0.0, u0
    first_spike = None
    trajectory = []
    for t in range(1, steps + 1):
        u = u * (1 - 1 / tau_u) + drive(t) / tau_u
        v = v * (1 - 1 / tau_v) + u
        if v >= theta:
            if first_spike is None:
                first_spike = t
            v -= theta
        trajectory.append(v)
    return first_spike, trajectory


class TestParams:
    def test_defaults_valid(self):
        p = NeuronParams()
        assert p.tau_v == 16 and p.theta == 20 and p.dt == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tau_v=0),
            dict(tau_u=-1),
            dict(theta=0),
            dict(dt=0),
            dict(dt=16, tau_v=16),
            dict(dt=20, tau_u=16),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            NeuronParams(**kwargs)


class TestLifStep:
    def test_pure_decay(self):
        # v=10, tau_v=16, no input: one step of leak
        st = PopulationState(np.array([10.0]), np.array([0.0]))
        nxt = lif_step(st, np.zeros(1), None, NeuronParams())
        assert nxt.v[0] == 10.0 * (1 - 1 / 16)
        assert nxt.spikes[0] == 0

    def test_constant_current_first_spike_at_16(self):
        # hold u at 2: inject 2*tau_u once to charge the trace, then 2/step
        params = NeuronParams(tau_v=16, tau_u=16, theta=20)
        drive = lambda t: 2.0 * params.tau_u if t == 1 else 2.0
        oracle_spike, oracle_v = iterate_lif_oracle(40, drive)
        assert oracle_spike == 16

        st = PopulationState.zeros(1)
        engine_spike = None
        for t in range(1, 41):
            st = lif_step(st, np.array([drive(t)]), None, params)
            assert st.u[0] == 2.0
            if engine_spike is None and st.spikes[0]:
                engine_spike = t
        assert engine_spike == 16

    def test_membrane_follows_saturating_curve(self):
        # below threshold v(t) = 32 (1 - (15/16)^t)
        params = NeuronParams(theta=1e9)
        st = PopulationState.zeros(1)
        st = lif_step(st, np.array([32.0]), None, params)
        for t in range(1, 16):
            expected = 32.0 * (1 - (1 - 1 / 16) ** t)
            assert st.v[0] == pytest.approx(expected, rel=1e-12)
            st = lif_step(st, np.array([2.0]), None, params)

    def test_subtractive_reset(self):
        # crossing to 23.5 leaves 3.5 behind
        params = NeuronParams(tau_v=16, tau_u=16, theta=20)
        st = PopulationState(np.array([0.0]), np.array([0.0]))
        st = lif_step(st, np.array([23.5 * params.tau_u]), None, params)
        assert st.spikes[0] == 1
        assert st.v[0] == pytest.approx(23.5 - 20.0)

    def test_threshold_is_inclusive(self):
        params = NeuronParams(tau_v=16, tau_u=16, theta=20)
        st = PopulationState.zeros(1)
        exactly = lif_step(st, np.array([20.0 * params.tau_u]), None, params)
        assert exactly.spikes[0] == 1 and exactly.v[0] == 0.0
        below = lif_step(st, np.array([20.0 * params.tau_u - 1e-9]), None, params)
        assert below.spikes[0] == 0

    def test_no_lower_clamp(self):
        params = NeuronParams()
        st = PopulationState.zeros(2)
        st = lif_step(st, np.array([-50.0, -5.0]), None, params)
        assert (st.v < 0).all()

    def test_recurrent_propagation_one_step_delay(self):
        # neuron 0 spikes; neuron 1 feels it only through the next step's trace
        params = NeuronParams(tau_v=16, tau_u=16, theta=20)
        w = sparse.csr_matrix(np.array([[0.0, 0.0], [3.0, 0.0]]))  # post x pre
        st = PopulationState.zeros(2)
        st = lif_step(st, np.array([25.0 * params.tau_u, 0.0]), None, params)
        assert st.spikes.tolist() == [1, 0]
        assert st.u[1] == 0.0
        nxt = lif_step(st, np.zeros(2), w, params)
        assert nxt.u[1] == 3.0 / params.tau_u

    def test_self_connection_ignored_by_builder_contract(self):
        # diagonal-free matrix: a spiking neuron must not drive itself
        params = NeuronParams()
        w = sparse.csr_matrix((2, 2))
        st = PopulationState(np.array([25.0, 0.0]), np.zeros(2), np.array([1, 0]))
        nxt = lif_step(st, np.zeros(2), w, params)
        assert nxt.u[0] == 0.0

    def test_length_mismatch_rejected(self):
        st = PopulationState.zeros(3)
        with pytest.raises(ConfigError):
            lif_step(st, np.zeros(2), None, NeuronParams())
        with pytest.raises(ConfigError):
            lif_step(st, np.zeros(3), sparse.csr_matrix((2, 2)), NeuronParams())

    def test_non_finite_state_rejected(self):
        st = PopulationState(np.array([np.nan]), np.array([0.0]))
        with pytest.raises(NumericsError):
            lif_step(st, np.zeros(1), None, NeuronParams())

    def test_zero_input_decay_closed_form(self):
        # property: v[t] = v0 (1 - dt/tau_v)^t with no spikes and no input
        params = NeuronParams(theta=1e9)
        st = PopulationState(np.array([10.0]), np.array([0.0]))
        q = 1 - 1 / 16
        for t in range(1, 200):
            st = lif_step(st, np.zeros(1), None, params)
            assert st.v[0] == pytest.approx(10.0 * q**t, rel=1e-13)

    def test_determinism_bitwise(self):
        params = NeuronParams(tau_v=20, tau_u=10)
        rng = np.random.default_rng(5)
        w = sparse.random(50, 50, density=0.1, random_state=7, format="csr")
        drive = rng.normal(scale=30.0, size=(40, 50))

        def run():
            st = PopulationState.zeros(50)
            out = []
            for t in range(40):
                st = lif_step(st, drive[t], w, params)
                out.append((st.v.copy(), st.u.copy(), st.spikes.copy()))
            return out

        a, b = run(), run()
        for (va, ua, sa), (vb, ub, sb) in zip(a, b):
            assert np.array_equal(va, vb)
            assert np.array_equal(ua, ub)
            assert np.array_equal(sa, sb)


def trace_step(u, arriving):
    """Synaptic trace after one lif_step of an unconnected population whose
    threshold is never reached, so only the u update is exercised."""
    state = PopulationState(np.zeros(u.shape), u)
    return lif_step(state, arriving, None, NeuronParams(theta=1e12)).u


class TestSynapseTrace:
    def test_single_impulse_response(self):
        out = trace_step(np.array([0.0]), np.array([1.0]))
        assert out[0] == 1.0 / 16

    def test_one_decay_step(self):
        out = trace_step(np.array([0.0625]), np.array([0.0]))
        assert out[0] == 0.05859375

    def test_impulse_response_tracks_continuous_kernel(self):
        # discrete (1/16)(15/16)^k vs (1/16)e^(-k/16); frozen oracle values
        trace = trace_step(np.zeros(1), np.ones(1))
        for _ in range(16):
            trace = trace_step(trace, np.zeros(1))
        discrete = trace[0]
        continuous = (1 / 16) * math.exp(-1.0)
        assert discrete == pytest.approx(0.02225463315323705, rel=1e-12)
        assert continuous == pytest.approx(0.022992465073215146, rel=1e-12)
        # first-order discretization gap at one time constant is ~3.2%
        assert abs(discrete - continuous) / continuous < 0.035

    def test_linearity_exact_for_dyadic_inputs(self):
        # tau_u = 16 scales by exact dyadic factors, so superposition is
        # bit-exact over short horizons with integer arrivals
        rng = np.random.default_rng(0)
        a = rng.integers(0, 5, size=(10, 8)).astype(float)
        b = rng.integers(0, 5, size=(10, 8)).astype(float)

        def response(train):
            trace = np.zeros(8)
            out = []
            for row in train:
                trace = trace_step(trace, row)
                out.append(trace)
            return np.array(out)

        combined = response(a + b)
        summed = response(a) + response(b)
        assert np.array_equal(combined, summed)
