import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from lsmkit import neurons as neurons_module
from lsmkit import (
    ConfigError,
    ConnectionLaw,
    GridDims,
    NeuronParams,
    NumericsError,
    PopulationState,
    build_reservoir,
    lif_step,
    simulate_population,
)
from lsmkit.neurons import fired_pairs, fired_sum


def recurrent(weights, state):
    """The current ``weights`` send over ``state``'s spikes, as the time loop
    hands it to ``lif_step``."""
    return fired_sum(weights.tocsc(), state.spikes, fired_pairs(state.spikes))


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
        nxt = lif_step(st, np.zeros(2), recurrent(w, st), params)
        assert nxt.u[1] == 3.0 / params.tau_u

    def test_self_connection_ignored_by_builder_contract(self):
        # diagonal-free matrix: a spiking neuron must not drive itself
        params = NeuronParams()
        w = sparse.csr_matrix((2, 2))
        st = PopulationState(np.array([25.0, 0.0]), np.zeros(2), np.array([1, 0]))
        nxt = lif_step(st, np.zeros(2), recurrent(w, st), params)
        assert nxt.u[0] == 0.0

    def test_length_mismatch_rejected(self):
        st = PopulationState.zeros(3)
        with pytest.raises(ConfigError):
            lif_step(st, np.zeros(2), None, NeuronParams())
        with pytest.raises(ConfigError, match="recurrent current has shape"):
            lif_step(st, np.zeros(3), np.zeros(2), NeuronParams())

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
                st = lif_step(st, drive[t], recurrent(w, st), params)
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


class TestBatchedStep:
    """A (N, B) state steps each column exactly as that column's own (N,)
    state would, bit for bit, also when no weight or drive is an integer."""

    PARAMS = NeuronParams(tau_v=20.0, tau_u=12.0, w_lsm=0.7)

    def test_batch_equals_column_by_column_runs(self):
        params, steps, batch = self.PARAMS, 150, 5
        topo = build_reservoir(GridDims(4, 4, 3), ConnectionLaw(lam=2.0), params, 21)
        w = topo.matrix
        drive = np.random.default_rng(6).normal(4.0, 9.0, size=(steps, w.shape[0], batch))
        drive[:, :, 1] = 0.0  # a silent column steps next to spiking ones
        batched = PopulationState.zeros(w.shape[0], batch)
        singles = [PopulationState.zeros(w.shape[0]) for _ in range(batch)]
        spikes = np.zeros(batch, dtype=np.int64)
        for t in range(steps):
            batched = lif_step(batched, drive[t], recurrent(w, batched), params)
            singles = [
                lif_step(single, drive[t, :, b], recurrent(w, single), params)
                for b, single in enumerate(singles)
            ]
            for b, single in enumerate(singles):
                assert batched.v[:, b].tobytes() == single.v.tobytes()
                assert batched.u[:, b].tobytes() == single.u.tobytes()
                assert np.array_equal(batched.spikes[:, b], single.spikes)
            spikes += batched.spikes.sum(axis=0, dtype=np.int64)
        assert spikes[1] == 0 and np.all(np.delete(spikes, 1) > 0)

    def test_in_place_step_equals_pure_step(self):
        """``out=state`` writes the very bytes the pure call returns, over a
        batched run with a silent column, and the pure call leaves its
        input as it was."""
        params, steps, batch = self.PARAMS, 150, 5
        topo = build_reservoir(GridDims(4, 4, 3), ConnectionLaw(lam=2.0), params, 21)
        w = topo.matrix
        drive = np.random.default_rng(7).normal(4.0, 9.0, size=(steps, w.shape[0], batch))
        drive[:, :, 3] = 0.0
        pure = PopulationState.zeros(w.shape[0], batch)
        in_place = PopulationState.zeros(w.shape[0], batch)
        for t in range(steps):
            before = (pure.v.copy(), pure.u.copy(), pure.spikes.copy())
            nxt = lif_step(pure, drive[t], recurrent(w, pure), params)
            for kept, now in zip(before, (pure.v, pure.u, pure.spikes)):
                assert kept.tobytes() == now.tobytes()
            pure = nxt
            current = recurrent(w, in_place)
            assert lif_step(in_place, drive[t], current, params, out=in_place) is in_place
            assert in_place.v.tobytes() == pure.v.tobytes()
            assert in_place.u.tobytes() == pure.u.tobytes()
            assert in_place.spikes.tobytes() == pure.spikes.tobytes()
        assert pure.spikes.any() and not pure.v[:, 3].any()

    def test_non_finite_column_rejected(self):
        st = PopulationState.zeros(3, 4)
        st.u[1, 2] = np.inf
        with pytest.raises(NumericsError):
            lif_step(st, np.zeros((3, 4)), None, NeuronParams())

    def test_drive_shape_must_match_batch(self):
        with pytest.raises(ConfigError, match="injected drive has shape"):
            lif_step(PopulationState.zeros(3, 4), np.zeros((3, 2)), None, NeuronParams())


def formula_step(v, u, injected, current, params):
    """One step of the neurons module docstring's formula, one Python float
    at a time: the bytes a step must give."""
    dt, tau_u, tau_v, theta = params.dt, params.tau_u, params.tau_v, params.theta
    arriving = injected if current is None else [c + i for c, i in zip(current, injected)]
    u_next = [x * (1 - dt / tau_u) + a / tau_u for x, a in zip(u, arriving)]
    v_next = [x * (1 - dt / tau_v) + y * dt for x, y in zip(v, u_next)]
    spikes = [x >= theta for x in v_next]
    return [x - theta if s else x for x, s in zip(v_next, spikes)], u_next, spikes


def spread(rng, shape):
    """Inexact values of either sign over nine decades, 1e-3 to 1e6."""
    return rng.choice([-1.0, 1.0], shape) * rng.random(shape) * 10.0 ** rng.integers(-3, 7, shape)


@st.composite
def step_cases(draw):
    """Inexact constants at dt 1.0 or 0.5, an (N,) or (N, B) state, and
    drives and recurrent currents (or None) for a few steps."""
    params = NeuronParams(
        tau_v=draw(st.sampled_from([3.7, 12.3, 16.0, 20.9])),
        tau_u=draw(st.sampled_from([2.9, 12.3, 16.0, 31.7])),
        theta=draw(st.sampled_from([0.3, 20.0, 7e4])),
        dt=draw(st.sampled_from([1.0, 0.5])),
    )
    n = draw(st.integers(1, 30))
    shape = (n,) if draw(st.booleans()) else (n, draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = PopulationState(spread(rng, shape), spread(rng, shape), rng.random(shape) < 0.5)
    steps = draw(st.integers(1, 4))
    drives = spread(rng, (steps, *shape))
    currents = [spread(rng, shape) if draw(st.booleans()) else None for _ in range(steps)]
    return params, state, drives, currents


class TestStepFormula:
    """A step gives the module docstring's formula byte for byte, and reads
    its drive without writing it."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(step_cases(), st.booleans())
    def test_equals_docstring_formula(self, case, in_place):
        params, state, drives, currents = case
        for injected, current in zip(drives, currents):
            flat = [a.reshape(-1).tolist() for a in (state.v, state.u, injected)]
            rec = None if current is None else current.reshape(-1).tolist()
            v, u, spikes = formula_step(*flat, rec, params)
            state = lif_step(state, injected, current, params, out=state if in_place else None)
            assert state.v.reshape(-1).tobytes() == np.array(v).tobytes()
            assert state.u.reshape(-1).tobytes() == np.array(u).tobytes()
            assert state.spikes.reshape(-1).tolist() == spikes

    @pytest.mark.parametrize("shape", [(6,), (6, 3)])
    @pytest.mark.parametrize("connected", [False, True])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_never_writes_injected(self, shape, connected, in_place):
        """A read-only drive row steps, with and without ``out=state``, and
        keeps its bytes; so does a whole drive through the time loop."""
        rng = np.random.default_rng(4)
        drive = spread(rng, (5, *shape))
        kept = drive.tobytes()
        drive.flags.writeable = False
        state = PopulationState.zeros(*shape)
        for injected in drive:
            current = spread(rng, shape) if connected else None
            out = state if in_place else None
            state = lif_step(state, injected, current, NeuronParams(), out=out)
        assert drive.tobytes() == kept
        weights = sparse.csc_matrix(np.full((6, 6), 0.7)) if connected else None
        simulate_population(weights, drive, NeuronParams())
        assert drive.tobytes() == kept


@st.composite
def fired_cases(draw):
    """A (post x pre) CSC matrix of inexact weights (multiples of 0.7 and
    -1.3), built from COO entries in shuffled order, some of its columns
    empty, and 0/1 spikes of shape (pre,) or (pre, B), of which a fraction
    on either side of 1/``SPARSE_FIRING`` fired."""
    n_post, n_pre = draw(st.integers(1, 40)), draw(st.integers(1, 200))
    batch = draw(st.sampled_from([None, 1, 3, 8]))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    fraction = draw(st.sampled_from([0.0, 1 / 128, 1 / 64, 1 / 16, 1 / 2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    post, pre = np.nonzero(rng.random((n_post, n_pre)) < density)
    weight = rng.integers(1, 10, post.size) * rng.choice([0.7, -1.3], post.size)
    order = rng.permutation(post.size)
    matrix = sparse.csc_matrix(
        (weight[order], (post[order], pre[order])), shape=(n_post, n_pre)
    )
    shape = (n_pre,) if batch is None else (n_pre, batch)
    spikes = np.zeros(shape, dtype=np.uint8)
    count = math.ceil(fraction * spikes.size)
    spikes.flat[rng.choice(spikes.size, count, replace=False)] = 1
    return matrix, spikes


# one fired neuron of 64, whose column is empty: the sum gathers no term
NO_OUT_EDGES = (
    sparse.csc_matrix(([0.7, -1.3], ([0, 2], [0, 0])), shape=(3, 64)),
    np.eye(1, 64, 5, dtype=np.uint8)[0],
)


class TestFiredSum:
    """The fired-column sum equals a sorted-row CSR product byte for byte,
    on either side of the rule and with the sparse path forced."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(fired_cases())
    @example(NO_OUT_EDGES)
    @example((NO_OUT_EDGES[0], NO_OUT_EDGES[1][:, None].repeat(2, axis=1)))
    def test_equals_whole_product(self, case):
        """Also for the matrix with its rows reversed stacked below it, whose
        sum is each one's sum, one above the other."""
        matrix, spikes = case
        assert matrix.has_canonical_format
        below = sparse.csc_matrix(matrix[::-1])
        stacked = sparse.vstack([matrix, below], format="csc")
        want = sparse.csr_matrix(matrix).dot(spikes.astype(np.float64))
        want_below = sparse.csr_matrix(below).dot(spikes.astype(np.float64))
        for rule in (neurons_module.SPARSE_FIRING, 1):  # as shipped; always gather
            with mock.patch.object(neurons_module, "SPARSE_FIRING", rule):
                pairs = fired_pairs(spikes)
            if pairs is not None:  # the fired pairs, ascending
                assert np.array_equal(pairs, np.flatnonzero(spikes))
            got = fired_sum(matrix, spikes, pairs)
            both = fired_sum(stacked, spikes, pairs)
            if not spikes.any():
                assert got is None and both is None
            else:
                assert got.dtype == np.float64 and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert both.tobytes() == np.concatenate([want, want_below]).tobytes()

    def test_rule_reads_the_fired_fraction(self):
        """At most 1/``SPARSE_FIRING`` of the pairs fired lists them, and the
        sum gathers them; more takes the whole product."""
        matrix = sparse.csc_matrix(np.full((4, 64), 0.7))
        spikes = np.zeros(64, dtype=np.uint8)
        most = 64 // neurons_module.SPARSE_FIRING
        for fired, whole in ((most, False), (most + 1, True)):
            spikes[:fired] = 1
            pairs = fired_pairs(spikes)
            assert (pairs is None) == whole
            with mock.patch.object(type(matrix), "dot", side_effect=matrix.dot) as dot:
                fired_sum(matrix, spikes, pairs)
            assert dot.called == whole
