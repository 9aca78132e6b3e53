"""Discrete-time LIF neuron and exponential-synapse dynamics.

The membrane potential of each neuron integrates its synaptic current and
leaks with time constant ``tau_v``; the synaptic current is a leaky trace
with time constant ``tau_u`` fed by weighted presynaptic spikes.  One call
to :func:`lif_step` advances a whole population by one timestep, for one
sample (state vectors of shape (N,)) or for B samples at once (shape
(N, B), one column per sample):

    u' = u * (1 - dt/tau_u) + (W @ spikes_prev + injected) / tau_u
    v' = v * (1 - dt/tau_v) + u' * dt
    spike where v' >= theta, then v' -= theta  (subtractive reset)

Spikes emitted at step t reach their targets at step t+1, so the spike
vector stored in the state is always the previous step's output.  There is
no refractory period and no lower clamp on v.  Every operation acts on a
column exactly as on a lone (N,) state, so a batch column is bit-identical
to that sample stepped alone.

The caller hands :func:`lif_step` the recurrent current ``W @ spikes_prev``,
as the time loop does with :func:`fired_sum` over its previous spikes.
:func:`fired_pairs` is the rule: when at most 1/``SPARSE_FIRING`` of the
(neuron, sample) pairs fired it lists them, and :func:`fired_sum` then adds
up only their columns of the CSC matrix; otherwise it takes the whole
product.  Either way each output adds its fired weights in ascending
presynaptic order from +0.0, and every term the sparse path skips is a
finite weight times 0, so the two give the same bytes and the rule moves
only the time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import ConfigError, NumericsError, check_real


# A step gathers only the fired columns when at most 1/SPARSE_FIRING of its
# (neuron, sample) pairs fired, and takes the whole product otherwise.  A
# gathered term costs about 12 stored multiply-adds; the fired fractions of
# the shipped configs' stand-ins are about 1/178 (shd), 1/21 (synthetic),
# 1/14 (dvs) and 1/2.4 (nmnist).  Both paths give the same bytes.
SPARSE_FIRING = 32


@dataclass(frozen=True)
class NeuronParams:
    """LIF and synapse constants shared by a population.

    ``dt`` must be strictly smaller than both time constants for the
    forward-Euler update to be stable.
    """

    tau_v: float = 16.0
    tau_u: float = 16.0
    theta: float = 20.0
    dt: float = 1.0
    w_lsm: float = 1.0

    def __post_init__(self):
        # an infinite threshold, like a NaN one, would leave every neuron silent
        for name in ("tau_v", "tau_u", "theta", "dt"):
            check_real(name, getattr(self, name), above=0)
        check_real("w_lsm", self.w_lsm)
        if not (self.dt < self.tau_v and self.dt < self.tau_u):
            raise ConfigError("dt must be smaller than tau_v and tau_u")


@dataclass
class PopulationState:
    """Per-neuron state: membrane potential, synaptic trace, last spikes.

    Each array is (N,) for one sample or (N, B) for a batch of B samples.
    """

    v: np.ndarray
    u: np.ndarray
    spikes: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.spikes is None:
            self.spikes = np.zeros(self.v.shape, dtype=np.uint8)
        else:
            self.spikes = np.asarray(self.spikes, dtype=np.uint8)
        if not (self.v.shape == self.u.shape == self.spikes.shape):
            raise ConfigError("state vectors must share one shape")

    @classmethod
    def zeros(cls, n: int, batch: int | None = None) -> "PopulationState":
        """Rest state of n neurons, of shape (n,), or (n, batch) if given."""
        shape = (n,) if batch is None else (n, batch)
        return cls(np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=np.uint8))

    @property
    def size(self) -> int:
        return self.v.shape[0]


def fired_pairs(spikes: np.ndarray) -> np.ndarray | None:
    """The ascending flat indices of the fired (neuron, sample) pairs of the
    0/1 uint8 or bool ``spikes``, of shape (pre,) or C-ordered (pre, B), when
    at most 1/``SPARSE_FIRING`` of them fired (an empty array when none
    did), or None when more did.  A sum or a count over the spikes reads these pairs
    when they are given, and the whole spikes otherwise."""
    fired = np.count_nonzero(spikes)
    if fired * SPARSE_FIRING > spikes.size:
        return None
    if fired == 0:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(spikes.view(bool))


def fired_sum(
    matrix: sparse.spmatrix, spikes: np.ndarray, pairs: np.ndarray | None
) -> np.ndarray | None:
    """``matrix @ spikes`` as float64, or None when nothing fired.

    ``matrix`` is a (post x pre) CSC matrix, ``spikes`` the 0/1 uint8 or
    bool spikes of its presynaptic neurons, of shape (pre,) or (pre, B), and
    ``pairs`` their :func:`fired_pairs`; the sum has shape (post,) or
    (post, B).  With ``pairs`` None it is the whole product.  Otherwise the
    fired columns' stored terms, gathered in ascending presynaptic order, go
    through one ``np.bincount``, so each output adds its fired weights in
    that order from +0.0, as a sorted-row CSR product does.  The terms it
    skips are finite weights times 0, ±0.0, which leave a sum from +0.0 as
    it is, so both paths give the same bytes.  Stacking several matrices of
    one presynaptic population, one below the other, sums each over the
    same spikes with one gather and gives each its own rows' bytes.
    """
    if pairs is None:
        return matrix.dot(spikes.astype(np.float64))
    if pairs.size == 0:
        return None
    batch = 1 if spikes.ndim == 1 else spikes.shape[1]
    pre, sample = np.divmod(pairs, batch)
    stops = matrix.indptr[pre + 1]
    lengths = stops - matrix.indptr[pre]
    ends = np.add.accumulate(lengths)  # of each column's run of terms
    # each fired column's stored terms, one column after the other
    terms = np.arange(ends[-1]) + np.repeat(stops - ends, lengths)
    outputs = matrix.indices[terms] * batch + np.repeat(sample, lengths)
    summed = np.bincount(outputs, matrix.data[terms], minlength=matrix.shape[0] * batch)
    # a bincount over no terms (fired neurons without out-edges) is int64
    return summed.astype(np.float64, copy=False).reshape(matrix.shape[0], *spikes.shape[1:])


def lif_step(
    state: PopulationState,
    injected: np.ndarray,
    recurrent: np.ndarray | None,
    params: NeuronParams,
    out: PopulationState | None = None,
) -> PopulationState:
    """Advance a population, or a batch of its samples, by one timestep.

    Args:
        state: state after the previous step, (N,) or (N, B); ``state.spikes``
            holds the spikes emitted at that step.
        injected: pre-weighted external drive of the state's shape; it is
            scaled by 1/tau_u inside the trace update like any synaptic
            arrival.
        recurrent: the recurrent current of the state's shape, the weights'
            sum over ``state.spikes`` (as :func:`fired_sum` gives it), or
            None for an unconnected population or a step after no spike.
            It is added to ``injected`` before the trace update, and neither
            is written.
        params: shared neuron constants.
        out: state of the same shape to write the next state into, which
            may be ``state`` itself; by default a new one, so ``state`` is
            left as it was.

    Returns:
        The next state, ``out`` if given.  Where the new potential crosses
        ``theta`` the spike flag is set and ``theta`` is subtracted (never a
        reset to zero).

    Raises:
        NumericsError: the new potential is not finite.  A non-finite trace
            or current makes it so in the same step, and a non-finite
            potential stays so, so a non-finite state, drive or current is
            caught in the step it enters.
    """
    injected = np.asarray(injected, dtype=np.float64)
    if injected.shape != state.v.shape:
        raise ConfigError(
            f"injected drive has shape {injected.shape}, state has {state.v.shape}"
        )
    if recurrent is not None and recurrent.shape != state.v.shape:
        raise ConfigError(
            f"recurrent current has shape {recurrent.shape}, state has {state.v.shape}"
        )
    if out is None:
        out = PopulationState.zeros(*state.v.shape)
    elif out.v.shape != state.v.shape:
        raise ConfigError(f"out state has shape {out.v.shape}, state has {state.v.shape}")

    arriving = injected if recurrent is None else recurrent + injected
    u, v = out.u, out.v
    np.multiply(state.u, 1.0 - params.dt / params.tau_u, out=u)
    u += arriving / params.tau_u
    np.multiply(state.v, 1.0 - params.dt / params.tau_v, out=v)
    v += u * params.dt
    if not np.isfinite(v).all():
        raise NumericsError("non-finite membrane state")
    spikes = v >= params.theta
    np.subtract(v, params.theta, out=v, where=spikes)
    out.spikes[...] = spikes
    return out
