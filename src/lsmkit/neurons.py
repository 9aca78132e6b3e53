"""Discrete-time LIF neuron and exponential-synapse dynamics.

The membrane potential of each neuron integrates its synaptic current and
leaks with time constant ``tau_v``; the synaptic current is a leaky trace
with time constant ``tau_u`` fed by weighted presynaptic spikes.  One call
to :func:`lif_step` advances a whole population by one timestep:

    u' = u * (1 - dt/tau_u) + (W @ spikes_prev + injected) / tau_u
    v' = v * (1 - dt/tau_v) + u' * dt
    spike where v' >= theta, then v' -= theta  (subtractive reset)

Spikes emitted at step t reach their targets at step t+1, so the spike
vector stored in the state is always the previous step's output.  There is
no refractory period and no lower clamp on v.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import ConfigError, NumericsError


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
        if self.tau_v <= 0 or self.tau_u <= 0:
            raise ConfigError("time constants must be positive")
        if self.theta <= 0:
            raise ConfigError("spiking threshold must be positive")
        if self.dt <= 0:
            raise ConfigError("timestep must be positive")
        if self.dt >= self.tau_v or self.dt >= self.tau_u:
            raise ConfigError("dt must be smaller than tau_v and tau_u")


@dataclass
class PopulationState:
    """Per-neuron state: membrane potential, synaptic trace, last spikes."""

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
            raise ConfigError("state vectors must share one length")

    @classmethod
    def zeros(cls, n: int) -> "PopulationState":
        return cls(np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.uint8))

    @property
    def size(self) -> int:
        return self.v.shape[0]


def lif_step(
    state: PopulationState,
    injected: np.ndarray,
    recurrent_weights: sparse.spmatrix | None,
    params: NeuronParams,
) -> PopulationState:
    """Advance a population by one timestep.

    Args:
        state: state after the previous step; ``state.spikes`` holds the
            spikes emitted at that step.
        injected: pre-weighted external drive, one entry per neuron; it is
            scaled by 1/tau_u inside the trace update like any synaptic
            arrival.
        recurrent_weights: sparse (post x pre) weight matrix, or None for an
            unconnected population.  The builder never produces self-edges.
        params: shared neuron constants.

    Returns:
        The next state.  Where the new potential crosses ``theta`` the spike
        flag is set and ``theta`` is subtracted (never a reset to zero).
    """
    n = state.size
    injected = np.asarray(injected, dtype=np.float64)
    if injected.shape != (n,):
        raise ConfigError(
            f"injected drive has length {injected.shape}, population has {n}"
        )
    if recurrent_weights is not None and recurrent_weights.shape != (n, n):
        raise ConfigError(
            f"weight matrix {recurrent_weights.shape} does not match population {n}"
        )
    if not (np.isfinite(state.v).all() and np.isfinite(state.u).all()):
        raise NumericsError("non-finite membrane state")

    if recurrent_weights is not None and state.spikes.any():
        arriving = recurrent_weights.dot(state.spikes.astype(np.float64))
        arriving += injected
    else:
        arriving = injected

    u = state.u * (1.0 - params.dt / params.tau_u) + arriving / params.tau_u
    v = state.v * (1.0 - params.dt / params.tau_v) + u * params.dt
    spikes = v >= params.theta
    v = np.where(spikes, v - params.theta, v)
    return PopulationState(v, u, spikes.astype(np.uint8))
