"""Reservoir ensembles: spatial (multi-length-scale) and temporal (gated).

A multi-length-scale ensemble runs one independently wired reservoir per
distance offset d; every member sees the identical input frames through
its own receptive-field map, and their spike records are concatenated for
the readout.

A temporally partitioned ensemble splits the presentation window into
contiguous slabs, one per partition reservoir.  Each partition receives
input drive only inside its own slab, while its recurrent dynamics (and
sparse inhibitory couplings from the previous partition) run for the full
presentation.  The inter-partition inhibition decorrelates successive
partitions' outputs.

Both ensembles are simulated the same way: the members are stacked into
one population whose recurrent weights are block-diagonal and whose drive
holds one column block per member, and :func:`simulate_population`, the
only time loop, steps it.  A multi-length-scale ensemble is that
population with ungated drive and no links; a temporal one gates each
member's block to its slab and adds the inter-partition links.  The one
record is then cut back into per-member records by column offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError
from .inputs import InputMap
from .neurons import NeuronParams, PopulationState, lif_step
from .topology import ReservoirTopology


@dataclass(frozen=True)
class GatingSchedule:
    """Half-open per-partition intervals tiling [0, T)."""

    intervals: tuple[tuple[int, int], ...]
    steps: int

    def __post_init__(self):
        cursor = 0
        for start, end in self.intervals:
            if start != cursor or end <= start:
                raise ConfigError(
                    f"intervals must tile [0, {self.steps}) contiguously"
                )
            cursor = end
        if cursor != self.steps:
            raise ConfigError(f"intervals end at {cursor}, expected {self.steps}")

    @property
    def n_partitions(self) -> int:
        return len(self.intervals)


def equal_split_schedule(steps: int, partitions: int) -> GatingSchedule:
    """Balanced tiling; interval lengths differ by at most one."""
    if steps < partitions:
        raise ConfigError(f"cannot split {steps} steps into {partitions} slabs")
    bounds = [(r * steps) // partitions for r in range(partitions + 1)]
    intervals = tuple(
        (bounds[r], bounds[r + 1]) for r in range(partitions)
    )
    return GatingSchedule(intervals=intervals, steps=steps)


@dataclass
class SpikeRecord:
    """Per-member simulation output used for state extraction."""

    counts: np.ndarray  # (N,) full-window spike counts
    steps: int
    slab_counts: np.ndarray | None = None  # counts inside the member's own slab
    raster: np.ndarray | None = None  # (T, N) uint8
    drive_l1: np.ndarray | None = None  # (T,) L1 norm of injected input drive

    @property
    def size(self) -> int:
        return self.counts.shape[0]

    def mean_rate(self) -> float:
        """Mean spikes per neuron per step."""
        if self.steps == 0:
            return 0.0
        return float(self.counts.sum()) / (self.size * self.steps)


def drive_through_map(rates: np.ndarray, imap: InputMap) -> np.ndarray:
    """(T, N) reservoir drive from (T, n_inputs) input rates."""
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 2 or rates.shape[1] != imap.n_inputs:
        raise ConfigError(
            f"rates shape {rates.shape} does not match {imap.n_inputs} inputs"
        )
    return np.ascontiguousarray(imap.matrix().dot(rates.T).T)


def simulate_population(
    weights: sparse.spmatrix | None,
    drive: np.ndarray,
    params: NeuronParams,
    *,
    links: sparse.spmatrix | None = None,
    slab: tuple[int, int] | None = None,
    record_raster: bool = False,
    record_drive: bool = False,
) -> SpikeRecord:
    """Run one population for T steps from a zero state.

    ``drive`` is the (T, N) pre-weighted injected current.  ``links`` is an
    optional (N x N) coupling whose spikes, like recurrent ones, arrive one
    step later; they are added to the injected current, not to the
    recurrent sum, so a stacked ensemble sums in the same order as its
    members stepped one by one.  ``slab`` additionally counts spikes inside
    its interval.
    """
    steps, n = drive.shape
    state = PopulationState.zeros(n)
    raster = np.zeros((steps, n), dtype=np.uint8)
    for t in range(steps):
        injected = drive[t]
        if links is not None and state.spikes.any():
            injected = injected + links.dot(state.spikes.astype(np.float64))
        state = lif_step(state, injected, weights, params)
        raster[t] = state.spikes
    return _record(raster, drive, slab, record_raster, record_drive)


def _record(raster, drive, slab, record_raster, record_drive) -> SpikeRecord:
    """Counts, optional slab counts and drive L1 norms from a (T, N) raster
    and the (T, N) drive that produced it."""
    return SpikeRecord(
        counts=raster.sum(axis=0, dtype=np.int64),
        steps=raster.shape[0],
        slab_counts=(
            raster[slab[0] : slab[1]].sum(axis=0, dtype=np.int64)
            if slab is not None
            else None
        ),
        raster=raster if record_raster else None,
        drive_l1=np.abs(drive).sum(axis=1) if record_drive else None,
    )


def _run_stacked(
    rates: np.ndarray,
    members: list[tuple[ReservoirTopology, InputMap]],
    windows: tuple[tuple[int, int], ...],
    inter_links: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    params: NeuronParams,
    steps: int,
    *,
    slabs: tuple[tuple[int, int], ...] | None = None,
    record_raster: bool = False,
    record_drive: bool = False,
) -> list[SpikeRecord]:
    """Step the members as one population and cut its record per member.

    Member r owns one column block of the population and is driven by
    ``rates`` only inside ``windows[r]``.  Member weights sit on the
    diagonal of one block-diagonal matrix; each r -> r+1 ``inter_links``
    triple is offset into the block below it.
    """
    if not members:
        raise ConfigError("an ensemble needs at least one member")
    for topo, imap in members:
        if imap.n_reservoir != topo.size:
            raise ConfigError("input map and topology sizes disagree")
    offsets = np.cumsum([0] + [topo.size for topo, _ in members])
    n = int(offsets[-1])

    drive = np.zeros((steps, n))
    for r, ((_, imap), (start, end)) in enumerate(zip(members, windows)):
        drive[start:end, offsets[r] : offsets[r + 1]] = drive_through_map(
            rates[start:end], imap
        )
    weights = sparse.block_diag(
        [topo.weight_matrix() for topo, _ in members], format="csr"
    )
    links = None
    if inter_links:
        src = np.concatenate([s + offsets[r] for r, (s, _, _) in enumerate(inter_links)])
        dst = np.concatenate([d + offsets[r + 1] for r, (_, d, _) in enumerate(inter_links)])
        weight = np.concatenate([w for _, _, w in inter_links])
        links = sparse.csr_matrix((weight, (dst, src)), shape=(n, n))

    raster = simulate_population(
        weights, drive, params, links=links, record_raster=True
    ).raster
    return [
        _record(
            raster[:, lo:hi],
            drive[:, lo:hi],
            slabs[r] if slabs is not None else None,
            record_raster,
            record_drive,
        )
        for r, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:]))
    ]


def run_mulre(
    rates: np.ndarray,
    members: list[tuple[ReservoirTopology, InputMap]],
    params: NeuronParams,
    *,
    record_raster: bool = False,
) -> list[SpikeRecord]:
    """Simulate every ensemble member independently on the same input.

    ``rates`` is the (T, n_inputs) frame-derived drive shared by all
    members; each member maps it through its own input wiring.  Members
    never interact, so zeroing one member's input silences only it.
    """
    steps = rates.shape[0]
    windows = ((0, steps),) * len(members)
    return _run_stacked(
        rates, members, windows, [], params, steps, record_raster=record_raster
    )


def build_tepre(
    members: list[ReservoirTopology],
    inter_density: float,
    inter_weight: float,
    seed: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Sample sparse inhibitory couplings between successive partitions.

    Returns one (src, dst, weight) triple per adjacent pair r -> r+1.
    Sources are the inhibitory neurons of partition r; every
    (source, target) candidate is an independent Bernoulli(inter_density)
    draw.  The couplings push successive partitions away from producing
    the same or highly correlated output.
    """
    if inter_weight >= 0:
        raise ConfigError("inter-partition connections are inhibitory; weight < 0")
    if not 0 <= inter_density <= 1:
        raise ConfigError("inter_density must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    links = []
    for r in range(len(members) - 1):
        sources = members[r].inhibitory_indices()
        n_next = members[r + 1].size
        if inter_density == 0 or sources.size == 0:
            links.append(
                (
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64),
                )
            )
            continue
        hits = rng.random((sources.size, n_next)) < inter_density
        si, di = np.nonzero(hits)
        links.append(
            (
                sources[si].astype(np.int64),
                di.astype(np.int64),
                np.full(si.shape[0], inter_weight, dtype=np.float64),
            )
        )
    return links


def run_tepre(
    rates: np.ndarray,
    members: list[tuple[ReservoirTopology, InputMap]],
    inter_links: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    schedule: GatingSchedule,
    params: NeuronParams,
    *,
    record_raster: bool = False,
    record_drive: bool = False,
) -> list[SpikeRecord]:
    """Lockstep simulation of all partitions with gated input injection.

    At step t the input drive goes only into the partition whose interval
    contains t; every partition's recurrent dynamics run for all T steps
    and spikes cross the inter-partition links with the standard one-step
    delay.  With no inter links the per-partition records are bit-identical
    to independent runs on the gated drive.
    """
    n_parts = len(members)
    if schedule.n_partitions != n_parts:
        raise ConfigError(
            f"schedule has {schedule.n_partitions} slabs for {n_parts} partitions"
        )
    if len(inter_links) != max(n_parts - 1, 0):
        raise ConfigError("need one inter-link entry per adjacent partition pair")
    steps = schedule.steps
    if rates.shape[0] < steps:
        raise ConfigError(
            f"{rates.shape[0]} input steps cannot fill a {steps}-step schedule"
        )
    return _run_stacked(
        rates, members, schedule.intervals, inter_links, params, steps,
        slabs=schedule.intervals, record_raster=record_raster, record_drive=record_drive,
    )
