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
holds one block per member, and :func:`simulate_population`, the only time
loop, steps it, for one sample or for a batch of equal-length samples at
once.  A multi-length-scale ensemble is that population with ungated drive
and no links; a temporal one gates each member's block to its slab and
adds the inter-partition links.  The one record is then cut back into
per-sample, per-member records by neuron offsets.
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
    """The equal split of ``steps`` into ``partitions`` contiguous slabs,
    one per partition reservoir; slab lengths differ by at most one."""

    steps: int
    partitions: int

    def __post_init__(self):
        if not 1 <= self.partitions <= self.steps:
            raise ConfigError(
                f"cannot split {self.steps} steps into {self.partitions} partitions"
            )

    @property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        """Half-open (start, end) slab of each partition, tiling [0, steps)."""
        bounds = [(r * self.steps) // self.partitions for r in range(self.partitions + 1)]
        return tuple(zip(bounds[:-1], bounds[1:]))


def equal_split_schedule(steps: int, partitions: int) -> GatingSchedule:
    """The gating schedule of ``partitions`` reservoirs over ``steps`` steps."""
    return GatingSchedule(steps, partitions)


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
    """(T, N) reservoir drive from (T, n_inputs) input rates, as the
    transpose of the C-ordered (N, T) product, which is not copied.

    The input-major map walks the inputs in order, one rate row each.  The
    product reads ``rates.T`` as one C-ordered block: F-ordered rates are
    read in place, any other layout is first copied into that order.
    """
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 2 or rates.shape[1] != imap.n_inputs:
        raise ConfigError(
            f"rates shape {rates.shape} does not match {imap.n_inputs} inputs"
        )
    return imap.matrix().dot(rates.T).T


class GatedDrive:
    """The injected current of B samples stepped together, one slab at a time.

    ``slabs`` lists (start, end, first member, last member + 1) in order,
    tiling [0, T): members ``first`` to ``last - 1`` map ``rates``, stacked
    as (T, B, n_inputs), through their input maps and are driven only
    inside [start, end).  Only the open slab's (neurons, steps, B) block is
    held.  ``drive[t]``, read for t = 0, 1, ..., T - 1 in turn, is step t's
    (N, B) current in one reused buffer.  With ``record_l1`` set,
    ``l1[r, b]`` is the (T,) L1 norm of member r's drive into sample b.
    """

    def __init__(self, rates, members, slabs, record_l1: bool = False):
        self.rates, self.members, self.slabs = rates, members, slabs
        self.offsets = np.cumsum([0] + [imap.n_reservoir for _, imap in members])
        steps = slabs[-1][1]
        self.shape = (steps, int(self.offsets[-1]), rates.shape[1])
        self.l1 = np.zeros((len(members), rates.shape[1], steps)) if record_l1 else None
        # Members sharing a slab share one block: one copy per step, and for
        # a multi-length-scale ensemble one allocation the size of its whole
        # drive, which lifts glibc's adaptive mmap threshold above the Gabor
        # bank's temporaries (with one block per member nmnist-mulre3 took
        # 4-10x the page faults and about 12% more total_s).  Slab 0 is
        # mapped before the loop allocates its raster and state, which keeps
        # the heap and so the peak RSS smaller.
        self._slab = 0
        self._values = self._map(*slabs[0])
        self._buffer = np.zeros(self.shape[1:])
        self._take_rows()

    def _take_rows(self) -> None:
        """Cache the open slab's bounds and its members' rows of the buffer."""
        self._start, self._end, first, last = self.slabs[self._slab]
        self._rows = self._buffer[self.offsets[first] : self.offsets[last]]

    def __getitem__(self, t: int) -> np.ndarray:
        """Step t's current; steps are read in order, each once."""
        if t == self._end:  # the open slab closes and the next one opens
            self._rows[...] = 0.0
            self._values = None  # dropped before the next block is mapped
            self._slab += 1
            self._values = self._map(*self.slabs[self._slab])
            self._take_rows()
        self._rows[...] = self._values[:, t - self._start]
        return self._buffer

    def _map(self, start: int, end: int, first: int, last: int) -> np.ndarray:
        """The drive of members ``first`` to ``last - 1`` over their slab."""
        # rows ordered (step, sample): one mapping call drives the whole batch;
        # one input-major copy of the window serves every member of the slab
        window = self.rates[start:end]
        window = np.asfortranarray(window.reshape(-1, window.shape[2]), dtype=np.float64)
        base, shape = self.offsets[first], (-1, end - start, self.shape[2])
        mapped = (
            drive_through_map(window, self.members[r][1]).T.reshape(shape)
            for r in range(first, last)
        )
        if last - first == 1:
            values = next(mapped)
        else:  # filled member by member: one mapped block at a time beside it
            values = np.empty((self.offsets[last] - base,) + shape[1:])
            for r, block in zip(range(first, last), mapped):
                values[self.offsets[r] - base : self.offsets[r + 1] - base] = block
        if self.l1 is not None:
            for r in range(first, last):
                block = values[self.offsets[r] - base : self.offsets[r + 1] - base]
                # each step's norm summed over a contiguous row, as for one sample
                rows = np.ascontiguousarray(block.transpose(2, 1, 0))
                self.l1[r, :, start:end] = np.abs(rows).sum(axis=2)
        return values


def simulate_population(
    weights: sparse.spmatrix | None,
    drive: np.ndarray | GatedDrive,
    params: NeuronParams,
    *,
    links: sparse.spmatrix | None = None,
    slab: tuple[int, int] | None = None,
    record_raster: bool = False,
) -> SpikeRecord:
    """Run one population for T steps from a zero state.

    ``drive`` is the pre-weighted injected current: (T, N) for one sample,
    or (T, N, B), such as a :class:`GatedDrive`, for B samples stepped
    together, whose record's arrays then keep the trailing batch axis.
    ``links`` is an optional (N x N) coupling whose spikes, like recurrent
    ones, arrive one step later; they are added to the injected current,
    not to the recurrent sum, so a stacked ensemble sums in the same order
    as its members stepped one by one.  ``slab`` additionally counts spikes
    inside its interval.
    """
    steps, n = drive.shape[:2]
    state = PopulationState.zeros(n, *drive.shape[2:])
    raster = np.zeros(drive.shape, dtype=np.uint8)
    for t in range(steps):
        injected = drive[t]
        if links is not None and state.spikes.any():
            injected = injected + links.dot(state.spikes.astype(np.float64))
        state = lif_step(state, injected, weights, params)
        raster[t] = state.spikes
    return SpikeRecord(
        counts=raster.sum(axis=0, dtype=np.int64),
        steps=steps,
        slab_counts=_slab_counts(raster, slab),
        raster=raster if record_raster else None,
    )


def _slab_counts(raster: np.ndarray, slab: tuple[int, int] | None):
    if slab is None:
        return None
    return raster[slab[0] : slab[1]].sum(axis=0, dtype=np.int64)


def _run_stacked(
    rates: np.ndarray,
    members: list[tuple[ReservoirTopology, InputMap]],
    slabs: list[tuple[int, int, int, int]],
    inter_links: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    params: NeuronParams,
    *,
    count_slabs: bool = False,
    record_raster: bool = False,
    record_drive: bool = False,
) -> list:
    """Step the members as one population and cut its record per member.

    ``rates`` is one sample's (T, n_inputs) input rates, or B samples'
    stacked as (T, B, n_inputs); the result is then one list of member
    records per sample.  Member r owns one block of neurons.  ``slabs``
    tile [0, T) in order as (start, end, first member, last member + 1);
    a slab's members are driven only inside it, and its drive is held
    only while it is open.  With ``count_slabs`` each member owns the
    slab of its own index and its record counts the spikes inside it.
    Member weights sit on the diagonal of one block-diagonal matrix; each
    r -> r+1 ``inter_links`` triple is offset into the block below it.
    """
    if not members:
        raise ConfigError("an ensemble needs at least one member")
    for topo, imap in members:
        if imap.n_reservoir != topo.size:
            raise ConfigError("input map and topology sizes disagree")
    if rates.ndim not in (2, 3):
        raise ConfigError(f"rates of shape {rates.shape} are not (T, n) or (T, B, n)")
    stack = rates if rates.ndim == 3 else rates[:, None]
    drive = GatedDrive(stack, members, slabs, record_l1=record_drive)
    offsets, steps = drive.offsets, drive.shape[0]
    weights = sparse.block_diag(
        [topo.weight_matrix() for topo, _ in members], format="csr"
    )
    links = None
    if inter_links:
        n = drive.shape[1]  # neurons in the stacked population
        src = np.concatenate([s + offsets[r] for r, (s, _, _) in enumerate(inter_links)])
        dst = np.concatenate([d + offsets[r + 1] for r, (_, d, _) in enumerate(inter_links)])
        weight = np.concatenate([w for _, _, w in inter_links])
        links = sparse.csr_matrix((weight, (dst, src)), shape=(n, n))

    whole = simulate_population(weights, drive, params, links=links, record_raster=True)
    samples = []
    for b in range(stack.shape[1]):
        records = []
        for r, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            raster = whole.raster[:, lo:hi, b]
            records.append(
                SpikeRecord(
                    counts=whole.counts[lo:hi, b],
                    steps=steps,
                    slab_counts=_slab_counts(raster, slabs[r][:2] if count_slabs else None),
                    raster=raster if record_raster else None,
                    drive_l1=drive.l1[r, b] if record_drive else None,
                )
            )
        samples.append(records)
    return samples if rates.ndim == 3 else samples[0]


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
    Stacked (T, B, n_inputs) rates of B samples are stepped together and
    give one list of member records per sample, each bit-identical to
    that sample's own call.
    """
    slabs = [(0, rates.shape[0], 0, len(members))]
    return _run_stacked(rates, members, slabs, [], params, record_raster=record_raster)


def check_inter_links(inter_density: float, inter_weight: float) -> None:
    """The rule on inter-partition couplings, also checked at config load."""
    if not inter_weight < 0:
        raise ConfigError(f"inter_weight must be negative (inhibitory), not {inter_weight}")
    if not 0 <= inter_density <= 1:
        raise ConfigError(f"inter_density must lie in [0, 1], not {inter_density}")


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
    check_inter_links(inter_density, inter_weight)
    rng = np.random.default_rng(seed)
    links = []
    for r in range(len(members) - 1):
        sources = members[r].inhibitory_indices()
        hits = rng.random((sources.size, members[r + 1].size)) < inter_density
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
    to independent runs on the gated drive.  Rates may be stacked as for
    :func:`run_mulre`.
    """
    n_parts = len(members)
    if schedule.partitions != n_parts:
        raise ConfigError(
            f"schedule has {schedule.partitions} slabs for {n_parts} partitions"
        )
    if len(inter_links) != max(n_parts - 1, 0):
        raise ConfigError("need one inter-link entry per adjacent partition pair")
    if rates.shape[0] != schedule.steps:
        raise ConfigError(
            f"{rates.shape[0]} input steps do not match a {schedule.steps}-step schedule"
        )
    slabs = [(start, end, r, r + 1) for r, (start, end) in enumerate(schedule.intervals)]
    return _run_stacked(
        rates, members, slabs, inter_links, params,
        count_slabs=True, record_raster=record_raster, record_drive=record_drive,
    )
