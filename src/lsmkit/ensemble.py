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
holds one block per member, and the one time loop, which
:func:`simulate_population` runs too, steps it for one sample or for a
batch of equal-length samples at once, counting spikes as it goes.  A
multi-length-scale ensemble is that population with ungated drive and no
links; a temporal one gates each member's block to its slab and adds the
inter-partition links.  The counts are cut per sample and member.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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


def gated_drive(rates, members, offsets, slabs, l1=None):
    """Yield each step's (N, B) injected current of B samples stepped together.

    ``slabs`` tile [0, T) in order as (start, end, first member, last
    member + 1): those members, whose neuron blocks start at ``offsets``,
    map ``rates``, stacked as (T, B, n_inputs), through their input maps
    and are driven only inside [start, end).  A slab's drive is mapped as
    it opens and dropped as it closes; each step reuses one buffer.  A
    given ``l1[r, b]`` gets the (T,) L1 norm of member r's drive into b.
    """
    buffer = np.zeros((offsets[-1], rates.shape[1]))
    for start, end, first, last in slabs:
        values = _map_slab(rates, members, offsets, l1, start, end, first, last)
        rows = buffer[offsets[first] : offsets[last]]
        for t in range(end - start):
            rows[...] = values[:, t]
            yield buffer
        rows[...] = 0.0
        del values  # dropped before the next slab is mapped


def _map_slab(rates, members, offsets, l1, start, end, first, last) -> np.ndarray:
    """The (neurons, end - start, B) drive of members ``first`` to ``last - 1``."""
    # rows ordered (step, sample): one mapping call drives the whole batch;
    # one input-major copy of the window serves every member of the slab
    window = rates[start:end]
    window = np.asfortranarray(window.reshape(-1, window.shape[2]), dtype=np.float64)
    base, shape = offsets[first], (-1, end - start, rates.shape[1])
    mapped = (
        drive_through_map(window, members[r][1]).T.reshape(shape)
        for r in range(first, last)
    )
    # Members sharing a slab share one block: one copy per step, and for a
    # multi-length-scale ensemble one allocation the size of its drive, which
    # lifts glibc's adaptive mmap threshold above the Gabor bank's temporaries
    # (one block per member took 4-10x the page faults on nmnist-mulre3).
    if last - first == 1:
        values = next(mapped)
    else:  # filled member by member: one mapped block at a time beside it
        values = np.empty((offsets[last] - base,) + shape[1:])
        for r, block in zip(range(first, last), mapped):
            values[offsets[r] - base : offsets[r + 1] - base] = block
    if l1 is not None:
        for r in range(first, last):
            block = values[offsets[r] - base : offsets[r + 1] - base]
            # each step's norm summed over a contiguous row, as for one sample
            rows = np.ascontiguousarray(block.transpose(2, 1, 0))
            l1[r, :, start:end] = np.abs(rows).sum(axis=2)
    return values


def simulate_population(
    weights: sparse.spmatrix | None,
    drive: np.ndarray,
    params: NeuronParams,
    *,
    links: sparse.spmatrix | None = None,
    slab: tuple[int, int] | None = None,
    record_raster: bool = False,
) -> SpikeRecord:
    """Run one population for T steps from a zero state.

    ``drive`` is the pre-weighted injected current: (T, N) for one sample,
    or (T, N, B) for B samples stepped together, whose record's arrays then
    keep the trailing batch axis.  ``links`` is an optional (N x N)
    coupling whose spikes, like recurrent ones, arrive one step later; they
    are added to the injected current, not to the recurrent sum, so a
    stacked ensemble sums in the same order as its members stepped one by
    one.  ``slab``, a part of [0, T], additionally counts spikes inside it.
    The (T, N[, B]) uint8 raster is held only with ``record_raster``.
    """
    steps = drive.shape[0]
    if slab is not None and not 0 <= slab[0] <= slab[1] <= steps:
        raise ConfigError(f"slab {slab} does not lie in [0, {steps}]")
    at, raster = _loop(weights, drive, drive.shape, params, links, slab or (), record_raster)
    inside = None if slab is None else at[slab[1]] - at[slab[0]]
    return SpikeRecord(at[steps], steps, slab_counts=inside, raster=raster)


def _loop(weights, drive, shape, params, links, bounds, record_raster):
    """The one time loop.  A zero state of ``shape[1:]`` steps through the
    ``shape[0]`` = T currents ``drive`` yields, adding its spikes to int64
    running counts.  Returns the counts after t steps, keyed by t, for t = T
    and each t in ``bounds``, and the ``shape`` raster if ``record_raster``."""
    state = PopulationState.zeros(*shape[1:])
    counts = np.zeros(shape[1:], dtype=np.int64)
    raster = np.zeros(shape, dtype=np.uint8) if record_raster else None
    at = {}
    for t, injected in enumerate(drive):
        if t in bounds:
            at[t] = counts.copy()
        if links is not None and state.spikes.any():
            injected = injected + links.dot(state.spikes.astype(np.float64))
        state = lif_step(state, injected, weights, params)
        counts += state.spikes
        if raster is not None:
            raster[t] = state.spikes
    at[shape[0]] = counts
    return at, raster


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
    steps, batch = stack.shape[:2]
    offsets = np.cumsum([0] + [topo.size for topo, _ in members])
    n = int(offsets[-1])  # neurons in the stacked population
    l1 = np.zeros((len(members), batch, steps)) if record_drive else None
    drive = gated_drive(stack, members, offsets, slabs, l1)
    # slab 0 is mapped before the weights are built, which lowers the peak
    drive = chain([next(drive)], drive)
    weights = sparse.block_diag(
        [topo.weight_matrix() for topo, _ in members], format="csr"
    )
    links = None
    if inter_links:
        src = np.concatenate([s + offsets[r] for r, (s, _, _) in enumerate(inter_links)])
        dst = np.concatenate([d + offsets[r + 1] for r, (_, d, _) in enumerate(inter_links)])
        weight = np.concatenate([w for _, _, w in inter_links])
        links = sparse.csr_matrix((weight, (dst, src)), shape=(n, n))
    bounds = [start for start, _, _, _ in slabs] if count_slabs else ()
    at, raster = _loop(
        weights, drive, (steps, n, batch), params, links, bounds, record_raster
    )
    cuts = list(zip(offsets[:-1], offsets[1:]))
    if count_slabs:  # one (neurons, B) difference per member, a column per sample
        inside = [at[s[1]][lo:hi] - at[s[0]][lo:hi] for s, (lo, hi) in zip(slabs, cuts)]
    samples = [
        [
            SpikeRecord(
                counts=at[steps][lo:hi, b],
                steps=steps,
                slab_counts=inside[r][:, b] if count_slabs else None,
                raster=raster[:, lo:hi, b] if record_raster else None,
                drive_l1=l1[r, b] if record_drive else None,
            )
            for r, (lo, hi) in enumerate(cuts)
        ]
        for b in range(batch)
    ]
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
