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
inter-partition links.  The drive is mapped as the loop reaches it, at most
``DRIVE_BLOCK_STEPS`` steps at a time, into one block per member that each
step copies into one step buffer, so a run holds one block's window copy
and drive however long its slabs are.  The counts are cut per sample and
member.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import sparse

from .errors import ConfigError, check_int
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
        check_int("steps", self.steps)
        check_int("partitions", self.partitions)
        if self.partitions > self.steps:
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
    slab_counts: np.ndarray | None = None  # counts inside the member's own slab
    raster: np.ndarray | None = None  # (T, N) uint8
    drive_l1: np.ndarray | None = None  # (T,) L1 norm of injected input drive


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


def _batch_shape(rates) -> tuple[int, int]:
    """(T, B) of rates over T steps: one sample's (T, n_inputs) matrix,
    dense or sparse, with B = 1, or a non-empty list of B such matrices of
    one shape."""
    samples = rates if isinstance(rates, list) else [rates]
    matrices = all(isinstance(s, np.ndarray) or sparse.issparse(s) for s in samples)
    shapes = {getattr(sample, "shape", None) for sample in samples}
    if not matrices or len(shapes) != 1 or len(next(iter(shapes))) != 2:
        raise ConfigError(
            "rates are one sample's (T, n_inputs) matrix, dense or sparse, or a "
            f"non-empty list of such matrices of one shape; got shapes {shapes}"
        )
    return next(iter(shapes))[0], len(samples)


# Steps a slab's drive is mapped in at a time: a block's window copy and
# drive are what an open slab holds, whatever its length.  Each output sums
# its terms per step, so the block size bounds memory only.  Nor does it
# move the Gabor bank's page faults, whose FFT temporaries lift glibc's mmap
# threshold (on nmnist-mulre3, 3-6k minor faults per bank call with 50-step
# blocks or whole slabs, 39k with the threshold pinned at 128 KiB).
DRIVE_BLOCK_STEPS = 50


def gated_drive(samples, members, offsets, slabs, l1=None):
    """Yield each step's (N, B) injected current of B samples stepped together.

    ``slabs`` tile [0, T) in order as (start, end, first member, last
    member + 1): those members, whose neuron blocks start at ``offsets``,
    map ``samples``, a list of B (T, n_inputs) rate matrices (sparse ones
    canonical CSR), through their input maps and are driven only inside
    [start, end).  A slab's drive is mapped in blocks of at most
    ``DRIVE_BLOCK_STEPS`` steps as the loop reaches them: every member maps
    one input-major copy of the block's rates into its own (neurons, steps,
    B) block, and each step copies each block's column into its member's
    rows of the one step buffer.  The window goes once mapped, the blocks
    before the next window is made; a slab's rows are zeroed as it closes.
    A given ``l1[r, b]`` gets the (T,) L1 norm of member r's drive into b.
    """
    batch = len(samples)
    buffer = np.zeros((offsets[-1], batch))
    for start, end, first, last in slabs:
        targets = [buffer[offsets[r] : offsets[r + 1]] for r in range(first, last)]
        for lo in range(start, end, DRIVE_BLOCK_STEPS):
            hi = min(lo + DRIVE_BLOCK_STEPS, end)
            # rows ordered (step, sample): one mapping call drives the batch
            window = _window(samples, lo, hi)
            blocks = [
                drive_through_map(window, members[r][1]).T.reshape(-1, hi - lo, batch)
                for r in range(first, last)
            ]
            del window
            if l1 is not None:  # each step's norm summed over a contiguous row
                for r in range(first, last):
                    l1[r, :, lo:hi] = np.abs(
                        np.ascontiguousarray(blocks[r - first].transpose(2, 1, 0))
                    ).sum(axis=2)
            for t in range(hi - lo):
                for i, target in enumerate(targets):
                    target[...] = blocks[i][:, t]
                yield buffer
            del blocks
        buffer[offsets[first] : offsets[last]] = 0.0


def _canonical(sample):
    """A sparse sample as CSR with one stored entry per (step, input), so a
    window reads its steps' entries by row pointer; a dense one as it is."""
    if not sparse.issparse(sample):
        return sample
    sample = sample.tocsr()
    if not sample.has_canonical_format:
        sample = sample.copy()
        sample.sum_duplicates()
    return sample


def _window(samples, start, end) -> np.ndarray:
    """Steps [start, end) of B samples' rates as one F-ordered float64
    (S * B, n_inputs) array, row t * B + b holding step start + t of sample
    b.  A sparse sample, canonical CSR, is scattered into the zeros, so only
    its window is ever dense."""
    batch = len(samples)
    window = np.zeros(((end - start) * batch, samples[0].shape[1]), order="F")
    for b, sample in enumerate(samples):
        if not sparse.issparse(sample):
            window[b::batch] = sample[start:end]
            continue
        ptr = sample.indptr[start : end + 1]
        rows = np.repeat(np.arange(b, window.shape[0], batch), np.diff(ptr))
        window[rows, sample.indices[ptr[0] : ptr[-1]]] = sample.data[ptr[0] : ptr[-1]]
    return window


def simulate_population(
    weights: sparse.spmatrix | None,
    drive: np.ndarray,
    params: NeuronParams,
    *,
    slab: tuple[int, int] | None = None,
    record_raster: bool = False,
) -> SpikeRecord:
    """Run one population for T steps from a zero state.

    ``drive`` is the pre-weighted injected current: (T, N) for one sample,
    or (T, N, B) for B samples stepped together, whose record's arrays then
    keep the trailing batch axis.  ``slab``, a part of [0, T], additionally
    counts spikes inside it.  The (T, N[, B]) uint8 raster is held only with
    ``record_raster``.
    """
    steps = drive.shape[0]
    if slab is not None and not 0 <= slab[0] <= slab[1] <= steps:
        raise ConfigError(f"slab {slab} does not lie in [0, {steps}]")
    at, raster = _loop(weights, drive, drive.shape, params, None, slab or (), record_raster)
    inside = None if slab is None else at[slab[1]] - at[slab[0]]
    return SpikeRecord(at[steps], slab_counts=inside, raster=raster)


def _loop(weights, drive, shape, params, links, bounds, record_raster):
    """The one time loop.  A zero state of ``shape[1:]`` steps through the
    ``shape[0]`` = T currents ``drive`` yields, adding its spikes to int64
    running counts.  Spikes through the optional (N x N) ``links``, like
    recurrent ones, arrive one step later; they are added to the injected
    current, not to the recurrent sum, so a stacked ensemble sums in the same
    order as its members stepped one by one.  The one state is stepped in
    place.  Returns the counts after t steps, keyed by t, for t = T and each
    t in ``bounds``, and the ``shape`` raster if ``record_raster``."""
    state = PopulationState.zeros(*shape[1:])
    counts = np.zeros(shape[1:], dtype=np.int64)
    raster = np.zeros(shape, dtype=np.uint8) if record_raster else None
    at = {}
    for t, injected in enumerate(drive):
        if t in bounds:
            at[t] = counts.copy()
        if links is not None and state.spikes.any():
            injected = injected + links.dot(state.spikes.astype(np.float64))
        lif_step(state, injected, weights, params, out=state)
        counts += state.spikes
        if raster is not None:
            raster[t] = state.spikes
    at[shape[0]] = counts
    return at, raster


def _run_stacked(
    rates,
    members: list[tuple[ReservoirTopology, InputMap]],
    intervals: tuple[tuple[int, int], ...] | None,
    inter_links: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    params: NeuronParams,
    *,
    record_raster: bool = False,
    record_drive: bool = False,
) -> list:
    """Step the members as one population and cut its record per member.

    ``rates`` is one sample's (T, n_inputs) input rates, dense or sparse,
    or a list of B such matrices; the result is then one list of member
    records per sample.
    Member r owns one block of neurons.  With ``intervals`` None one slab
    over [0, T) drives every member; otherwise member r is driven only
    inside ``intervals[r]``, the half-open slabs tiling [0, T) in order,
    and its record counts the spikes inside it.  :func:`gated_drive` maps
    each slab's drive a block of steps at a time as the loop reaches it.
    Member weights sit on the diagonal of one block-diagonal matrix; each
    r -> r+1 ``inter_links`` triple is offset into the block below it.
    """
    if not members:
        raise ConfigError("an ensemble needs at least one member")
    for topo, imap in members:
        if imap.n_reservoir != topo.size:
            raise ConfigError("input map and topology sizes disagree")
    steps, batch = _batch_shape(rates)
    single = not isinstance(rates, list)
    samples = [_canonical(s) for s in ([rates] if single else rates)]
    offsets = np.cumsum([0] + [topo.size for topo, _ in members])
    n = int(offsets[-1])  # neurons in the stacked population
    l1 = np.zeros((len(members), batch, steps)) if record_drive else None
    if intervals is None:
        slabs = [(0, steps, 0, len(members))]
    else:
        slabs = [(start, end, r, r + 1) for r, (start, end) in enumerate(intervals)]
    drive = gated_drive(samples, members, offsets, slabs, l1)
    # the first block is mapped before the weights are built: no traced peak
    # moves, but on shd-tepre6 it saved up to 15k minor faults and 5% of
    # samples/s per call (getrusage; 4 alternating perfbench pairs)
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
    bounds = () if intervals is None else [start for start, _ in intervals]
    at, raster = _loop(
        weights, drive, (steps, n, batch), params, links, bounds, record_raster
    )
    cuts = list(zip(offsets[:-1], offsets[1:]))
    if intervals is not None:  # one (neurons, B) difference per member
        inside = [at[e][lo:hi] - at[s][lo:hi] for (s, e), (lo, hi) in zip(intervals, cuts)]
    samples = [
        [
            SpikeRecord(
                counts=at[steps][lo:hi, b],
                slab_counts=None if intervals is None else inside[r][:, b],
                raster=raster[:, lo:hi, b] if record_raster else None,
                drive_l1=l1[r, b] if record_drive else None,
            )
            for r, (lo, hi) in enumerate(cuts)
        ]
        for b in range(batch)
    ]
    return samples[0] if single else samples


def run_mulre(
    rates,
    members: list[tuple[ReservoirTopology, InputMap]],
    params: NeuronParams,
    *,
    record_raster: bool = False,
) -> list[SpikeRecord]:
    """Simulate every ensemble member independently on the same input.

    ``rates`` is the (T, n_inputs) frame-derived drive shared by all
    members, dense or sparse; each member maps it through its own input
    wiring.  Members never interact, so zeroing one member's input silences
    only it.  A list of B samples' rates is stepped together and gives one
    list of member records per sample, each bit-identical to that sample's
    own call.
    """
    return _run_stacked(rates, members, None, [], params, record_raster=record_raster)


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
    rates,
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
    to independent runs on the gated drive.  ``rates`` takes the forms
    :func:`run_mulre` takes.
    """
    n_parts = len(members)
    if schedule.partitions != n_parts:
        raise ConfigError(
            f"schedule has {schedule.partitions} slabs for {n_parts} partitions"
        )
    if len(inter_links) != max(n_parts - 1, 0):
        raise ConfigError("need one inter-link entry per adjacent partition pair")
    steps = _batch_shape(rates)[0]
    if steps != schedule.steps:
        raise ConfigError(
            f"{steps} input steps do not match a {schedule.steps}-step schedule"
        )
    return _run_stacked(
        rates, members, schedule.intervals, inter_links, params,
        record_raster=record_raster, record_drive=record_drive,
    )
