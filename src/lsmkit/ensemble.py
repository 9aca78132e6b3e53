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
step copies into one step buffer, so a run holds one block's windows and
drive however long its slabs are.  Each sample's block of counts is mapped
over its own active inputs only, the ones with a count stored in it, and
the samples whose inputs are all active share one whole-map product; this
gives the drive of every input byte for byte.  A caller may expand each
window first, row by row: the harness filters count frames with a Gabor
bank that way, one block at a time.  The counts are cut per sample and
member.

The recurrent weights, with the inter-partition links stacked below them,
are held as one CSC matrix, and each step's sum of it over the previous
spikes is one :func:`~lsmkit.neurons.fired_sum`: its top rows are the
recurrent current, its bottom rows the link current.  It adds up only the
fired columns when firing is sparse, and gives the whole product's bytes
either way; the spike counts then add the same fired pairs.  Every weight
is checked to be finite before the first step, since a gathered sum reads
a weight only once its source fires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, NumericsError, check_int, check_real
from .inputs import InputMap
from .neurons import NeuronParams, PopulationState, fired_pairs, fired_sum, lif_step
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
    read in place, any other layout is first copied into that order.  A
    count block's window reaches it over the block's active inputs only,
    with ``imap`` sliced to those columns for the call (see
    :func:`gated_drive`), so its ``n_edges`` are the edges it multiplies.
    """
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 2 or rates.shape[1] != imap.n_inputs:
        raise ConfigError(
            f"rates shape {rates.shape} does not match {imap.n_inputs} inputs"
        )
    return imap.matrix.dot(rates.T).T


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


# Steps a slab's drive is mapped in at a time: a block's window copy, its
# expansion and its drive are what an open slab holds, whatever its length.
# Each output sums its terms per step and an expansion acts row by row, so
# the block size bounds memory only.  A Gabor bank run per block reuses
# freed pages: on the nmnist-mulre3 stand-in a bank call takes 0 minor
# faults at the median and about 500 in the first two calls of a process,
# against a median of 3.2k and up to 6k per whole-sample call before
# (getrusage around each call, 2 runs of 6 samples).
DRIVE_BLOCK_STEPS = 50


def gated_drive(samples, members, offsets, slabs, l1=None, expand=None):
    """Yield each step's (N, B) injected current of B samples stepped together.

    ``slabs`` tile [0, T) in order as (start, end, first member, last
    member + 1): those members, whose neuron blocks start at ``offsets``,
    map ``samples``, a list of B (T, n) rate matrices (sparse ones
    canonical CSR), through their input maps and are driven only inside
    [start, end).  A slab's drive is mapped in blocks of at most
    ``DRIVE_BLOCK_STEPS`` steps as the loop reaches them: every member maps
    each input-major window of the block's rates into its own (neurons,
    steps, B) block, and each step copies each block's column into its
    member's rows of the one step buffer.

    A block of counts is mapped one group of samples at a time
    (:func:`_sample_groups`): each sample with an input silent in the block
    alone, over its own active inputs, those stored in its rows, and the
    samples whose inputs are all active together, over every input.  A
    group's window holds only its inputs, and each member maps it through
    its map's columns of them, sliced for the call: at most 12 bytes (a
    float64 weight and an int32 row) per edge of the map.  An inactive
    input's terms are its zero rate times a finite weight, ±0.0, and each
    output's sum starts at +0.0 and adds its other terms in the same
    ascending input order, so the drive is that of the whole map, byte for
    byte.  A block through ``expand``, which turns the (S * B, n) window of
    every count into the F-ordered (S * B, n_inputs) one the members map,
    row by row, so that no row depends on the block it falls in, is one
    group over every input.  One group of every sample maps straight into
    the members' blocks; otherwise each group's product is copied into its
    samples' columns of them and dropped.  Each window goes once mapped,
    the blocks before the next block is mapped; a slab's rows are zeroed as
    it closes.  A given ``l1[r, b]`` gets the (T,) L1 norm of member r's
    drive into b.
    """
    batch = len(samples)
    buffer = np.zeros((offsets[-1], batch))
    everyone = list(range(batch))
    for start, end, first, last in slabs:
        targets = [buffer[offsets[r] : offsets[r + 1]] for r in range(first, last)]
        for lo in range(start, end, DRIVE_BLOCK_STEPS):
            hi = min(lo + DRIVE_BLOCK_STEPS, end)
            groups = [(everyone, None)] if expand is not None else _sample_groups(samples, lo, hi)
            alone = len(groups) == 1  # then its group is every sample, in order
            blocks = [None if alone else np.empty((len(t), hi - lo, batch)) for t in targets]
            for group, active in groups:
                # rows ordered (step, sample): one mapping call drives the group
                window = _window([samples[b] for b in group], lo, hi, active)
                if expand is not None:
                    window = expand(window)
                for i in range(last - first):
                    imap = _map_of(members[first + i][1], active)
                    mapped = drive_through_map(window, imap).T.reshape(-1, hi - lo, len(group))
                    if alone:
                        blocks[i] = mapped
                    else:
                        blocks[i][:, :, group] = mapped
                del window, mapped
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
    """A sample as CSR with one stored entry per (step, input), so a window
    reads its steps' entries by row pointer.  A dense one is made float64,
    its -0.0 unstored (a sum from +0.0 never becomes -0.0); a sparse one is
    copied to be made canonical, so the caller's matrix is left as it was."""
    if not sparse.issparse(sample):
        return sparse.csr_matrix(np.asarray(sample, dtype=np.float64))
    sample = sample.tocsr()
    if not sample.has_canonical_format:
        sample = sample.copy()
        sample.sum_duplicates()
    return sample


def _sample_groups(samples, start, end) -> list[tuple[list[int], np.ndarray | None]]:
    """How B samples' canonical CSR rows [start, end) are mapped: as
    (samples, ascending active inputs) groups, one per sample with an input
    not stored in those rows, marked from its column indices alone, and
    first, if any sample has every input stored, one (samples, None) group
    of all such samples."""
    whole, groups = [], []
    for b, sample in enumerate(samples):
        active = np.zeros(sample.shape[1], dtype=bool)
        active[sample.indices[sample.indptr[start] : sample.indptr[end]]] = True
        if active.all():
            whole.append(b)
        else:
            groups.append(([b], np.flatnonzero(active)))
    return ([(whole, None)] if whole else []) + groups


def _window(samples, start, end, active=None) -> np.ndarray:
    """Steps [start, end) of B samples' canonical CSR rates scattered into
    one F-ordered float64 (S * B, k) array of zeros, row t * B + b holding
    step start + t of sample b, so only a window is ever dense.  Its k
    columns are the ascending ``active`` inputs, which hold every stored
    entry of those rows, or all n inputs when ``active`` is None."""
    batch = len(samples)
    width = samples[0].shape[1] if active is None else active.size
    window = np.zeros(((end - start) * batch, width), order="F")
    for b, sample in enumerate(samples):
        ptr = sample.indptr[start : end + 1]
        rows = np.repeat(np.arange(b, window.shape[0], batch), np.diff(ptr))
        columns = sample.indices[ptr[0] : ptr[-1]]
        if active is not None:
            columns = np.searchsorted(active, columns)
        window[rows, columns] = sample.data[ptr[0] : ptr[-1]]
    return window


def _map_of(imap: InputMap, active) -> InputMap:
    """``imap`` over the ascending ``active`` inputs only, or all of it when
    ``active`` is None.  Slicing copies each kept column as it is stored,
    so the columns keep the sampler's order."""
    return imap if active is None else InputMap(imap.matrix[:, active], imap.seed)


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
    ``record_raster``.  ``weights`` is converted to CSC once, if it is not,
    a mis-shaped one raises ``ConfigError`` and a non-finite weight
    ``NumericsError``, both before the first step.
    """
    steps = drive.shape[0]
    if slab is not None and not 0 <= slab[0] <= slab[1] <= steps:
        raise ConfigError(f"slab {slab} does not lie in [0, {steps}]")
    at, raster = _loop(weights, drive, drive.shape, params, None, slab or (), record_raster)
    inside = None if slab is None else at[slab[1]] - at[slab[0]]
    return SpikeRecord(at[steps], slab_counts=inside, raster=raster)


def _loop(weights, drive, shape, params, links, bounds, record_raster):
    """The one time loop.  A zero state of ``shape[1:]`` = (N[, B]) steps
    through the ``shape[0]`` = T currents ``drive`` yields, adding its spikes
    to int64 running counts.  Spikes through the optional (N x N) ``links``,
    like recurrent ones, arrive one step later; they are added to the
    injected current, not to the recurrent sum, so a stacked ensemble sums
    in the same order as its members stepped one by one.  The one state is
    stepped in place.  Returns the counts after t steps, keyed by t, for
    t = T and each t in ``bounds``, and the ``shape`` raster if
    ``record_raster``.

    The (N x N) ``weights``, None for an unconnected population, and the
    links below them make one CSC matrix, built and checked once per call:
    its shape, and every stored weight's finiteness, since :func:`fired_sum`
    reads a weight only once its source fires.  Each step takes one
    :func:`fired_sum` of it over the previous spikes, whose rows [:N] are
    the recurrent sum and rows [N:] the link sum.  The step's current is
    added into the link rows in place, and :func:`lif_step` uses the
    recurrent rows as its scratch, so a step makes no (N[, B]) array
    beyond that sum (after a step with no spike there is no sum, and
    :func:`lif_step` makes its one scratch); ``drive``'s arrays are only
    read.  The same
    :func:`fired_pairs` add those spikes to the counts, one step late; the
    last step's spikes are added after the loop."""
    n = shape[1]
    matrix = _stacked(weights, links, n)
    state = PopulationState.zeros(*shape[1:])
    counts = np.zeros(shape[1:], dtype=np.int64)
    flat_counts = counts.reshape(-1)  # a view: the spikes' flat order
    raster = np.zeros(shape, dtype=np.uint8) if record_raster else None
    at = {}
    for t, injected in enumerate(drive):
        pairs = fired_pairs(state.spikes)
        if pairs is None:
            counts += state.spikes
        else:  # each fired pair once
            flat_counts[pairs] += 1
        if t in bounds:
            at[t] = counts.copy()
        summed = None if matrix is None else fired_sum(matrix, state.spikes, pairs)
        recurrent = None if summed is None else summed[:n]
        if summed is not None and links is not None:
            injected = np.add(summed[n:], injected, out=summed[n:])
        lif_step(state, injected, recurrent, params, out=state)
        if raster is not None:
            raster[t] = state.spikes
    counts += state.spikes
    at[shape[0]] = counts
    return at, raster


def _stacked(weights, links, n):
    """The (N x N) ``weights`` with the (N x N) ``links``, if any, below
    them, as one CSC matrix whose shape and weights are checked, or None
    for an unconnected population, which has no links."""
    if weights is None:
        return None
    blocks = [weights] if links is None else [weights, links]
    for m in blocks:
        if m.shape != (n, n):
            raise ConfigError(f"weight matrix {m.shape} does not match population {n}")
    matrix = blocks[0].tocsc() if len(blocks) == 1 else sparse.vstack(blocks, format="csc")
    if not np.isfinite(matrix.data).all():
        raise NumericsError("non-finite weight")
    return matrix


def _run_stacked(
    rates,
    members: list[tuple[ReservoirTopology, InputMap]],
    intervals: tuple[tuple[int, int], ...] | None,
    inter_links: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    params: NeuronParams,
    *,
    record_raster: bool = False,
    record_drive: bool = False,
    expand=None,
) -> list:
    """Step the members as one population and cut its record per member.

    ``rates`` is one sample's (T, n_inputs) input rates, dense or sparse,
    or a list of B such matrices; the result is then one list of member
    records per sample.  With ``expand`` the rates are (T, n) and each
    drive block's window goes through it first (see :func:`gated_drive`).
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
    drive = gated_drive(samples, members, offsets, slabs, l1, expand)
    weights = sparse.block_diag([topo.matrix for topo, _ in members], format="csc")
    links = None
    if inter_links:
        src = np.concatenate([s + offsets[r] for r, (s, _, _) in enumerate(inter_links)])
        dst = np.concatenate([d + offsets[r + 1] for r, (_, d, _) in enumerate(inter_links)])
        weight = np.concatenate([w for _, _, w in inter_links])
        links = sparse.csc_matrix((weight, (dst, src)), shape=(n, n))
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
    expand=None,
) -> list[SpikeRecord]:
    """Simulate every ensemble member independently on the same input.

    ``rates`` is the (T, n_inputs) frame-derived drive shared by all
    members, dense or sparse; each member maps it through its own input
    wiring.  Members never interact, so zeroing one member's input silences
    only it.  A list of B samples' rates is stepped together and gives one
    list of member records per sample, each bit-identical to that sample's
    own call.  A row-wise ``expand`` maps each drive block's (S * B, n)
    window of (T, n) rates to the window of inputs (see :func:`gated_drive`).
    """
    return _run_stacked(
        rates, members, None, [], params, record_raster=record_raster, expand=expand
    )


def check_inter_links(inter_density: float, inter_weight: float) -> None:
    """The rule on inter-partition couplings, also checked at config load."""
    check_real("inter_weight", inter_weight, below=0)  # the links inhibit
    check_real("inter_density", inter_density, at_least=0, at_most=1)


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
    expand=None,
) -> list[SpikeRecord]:
    """Lockstep simulation of all partitions with gated input injection.

    At step t the input drive goes only into the partition whose interval
    contains t; every partition's recurrent dynamics run for all T steps
    and spikes cross the inter-partition links with the standard one-step
    delay.  With no inter links the per-partition records are bit-identical
    to independent runs on the gated drive.  ``rates`` and ``expand`` take
    the forms :func:`run_mulre` takes.
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
        record_raster=record_raster, record_drive=record_drive, expand=expand,
    )
