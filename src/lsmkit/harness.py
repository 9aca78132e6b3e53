"""Experiment orchestration: preprocess, build, simulate, train, report.

A run is a pure function of (config, dataset): explicit seeds drive every
random choice, so re-running a config reproduces the state vectors and
metrics bit for bit (the report carries SHA-256 hashes to check exactly
that).  A run builds one ``Engine``, its members and links, and calls it
on consecutive batches of sample files, in this process or in a pool of
worker processes that each hold a copy; results are collected in sample
order.  A batch steps its samples together, and its size comes from a
fixed memory budget (``BATCH_BYTES``); neither it nor the thread count
ever changes the output.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
import scipy
from scipy import sparse

from . import eventio
from .config import (
    FIELDS_READ, SECTIONS, ExperimentConfig, _fields_read, _section, to_dict, write_json,
)
from .ensemble import (
    DRIVE_BLOCK_STEPS,
    build_tepre,
    equal_split_schedule,
    run_mulre,
    run_tepre,
)
from .errors import ConfigError, DatasetError, check_int
from .eventio import Manifest, load_manifest
from .events import (
    EventStream,
    FrameSequence,
    bin_events,
    clip_or_pad,
    downscale,
    merge_channels,
)
from .gabor import N_KERNELS, bank_bytes, gabor_bank
from .inputs import (
    RECEPTIVE_FIELD,
    InputMap,
    InputSpec,
    ReceptiveField,
    build_input,
)
from .readout import (
    evaluate,
    extract_state,
    save_model,
    train_readout,
)
from .topology import ConnectionLaw, ReservoirTopology, build_reservoir


def member_seed(base: int, member: int) -> int:
    """Seed for member i; member 0 keeps the base seed so a one-member
    ensemble reproduces the plain single-reservoir run."""
    return base + member


def inter_link_seed(base: int, n_members: int) -> int:
    return base + n_members


def _frames(stream, cfg: ExperimentConfig, n_channels: int) -> FrameSequence:
    """One stream's count frames before the length is fixed: pool, bin, merge.

    Events at or past the end of the last step are dropped first: every
    later stage acts frame by frame and the length is clipped to ``steps``,
    so they change no rate, but binning them would allocate frames over the
    whole span up to the latest timestamp.  The events are pooled before
    they are binned, so frames are made once, at the pooled resolution;
    integer block sums are exact in any order, so the counts are those of
    pooling full-resolution frames."""
    prep = cfg.preprocessing
    if stream.n_events:
        end = stream.t[0] + prep.steps * prep.time_window
        keep = int(np.searchsorted(stream.t, end))
        if keep < stream.n_events:
            stream = replace(
                stream, t=stream.t[:keep], x=stream.x[:keep], y=stream.y[:keep],
                p=stream.p[:keep],
            )
    stream = downscale(stream, prep.downscale)
    seq = bin_events(stream, prep.time_window, n_channels=n_channels)
    if prep.merge_polarities and seq.channels > 1:
        seq = merge_channels(seq)
    return seq


def preprocess_stream(stream, cfg: ExperimentConfig, n_channels: int) -> sparse.csr_matrix:
    """(T, n) float64 CSR event counts of one stream, clipped or padded to
    ``steps``, one count frame per row; the one form rates are held in.
    Counts are 1-31% nonzero, and the ensemble makes only an open drive
    block's window of them dense.  A Gabor config filters that window, not
    the sample (see :func:`gabor_window`).  The CSR is built from the flat
    positions of the frames' nonzero counts, which are in row-major order,
    so it is canonical, its index arrays chosen as ``sparse.csr_matrix`` of
    the dense counts chooses them."""
    seq = clip_or_pad(_frames(stream, cfg, n_channels), cfg.preprocessing.steps)
    counts = seq.flat()
    steps, n = counts.shape
    flat = counts.ravel()
    nonzero = np.flatnonzero(flat)
    indptr = np.searchsorted(nonzero, np.arange(0, flat.size + 1, n))
    data = flat[nonzero].astype(np.float64)
    return sparse.csr_matrix((data, nonzero % n, indptr), shape=(steps, n))


def gabor_window(window: np.ndarray, frame: tuple[int, int, int]) -> np.ndarray:
    """A drive block's (S * B, n) float64 count window, one count frame of
    shape ``frame`` per row, through the Gabor bank: the F-ordered window
    of rates that the members map in place.  The bank acts frame by frame,
    and a zero frame of padding filters to +0.0, so a block's rates are
    those of filtering the whole clipped or padded sample, byte for byte.
    The bank writes its rates straight into that order."""
    channels, height, width = frame
    rates = np.empty((channels * N_KERNELS * height * width, window.shape[0])).T
    out = rates.reshape(-1, channels * N_KERNELS, height, width)  # a view
    gabor_bank(FrameSequence(window.reshape(-1, *frame)), out=out)
    return rates


def count_geometry(cfg: ExperimentConfig, manifest: Manifest) -> tuple[int, int, int]:
    """(channels, height, width) of the count frames :func:`preprocess_stream`
    makes of a stream from the manifest's sensor; a sensor the front end
    cannot take fails with the stage's error."""
    empty = EventStream([], [], [], [], manifest.width, manifest.height)
    return _frames(empty, cfg, manifest.channels).frames.shape[1:]


def frame_geometry(cfg: ExperimentConfig, manifest: Manifest) -> tuple[int, int, int]:
    """(channels, height, width) of the inputs each member maps: the count
    frames, or the Gabor bank's output of them, which fails on a sensor
    smaller than its kernels."""
    geometry = count_geometry(cfg, manifest)
    if cfg.preprocessing.gabor:
        empty = FrameSequence(np.zeros((0, *geometry)))
        geometry = gabor_bank(empty).frames.shape[1:]
    return geometry


# Memory one engine call may spend on what it holds per sample: its rates,
# and the count window, its Gabor rates if any, and the drive of the open
# slab's mapped block; the batch size is what fits in it.
BATCH_BYTES = 8 * 2**20

# Nonzero event counts per step the model charges a sample's CSR rates for,
# on average over its steps.  Counts per step are sparse: the SHD stand-in
# holds 8 of 700 and the synthetic set 21 of 64.
RATES_PER_STEP = 32


def expansion_bytes(cfg: ExperimentConfig, geometry: tuple[int, int, int]) -> int:
    """Bytes per row of a drive block's count window of ``geometry``-shaped
    frames that expanding it holds beside the window: none without a Gabor
    bank; with one, the C-ordered copy of the counts and the bank's own,
    its rates among them (:func:`gabor.bank_bytes`)."""
    if not cfg.preprocessing.gabor:
        return 0
    return 8 * int(np.prod(geometry)) + bank_bytes(*geometry)


def sample_bytes(cfg: ExperimentConfig, geometry: tuple[int, int, int]) -> int:
    """Bytes one fixed-length sample takes in a batch, for count frames of
    ``geometry``: over one mapped block of the drive, the longest slab's
    first ``DRIVE_BLOCK_STEPS`` steps or all of it if shorter, the float64
    input-major copy of its counts, what expanding them holds, and the
    float64 drive of the slab's members; and its rates as
    :func:`preprocess_stream` holds them, as CSR counts bound by 12 bytes (a
    float64 value and an int32 column) for each of at most
    ``RATES_PER_STEP`` nonzero counts per step, or n if fewer, and 4 bytes
    per row pointer.  Denser counts take more, up to 1.5 times their dense
    bytes.  The window is charged at its full width, an upper bound: without
    a Gabor bank a block is mapped one group of samples at a time, each
    sample over its own active inputs or, with the others whose inputs are
    all active, over every input, so the windows held at once are at most
    the charged one.  What the model leaves out is held for one member and
    one group at a time: the member's map sliced to the group's inputs, at
    most 12 bytes per edge of the map, once per call at any batch size;
    and, when a block's samples fall into more than one group, the group's
    product before it is copied into the member's drive, at most as large
    as that drive."""
    ens, steps = cfg.ensemble, cfg.preprocessing.steps
    n, member = int(np.prod(geometry)), ens.member_grid().size
    if ens.variant == "mulre":  # one slab over T drives every member
        slab, neurons = steps, len(ens.d_list) * member
    else:  # the longest of the equal slabs drives one member
        slabs = equal_split_schedule(steps, ens.partitions).intervals
        slab, neurons = max(end - start for start, end in slabs), member
    block = min(slab, DRIVE_BLOCK_STEPS)
    held = (12 * min(n, RATES_PER_STEP) + 4) * steps + 4
    return block * ((n + neurons) * 8 + expansion_bytes(cfg, geometry)) + held


def call_bytes(cfg: ExperimentConfig, manifest: Manifest, batch: int) -> int:
    """Bytes one engine call on ``batch`` samples is modelled to take: each
    sample's ``sample_bytes``, its rates and its share of one drive block,
    and once, since the files are read one at a time, the front end's
    transients.  Each stage holds its input and its output frames of T
    steps, 8 bytes a value, none larger than the pooled sensor's counts:
    the pooled counts and their merged or padded copy, say.  Frames are
    never made at full resolution (see :func:`_frames`)."""
    k = cfg.preprocessing.downscale
    pooled = manifest.channels * (manifest.height // k) * (manifest.width // k)
    front = 2 * cfg.preprocessing.steps * pooled * 8
    return front + batch * sample_bytes(cfg, count_geometry(cfg, manifest))


def batch_size(cfg: ExperimentConfig, geometry: tuple[int, int, int]) -> int:
    """Samples per engine call for count frames of ``geometry``: as many as
    fit ``BATCH_BYTES``, at least one.  The front end's transients come
    once per call at any batch size, so the budget leaves them out (see
    :func:`call_bytes`)."""
    return max(1, BATCH_BYTES // sample_bytes(cfg, geometry))


@dataclass
class Engine:
    """One run's fixed state: the seeded members and links, and the config
    that turns an event file into their drive.  Calling it on a list of
    files simulates them as one batch; it is picklable, so a process pool
    ships it to each worker once.
    """

    cfg: ExperimentConfig
    sensor: tuple[int, int, int]  # (width, height, channels) of the raw event files
    members: list[tuple[ReservoirTopology, InputMap]]
    inter_links: list | None
    frame: tuple[int, int, int]  # (channels, height, width) of a count frame

    def __call__(self, paths) -> list[tuple[np.ndarray, int]]:
        """(features, label) of each file, in order."""
        width, height, channels = self.sensor
        rates, labels = [], []
        for path in paths:
            stream = eventio.read_events(path)
            if stream.label is None:
                raise DatasetError(f"{path}: sample has no label")
            if (stream.width, stream.height) != (width, height):
                raise DatasetError(
                    f"{path}: sensor {stream.width}x{stream.height}, "
                    f"not the manifest's {width}x{height}"
                )
            labels.append(stream.label)
            try:  # the config's shape rules passed at load: this file broke one
                rates.append(preprocess_stream(stream, self.cfg, channels))
            except ConfigError as exc:
                raise DatasetError(f"{path}: {exc}") from exc
        # a lone file runs as one sample's call, its records a batch of one
        lone = len(rates) == 1
        rates = rates[0] if lone else rates
        params, steps = self.cfg.neuron, self.cfg.preprocessing.steps
        expand = None
        if self.cfg.preprocessing.gabor:  # one drive block's counts at a time
            expand = partial(gabor_window, frame=self.frame)
        if self.cfg.ensemble.variant == "mulre":
            batch = run_mulre(rates, self.members, params, expand=expand)
        else:
            schedule = equal_split_schedule(steps, len(self.members))
            batch = run_tepre(
                rates, self.members, self.inter_links, schedule, params, expand=expand
            )
        if lone:
            batch = [batch]
        return [
            (extract_state(records).features, label)
            for records, label in zip(batch, labels)
        ]


def build_members(cfg: ExperimentConfig, manifest: Manifest) -> Engine:
    """The run's engine for the event files of ``manifest``'s sensor."""
    frame_channels, height, width = frame_geometry(cfg, manifest)
    ens = cfg.ensemble
    grid = ens.member_grid()

    field = None
    if cfg.input.scheme == RECEPTIVE_FIELD:
        field = ReceptiveField(
            window=cfg.input.window,
            input_width=width,
            input_height=height,
            channels=frame_channels,
        )
    spec = InputSpec(
        n_inputs=frame_channels * height * width,
        input_weight=cfg.input.weight,
        density=cfg.input.density,
        scheme=cfg.input.scheme,
        field=field,
    )

    # tepre leaves d_list unset: its members all use the plain law
    d_values = ens.d_list or [0.0] * ens.partitions

    members = []
    for i, d in enumerate(d_values):
        law = ConnectionLaw(
            lam=cfg.connectivity.lam, d=d, c_table=dict(cfg.connectivity.c_table)
        )
        topo = build_reservoir(grid, law, cfg.neuron, member_seed(cfg.seeds.topology, i))
        imap = build_input(spec, grid, member_seed(cfg.seeds.input, i))
        members.append((topo, imap))

    inter_links = None
    if ens.variant == "tepre":
        inter_links = build_tepre(
            [topo for topo, _ in members],
            ens.inter_density,
            ens.inter_weight,
            inter_link_seed(cfg.seeds.topology, len(members)),
        )
    sensor = (manifest.width, manifest.height, manifest.channels)
    return Engine(cfg, sensor, members, inter_links, count_geometry(cfg, manifest))


_ENGINE: Engine | None = None  # set once in each pool worker process


def _install_engine(engine: Engine) -> None:
    global _ENGINE
    _ENGINE = engine


def _run_installed(paths):
    return _ENGINE(paths)


def _run_split(files: list[Path], engine: Engine, threads: int, batch: int):
    """Run the files in consecutive batches of ``batch``; a pool of
    ``threads`` workers maps whole batches."""
    batches = [files[i : i + batch] for i in range(0, len(files), batch)]
    if threads == 1:
        outputs = map(engine, batches)
    else:
        with ProcessPoolExecutor(
            max_workers=threads, mp_context=multiprocessing.get_context("spawn"),
            initializer=_install_engine, initargs=(engine,),
        ) as pool:
            outputs = list(pool.map(_run_installed, batches))
    # filled in place, so that the features are held once
    features, labels = None, np.empty(len(files), dtype=np.int64)
    results = (r for output in outputs for r in output)
    for i, (vector, label) in enumerate(results):
        if features is None:
            features = np.empty((len(files), vector.size), dtype=vector.dtype)
        features[i], labels[i] = vector, label
    return features, labels


def versions() -> dict:
    """Python, NumPy and SciPy versions, and the SIMD extensions NumPy found
    at run time where its ``show_config`` can tell (NumPy 1.26 and later):
    the low bits of the Gabor rates depend on them."""
    found = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
    except (TypeError, KeyError):  # before NumPy 1.26 it takes no mode
        return found
    return {**found, "simd_found": list(simd["found"])}


def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@dataclass
class RunReport:
    """What ``run`` writes to ``report.json``.  Its ``timings["simulate"]``
    covers reading, preprocessing, simulation and state extraction."""

    config: dict
    dataset: dict
    timings: dict
    spike_stats: dict
    train_accuracy: float
    test_accuracy: float
    confusion: list
    state_hash: dict
    artifacts: dict
    batch: int  # samples the engine stepped together per call, at most
    readout: dict  # how the readout fit ended (see readout.FitTrace)
    versions: dict  # of Python, NumPy and SciPy, and NumPy's runtime SIMD

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        write_json(self.to_dict(), path)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> RunReport:
    """Execute the full pipeline and assemble the report."""
    check_int("threads", threads)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    manifest = load_manifest(cfg.dataset_manifest)
    geometry = frame_geometry(cfg, manifest)
    timings["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    engine = build_members(cfg, manifest)
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    files = manifest.train + manifest.test
    # no bigger than one worker's share, so that every worker gets a batch
    share = -(-len(files) // threads)
    cap = max(1, min(batch_size(cfg, engine.frame), share))
    # as few calls as the cap allows, filled evenly: 48 synth-tepre3 files
    # under a cap of 37 ran 4% slower as 37 + 11 than as 24 + 24
    calls = -(-len(files) // cap)
    batch = -(-len(files) // calls)
    features, labels = _run_split(files, engine, threads, batch)
    n_train = len(manifest.train)
    x_train, x_test = features[:n_train], features[n_train:]
    y_train, y_test = labels[:n_train], labels[n_train:]
    timings["simulate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    model = train_readout((x_train, y_train), cfg.readout)
    timings["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    train_metrics = evaluate(model, (x_train, y_train))
    test_metrics = evaluate(model, (x_test, y_test))
    timings["evaluate"] = time.perf_counter() - t0

    sizes = [topo.size for topo, _ in engine.members]
    bounds = np.cumsum([0] + sizes)
    total_steps = len(files) * cfg.preprocessing.steps
    # each member's column block of spike counts, held exactly in float64
    totals = [int(features[:, lo:hi].sum()) for lo, hi in zip(bounds[:-1], bounds[1:])]
    spike_stats = {
        "members": [
            {"neurons": n, "mean_rate": total / (n * total_steps), "total_spikes": total}
            for n, total in zip(sizes, totals)
        ],
    }

    artifacts: dict[str, str] = {}
    if cfg.output_dir:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        model_path = out / "readout_model.txt"
        save_model(model, model_path)
        artifacts["model"] = str(model_path)

    report = RunReport(
        config=to_dict(cfg),
        dataset={
            "manifest": str(cfg.dataset_manifest),
            "n_train": len(manifest.train),
            "n_test": len(manifest.test),
            "classes": [int(c) for c in model.classes],
            "frame_shape": list(geometry),
        },
        timings=timings,
        spike_stats=spike_stats,
        train_accuracy=train_metrics.accuracy,
        test_accuracy=test_metrics.accuracy,
        confusion=test_metrics.confusion.tolist(),
        state_hash={
            "train": _sha256(x_train),
            "test": _sha256(x_test),
            "labels_train": _sha256(y_train),
            "labels_test": _sha256(y_test),
        },
        artifacts=artifacts,
        batch=batch,
        readout=asdict(model.fit),
        versions=versions(),
    )
    if cfg.output_dir:
        report.save(Path(cfg.output_dir) / "report.json")
    return report


SWEEP_AXES = ("partitions", "d_list", "window")


def sweep_config(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """A copy of the config with one swept hyperparameter replaced, its
    section rebuilt and checked as if read from a config file."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")
    ens, inp = cfg.ensemble, cfg.input
    for name, kind in (("ensemble", ens.variant), ("input", inp.scheme)):
        if axis in FIELDS_READ[kind]:
            raw = {**_fields_read(getattr(cfg, name), kind), axis: value}
            return replace(cfg, **{name: _section(SECTIONS[name], raw, name)})
    raise ConfigError(f"{axis} axis does not apply to {ens.variant} with {inp.scheme} input")


def run_sweep(
    cfg: ExperimentConfig,
    axis: str,
    values: list,
    repeats: int = 3,
    threads: int = 1,
) -> dict:
    """One run per (value, seed repeat) with shared seed sets across values.

    Repeats shift every seed by the repeat index so that accuracy spread
    over seeds is visible next to the axis effect.
    """
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    check_int("repeats", repeats)
    configs = [sweep_config(cfg, axis, v) for v in values]  # checked before any run
    rows = []
    for value, vcfg in zip(values, configs):
        accs, reports = [], []
        for j in range(repeats):
            seeds = {k: v + 1000 * j for k, v in asdict(cfg.seeds).items()}
            rcfg = replace(vcfg, seeds=replace(cfg.seeds, **seeds), output_dir=None)
            report = run_experiment(rcfg, threads=threads)
            accs.append(report.test_accuracy)
            reports.append(report.to_dict())
        rows.append(
            {
                "value": value,
                "test_accuracy_mean": float(np.mean(accs)),
                "test_accuracy_std": float(np.std(accs)),
                "per_seed": accs,
                "reports": reports,
            }
        )
    return {"axis": axis, "repeats": repeats, "rows": rows}


def sweep_table(result: dict) -> str:
    lines = [f"{result['axis']:>12}  mean_acc  std      per-seed"]
    for row in result["rows"]:
        per_seed = " ".join(f"{a:.4f}" for a in row["per_seed"])
        lines.append(
            f"{str(row['value']):>12}  {row['test_accuracy_mean']:.4f}    "
            f"{row['test_accuracy_std']:.4f}   {per_seed}"
        )
    return "\n".join(lines)
