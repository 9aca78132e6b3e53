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
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import eventio
from .config import FIELDS_READ, ExperimentConfig, Seeds, to_dict
from .ensemble import (
    build_tepre,
    equal_split_schedule,
    run_mulre,
    run_tepre,
)
from .errors import ConfigError, DatasetError
from .events import (
    bin_events,
    clip_or_pad,
    downscale,
    frames_to_spike_drive,
    merge_channels,
)
from .gabor import N_KERNELS, gabor_bank
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


@dataclass
class Manifest:
    width: int
    height: int
    channels: int
    train: list[Path]
    test: list[Path]


def load_manifest(path) -> Manifest:
    path = Path(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise DatasetError(f"dataset manifest not found: {path}")
    except ValueError as exc:
        raise DatasetError(f"dataset manifest {path} is not valid JSON: {exc}")
    base = path.parent
    try:
        manifest = Manifest(
            width=int(data["width"]),
            height=int(data["height"]),
            channels=int(data.get("channels", 2)),
            train=[base / p for p in data["train"]],
            test=[base / p for p in data["test"]],
        )
    except KeyError as exc:
        raise DatasetError(f"dataset manifest {path} has no key {exc}")
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"dataset manifest {path} is malformed: {exc}")
    for split in ("train", "test"):
        if not getattr(manifest, split):
            raise DatasetError(f"dataset manifest {path} lists no {split} samples")
    return manifest


def preprocess_stream(stream, cfg: ExperimentConfig, n_channels: int) -> np.ndarray:
    """(T, n_inputs) float64 input rates of one event stream: bin, pool,
    merge polarities, filter, fix the length, flatten."""
    prep = cfg.preprocessing
    seq = bin_events(stream, prep.time_window, n_channels=n_channels)
    if prep.downscale > 1:
        seq = downscale(seq, prep.downscale)
    if prep.merge_polarities and seq.channels > 1:
        seq = merge_channels(seq)
    if prep.gabor:
        seq = gabor_bank(seq)
    seq = clip_or_pad(seq, prep.steps)
    return frames_to_spike_drive(seq)


def frame_geometry(cfg: ExperimentConfig, manifest: Manifest) -> tuple[int, int, int]:
    """(channels, height, width) of preprocessed frames."""
    prep = cfg.preprocessing
    h, w = manifest.height, manifest.width
    if prep.downscale > 1:
        if h % prep.downscale or w % prep.downscale:
            raise ConfigError(
                f"sensor {w}x{h} not divisible by downscale {prep.downscale}"
            )
        h //= prep.downscale
        w //= prep.downscale
    c = 1 if prep.merge_polarities else manifest.channels
    if prep.gabor:
        c *= N_KERNELS
    return c, h, w


# Memory one engine call may spend on its samples' rates and on the window
# copy and drive of the open slab; the batch size is what fits in it.
BATCH_BYTES = 8 * 2**20


def sample_bytes(cfg: ExperimentConfig, geometry: tuple[int, int, int]) -> int:
    """Bytes one fixed-length sample takes in a batch: its float64 input
    rates over T steps, and over the longest slab the float64 input-major
    copy of its rates and the float64 drive of the slab's members."""
    ens, steps = cfg.ensemble, cfg.preprocessing.steps
    n_inputs, member = int(np.prod(geometry)), ens.member_grid().size
    if ens.variant == "mulre":  # one slab over T drives every member
        window, neurons = steps, len(ens.d_list) * member
    else:  # the longest of the equal slabs drives one member
        window, neurons = -(-steps // ens.partitions), member
    return (steps * n_inputs + window * (n_inputs + neurons)) * 8


def batch_size(cfg: ExperimentConfig, geometry: tuple[int, int, int]) -> int:
    """Samples per engine call: as many as fit ``BATCH_BYTES``, at least
    one."""
    return max(1, BATCH_BYTES // sample_bytes(cfg, geometry))


@dataclass
class Engine:
    """One run's fixed state: the seeded members and links, and the config
    that turns an event file into their drive.  Calling it on a list of
    files simulates them as one batch; it is picklable, so a process pool
    ships it to each worker once.
    """

    cfg: ExperimentConfig
    channels: int  # polarity channels of the raw event files
    members: list[tuple[ReservoirTopology, InputMap]]
    inter_links: list | None

    def __call__(self, paths) -> list[tuple[np.ndarray, int]]:
        """(features, label) of each file, in order."""
        steps, n_inputs = self.cfg.preprocessing.steps, self.members[0][1].n_inputs
        # B > 1 samples' rates fill one array; a lone file's are a view of its own
        rates = np.empty((steps, len(paths), n_inputs)) if len(paths) > 1 else None
        labels = []
        for b, path in enumerate(paths):
            stream = eventio.read_events(path)
            if stream.label is None:
                raise DatasetError(f"{path}: sample has no label")
            labels.append(stream.label)
            sample = preprocess_stream(stream, self.cfg, self.channels)
            if sample.shape[1] != n_inputs:  # a sensor other than the manifest's
                raise DatasetError(f"{path}: {sample.shape[1]} inputs, not {n_inputs}")
            if rates is None:
                rates = sample[:, None]
            else:
                rates[:, b] = sample
        params = self.cfg.neuron
        if self.cfg.ensemble.variant == "mulre":
            batch = run_mulre(rates, self.members, params)
        else:
            schedule = equal_split_schedule(steps, len(self.members))
            batch = run_tepre(rates, self.members, self.inter_links, schedule, params)
        return [
            (extract_state(records).features, label)
            for records, label in zip(batch, labels)
        ]


def build_members(
    cfg: ExperimentConfig, geometry: tuple[int, int, int], channels: int
) -> Engine:
    """The run's engine for preprocessed frames of ``geometry`` cut from
    event files with ``channels`` polarity channels."""
    frame_channels, height, width = geometry
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
    return Engine(cfg, channels, members, inter_links)


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
    if threads <= 1:
        outputs = map(engine, batches)
    else:
        with ProcessPoolExecutor(
            max_workers=threads, initializer=_install_engine, initargs=(engine,)
        ) as pool:
            outputs = list(pool.map(_run_installed, batches))
    results = [r for output in outputs for r in output]
    features = np.stack([r[0] for r in results])
    labels = np.array([r[1] for r in results], dtype=np.int64)
    return features, labels


def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@dataclass
class RunReport:
    config: dict
    dataset: dict
    timings: dict
    spike_stats: dict
    train_accuracy: float
    test_accuracy: float
    confusion: list
    state_hash: dict
    artifacts: dict
    batch: int  # samples the engine stepped together per call
    readout: dict  # the readout fit's epochs, grad_norm and converged flag

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> RunReport:
    """Execute the full pipeline and assemble the report."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    manifest = load_manifest(cfg.dataset_manifest)
    geometry = frame_geometry(cfg, manifest)
    timings["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    engine = build_members(cfg, geometry, manifest.channels)
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    files = manifest.train + manifest.test
    # no bigger than one worker's share, so that every worker gets a batch
    share = -(-len(files) // max(threads, 1))
    batch = max(1, min(batch_size(cfg, geometry), share))
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
    )
    if cfg.output_dir:
        report.save(Path(cfg.output_dir) / "report.json")
    return report


SWEEP_AXES = {"partitions": int, "d_list": lambda v: tuple(map(float, v)), "window": int}


def sweep_config(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """A copy of the config with one swept hyperparameter replaced."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; pick one of {tuple(SWEEP_AXES)}")
    ens, inp = cfg.ensemble, cfg.input
    for name, kind in (("ensemble", ens.variant), ("input", inp.scheme)):
        if axis in FIELDS_READ[kind]:
            section = replace(getattr(cfg, name), **{axis: SWEEP_AXES[axis](value)})
            return replace(cfg, **{name: section})
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
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    rows = []
    for value in values:
        vcfg = sweep_config(cfg, axis, value)
        accs = []
        reports = []
        for j in range(repeats):
            seeds = Seeds(
                topology=cfg.seeds.topology + 1000 * j,
                input=cfg.seeds.input + 1000 * j,
                training=cfg.seeds.training + 1000 * j,
            )
            rcfg = replace(vcfg, seeds=seeds, output_dir=None)
            report = run_experiment(rcfg, threads=threads)
            accs.append(report.test_accuracy)
            reports.append(report.to_dict())
        rows.append(
            {
                "value": value if axis != "d_list" else list(value),
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
