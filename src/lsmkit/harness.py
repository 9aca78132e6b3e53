"""Experiment orchestration: preprocess, build, simulate, train, report.

A run is a pure function of (config, dataset): explicit seeds drive every
random choice, so re-running a config reproduces the state vectors and
metrics bit for bit (the report carries SHA-256 hashes to check exactly
that).  A run builds one ``Engine``, its members and links, and calls it
on every sample file, in this process or in a pool of worker processes
that each hold a copy; results are collected in sample order so the
thread count never changes the output.
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
from .config import ExperimentConfig, Seeds, to_dict
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
from .topology import ConnectionLaw, GridDims, ReservoirTopology, build_reservoir


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
        return Manifest(
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
    if prep.steps is not None:
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


@dataclass
class Engine:
    """One run's fixed state: the seeded members and links, and the config
    that turns an event file into their drive.  Calling it simulates one
    sample; it is picklable, so a process pool ships it to each worker once.
    """

    cfg: ExperimentConfig
    channels: int  # polarity channels of the raw event files
    members: list[tuple[ReservoirTopology, InputMap]]
    inter_links: list | None

    def __call__(self, path) -> tuple[np.ndarray, int, list[int], int]:
        """(features, label, total spikes per member, steps) of one file."""
        stream = eventio.read_events(path)
        if stream.label is None:
            raise DatasetError(f"{path}: sample has no label")
        rates = preprocess_stream(stream, self.cfg, self.channels)
        steps = rates.shape[0]
        params, scale = self.cfg.neuron, self.cfg.preprocessing.input_scale
        if self.cfg.ensemble.variant == "mulre":
            records = run_mulre(rates, self.members, params, input_scale=scale)
        else:
            schedule = equal_split_schedule(steps, len(self.members))
            records = run_tepre(
                rates, self.members, self.inter_links, schedule, params,
                input_scale=scale,
            )
        state = extract_state(records, mode=self.cfg.state_mode)
        totals = [int(r.counts.sum()) for r in records]
        return state.features, stream.label, totals, steps


def build_members(
    cfg: ExperimentConfig, geometry: tuple[int, int, int], channels: int
) -> Engine:
    """The run's engine for preprocessed frames of ``geometry`` cut from
    event files with ``channels`` polarity channels."""
    frame_channels, height, width = geometry
    ens = cfg.ensemble
    grid = GridDims(*ens.member_grid())

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

    if ens.variant == "mulre":
        d_values = list(ens.d_list)
    else:
        d_values = [0.0] * ens.partitions

    lam_list = cfg.connectivity.lambda_list
    if lam_list is not None and len(lam_list) < len(d_values):
        raise ConfigError(
            f"lambda_list has {len(lam_list)} entries for {len(d_values)} members"
        )
    members = []
    for i, d in enumerate(d_values):
        law = ConnectionLaw(
            lam=cfg.connectivity.lam_for(i), d=d, c_table=dict(cfg.connectivity.c_table)
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


def _run_installed(path):
    return _ENGINE(path)


def _run_split(files: list[Path], engine: Engine, threads: int):
    if threads <= 1:
        results = [engine(p) for p in files]
    else:
        with ProcessPoolExecutor(
            max_workers=threads, initializer=_install_engine, initargs=(engine,)
        ) as pool:
            results = list(pool.map(_run_installed, files, chunksize=8))
    features = np.stack([r[0] for r in results])
    labels = np.array([r[1] for r in results], dtype=np.int64)
    spike_totals = np.array([r[2] for r in results], dtype=np.int64)
    steps = np.array([r[3] for r in results], dtype=np.int64)
    return features, labels, spike_totals, steps


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
    features, labels, all_spikes, steps = _run_split(
        manifest.train + manifest.test, engine, threads
    )
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

    member_sizes = [topo.size for topo, _ in engine.members]
    total_steps = int(steps.sum())
    spike_stats = {
        "members": [
            {
                "neurons": member_sizes[m],
                "mean_rate": float(
                    all_spikes[:, m].sum()
                    / max(member_sizes[m] * total_steps, 1)
                ),
                "total_spikes": int(all_spikes[:, m].sum()),
            }
            for m in range(len(member_sizes))
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
    )
    if cfg.output_dir:
        report.save(Path(cfg.output_dir) / "report.json")
    return report


SWEEP_AXES = ("partitions", "d_list", "window")


def sweep_config(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    """A copy of the config with one swept hyperparameter replaced."""
    if axis == "partitions":
        if cfg.ensemble.variant != "tepre":
            raise ConfigError("partitions axis applies to tepre configs")
        ens = replace(cfg.ensemble, partitions=int(value))
        return replace(cfg, ensemble=ens)
    if axis == "d_list":
        if cfg.ensemble.variant != "mulre":
            raise ConfigError("d_list axis applies to mulre configs")
        ens = replace(cfg.ensemble, d_list=tuple(float(v) for v in value))
        return replace(cfg, ensemble=ens)
    if axis == "window":
        if cfg.input.scheme != RECEPTIVE_FIELD:
            raise ConfigError("window axis applies to receptive-field input")
        return replace(cfg, input=replace(cfg.input, window=int(value)))
    raise ConfigError(f"unknown sweep axis {axis!r}; pick one of {SWEEP_AXES}")


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
