"""Experiment orchestration: preprocess, build, simulate, train, report.

A run is a pure function of (config, dataset): explicit seeds drive every
random choice, so re-running a config reproduces the state vectors and
metrics bit for bit (the report carries SHA-256 hashes to check exactly
that).  Sample simulation parallelizes across processes; results are
collected in sample order so the thread count never changes the output.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
    FrameSequence,
    bin_events,
    clip_or_pad,
    downscale,
    frames_to_spike_drive,
    merge_channels,
)
from .gabor import GaborSpec, gabor_bank
from .inputs import (
    RECEPTIVE_FIELD,
    STANDARD,
    InputSpec,
    ReceptiveField,
    build_input,
)
from .neurons import NeuronParams
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
    base = path.parent
    return Manifest(
        width=int(data["width"]),
        height=int(data["height"]),
        channels=int(data.get("channels", 2)),
        train=[base / p for p in data["train"]],
        test=[base / p for p in data["test"]],
    )


def preprocess_stream(stream, cfg: ExperimentConfig, n_channels: int) -> FrameSequence:
    prep = cfg.preprocessing
    seq = bin_events(stream, prep.time_window, n_channels=n_channels)
    if prep.downscale > 1:
        seq = downscale(seq, prep.downscale)
    if prep.gabor:
        seq = gabor_bank(seq, GaborSpec(merge_polarities=prep.merge_polarities))
    elif prep.merge_polarities and seq.channels > 1:
        seq = merge_channels(seq)
    if prep.steps is not None:
        seq = clip_or_pad(seq, prep.steps)
    return seq


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
    c = manifest.channels
    if prep.gabor:
        base = 1 if (prep.merge_polarities or c == 1) else c
        c = base * GaborSpec().n_kernels
    elif prep.merge_polarities:
        c = 1
    return c, h, w


@dataclass
class SimBundle:
    """Everything needed to simulate one sample; picklable for workers."""

    variant: str
    members: list[tuple[ReservoirTopology, object]]
    inter_links: list | None
    params: NeuronParams
    input_scale: float
    state_mode: str


def _cached_reservoir(grid, law, neuron, seed, cache_dir, member):
    """Build a member topology, round-tripping through the text cache."""
    from .topology import load_topology, save_topology

    path = Path(cache_dir) / f"member_{member}_topology.txt"
    if path.exists():
        topo = load_topology(path)
        if (
            topo.dims != grid
            or topo.seed != seed
            or topo.law.lam != law.lam
            or topo.law.d != law.d
            or topo.law.c_table != law.c_table
            or np.any(np.abs(topo.weight) != neuron.w_lsm)
        ):
            raise ConfigError(f"stale topology cache at {path}; delete it to rebuild")
        return topo
    topo = build_reservoir(grid, law, neuron, seed)
    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    save_topology(topo, path)
    return topo


def build_members(
    cfg: ExperimentConfig,
    geometry: tuple[int, int, int],
    topo_cache: str | None = None,
) -> SimBundle:
    channels, height, width = geometry
    n_inputs = channels * height * width
    ens = cfg.ensemble
    grid = GridDims(*ens.member_grid())

    if cfg.input.scheme == RECEPTIVE_FIELD:
        rf = ReceptiveField(
            window=cfg.input.window,
            input_width=width,
            input_height=height,
            channels=channels,
        )
        spec = InputSpec(
            n_inputs=n_inputs,
            input_weight=cfg.input.weight,
            density=cfg.input.density,
            scheme=RECEPTIVE_FIELD,
            field=rf,
        )
    else:
        spec = InputSpec(
            n_inputs=n_inputs,
            input_weight=cfg.input.weight,
            density=cfg.input.density,
            scheme=STANDARD,
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
        seed = member_seed(cfg.seeds.topology, i)
        if topo_cache is not None:
            topo = _cached_reservoir(grid, law, cfg.neuron, seed, topo_cache, i)
        else:
            topo = build_reservoir(grid, law, cfg.neuron, seed)
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

    return SimBundle(
        variant=ens.variant,
        members=members,
        inter_links=inter_links,
        params=cfg.neuron,
        input_scale=cfg.preprocessing.input_scale,
        state_mode=cfg.state_mode,
    )


def simulate_sample(bundle: SimBundle, seq: FrameSequence):
    """Returns (features, label, total spikes per member, steps)."""
    rates = frames_to_spike_drive(seq)
    if bundle.variant == "mulre":
        records = run_mulre(
            rates, bundle.members, bundle.params, input_scale=bundle.input_scale
        )
    else:
        schedule = equal_split_schedule(seq.steps, len(bundle.members))
        records = run_tepre(
            rates,
            bundle.members,
            bundle.inter_links,
            schedule,
            bundle.params,
            input_scale=bundle.input_scale,
        )
    state = extract_state(records, mode=bundle.state_mode)
    totals = [int(r.counts.sum()) for r in records]
    return state.features, seq.label, totals, seq.steps


_WORKER: dict = {}


def _init_worker(bundle: SimBundle, cfg: ExperimentConfig, channels: int) -> None:
    _WORKER["bundle"] = bundle
    _WORKER["cfg"] = cfg
    _WORKER["channels"] = channels


def _process_file(path) -> tuple[np.ndarray, int, list[int], int]:
    stream = eventio.read_events(path)
    seq = preprocess_stream(stream, _WORKER["cfg"], _WORKER["channels"])
    if stream.label is None:
        raise DatasetError(f"{path}: sample has no label")
    return simulate_sample(_WORKER["bundle"], seq)


def _run_split(
    files: list[Path],
    bundle: SimBundle,
    cfg: ExperimentConfig,
    channels: int,
    threads: int,
):
    if threads <= 1:
        _init_worker(bundle, cfg, channels)
        results = [_process_file(p) for p in files]
    else:
        with ProcessPoolExecutor(
            max_workers=threads,
            initializer=_init_worker,
            initargs=(bundle, cfg, channels),
        ) as pool:
            results = list(pool.map(_process_file, files, chunksize=8))
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
        return {
            "config": self.config,
            "dataset": self.dataset,
            "timings": self.timings,
            "spike_stats": self.spike_stats,
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
            "confusion": self.confusion,
            "state_hash": self.state_hash,
            "artifacts": self.artifacts,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def run_experiment(
    cfg: ExperimentConfig, threads: int = 1, topo_cache: str | None = None
) -> RunReport:
    """Execute the full pipeline and assemble the report."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    manifest = load_manifest(cfg.dataset_manifest)
    geometry = frame_geometry(cfg, manifest)
    timings["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    bundle = build_members(cfg, geometry, topo_cache=topo_cache)
    timings["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    features, labels, all_spikes, steps = _run_split(
        manifest.train + manifest.test, bundle, cfg, manifest.channels, threads
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

    member_sizes = [topo.size for topo, _ in bundle.members]
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
