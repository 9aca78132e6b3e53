"""Experiment configuration: JSON-backed, explicit seeds, lossless round-trip.

A config file is one JSON object with the sections below.  Every value the
pipeline consumes lives here; nothing is drawn from implicit entropy.

    {
      "dataset":       {"manifest": "synth/manifest.json"},
      "preprocessing": {"time_window": 1000, "downscale": 1, "gabor": false,
                        "merge_polarities": true, "steps": null},
      "neuron":        {"tau_v": 16, "tau_u": 16, "theta": 20, "dt": 1,
                        "w_lsm": 1},
      "connectivity":  {"lam": 2.0, "c_table": {"EE": 0.2, "EI": 0.1,
                        "IE": 0.05, "II": 0.3}},
      "input":         {"weight": 8.0, "density": 0.15,
                        "scheme": "standard", "window": 5},
      "ensemble":      {"variant": "tepre", "partitions": 3,
                        "dims": [5, 5, 24], "inter_density": 0.01,
                        "inter_weight": -1.0}
                    or {"variant": "mulre", "d_list": [0, 4, 6],
                        "member_dims": [10, 10, 12]},
      "readout":       {"l2": 1e-4, "learning_rate": 0.5, "epochs": 500,
                        "tolerance": 1e-6},
      "seeds":         {"topology": 1, "input": 2, "training": 3},
      "output_dir":    "runs/example"
    }

Relative manifest paths resolve against LSMKIT_DATA_ROOT when that
environment variable is set (with no fallback when the file is missing
there), else against the config file's directory.

The training seed is reserved and unused: the readout's gradient descent
starts from zero weights and draws no random numbers.  The readout always
trains on each member's spike counts over the full presentation window.

Input weight and density carry no published reference values; the shipped
defaults (8.0 / 0.15) are engineering choices and should be treated as
sweep candidates.  The same holds for lam = 2.0, the customary local-law
length scale.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .errors import ConfigError
from .inputs import RECEPTIVE_FIELD, STANDARD
from .neurons import NeuronParams
from .readout import ReadoutConfig
from .topology import DEFAULT_C_TABLE

DATA_ROOT_ENV = "LSMKIT_DATA_ROOT"


@dataclass(frozen=True)
class PreprocessingConfig:
    time_window: int = 1000
    downscale: int = 1
    gabor: bool = False
    merge_polarities: bool = True
    steps: int | None = None  # clip/pad to a fixed presentation length

    def __post_init__(self):
        if self.time_window <= 0:
            raise ConfigError("time_window must be positive")
        if self.downscale < 1:
            raise ConfigError("downscale factor must be >= 1")
        if self.steps is not None and self.steps < 1:
            raise ConfigError(f"steps must be >= 1 or null, not {self.steps}")


@dataclass(frozen=True)
class ConnectivityConfig:
    lam: float = 2.0
    c_table: dict = field(default_factory=lambda: dict(DEFAULT_C_TABLE))


@dataclass(frozen=True)
class InputConfig:
    weight: float = 8.0
    density: float = 0.15
    scheme: str = STANDARD
    window: int = 5

    def __post_init__(self):
        if self.scheme not in (STANDARD, RECEPTIVE_FIELD):
            raise ConfigError(f"unknown input scheme {self.scheme!r}")


@dataclass(frozen=True)
class EnsembleConfig:
    variant: str
    # tepre: total grid split into equal slabs along z
    partitions: int = 1
    dims: tuple[int, int, int] | None = None
    inter_density: float = 0.01
    inter_weight: float = -1.0
    # mulre: one member per distance offset
    d_list: tuple[float, ...] | None = None
    member_dims: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.variant not in ("tepre", "mulre"):
            raise ConfigError(f"unknown ensemble variant {self.variant!r}")
        if self.variant == "tepre":
            if self.dims is None:
                raise ConfigError("tepre needs total grid dims")
            if self.partitions < 1:
                raise ConfigError("partitions must be >= 1")
            if self.dims[2] % self.partitions != 0:
                raise ConfigError(
                    f"nz={self.dims[2]} not divisible into {self.partitions} partitions"
                )
        else:
            if not self.d_list:
                raise ConfigError("mulre needs a nonempty d_list")
            if self.member_dims is None:
                raise ConfigError("mulre needs member_dims")

    @property
    def n_members(self) -> int:
        return self.partitions if self.variant == "tepre" else len(self.d_list)

    def member_grid(self) -> tuple[int, int, int]:
        if self.variant == "tepre":
            nx, ny, nz = self.dims
            return nx, ny, nz // self.partitions
        return tuple(self.member_dims)


@dataclass(frozen=True)
class Seeds:
    topology: int = 1
    input: int = 2
    training: int = 3


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_manifest: str
    preprocessing: PreprocessingConfig = PreprocessingConfig()
    neuron: NeuronParams = NeuronParams()
    connectivity: ConnectivityConfig = ConnectivityConfig()
    input: InputConfig = InputConfig()
    ensemble: EnsembleConfig = EnsembleConfig(variant="tepre", dims=(5, 5, 24))
    readout: ReadoutConfig = ReadoutConfig()
    seeds: Seeds = Seeds()
    output_dir: str | None = None

    def __post_init__(self):
        # The spatial ensemble exists to pair with windowed input; the
        # temporal ensemble is defined over flat input only.
        if self.ensemble.variant == "mulre" and self.input.scheme != RECEPTIVE_FIELD:
            raise ConfigError("mulre requires receptive-field input")
        if self.ensemble.variant == "tepre" and self.input.scheme != STANDARD:
            raise ConfigError("tepre requires standard input")


def to_dict(cfg: ExperimentConfig) -> dict:
    out = {
        "dataset": {"manifest": cfg.dataset_manifest},
        "preprocessing": asdict(cfg.preprocessing),
        "neuron": asdict(cfg.neuron),
        "connectivity": asdict(cfg.connectivity),
        "input": asdict(cfg.input),
        "readout": asdict(cfg.readout),
        "seeds": asdict(cfg.seeds),
        "output_dir": cfg.output_dir,
    }
    ens = cfg.ensemble
    if ens.variant == "tepre":
        out["ensemble"] = {
            "variant": "tepre",
            "partitions": ens.partitions,
            "dims": list(ens.dims),
            "inter_density": ens.inter_density,
            "inter_weight": ens.inter_weight,
        }
    else:
        out["ensemble"] = {
            "variant": "mulre",
            "d_list": list(ens.d_list),
            "member_dims": list(ens.member_dims),
        }
    return out


def _section(cls, raw: dict, name: str):
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad {name} section: {exc}")


def from_dict(data: dict) -> ExperimentConfig:
    try:
        dataset = data["dataset"]["manifest"]
    except (KeyError, TypeError):
        raise ConfigError("config needs dataset.manifest")
    prep = _section(PreprocessingConfig, data.get("preprocessing", {}), "preprocessing")
    neuron = _section(NeuronParams, data.get("neuron", {}), "neuron")
    conn = _section(ConnectivityConfig, data.get("connectivity", {}), "connectivity")
    inp = _section(InputConfig, data.get("input", {}), "input")
    ens_raw = dict(data.get("ensemble", {}))
    for key in ("dims", "d_list", "member_dims"):
        if ens_raw.get(key) is not None:
            ens_raw[key] = tuple(ens_raw[key])
    ensemble = _section(EnsembleConfig, ens_raw, "ensemble")
    readout = _section(ReadoutConfig, data.get("readout", {}), "readout")
    seeds = _section(Seeds, data.get("seeds", {}), "seeds")
    return ExperimentConfig(
        dataset_manifest=dataset,
        preprocessing=prep,
        neuron=neuron,
        connectivity=conn,
        input=inp,
        ensemble=ensemble,
        readout=readout,
        seeds=seeds,
        output_dir=data.get("output_dir"),
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}")
    cfg = from_dict(data)
    manifest = resolve_data_path(cfg.dataset_manifest, path.parent)
    return replace(cfg, dataset_manifest=str(manifest))


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(cfg), fh, indent=1)
        fh.write("\n")


def resolve_data_path(path_str: str, config_dir: Path) -> Path:
    """Absolute as-is; else under $LSMKIT_DATA_ROOT if set, else beside the config."""
    p = Path(path_str)
    if p.is_absolute():
        return p
    root = os.environ.get(DATA_ROOT_ENV)
    return Path(root) / p if root else config_dir / p
