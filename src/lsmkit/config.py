"""Experiment configuration: JSON-backed, explicit seeds, lossless round-trip.

A config file is one JSON object with the sections below.  Every value the
pipeline consumes lives here; nothing is drawn from implicit entropy.

    {
      "dataset":       {"manifest": "synth/manifest.json"},
      "preprocessing": {"time_window": 1000, "downscale": 1, "gabor": false,
                        "merge_polarities": true, "steps": 300},
      "neuron":        {"tau_v": 16, "tau_u": 16, "theta": 20, "dt": 1,
                        "w_lsm": 1},
      "connectivity":  {"lam": 2.0, "c_table": {"EE": 0.2, "EI": 0.1,
                        "IE": 0.05, "II": 0.3}},
      "input":         {"weight": 8.0, "density": 0.15, "scheme": "standard"},
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

Each ensemble variant and input scheme reads only its fields in
``FIELDS_READ`` (mulre pairs with receptive-field input, which adds the
window); any other field must keep its default and is not written out.

Every value is checked when the config is built, alone and against the
values it must agree with, by the rule of the code that consumes it
(``GridDims`` for the member grid, ``GatingSchedule`` for steps against
partitions, ``ConnectionLaw`` for lam, c_table and each d).  A value of the
wrong type or range is a ``ConfigError`` that names its field, so a bad
config fails before any reservoir is built; only the fit of the frames to
the dataset's sensor waits until the manifest is read.

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
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .ensemble import check_inter_links, equal_split_schedule
from .errors import ConfigError
from .inputs import RECEPTIVE_FIELD, STANDARD, check_density, check_window
from .neurons import NeuronParams
from .readout import ReadoutConfig
from .topology import DEFAULT_C_TABLE, ConnectionLaw, GridDims

DATA_ROOT_ENV = "LSMKIT_DATA_ROOT"

# The fields each ensemble variant and input scheme reads.
FIELDS_READ = {
    "tepre": ("variant", "partitions", "dims", "inter_density", "inter_weight"),
    "mulre": ("variant", "d_list", "member_dims"),
    STANDARD: ("weight", "density", "scheme"),
    RECEPTIVE_FIELD: ("weight", "density", "scheme", "window"),
}


def _check_int(name: str, value, low: int = 1) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, not {value}")


def _check_grid(name: str, dims) -> None:
    """Three integers; their range is the member grid's to check."""
    if not (
        isinstance(dims, (tuple, list))
        and len(dims) == 3
        and all(isinstance(n, int) and not isinstance(n, bool) for n in dims)
    ):
        raise TypeError(f"{name} must be three integers, not {dims!r}")


def _fields_read(section, kind: str) -> dict:
    """The fields of ``section`` that ``kind`` reads, as JSON values; any
    other field that differs from its declared default is a ``ConfigError``."""
    read = FIELDS_READ[kind]
    for f in fields(section):
        if f.name not in read and getattr(section, f.name) != f.default:
            raise ConfigError(f"{f.name} does not apply to {kind}")
    values = {name: getattr(section, name) for name in read}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


@dataclass(frozen=True)
class PreprocessingConfig:
    time_window: int = 1000
    downscale: int = 1
    gabor: bool = False
    merge_polarities: bool = True
    steps: int = field(kw_only=True)  # every sample is clipped/padded to it

    def __post_init__(self):
        for name in ("time_window", "downscale", "steps"):
            _check_int(name, getattr(self, name))
        for name in ("gabor", "merge_polarities"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be true or false, not {value!r}")


@dataclass(frozen=True)
class ConnectivityConfig:
    lam: float = 2.0
    c_table: dict = field(default_factory=lambda: dict(DEFAULT_C_TABLE))

    def __post_init__(self):
        if not isinstance(self.c_table, dict):
            raise TypeError(f"c_table must be an object, not {self.c_table!r}")
        ConnectionLaw(self.lam, c_table=self.c_table)  # the law's rules on both


@dataclass(frozen=True)
class InputConfig:
    weight: float = 8.0
    density: float = 0.15
    scheme: str = STANDARD
    window: int = 5

    def __post_init__(self):
        if self.scheme not in (STANDARD, RECEPTIVE_FIELD):
            raise ConfigError(f"unknown input scheme {self.scheme!r}")
        _fields_read(self, self.scheme)
        if not math.isfinite(self.weight):
            raise ConfigError(f"weight must be finite, not {self.weight}")
        check_density(self.density)
        _check_int("window", self.window)


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
        _check_int("partitions", self.partitions)
        if self.variant not in ("tepre", "mulre"):
            raise ConfigError(f"unknown ensemble variant {self.variant!r}")
        _fields_read(self, self.variant)
        if self.variant == "tepre":
            _check_grid("dims", self.dims)
            if self.dims[2] % self.partitions != 0:
                raise ConfigError(
                    f"nz={self.dims[2]} not divisible into {self.partitions} partitions"
                )
            check_inter_links(self.inter_density, self.inter_weight)
        else:
            if not self.d_list:
                raise ConfigError("mulre needs a nonempty d_list")
            for d in self.d_list:
                ConnectionLaw(d=d)  # the law's rule on d
            _check_grid("member_dims", self.member_dims)
        self.member_grid()  # the grid's rule on its sides and E/I split

    def member_grid(self) -> GridDims:
        """The grid of each member reservoir."""
        if self.variant == "tepre":
            nx, ny, nz = self.dims
            return GridDims(nx, ny, nz // self.partitions)
        return GridDims(*self.member_dims)


@dataclass(frozen=True)
class Seeds:
    topology: int = 1
    input: int = 2
    training: int = 3

    def __post_init__(self):
        for name in ("topology", "input", "training"):
            _check_int(name, getattr(self, name), low=0)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_manifest: str
    preprocessing: PreprocessingConfig
    neuron: NeuronParams = NeuronParams()
    connectivity: ConnectivityConfig = ConnectivityConfig()
    input: InputConfig = InputConfig()
    ensemble: EnsembleConfig = EnsembleConfig(variant="tepre", dims=(5, 5, 24))
    readout: ReadoutConfig = ReadoutConfig()
    seeds: Seeds = Seeds()
    output_dir: str | None = None

    def __post_init__(self):
        if not isinstance(self.dataset_manifest, str):
            raise ConfigError(
                f"dataset.manifest must be a path, not {self.dataset_manifest!r}"
            )
        if not isinstance(self.output_dir, (str, type(None))):
            raise ConfigError(
                f"output_dir must be a path or null, not {self.output_dir!r}"
            )
        # The spatial ensemble exists to pair with windowed input; the
        # temporal ensemble is defined over flat input only.
        if self.ensemble.variant == "mulre":
            if self.input.scheme != RECEPTIVE_FIELD:
                raise ConfigError("mulre requires receptive-field input")
            check_window(self.input.window, self.ensemble.member_grid())
        else:
            if self.input.scheme != STANDARD:
                raise ConfigError("tepre requires standard input")
            equal_split_schedule(self.preprocessing.steps, self.ensemble.partitions)


def to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "dataset": {"manifest": cfg.dataset_manifest},
        "preprocessing": asdict(cfg.preprocessing),
        "neuron": asdict(cfg.neuron),
        "connectivity": asdict(cfg.connectivity),
        "input": _fields_read(cfg.input, cfg.input.scheme),
        "ensemble": _fields_read(cfg.ensemble, cfg.ensemble.variant),
        "readout": asdict(cfg.readout),
        "seeds": asdict(cfg.seeds),
        "output_dir": cfg.output_dir,
    }


def _section(cls, raw, name: str):
    """``cls`` built from one section, whose lists become tuples; a section
    of the wrong shape or with a value of the wrong type or range is a
    ``ConfigError`` that names it."""
    try:
        if not isinstance(raw, dict):
            raise TypeError(f"expected an object, not {raw!r}")
        values = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
        return cls(**values)
    except (TypeError, ConfigError) as exc:
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
    ensemble = _section(EnsembleConfig, data.get("ensemble", {}), "ensemble")
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
