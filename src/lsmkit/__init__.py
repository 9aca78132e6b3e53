"""Liquid state machine simulation and reservoir-ensembling toolkit.

The package is organized around a deterministic pipeline: event streams
are binned into per-timestep frames, wired into 3-D grid reservoirs of
LIF neurons through sparse signed input maps, simulated as spatial
(multi-length-scale) or temporal (excitation-partitioned) ensembles, and
classified by a linear readout trained on spike-count state vectors.
"""

from .config import (
    ConnectivityConfig,
    EnsembleConfig,
    ExperimentConfig,
    InputConfig,
    PreprocessingConfig,
    Seeds,
    load_config,
    save_config,
)
from .ensemble import (
    GatingSchedule,
    SpikeRecord,
    build_tepre,
    drive_through_map,
    equal_split_schedule,
    run_mulre,
    run_tepre,
    simulate_population,
)
from .errors import ConfigError, DatasetError, NumericsError
from .events import (
    EventStream,
    FrameSequence,
    bin_events,
    clip_or_pad,
    downscale,
    merge_channels,
)
from .gabor import build_bank, gabor_bank, gabor_kernel
from .harness import RunReport, run_experiment, run_sweep
from .inputs import (
    InputMap,
    InputSpec,
    ReceptiveField,
    build_input,
    save_input_map,
)
from .neurons import NeuronParams, PopulationState, lif_step
from .readout import (
    EvalMetrics,
    FitTrace,
    ReadoutConfig,
    ReadoutModel,
    SampleStateVector,
    evaluate,
    extract_state,
    save_model,
    train_readout,
)
from .synth import MultiPhaseParams, generate_multiphase
from .topology import (
    ConnectionLaw,
    GridDims,
    ReservoirTopology,
    build_reservoir,
    save_topology,
)

__version__ = "0.1.0"
