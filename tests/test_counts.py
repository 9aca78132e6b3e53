"""Every library entry that takes a count checks it by the one rule,
``errors.check_int``: a non-integer (``True`` included) is a ``TypeError``
and an integer below the entry's floor a ``ConfigError``, each naming the
parameter in the rule's own words.  Every entry that takes a real number
checks it by ``errors.check_real`` in the same way: a non-real value is a
``TypeError``, and NaN, an infinity or a value outside the entry's bounds a
``ConfigError``."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from lsmkit import (
    ConfigError,
    ConnectionLaw,
    EventStream,
    FrameSequence,
    GatingSchedule,
    GridDims,
    InputSpec,
    MultiPhaseParams,
    NeuronParams,
    ReadoutConfig,
    ReceptiveField,
    bin_events,
    build_tepre,
    clip_or_pad,
    downscale,
    equal_split_schedule,
    load_config,
    run_sweep,
)
from lsmkit.config import EnsembleConfig, InputConfig
from lsmkit.errors import check_real
from lsmkit.eventio import write_dataset
from lsmkit.topology import DEFAULT_C_TABLE

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synthetic_tepre3.json"
STREAM = EventStream(t=[0, 5], x=[0, 1], y=[0, 1], p=[0, 1], width=2, height=2)
FRAMES = FrameSequence(np.zeros((3, 1, 4, 4), dtype=np.int64))

# (entry, its call with the count under test, the count's name, its floor)
ENTRIES = [
    ("GridDims-nx", lambda v: GridDims(v, 2, 2), "nx", 1),
    ("GridDims-ny", lambda v: GridDims(2, v, 2), "ny", 1),
    ("GridDims-nz", lambda v: GridDims(2, 2, v), "nz", 1),
    ("EnsembleConfig-dims", lambda v: EnsembleConfig("tepre", dims=(2, 2, v)), "nz", 1),
    ("EnsembleConfig-member_dims",
     lambda v: EnsembleConfig("mulre", d_list=(0.0,), member_dims=(2, v, 2)), "ny", 1),
    ("GatingSchedule-steps", lambda v: GatingSchedule(v, 1), "steps", 1),
    ("GatingSchedule-partitions", lambda v: GatingSchedule(4, v), "partitions", 1),
    ("ReceptiveField-window", lambda v: ReceptiveField(v, 4, 4), "window", 1),
    ("ReceptiveField-input_width", lambda v: ReceptiveField(3, v, 4), "input_width", 1),
    ("ReceptiveField-input_height", lambda v: ReceptiveField(3, 4, v), "input_height", 1),
    ("ReceptiveField-channels", lambda v: ReceptiveField(3, 4, 4, v), "channels", 1),
    ("InputSpec-n_inputs", lambda v: InputSpec(v, 1.0, 0.5), "n_inputs", 1),
    ("bin_events-time_window", lambda v: bin_events(STREAM, v), "time_window", 1),
    ("bin_events-n_channels", lambda v: bin_events(STREAM, 10, v), "n_channels", 1),
    ("downscale-factor", lambda v: downscale(STREAM, v), "factor", 1),
    ("clip_or_pad-steps", lambda v: clip_or_pad(FRAMES, v), "steps", 0),
    ("ReadoutConfig-epochs", lambda v: ReadoutConfig(epochs=v), "epochs", 0),
    ("write_dataset-limit",
     lambda v: write_dataset("data", 4, 4, 1, {"train": [], "test": []}, limit=v),
     "limit", 0),
    ("run_sweep-repeats",
     lambda v: run_sweep(load_config(CONFIG), "partitions", [3], repeats=v),
     "repeats", 1),
]

ROWS = [
    pytest.param(call, value, TypeError, f"{name} must be an integer, not {value!r}",
                 id=f"{entry}-{value!r}")
    for entry, call, name, _ in ENTRIES
    for value in (True, 2.5)
] + [
    # repr(np.True_) is "True" before NumPy 2, so this id is spelt out
    pytest.param(call, np.True_, TypeError, f"{name} must be an integer, not {np.True_!r}",
                 id=f"{entry}-np.True_")
    for entry, call, name, _ in ENTRIES
] + [
    pytest.param(call, low - 1, ConfigError, f"{name} must be >= {low}, not {low - 1}",
                 id=f"{entry}-{low - 1}")
    for entry, call, name, low in ENTRIES
] + [
    # a fractional window used to be rounded up, a float step count to give float slabs
    pytest.param(lambda v: ReceptiveField(v, 10, 10), 5.5, TypeError,
                 "window must be an integer, not 5.5", id="ReceptiveField-window-5.5"),
    pytest.param(lambda v: equal_split_schedule(v, 3), 300.0, TypeError,
                 "steps must be an integer, not 300.0", id="equal_split_schedule-steps-300.0"),
]


@pytest.mark.parametrize("call, value, error, text", ROWS)
def test_count_rule_at_each_entry(tmp_path, monkeypatch, call, value, error, text):
    monkeypatch.chdir(tmp_path)  # anything an entry wrongly writes lands here
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda v: GridDims(v, 2, 2),
        lambda v: EnsembleConfig("tepre", dims=(v, 5, 24)),
        lambda v: GatingSchedule(v, 1),
        lambda v: ReceptiveField(v, 4, 4),
        lambda v: InputSpec(v, 1.0, 0.5),
        lambda v: bin_events(STREAM, v),
        lambda v: clip_or_pad(FRAMES, v),
        lambda v: ReadoutConfig(epochs=v),
    ],
    ids=["GridDims", "EnsembleConfig", "GatingSchedule", "ReceptiveField", "InputSpec",
         "bin_events", "clip_or_pad", "ReadoutConfig"],
)
@pytest.mark.parametrize("value", [np.int64(4), np.int32(4), np.uint8(4)],
                         ids=lambda v: type(v).__name__)
def test_count_rule_takes_any_integral_type(call, value):
    call(value)


JUST_BELOW_ZERO = math.nextafter(0.0, -1.0)
JUST_ABOVE_ONE = math.nextafter(1.0, 2.0)

# (entry, its call with the real number under test, the number's name, the
# rule's text for its bounds, a value just outside them or None if unbounded)
REAL_ENTRIES = [
    ("NeuronParams-tau_v", lambda v: NeuronParams(tau_v=v), "tau_v", " > 0", 0),
    ("NeuronParams-tau_u", lambda v: NeuronParams(tau_u=v), "tau_u", " > 0", 0),
    ("NeuronParams-theta", lambda v: NeuronParams(theta=v), "theta", " > 0", 0),
    ("NeuronParams-dt", lambda v: NeuronParams(dt=v), "dt", " > 0", 0),
    ("NeuronParams-w_lsm", lambda v: NeuronParams(w_lsm=v), "w_lsm", "", None),
    ("ConnectionLaw-lam", lambda v: ConnectionLaw(lam=v), "lam", " > 0", 0),
    ("ConnectionLaw-d", lambda v: ConnectionLaw(d=v), "d", " >= 0", JUST_BELOW_ZERO),
    ("ConnectionLaw-c_table",
     lambda v: ConnectionLaw(c_table={**DEFAULT_C_TABLE, "EE": v}),
     "c_table[EE]", " > 0 and <= 1", JUST_ABOVE_ONE),
    # the last key the check loops over, at the table's other bound
    ("ConnectionLaw-c_table[II]",
     lambda v: ConnectionLaw(c_table={**DEFAULT_C_TABLE, "II": v}),
     "c_table[II]", " > 0 and <= 1", 0),
    ("ReadoutConfig-l2", lambda v: ReadoutConfig(l2=v), "l2", " >= 0", JUST_BELOW_ZERO),
    ("ReadoutConfig-tolerance", lambda v: ReadoutConfig(tolerance=v),
     "tolerance", " >= 0", JUST_BELOW_ZERO),
    ("InputSpec-input_weight", lambda v: InputSpec(4, v, 0.5), "input_weight", "", None),
    ("InputSpec-density", lambda v: InputSpec(4, 1.0, v), "density", " > 0 and <= 1", 0),
    ("InputConfig-weight", lambda v: InputConfig(weight=v), "weight", "", None),
    ("InputConfig-density", lambda v: InputConfig(density=v),
     "density", " > 0 and <= 1", JUST_ABOVE_ONE),
    ("build_tepre-inter_weight", lambda v: build_tepre([], 0.5, v, 0),
     "inter_weight", " < 0", 0),
    ("build_tepre-inter_density", lambda v: build_tepre([], v, -1.0, 0),
     "inter_density", " >= 0 and <= 1", JUST_ABOVE_ONE),
    ("MultiPhaseParams-lo_rate", lambda v: MultiPhaseParams(lo_rate=v),
     "lo_rate", " >= 0 and <= 0.45", JUST_BELOW_ZERO),  # at most hi_rate
    ("MultiPhaseParams-hi_rate", lambda v: MultiPhaseParams(hi_rate=v),
     "hi_rate", " >= 0 and <= 1", JUST_ABOVE_ONE),
    ("MultiPhaseParams-active_fraction", lambda v: MultiPhaseParams(active_fraction=v),
     "active_fraction", " > 0 and < 1", 1),
]

REAL_ROWS = [
    pytest.param(call, value, TypeError, f"{name} must be a real number, not {value!r}",
                 id=f"{entry}-{value!r}")
    for entry, call, name, _, _ in REAL_ENTRIES
    for value in (True, "1")
] + [
    pytest.param(call, value, ConfigError,
                 f"{name} must be a finite number{rule}, not {value!r}",
                 id=f"{entry}-{value!r}")
    for entry, call, name, rule, outside in REAL_ENTRIES
    for value in (math.nan, math.inf, -math.inf, outside)
    if value is not None
] + [
    pytest.param(lambda v: MultiPhaseParams(lo_rate=v), 0.5, ConfigError,
                 "lo_rate must be a finite number >= 0 and <= 0.45, not 0.5",
                 id="MultiPhaseParams-lo_rate-above-hi_rate"),
]


@pytest.mark.parametrize("call, value, error, text", REAL_ROWS)
def test_real_rule_at_each_entry(call, value, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call(value)


@pytest.mark.parametrize("value", [20, 0.5, np.float64(0.5), np.int64(3)],
                         ids=lambda v: type(v).__name__)
def test_real_rule_returns_the_value_unchanged(value):
    # an int stays an int, so a saved config writes 20, not 20.0
    assert check_real("x", value, above=0) is value
