"""Every library entry that takes a count checks it by the one rule,
``errors.check_int``: a non-integer (``True`` included) is a ``TypeError``
and an integer below the entry's floor a ``ConfigError``, each naming the
parameter in the rule's own words."""

import re
from pathlib import Path

import numpy as np
import pytest

from lsmkit import (
    ConfigError,
    EventStream,
    FrameSequence,
    GatingSchedule,
    GridDims,
    InputSpec,
    ReadoutConfig,
    ReceptiveField,
    bin_events,
    clip_or_pad,
    downscale,
    equal_split_schedule,
    load_config,
    run_sweep,
)
from lsmkit.eventio import write_dataset

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synthetic_tepre3.json"
STREAM = EventStream(t=[0, 5], x=[0, 1], y=[0, 1], p=[0, 1], width=2, height=2)
FRAMES = FrameSequence(np.zeros((3, 1, 4, 4), dtype=np.int64))

# (entry, its call with the count under test, the count's name, its floor)
ENTRIES = [
    ("GridDims-nx", lambda v: GridDims(v, 2, 2), "nx", 1),
    ("GridDims-ny", lambda v: GridDims(2, v, 2), "ny", 1),
    ("GridDims-nz", lambda v: GridDims(2, 2, v), "nz", 1),
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
