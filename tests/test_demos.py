"""Demos 01-06 run to completion against the current API.

Each demo runs in-process inside a temporary working directory, since some
write files there (demo 02 saves a topology).  Demo 07 runs a full sweep
(about 25 s on a 2-core host) and is run by its own CI step instead.
"""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = [
    "01_lif_neuron.py",
    "02_reservoir_topology.py",
    "03_input_wiring.py",
    "04_event_preprocessing.py",
    "05_multi_length_scale_ensemble.py",
    "06_temporal_partition_ensemble.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MPLBACKEND", "Agg")  # demo 01 plots when matplotlib exists
    runpy.run_path(str(DEMO_DIR / name), run_name="__main__")
    assert capsys.readouterr().out
