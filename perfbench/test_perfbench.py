"""Self-tests of the benchmark: seeded inputs and the layer hooks.

    python3 -m pytest perfbench -q
"""

import importlib
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hostspeed import INTERVAL_S, HostSampler  # noqa: E402
from layers import HOOKS, Hook, Tracer, expected_hooks  # noqa: E402
from lsmkit.harness import run_experiment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def one_per_class(name):
    """The workload cut to one sample of each class in each split."""
    wl = WORKLOADS[name]
    return replace(wl, n_train=wl.n_classes, n_test=wl.n_classes)


def read_tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def installed() -> dict:
    return {h: getattr(importlib.import_module(h.module), h.attr) for h in HOOKS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    wl = replace(WORKLOADS[name], n_train=2, n_test=1)
    first = read_tree(wl.generate(wl, 7, tmp_path / "a").parent)
    again = read_tree(wl.generate(wl, 7, tmp_path / "b").parent)
    other = read_tree(wl.generate(wl, 8, tmp_path / "c").parent)
    assert first == again
    assert first.keys() == other.keys() and first != other


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_expected_hook_fires(name, tmp_path):
    wl = one_per_class(name)
    cfg = wl.load_config(wl.generate(wl, 3, tmp_path / "data"), tmp_path / "out")
    with Tracer() as tracer:
        report = run_experiment(cfg, threads=1)
    assert expected_hooks(cfg) <= set(tracer.calls)
    assert tracer.counters["eventio.events"] > 0
    assert tracer.counters["readout.features"] == sum(
        m["neurons"] for m in report.spike_stats["members"]
    )


def test_workloads_reach_every_hook():
    cfgs = [wl.load_config(Path("manifest.json"), Path("out")) for wl in WORKLOADS.values()]
    assert set().union(*map(expected_hooks, cfgs)) == {h.attr for h in HOOKS}


def test_tracer_restores_the_originals():
    before = installed()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert installed() != before
            raise RuntimeError("leave the block early")
    assert installed() == before


def test_host_sampler_leaves_its_blocks_out_of_its_clock():
    import workloads

    original = workloads._labels
    host = HostSampler([Hook("workloads", "_labels", "sampled")])
    with host:
        start, wall = host.clock(), time.perf_counter()
        while time.perf_counter() - wall < 10 * INTERVAL_S:
            workloads._labels(4, 2)
        own, wall = host.clock() - start, time.perf_counter() - wall
    assert len(host.samples) >= 2 and min(host.block_s()) > 0
    assert own == pytest.approx(wall - host.spent, abs=1e-3)
    assert workloads._labels is original
