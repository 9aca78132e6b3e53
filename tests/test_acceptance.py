"""Acceptance gates for the engine.

Each test prints one PASS line on success; a pytest failure is the FAIL
line.  Gates 1-7 are desk-scale and must always pass.  Gates 8-10 need the
full neuromorphic benchmark datasets (hours of simulation) and skip unless
pre-converted data is present under LSMKIT_DATA_ROOT.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from statgate import check_buckets

import lsmkit.cli as cli
from lsmkit import (
    ConnectionLaw,
    EnsembleConfig,
    ExperimentConfig,
    GridDims,
    InputConfig,
    InputSpec,
    NeuronParams,
    PopulationState,
    PreprocessingConfig,
    ReceptiveField,
    Seeds,
    build_input,
    build_reservoir,
    build_tepre,
    drive_through_map,
    equal_split_schedule,
    lif_step,
    run_tepre,
    simulate_population,
)
from lsmkit.config import load_config
from lsmkit.harness import run_experiment
from lsmkit.readout import ReadoutConfig, loss_and_gradients

DATA_ROOT = os.environ.get("LSMKIT_DATA_ROOT")
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def announce(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


class TestCriterion1Lif:
    def test_lif_analytic_oracle(self):
        t0 = time.perf_counter()
        params = NeuronParams(tau_v=16, tau_u=16, theta=20)

        # independent oracle: iterate the recurrence with u held at 2
        v, first = 0.0, None
        for t in range(1, 100):
            v = v * (1 - 1 / 16) + 2.0
            if v >= 20.0:
                first = t
                break
        assert first == 16

        # engine: charge the trace to 2 on step 1, then hold it there
        state = PopulationState.zeros(1)
        engine_first = None
        for t in range(1, 100):
            drive = 2.0 * params.tau_u if t == 1 else 2.0
            state = lif_step(state, np.array([drive]), None, params)
            assert state.u[0] == 2.0
            if state.spikes[0]:
                engine_first = t
                break
        assert engine_first == 16

        # zero-input decay over 1000 steps vs the closed form, to within
        # an ulp-scale envelope (1024 eps covers the sequential rounding)
        state = PopulationState(np.array([10.0]), np.array([0.0]))
        q = 1 - 1 / 16
        bound = 1024 * np.finfo(float).eps
        for t in range(1, 1001):
            state = lif_step(state, np.zeros(1), None, params)
            closed = 10.0 * q**t
            assert abs(state.v[0] - closed) <= bound * abs(closed)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        announce(1, f"first spike at step 16; 1000-step decay within ulp envelope ({_elapsed(elapsed)})")


def _elapsed(seconds):
    return f"{seconds:.2f} s"


class TestCriterion2TopologyStats:
    def test_connection_rates_match_law(self):
        t0 = time.perf_counter()
        dims = GridDims(10, 10, 10)
        params = NeuronParams()
        coords = dims.coordinates()
        diff = coords[:, None, :] - coords[None, :, :]
        d2 = np.sum(diff * diff, axis=2)
        offdiag = ~np.eye(dims.size, dtype=bool)

        total_checked = 0
        for d in (0.0, 4.0, 5.0, 6.0):
            law = ConnectionLaw(lam=2.0, d=d)
            sums: dict[tuple[str, int], list[int]] = {}
            for seed in range(20):
                topo = build_reservoir(dims, law, params, seed=seed)
                adj = np.zeros((dims.size, dims.size), dtype=bool)
                adj[topo.src, topo.dst] = True
                exc = topo.signs > 0
                masks = {
                    "EE": np.outer(exc, exc),
                    "EI": np.outer(exc, ~exc),
                    "IE": np.outer(~exc, exc),
                    "II": np.outer(~exc, ~exc),
                }
                for pair, mask in masks.items():
                    m = mask & offdiag
                    buckets = d2[m]
                    edges = adj[m]
                    order = np.argsort(buckets, kind="stable")
                    b_sorted = buckets[order]
                    e_sorted = edges[order]
                    uniq, starts = np.unique(b_sorted, return_index=True)
                    ends = np.append(starts[1:], b_sorted.size)
                    for u, s, e in zip(uniq, starts, ends):
                        entry = sums.setdefault((pair, int(u)), [0, 0])
                        entry[0] += int(e_sorted[s:e].sum())
                        entry[1] += int(e - s)
            gated = {
                key: (
                    hit,
                    n,
                    law.c_table[key[0]]
                    * math.exp(-(((math.sqrt(key[1]) - law.d) / law.lam) ** 2)),
                )
                for key, (hit, n) in sums.items()
                if n >= 1000
            }
            assert len(gated) > 400
            failures = check_buckets(gated)
            assert failures == [], failures
            total_checked += len(gated)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        announce(
            2,
            f"{total_checked} (kind, distance) buckets match the law at "
            f"family-wise 3-sigma coverage over 20 seeds ({_elapsed(elapsed)})",
        )


class TestCriterion3InputMaps:
    def test_sign_split_and_locality(self):
        t0 = time.perf_counter()
        # standard scheme: 10^4 input neurons, fan-out 10 into N=200
        dims = GridDims(10, 10, 2)
        spec = InputSpec(n_inputs=10_000, input_weight=8.0, density=0.05)
        imap = build_input(spec, dims, seed=21)
        pos = np.zeros(spec.n_inputs, dtype=int)
        neg = np.zeros(spec.n_inputs, dtype=int)
        np.add.at(pos, imap.input_idx[imap.weight > 0], 1)
        np.add.at(neg, imap.input_idx[imap.weight < 0], 1)
        assert np.array_equal(pos, neg)
        assert (pos == 5).all()

        # receptive-field scheme: 10^4 pixels, equal split everywhere
        rf_dims = GridDims(20, 20, 10)
        rf_spec = InputSpec(
            n_inputs=10_000,
            input_weight=8.0,
            density=0.15,
            scheme="receptive_field",
            field=ReceptiveField(window=5, input_width=100, input_height=100),
        )
        rf_map = build_input(rf_spec, rf_dims, seed=22)
        pos = np.zeros(rf_spec.n_inputs, dtype=int)
        neg = np.zeros(rf_spec.n_inputs, dtype=int)
        np.add.at(pos, rf_map.input_idx[rf_map.weight > 0], 1)
        np.add.at(neg, rf_map.input_idx[rf_map.weight < 0], 1)
        assert np.array_equal(pos, neg)
        assert (pos >= 1).all()

        # Chebyshev locality on the 64x64x2 -> 20x20x10, window-5 geometry
        acc_spec = InputSpec(
            n_inputs=64 * 64 * 2,
            input_weight=8.0,
            density=0.15,
            scheme="receptive_field",
            field=ReceptiveField(window=5, input_width=64, input_height=64, channels=2),
        )
        acc_map = build_input(acc_spec, rf_dims, seed=23)
        plane = 64 * 64
        rem = acc_map.input_idx % plane
        ax = (rem % 64) * 20 // 64
        ay = (rem // 64) * 20 // 64
        tx = acc_map.reservoir_idx % 20
        ty = (acc_map.reservoir_idx // 20) % 20
        cheb = np.maximum(np.abs(tx - ax), np.abs(ty - ay))
        assert cheb.max() <= 2
        assert int((cheb <= 2).sum()) == acc_map.n_edges  # 100% of edges

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        announce(
            3,
            f"equal +/- split on 2x10^4 input neurons; locality holds for all "
            f"{acc_map.n_edges} receptive-field edges ({_elapsed(elapsed)})",
        )


class TestCriterion4TepreGating:
    def test_gating_and_partition_equivalence(self):
        t0 = time.perf_counter()
        params = NeuronParams()
        dims = GridDims(5, 5, 8)
        members = []
        for i in range(3):
            topo = build_reservoir(dims, ConnectionLaw(), params, 31 + i)
            spec = InputSpec(n_inputs=64, input_weight=8.0, density=0.15)
            members.append((topo, build_input(spec, dims, 41 + i)))
        rng = np.random.default_rng(51)
        rates = rng.poisson(0.5, size=(300, 64)).astype(float)
        schedule = equal_split_schedule(300, 3)
        assert schedule.intervals == ((0, 100), (100, 200), (200, 300))

        links = build_tepre([t for t, _ in members], 0.0, -1.0, seed=61)
        records = run_tepre(
            rates, members, links, schedule, params,
            record_raster=True, record_drive=True,
        )
        for r, record in enumerate(records):
            start, end = 100 * r, 100 * (r + 1)
            outside = np.ones(300, dtype=bool)
            outside[start:end] = False
            assert np.all(record.drive_l1[outside] == 0.0)
            assert record.drive_l1[start:end].sum() > 0

        # with no inter-partition links, each record must be bit-identical
        # to an independent run on the gated drive
        for r, (topo, imap) in enumerate(members):
            gated = np.zeros((300, topo.size))
            full = drive_through_map(rates, imap)
            start, end = schedule.intervals[r]
            gated[start:end] = full[start:end]
            solo = simulate_population(
                topo.matrix, gated, params,
                slab=schedule.intervals[r], record_raster=True,
            )
            assert np.array_equal(records[r].raster, solo.raster)
            assert np.array_equal(records[r].counts, solo.counts)
            assert np.array_equal(records[r].slab_counts, solo.slab_counts)

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        announce(
            4,
            "injected drive exactly zero outside each partition's slab; "
            f"density-0 records bit-identical to gated solo runs ({_elapsed(elapsed)})",
        )


class TestCriterion5Gradient:
    def test_gradient_against_central_differences(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(71)
        n, features, classes = 40, 50, 5
        x = rng.normal(size=(n, features))
        y = rng.integers(0, classes, size=n)
        y_onehot = np.eye(classes)[y]
        l2 = 1e-3
        eps = 1e-6
        for _ in range(10):
            w = rng.normal(scale=0.6, size=(classes, features))
            b = rng.normal(scale=0.6, size=classes)
            _, gw, gb = loss_and_gradients(w, b, x, y_onehot, l2)
            fw = np.zeros_like(w)
            for i in range(classes):
                for j in range(features):
                    wp, wm = w.copy(), w.copy()
                    wp[i, j] += eps
                    wm[i, j] -= eps
                    fw[i, j] = (
                        loss_and_gradients(wp, b, x, y_onehot, l2)[0]
                        - loss_and_gradients(wm, b, x, y_onehot, l2)[0]
                    ) / (2 * eps)
            fb = np.zeros_like(b)
            for i in range(classes):
                bp, bm = b.copy(), b.copy()
                bp[i] += eps
                bm[i] -= eps
                fb[i] = (
                    loss_and_gradients(w, bp, x, y_onehot, l2)[0]
                    - loss_and_gradients(w, bm, x, y_onehot, l2)[0]
                ) / (2 * eps)
            rel = (np.linalg.norm(gw - fw) + np.linalg.norm(gb - fb)) / (
                np.linalg.norm(fw) + np.linalg.norm(fb)
            )
            assert rel < 1e-5
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        announce(
            5,
            f"analytic gradient within 1e-5 of central differences at 10 "
            f"random points ({_elapsed(elapsed)})",
        )


@pytest.fixture(scope="module")
def synthetic_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_synth")
    rc = cli.main(
        [
            "synth", "--kind", "multi-phase-classification", "--out", str(out),
            "--classes", "4", "--phases", "3", "--train", "500", "--test", "500",
            "--seed", "2024",
        ]
    )
    assert rc == 0
    return out / "manifest.json"


def synthetic_config(manifest, partitions):
    return ExperimentConfig(
        dataset_manifest=str(manifest),
        preprocessing=PreprocessingConfig(time_window=1000, steps=300),
        ensemble=EnsembleConfig(
            variant="tepre", partitions=partitions, dims=(5, 5, 24)
        ),
        input=InputConfig(weight=8.0, density=0.15, scheme="standard"),
        seeds=Seeds(topology=1, input=2, training=3),
    )


class TestCriterion6EndToEnd:
    def test_partitioning_beats_single_reservoir(self, synthetic_dataset):
        t0 = time.perf_counter()
        tepre = run_experiment(synthetic_config(synthetic_dataset, partitions=3))
        single = run_experiment(synthetic_config(synthetic_dataset, partitions=1))
        elapsed = time.perf_counter() - t0
        assert tepre.test_accuracy >= 0.90
        assert tepre.test_accuracy > single.test_accuracy
        assert elapsed < 300.0
        announce(
            6,
            f"600-neuron TEPRE-3 test accuracy {tepre.test_accuracy:.3f} >= 0.90 "
            f"and beats the 1-partition budget match at {single.test_accuracy:.3f} "
            f"({_elapsed(elapsed)})",
        )


class TestCriterion7Determinism:
    def test_identical_reports(self, synthetic_dataset):
        cfg = ExperimentConfig(
            dataset_manifest=str(synthetic_dataset),
            preprocessing=PreprocessingConfig(time_window=1000, steps=120),
            ensemble=EnsembleConfig(variant="tepre", partitions=3, dims=(4, 4, 6)),
            input=InputConfig(weight=10.0, density=0.25, scheme="standard"),
            readout=ReadoutConfig(epochs=120),
            seeds=Seeds(topology=5, input=6, training=7),
        )
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.state_hash == b.state_hash
        assert a.train_accuracy == b.train_accuracy
        assert a.test_accuracy == b.test_accuracy
        assert a.confusion == b.confusion
        assert a.spike_stats == b.spike_stats
        announce(
            7,
            f"repeated run reproduces state hashes {a.state_hash['test'][:12]}... "
            "and all metrics exactly",
        )


def _dataset_config(name):
    if DATA_ROOT is None:
        pytest.skip("LSMKIT_DATA_ROOT not set; full-dataset tier skipped")
    cfg_path = CONFIG_DIR / name
    cfg = load_config(cfg_path)
    if not Path(cfg.dataset_manifest).exists():
        pytest.skip(f"dataset manifest {cfg.dataset_manifest} not present")
    return cfg


@pytest.mark.slow
class TestReproductionTier:
    def test_criterion8_nmnist_tepre(self):
        cfg = _dataset_config("nmnist_tepre3.json")
        report = run_experiment(cfg, threads=os.cpu_count() or 1)
        assert report.test_accuracy >= 0.97
        announce(8, f"N-MNIST TEPRE-3 test accuracy {report.test_accuracy:.4f} >= 0.97")

    def test_criterion9_shd_tepre(self):
        cfg = _dataset_config("shd_tepre6.json")
        report = run_experiment(cfg, threads=os.cpu_count() or 1)
        assert report.test_accuracy >= 0.75
        announce(9, f"SHD TEPRE-6 test accuracy {report.test_accuracy:.4f} >= 0.75")

    def test_criterion10_dvsgesture_receptive_field(self):
        rf_cfg = _dataset_config("dvsgesture_rf.json")
        std_cfg = _dataset_config("dvsgesture_standard.json")
        rf = run_experiment(rf_cfg, threads=os.cpu_count() or 1)
        std = run_experiment(std_cfg, threads=os.cpu_count() or 1)
        assert rf.test_accuracy >= std.test_accuracy + 0.01
        announce(
            10,
            f"DVSGesture receptive-field {rf.test_accuracy:.4f} beats standard "
            f"{std.test_accuracy:.4f} by >= 1 point",
        )
