import gc
import hashlib
import importlib.util
import itertools
import json
import math
import re
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

import lsmkit.cli as cli
import lsmkit.ensemble as ensemble_module
import lsmkit.harness as harness
import lsmkit.neurons as neurons_module
from lsmkit import (
    ConfigError,
    ConnectivityConfig,
    DatasetError,
    EnsembleConfig,
    EventStream,
    ExperimentConfig,
    InputConfig,
    NeuronParams,
    PreprocessingConfig,
    Seeds,
    load_config,
    save_config,
    save_input_map,
)
from lsmkit.config import FIELDS_READ, from_dict, to_dict
from lsmkit.eventio import read_events, write_dataset, write_events
from lsmkit.ensemble import equal_split_schedule, run_mulre, run_tepre
from lsmkit.events import bin_events, clip_or_pad, merge_channels
from lsmkit.gabor import gabor_bank
from lsmkit.harness import (
    Manifest,
    build_members,
    count_geometry,
    frame_geometry,
    load_manifest,
    preprocess_stream,
    run_experiment,
    run_sweep,
    sweep_config,
    sweep_table,
)
from lsmkit.readout import ReadoutConfig, extract_state
from lsmkit.synth import MultiPhaseParams, generate_multiphase


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tinyset")
    params = MultiPhaseParams(
        n_classes=3,
        n_phases=3,
        width=6,
        height=6,
        steps_per_phase=20,
        n_train=24,
        n_test=24,
        seed=5,
    )
    return generate_multiphase(params, out)


def stream_ending_at(last):
    """Two events on a 6x6 sensor, the last at ``last`` microseconds."""
    return EventStream(
        t=np.array([0, last]), x=np.array([0, 5]), y=np.array([0, 5]),
        p=np.array([0, 1]), width=6, height=6, label=0,
    )


def tiny_config(manifest, **overrides):
    defaults = dict(
        dataset_manifest=str(manifest),
        preprocessing=PreprocessingConfig(time_window=1000, steps=60),
        ensemble=EnsembleConfig(variant="tepre", partitions=3, dims=(4, 4, 6)),
        input=InputConfig(weight=10.0, density=0.25, scheme="standard"),
        readout=ReadoutConfig(epochs=150),
        seeds=Seeds(topology=11, input=12, training=13),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


sizes = st.integers(1, 6)
positive = st.floats(1e-3, 1e3)
fractions = st.floats(0.0, 1.0)
densities = st.floats(0.0, 1.0, exclude_min=True)
# a member grid holds an even number of neurons, for the E/I split
grids = st.tuples(sizes, sizes, sizes).filter(lambda g: math.prod(g) % 2 == 0)


@st.composite
def experiment_configs(draw):
    """Valid tepre and mulre configs with every field drawn."""
    steps = draw(st.integers(1, 5000))
    if draw(st.booleans()):
        parts = draw(st.integers(1, min(6, steps)))
        nx, ny, nz = draw(grids)
        ensemble = EnsembleConfig(
            variant="tepre",
            partitions=parts,
            dims=(nx, ny, parts * nz),
            inter_density=draw(fractions),
            inter_weight=draw(st.floats(-10.0, 0.0, exclude_max=True)),
        )
        input_fields = {"scheme": "standard"}  # the window stays at its default
    else:
        ensemble = EnsembleConfig(
            variant="mulre",
            d_list=tuple(draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))),
            # a one-neuron-deep grid takes a window of 3 or more
            member_dims=draw(grids.filter(lambda g: g[2] > 1 or min(g[:2]) >= 3)),
        )
        # the receptive window fits the member grid, and its corner pool,
        # ceil(window / 2) ** 2 columns, holds a +/- pair
        nx, ny, nz = ensemble.member_dims
        window = draw(st.integers(1 if nz > 1 else 3, min(nx, ny)))
        input_fields = {"scheme": "receptive_field", "window": window}
    return ExperimentConfig(
        dataset_manifest=draw(st.text("abc/._-", min_size=1, max_size=20)),
        preprocessing=PreprocessingConfig(
            time_window=draw(st.integers(1, 10**6)),
            downscale=draw(sizes),
            gabor=draw(st.booleans()),
            merge_polarities=draw(st.booleans()),
            steps=steps,
        ),
        neuron=NeuronParams(
            tau_v=draw(st.floats(1.5, 100.0)),
            tau_u=draw(st.floats(1.5, 100.0)),
            theta=draw(positive),
            dt=draw(st.floats(0.01, 1.0)),
            w_lsm=draw(positive),
        ),
        connectivity=ConnectivityConfig(
            lam=draw(positive),
            c_table={k: draw(densities) for k in ("EE", "EI", "IE", "II")},
        ),
        input=InputConfig(
            weight=draw(positive),
            density=draw(densities),
            **input_fields,
        ),
        ensemble=ensemble,
        readout=ReadoutConfig(
            l2=draw(st.floats(0.0, 1.0)),
            epochs=draw(st.integers(0, 1000)),
            tolerance=draw(st.floats(0.0, 1.0)),
        ),
        seeds=Seeds(*(draw(st.integers(0, 2**31 - 1)) for _ in range(3))),
        output_dir=draw(st.none() | st.text("abc/._-", max_size=20)),
    )


class TestConfigRoundTrip:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(experiment_configs())
    def test_dict_round_trip_property(self, cfg):
        data = to_dict(cfg)
        assert from_dict(data) == cfg
        assert from_dict(json.loads(json.dumps(data))) == cfg
        # each section holds exactly the fields its variant or scheme reads
        assert tuple(data["ensemble"]) == FIELDS_READ[cfg.ensemble.variant]
        assert tuple(data["input"]) == FIELDS_READ[cfg.input.scheme]

    @pytest.mark.parametrize("key", ["seed", "backtracking", "state_mode", "learning_rate"])
    def test_retired_readout_keys_rejected(self, tiny_dataset, key):
        data = to_dict(tiny_config(tiny_dataset))
        data["readout"][key] = {
            "seed": 0, "backtracking": True, "state_mode": "full", "learning_rate": 0.5
        }[key]
        with pytest.raises(ConfigError, match=f"bad readout section: .*'{key}'"):
            from_dict(data)

    @pytest.mark.parametrize(
        "section", ["preprocessing", "neuron", "connectivity", "input", "ensemble", "seeds"]
    )
    def test_unknown_key_rejected(self, tiny_dataset, section):
        # a retired key fails to load, naming itself, instead of being ignored
        data = to_dict(tiny_config(tiny_dataset))
        data[section]["no_such_key"] = 1.0
        with pytest.raises(ConfigError, match="no_such_key"):
            from_dict(data)

    def test_dict_round_trip_tepre(self, tiny_dataset):
        cfg = tiny_config(tiny_dataset)
        assert from_dict(to_dict(cfg)) == cfg

    def test_dict_round_trip_mulre(self, tiny_dataset):
        cfg = tiny_config(
            tiny_dataset,
            ensemble=EnsembleConfig(
                variant="mulre", d_list=(0.0, 4.0), member_dims=(6, 6, 2)
            ),
            input=InputConfig(weight=10.0, density=0.3, scheme="receptive_field", window=3),
            connectivity=ConnectivityConfig(lam=3.0),
        )
        assert from_dict(to_dict(cfg)) == cfg

    def test_file_round_trip(self, tiny_dataset, tmp_path):
        cfg = tiny_config(tiny_dataset)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_numpy_numbers_saved_as_plain_numbers(self, tiny_dataset, tmp_path):
        # the NumPy integers and reals the count and real rules accept
        cfg = tiny_config(
            tiny_dataset,
            preprocessing=PreprocessingConfig(time_window=1000, steps=np.int64(60)),
            connectivity=ConnectivityConfig(lam=np.float32(1.7)),
            output_dir=str(tmp_path / "run"),
        )
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        saved = json.loads(path.read_text())
        assert saved["preprocessing"]["steps"] == 60
        assert saved["connectivity"]["lam"] == float(np.float32(1.7))
        report = run_experiment(cfg)
        assert json.loads((tmp_path / "run" / "report.json").read_text())["config"] == saved
        assert run_experiment(load_config(path)).state_hash == report.state_hash

    def test_failed_save_leaves_the_old_file(self, tiny_dataset, tmp_path):
        report = run_experiment(tiny_config(tiny_dataset))
        path = tmp_path / "report.json"
        report.save(path)
        before = path.read_bytes()
        with pytest.raises(TypeError, match="not JSON serializable"):
            replace(report, readout={**report.readout, "bad": object()}).save(path)
        assert path.read_bytes() == before

    def test_mulre_with_standard_input_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError):
            tiny_config(
                tiny_dataset,
                ensemble=EnsembleConfig(
                    variant="mulre", d_list=(0.0,), member_dims=(4, 4, 4)
                ),
            )

    def test_tepre_with_rf_input_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError):
            tiny_config(
                tiny_dataset,
                input=InputConfig(scheme="receptive_field", window=3),
            )

    def test_indivisible_partitions_rejected(self):
        with pytest.raises(ConfigError):
            EnsembleConfig(variant="tepre", partitions=5, dims=(4, 4, 6))

    def test_zero_partitions_rejected(self):
        with pytest.raises(ConfigError):
            EnsembleConfig(variant="tepre", partitions=0, dims=(4, 4, 6))

    def test_missing_steps_rejected(self, tiny_dataset):
        # every sample is cut to one fixed length, so there is no default
        data = to_dict(tiny_config(tiny_dataset))
        del data["preprocessing"]["steps"]
        with pytest.raises(ConfigError, match="bad preprocessing section: .*'steps'"):
            from_dict(data)
        data["preprocessing"]["steps"] = None
        with pytest.raises(ConfigError, match="bad preprocessing section: steps"):
            from_dict(data)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_nonpositive_steps_rejected(self, steps):
        # 0 would otherwise fail in a reshape, -3 only at the first sample
        with pytest.raises(ConfigError, match="steps"):
            PreprocessingConfig(steps=steps)


class TestRunExperiment:
    def test_deterministic_repeat(self, tiny_dataset):
        cfg = tiny_config(tiny_dataset)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.state_hash == b.state_hash
        assert a.train_accuracy == b.train_accuracy
        assert a.test_accuracy == b.test_accuracy
        assert a.confusion == b.confusion

    def test_report_complete_and_reconstructs_config(self, tiny_dataset):
        cfg = tiny_config(tiny_dataset)
        report = run_experiment(cfg)
        assert from_dict(report.config) == cfg
        for stage in ("load", "build", "simulate", "train", "evaluate"):
            assert stage in report.timings
        assert len(report.spike_stats["members"]) == 3
        assert report.dataset["n_train"] == 24
        assert sum(sum(row) for row in report.confusion) == 24

    def test_threads_do_not_change_results(self, tiny_dataset):
        cfg = tiny_config(tiny_dataset)
        serial = run_experiment(cfg, threads=1)
        parallel = run_experiment(cfg, threads=2)
        assert serial.state_hash == parallel.state_hash
        assert serial.test_accuracy == parallel.test_accuracy

    def test_artifacts_written(self, tiny_dataset, tmp_path):
        cfg = tiny_config(tiny_dataset, output_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        assert (tmp_path / "run" / "report.json").exists()
        assert (tmp_path / "run" / "readout_model.txt").exists()
        on_disk = json.loads((tmp_path / "run" / "report.json").read_text())
        assert on_disk["state_hash"] == report.state_hash

    def test_mulre_path(self, tiny_dataset):
        cfg = tiny_config(
            tiny_dataset,
            ensemble=EnsembleConfig(
                variant="mulre", d_list=(0.0, 3.0), member_dims=(6, 6, 2)
            ),
            input=InputConfig(
                weight=10.0, density=0.3, scheme="receptive_field", window=3
            ),
        )
        report = run_experiment(cfg)
        assert len(report.spike_stats["members"]) == 2
        assert report.train_accuracy > 0.5

    def test_engine_calls_leave_the_input_maps_as_built(self, tiny_dataset, tmp_path):
        """Each map keeps its targets in the sampler's order, which its
        pinned digests and text export read; SciPy sorts and sums a matrix in
        place, and no engine call may do either to a map."""
        cfg = tiny_config(
            tiny_dataset,
            ensemble=EnsembleConfig(variant="mulre", d_list=(0.0, 3.0), member_dims=(6, 6, 2)),
            input=InputConfig(weight=10.0, density=0.3, scheme="receptive_field", window=3),
        )
        manifest = load_manifest(tiny_dataset)
        engine = build_members(cfg, manifest)

        def snapshot():
            state = []
            for r, (_, imap) in enumerate(engine.members):
                m = imap.matrix
                save_input_map(imap, tmp_path / f"input_{r}.txt")
                text = (tmp_path / f"input_{r}.txt").read_bytes()
                state.append((m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes(), text))
            return state

        built = snapshot()
        # a sorted map would differ
        assert not any(imap.matrix.has_sorted_indices for _, imap in engine.members)
        engine(manifest.train[:3])
        engine(manifest.test[:1])
        assert snapshot() == built

    def test_missing_manifest_errors(self, tmp_path):
        cfg = tiny_config(tmp_path / "nope" / "manifest.json")
        with pytest.raises(DatasetError):
            run_experiment(cfg)

    def test_engine_released_after_serial_run(self, tiny_dataset, monkeypatch):
        built = []

        def build_and_keep_ref(*args, **kwargs):
            engine = build_members(*args, **kwargs)
            built.append(weakref.ref(engine))
            return engine

        monkeypatch.setattr(harness, "build_members", build_and_keep_ref)
        run_experiment(tiny_config(tiny_dataset), threads=1)
        gc.collect()
        assert len(built) == 1 and built[0]() is None

    def test_manifest_resolves_against_data_root(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        cfg = tiny_config(tiny_dataset)
        root = tiny_dataset.parent.parent
        cfg_rel = tiny_config(str(tiny_dataset.relative_to(root)))
        path = tmp_path / "cfg.json"
        save_config(cfg_rel, path)
        monkeypatch.setenv("LSMKIT_DATA_ROOT", str(root))
        loaded = load_config(path)
        assert loaded.dataset_manifest == str(tiny_dataset)
        report = run_experiment(loaded)
        assert report.test_accuracy == run_experiment(cfg).test_accuracy


    def test_manifest_missing_under_data_root_is_an_error(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        # the config directory holds the manifest; the data root does not
        path = tiny_dataset.parent / "cfg_beside_manifest.json"
        save_config(tiny_config(tiny_dataset.name), path)
        monkeypatch.setenv("LSMKIT_DATA_ROOT", str(tmp_path))
        loaded = load_config(path)
        assert loaded.dataset_manifest == str(tmp_path / tiny_dataset.name)
        with pytest.raises(DatasetError):
            run_experiment(loaded)


class TestBatching:
    """Equal-length samples step together in batches sized by a byte
    budget; the batch size never changes a report's state hashes."""

    CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

    @pytest.mark.parametrize(
        "name, sensor, per_sample, batch",
        [("synthetic_tepre3.json", (8, 8, 2), 222_004, 37),
         ("shd_tepre6.json", (700, 1, 1), 868_004, 9),
         ("nmnist_mulre3.json", (34, 34, 2), 14_562_804, 1),
         ("dvsgesture_rf.json", (128, 128, 2), 4_993_204, 1)],
    )
    def test_batch_size_rule_on_shipped_geometry(self, name, sensor, per_sample, batch):
        # over one drive block of S = min(longest slab, DRIVE_BLOCK_STEPS = 50)
        # steps (the slab is T/partitions rounded up for tepre, T for mulre)
        # the count window S*n*8 and the drive S*neurons*8 of the slab's
        # members (one partition, or all), + the held rates: CSR counts of
        # min(n, 32) nonzeros per step, 12 bytes each, and T+1 int32 row
        # pointers.  nmnist's n = 1156 merged 34x34 counts also take, per
        # row of the window, their C-ordered copy 8n, the bank's float64
        # input 8n and rates 18*8n, and its 40x40 FFT arrays, three complex
        # of 40x21 and two real of 40x40: 250,880 bytes a row, 12,544,000
        # a block, + 1,902,400 + 116,404
        cfg = load_config(self.CONFIG_DIR / name)
        width, height, channels = sensor
        geometry = count_geometry(cfg, Manifest(width, height, channels, [], []))
        assert harness.BATCH_BYTES == 8 * 2**20
        assert harness.DRIVE_BLOCK_STEPS == 50
        assert harness.sample_bytes(cfg, geometry) == per_sample
        assert harness.batch_size(cfg, geometry) == batch

    @pytest.fixture(scope="class")
    def shd_stand_in(self, tmp_path_factory):
        """perfbench's shd-tepre6 stand-in at seed 1: (config, manifest path)."""
        path = self.CONFIG_DIR.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        wl = workloads.WORKLOADS["shd-tepre6"]
        out = tmp_path_factory.mktemp("shd")
        manifest_path = wl.generate(wl, 1, out)
        return replace(wl.load_config(manifest_path, out), output_dir=None), manifest_path

    @pytest.mark.parametrize(
        "workload, batch",
        [("synth", 37), ("shd", 8), ("gabor", 6), ("pooled", 2), ("nmnist", 1)],
    )
    def test_engine_call_stays_within_the_model(
        self, tmp_path, shd_stand_in, workload, batch
    ):
        """The model is checked, not assumed: one engine call on a full
        batch at synth-tepre3 geometry, with and without a Gabor bank, on
        all 8 files of the shd stand-in, which its batch of 9 holds in one
        call, on a full batch of two dvs-shaped files pooled by 2 (one
        file's full-resolution frames alone would be twice the model's
        front end), and on one nmnist-shaped file of 250 of its 300 steps,
        whose padded Gabor rates would take 50 MB, traces no more than
        ``call_bytes``, plus a fixed margin."""
        if workload in ("pooled", "nmnist"):  # shipped configs, small reservoirs
            rng = np.random.default_rng(5)
            if workload == "pooled":
                name, side, n, window, steps = "dvsgesture_rf.json", 128, 100_000, 20_000, 300
            else:
                name, side, n, window, steps = "nmnist_mulre3.json", 34, 30_000, 1_000, 250
            streams = [
                EventStream(
                    t=np.sort(rng.integers(0, steps * window, n)),
                    x=rng.integers(0, side, n), y=rng.integers(0, side, n),
                    p=rng.integers(0, 2, n), width=side, height=side, label=label,
                )
                for label in range(batch)
            ]
            splits = {"train": streams, "test": streams[:1]}
            manifest_path = write_dataset(tmp_path, side, side, 2, splits)
            cfg = load_config(self.CONFIG_DIR / name)
            cfg = replace(
                cfg, dataset_manifest=str(manifest_path), output_dir=None,
                ensemble=replace(cfg.ensemble, member_dims=(6, 6, 4)),
            )
            if workload == "pooled":
                assert cfg.preprocessing.downscale == 2
            else:
                prep, inp = cfg.preprocessing, cfg.input
                assert prep.gabor and prep.merge_polarities and prep.steps == 300
                assert (inp.scheme, inp.window) == ("receptive_field", 5)
        elif workload in ("synth", "gabor"):
            cfg = load_config(self.CONFIG_DIR / "synthetic_tepre3.json")
            params = MultiPhaseParams(n_classes=4, n_train=37, n_test=2, seed=7)
            manifest_path = generate_multiphase(params, tmp_path)
            prep = replace(cfg.preprocessing, gabor=workload == "gabor")
            cfg = replace(
                cfg, dataset_manifest=str(manifest_path), preprocessing=prep,
                output_dir=None,
            )
        else:
            cfg, manifest_path = shd_stand_in
        manifest = load_manifest(manifest_path)
        if workload == "shd":  # the stand-in's train and test files in one call
            files = manifest.train + manifest.test
            assert len(files) == batch < harness.batch_size(cfg, count_geometry(cfg, manifest))
        else:
            files = manifest.train[:batch]
            assert harness.batch_size(cfg, count_geometry(cfg, manifest)) == batch
        engine = build_members(cfg, manifest)
        tracemalloc.start()
        try:
            assert len(engine(files)) == batch
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= harness.call_bytes(cfg, manifest, batch) + 2 * 2**20

    @pytest.mark.parametrize("threads", [1, 2])
    def test_shd_stand_in_hash_independent_of_batch(
        self, shd_stand_in, monkeypatch, threads
    ):
        # its 8 files run as one batch of 8 CSR rates (2 batches of 4, one
        # per worker, at 2 threads), or 8 lone files
        cfg, manifest_path = shd_stand_in
        batched = run_experiment(cfg, threads=threads)
        assert batched.batch == 8 // threads
        monkeypatch.setattr(harness, "BATCH_BYTES", 1)
        alone = run_experiment(cfg)
        assert alone.batch == 1
        assert batched.state_hash == alone.state_hash

    @pytest.fixture(scope="class")
    def odd_dataset(self, tmp_path_factory):
        # 11 samples, so a batch of 3 leaves a ragged last batch of 2; keyed
        # by Gabor filtering, whose 7x7 kernels need a larger sensor
        def make(side):
            params = MultiPhaseParams(
                n_classes=3, n_phases=3, width=side, height=side, steps_per_phase=20,
                n_train=7, n_test=4, seed=9,
            )
            return generate_multiphase(params, tmp_path_factory.mktemp("oddset"))

        return {False: make(6), True: make(8)}

    @pytest.mark.parametrize("gabor", [False, True])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_state_hash_independent_of_batch_size(
        self, odd_dataset, monkeypatch, threads, gabor
    ):
        # a Gabor config filters each drive block of its batch's CSR counts
        prep = PreprocessingConfig(time_window=1000, steps=60, gabor=gabor)
        cfg = tiny_config(odd_dataset[gabor], preprocessing=prep)
        geometry = count_geometry(cfg, load_manifest(odd_dataset[gabor]))
        per_sample = harness.sample_bytes(cfg, geometry)
        batches = []
        run_tepre = harness.run_tepre

        def recording_run_tepre(rates, *args, **kwargs):
            # a lone file goes in as its bare matrix, a batch as a list
            batches.append(len(rates) if isinstance(rates, list) else 1)
            return run_tepre(rates, *args, **kwargs)

        monkeypatch.setattr(harness, "run_tepre", recording_run_tepre)
        reports = {}
        # one worker's share caps the batch, so every worker gets one; the
        # calls are filled evenly, so a budget of 5 gives 4 + 4 + 3, not 5 + 5 + 1
        for budget, used in ((1, 1), (3, 3), (5, 4), (100, 11 if threads == 1 else 6)):
            monkeypatch.setattr(harness, "BATCH_BYTES", budget * per_sample)
            batches.clear()
            reports[budget] = run_experiment(cfg, threads=threads)
            assert reports[budget].batch == used
            if threads == 1:  # pool workers record their calls elsewhere
                assert batches == [used] * (11 // used) + [11 % used] * (11 % used > 0)
        hashes = [report.state_hash for report in reports.values()]
        assert all(h == hashes[0] for h in hashes)
        assert reports[1].readout == reports[100].readout


    def test_engine_batches_files_of_unequal_raw_length(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        # 5 and 10 frames of 1 ms are padded and clipped to the same 6 steps
        fixed = PreprocessingConfig(time_window=1000, steps=6)
        cfg = tiny_config(tiny_dataset, preprocessing=fixed)
        engine = build_members(cfg, replace(load_manifest(tiny_dataset), channels=2))
        paths = []
        for i, last in enumerate((4_000, 9_000)):
            paths.append(tmp_path / f"{i}.evs")
            write_events(stream_ending_at(last), paths[-1])
        shapes = []
        run_tepre = harness.run_tepre

        def recording_run_tepre(rates, members, links, schedule, *args, **kwargs):
            # a lone file goes in as its bare matrix, a batch as a list
            shapes.append((schedule.steps, len(rates) if isinstance(rates, list) else 1))
            return run_tepre(rates, members, links, schedule, *args, **kwargs)

        monkeypatch.setattr(harness, "run_tepre", recording_run_tepre)
        both = engine(paths)
        assert shapes == [(6, 2)]
        assert [label for _, label in both] == [0, 0]
        for (features, _), path in zip(both, paths):
            alone, _ = engine([path])[0]
            assert features.tobytes() == alone.tobytes()
        assert shapes == [(6, 2), (6, 1), (6, 1)]

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize(
        "sensor, other", [((6, 6), (8, 8)), ((6, 3), (3, 6))], ids=["wider", "transposed"]
    )
    def test_file_from_another_sensor_is_an_error(self, tmp_path, batch, sensor, other):
        # a transposed file yields as many inputs as the manifest's, so
        # only the header's size tells it apart
        cfg = tiny_config("unused")
        width, height = sensor
        engine = build_members(cfg, Manifest(width, height, 2, [], []))
        paths = []
        for name, (w, h) in (("same", sensor), ("other", other)):
            paths.append(tmp_path / f"{name}.evs")
            stream = EventStream(
                t=[0, 9_000], x=[0, w - 1], y=[0, h - 1], p=[0, 1], width=w, height=h, label=0
            )
            write_events(stream, paths[-1])
        match = rf"other.evs: sensor {other[0]}x{other[1]}, not the manifest's {width}x{height}"
        with pytest.raises(DatasetError, match=match):
            engine(paths[2 - batch :])

    @pytest.mark.parametrize("batch", [1, 2])
    def test_front_end_error_names_its_file(self, tmp_path, monkeypatch, batch):
        # a polarity-1 event in a single-polarity set breaks only its file
        params = MultiPhaseParams(
            n_classes=2, n_phases=2, width=6, height=6, steps_per_phase=20,
            n_train=2, n_test=2, seed=1,
        )
        manifest_path = generate_multiphase(params, tmp_path)
        manifest = load_manifest(manifest_path)
        assert manifest.channels == 1
        bad = manifest.train[1]
        stream = read_events(bad)
        assert stream.n_events
        write_events(replace(stream, p=np.ones_like(stream.p)), bad)
        cfg = tiny_config(manifest_path)
        per_sample = harness.sample_bytes(cfg, count_geometry(cfg, manifest))
        monkeypatch.setattr(harness, "BATCH_BYTES", batch * per_sample)
        match = re.escape(f"{bad}: polarity 1 exceeds channel count 1")
        with pytest.raises(DatasetError, match=match):
            run_experiment(cfg)


class TestGaborBlocks:
    """A Gabor config holds CSR counts and filters each drive block's count
    window: its features are those of the whole clipped or padded sample's
    bank rates, byte for byte, at any batch size."""

    @pytest.mark.parametrize("variant", ["mulre", "tepre"])
    def test_engine_equals_whole_sample_bank_rates(self, tmp_path, variant):
        # 120 steps drive in blocks of 50, 50 and 20 steps (mulre) or in
        # slabs of 40 (tepre); one stream of 90 ms is padded, one of 160 ms
        # clipped
        steps, rng = 120, np.random.default_rng(8)
        streams = []
        for label, span in enumerate((90, 160)):
            n = 30 * span
            streams.append(
                EventStream(
                    t=np.sort(rng.integers(0, span * 1000, n)),
                    x=rng.integers(0, 8, n), y=rng.integers(0, 8, n),
                    p=rng.integers(0, 2, n), width=8, height=8, label=label,
                )
            )
        manifest_path = write_dataset(tmp_path, 8, 8, 2, {"train": streams, "test": streams})
        manifest = load_manifest(manifest_path)
        prep = PreprocessingConfig(time_window=1000, steps=steps, gabor=True)
        if variant == "mulre":
            cfg = tiny_config(
                manifest_path, preprocessing=prep,
                ensemble=EnsembleConfig(variant="mulre", d_list=(0.0, 2.0), member_dims=(4, 4, 3)),
                input=InputConfig(weight=4.0, density=0.25, scheme="receptive_field", window=3),
            )
        else:
            cfg = tiny_config(manifest_path, preprocessing=prep)
        engine = build_members(cfg, manifest)
        batched = engine(manifest.train)
        for path, (features, label) in zip(manifest.train, batched):
            stream = read_events(path)
            frames = merge_channels(bin_events(stream, 1000))
            frames = clip_or_pad(frames, steps)
            rates = gabor_bank(frames).flat()
            if variant == "mulre":
                records = run_mulre(rates, engine.members, cfg.neuron)
            else:
                schedule = equal_split_schedule(steps, len(engine.members))
                records = run_tepre(
                    rates, engine.members, engine.inter_links, schedule, cfg.neuron
                )
            want = extract_state(records).features
            assert want.sum() > 0
            assert label == stream.label
            assert features.tobytes() == want.tobytes()
            (alone, _), = engine([path])
            assert alone.tobytes() == want.tobytes()


class TestReadoutReport:
    def test_shipped_synthetic_readout_converges(self, tmp_path):
        # the shipped settings reach the 1e-6 tolerance well inside the
        # 500-iteration cap
        manifest = generate_multiphase(
            MultiPhaseParams(n_train=30, n_test=10, seed=3), tmp_path / "data"
        )
        shipped = load_config(TestBatching.CONFIG_DIR / "synthetic_tepre3.json")
        cfg = replace(
            shipped, dataset_manifest=str(manifest), output_dir=str(tmp_path / "run")
        )
        assert (cfg.readout.epochs, cfg.readout.tolerance) == (500, 1e-6)
        run_experiment(cfg)
        saved = json.loads((tmp_path / "run" / "report.json").read_text())
        assert saved["readout"]["converged"] is True
        assert saved["readout"]["epochs"] < 500
        assert saved["readout"]["grad_norm"] < 1e-6
        assert saved["readout"]["final_loss"] > 0
        assert saved["batch"] == 20  # all 40 samples in 2 batches, as B = 37 allows

        loose = replace(cfg, readout=replace(cfg.readout, tolerance=1.0), output_dir=None)
        fit = run_experiment(loose).readout
        assert fit["converged"] is True
        assert fit["grad_norm"] < 1.0 and fit["epochs"] < 500


    def test_report_records_its_versions(self, tiny_dataset, tmp_path, monkeypatch):
        cfg = tiny_config(tiny_dataset, output_dir=str(tmp_path / "run"))
        run_experiment(cfg)
        saved = json.loads((tmp_path / "run" / "report.json").read_text())
        versions = saved["versions"]
        assert versions["python"] == ".".join(map(str, sys.version_info[:3]))
        assert versions["numpy"] == np.__version__
        assert versions["scipy"] == scipy.__version__
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
        assert versions["simd_found"] == list(simd)
        monkeypatch.setattr(np, "show_config", lambda: None)  # before NumPy 1.26: no mode
        assert "simd_found" not in harness.versions()
        assert harness.versions()["numpy"] == np.__version__


class TestSweep:
    def test_identical_single_value_twice(self, tiny_dataset):
        cfg = tiny_config(tiny_dataset)
        a = run_sweep(cfg, "partitions", [3], repeats=1)
        b = run_sweep(cfg, "partitions", [3], repeats=1)
        assert a["rows"][0]["per_seed"] == b["rows"][0]["per_seed"]
        ra = a["rows"][0]["reports"][0]
        rb = b["rows"][0]["reports"][0]
        assert ra["state_hash"] == rb["state_hash"]

    def test_axis_values_produce_rows(self, tiny_dataset):
        cfg = tiny_config(tiny_dataset)
        result = run_sweep(cfg, "partitions", [1, 3], repeats=1)
        assert [row["value"] for row in result["rows"]] == [1, 3]
        table = sweep_table(result)
        assert "partitions" in table and len(table.splitlines()) == 3

    def test_empty_axis_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError):
            run_sweep(tiny_config(tiny_dataset), "partitions", [], repeats=1)

    @pytest.mark.parametrize(
        "variant, axis, value",
        [("mulre", "partitions", 3), ("tepre", "d_list", (0.0,)), ("tepre", "window", 3)],
    )
    def test_wrong_axis_for_variant_rejected(self, tiny_dataset, variant, axis, value):
        cfg = tiny_config(tiny_dataset)
        if variant == "mulre":
            cfg = replace(
                cfg,
                ensemble=EnsembleConfig(
                    variant="mulre", d_list=(0.0,), member_dims=(6, 6, 2)
                ),
                input=InputConfig(scheme="receptive_field", window=3),
            )
        with pytest.raises(ConfigError, match=f"{axis} axis does not apply"):
            sweep_config(cfg, axis, value)

    @pytest.mark.parametrize("value", [2.7, True, "3"], ids=["float", "bool", "string"])
    def test_swept_value_is_checked_like_a_config_value(self, tiny_dataset, value):
        cfg = tiny_config(tiny_dataset)
        message = f"bad ensemble section: partitions must be an integer, not {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            sweep_config(cfg, "partitions", value)

    def test_sweep_of_a_bad_value_runs_nothing(self, tiny_dataset, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a sweep ran before checking its values")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        with pytest.raises(ConfigError, match="partitions must be an integer, not 2.7"):
            run_sweep(tiny_config(tiny_dataset), "partitions", [3, 2.7], repeats=1)

    def test_swept_offsets_become_a_tuple(self, tiny_dataset):
        cfg = tiny_config(
            tiny_dataset,
            ensemble=EnsembleConfig(variant="mulre", d_list=(0.0,), member_dims=(6, 6, 2)),
            input=InputConfig(scheme="receptive_field", window=3),
        )
        # as from a config file: the list becomes a tuple, its numbers stay as given
        d_list = sweep_config(cfg, "d_list", [0, 4]).ensemble.d_list
        assert d_list == (0, 4) and [type(d) for d in d_list] == [int, int]

    def test_window_axis(self, tiny_dataset):
        cfg = tiny_config(
            tiny_dataset,
            ensemble=EnsembleConfig(
                variant="mulre", d_list=(0.0,), member_dims=(6, 6, 2)
            ),
            input=InputConfig(
                weight=10.0, density=0.3, scheme="receptive_field", window=3
            ),
        )
        swept = sweep_config(cfg, "window", 5)
        assert swept.input.window == 5


class TestFrameGeometry:
    def test_gabor_geometry(self, tiny_dataset):
        cfg = tiny_config(
            tiny_dataset,
            preprocessing=PreprocessingConfig(time_window=1000, gabor=True, steps=60),
        )
        assert frame_geometry(cfg, Manifest(8, 8, 2, [], [])) == (18, 8, 8)

    def test_sensor_the_front_end_cannot_take_fails_at_load(self, tiny_dataset, monkeypatch):
        # the 7x7 Gabor kernels do not fit the 6x6 frames
        def no_build(*args, **kwargs):
            raise AssertionError("a reservoir was built for an unusable sensor")

        monkeypatch.setattr(harness, "build_reservoir", no_build)
        cfg = tiny_config(
            tiny_dataset,
            preprocessing=PreprocessingConfig(time_window=1000, gabor=True, steps=60),
        )
        with pytest.raises(ConfigError, match="kernel 7 larger than frame 6x6"):
            run_experiment(cfg)

    def test_downscale_geometry(self, tiny_dataset):
        cfg = tiny_config(
            tiny_dataset,
            preprocessing=PreprocessingConfig(time_window=1000, downscale=2, steps=60),
        )
        manifest = load_manifest(cfg.dataset_manifest)
        assert frame_geometry(cfg, manifest) == (1, 3, 3)

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 20_000),
                st.integers(0, 15),
                st.integers(0, 15),
                st.integers(0, 1),
            ),
            max_size=60,
        ),
        st.integers(1, 30),
    )
    def test_geometry_counts_the_inputs_preprocessing_makes(self, events, steps):
        events.sort()
        arr = np.array(events, dtype=np.int64).reshape(-1, 4)
        for merge, gabor, factor, channels in itertools.product(
            (False, True), (False, True), (1, 2), (1, 2)
        ):
            stream = EventStream(
                t=arr[:, 0], x=arr[:, 1], y=arr[:, 2], p=arr[:, 3] % channels,
                width=16, height=16,
            )
            cfg = ExperimentConfig(
                dataset_manifest="unused",
                preprocessing=PreprocessingConfig(
                    downscale=factor, gabor=gabor, merge_polarities=merge,
                    steps=steps,
                ),
            )
            manifest = Manifest(16, 16, channels, train=[], test=[])
            counts = count_geometry(cfg, manifest)
            rates = preprocess_stream(stream, cfg, channels)
            assert rates.dtype == np.float64
            assert rates.shape == (steps, math.prod(counts))
            if gabor:  # the inputs are the bank's rates of the counts
                rates = harness.gabor_window(rates.toarray(), counts)
                assert rates.dtype == np.float64
            assert rates.shape[1] == math.prod(frame_geometry(cfg, manifest))

    def test_late_events_are_never_binned(self, monkeypatch):
        # 30 steps of 1 ms from the first event at 5 ms end at 35 ms: the
        # events at 35 ms and at 2 s fall outside every step
        t = np.concatenate([np.arange(5_000, 35_000, 250), [35_000, 2_000_000]])
        rng = np.random.default_rng(4)
        x, y, p = rng.integers(0, 16, t.size), rng.integers(0, 16, t.size), t % 2
        binned = []

        def recording_bin_events(*args, **kwargs):
            seq = bin_events(*args, **kwargs)
            binned.append(seq.steps)
            return seq

        monkeypatch.setattr(harness, "bin_events", recording_bin_events)
        for merge, gabor, factor in itertools.product((False, True), (False, True), (1, 2)):
            prep = PreprocessingConfig(
                downscale=factor, gabor=gabor, merge_polarities=merge, steps=30
            )
            cfg = ExperimentConfig(dataset_manifest="unused", preprocessing=prep)
            rates = [
                preprocess_stream(
                    EventStream(t[:n], x[:n], y[:n], p[:n], width=16, height=16), cfg, 2
                )
                for n in (t.size - 2, t.size)
            ]
            assert rates[0].shape[0] == 30
            assert rates[0].toarray().tobytes() == rates[1].toarray().tobytes()
        assert max(binned) == 30


class TestCli:
    def test_synth_convert_run_sweep(self, tmp_path, capsys):
        data = tmp_path / "data"
        rc = cli.main(
            [
                "synth", "--out", str(data), "--classes", "3", "--phases", "3",
                "--width", "6", "--height", "6", "--steps-per-phase", "20",
                "--train", "18", "--test", "18", "--seed", "3",
            ]
        )
        assert rc == 0
        manifest = data / "manifest.json"
        assert manifest.exists()

        cfg = tiny_config(manifest, readout=ReadoutConfig(epochs=60))
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)

        run_dir = tmp_path / "run"
        rc = cli.main(
            ["run", "--config", str(cfg_path), "--out", str(run_dir), "--threads", "1"]
        )
        assert rc == 0
        assert (run_dir / "report.json").exists()
        out = capsys.readouterr().out
        assert "test accuracy" in out

        sweep_dir = tmp_path / "sweepout"
        rc = cli.main(
            [
                "sweep", "--config", str(cfg_path), "--axis", "partitions",
                "--values", "1,3", "--repeats", "1", "--out", str(sweep_dir),
            ]
        )
        assert rc == 0
        assert (sweep_dir / "sweep.json").exists()

    def test_convert_round_trip(self, tmp_path):
        csv = tmp_path / "ev.csv"
        csv.write_text("t,x,y,p\n0,1,2,1\n10,3,0,0\n")
        evs = tmp_path / "ev.evs"
        back = tmp_path / "back.csv"
        assert cli.main(
            ["convert", "--to-binary", str(csv), str(evs), "--width", "4",
             "--height", "4", "--label", "2"]
        ) == 0
        assert cli.main(["convert", "--to-csv", str(evs), str(back)]) == 0
        assert back.read_text() == csv.read_text()

    def test_truncated_binary_is_an_error(self, tmp_path, capsys):
        evs = tmp_path / "trunc.evs"
        evs.write_bytes(b"EVS1abc")
        out = tmp_path / "out.csv"
        rc = cli.main(["convert", "--to-csv", str(evs), str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {evs}: truncated EVS1 header"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis, values, message",
        [("partitions", "1,1.5", "bad ensemble section: partitions must be an integer, not 1.5"),
         ("d_list", "0;x", "--values for axis d_list: 'x' is not a number")],
        ids=["fractional-partitions", "word-in-d_list"],
    )
    def test_malformed_sweep_values_are_an_error(
        self, tmp_path, tiny_dataset, capsys, axis, values, message
    ):
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config(tiny_dataset), cfg_path)
        rc = cli.main(
            ["sweep", "--config", str(cfg_path), "--axis", axis, "--values", values]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_infinite_sweep_offset_is_an_error(self, tmp_path, tiny_dataset, capsys):
        cfg = tiny_config(
            tiny_dataset,
            ensemble=EnsembleConfig(variant="mulre", d_list=(0.0,), member_dims=(6, 6, 2)),
            input=InputConfig(scheme="receptive_field", window=3),
        )
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        rc = cli.main(
            ["sweep", "--config", str(cfg_path), "--axis", "d_list", "--values", "0,inf"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: bad ensemble section: d must be a finite number >= 0, not inf"
        )

    def test_bool_threshold_is_an_error(self, tmp_path, tiny_dataset, capsys):
        # a bool is a number to Python; loaded as theta it was echoed as true
        data = to_dict(tiny_config(tiny_dataset))
        data["neuron"] = {"theta": True}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert '"theta": true' in cfg_path.read_text()
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "error: bad neuron section: theta must be a real number, not True\n"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--to-binary", "--height", "4"], "error: --to-binary needs --width"),
            (["--to-binary", "--width", "4"], "error: --to-binary needs --height"),
            (
                ["--to-csv", "--width", "99", "--height", "7", "--label", "9"],
                "error: --to-csv takes no --width, --height, --label",
            ),
            (["--to-csv", "--label", "0"], "error: --to-csv takes no --label"),
        ],
        ids=["binary-no-width", "binary-no-height", "csv-with-header", "csv-with-label"],
    )
    def test_convert_flag_its_direction_does_not_read(
        self, tmp_path, capsys, flags, message
    ):
        src = tmp_path / "ev.csv"
        src.write_text("t,x,y,p\n0,1,2,1\n")
        out = tmp_path / "out"
        rc = cli.main(["convert", str(src), str(out)] + flags)
        assert rc == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_an_error(
        self, tmp_path, tiny_dataset, capsys, monkeypatch, threads
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("a reservoir was built for a bad thread count")

        monkeypatch.setattr(harness, "build_reservoir", no_build)
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config(tiny_dataset), cfg_path)
        rc = cli.main(["run", "--config", str(cfg_path), "--threads", threads])
        assert rc == 2
        assert capsys.readouterr().err == f"error: threads must be >= 1, not {threads}\n"

    def test_topo_export(self, tmp_path, tiny_dataset):
        cfg = tiny_config(tiny_dataset)
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        out = tmp_path / "topo"
        rc = cli.main(
            ["topo-export", "--config", str(cfg_path), "--out", str(out), "--with-input"]
        )
        assert rc == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [
            f"member_{i}_{kind}.txt"
            for i in range(3)
            for kind in ("input", "topology")
        ]
        # tepre members are the z-split of the 4x4x6 total grid
        header = (out / "member_0_topology.txt").read_text().splitlines()[:2]
        assert header == ["lsm-topology v1", "dims 4 4 2"]

    def test_seed_override(self, tmp_path, tiny_dataset, capsys):
        cfg = tiny_config(tiny_dataset)
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        rc = cli.main(
            ["run", "--config", str(cfg_path), "--seed-override", "99"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert '"topology": 99' in out

    def test_truncated_config_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dataset": ')
        rc = cli.main(["run", "--config", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err

    @pytest.mark.parametrize(
        "row",
        ["5,x,1,0", "5,1,1", "5,1,1,0,9"],
        ids=["not-an-integer", "three-fields", "five-fields"],
    )
    def test_malformed_csv_row_is_an_error(self, tmp_path, capsys, row):
        csv = tmp_path / "ev.csv"
        csv.write_text(f"t,x,y,p\n0,1,2,1\n{row}\n")
        rc = cli.main(
            ["convert", "--to-binary", str(csv), str(tmp_path / "ev.evs"),
             "--width", "4", "--height", "4"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{csv}:3" in err

    def test_polarity_too_wide_for_binary_is_an_error(self, tmp_path, capsys):
        csv = tmp_path / "ev.csv"
        csv.write_text("t,x,y,p\n5,1,1,300\n")
        evs = tmp_path / "ev.evs"
        rc = cli.main(
            ["convert", "--to-binary", str(csv), str(evs), "--width", "2", "--height", "2"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: event p = 300")
        assert not evs.exists()

    @pytest.mark.parametrize(
        "row, flags, message",
        [("5,1,1,0", ["--label", "-1"], "error: label must be >= 0, not -1"),
         ("-5,1,1,0", [], "error: event t = -5 is negative")],
        ids=["negative-label", "negative-time"],
    )
    def test_value_outside_binary_header_or_record_is_an_error(
        self, tmp_path, capsys, row, flags, message
    ):
        csv = tmp_path / "ev.csv"
        csv.write_text(f"t,x,y,p\n{row}\n")
        evs = tmp_path / "ev.evs"
        rc = cli.main(
            ["convert", "--to-binary", str(csv), str(evs), "--width", "2", "--height", "2"]
            + flags
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith(message)
        assert not evs.exists()

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dataset": {"manifest": "missing.json"}}')
        rc = cli.main(["run", "--config", str(bad)])
        assert rc != 0
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, named",
        [(None, "readuot", "unknown config key 'readuot'"),
         ("dataset", "manfest", "unknown config key 'dataset.manfest'")],
        ids=["section", "dataset-key"],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, tiny_dataset, capsys,
                                        section, key, named):
        # a misspelt key fails to load instead of leaving its defaults in force
        data = to_dict(tiny_config(tiny_dataset))
        (data if section is None else data[section])[key] = {"epochs": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"

    @pytest.mark.parametrize(
        "flags, named",
        [(["--width", "0"], "width must be >= 1, not 0"),
         (["--time-window", "0"], "time_window must be >= 1, not 0"),
         (["--seed", "-1"], "seed must be >= 0, not -1"),
         (["--train", "0"], "n_train must be >= 1, not 0"),
         (["--train", "-3"], "n_train must be >= 1, not -3"),
         (["--steps-per-phase", "0"], "steps_per_phase must be >= 1, not 0")],
        ids=["width", "time-window", "seed", "train-0", "train-negative", "steps-per-phase"],
    )
    def test_synth_bad_integer_exits_2(self, tmp_path, capsys, flags, named):
        out = tmp_path / "synth"
        rc = cli.main(["synth", "--out", str(out), "--train", "2", "--test", "2"] + flags)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_synth_defaults_are_the_params_defaults(self, tmp_path, capsys):
        via_cli, direct = tmp_path / "cli", tmp_path / "direct"
        rc = cli.main(["synth", "--out", str(via_cli), "--train", "8", "--test", "4"])
        assert rc == 0
        generate_multiphase(MultiPhaseParams(n_train=8, n_test=4), direct)
        files = sorted(f.relative_to(direct) for f in direct.rglob("*") if f.is_file())
        assert len(files) == 8 + 4 + 1
        assert files == sorted(
            f.relative_to(via_cli) for f in via_cli.rglob("*") if f.is_file()
        )
        for f in files:
            assert (via_cli / f).read_bytes() == (direct / f).read_bytes()

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"height": 6, "train": [], "test": []}', "'width'"),
            ('{"width": 6, "height": ', "not valid JSON"),
            ('{"width": 6, "height": 6, "train": 3, "test": []}', "is malformed"),
            ('{"width": 6, "height": 6, "train": "a.evs", "test": ["b.evs"]}', "is malformed"),
            ('{"width": 6, "height": 6, "channels": 1, "train": [], "test": []}',
             "no train samples"),
            ('{"width": 6, "height": 6, "channels": 1, "train": ["a.evs"], "test": []}',
             "no test samples"),
            ('{"width": 6, "height": 6, "train": ["a.evs"], "test": ["b.evs"]}', "'channels'"),
            ('{"width": 8.9, "height": 8, "train": ["a.evs"], "test": ["b.evs"]}',
             "is malformed: width must be an integer, not 8.9"),
            ('{"width": "8", "height": 8, "train": ["a.evs"], "test": ["b.evs"]}',
             "is malformed: width must be an integer, not '8'"),
            ('{"width": 8, "height": 8, "channels": true, "train": ["a.evs"], "test": ["b.evs"]}',
             "is malformed: channels must be an integer, not True"),
            ('{"width": 8, "height": 8, "channels": 0, "train": ["a.evs"], "test": ["b.evs"]}',
             "is malformed: channels must be >= 1, not 0"),
            ('{"width": -8, "height": -8, "train": ["a.evs"], "test": ["b.evs"]}',
             "is malformed: width must be >= 1, not -8"),
        ],
        ids=["no-width", "bad-json", "train-not-a-list", "train-a-string", "empty", "no-test",
             "no-channels", "float-width", "string-width", "bool-channels", "zero-channels", "negative-sizes"],
    )
    def test_malformed_manifest_is_an_error(self, tmp_path, capsys, text, named):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config(manifest), cfg_path)
        rc = cli.main(["run", "--config", str(cfg_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(manifest) in err and named in err

    def test_event_off_the_sensor_names_its_file(self, tmp_path, capsys):
        # write_events checks only the record limits, so the file is patched:
        # the first record's x (8 bytes into it, after the 24-byte header) is
        # set to 7 on a 6-wide sensor
        params = MultiPhaseParams(
            width=6, height=6, steps_per_phase=20, n_train=4, n_test=4, seed=1
        )
        manifest_path = generate_multiphase(params, tmp_path / "data")
        bad = load_manifest(manifest_path).train[0]
        data = bytearray(bad.read_bytes())
        data[32:34] = (7).to_bytes(2, "little")
        bad.write_bytes(bytes(data))
        with pytest.raises(ConfigError, match=re.escape(f"{bad}: event x out of sensor range")):
            read_events(bad)
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config(manifest_path), cfg_path)
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: event x out of sensor range\n"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("ensemble", None, None),
            ("ensemble", None, {"dims": 5}),
            ("connectivity", "c_table", [1, 2]),
            ("ensemble", "partitions", 1.5),
            ("neuron", "theta", float("nan")),
            ("ensemble", "d_list", [0, 4]),
            ("input", "window", 3),
        ],
        ids=[
            "ensemble-null", "dims-not-a-list", "c_table-not-an-object", "partitions-float",
            "theta-nan", "d_list-on-tepre", "window-on-standard",
        ],
    )
    def test_malformed_section_is_an_error(
        self, tmp_path, tiny_dataset, capsys, monkeypatch, section, key, value
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("a reservoir was built from a bad config")

        monkeypatch.setattr(harness, "build_reservoir", no_build)
        data = to_dict(tiny_config(tiny_dataset))
        if key is None:
            data[section] = value
        else:
            data[section][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        rc = cli.main(["run", "--config", str(cfg_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad {section} section:")


# Small synthetic sets for the real-weight twins: events sparse enough that
# many of a drive block's inputs stay silent.
TWIN_SETS = {
    "dvsgesture_rf.json": MultiPhaseParams(
        n_classes=2, n_phases=3, width=48, height=48, steps_per_phase=100,
        time_window=20000, hi_rate=0.05, lo_rate=0.002, n_train=2, n_test=2, seed=7,
    ),
    "shd_tepre6.json": MultiPhaseParams(
        n_classes=2, n_phases=4, width=10, height=10, steps_per_phase=250,
        time_window=1000, hi_rate=0.02, lo_rate=0.002, n_train=2, n_test=2, seed=8,
    ),
}
# SHA-256 of each twin's train and test features, of every step's injected
# current and of the final v and u, recorded before drive blocks were mapped
# over their active inputs only (NumPy 2.4.6, SciPy 1.17.1).
TWIN_PINS = {
    "dvsgesture_rf.json": {
        "train": "02305c73a09524130a43c11923e8f9ffbfffc9de02b968b63d25c8c5425826e0",
        "test": "924d8c166fd629455b9754cdd2389bacadda94a3ffa869a392928268fc43f139",
        "drive": "7e70878f9c94063efdce7ed36dc6116f5e209fe749fe6667058ab0c1f49a2512",
        "state": "88fa2a50bb161fd72e02cf1c133d21065fb5512ec46dcce71facb61bae75a4a6",
    },
    "shd_tepre6.json": {
        "train": "52242517f7de28f89599497b5fef47645437c62345bddc8d54ca6222a2957b5b",
        "test": "7726b11b966042b7b56839198869f419de901779aa2d1d83b39948a894f4e447",
        "drive": "f14ee8fe034131223fa642ed1282b6db1d3759e59cf1eb91561545c80fe303c1",
        "state": "cf004b23d3c9b01ee100d3acf18b50ee9e205f7ad57596f4c0a8f7afc165bed7",
    },
}


class TestRealWeightTwins:
    """Twins of two shipped count configs with input weight 7.3, ``w_lsm``
    0.7 and ``inter_weight`` -1.3.  Their drive and state sums are inexact,
    so a reordered sum changes the drive and state pins, which spike counts
    alone would hide.  The pins hold with every recurrent and link sum
    gathered from the fired columns, with every one a whole product, and
    with the shipped rule choosing per sum."""

    CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

    @pytest.mark.parametrize(
        "sparse_firing",
        [1, neurons_module.SPARSE_FIRING, 10**9],
        ids=["gather", "shipped", "whole"],
    )
    @pytest.mark.parametrize("name", sorted(TWIN_SETS))
    def test_pinned(self, name, sparse_firing, tmp_path, monkeypatch):
        monkeypatch.setattr(neurons_module, "SPARSE_FIRING", sparse_firing)
        cfg = load_config(self.CONFIG_DIR / name)
        cfg = replace(
            cfg,
            dataset_manifest=str(generate_multiphase(TWIN_SETS[name], tmp_path)),
            output_dir=None,
            input=replace(cfg.input, weight=7.3),
            neuron=replace(cfg.neuron, w_lsm=0.7),
        )
        if cfg.ensemble.variant == "tepre":
            cfg = replace(cfg, ensemble=replace(cfg.ensemble, inter_weight=-1.3))
        drive, widths, final = hashlib.sha256(), [], []
        step, mapped = ensemble_module.lif_step, ensemble_module.drive_through_map

        def recording_step(state, injected, *args, **kwargs):
            drive.update(np.ascontiguousarray(injected).tobytes())
            final[:] = [step(state, injected, *args, **kwargs)]
            return final[0]

        def recording_map(rates, imap):
            widths.append(imap.n_inputs)
            return mapped(rates, imap)

        monkeypatch.setattr(ensemble_module, "lif_step", recording_step)
        monkeypatch.setattr(ensemble_module, "drive_through_map", recording_map)
        report = run_experiment(cfg)
        assert report.batch == 4  # one call: the final state is the whole run's
        got = {
            "train": report.state_hash["train"],
            "test": report.state_hash["test"],
            "drive": drive.hexdigest(),
            "state": hashlib.sha256(final[0].v.tobytes() + final[0].u.tobytes()).hexdigest(),
        }
        assert got == TWIN_PINS[name]
        # some blocks map their members' maps over fewer than all inputs
        full = math.prod(frame_geometry(cfg, load_manifest(cfg.dataset_manifest)))
        assert min(widths) < full and max(widths) <= full

