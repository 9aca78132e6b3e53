import gc
import itertools
import json
import math
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lsmkit.cli as cli
import lsmkit.harness as harness
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
)
from lsmkit.config import FIELDS_READ, from_dict, to_dict
from lsmkit.eventio import write_events
from lsmkit.harness import (
    Manifest,
    build_members,
    frame_geometry,
    load_manifest,
    preprocess_stream,
    run_experiment,
    run_sweep,
    sweep_config,
    sweep_table,
)
from lsmkit.readout import ReadoutConfig
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
            member_dims=draw(grids),
        )
        # the receptive window fits the member grid
        window = draw(st.integers(1, min(ensemble.member_dims[:2])))
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
            learning_rate=draw(positive),
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

    @pytest.mark.parametrize("key", ["seed", "backtracking", "state_mode"])
    def test_retired_readout_keys_rejected(self, tiny_dataset, key):
        data = to_dict(tiny_config(tiny_dataset))
        data["readout"][key] = {"seed": 0, "backtracking": True, "state_mode": "full"}[key]
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
        [("synthetic_tepre3.json", (8, 8, 2), 364_800, 22),
         ("shd_tepre6.json", (700, 1, 1), 7_203_200, 1),
         ("nmnist_mulre3.json", (34, 34, 2), 108_518_400, 1),
         ("dvsgesture_rf.json", (128, 128, 2), 48_921_600, 1)],
    )
    def test_batch_size_rule_on_shipped_geometry(self, name, sensor, per_sample, batch):
        # rates T*n_inputs*8 + over the longest slab S (T/partitions rounded
        # up for tepre, T for mulre) its window copy S*n_inputs*8 and the
        # drive S*neurons*8 of the slab's members (one partition, or all)
        cfg = load_config(self.CONFIG_DIR / name)
        width, height, channels = sensor
        geometry = frame_geometry(cfg, Manifest(width, height, channels, [], []))
        assert harness.BATCH_BYTES == 8 * 2**20
        assert harness.sample_bytes(cfg, geometry) == per_sample
        assert harness.batch_size(cfg, geometry) == batch

    def test_engine_call_stays_within_the_model(self, tmp_path):
        """The model is checked, not assumed: one engine call at
        synth-tepre3 geometry and its full batch traces no more than the
        batch times ``sample_bytes``, plus a fixed margin."""
        cfg = load_config(self.CONFIG_DIR / "synthetic_tepre3.json")
        params = MultiPhaseParams(n_classes=4, n_train=22, n_test=2, seed=7)
        manifest_path = generate_multiphase(params, tmp_path)
        cfg = replace(cfg, dataset_manifest=str(manifest_path), output_dir=None)
        manifest = load_manifest(manifest_path)
        geometry = frame_geometry(cfg, manifest)
        batch = harness.batch_size(cfg, geometry)
        assert batch == 22
        engine = build_members(cfg, geometry, manifest.channels)
        tracemalloc.start()
        try:
            assert len(engine(manifest.train[:batch])) == batch
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= batch * harness.sample_bytes(cfg, geometry) + 2 * 2**20

    @pytest.fixture(scope="class")
    def odd_dataset(self, tmp_path_factory):
        # 11 samples, so a batch of 3 leaves a ragged last batch of 2
        params = MultiPhaseParams(
            n_classes=3, n_phases=3, width=6, height=6, steps_per_phase=20,
            n_train=7, n_test=4, seed=9,
        )
        return generate_multiphase(params, tmp_path_factory.mktemp("oddset"))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_state_hash_independent_of_batch_size(self, odd_dataset, monkeypatch, threads):
        cfg = tiny_config(odd_dataset)
        geometry = frame_geometry(cfg, load_manifest(odd_dataset))
        per_sample = harness.sample_bytes(cfg, geometry)
        batches = []
        run_tepre = harness.run_tepre

        def recording_run_tepre(rates, *args, **kwargs):
            batches.append(rates.shape[1])
            return run_tepre(rates, *args, **kwargs)

        monkeypatch.setattr(harness, "run_tepre", recording_run_tepre)
        reports = {}
        # one worker's share caps the batch, so every worker gets one
        for budget, used in ((1, 1), (3, 3), (100, 11 if threads == 1 else 6)):
            monkeypatch.setattr(harness, "BATCH_BYTES", budget * per_sample)
            batches.clear()
            reports[budget] = run_experiment(cfg, threads=threads)
            assert reports[budget].batch == used
            if threads == 1:  # pool workers record their calls elsewhere
                assert batches == [used] * (11 // used) + [11 % used] * (11 % used > 0)
        assert reports[1].state_hash == reports[3].state_hash == reports[100].state_hash
        assert reports[1].readout == reports[100].readout


    def test_engine_batches_files_of_unequal_raw_length(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        # 5 and 10 frames of 1 ms are padded and clipped to the same 6 steps
        fixed = PreprocessingConfig(time_window=1000, steps=6)
        cfg = tiny_config(tiny_dataset, preprocessing=fixed)
        engine = build_members(cfg, frame_geometry(cfg, load_manifest(tiny_dataset)), 2)
        paths = []
        for i, last in enumerate((4_000, 9_000)):
            paths.append(tmp_path / f"{i}.evs")
            write_events(stream_ending_at(last), paths[-1])
        shapes = []
        run_tepre = harness.run_tepre

        def recording_run_tepre(rates, *args, **kwargs):
            shapes.append(rates.shape[:2])
            return run_tepre(rates, *args, **kwargs)

        monkeypatch.setattr(harness, "run_tepre", recording_run_tepre)
        both = engine(paths)
        assert shapes == [(6, 2)]
        assert [label for _, label in both] == [0, 0]
        for (features, _), path in zip(both, paths):
            alone, _ = engine([path])[0]
            assert features.tobytes() == alone.tobytes()
        assert shapes == [(6, 2), (6, 1), (6, 1)]

    @pytest.mark.parametrize("batch", [1, 2])
    def test_file_from_another_sensor_is_an_error(self, tiny_dataset, tmp_path, batch):
        cfg = tiny_config(tiny_dataset)
        manifest = load_manifest(tiny_dataset)
        engine = build_members(cfg, frame_geometry(cfg, manifest), 2)
        wide = tmp_path / "wide.evs"
        stream = stream_ending_at(9_000)
        write_events(replace(stream, x=stream.x + 2, width=8, height=8), wide)
        with pytest.raises(DatasetError, match=r"wide.evs: \d+ inputs, not \d+"):
            engine(manifest.train[: batch - 1] + [wide])


class TestReadoutReport:
    def test_shipped_synthetic_readout_does_not_converge(self, tmp_path):
        # the shipped settings stop at 500 epochs with the gradient norm
        # near 1e-3, far above the 1e-6 tolerance
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
        assert saved["readout"]["converged"] is False
        assert saved["readout"]["epochs"] == 500
        assert saved["readout"]["grad_norm"] > 1e-4
        assert saved["batch"] == 22  # all 40 samples in batches of 22 and 18

        loose = replace(cfg, readout=replace(cfg.readout, tolerance=1.0), output_dir=None)
        fit = run_experiment(loose).readout
        assert fit["converged"] is True
        assert fit["grad_norm"] < 1.0 and fit["epochs"] < 500


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
        manifest = load_manifest(cfg.dataset_manifest)
        assert frame_geometry(cfg, manifest) == (18, 6, 6)

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
            rates = preprocess_stream(stream, cfg, channels)
            assert rates.dtype == np.float64
            assert rates.shape[1] == math.prod(frame_geometry(cfg, manifest))


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
        "axis, values, token",
        [("partitions", "1,1.5", "'1.5' is not an integer"),
         ("d_list", "0;x", "'x' is not a number")],
        ids=["fractional-partitions", "word-in-d_list"],
    )
    def test_malformed_sweep_values_are_an_error(
        self, tmp_path, tiny_dataset, capsys, axis, values, token
    ):
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config(tiny_dataset), cfg_path)
        rc = cli.main(
            ["sweep", "--config", str(cfg_path), "--axis", axis, "--values", values]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: --values for axis {axis}: {token}\n"

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
            "error: distance offset d must be finite and >= 0, not inf"
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
        [("5,1,1,0", ["--label", "-1"], "error: header label = -1"),
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
        "text, named",
        [
            ('{"height": 6, "train": [], "test": []}', "'width'"),
            ('{"width": 6, "height": ', "not valid JSON"),
            ('{"width": 6, "height": 6, "train": 3, "test": []}', "malformed"),
            ('{"width": 6, "height": 6, "train": [], "test": []}', "no train samples"),
            ('{"width": 6, "height": 6, "train": ["a.evs"], "test": []}', "no test samples"),
        ],
        ids=["no-width", "bad-json", "train-not-a-list", "empty", "no-test"],
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
