import gc
import itertools
import json
import math
import weakref

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
from lsmkit.config import from_dict, to_dict
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


@st.composite
def experiment_configs(draw):
    """Valid tepre and mulre configs with every field drawn."""
    if draw(st.booleans()):
        parts = draw(sizes)
        ensemble = EnsembleConfig(
            variant="tepre",
            partitions=parts,
            dims=(draw(sizes), draw(sizes), parts * draw(sizes)),
            inter_density=draw(fractions),
            inter_weight=draw(st.floats(-10.0, 0.0)),
        )
        scheme, state_mode = "standard", draw(st.sampled_from(["full", "per-slab"]))
    else:
        ensemble = EnsembleConfig(
            variant="mulre",
            d_list=tuple(draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))),
            member_dims=(draw(sizes), draw(sizes), draw(sizes)),
        )
        scheme, state_mode = "receptive_field", "full"
    lambda_list = draw(
        st.none()
        | st.lists(positive, min_size=ensemble.n_members, max_size=ensemble.n_members)
        .map(tuple)
    )
    return ExperimentConfig(
        dataset_manifest=draw(st.text("abc/._-", min_size=1, max_size=20)),
        preprocessing=PreprocessingConfig(
            time_window=draw(st.integers(1, 10**6)),
            downscale=draw(sizes),
            gabor=draw(st.booleans()),
            merge_polarities=draw(st.booleans()),
            input_scale=draw(positive),
            steps=draw(st.none() | st.integers(1, 5000)),
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
            c_table={k: draw(fractions) for k in ("EE", "EI", "IE", "II")},
            lambda_list=lambda_list,
        ),
        input=InputConfig(
            weight=draw(positive),
            density=draw(fractions),
            scheme=scheme,
            window=draw(sizes),
        ),
        ensemble=ensemble,
        readout=ReadoutConfig(
            l2=draw(st.floats(0.0, 1.0)),
            learning_rate=draw(positive),
            epochs=draw(st.integers(0, 1000)),
            tolerance=draw(st.floats(0.0, 1.0)),
        ),
        state_mode=state_mode,
        seeds=Seeds(*(draw(st.integers(0, 2**31 - 1)) for _ in range(3))),
        output_dir=draw(st.none() | st.text("abc/._-", max_size=20)),
    )


class TestConfigRoundTrip:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(experiment_configs())
    def test_dict_round_trip_property(self, cfg):
        assert from_dict(to_dict(cfg)) == cfg
        assert from_dict(json.loads(json.dumps(to_dict(cfg)))) == cfg

    @pytest.mark.parametrize("key", ["seed", "backtracking"])
    def test_retired_readout_keys_rejected(self, tiny_dataset, key):
        data = to_dict(tiny_config(tiny_dataset))
        data["readout"][key] = True if key == "backtracking" else 0
        with pytest.raises(ConfigError, match=key):
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
            connectivity=ConnectivityConfig(lam=2.0, lambda_list=(2.0, 3.0)),
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

    def test_per_slab_state_mode(self, tiny_dataset):
        full = run_experiment(tiny_config(tiny_dataset))
        slab = run_experiment(tiny_config(tiny_dataset, state_mode="per-slab"))
        assert full.state_hash["train"] != slab.state_hash["train"]

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

    def test_wrong_axis_for_variant_rejected(self, tiny_dataset):
        with pytest.raises(ConfigError):
            sweep_config(tiny_config(tiny_dataset), "d_list", (0.0,))

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
        st.none() | st.integers(1, 30),
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

    def test_topo_export(self, tmp_path, tiny_dataset):
        from lsmkit import load_topology

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
        topo = load_topology(out / "member_0_topology.txt")
        assert topo.size == 32

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
        "row", ["5,x,1,0", "5,1,1"], ids=["not-an-integer", "three-fields"]
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
        ],
        ids=["no-width", "bad-json", "train-not-a-list"],
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
