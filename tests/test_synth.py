import numpy as np
import pytest

from lsmkit import (
    ConfigError,
    ConnectionLaw,
    EventStream,
    GridDims,
    InputSpec,
    NeuronParams,
    ReadoutConfig,
    bin_events,
    build_input,
    build_reservoir,
    build_tepre,
    clip_or_pad,
    equal_split_schedule,
    extract_state,
    run_tepre,
    train_readout,
)
from lsmkit.eventio import read_events
from lsmkit.synth import (
    MultiPhaseParams,
    base_patterns,
    class_orders,
    generate_multiphase,
    sample_stream,
)


class TestGenerator:
    def test_round_trip_bit_exact(self, tmp_path):
        params = MultiPhaseParams(
            n_classes=2, n_phases=3, n_train=6, n_test=4, steps_per_phase=10, seed=1
        )
        manifest = generate_multiphase(params, tmp_path)
        import json

        data = json.loads(manifest.read_text())
        assert len(data["train"]) == 6 and len(data["test"]) == 4
        rng = np.random.default_rng(params.seed)
        patterns = base_patterns(params, rng)
        orders = class_orders(params)
        for i, rel in enumerate(data["train"]):
            regenerated = sample_stream(i % 2, orders, patterns, params, rng)
            loaded = read_events(tmp_path / rel)
            assert loaded.label == i % 2
            assert np.array_equal(loaded.t, regenerated.t)
            assert np.array_equal(loaded.x, regenerated.x)
            assert np.array_equal(loaded.y, regenerated.y)
            assert np.array_equal(loaded.p, regenerated.p)

    def test_orders_are_distinct_permutations(self):
        params = MultiPhaseParams(n_classes=4, n_phases=3)
        orders = class_orders(params)
        assert len(set(orders)) == 4
        for order in orders:
            assert sorted(order) == [0, 1, 2]

    def test_too_many_classes_rejected(self):
        with pytest.raises(ConfigError):
            MultiPhaseParams(n_classes=7, n_phases=3)

    def test_zero_rate_gives_empty_streams(self, tmp_path):
        params = MultiPhaseParams(
            n_classes=2, n_phases=2, hi_rate=0.0, lo_rate=0.0,
            n_train=2, n_test=2, steps_per_phase=5, seed=2,
        )
        manifest = generate_multiphase(params, tmp_path)
        import json

        for rel in json.loads(manifest.read_text())["train"]:
            stream = read_events(tmp_path / rel)
            assert stream.n_events == 0
            assert bin_events(stream, 1000).steps == 0

    def test_phase_rates_follow_patterns(self):
        params = MultiPhaseParams(n_classes=2, n_phases=3, seed=3)
        rng = np.random.default_rng(0)
        patterns = base_patterns(params, rng)
        orders = class_orders(params)
        stream = sample_stream(0, orders, patterns, params, rng)
        seq = clip_or_pad(
            bin_events(stream, params.time_window, n_channels=1), params.total_steps
        )
        flat = seq.flat()
        for phase in range(3):
            block = flat[phase * 100 : (phase + 1) * 100]
            rates = block.mean(axis=0)
            active = patterns[orders[0][phase]]
            assert rates[active].mean() > 0.9 * params.hi_rate
            assert rates[~active].mean() < 1.5 * params.lo_rate


class TestPhaseLocalizedSignal:
    def test_partition_covering_the_informative_phase_dominates_readout(self):
        # classes share their patterns in phases 0 and 1 and differ only in
        # phase 2; after TEPRE training the readout weight mass must sit on
        # the partition gated to phase 2
        rng = np.random.default_rng(7)
        width = height = 6
        n_pixels = width * height
        shared = rng.random(n_pixels) < 0.4
        pattern_a = rng.random(n_pixels) < 0.4
        pattern_b = ~pattern_a

        def make_stream(label, sample_rng):
            blocks = []
            for phase in range(3):
                if phase < 2:
                    mask = shared
                else:
                    mask = pattern_a if label == 0 else pattern_b
                rates = np.where(mask, 0.5, 0.05)
                fires = sample_rng.random((60, n_pixels)) < rates[None, :]
                step, pix = np.nonzero(fires)
                blocks.append(
                    (
                        (phase * 60 + step).astype(np.int64) * 1000
                        + sample_rng.integers(0, 1000, size=step.size),
                        pix % width,
                        pix // width,
                    )
                )
            t = np.concatenate([b[0] for b in blocks])
            x = np.concatenate([b[1] for b in blocks])
            y = np.concatenate([b[2] for b in blocks])
            order = np.argsort(t, kind="stable")
            return EventStream(
                t=t[order], x=x[order], y=y[order],
                p=np.zeros(t.size, dtype=np.int64),
                width=width, height=height, label=label,
            )

        params = NeuronParams()
        dims = GridDims(4, 4, 4)
        members = []
        for i in range(3):
            topo = build_reservoir(dims, ConnectionLaw(), params, 80 + i)
            spec = InputSpec(n_inputs=n_pixels, input_weight=10.0, density=0.25)
            members.append((topo, build_input(spec, dims, 90 + i)))
        links = build_tepre([t for t, _ in members], 0.01, -1.0, seed=99)
        schedule = equal_split_schedule(180, 3)

        features = []
        for s in range(60):
            label = s % 2
            stream = make_stream(label, np.random.default_rng(1000 + s))
            seq = clip_or_pad(bin_events(stream, 1000, n_channels=1), 180)
            records = run_tepre(seq.flat(), members, links, schedule, params)
            features.append(extract_state(records).features)

        labels = np.arange(60) % 2
        model = train_readout((np.stack(features), labels), ReadoutConfig(epochs=200))
        n = dims.size
        block_norms = [
            float(np.linalg.norm(model.weights[:, r * n : (r + 1) * n]))
            for r in range(3)
        ]
        assert block_norms[2] > block_norms[0]
        assert block_norms[2] > block_norms[1]
        assert block_norms[2] > 1.5 * max(block_norms[0], block_norms[1])
