import hashlib

import numpy as np
import pytest
from scipy import stats

from lsmkit import (
    ConfigError,
    GridDims,
    InputSpec,
    ReceptiveField,
    build_input,
    save_input_map,
)
from lsmkit.inputs import anchor_of, window_pool


def sign_split_counts(imap):
    """(positives, negatives) per input neuron."""
    pos = np.zeros(imap.n_inputs, dtype=int)
    neg = np.zeros(imap.n_inputs, dtype=int)
    np.add.at(pos, imap.input_idx[imap.weight > 0], 1)
    np.add.at(neg, imap.input_idx[imap.weight < 0], 1)
    return pos, neg


def rf_spec(width, height, window, channels=1, density=0.15, weight=1.0):
    return InputSpec(
        n_inputs=width * height * channels,
        input_weight=weight,
        density=density,
        scheme="receptive_field",
        field=ReceptiveField(
            window=window, input_width=width, input_height=height, channels=channels
        ),
    )


class TestStandardInput:
    def test_minimal_fanout_one_of_each_sign(self):
        # k = 2 forces exactly one + and one - edge per input neuron
        spec = InputSpec(n_inputs=5, input_weight=1.0, density=0.5)
        imap = build_input(spec, GridDims(1, 1, 4), seed=0)
        pos, neg = sign_split_counts(imap)
        assert (pos == 1).all() and (neg == 1).all()

    def test_full_density_exhausts_reservoir(self):
        spec = InputSpec(n_inputs=3, input_weight=2.0, density=1.0)
        dims = GridDims(2, 2, 2)
        imap = build_input(spec, dims, seed=1)
        for i in range(3):
            targets = np.sort(imap.reservoir_idx[imap.input_idx == i])
            assert targets.tolist() == list(range(dims.size))
        pos, neg = sign_split_counts(imap)
        assert (pos == 4).all() and (neg == 4).all()

    def test_equal_split_many_neurons(self):
        spec = InputSpec(n_inputs=200, input_weight=8.0, density=0.1)
        imap = build_input(spec, GridDims(10, 10, 3), seed=2)
        pos, neg = sign_split_counts(imap)
        assert (pos == 15).all() and (neg == 15).all()

    def test_no_duplicate_pairs(self):
        spec = InputSpec(n_inputs=50, input_weight=1.0, density=0.2)
        imap = build_input(spec, GridDims(5, 5, 4), seed=3)
        pairs = set(zip(imap.input_idx.tolist(), imap.reservoir_idx.tolist()))
        assert len(pairs) == imap.n_edges

    def test_determinism(self):
        spec = InputSpec(n_inputs=20, input_weight=1.0, density=0.2)
        dims = GridDims(5, 5, 4)
        a = build_input(spec, dims, seed=7)
        b = build_input(spec, dims, seed=7)
        assert np.array_equal(a.reservoir_idx, b.reservoir_idx)
        assert np.array_equal(a.weight, b.weight)

    def test_odd_fanout_forced_even(self):
        # round(0.3 * 10) = 3 rounds down to 2; the sign split stays equal
        spec = InputSpec(n_inputs=4, input_weight=1.0, density=0.3)
        imap = build_input(spec, GridDims(1, 2, 5), seed=0)
        pos, neg = sign_split_counts(imap)
        assert (pos == 1).all() and (neg == 1).all()

    def test_target_distribution_uniform(self):
        # one input neuron, k=300 of N=3000, pooled over many seeds:
        # chi-square on per-target counts must not reject uniformity
        spec = InputSpec(n_inputs=1, input_weight=1.0, density=0.1)
        dims = GridDims(10, 10, 30)
        counts = np.zeros(dims.size, dtype=np.int64)
        n_seeds = 10_000
        for seed in range(n_seeds):
            imap = build_input(spec, dims, seed=seed)
            counts[imap.reservoir_idx] += 1
        result = stats.chisquare(counts)
        assert result.pvalue > 0.001
        assert counts.sum() == n_seeds * 300


class TestReceptiveFieldInput:
    def test_corner_pixel_pool_clipped(self):
        # 64x64 image onto 20x20x10, window 5: pixel (0,0) anchors at (0,0),
        # clipped window spans x,y in [0,2] -> pool of 3*3*10 = 90 neurons
        dims = GridDims(20, 20, 10)
        field = ReceptiveField(window=5, input_width=64, input_height=64)
        assert anchor_of(0, 0, field, dims) == (0, 0)
        pool = window_pool(0, 0, field, dims)
        assert pool.size == 90
        xs = pool % 20
        ys = (pool // 20) % 20
        assert xs.max() <= 2 and ys.max() <= 2

    def test_all_targets_inside_window(self):
        dims = GridDims(20, 20, 10)
        spec = rf_spec(64, 64, window=5, channels=2)
        imap = build_input(spec, dims, seed=0)
        half = 5 // 2
        plane = 64 * 64
        for i in range(0, spec.n_inputs, 97):  # stride keeps runtime low
            targets = imap.reservoir_idx[imap.input_idx == i]
            rem = i % plane
            ax, ay = anchor_of(rem % 64, rem // 64, spec.field, dims)
            tx = targets % 20
            ty = (targets // 20) % 20
            assert np.all(np.abs(tx - ax) <= half)
            assert np.all(np.abs(ty - ay) <= half)

    def test_chebyshev_bound_every_edge(self):
        # full locality check on the acceptance geometry
        dims = GridDims(20, 20, 10)
        spec = rf_spec(64, 64, window=5, channels=2)
        imap = build_input(spec, dims, seed=1)
        plane = 64 * 64
        rem = imap.input_idx % plane
        ax = (rem % 64) * 20 // 64
        ay = (rem // 64) * 20 // 64
        tx = imap.reservoir_idx % 20
        ty = (imap.reservoir_idx // 20) % 20
        cheb = np.maximum(np.abs(tx - ax), np.abs(ty - ay))
        assert cheb.max() <= 5 // 2

    def test_window_one_pins_a_column(self):
        dims = GridDims(8, 8, 6)
        spec = rf_spec(8, 8, window=1, density=0.9)
        imap = build_input(spec, dims, seed=2)
        for i in range(spec.n_inputs):
            targets = imap.reservoir_idx[imap.input_idx == i]
            assert np.unique(targets % (8 * 8)).size == 1  # one (x, y) column

    def test_equal_sign_split(self):
        dims = GridDims(20, 20, 10)
        spec = rf_spec(50, 50, window=5, channels=4)  # 10^4 input neurons
        imap = build_input(spec, dims, seed=3)
        pos, neg = sign_split_counts(imap)
        assert np.array_equal(pos, neg)
        assert (pos >= 1).all()

    def test_channels_share_anchor(self):
        dims = GridDims(10, 10, 4)
        spec = rf_spec(10, 10, window=3, channels=2, density=1.0)
        imap = build_input(spec, dims, seed=4)
        plane = 10 * 10
        for pix in range(0, plane, 13):
            t0 = np.sort(np.unique(imap.reservoir_idx[imap.input_idx == pix] % plane))
            t1 = np.sort(
                np.unique(imap.reservoir_idx[imap.input_idx == pix + plane] % plane)
            )
            # density 1: both channels exhaust the same pool columns
            assert np.array_equal(t0, t1)

    def test_monotone_anchor(self):
        dims = GridDims(20, 20, 10)
        field = ReceptiveField(window=5, input_width=64, input_height=64)
        axs = [anchor_of(px, 0, field, dims)[0] for px in range(64)]
        ays = [anchor_of(0, py, field, dims)[1] for py in range(64)]
        assert axs == sorted(axs)
        assert ays == sorted(ays)

    def test_oversized_window_rejected(self):
        dims = GridDims(4, 4, 4)
        spec = rf_spec(8, 8, window=5)
        with pytest.raises(ConfigError):
            build_input(spec, dims, seed=0)

    def test_determinism(self):
        dims = GridDims(10, 10, 4)
        spec = rf_spec(16, 16, window=3)
        a = build_input(spec, dims, seed=9)
        b = build_input(spec, dims, seed=9)
        assert np.array_equal(a.reservoir_idx, b.reservoir_idx)
        assert np.array_equal(a.weight, b.weight)


class TestPinnedMaps:
    """SHA-256 of (input_idx, reservoir_idx, weight) as little-endian
    int64/int64/float64 bytes, recorded before the two schemes shared one
    sampler.  Any change to the RNG stream, fan-out rule or edge order
    breaks them, and with them every report's ``state_hash``.
    """

    @pytest.mark.parametrize(
        "spec, dims, seed, n_edges, digest",
        [
            pytest.param(
                InputSpec(n_inputs=37, input_weight=8.0, density=0.15),
                GridDims(5, 5, 8), 11, 1110,
                "c11c53c08c3cb72bd51f75514cce98d1ef6430191f084a9fe94d526dca3f76e1",
                id="standard",
            ),
            pytest.param(
                # round(0.13 * 100) = 13 rounds down to 12
                InputSpec(n_inputs=25, input_weight=2.5, density=0.13),
                GridDims(5, 4, 5), 12, 300,
                "9f7ee2d492f7d3a1c784d4e985b1343afafb63eacef40f75d354deca9571f564",
                id="standard-odd-rounding",
            ),
            pytest.param(
                InputSpec(n_inputs=9, input_weight=1.0, density=0.001),
                GridDims(3, 3, 4), 13, 18,
                "21e6a0945454b45bd15e10df02328e3e4152d339d1dfde116a4ced9941c85262",
                id="standard-floor-of-two",
            ),
            pytest.param(
                rf_spec(12, 9, window=5, channels=2, density=0.3, weight=8.0),
                GridDims(6, 5, 4), 14, 3952,
                "b23c5fc09df22646811109fd590a617c9a75599e1159807015ca3a75ab0ef212",
                id="rf-two-channels-clipped",
            ),
            pytest.param(
                rf_spec(10, 10, window=3, density=0.25, weight=7.3),
                GridDims(7, 7, 2), 15, 298,
                "e82b75d5a7e9581a6b759936dab8b89a8ee4a04059be1b1d5ae9ab4f8e65a709",
                id="rf-odd-rounding",
            ),
        ],
    )
    def test_digest(self, spec, dims, seed, n_edges, digest):
        imap = build_input(spec, dims, seed)
        h = hashlib.sha256()
        h.update(imap.input_idx.astype("<i8").tobytes())
        h.update(imap.reservoir_idx.astype("<i8").tobytes())
        h.update(imap.weight.astype("<f8").tobytes())
        assert imap.n_edges == n_edges
        assert h.hexdigest() == digest


class TestExport:
    @pytest.mark.parametrize(
        "spec, dims, seed, digest",
        [
            pytest.param(
                InputSpec(n_inputs=6, input_weight=2.5, density=0.5),
                GridDims(2, 2, 2), 5,
                "a9c4cd6bf492f503b97303a260385ea834bf59b48cc45fc27c220872787f06c0",
                id="standard",
            ),
            pytest.param(
                rf_spec(4, 4, window=3, channels=2, density=0.3, weight=1.5),
                GridDims(4, 4, 2), 7,
                "e081807aa110846429c815431ff52bf9cf8f69aa2d4681ff6b61a65e0473dde0",
                id="rf-two-channels",
            ),
        ],
    )
    def test_digest(self, tmp_path, spec, dims, seed, digest):
        # the text export is write-only; pin its bytes for a fixed seed
        path = tmp_path / "input.txt"
        save_input_map(build_input(spec, dims, seed), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
