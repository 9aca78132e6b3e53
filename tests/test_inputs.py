import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse, stats

from lsmkit import (
    ConfigError,
    GridDims,
    InputSpec,
    ReceptiveField,
    build_input,
    save_input_map,
)
from lsmkit.config import load_config
from lsmkit.datasets import dvsgesture, nmnist, shd
from lsmkit.eventio import Manifest
from lsmkit.harness import build_members
from lsmkit.inputs import STANDARD, InputMap, _pool_fanout, anchor_of, check_window
from lsmkit.synth import MultiPhaseParams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# The sampler as first written, one Python iteration per input with its
# pool built per pixel: the reference build_input is checked against.
def _signed_split(
    targets: np.ndarray, weight_mag: float, rng: np.random.Generator
) -> np.ndarray:
    """Assign +/- weight to a shuffled half/half split of the targets."""
    k = targets.shape[0]
    rng.shuffle(targets)
    weights = np.empty(k, dtype=np.float64)
    weights[: k // 2] = weight_mag
    weights[k // 2 :] = -weight_mag
    return weights


def window_pool(
    px: int, py: int, field: ReceptiveField, dims: GridDims
) -> np.ndarray:
    """Linear indices of all neurons in the clipped window, across all z."""
    ax, ay = anchor_of(px, py, field, dims)
    half = field.window // 2
    x_lo = max(0, ax - half)
    x_hi = min(dims.nx - 1, ax - half + field.window - 1)
    y_lo = max(0, ay - half)
    y_hi = min(dims.ny - 1, ay - half + field.window - 1)
    xs = np.arange(x_lo, x_hi + 1)
    ys = np.arange(y_lo, y_hi + 1)
    zs = np.arange(dims.nz)
    cols = (xs[None, :] + dims.nx * ys[:, None]).ravel()
    return (cols[None, :] + (dims.nx * dims.ny) * zs[:, None]).ravel()


def reference_build_input(spec: InputSpec, dims: GridDims, seed: int) -> InputMap:
    if spec.scheme == STANDARD:
        pools = [np.arange(dims.size)]
        pool_of = np.zeros(spec.n_inputs, dtype=np.int64)
    else:
        field = spec.field
        check_window(field.window, dims)
        width, plane = field.input_width, field.input_width * field.input_height
        pools = [window_pool(p % width, p // width, field, dims) for p in range(plane)]
        pool_of = np.arange(spec.n_inputs, dtype=np.int64) % plane
    fanouts = np.array([_pool_fanout(spec.density, pool.size) for pool in pools])
    ends = np.cumsum(fanouts[pool_of]).tolist()
    res_idx = np.empty(ends[-1], dtype=np.int64)
    weights = np.empty(ends[-1], dtype=np.float64)
    rng = np.random.default_rng(seed)
    start = 0
    for p, end in zip(pool_of.tolist(), ends):
        pool = pools[p]
        targets = pool[rng.choice(pool.size, size=end - start, replace=False)]
        weights[start:end] = _signed_split(targets, spec.input_weight, rng)
        res_idx[start:end] = targets
        start = end
    matrix = sparse.csc_matrix(
        (weights, res_idx, [0, *ends]), shape=(dims.size, spec.n_inputs)
    )
    return InputMap(matrix=matrix, seed=seed)


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

    def test_receptive_field_rejected(self):
        # a standard map spans the whole reservoir and would ignore the field
        with pytest.raises(ConfigError, match="standard scheme takes no receptive"):
            InputSpec(
                n_inputs=64,
                input_weight=1.0,
                density=0.15,
                field=ReceptiveField(window=3, input_width=8, input_height=8),
            )


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


@st.composite
def wiring_cases(draw):
    """(spec, dims, seed) over both schemes, including grids whose smallest
    receptive pool cannot hold a +/- pair."""
    nx, ny, nz = (draw(st.integers(1, 6)) for _ in range(3))
    if (nx * ny * nz) % 2:
        nz += 1
    dims = GridDims(nx, ny, nz)
    # odd rounding, the floor of two and the pool cap among any density
    density = draw(
        st.sampled_from([0.001, 0.13, 0.25, 0.3, 0.5, 0.9, 1.0]) | st.floats(1e-3, 1.0)
    )
    weight = draw(st.sampled_from([8, 8.0, 7.3, -2.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        spec = InputSpec(draw(st.integers(1, 40)), weight, density)
    else:
        # sensor sides smaller and larger than the grid's
        width, height = draw(st.integers(1, 2 * nx + 1)), draw(st.integers(1, 2 * ny + 1))
        channels = draw(st.integers(1, 3))
        window = draw(st.integers(1, min(nx, ny)))
        spec = InputSpec(
            width * height * channels, weight, density, "receptive_field",
            ReceptiveField(window, width, height, channels),
        )
    return spec, dims, seed


class TestReferenceSampler:
    """build_input gives the reference sampler's bytes: the same draws from
    the same generator, mapped through the same pools."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(case=wiring_cases())
    # a pool above 10,000 neurons, where choice shuffles a tail of the range
    @example(case=(InputSpec(3, 8.0, 0.15), GridDims(25, 25, 20), 21))
    def test_bytes_equal_reference(self, case):
        spec, dims, seed = case
        try:
            want = reference_build_input(spec, dims, seed).matrix
        except ConfigError as exc:
            with pytest.raises(ConfigError) as got:
                build_input(spec, dims, seed)
            assert str(got.value) == str(exc)
            return
        got = build_input(spec, dims, seed)
        assert got.seed == seed
        assert got.matrix.format == "csc" and got.matrix.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got.matrix, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBuildMemory:
    # tracemalloc peak per edge of the sampler as first written, on the spec
    # below: its two edge-length arrays, SciPy's int32 copy of the targets,
    # and one index array per plane pixel's pool
    REFERENCE_BYTES_PER_EDGE = 25.29

    def test_peak_per_edge_at_most_reference(self):
        # nmnist-like: 18 Gabor channels onto a 10x10x12 member, window 5
        spec = rf_spec(12, 12, window=5, channels=18)
        dims = GridDims(10, 10, 12)
        build_input(spec, dims, seed=0)  # first-call allocations are not the build's
        tracemalloc.start()
        try:
            imap = build_input(spec, dims, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert imap.n_edges == 85968
        assert peak / imap.n_edges <= self.REFERENCE_BYTES_PER_EDGE


class TestPoolTooSmall:
    @pytest.mark.parametrize("window", [1, 2])
    def test_corner_pool_without_a_pair_rejected(self, window):
        # pixel 0 anchors at column (0, 0): one column of one neuron
        with pytest.raises(ConfigError, match=f"window {window} leaves"):
            build_input(rf_spec(8, 8, window=window), GridDims(4, 4, 1), seed=0)

    def test_corner_pool_of_two_builds(self):
        imap = build_input(rf_spec(8, 8, window=2), GridDims(4, 4, 2), seed=0)
        pos, neg = sign_split_counts(imap)
        assert (pos == 1).all() and (neg == 1).all()


# The sensor each dataset's converter writes: (width, height, channels).
SENSORS = {
    "dvsgesture": (dvsgesture.WIDTH, dvsgesture.HEIGHT, 2),
    "nmnist": (nmnist.WIDTH, nmnist.HEIGHT, 2),
    "shd": (shd.CHANNELS, 1, 1),
    "synthetic": (MultiPhaseParams().width, MultiPhaseParams().height, 1),
}

# SHA-256 of each member's CSC (indptr, indices as little-endian int64, data
# as little-endian float64, then the shape's repr), recorded once with the
# sampler as first written (one pool array per pixel), on NumPy 2.4; never
# re-record a pin to let a change pass: a change that moves one changes every
# run's drive
SHIPPED_INPUT_MAPS = {
    "dvsgesture_rf.json": [
        "f503da44e1b1ef72e00fe8dd41e172f7e3dcf107e90a7a7ec910c2b39a962852",
    ],
    "dvsgesture_standard.json": [
        "ed558ff747fd789e50c84e193189314bccb11153583389c6294a67de40216e23",
    ],
    "nmnist_mulre3.json": [
        "24077e0f01f469cfb379ef9fa916229c61f8d7f86f465beaa86b127b995690dc",
        "d72ce13d662e72f826d879cc301e29b8cd5904e53e7b9935fc2b7425bb0eb817",
        "a64229fa9372c8a32ea5bfca172898ffc202233030ff419ea5c2e9cdaac7bcb5",
    ],
    "nmnist_tepre3.json": [
        "900d87738b44f056f7192c376561c83bb88a48eed75d19a12cca246eb7a8a3c7",
        "1d73d855ddd64a4e4bbd9d6056ff4028e7116f40611ab299088a7fbaf90d4ace",
        "fd9e86300be791923a601196b3775b046b2a3594bd3f5fa1057239e6f6ef0bf2",
    ],
    "shd_tepre6.json": [
        "a2c4165d3553b3d096bd767edfdf50d960bf19ab1a13c910641bad9d460d7092",
        "f24b37fa0c46ef4ffd5d7563fa3d0c750196789d802edd2361cdce44714986a1",
        "5085c3517bbadd9870a43b86a410791c385598b2fac130006410f2496dfe30b4",
        "290e0ace16823f3c0ff525e478b803dfcedc771be768ce5c216ca4e6e3c32f47",
        "20e9d8c9198bde4ad1a87b1dede6b98feb4ef352a0ca0a2f752a3ff6cd9a0432",
        "90262b1c5fe86ad6ebd34b9dc6e61c04b1d2b87e692fceedab5db4255867a3c2",
    ],
    "synthetic_tepre3.json": [
        "d699d6282686a8b256ff72dc85394d369e4efbe88f5c0f7c49ba2b29a35db2b0",
        "a92f65b1c492fd47b84d224e99182857f6ab4f4f0b1cc4cfedd34486a6d9b234",
        "0dc2ee0b5aae46fe14a228543c5a57d98bf371662db1b2ce65448c742a576fe2",
    ],
}


def _map_digest(imap):
    m = imap.matrix
    h = hashlib.sha256()
    h.update(m.indptr.astype("<i8").tobytes())
    h.update(m.indices.astype("<i8").tobytes())
    h.update(m.data.astype("<f8").tobytes())
    h.update(repr(m.shape).encode())
    return h.hexdigest()


class TestShippedInputMaps:
    def test_every_config_is_pinned(self):
        assert sorted(SHIPPED_INPUT_MAPS) == sorted(p.name for p in CONFIG_DIR.glob("*.json"))

    @pytest.mark.parametrize("name", sorted(SHIPPED_INPUT_MAPS))
    def test_member_maps_pinned(self, name):
        # each member's map as the harness builds it for its dataset's sensor
        cfg = load_config(CONFIG_DIR / name)
        sensor = SENSORS[Path(cfg.dataset_manifest).parent.name]
        engine = build_members(cfg, Manifest(*sensor, train=[], test=[]))
        assert [_map_digest(imap) for _, imap in engine.members] == SHIPPED_INPUT_MAPS[name]
