import dataclasses
import hashlib
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

from lsmkit import (
    ConfigError,
    ConnectionLaw,
    GridDims,
    InputSpec,
    NeuronParams,
    build_input,
    build_reservoir,
    run_mulre,
    save_topology,
)
from lsmkit import topology
from lsmkit.config import load_config
from lsmkit.harness import member_seed

PARAMS = NeuronParams()
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def pair_probabilities(dims, law, signs):
    """Edge probabilities of all ordered pairs, ``(N, N)`` (source x target):
    the chunks ``build_reservoir`` samples from, stacked, self-pairs included."""
    return np.concatenate([p for _, p in topology._probability_chunks(dims, law, signs)])


class TestConnectionProbability:
    def test_distance_equal_to_offset_gives_c(self):
        dims = GridDims(4, 5, 1)
        law = ConnectionLaw(lam=2.0, d=5.0)
        signs = np.ones(dims.size, dtype=np.int8)
        signs[0] = -1
        # neuron 19 sits at (3, 4, 0), Euclidean distance exactly 5 from 0
        prob = pair_probabilities(dims, law, signs)
        assert prob[0, 19] == 0.05  # IE

    def test_ee_at_distance_two(self):
        dims = GridDims(1, 1, 4)
        law = ConnectionLaw(lam=2.0, d=0.0)
        prob = pair_probabilities(dims, law, np.ones(dims.size, dtype=np.int8))
        assert prob[0, 2] == pytest.approx(0.2 * math.exp(-1.0), rel=1e-12)

    def test_d_zero_reduces_to_plain_law(self):
        # with d=0 the offset form and the plain form coincide bitwise
        dims = GridDims(4, 5, 2)
        law = ConnectionLaw(lam=3.0, d=0.0)
        signs = np.where(np.arange(dims.size) % 3 == 0, 1, -1).astype(np.int8)
        kinds = ["E" if s > 0 else "I" for s in signs]
        c = np.array([[law.c_table[a + b] for b in kinds] for a in kinds])
        coords = dims.coordinates().astype(np.float64)
        dist = cdist(coords, coords)
        plain = c * np.exp(-((dist / law.lam) ** 2))
        assert np.array_equal(pair_probabilities(dims, law, signs), plain)

    def test_default_c_table(self):
        law = ConnectionLaw()
        assert law.c_table == {"EE": 0.2, "EI": 0.1, "IE": 0.05, "II": 0.3}

    @pytest.mark.parametrize("d", [math.inf, math.nan, -1.0])
    def test_offset_not_finite_and_nonnegative_rejected(self, d):
        # an infinite offset would give every pair probability 0: no edges
        with pytest.raises(ConfigError, match=f"^d must be a finite number >= 0, not {d!r}$"):
            ConnectionLaw(d=d)

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"lam": True}, "lam must be a real number, not True"),
            ({"lam": "2"}, "lam must be a real number, not '2'"),
            ({"d": True}, "d must be a real number, not True"),
            ({"d": "0"}, "d must be a real number, not '0'"),
            (
                {"c_table": {**topology.DEFAULT_C_TABLE, "EE": True}},
                r"c_table\[EE\] must be a real number, not True",
            ),
            (
                {"c_table": {**topology.DEFAULT_C_TABLE, "II": "0.3"}},
                r"c_table\[II\] must be a real number, not '0.3'",
            ),
        ],
    )
    def test_non_real_value_rejected(self, kwargs, named):
        # a bool would otherwise pass as 1, a string fail in a bare comparison
        with pytest.raises(TypeError, match=named):
            ConnectionLaw(**kwargs)


class TestGridDims:
    def test_odd_size_rejected(self):
        with pytest.raises(ConfigError):
            GridDims(3, 3, 3)

    def test_numpy_sides_are_held_as_plain_ints(self):
        # uint8 arithmetic would wrap the size: 4 * 5 * 24 is 480, not 224
        dims = GridDims(np.uint8(4), np.uint8(5), 24)
        assert dims.size == 480 and all(type(n) is int for n in (dims.nx, dims.ny, dims.nz))

    def test_coordinates_order(self):
        dims = GridDims(2, 3, 1)
        coords = dims.coordinates()
        # x varies fastest
        assert coords[0].tolist() == [0, 0, 0]
        assert coords[1].tolist() == [1, 0, 0]
        assert coords[2].tolist() == [0, 1, 0]


class TestBuildReservoir:
    def test_determinism(self):
        dims = GridDims(4, 4, 4)
        law = ConnectionLaw()
        a = build_reservoir(dims, law, PARAMS, seed=9)
        b = build_reservoir(dims, law, PARAMS, seed=9)
        assert np.array_equal(a.signs, b.signs)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)
        assert np.array_equal(a.weight, b.weight)

    # on a 4x4x4 grid a row is 512 bytes, an x-line 2,048 and a z-plane 8,192
    @pytest.mark.parametrize(
        "budget, chunks",
        [
            (8, 16),  # below one x-line: the one-line floor
            (4_096, 8),  # two x-lines
            (16_384, 2),  # two z-planes
            (2**18, 1),  # the whole reservoir
        ],
    )
    def test_chunking_does_not_change_the_stream(self, monkeypatch, budget, chunks):
        dims = GridDims(4, 4, 4)
        law = ConnectionLaw()
        params = NeuronParams(w_lsm=0.7)
        monkeypatch.setattr(topology, "CHUNK_BYTES", budget)
        signs = np.resize(np.array([1, -1], dtype=np.int8), dims.size)
        assert len(list(topology._probability_chunks(dims, law, signs))) == chunks
        topo = build_reservoir(dims, law, params, seed=3)
        got = (topo.signs, topo.src, topo.dst, topo.weight)
        for a, b in zip(got, _reference_build(dims, law, params, 3)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_chunks_tile_each_shipped_grid_within_budget(self, name):
        cfg = load_config(CONFIG_DIR / name)
        dims = cfg.ensemble.member_grid()
        n = dims.size
        signs = np.resize(np.array([1, -1], dtype=np.int8), n)
        law = ConnectionLaw(lam=cfg.connectivity.lam)
        bound = max(topology.CHUNK_BYTES, 8 * n * dims.nx)
        stop = 0
        for start, prob in topology._probability_chunks(dims, law, signs):
            assert start == stop and prob.shape[1] == n and prob.nbytes <= bound
            assert len(prob) % dims.nx == 0  # whole x-lines
            stop = start + len(prob)
        assert stop == n

    def test_sampler_memory_stays_near_one_chunk(self):
        # dvs-rf's grid: one z-plane of probabilities is 12.8 MB, one x-line
        # 640 KB; the build's peak is a few chunk-sized arrays, not a plane's
        dims = GridDims(20, 20, 10)
        build_reservoir(GridDims(2, 1, 1), ConnectionLaw(), PARAMS, 0)  # warm up
        tracemalloc.start()
        try:
            build_reservoir(dims, ConnectionLaw(), PARAMS, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_half_and_half_kinds(self):
        dims = GridDims(4, 4, 2)
        for seed in range(10):
            topo = build_reservoir(dims, ConnectionLaw(), PARAMS, seed=seed)
            assert (topo.signs > 0).sum() == dims.size // 2
            assert (topo.signs < 0).sum() == dims.size // 2

    def test_no_self_edges(self):
        topo = build_reservoir(GridDims(4, 4, 4), ConnectionLaw(lam=10), PARAMS, seed=1)
        assert not np.any(topo.src == topo.dst)

    def test_dale_sign_consistency(self):
        topo = build_reservoir(GridDims(4, 4, 4), ConnectionLaw(), PARAMS, seed=2)
        assert np.all(topo.weight == PARAMS.w_lsm * topo.signs[topo.src])

    def test_two_neuron_enumeration_matches_law(self):
        # 1x1x2 grid: the only pairs sit at distance 1; the kinds are always
        # one E and one I, so the EI and IE rates must match the law
        dims = GridDims(1, 1, 2)
        law = ConnectionLaw(lam=2.0, d=0.0)
        expected = {  # C * exp(-(1/2)^2)
            "EI": 0.1 * math.exp(-0.25),
            "IE": 0.05 * math.exp(-0.25),
        }
        hits = {"EI": 0, "IE": 0}
        trials = {"EI": 0, "IE": 0}
        n_seeds = 100_000
        for seed in range(n_seeds):
            topo = build_reservoir(dims, law, PARAMS, seed=seed)
            kind = {i: "E" if topo.signs[i] > 0 else "I" for i in (0, 1)}
            present = set(zip(topo.src.tolist(), topo.dst.tolist()))
            for s, t in ((0, 1), (1, 0)):
                pair = kind[s] + kind[t]
                trials[pair] += 1
                hits[pair] += (s, t) in present
        for pair in ("EI", "IE"):
            p = expected[pair]
            n = trials[pair]
            rate = hits[pair] / n
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(rate - p) <= 3 * sigma, (pair, rate, p)

    def test_distance_bucket_rates_follow_law(self):
        # desk-scale version of the acceptance gate: d=0 and d=4 on an
        # 8x8x8 grid, rates per (kind pair, squared distance) bucket
        from statgate import check_buckets

        dims = GridDims(8, 8, 8)
        for d in (0.0, 4.0):
            law = ConnectionLaw(lam=2.0, d=d)
            stats = _bucket_stats(dims, law, seeds=range(6))
            gated = {
                (pair, d2): (
                    hit,
                    n,
                    law.c_table[pair]
                    * math.exp(-(((math.sqrt(d2) - law.d) / law.lam) ** 2)),
                )
                for (pair, d2), (hit, n) in stats.items()
                if n >= 1000
            }
            assert len(gated) > 50
            assert check_buckets(gated) == []

    def test_mean_edge_distance_shifts_with_offset(self):
        # MuLRE's point: d biases edges toward length d
        dims = GridDims(6, 6, 6)
        topo0 = build_reservoir(dims, ConnectionLaw(lam=2, d=0), PARAMS, seed=4)
        topo5 = build_reservoir(dims, ConnectionLaw(lam=2, d=5), PARAMS, seed=4)
        coords = dims.coordinates().astype(float)

        def edge_dists(topo):
            return np.linalg.norm(coords[topo.src] - coords[topo.dst], axis=1)

        assert np.median(edge_dists(topo0)) < 2.5
        assert abs(np.median(edge_dists(topo5)) - 5.0) < 1.0


def _bucket_stats(dims, law, seeds):
    coords = dims.coordinates()
    diff = coords[:, None, :] - coords[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    offdiag = ~np.eye(dims.size, dtype=bool)
    stats: dict[tuple[str, int], list[int]] = {}
    for seed in seeds:
        topo = build_reservoir(dims, law, PARAMS, seed=seed)
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
            for bucket in np.unique(buckets):
                sel = buckets == bucket
                entry = stats.setdefault((pair, int(bucket)), [0, 0])
                entry[0] += int(edges[sel].sum())
                entry[1] += int(sel.sum())
    return {k: tuple(v) for k, v in stats.items()}


def _reference_build(dims, law, params, seed):
    """The sampler as first written, kept as a plain reference: per-chunk
    ``cdist`` distances, an ``np.ix_`` kind table and a 2-D ``np.nonzero``
    over chunks of 512 rows."""
    n = dims.size
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    signs = np.empty(n, dtype=np.int8)
    signs[perm[: n // 2]] = 1
    signs[perm[n // 2 :]] = -1
    coords = dims.coordinates().astype(np.float64)
    c_by_kind = np.array(
        [
            [law.c_table["II"], law.c_table["IE"]],
            [law.c_table["EI"], law.c_table["EE"]],
        ]
    )
    exc = (signs > 0).astype(np.intp)
    src_parts, dst_parts = [], []
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        dist = cdist(coords[start:stop], coords)
        c = c_by_kind[np.ix_(exc[start:stop], exc)]
        prob = c * np.exp(-(((dist - law.d) / law.lam) ** 2))
        adjacency = rng.random((stop - start, n)) < prob
        local = np.arange(start, stop)
        adjacency[local - start, local] = False
        s, d = np.nonzero(adjacency)
        src_parts.append(s + start)
        dst_parts.append(d)
    src = np.concatenate(src_parts).astype(np.int64)
    dst = np.concatenate(dst_parts).astype(np.int64)
    weight = params.w_lsm * signs[src].astype(np.float64)
    return signs, src, dst, weight


class TestExactReference:
    """The kernel-window sampler gives the reference's bytes: the same
    uniforms meet the same probabilities, for any chunking."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        sides=st.tuples(*[st.integers(1, 7)] * 3).filter(
            lambda s: math.prod(s) % 2 == 0
        ),
        chunk_bytes=st.integers(1, 2**16),
        lam=st.floats(0.05, 20),
        d=st.floats(0, 12),
        c=st.lists(st.floats(1e-3, 1), min_size=4, max_size=4),
        w_lsm=st.floats(-8, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    # nx = 1, whole reservoir; nz = 1 with an integer c_table, two-line
    # chunks; one x-line over the budget; two-plane chunks; two neurons
    @example((1, 4, 3), 2**18, 2.0, 0.0, [0.2, 0.1, 0.05, 0.3], 1.0, 1)
    @example((5, 4, 1), 1_600, 3.0, 2.0, [1, 1, 1, 1], 2.5, 2)
    @example((6, 2, 3), 8, 1.5, 1.0, [0.9, 0.5, 0.7, 1.0], 1.0, 3)
    @example((6, 2, 3), 6_912, 0.8, 3.0, [0.6, 0.2, 0.4, 0.9], -1.5, 5)
    @example((1, 1, 2), 2**18, 2.0, 0.0, [1, 1, 1, 1], 1.0, 4)
    def test_bytes_equal_reference(self, sides, chunk_bytes, lam, d, c, w_lsm, seed):
        dims = GridDims(*sides)
        law = ConnectionLaw(lam=lam, d=d, c_table=dict(zip(("EE", "EI", "IE", "II"), c)))
        params = NeuronParams(w_lsm=w_lsm)
        with pytest.MonkeyPatch.context() as mp:
            # below one x-line's bytes, a chunk is one x-line over the budget
            mp.setattr(topology, "CHUNK_BYTES", chunk_bytes)
            topo = build_reservoir(dims, law, params, seed)
        got = (topo.signs, topo.src, topo.dst, topo.weight)
        for a, b in zip(got, _reference_build(dims, law, params, seed)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_probabilities_equal_reference_law(self):
        dims = GridDims(3, 4, 5)
        law = ConnectionLaw(lam=1.7, d=2.5)
        signs = np.where(np.arange(dims.size) % 5 < 2, 1, -1).astype(np.int8)
        exc = (signs > 0).astype(np.intp)
        c_by_kind = np.array([[0.3, 0.05], [0.1, 0.2]])  # II IE / EI EE
        coords = dims.coordinates().astype(np.float64)
        expected = c_by_kind[np.ix_(exc, exc)] * np.exp(
            -(((cdist(coords, coords) - law.d) / law.lam) ** 2)
        )
        got = pair_probabilities(dims, law, signs)
        assert got.tobytes() == expected.tobytes()


def _edges_digest(topo):
    h = hashlib.sha256()
    for a, dtype in (
        (topo.signs, "i1"),
        (topo.src, "<i8"),
        (topo.dst, "<i8"),
        (topo.weight, "<f8"),
    ):
        assert a.dtype == np.dtype(dtype)
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# SHA-256 of each member's (signs, src, dst, weight), recorded once, with the
# sampler as first written (per-chunk cdist), on NumPy 2.4; never re-record a
# pin to let a change pass: a change that moves one changes every run's edges
SHIPPED_EDGES = {
    "dvsgesture_rf.json": [
        "4e92b6010fc6b2feea8ed3d5c9b522bd5feff8e274214726cf5e9019ca785379",
    ],
    "dvsgesture_standard.json": [
        "4e92b6010fc6b2feea8ed3d5c9b522bd5feff8e274214726cf5e9019ca785379",
    ],
    "nmnist_mulre3.json": [
        "31d5da2d4e60b4e3744f7d5faab581c8af3bf1386ef098c210bf6808c15e0283",
        "3ed25757865ce90b35165c0217489cc7a54140cca8acc28013912419116c9377",
        "58415778a6e925f4c03a0ca6c210c73bb8de8fa230128d593f383241284dcd44",
    ],
    "nmnist_tepre3.json": [
        "31d5da2d4e60b4e3744f7d5faab581c8af3bf1386ef098c210bf6808c15e0283",
        "ab0947d95434f3aaba2421cc01a997719f73125dbb8300e59a1878ea12aed923",
        "262eb9d7d1ba09e3e28ca151bc016c83fdc1aaeb7fd31204ca33a58333a13b36",
    ],
    "shd_tepre6.json": [
        "fe584621681831c3b206c05c6e772f4246654f63e35d4e1c15bea46875683f86",
        "6a2d0ddf87ca5dcffe2393d13609122185be781503d450cf47da6b7c187a980b",
        "a40d9833e9a6f144a6ac84a026bd01da8247bfae003d1a0a10f930253967a73e",
        "3ed9e5baa6e6c64b39a6d38327ac17935bbb8c8ab4ffbed0f6a0a5f08ca9b624",
        "066845beef50f8ab8522ef64b568702793a245e662b80be2a507f891dba3304a",
        "6d8d415dc7b6889d185d81308fd32080a536fa176d7843053fe053bd8cd698b5",
    ],
    "synthetic_tepre3.json": [
        "370f06521f635eaa2a2ddc2be6b5966747b78e3cffef28388a2492aa74cfea97",
        "d7ea23543cfbe992df97f630746ac7fddc69019a353f5ed7c15b4a9a5afdb02b",
        "d9b49cb75dc961a009feada3e5ea45a3b51a47e9e427e0a617b935a5c97630b9",
    ],
}


class TestShippedTopologies:
    def test_every_config_is_pinned(self):
        assert sorted(SHIPPED_EDGES) == sorted(p.name for p in CONFIG_DIR.glob("*.json"))

    @pytest.mark.parametrize("name", sorted(SHIPPED_EDGES))
    def test_member_edges_pinned(self, name):
        # each member as the harness builds it: the member grid, the
        # member's offset in the law, and the member's topology seed
        cfg = load_config(CONFIG_DIR / name)
        ens = cfg.ensemble
        d_values = ens.d_list or [0.0] * ens.partitions
        digests = []
        for i, d in enumerate(d_values):
            law = ConnectionLaw(
                lam=cfg.connectivity.lam, d=d, c_table=dict(cfg.connectivity.c_table)
            )
            topo = build_reservoir(
                ens.member_grid(), law, cfg.neuron, member_seed(cfg.seeds.topology, i)
            )
            digests.append(_edges_digest(topo))
        assert digests == SHIPPED_EDGES[name]


class TestExport:
    def test_digest(self, tmp_path):
        # the text export is write-only; pin its bytes for a fixed seed
        topo = build_reservoir(GridDims(3, 3, 2), ConnectionLaw(lam=1.5, d=2.0), PARAMS, 11)
        path = tmp_path / "topo.txt"
        save_topology(topo, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert topo.n_edges == 49
        assert digest == "7e297b668fdbd6d5ecc33c07a87f4a67a06125437348a70ea42b5d8ca2793653"


class TestWeightMatrix:
    def test_matrix_orientation(self):
        topo = build_reservoir(GridDims(3, 3, 2), ConnectionLaw(lam=5), PARAMS, 13)
        w = topo.matrix
        for s, t, wt in zip(topo.src[:50], topo.dst[:50], topo.weight[:50]):
            assert w[t, s] == wt


class TestHeldMatrix:
    """A topology holds its edges only as the matrix the time loop reads."""

    @staticmethod
    def _member(seed):
        dims = GridDims(4, 4, 4)
        topo = build_reservoir(dims, ConnectionLaw(lam=2.0), PARAMS, seed)
        return topo, build_input(InputSpec(16, 12.0, 0.25), dims, seed + 1)

    def test_weight_write_after_a_run_reaches_the_matrix(self):
        rates = np.random.default_rng(3).poisson(1.0, size=(60, 16)).astype(float)
        member = self._member(1)
        first = run_mulre(rates, [member], PARAMS)[0].counts
        member[0].weight[:] = 0.0
        assert not member[0].matrix.data.any()
        after = run_mulre(rates, [member], PARAMS)[0].counts
        unconnected = self._member(1)
        unconnected[0].weight[:] = 0.0
        assert np.array_equal(after, run_mulre(rates, [unconnected], PARAMS)[0].counts)
        assert not np.array_equal(after, first)  # the recurrent weights mattered

    def test_edge_lists_and_fields_are_read_only(self):
        topo = build_reservoir(GridDims(3, 3, 2), ConnectionLaw(lam=5), PARAMS, 13)
        for edges in (topo.src, topo.dst):
            with pytest.raises(ValueError, match="read-only"):
                edges[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            topo.matrix = topo.matrix.copy()

    def test_pickle_round_trip_keeps_matrix_and_edges(self):
        topo = build_reservoir(GridDims(5, 4, 3), ConnectionLaw(lam=2.0, d=1.0), PARAMS, 7)
        back = pickle.loads(pickle.dumps(topo))
        a, b = topo.matrix, back.matrix
        assert a.format == b.format and a.shape == b.shape
        for name in ("data", "indices", "indptr"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert _edges_digest(back) == _edges_digest(topo)
