import hashlib
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from lsmkit import (
    ConfigError,
    ConnectionLaw,
    GridDims,
    NeuronParams,
    build_reservoir,
    save_topology,
)
from lsmkit import topology
from lsmkit.topology import pair_probabilities

PARAMS = NeuronParams()


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
        with pytest.raises(ConfigError, match="distance offset d must be finite"):
            ConnectionLaw(d=d)


class TestGridDims:
    def test_odd_size_rejected(self):
        with pytest.raises(ConfigError):
            GridDims(3, 3, 3)

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

    def test_chunking_does_not_change_the_stream(self, monkeypatch):
        dims = GridDims(4, 4, 4)
        law = ConnectionLaw()
        monkeypatch.setattr(topology, "CHUNK_ROWS", 7)
        a = build_reservoir(dims, law, PARAMS, seed=3)
        monkeypatch.setattr(topology, "CHUNK_ROWS", 64)
        b = build_reservoir(dims, law, PARAMS, seed=3)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

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
        w = topo.weight_matrix()
        for s, t, wt in zip(topo.src[:50], topo.dst[:50], topo.weight[:50]):
            assert w[t, s] == wt
