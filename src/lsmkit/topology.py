"""Reservoir topology on a 3-D neuron grid.

Neurons live at integer coordinates of an ``nx x ny x nz`` grid, linear
index ``i = x + nx * (y + ny * z)``.  Exactly half of them are excitatory
and half inhibitory (a seeded permutation decides which).  A directed edge
``i -> j`` exists with probability

    C(kind_i, kind_j) * exp(-((D(i, j) - d) / lambda)**2)

where D is the Euclidean distance between the grid coordinates and d is a
distance offset that biases connections toward a preferred length scale
(d = 0 recovers the plain short-range law).  Excitatory sources contribute
weight ``+w_lsm``, inhibitory sources ``-w_lsm``.

Construction is a pure function of (dims, law, seed): the kind permutation
is drawn first, then one uniform per ordered neuron pair in row-major
order (diagonal draws are made and discarded), so any parallel
implementation must reproduce that stream assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import ConfigError

EXC = "E"
INH = "I"

DEFAULT_C_TABLE = {"EE": 0.2, "EI": 0.1, "IE": 0.05, "II": 0.3}

# Source rows whose pair probabilities are held at once; this bounds peak
# memory only, the sampled stream is identical for any value.
CHUNK_ROWS = 512


@dataclass(frozen=True)
class GridDims:
    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise ConfigError(
                f"grid dimensions must be positive, not {self.nx}x{self.ny}x{self.nz}"
            )
        if self.size % 2 != 0:
            raise ConfigError(
                f"reservoir size {self.size} is odd; need an even E/I split"
            )

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nz

    def coordinates(self) -> np.ndarray:
        """(N, 3) integer coordinates in linear-index order (x fastest)."""
        idx = np.arange(self.size)
        x = idx % self.nx
        y = (idx // self.nx) % self.ny
        z = idx // (self.nx * self.ny)
        return np.stack([x, y, z], axis=1)


@dataclass(frozen=True)
class ConnectionLaw:
    """Distance-offset connection probability law."""

    lam: float = 2.0
    d: float = 0.0
    c_table: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_C_TABLE))

    def __post_init__(self):
        if not self.lam > 0:
            raise ConfigError(f"length scale lam must be positive, not {self.lam}")
        # an infinite offset would make every pair probability 0: no edges
        if not 0 <= self.d < np.inf:
            raise ConfigError(f"distance offset d must be finite and >= 0, not {self.d}")
        if set(self.c_table) != {"EE", "EI", "IE", "II"}:
            raise ConfigError("c_table needs exactly the EE/EI/IE/II entries")
        for key, c in self.c_table.items():
            if not 0 < c <= 1:
                raise ConfigError(f"c_table[{key}]={c} outside (0, 1]")


@dataclass
class ReservoirTopology:
    """A sampled reservoir: neuron kinds plus the signed sparse edge list."""

    dims: GridDims
    signs: np.ndarray  # (N,) of +1 (excitatory) / -1 (inhibitory)
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    seed: int
    law: ConnectionLaw

    @property
    def size(self) -> int:
        return self.dims.size

    @property
    def n_edges(self) -> int:
        return self.src.shape[0]

    def inhibitory_indices(self) -> np.ndarray:
        return np.nonzero(self.signs < 0)[0]

    def weight_matrix(self) -> sparse.csr_matrix:
        """Sparse (post x pre) matrix for the simulation step; memoized."""
        cached = getattr(self, "_weight_matrix", None)
        if cached is None:
            n = self.size
            cached = sparse.csr_matrix(
                (self.weight, (self.dst, self.src)), shape=(n, n)
            )
            self._weight_matrix = cached
        return cached


def pair_probabilities(
    dims: GridDims, law: ConnectionLaw, signs: np.ndarray, rows: slice | None = None
) -> np.ndarray:
    """Edge probabilities for all ordered pairs with sources in ``rows``.

    Diagonal entries (self-pairs) are not masked here; the builder discards
    them after sampling.
    """
    from scipy.spatial.distance import cdist

    coords = dims.coordinates().astype(np.float64)
    rows = rows if rows is not None else slice(0, dims.size)
    dist = cdist(coords[rows], coords)
    c_by_kind = np.array(
        [
            [law.c_table["II"], law.c_table["IE"]],
            [law.c_table["EI"], law.c_table["EE"]],
        ]
    )
    exc = (signs > 0).astype(np.intp)
    c = c_by_kind[np.ix_(exc[rows], exc)]
    return c * np.exp(-(((dist - law.d) / law.lam) ** 2))


def build_reservoir(
    dims: GridDims,
    law: ConnectionLaw,
    params,
    seed: int,
) -> ReservoirTopology:
    """Sample a reservoir topology.

    The seeded generator first draws the kind permutation (first half of the
    permuted indices become excitatory), then one uniform per ordered pair
    in row-major order; an edge exists where the uniform falls below the
    law's probability.  ``params.w_lsm`` sets the weight magnitude.
    """
    n = dims.size
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    signs = np.empty(n, dtype=np.int8)
    signs[perm[: n // 2]] = 1
    signs[perm[n // 2 :]] = -1

    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    for start in range(0, n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n)
        prob = pair_probabilities(dims, law, signs, rows=slice(start, stop))
        adjacency = rng.random((stop - start, n)) < prob
        local = np.arange(start, stop)
        adjacency[local - start, local] = False  # no self-edges
        s, d = np.nonzero(adjacency)
        src_parts.append(s + start)
        dst_parts.append(d)

    src = np.concatenate(src_parts).astype(np.int64)
    dst = np.concatenate(dst_parts).astype(np.int64)
    weight = params.w_lsm * signs[src].astype(np.float64)
    return ReservoirTopology(
        dims=dims,
        signs=signs,
        src=src,
        dst=dst,
        weight=weight,
        seed=seed,
        law=law,
    )


def save_topology(topo: ReservoirTopology, path) -> None:
    """Line-oriented text export: header, signs, then one edge per line."""
    with open(path, "w") as fh:
        fh.write("lsm-topology v1\n")
        fh.write(f"dims {topo.dims.nx} {topo.dims.ny} {topo.dims.nz}\n")
        fh.write(f"seed {topo.seed}\n")
        fh.write(f"lambda {topo.law.lam!r}\n")
        fh.write(f"d {topo.law.d!r}\n")
        ct = topo.law.c_table
        fh.write(
            f"c_table {ct['EE']!r} {ct['EI']!r} {ct['IE']!r} {ct['II']!r}\n"
        )
        fh.write("signs " + "".join(EXC if s > 0 else INH for s in topo.signs) + "\n")
        fh.write(f"edges {topo.n_edges}\n")
        for s, t, w in zip(topo.src, topo.dst, topo.weight):
            fh.write(f"{s} {t} {float(w)!r}\n")
