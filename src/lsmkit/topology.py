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

Construction is a pure function of (dims, law, seed, ``params.w_lsm``):
the kind permutation is drawn first, then one uniform per ordered neuron
pair in row-major order (diagonal draws are made and discarded), so any
parallel implementation must reproduce that stream assignment.

The distance factor of the law depends only on the integer offset between
two neurons, so a build evaluates it once, as a kernel over the
``(2nz-1) x (2ny-1) x (2nx-1)`` offsets (about 8 N values, not N**2).  Each
source neuron's row of probabilities is a strided ``(nz, ny, nx)`` window of
that kernel, times its kind factor.  Sources are taken in chunks of whole
x-lines (whole z-planes when a plane fits in ``CHUNK_ROWS``), so a chunk's
windows are one strided view that is multiplied straight into the chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import ConfigError, check_int, check_real

EXC = "E"
INH = "I"

DEFAULT_C_TABLE = {"EE": 0.2, "EI": 0.1, "IE": 0.05, "II": 0.3}

# Source rows whose pair probabilities are held at once (a chunk is never
# less than one x-line); this bounds peak memory only, the sampled stream is
# identical for any value.
CHUNK_ROWS = 512


@dataclass(frozen=True)
class GridDims:
    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            # held as a plain int, so a side's NumPy type cannot wrap the size
            object.__setattr__(self, name, int(check_int(name, getattr(self, name))))
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
        # an infinite lam would give every pair its plain c_table probability
        check_real("lam", self.lam, above=0)
        # an infinite offset would make every pair probability 0: no edges
        check_real("d", self.d, at_least=0)
        if set(self.c_table) != {"EE", "EI", "IE", "II"}:
            raise ConfigError("c_table needs exactly the EE/EI/IE/II entries")
        for key, c in self.c_table.items():
            check_real(f"c_table[{key}]", c, above=0, at_most=1)


@dataclass(frozen=True)
class ReservoirTopology:
    """A sampled reservoir: neuron kinds plus the signed edges, held only as
    the (post x pre) CSC matrix the time loop reads (a column per source)."""

    dims: GridDims
    signs: np.ndarray  # (N,) of +1 (excitatory) / -1 (inhibitory)
    matrix: sparse.csc_matrix
    seed: int
    law: ConnectionLaw

    @property
    def size(self) -> int:
        return self.dims.size

    @property
    def n_edges(self) -> int:
        return self.matrix.nnz

    @property
    def src(self) -> np.ndarray:
        """Each edge's source, ascending: a read-only int64 array, as ``dst``."""
        src = np.repeat(np.arange(self.size, dtype=np.int64), np.diff(self.matrix.indptr))
        src.flags.writeable = False
        return src

    @property
    def dst(self) -> np.ndarray:
        """Each edge's target, ascending within its source."""
        dst = self.matrix.indices.astype(np.int64)
        dst.flags.writeable = False
        return dst

    @property
    def weight(self) -> np.ndarray:
        """Each edge's weight, a view of the matrix's data."""
        return self.matrix.data

    def inhibitory_indices(self) -> np.ndarray:
        return np.nonzero(self.signs < 0)[0]


def _law_windows(dims: GridDims, law: ConnectionLaw) -> np.ndarray:
    """The law's distance factor as read-only ``(nz, ny, nx, nz, ny, nx)``
    windows: ``[z, y, x]`` is source ``(x, y, z)``'s factor to every target.

    The kernel holds every offset in ``(1-nz..nz-1, 1-ny..ny-1,
    1-nx..nx-1)``; squared integer offsets are exact in float64, so each
    distance is the one ``cdist`` would give.  Source ``(x, y, z)`` reads the
    window whose corner is offset ``(-z, -y, -x)``.  The view equals
    ``sliding_window_view(kernel, (nz, ny, nx))[::-1, ::-1, ::-1]``, made
    without that function's checks, which cost more than a two-neuron build.
    """
    nx, ny, nz = dims.nx, dims.ny, dims.nz
    dx, dy, dz = (np.arange(1 - k, k) for k in (nx, ny, nz))
    squared = (dz * dz)[:, None, None] + (dy * dy)[:, None] + dx * dx
    kernel = np.exp(-(((np.sqrt(squared) - law.d) / law.lam) ** 2))
    kernel.flags.writeable = False
    sz, sy, sx = kernel.strides
    return np.ndarray(
        (nz, ny, nx, nz, ny, nx),
        kernel.dtype,
        kernel,
        offset=(nz - 1) * sz + (ny - 1) * sy + (nx - 1) * sx,
        strides=(-sz, -sy, -sx, sz, sy, sx),
    )


def _probability_chunks(dims: GridDims, law: ConnectionLaw, signs: np.ndarray):
    """``(start, prob)`` for each chunk of source rows, in row order.

    A chunk is a run of whole z-planes when one plane fits in
    ``CHUNK_ROWS`` rows, else a run of whole x-lines of one plane (at least
    one line).  ``prob`` is a fresh ``(rows, N)`` array: each source row's
    kind factor times its window of the law's distance factor.
    """
    nx, ny, n = dims.nx, dims.ny, dims.size
    windows = _law_windows(dims, law)
    c_by_kind = np.array(
        [
            [law.c_table["II"], law.c_table["IE"]],
            [law.c_table["EI"], law.c_table["EE"]],
        ],
        dtype=np.float64,  # an integer table could not take the product in place
    )
    exc = (signs > 0).astype(np.intp)
    c_rows = c_by_kind[:, exc]  # row 0 for an inhibitory source, 1 excitatory
    lines = min(ny, max(1, CHUNK_ROWS // nx))
    planes = max(1, CHUNK_ROWS // (nx * ny))  # more than one only if lines == ny
    for z0 in range(0, dims.nz, planes):
        z1 = min(z0 + planes, dims.nz)
        for y0 in range(0, ny, lines):
            y1 = min(y0 + lines, ny)
            window = windows[z0:z1, y0:y1]
            start = nx * (y0 + ny * z0)
            prob = c_rows[exc[start : start + window.size // n]]
            view = prob.reshape(window.shape)
            view *= window  # kind factor times distance factor, in place
            yield start, prob


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

    edges = []  # source * n + target of each edge
    for start, prob in _probability_chunks(dims, law, signs):
        adjacency = rng.random(prob.shape) < prob
        # row r's self-pair sits at flat index start + r * (n + 1)
        adjacency.reshape(-1)[start :: n + 1] = False
        # flat indices of a C-ordered chunk are in row-major order
        edges.append(np.flatnonzero(adjacency) + start * n)
    src, dst = np.divmod(np.concatenate(edges), n)
    weight = params.w_lsm * signs[src].astype(np.float64)
    # the edges are source-major, so each source's run is its CSC column
    indptr = np.searchsorted(src, np.arange(n + 1))
    matrix = sparse.csc_matrix((weight, dst, indptr), shape=(n, n))
    return ReservoirTopology(dims=dims, signs=signs, matrix=matrix, seed=seed, law=law)


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
