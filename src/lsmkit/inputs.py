"""Sparse signed input-to-reservoir wiring.

One sampler serves both schemes: each input neuron draws its targets
uniformly from a pool of reservoir neurons.  Under standard wiring the
pool is the whole reservoir, so the input is treated as a flat vector.
Under receptive-field wiring the pool is a narrow square (x, y) window of
reservoir columns anchored at the scaled pixel coordinate, so the spatial
order of a visual input survives inside the reservoir.  Under both schemes
every input neuron gets an equal number of positive and negative
connections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, check_int, check_real
from .topology import GridDims

STANDARD = "standard"
RECEPTIVE_FIELD = "receptive_field"


def check_density(density: float) -> None:
    """The input wiring's density rule, also checked at config load."""
    check_real("density", density, above=0, at_most=1)


def check_window(window: int, dims: GridDims) -> None:
    """A receptive window must fit the grid's (x, y) extent, and its
    smallest pool must hold a +/- pair; also checked at config load.
    Pixel (0, 0) anchors at column (0, 0), where the window keeps
    ceil(window / 2) columns along x and along y, the fewest of any pixel."""
    if window > dims.nx or window > dims.ny:
        raise ConfigError(
            f"window {window} does not fit inside the "
            f"{dims.nx}x{dims.ny} reservoir extent"
        )
    corner = ((window + 1) // 2) ** 2 * dims.nz
    if corner < 2:
        raise ConfigError(
            f"window {window} leaves pixel (0, 0) a pool of {corner} neuron on the "
            f"{dims.nx}x{dims.ny}x{dims.nz} reservoir, too few for a +/- pair"
        )


@dataclass(frozen=True)
class ReceptiveField:
    """Square-window scheme parameters; channels share the (x, y) anchor."""

    window: int
    input_width: int
    input_height: int
    channels: int = 1

    def __post_init__(self):
        for name in ("window", "input_width", "input_height", "channels"):
            check_int(name, getattr(self, name))


@dataclass(frozen=True)
class InputSpec:
    n_inputs: int
    input_weight: float
    density: float
    scheme: str = STANDARD
    field: ReceptiveField | None = None

    def __post_init__(self):
        check_int("n_inputs", self.n_inputs)
        check_real("input_weight", self.input_weight)
        check_density(self.density)
        if self.scheme not in (STANDARD, RECEPTIVE_FIELD):
            raise ConfigError(f"unknown input scheme {self.scheme!r}")
        if self.scheme == RECEPTIVE_FIELD:
            if self.field is None:
                raise ConfigError("receptive-field scheme needs field parameters")
            expected = (
                self.field.input_width * self.field.input_height * self.field.channels
            )
            if self.n_inputs != expected:
                raise ConfigError(
                    f"n_inputs={self.n_inputs} does not match "
                    f"width*height*channels={expected}"
                )
        elif self.field is not None:
            raise ConfigError("standard scheme takes no receptive field")


@dataclass(frozen=True)
class InputMap:
    """Signed sparse edges from input neurons into a reservoir, held only as
    the input-major (reservoir x input) CSC matrix the drive reads.  Each
    column keeps its targets in the order the sampler drew them, so the
    matrix is not canonical and is never sorted in place; a product still
    adds each output's terms, one per input at most, in input order."""

    matrix: sparse.csc_matrix
    seed: int

    @property
    def n_inputs(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_reservoir(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_edges(self) -> int:
        return self.matrix.nnz

    @property
    def input_idx(self) -> np.ndarray:
        """Each edge's input neuron, ascending."""
        return np.repeat(np.arange(self.n_inputs), np.diff(self.matrix.indptr))

    @property
    def reservoir_idx(self) -> np.ndarray:
        """Each edge's reservoir neuron, in the sampler's order per input."""
        return self.matrix.indices

    @property
    def weight(self) -> np.ndarray:
        return self.matrix.data


def anchor_of(px, py, field: ReceptiveField, dims: GridDims):
    """Reservoir (x, y) column a pixel anchors to; monotone in px and py.
    Takes ints, or integer arrays of pixels."""
    ax = (px * dims.nx) // field.input_width
    ay = (py * dims.ny) // field.input_height
    return ax, ay


def _pool_fanout(density: float, pool_size: int) -> int:
    """Pool-relative fan-out: round, force even, clamp to [2, even pool].
    Every pool holds at least 2 neurons: a grid's size is even, and
    :func:`check_window` refuses a window whose smallest pool is smaller."""
    k = int(np.rint(density * pool_size))
    if k % 2 != 0:
        k -= 1
    return min(max(k, 2), pool_size - (pool_size % 2))


def _window_pools(field: ReceptiveField, dims: GridDims):
    """Each input's clipped window as its pool size, and as the ``start``
    into ``table`` and the ``base`` neuron that make its pool-local index
    ``l`` reservoir neuron ``base + table[start + l]``; returned as
    ``(size, start, base, table)``.  ``l`` runs over x, then y, then z, one
    table serves every window of its shape, and channels share their
    pixel's window."""
    pixel = np.arange(field.input_width * field.input_height)
    ax, ay = anchor_of(pixel % field.input_width, pixel // field.input_width, field, dims)
    half = field.window // 2
    x_lo, y_lo = np.maximum(ax - half, 0), np.maximum(ay - half, 0)
    wx = np.minimum(ax - half + field.window, dims.nx) - x_lo
    wy = np.minimum(ay - half + field.window, dims.ny) - y_lo
    shapes, shape_of = np.unique(wy * (dims.nx + 1) + wx, return_inverse=True)
    tables = []
    for h, w in (divmod(shape, dims.nx + 1) for shape in shapes.tolist()):
        cols = (np.arange(w)[None, :] + dims.nx * np.arange(h)[:, None]).ravel()
        tables.append((cols[None, :] + dims.nx * dims.ny * np.arange(dims.nz)[:, None]).ravel())
    starts = np.cumsum([0] + [t.size for t in tables[:-1]])
    per_pixel = (wx * wy * dims.nz, starts[shape_of], x_lo + dims.nx * y_lo)
    return *(np.tile(a, field.channels) for a in per_pixel), np.concatenate(tables)


def build_input(spec: InputSpec, dims: GridDims, seed: int) -> InputMap:
    """Each input neuron draws density * pool_size targets from its pool.

    The pool is the whole reservoir under standard wiring and the pixel's
    clipped window under receptive-field wiring; channel index never
    shifts the window.  The fan-out is forced even (rounded down) with a
    floor of 2 and capped at the pool, so the equal sign split holds for
    every density and it stays comparable across window sizes even though
    pools shrink at the image border.  Each input's first k // 2 targets
    are positive.

    Only the draws run once per input, in input order: ``rng.choice`` of
    k pool-local indices, then ``rng.shuffle`` of them.  Both read one
    ``Generator``'s sequential stream, whose draws NumPy cannot make in
    bulk and reproduce.  Everything else is computed in bulk; shuffling
    the local indices before mapping them into the pool draws what
    shuffling the mapped targets would, as a shuffle's draws depend only
    on the length.
    """
    if spec.scheme == STANDARD:
        pool_size = np.full(spec.n_inputs, dims.size)
    else:
        check_window(spec.field.window, dims)
        pool_size, start, base, table = _window_pools(spec.field, dims)
    sizes, size_of = np.unique(pool_size, return_inverse=True)
    fanout = np.array([_pool_fanout(spec.density, size) for size in sizes.tolist()])[size_of]
    ends = np.cumsum(fanout)
    targets = np.empty(ends[-1], dtype=np.int64)
    rng = np.random.default_rng(seed)
    choice, shuffle = rng.choice, rng.shuffle
    lo = 0
    for pool, hi in zip(pool_size.tolist(), ends.tolist()):
        drawn = choice(pool, size=hi - lo, replace=False)
        shuffle(drawn)
        targets[lo:hi] = drawn
        lo = hi
    if spec.scheme != STANDARD:
        # at most one edge-length temporary beside the targets at a time
        targets += np.repeat(start, fanout)
        targets = table[targets]
        targets += np.repeat(base, fanout)
    signs = np.array([spec.input_weight, -spec.input_weight], dtype=np.float64)
    weights = np.repeat(np.tile(signs, spec.n_inputs), np.repeat(fanout // 2, 2))
    matrix = sparse.csc_matrix(
        (weights, targets, np.concatenate(([0], ends))),
        shape=(dims.size, spec.n_inputs),
    )
    return InputMap(matrix=matrix, seed=seed)


def save_input_map(imap: InputMap, path) -> None:
    """Text export in the topology edge format, under an ``input`` header."""
    with open(path, "w") as fh:
        fh.write("lsm-input v1\n")
        fh.write(f"n_inputs {imap.n_inputs}\n")
        fh.write(f"n_reservoir {imap.n_reservoir}\n")
        fh.write(f"seed {imap.seed}\n")
        fh.write(f"input {imap.n_edges}\n")
        for s, t, w in zip(imap.input_idx, imap.reservoir_idx, imap.weight):
            fh.write(f"{s} {t} {float(w)!r}\n")
