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

from .errors import ConfigError
from .topology import GridDims

STANDARD = "standard"
RECEPTIVE_FIELD = "receptive_field"


def check_density(density: float) -> None:
    """The input wiring's density rule, also checked at config load."""
    if not 0 < density <= 1:
        raise ConfigError(f"density must lie in (0, 1], not {density}")


def check_window(window: int, dims: GridDims) -> None:
    """A receptive window must fit the grid's (x, y) extent; also checked
    at config load."""
    if window > dims.nx or window > dims.ny:
        raise ConfigError(
            f"window {window} does not fit inside the "
            f"{dims.nx}x{dims.ny} reservoir extent"
        )


@dataclass(frozen=True)
class ReceptiveField:
    """Square-window scheme parameters; channels share the (x, y) anchor."""

    window: int
    input_width: int
    input_height: int
    channels: int = 1

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError("window size must be >= 1")
        if min(self.input_width, self.input_height, self.channels) < 1:
            raise ConfigError("input dimensions must be positive")


@dataclass(frozen=True)
class InputSpec:
    n_inputs: int
    input_weight: float
    density: float
    scheme: str = STANDARD
    field: ReceptiveField | None = None

    def __post_init__(self):
        if self.n_inputs < 1:
            raise ConfigError("need at least one input neuron")
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


@dataclass
class InputMap:
    """Signed sparse edges from input neurons into a reservoir."""

    n_inputs: int
    n_reservoir: int
    input_idx: np.ndarray
    reservoir_idx: np.ndarray
    weight: np.ndarray
    seed: int

    @property
    def n_edges(self) -> int:
        return self.input_idx.shape[0]

    def matrix(self) -> sparse.csc_matrix:
        """Sparse (reservoir x input) matrix: drive = M @ input_rates; memoized.

        Stored input-major (CSC), so a product walks the inputs in order and
        reads each input's rate row once; every output still adds its terms
        in ascending input order, as a row-major product would.
        """
        cached = getattr(self, "_matrix", None)
        if cached is None:
            cached = sparse.csc_matrix(
                (self.weight, (self.reservoir_idx, self.input_idx)),
                shape=(self.n_reservoir, self.n_inputs),
            )
            self._matrix = cached
        return cached


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


def anchor_of(px: int, py: int, field: ReceptiveField, dims: GridDims) -> tuple[int, int]:
    """Reservoir (x, y) column a pixel anchors to; monotone in px and py."""
    ax = (px * dims.nx) // field.input_width
    ay = (py * dims.ny) // field.input_height
    return ax, ay


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


def _pool_fanout(density: float, pool_size: int) -> int:
    """Pool-relative fan-out: round, force even, clamp to [2, even pool]."""
    even_pool = pool_size - (pool_size % 2)
    if even_pool < 2:
        raise ConfigError(f"pool of {pool_size} neurons cannot host a +/- pair")
    k = int(np.rint(density * pool_size))
    if k % 2 != 0:
        k -= 1
    return min(max(k, 2), even_pool)


def build_input(spec: InputSpec, dims: GridDims, seed: int) -> InputMap:
    """Each input neuron draws density * pool_size targets from its pool.

    The pool is the whole reservoir under standard wiring and the pixel's
    clipped window under receptive-field wiring; channel index never
    shifts the window.  The fan-out is forced even (rounded down) with a
    floor of 2 and capped at the pool, so the equal sign split holds for
    every density and it stays comparable across window sizes even though
    pools shrink at the image border.
    """
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
    fanout_of = fanouts[pool_of]
    ends = np.cumsum(fanout_of).tolist()
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
    return InputMap(
        n_inputs=spec.n_inputs,
        n_reservoir=dims.size,
        input_idx=np.repeat(np.arange(spec.n_inputs, dtype=np.int64), fanout_of),
        reservoir_idx=res_idx,
        weight=weights,
        seed=seed,
    )


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
