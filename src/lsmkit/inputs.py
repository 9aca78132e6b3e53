"""Sparse signed input-to-reservoir wiring.

Two schemes are supported.  Standard wiring treats the input as a flat
vector: each input neuron picks its targets uniformly from the whole
reservoir.  Receptive-field wiring restricts each input pixel to a narrow
square (x, y) window of reservoir columns anchored at the scaled pixel
coordinate, so the spatial order of a visual input survives inside the
reservoir.  Under both schemes every input neuron gets an equal number of
positive and negative connections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError
from .topology import GridDims

STANDARD = "standard"
RECEPTIVE_FIELD = "receptive_field"


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
        if not 0 < self.density <= 1:
            raise ConfigError("density must lie in (0, 1]")
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

    def matrix(self) -> sparse.csr_matrix:
        """Sparse (reservoir x input) matrix: drive = M @ input_rates; memoized."""
        cached = getattr(self, "_matrix", None)
        if cached is None:
            cached = sparse.csr_matrix(
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


def build_standard_input(spec: InputSpec, dims: GridDims, seed: int) -> InputMap:
    """Uniform wiring over the whole reservoir, k ~ round(density * N).

    The fan-out is forced even (rounded down) with a floor of 2 so the
    equal sign split holds for every density and reservoir size.
    """
    if spec.scheme != STANDARD:
        raise ConfigError("spec is not a standard-input spec")
    n = dims.size
    k = int(np.rint(spec.density * n))
    if k > n:
        raise ConfigError(f"fan-out {k} exceeds reservoir size {n}")
    if k % 2 != 0:
        k -= 1
    k = max(k, 2)
    rng = np.random.default_rng(seed)
    input_idx = np.repeat(np.arange(spec.n_inputs, dtype=np.int64), k)
    res_idx = np.empty(spec.n_inputs * k, dtype=np.int64)
    weights = np.empty(spec.n_inputs * k, dtype=np.float64)
    for i in range(spec.n_inputs):
        targets = rng.choice(n, size=k, replace=False)
        weights[i * k : (i + 1) * k] = _signed_split(targets, spec.input_weight, rng)
        res_idx[i * k : (i + 1) * k] = targets
    return InputMap(
        n_inputs=spec.n_inputs,
        n_reservoir=n,
        input_idx=input_idx,
        reservoir_idx=res_idx,
        weight=weights,
        seed=seed,
    )


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
        raise ConfigError(f"window pool of {pool_size} cannot host a +/- pair")
    k = int(np.rint(density * pool_size))
    if k % 2 != 0:
        k -= 1
    return min(max(k, 2), even_pool)


def build_receptive_field_input(spec: InputSpec, dims: GridDims, seed: int) -> InputMap:
    """Windowed wiring: each pixel draws targets only from its window pool.

    The fan-out is density * pool_size (even, capped at the pool), so it
    stays comparable across window sizes even though pools shrink at the
    image border.  Channel index never shifts the window.
    """
    if spec.scheme != RECEPTIVE_FIELD or spec.field is None:
        raise ConfigError("spec is not a receptive-field spec")
    field = spec.field
    if field.window > dims.nx or field.window > dims.ny:
        raise ConfigError(
            f"window {field.window} does not fit inside the "
            f"{dims.nx}x{dims.ny} reservoir extent"
        )
    rng = np.random.default_rng(seed)
    input_parts: list[np.ndarray] = []
    res_parts: list[np.ndarray] = []
    weight_parts: list[np.ndarray] = []
    plane = field.input_width * field.input_height
    pools: dict[tuple[int, int], np.ndarray] = {}
    for i in range(spec.n_inputs):
        rem = i % plane
        px = rem % field.input_width
        py = rem // field.input_width
        pool = pools.get((px, py))
        if pool is None:
            pool = window_pool(px, py, field, dims)
            pools[(px, py)] = pool
        if pool.size == 0:
            raise ConfigError(f"empty window for pixel ({px}, {py})")
        k = _pool_fanout(spec.density, pool.size)
        targets = rng.choice(pool, size=k, replace=False)
        weight_parts.append(_signed_split(targets, spec.input_weight, rng))
        res_parts.append(targets)
        input_parts.append(np.full(k, i, dtype=np.int64))
    return InputMap(
        n_inputs=spec.n_inputs,
        n_reservoir=dims.size,
        input_idx=np.concatenate(input_parts),
        reservoir_idx=np.concatenate(res_parts),
        weight=np.concatenate(weight_parts),
        seed=seed,
    )


def build_input(spec: InputSpec, dims: GridDims, seed: int) -> InputMap:
    if spec.scheme == STANDARD:
        return build_standard_input(spec, dims, seed)
    return build_receptive_field_input(spec, dims, seed)


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


def load_input_map(path) -> InputMap:
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != "lsm-input v1":
            raise ConfigError(f"not an input-map file: {magic!r}")
        n_inputs = int(fh.readline().split()[1])
        n_reservoir = int(fh.readline().split()[1])
        seed = int(fh.readline().split()[1])
        n_edges = int(fh.readline().split()[1])
        inp = np.empty(n_edges, dtype=np.int64)
        res = np.empty(n_edges, dtype=np.int64)
        weight = np.empty(n_edges, dtype=np.float64)
        for k in range(n_edges):
            parts = fh.readline().split()
            inp[k], res[k], weight[k] = int(parts[0]), int(parts[1]), float(parts[2])
    return InputMap(
        n_inputs=n_inputs,
        n_reservoir=n_reservoir,
        input_idx=inp,
        reservoir_idx=res,
        weight=weight,
        seed=seed,
    )
