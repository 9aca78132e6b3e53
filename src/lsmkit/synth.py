"""Synthetic multi-phase event dataset with known separability.

Each sample plays a sequence of spatial rate patterns, one per temporal
phase, on a small pixel grid (single polarity).  A class is a distinct
phase ordering of the same base patterns, so every class emits the same
total event statistics and differs only in WHEN each pattern appears.
Full-window spike counts are therefore nearly class-blind, while any
readout with access to per-phase structure separates the classes exactly:
the Bayes-optimal decision on the per-phase rates is perfect whenever the
base patterns differ.  This makes the set a desk-scale probe for temporal
partitioning.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, check_int, check_real
from .eventio import write_dataset
from .events import EventStream


@dataclass(frozen=True)
class MultiPhaseParams:
    n_classes: int = 4
    n_phases: int = 3
    width: int = 8
    height: int = 8
    steps_per_phase: int = 100
    time_window: int = 1000
    hi_rate: float = 0.45
    lo_rate: float = 0.2
    active_fraction: float = 0.5
    n_train: int = 500
    n_test: int = 500
    seed: int = 2024

    def __post_init__(self):
        for name in (
            "n_phases", "width", "height", "steps_per_phase", "time_window",
            "n_train", "n_test",
        ):
            check_int(name, getattr(self, name))
        check_int("n_classes", self.n_classes, low=2)
        check_int("seed", self.seed, low=0)
        if self.n_classes > math.factorial(self.n_phases):
            raise ConfigError(
                f"{self.n_classes} classes need {self.n_classes} distinct "
                f"orderings of {self.n_phases} phases; only "
                f"{math.factorial(self.n_phases)} exist"
            )
        check_real("hi_rate", self.hi_rate, at_least=0, at_most=1)
        check_real("lo_rate", self.lo_rate, at_least=0, at_most=self.hi_rate)
        check_real("active_fraction", self.active_fraction, above=0, below=1)

    @property
    def total_steps(self) -> int:
        return self.n_phases * self.steps_per_phase


def class_orders(params: MultiPhaseParams) -> list[tuple[int, ...]]:
    """First n_classes phase orderings in lexicographic order."""
    perms = itertools.permutations(range(params.n_phases))
    return [next(perms) for _ in range(params.n_classes)]


def base_patterns(params: MultiPhaseParams, rng: np.random.Generator) -> np.ndarray:
    """(n_phases, H*W) boolean active-pixel masks, pairwise distinct."""
    n_pixels = params.width * params.height
    n_active = max(1, int(round(params.active_fraction * n_pixels)))
    patterns = np.zeros((params.n_phases, n_pixels), dtype=bool)
    for i in range(params.n_phases):
        while True:
            mask = np.zeros(n_pixels, dtype=bool)
            mask[rng.choice(n_pixels, size=n_active, replace=False)] = True
            if not any(np.array_equal(mask, patterns[j]) for j in range(i)):
                patterns[i] = mask
                break
    return patterns


def sample_stream(
    label: int,
    orders: list[tuple[int, ...]],
    patterns: np.ndarray,
    params: MultiPhaseParams,
    rng: np.random.Generator,
) -> EventStream:
    """One labeled event stream: per-step Bernoulli events, rate by pattern."""
    n_pixels = params.width * params.height
    order = orders[label]
    ts, xs, ys = [], [], []
    for phase, pattern_idx in enumerate(order):
        rates = np.where(patterns[pattern_idx], params.hi_rate, params.lo_rate)
        fires = rng.random((params.steps_per_phase, n_pixels)) < rates[None, :]
        step_idx, pix_idx = np.nonzero(fires)
        offsets = rng.integers(0, params.time_window, size=step_idx.shape[0])
        t = (
            (phase * params.steps_per_phase + step_idx).astype(np.int64)
            * params.time_window
            + offsets
        )
        ts.append(t)
        xs.append(pix_idx % params.width)
        ys.append(pix_idx // params.width)
    t = np.concatenate(ts)
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order_sort = np.argsort(t, kind="stable")
    return EventStream(
        t=t[order_sort],
        x=x[order_sort],
        y=y[order_sort],
        p=np.zeros(t.shape[0], dtype=np.int64),
        width=params.width,
        height=params.height,
        label=label,
    )


def generate_multiphase(params: MultiPhaseParams, out_dir) -> Path:
    """Write train/test EVS1 files plus a manifest; returns the manifest path.

    Labels cycle through the classes so splits stay balanced.  Everything is
    a pure function of the params (one seeded generator drives patterns and
    all samples in a fixed order: patterns, train, test).
    """
    rng = np.random.default_rng(params.seed)
    patterns = base_patterns(params, rng)
    orders = class_orders(params)

    def streams(count: int):
        for i in range(count):
            yield sample_stream(i % params.n_classes, orders, patterns, params, rng)

    splits = {"train": streams(params.n_train), "test": streams(params.n_test)}
    return write_dataset(out_dir, params.width, params.height, 1, splits)
