"""Seeded synthetic stand-ins for the shipped dataset configs.

Each workload pairs one shipped config with a generator that writes EVS1
files and a ``manifest.json`` of the dataset's sensor geometry, event count
and duration.  Real recordings cannot be used, so every generator draws
class-structured streams: a class is a fixed spatial or spectral template
(identical for every seed), and the seed only draws the per-sample jitter,
timing and noise.  The same seed therefore gives byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from lsmkit.config import ExperimentConfig, load_config
from lsmkit.eventio import write_events
from lsmkit.events import EventStream
from lsmkit.synth import MultiPhaseParams, generate_multiphase

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Class templates come from this fixed generator, never from the run seed,
# so the task is equally hard for every seed.
TEMPLATE_SEED = 20240917


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file under configs/
    n_classes: int
    n_train: int
    n_test: int
    accuracy_floor: float  # above chance; test accuracy below it fails the run
    generate: Callable[["Workload", int, Path], Path]
    threads_slice: int = 0  # samples per split re-run at threads=2; 0 skips
    in_cache: bool = False  # data fit in L2: scaled by hostspeed's compute part only

    def load_config(self, manifest: Path, output_dir: Path) -> ExperimentConfig:
        """The shipped config with only the manifest and output dir swapped."""
        cfg = load_config(CONFIG_DIR / self.config)
        return replace(cfg, dataset_manifest=str(manifest), output_dir=str(output_dir))

    @property
    def n_samples(self) -> int:
        return self.n_train + self.n_test


def _labels(count: int, n_classes: int) -> list[int]:
    """Cycle through the classes so every split stays balanced."""
    return [i % n_classes for i in range(count)]


def _write_dataset(
    wl: Workload,
    out: Path,
    make_stream: Callable[[np.random.Generator, int], EventStream],
    rng: np.random.Generator,
    channels: int,
) -> Path:
    manifest: dict = {"channels": channels, "train": [], "test": []}
    for split, count in (("train", wl.n_train), ("test", wl.n_test)):
        (out / split).mkdir(parents=True, exist_ok=True)
        for i, label in enumerate(_labels(count, wl.n_classes)):
            stream = make_stream(rng, label)
            rel = f"{split}/sample_{i:05d}.evs"
            write_events(stream, out / rel)
            manifest[split].append(rel)
            manifest["width"], manifest["height"] = stream.width, stream.height
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return path


def _stream(t, x, y, p, width, height, label) -> EventStream:
    order = np.argsort(t, kind="stable")
    return EventStream(
        t=t[order], x=x[order], y=y[order], p=p[order],
        width=width, height=height, label=label,
    )


def _events_from_change(
    rng: np.random.Generator,
    images: Callable[[int], np.ndarray],
    steps: int,
    time_window: int,
    target_events: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Poisson events where a rendered intensity changes between steps.

    The event rate of a pixel is proportional to |I_t - I_{t-1}|, and its
    polarity is the sign of the change, as on a DVS sensor.  The gain is
    set so the sample emits about ``target_events`` events.
    """
    prev = images(0)
    deltas = []
    for s in range(1, steps + 1):
        cur = images(s)
        deltas.append((cur - prev).astype(np.float32))
        prev = cur
    change = np.stack(deltas)  # (steps, H, W)
    gain = target_events / max(float(np.abs(change).sum()), 1e-9)
    counts = rng.poisson(np.abs(change) * gain)
    step, y, x = np.nonzero(counts)
    reps = counts[step, y, x]
    step, y, x = np.repeat(step, reps), np.repeat(y, reps), np.repeat(x, reps)
    p = (change[step, y, x] > 0).astype(np.int64)
    t = step.astype(np.int64) * time_window + rng.integers(0, time_window, step.size)
    return t, x.astype(np.int64), y.astype(np.int64), p


def _segment_distance(px, py, segments) -> np.ndarray:
    """Distance from each (px, py) point to the nearest of the segments."""
    best = np.full(px.shape, np.inf)
    for (x0, y0), (x1, y1) in segments:
        dx, dy = x1 - x0, y1 - y0
        length2 = max(dx * dx + dy * dy, 1e-12)
        u = np.clip(((px - x0) * dx + (py - y0) * dy) / length2, 0.0, 1.0)
        best = np.minimum(best, np.hypot(px - (x0 + u * dx), py - (y0 + u * dy)))
    return best


def _add_noise(rng, t, x, y, p, n_noise, width, height, duration):
    return (
        np.concatenate([t, rng.integers(0, duration, n_noise)]),
        np.concatenate([x, rng.integers(0, width, n_noise)]),
        np.concatenate([y, rng.integers(0, height, n_noise)]),
        np.concatenate([p, rng.integers(0, 2, n_noise)]),
    )


# --- synth-tepre3: the package's own multi-phase generator ------------------


def generate_synth(wl: Workload, seed: int, out: Path) -> Path:
    params = MultiPhaseParams(
        n_classes=wl.n_classes, n_train=wl.n_train, n_test=wl.n_test, seed=seed
    )
    return generate_multiphase(params, out)


# --- shd-tepre6: 700-channel cochlea, ~8k events over ~1 s -------------------

SHD_CHANNELS = 700


def _shd_templates(n_classes: int) -> list[np.ndarray]:
    """Per class: three formant tracks (channel at start, channel at end)."""
    rng = np.random.default_rng(TEMPLATE_SEED)
    return [rng.uniform(60, SHD_CHANNELS - 60, size=(3, 2)) for _ in range(n_classes)]


def generate_shd(wl: Workload, seed: int, out: Path) -> Path:
    templates = _shd_templates(wl.n_classes)

    def make(rng: np.random.Generator, label: int) -> EventStream:
        duration = int(rng.integers(880_000, 960_000))  # under 1000 steps of 1 ms
        n = int(rng.normal(7_200, 300))
        frac = rng.random(n)
        track = rng.integers(0, 3, n)
        start, end = templates[label][track, 0], templates[label][track, 1]
        shift = rng.normal(0, 8)
        channel = start + (end - start) * frac + shift + rng.normal(0, 10, n)
        x = np.clip(np.rint(channel), 0, SHD_CHANNELS - 1).astype(np.int64)
        t = (frac * duration).astype(np.int64)
        zeros = np.zeros(n, dtype=np.int64)
        t, x, y, p = _add_noise(rng, t, x, zeros, zeros, 800, SHD_CHANNELS, 1, duration)
        return _stream(t, x, y, np.zeros_like(p), SHD_CHANNELS, 1, label)

    return _write_dataset(wl, out, make, np.random.default_rng(seed), channels=1)


# --- nmnist-mulre3: 34x34x2 saccade streams, ~4.5k events over 300 ms --------

NMNIST_SIZE = 34
_RING = np.linspace(0, 2 * np.pi, 13)
_GLYPHS = [
    # "0" and "1" as strokes on a 28x28 canvas, as in the digits the sensor saw
    [((14 + 8 * np.cos(a), 14 + 10 * np.sin(a)), (14 + 8 * np.cos(b), 14 + 10 * np.sin(b)))
     for a, b in zip(_RING[:-1], _RING[1:])],
    [((14, 4), (14, 24)), ((10, 8), (14, 4))],
]


def generate_nmnist(wl: Workload, seed: int, out: Path) -> Path:
    steps, window = 300, 1000
    yy, xx = np.mgrid[0:NMNIST_SIZE, 0:NMNIST_SIZE].astype(np.float64)
    # three saccades of 100 ms each, tracing a triangle
    velocity = np.array([(1.0, 1.0), (1.0, -1.0), (-2.0, 0.0)]) * 0.03

    def make(rng: np.random.Generator, label: int) -> EventStream:
        glyph = _GLYPHS[label]
        angle = rng.normal(0, 0.12)
        cos, sin = np.cos(angle), np.sin(angle)
        base = rng.normal(3.0, 1.0, size=2)
        width = rng.uniform(1.0, 1.5)
        segments = [
            tuple(
                (base[0] + 14 + cos * (x - 14) - sin * (y - 14),
                 base[1] + 14 + sin * (x - 14) + cos * (y - 14))
                for x, y in seg
            )
            for seg in glyph
        ]
        offsets = np.cumsum(np.repeat(velocity, 100, axis=0), axis=0)
        offsets = np.vstack([[0.0, 0.0], offsets])

        def image(s: int) -> np.ndarray:
            ox, oy = offsets[s]
            d = _segment_distance(xx - ox, yy - oy, segments)
            return np.exp(-0.5 * (d / width) ** 2)

        t, x, y, p = _events_from_change(
            rng, image, steps, window, rng.normal(4_300, 250)
        )
        t, x, y, p = _add_noise(
            rng, t, x, y, p, 200, NMNIST_SIZE, NMNIST_SIZE, steps * window
        )
        return _stream(t, x, y, p, NMNIST_SIZE, NMNIST_SIZE, label)

    return _write_dataset(wl, out, make, np.random.default_rng(seed), channels=2)


# --- dvs-rf: 128x128x2 gesture streams, ~1e5 events over 6 s -----------------

DVS_SIZE = 128
# per class: shoulder (x, y), motion centre (x, y), (amplitude x, amplitude y),
# phase lag of y behind x in radians; a zero amplitude gives a straight wave
_GESTURES = [
    ((84, 80), (96, 50), (22, 0), 0.0),  # right hand wave
    ((44, 80), (32, 50), (22, 0), 0.0),  # left hand wave
    ((64, 90), (64, 60), (18, 18), np.pi / 2),  # arm roll
    ((64, 90), (64, 34), (0, 20), 0.0),  # hand up and down
]


def generate_dvs(wl: Workload, seed: int, out: Path) -> Path:
    steps, window = 300, 20_000
    yy, xx = np.mgrid[0:DVS_SIZE, 0:DVS_SIZE].astype(np.float64)

    def make(rng: np.random.Generator, label: int) -> EventStream:
        shoulder, centre, amp, lag = _GESTURES[label]
        shift = rng.normal(0, 4, size=2)
        scale = rng.uniform(0.85, 1.15)
        period = rng.uniform(45, 60)  # steps per cycle, about 1 s
        phase = rng.uniform(0, 2 * np.pi)
        sx, sy = shoulder[0] + shift[0], shoulder[1] + shift[1]

        def image(s: int) -> np.ndarray:
            w = 2 * np.pi * s / period + phase
            hx = centre[0] + shift[0] + scale * amp[0] * np.cos(w)
            hy = centre[1] + shift[1] + scale * amp[1] * np.cos(w - lag)
            arm = _segment_distance(xx, yy, [((sx, sy), (hx, hy))])
            hand = np.hypot(xx - hx, yy - hy)
            return np.exp(-0.5 * (arm / 3.0) ** 2) + np.exp(-0.5 * (hand / 7.0) ** 2)

        t, x, y, p = _events_from_change(
            rng, image, steps, window, rng.normal(95_000, 5_000)
        )
        t, x, y, p = _add_noise(
            rng, t, x, y, p, 5_000, DVS_SIZE, DVS_SIZE, steps * window
        )
        return _stream(t, x, y, p, DVS_SIZE, DVS_SIZE, label)

    return _write_dataset(wl, out, make, np.random.default_rng(seed), channels=2)


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="synth-tepre3",
            config="synthetic_tepre3.json",
            n_classes=4, n_train=32, n_test=16, accuracy_floor=0.75,
            generate=generate_synth,
            threads_slice=9,
            # 600 neurons and 64 inputs: every array fits in the 2 MB L2
            in_cache=True,
        ),
        Workload(
            name="shd-tepre6",
            config="shd_tepre6.json",
            n_classes=4, n_train=4, n_test=4, accuracy_floor=0.75,
            generate=generate_shd,
        ),
        Workload(
            name="nmnist-mulre3",
            config="nmnist_mulre3.json",
            n_classes=2, n_train=4, n_test=2, accuracy_floor=1.0,
            generate=generate_nmnist,
        ),
        Workload(
            name="dvs-rf",
            config="dvsgesture_rf.json",
            n_classes=4, n_train=4, n_test=4, accuracy_floor=0.75,
            generate=generate_dvs,
        ),
    )
}
