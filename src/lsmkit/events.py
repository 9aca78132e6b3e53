"""Event-stream preprocessing: temporal binning, pooling, spike drive.

Raw neuromorphic data arrives as timestamped (t, x, y, polarity) events.
The engine consumes them as per-timestep count frames: one frame per
simulation step, binned at ``time_window`` microseconds anchored at the
first event so leading silence does not pad the presentation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class EventStream:
    """Sorted event record list plus sensor geometry.

    ``t`` is in microseconds; polarity is 0 or 1.  1-D sensors (e.g. a
    cochlea model) use height 1 with the channel index stored in x.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    width: int
    height: int
    label: int | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.int64)
        self.x = np.asarray(self.x, dtype=np.int64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.p = np.asarray(self.p, dtype=np.int64)
        n = self.t.shape[0]
        if not (self.x.shape[0] == self.y.shape[0] == self.p.shape[0] == n):
            raise ConfigError("event field arrays must have equal length")
        if n and np.any(np.diff(self.t) < 0):
            raise ConfigError("events must be sorted by time")
        if n and (self.x.min() < 0 or self.x.max() >= self.width):
            raise ConfigError("event x out of sensor range")
        if n and (self.y.min() < 0 or self.y.max() >= self.height):
            raise ConfigError("event y out of sensor range")
        if n and self.p.min() < 0:
            raise ConfigError("event polarity must be 0 or 1, not negative")

    @property
    def n_events(self) -> int:
        return self.t.shape[0]


@dataclass
class FrameSequence:
    """(T, channels, H, W) per-timestep frames.

    Binned frames hold event counts; filtered frames (after a Gabor bank)
    hold nonnegative rates.
    """

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 4:
            raise ConfigError("frames must have shape (T, C, H, W)")

    @property
    def steps(self) -> int:
        return self.frames.shape[0]

    @property
    def channels(self) -> int:
        return self.frames.shape[1]

    def flat(self) -> np.ndarray:
        """(T, C*H*W) view, channel-major then row-major within a frame."""
        t, c, h, w = self.frames.shape
        return self.frames.reshape(t, c * h * w)


def bin_events(
    stream: EventStream, time_window: int, n_channels: int = 2
) -> FrameSequence:
    """Accumulate events into count frames of ``time_window`` microseconds.

    An event at time t lands in frame floor((t - t_first) / time_window)
    on the channel given by its polarity.  An empty stream produces an
    empty sequence.
    """
    if time_window <= 0:
        raise ConfigError("time_window must be positive")
    if stream.n_events == 0:
        return FrameSequence(
            np.zeros((0, n_channels, stream.height, stream.width), dtype=np.int64)
        )
    if stream.p.max() >= n_channels:
        raise ConfigError(
            f"polarity {stream.p.max()} exceeds channel count {n_channels}"
        )
    t0 = stream.t[0]
    frame_idx = (stream.t - t0) // time_window
    steps = int(frame_idx[-1]) + 1
    frames = np.zeros(
        (steps, n_channels, stream.height, stream.width), dtype=np.int64
    )
    np.add.at(frames, (frame_idx, stream.p, stream.y, stream.x), 1)
    return FrameSequence(frames)


def downscale(seq: FrameSequence, factor: int) -> FrameSequence:
    """Count-preserving factor x factor block pooling."""
    if factor < 1:
        raise ConfigError("downscale factor must be >= 1")
    if factor == 1:
        return seq
    t, c, h, w = seq.frames.shape
    if h % factor or w % factor:
        raise ConfigError(f"frame dims {h}x{w} not divisible by factor {factor}")
    pooled = seq.frames.reshape(t, c, h // factor, factor, w // factor, factor)
    pooled = pooled.sum(axis=(3, 5))
    return FrameSequence(pooled)


def merge_channels(seq: FrameSequence) -> FrameSequence:
    """Collapse polarity/channel axis by summation."""
    merged = seq.frames.sum(axis=1, keepdims=True)
    return FrameSequence(merged)


def clip_or_pad(seq: FrameSequence, steps: int) -> FrameSequence:
    """Force a fixed presentation length: truncate or zero-pad at the end."""
    if steps < 0:
        raise ConfigError("presentation length must be nonnegative")
    t = seq.steps
    if t == steps:
        return seq
    if t > steps:
        return FrameSequence(seq.frames[:steps])
    pad = np.zeros((steps - t,) + seq.frames.shape[1:], dtype=seq.frames.dtype)
    return FrameSequence(np.concatenate([seq.frames, pad], axis=0))


def frames_to_spike_drive(seq: FrameSequence) -> np.ndarray:
    """(T, n_inputs) analog rate vectors, one row per simulation step.

    Each input neuron's drive at step t is its frame count; the ensemble
    layer scales it by the config's ``input_scale`` and pushes it through
    an input map into the synapse traces.
    """
    return seq.flat().astype(np.float64)
