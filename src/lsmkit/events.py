"""Event-stream preprocessing: pooling, temporal binning, fixed length.

Raw neuromorphic data arrives as timestamped (t, x, y, polarity) events.
The engine consumes them as per-timestep count frames: one frame per
simulation step, binned at ``time_window`` microseconds anchored at the
first event so leading silence does not pad the presentation.  Spatial
pooling acts on the events, before binning, so frames are only ever made
at the resolution the engine reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, check_int


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
        for name in ("t", "x", "y", "p"):
            field = np.asarray(getattr(self, name))
            if field.size and field.dtype.kind not in "iu":
                raise TypeError(f"event {name} must be integers, not {field.dtype}")
            setattr(self, name, np.asarray(field, dtype=np.int64))
        check_int("width", self.width)
        check_int("height", self.height)
        if self.label is not None:
            check_int("label", self.label, low=0)
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
    """Accumulate events into int64 count frames of ``time_window``
    microseconds.

    An event at time t lands in frame floor((t - t_first) / time_window)
    on the channel given by its polarity; the frames are one ``bincount``
    over each event's flat (frame, channel, y, x) index.  An empty stream
    produces an empty sequence.
    """
    check_int("time_window", time_window)
    check_int("n_channels", n_channels)
    h, w = stream.height, stream.width
    if stream.n_events == 0:
        return FrameSequence(np.zeros((0, n_channels, h, w), dtype=np.int64))
    if stream.p.max() >= n_channels:
        raise ConfigError(
            f"polarity {stream.p.max()} exceeds channel count {n_channels}"
        )
    frame_idx = (stream.t - stream.t[0]) // time_window
    shape = (int(frame_idx[-1]) + 1, n_channels, h, w)
    flat = ((frame_idx * n_channels + stream.p) * h + stream.y) * w + stream.x
    counts = np.bincount(flat, minlength=math.prod(shape))
    return FrameSequence(counts.reshape(shape))


def downscale(stream: EventStream, factor: int) -> EventStream:
    """Count-preserving factor x factor pooling of the sensor: each event
    moves to the cell ``(x // factor, y // factor)`` of a sensor
    ``factor`` times smaller on each side, keeping its time, polarity and
    the stream's label.  Binning the result gives the block sums of the
    full-resolution frames, exactly, without ever making those frames.
    """
    check_int("factor", factor)
    if factor == 1:
        return stream
    h, w = stream.height, stream.width
    if h % factor or w % factor:
        raise ConfigError(f"sensor {h}x{w} not divisible by factor {factor}")
    return replace(
        stream, x=stream.x // factor, y=stream.y // factor,
        width=w // factor, height=h // factor,
    )


def merge_channels(seq: FrameSequence) -> FrameSequence:
    """Collapse polarity/channel axis by summation."""
    merged = seq.frames.sum(axis=1, keepdims=True)
    return FrameSequence(merged)


def clip_or_pad(seq: FrameSequence, steps: int) -> FrameSequence:
    """Force a fixed presentation length: truncate or zero-pad at the end."""
    check_int("steps", steps, low=0)
    t = seq.steps
    if t == steps:
        return seq
    if t > steps:
        return FrameSequence(seq.frames[:steps])
    pad = np.zeros((steps - t,) + seq.frames.shape[1:], dtype=seq.frames.dtype)
    return FrameSequence(np.concatenate([seq.frames, pad], axis=0))

