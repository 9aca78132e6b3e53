#!/usr/bin/env python3
"""From raw events to reservoir drive.

Generates a synthetic event stream, bins it into per-timestep count
frames, pools it down, merges the two polarities, runs the fixed 18-kernel
Gabor bank, and flattens the result into the per-step drive vectors the
reservoir consumes.
"""

import numpy as np

from lsmkit import (
    EventStream,
    bin_events,
    downscale,
    frames_to_spike_drive,
    gabor_bank,
    merge_channels,
)

rng = np.random.default_rng(0)

# a bright moving bar on a 32x32 sensor: the bar sweeps left to right,
# emitting events along a vertical line each millisecond
ts, xs, ys, ps = [], [], [], []
for step in range(32):
    n = 40
    ts.extend(step * 1000 + rng.integers(0, 1000, size=n))
    xs.extend([step] * n)
    ys.extend(rng.integers(0, 32, size=n))
    ps.extend(rng.integers(0, 2, size=n))
order = np.argsort(ts, kind="stable")
stream = EventStream(
    t=np.array(ts)[order], x=np.array(xs)[order], y=np.array(ys)[order],
    p=np.array(ps)[order], width=32, height=32, label=0,
)
print(f"stream: {stream.n_events} events over {stream.t[-1] - stream.t[0]} us")

seq = bin_events(stream, time_window=1000)
print(f"binned: {seq.steps} steps x {seq.channels} channels x 32 x 32, "
      f"{seq.frames.sum()} counts total (conserved)")

small = downscale(seq, 2)
print(f"downscaled by 2: {small.frames.shape}, counts still {small.frames.sum()}")

# the bank sees one merged polarity channel, as the harness feeds it
filtered = gabor_bank(merge_channels(small))
print(f"gabor bank: {filtered.channels} channels of rectified responses")

# at each step the bar is a vertical line, so the vertically tuned
# orientation (carrier along x, theta index 0) should dominate
frame_idx = 10
per_orientation = filtered.frames[frame_idx].reshape(6, 3, 16, 16).max(axis=(1, 2, 3))
print(f"peak response per orientation at step {frame_idx}:")
for k, peak in enumerate(per_orientation):
    print(f"  theta = {30 * k:>3} deg: {peak:8.3f}" + ("   <-- aligned" if k == 0 else ""))

drive = frames_to_spike_drive(filtered)
print(f"drive matrix: {drive.shape[0]} steps x {drive.shape[1]} input neurons")
print("each row is one simulation step's analog input rates")
