import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lsmkit import (
    ConfigError,
    EventStream,
    FrameSequence,
    bin_events,
    clip_or_pad,
    downscale,
    frames_to_spike_drive,
    gabor_bank,
    merge_channels,
)
from lsmkit.eventio import (
    read_csv_events,
    read_events,
    write_csv_events,
    write_events,
)
from lsmkit.gabor import N_KERNELS, WAVELENGTHS, build_bank


def stream_of(records, width=4, height=4, label=None):
    arr = np.array(records, dtype=np.int64).reshape(-1, 4)
    return EventStream(
        t=arr[:, 0], x=arr[:, 1], y=arr[:, 2], p=arr[:, 3],
        width=width, height=height, label=label,
    )


class TestBinning:
    def test_single_event(self):
        seq = bin_events(stream_of([(0, 1, 2, 1)]), time_window=1000)
        assert seq.frames.shape == (1, 2, 4, 4)
        assert seq.frames[0, 1, 2, 1] == 1
        assert seq.frames.sum() == 1

    def test_floor_division_boundary(self):
        # events at 0, 999, 1000 with window 1000 -> frames of 2 and 1 counts
        seq = bin_events(
            stream_of([(0, 0, 0, 0), (999, 1, 0, 0), (1000, 2, 0, 0)]),
            time_window=1000,
        )
        assert seq.steps == 2
        assert seq.frames[0].sum() == 2
        assert seq.frames[1].sum() == 1

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda side: st.tuples(
                st.just(side),
                st.lists(
                    st.tuples(
                        st.integers(0, 50_000),
                        st.integers(0, side - 1),
                        st.integers(0, side - 1),
                        st.integers(0, 1),
                    ),
                    max_size=200,
                ),
            )
        ),
        st.integers(1, 5_000),
    )
    def test_count_conservation(self, side_and_events, time_window):
        side, events = side_and_events
        events.sort(key=lambda e: e[0])
        seq = bin_events(stream_of(events, width=side, height=side), time_window)
        assert seq.frames.sum() == len(events)
        if events:
            span = events[-1][0] - events[0][0]
            assert seq.steps == span // time_window + 1

    def test_anchored_at_first_event(self):
        a = bin_events(stream_of([(0, 0, 0, 0), (2500, 1, 1, 1)]), 1000)
        b = bin_events(stream_of([(7000, 0, 0, 0), (9500, 1, 1, 1)]), 1000)
        assert np.array_equal(a.frames, b.frames)

    def test_shift_covariance(self):
        # shifting all timestamps by k windows shifts frames by k slots
        base = stream_of([(0, 0, 0, 0), (100, 1, 1, 0), (2100, 2, 2, 1)])
        seq = bin_events(base, 1000)
        both = stream_of(
            [(0, 3, 3, 0), (3000, 0, 0, 0), (3100, 1, 1, 0), (5100, 2, 2, 1)]
        )
        shifted = bin_events(both, 1000)
        assert np.array_equal(shifted.frames[3:6], seq.frames)

    def test_empty_stream(self):
        seq = bin_events(stream_of([]).__class__(
            t=[], x=[], y=[], p=[], width=4, height=4
        ), 1000)
        assert seq.steps == 0

    def test_unsorted_rejected(self):
        with pytest.raises(ConfigError):
            stream_of([(5, 0, 0, 0), (1, 0, 0, 0)])

    def test_negative_polarity_rejected(self):
        # the +/-1 convention would otherwise wrap p = -1 into channel 1,
        # binning every event as ON
        with pytest.raises(ConfigError):
            bin_events(
                stream_of([(0, 0, 0, -1), (1, 1, 0, 1), (2, 2, 0, -1), (3, 3, 0, 1)]),
                time_window=1000,
            )


class TestDownscale:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        st.tuples(
            st.integers(1, 4),  # factor
            st.integers(0, 3),  # steps
            st.integers(1, 2),  # channels
            st.integers(1, 4),  # cells down
            st.integers(1, 4),  # cells across
        ).flatmap(
            lambda d: st.tuples(
                st.just(d[0]),
                arrays(
                    np.int64,
                    (d[1], d[2], d[0] * d[3], d[0] * d[4]),
                    elements=st.integers(0, 1000),
                ),
            )
        )
    )
    def test_total_preserved(self, factor_and_frames):
        factor, frames = factor_and_frames
        out = downscale(FrameSequence(frames), factor)
        t, c, h, w = frames.shape
        assert out.frames.shape == (t, c, h // factor, w // factor)
        assert out.frames.sum() == frames.sum()
        assert np.array_equal(out.frames.sum(axis=(2, 3)), frames.sum(axis=(2, 3)))

    def test_zero_frames(self):
        seq = FrameSequence(np.zeros((2, 1, 8, 8), dtype=int))
        assert downscale(seq, 4).frames.sum() == 0

    def test_single_count_lands_in_scaled_cell(self):
        frames = np.zeros((1, 1, 8, 8), dtype=int)
        frames[0, 0, 5, 3] = 1
        out = downscale(FrameSequence(frames), 2)
        assert out.frames[0, 0, 2, 1] == 1
        assert out.frames.sum() == 1

    def test_indivisible_rejected(self):
        seq = FrameSequence(np.zeros((1, 1, 9, 9), dtype=int))
        with pytest.raises(ConfigError):
            downscale(seq, 2)


def brute_force_correlate(frame, kernel):
    """Independent O(n^4) zero-padded correlation oracle."""
    h, w = frame.shape
    kh, kw = kernel.shape
    pad_y, pad_x = kh // 2, kw // 2
    out = np.zeros_like(frame, dtype=float)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(kh):
                for dx in range(kw):
                    yy = y + dy - pad_y
                    xx = x + dx - pad_x
                    if 0 <= yy < h and 0 <= xx < w:
                        acc += frame[yy, xx] * kernel[dy, dx]
            out[y, x] = acc
    return out


class TestGaborBank:
    def test_bank_has_18_kernels(self):
        bank = build_bank()
        assert N_KERNELS == 18
        assert bank.shape == (18, 7, 7)
        assert np.allclose(bank.sum(axis=(1, 2)), 0.0, atol=1e-12)

    def test_zero_frame_zero_response(self):
        seq = FrameSequence(np.zeros((2, 2, 16, 16), dtype=int))
        out = gabor_bank(merge_channels(seq))
        assert out.channels == 18
        assert np.all(out.frames == 0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        frame = rng.integers(0, 4, size=(12, 12)).astype(float)
        seq = FrameSequence(frame[None, None])
        out = gabor_bank(seq)
        kernels = build_bank()
        for ki in range(18):
            expected = np.maximum(brute_force_correlate(frame, kernels[ki]), 0.0)
            assert np.allclose(out.frames[0, ki], expected, atol=1e-9)

    def test_vertical_edge_prefers_aligned_orientation(self):
        # event frames render a moving vertical edge as a thin vertical line
        # of counts; the strongest response across the bank must come from a
        # theta=0 kernel (carrier along x), confirmed independently by the
        # brute-force oracle
        frame = np.zeros((20, 20))
        frame[:, 10] = 5.0
        seq = FrameSequence(frame[None, None])
        out = gabor_bank(seq)
        peak_per_kernel = out.frames[0].reshape(18, -1).max(axis=1)
        winner = int(np.argmax(peak_per_kernel))
        orientation = winner // len(WAVELENGTHS)
        assert orientation == 0

        kernels = build_bank()
        oracle_peaks = [
            np.maximum(brute_force_correlate(frame, k), 0.0).max() for k in kernels
        ]
        assert int(np.argmax(oracle_peaks)) == winner
        # and the aligned-orientation peak clearly dominates the next one
        others = np.delete(peak_per_kernel, slice(0, len(WAVELENGTHS)))
        assert peak_per_kernel[winner] > 1.5 * others.max()

    def test_linearity_under_scaling(self):
        rng = np.random.default_rng(4)
        frame = rng.random((10, 10))
        base = gabor_bank(FrameSequence(frame[None, None])).frames
        doubled = gabor_bank(FrameSequence(2.0 * frame[None, None])).frames
        assert np.allclose(doubled, 2.0 * base, rtol=1e-12)

    def test_per_channel_mode(self):
        rng = np.random.default_rng(5)
        frames = rng.integers(0, 3, size=(1, 2, 10, 10))
        seq = FrameSequence(frames)
        merged = gabor_bank(merge_channels(seq))
        split = gabor_bank(seq)
        assert merged.channels == 18
        assert split.channels == 36
        # channel-major: channel 1's responses follow all of channel 0's
        for ci in range(2):
            alone = gabor_bank(FrameSequence(frames[:, ci : ci + 1])).frames
            assert np.array_equal(split.frames[:, 18 * ci : 18 * (ci + 1)], alone)

    def test_empty_sequence(self):
        out = gabor_bank(FrameSequence(np.zeros((0, 2, 8, 8), dtype=int)))
        assert out.frames.shape == (0, 36, 8, 8)

    def test_kernel_larger_than_frame_rejected(self):
        seq = FrameSequence(np.zeros((1, 1, 4, 4), dtype=int))
        with pytest.raises(ConfigError):
            gabor_bank(seq)


class TestSpikeDrive:
    def test_zero_frames_zero_drive(self):
        seq = FrameSequence(np.zeros((3, 1, 2, 2), dtype=int))
        assert np.all(frames_to_spike_drive(seq) == 0)

    def test_empty_sequence_keeps_input_width(self):
        drive = frames_to_spike_drive(FrameSequence(np.zeros((0, 2, 3, 4), dtype=int)))
        assert drive.shape == (0, 24)

    def test_linearity(self):
        frames = np.arange(24).reshape(2, 1, 3, 4)
        a = frames_to_spike_drive(FrameSequence(frames))
        b = frames_to_spike_drive(FrameSequence(2 * frames))
        assert np.array_equal(b, 2 * a)

    def test_one_row_per_step_channel_major(self):
        frames = np.zeros((2, 2, 2, 2), dtype=int)
        frames[1, 1, 0, 1] = 7  # step 1, channel 1, y=0, x=1
        drive = frames_to_spike_drive(FrameSequence(frames))
        assert drive.shape == (2, 8)
        assert drive[1, 1 * 4 + 0 * 2 + 1] == 7


class TestClipOrPad:
    def test_pad_and_clip(self):
        seq = FrameSequence(np.ones((3, 1, 2, 2), dtype=int))
        padded = clip_or_pad(seq, 5)
        assert padded.steps == 5 and padded.frames[3:].sum() == 0
        clipped = clip_or_pad(seq, 2)
        assert clipped.steps == 2 and clipped.frames.sum() == 8

    def test_merge_channels(self):
        frames = np.zeros((1, 2, 2, 2), dtype=int)
        frames[0, 0, 0, 0] = 2
        frames[0, 1, 0, 0] = 3
        merged = merge_channels(FrameSequence(frames))
        assert merged.channels == 1
        assert merged.frames[0, 0, 0, 0] == 5


class TestEventFiles:
    def sample_stream(self):
        rng = np.random.default_rng(8)
        n = 200
        return EventStream(
            t=np.sort(rng.integers(0, 100_000, size=n)),
            x=rng.integers(0, 34, size=n),
            y=rng.integers(0, 34, size=n),
            p=rng.integers(0, 2, size=n),
            width=34,
            height=34,
            label=7,
        )

    def test_binary_round_trip(self, tmp_path):
        stream = self.sample_stream()
        path = tmp_path / "sample.evs"
        write_events(stream, path)
        loaded = read_events(path)
        assert loaded.label == 7
        assert loaded.width == 34 and loaded.height == 34
        for fieldname in ("t", "x", "y", "p"):
            assert np.array_equal(getattr(loaded, fieldname), getattr(stream, fieldname))

    def test_unlabeled_round_trip(self, tmp_path):
        stream = EventStream(t=[0], x=[0], y=[0], p=[0], width=2, height=2)
        path = tmp_path / "u.evs"
        write_events(stream, path)
        assert read_events(path).label is None

    def test_csv_round_trip(self, tmp_path):
        stream = self.sample_stream()
        csv_path = tmp_path / "sample.csv"
        write_csv_events(stream, csv_path)
        back = read_csv_events(csv_path, width=34, height=34, label=7)
        for fieldname in ("t", "x", "y", "p"):
            assert np.array_equal(getattr(back, fieldname), getattr(stream, fieldname))

    def test_csv_binary_csv_identity(self, tmp_path):
        stream = self.sample_stream()
        csv_a = tmp_path / "a.csv"
        evs = tmp_path / "a.evs"
        csv_b = tmp_path / "b.csv"
        write_csv_events(stream, csv_a)
        write_events(read_csv_events(csv_a, 34, 34, label=7), evs)
        write_csv_events(read_events(evs), csv_b)
        assert csv_a.read_text() == csv_b.read_text()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.evs"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ConfigError):
            read_events(path)

    @pytest.mark.parametrize("count", [2**33, 2, 0])
    def test_header_count_must_match_body(self, tmp_path, count):
        # one 13-byte record under a header claiming another count; 2^33
        # records would need ~100 GB if the header were trusted
        path = tmp_path / "forged.evs"
        path.write_bytes(
            b"EVS1" + struct.pack("<IIIQ", 4, 4, 0, count) + b"\x00" * 13
        )
        with pytest.raises(ConfigError):
            read_events(path)
