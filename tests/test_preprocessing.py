import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import signal, sparse

from lsmkit import (
    ConfigError,
    EventStream,
    ExperimentConfig,
    FrameSequence,
    PreprocessingConfig,
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
from lsmkit.harness import Manifest, frame_geometry, preprocess_stream


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

    @pytest.mark.parametrize(
        "field, error, message",
        [(dict(t=np.array([0, 1500.7])), TypeError, "event t must be integers, not float64"),
         (dict(x=[0.2, 3.9]), TypeError, "event x must be integers, not float64"),
         (dict(y=[0, 0.0]), TypeError, "event y must be integers, not float64"),
         (dict(p=[False, True]), TypeError, "event p must be integers, not bool"),
         (dict(label=1.7), TypeError, "label must be an integer, not 1.7"),
         (dict(label=True), TypeError, "label must be an integer, not True"),
         (dict(label=-1), ConfigError, "label must be >= 0, not -1")],
        ids=["t-fraction", "x-fraction", "y-float", "p-bool", "label-fraction",
             "label-bool", "label-negative"],
    )
    def test_non_integer_field_rejected(self, field, error, message):
        # each would otherwise be cast: t 1500.7 to 1500, x 3.9 to 3, and
        # labels 1.7 and True written to EVS1 and read back as 1
        events = dict(t=[0, 1500], x=[0, 3], y=[0, 0], p=[0, 1], label=None)
        with pytest.raises(error, match=re.escape(message)):
            EventStream(width=4, height=1, **{**events, **field})


def full_resolution_rates(stream, time_window, channels, factor, merge, gabor, steps):
    """The front end written out the long way: bin at full resolution with
    ``np.add.at``, block-sum the frames in one 6-D reduction, then merge,
    filter and clip."""
    h, w = stream.height, stream.width
    t0 = stream.t[0] if stream.n_events else 0
    frame_idx = (stream.t - t0) // time_window
    t = int(frame_idx.max(initial=-1)) + 1
    frames = np.zeros((t, channels, h, w), dtype=np.int64)
    np.add.at(frames, (frame_idx, stream.p, stream.y, stream.x), 1)
    blocks = frames.reshape(t, channels, h // factor, factor, w // factor, factor)
    seq = FrameSequence(blocks.sum(axis=(3, 5)))
    if merge and channels > 1:
        seq = merge_channels(seq)
    if gabor:
        seq = gabor_bank(seq)
    return clip_or_pad(seq, steps).flat().astype(np.float64)


class TestDownscale:
    """Pooling acts on the events, before binning: each event moves to its
    cell of a sensor ``factor`` times smaller on each side."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.data(), st.integers(100, 1_000), st.integers(1, 40))
    def test_front_end_equals_full_resolution_reference(self, data, time_window, steps):
        factor, channels = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 2))
        merge, gabor = data.draw(st.booleans()), data.draw(st.booleans())
        cells = st.integers(7, 9) if gabor else st.integers(1, 4)  # Gabor kernels are 7x7
        height, width = factor * data.draw(cells), factor * data.draw(cells)
        events = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, 6_000),
                    st.integers(0, width - 1),
                    st.integers(0, height - 1),
                    st.integers(0, channels - 1),
                ),
                max_size=150,
            )
        )
        events.sort(key=lambda e: e[0])
        stream = stream_of(events, width=width, height=height)
        cfg = ExperimentConfig(
            dataset_manifest="unused",
            preprocessing=PreprocessingConfig(
                time_window=time_window, downscale=factor, gabor=gabor,
                merge_polarities=merge, steps=steps,
            ),
        )
        rates = preprocess_stream(stream, cfg, channels)
        got = rates.toarray() if sparse.issparse(rates) else rates
        want = full_resolution_rates(
            stream, time_window, channels, factor, merge, gabor, steps
        )
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_empty_stream(self):
        empty = EventStream([], [], [], [], width=8, height=4, label=3)
        small = downscale(empty, 4)
        assert (small.n_events, small.width, small.height, small.label) == (0, 2, 1, 3)
        assert bin_events(small, 1000).frames.shape == (0, 2, 1, 2)

    def test_factor_one_is_the_stream(self):
        stream = stream_of([(0, 1, 2, 1)])
        assert downscale(stream, 1) is stream

    def test_single_event_lands_in_scaled_cell(self):
        small = downscale(stream_of([(0, 3, 5, 1)], width=8, height=8), 2)
        frames = bin_events(small, 1000).frames
        assert frames.shape == (1, 2, 4, 4)
        assert frames[0, 1, 2, 1] == 1
        assert frames.sum() == 1

    def test_time_polarity_and_label_kept(self):
        stream = stream_of(
            [(0, 0, 0, 0), (7, 5, 3, 1), (7, 2, 5, 0), (40, 5, 5, 1)],
            width=6, height=6, label=4,
        )
        small = downscale(stream, 3)
        assert np.array_equal(small.t, stream.t)
        assert np.array_equal(small.p, stream.p)
        assert small.label == 4
        assert np.array_equal(small.x, [0, 1, 0, 1])
        assert np.array_equal(small.y, [0, 1, 1, 1])
        assert (small.width, small.height) == (2, 2)

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError, match="sensor 8x9 not divisible by factor 2"):
            downscale(stream_of([], width=9, height=8), 2)
        # at load, before any reservoir is built
        cfg = ExperimentConfig(
            dataset_manifest="unused", preprocessing=PreprocessingConfig(downscale=2, steps=10),
        )
        with pytest.raises(ConfigError, match="not divisible by factor 2"):
            frame_geometry(cfg, Manifest(9, 8, 2, [], []))

    def test_front_end_never_makes_full_resolution_frames(self):
        # a dvs-shaped stream: 128x128x2, events over all 300 steps of 20 ms,
        # pooled by 2, whose full-resolution frames would take 78.6 MB
        rng = np.random.default_rng(3)
        n, window, steps = 100_000, 20_000, 300
        stream = EventStream(
            t=np.sort(rng.integers(0, steps * window, n)),
            x=rng.integers(0, 128, n), y=rng.integers(0, 128, n),
            p=rng.integers(0, 2, n), width=128, height=128,
        )
        cfg = ExperimentConfig(
            dataset_manifest="unused",
            preprocessing=PreprocessingConfig(
                time_window=window, downscale=2, merge_polarities=False, steps=steps,
            ),
        )
        pooled = steps * 2 * 64 * 64 * 8
        tracemalloc.start()
        try:
            rates = preprocess_stream(stream, cfg, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rates.shape == (steps, 2 * 64 * 64)
        assert rates.sum() == n
        assert peak <= pooled + 8 * 2**20 < 4 * pooled


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

    @pytest.mark.parametrize(
        "shape", [(4, 1, 7, 7), (6, 1, 34, 34), (5, 1, 9, 20), (3, 2, 16, 12)]
    )
    def test_bit_identical_to_fftconvolve_per_kernel(self, shape):
        """The shared spectra do fftconvolve's arithmetic; a SciPy change to
        its padding or crop rule shows here as a mismatch."""
        frames = np.random.default_rng(12).poisson(0.7, size=shape)
        got = gabor_bank(FrameSequence(frames)).frames
        want = np.empty_like(got)
        for ci in range(shape[1]):
            for ki, kernel in enumerate(build_bank()):
                want[:, ci * N_KERNELS + ki] = signal.fftconvolve(
                    frames[:, ci].astype(np.float64),
                    kernel[::-1, ::-1][None],
                    mode="same",
                    axes=(1, 2),
                )
        np.maximum(want, 0.0, out=want)
        assert np.count_nonzero(want) > 0
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

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

    def test_float64_frames_are_not_copied(self):
        frames = np.random.default_rng(0).random((3, 2, 4, 5))
        drive = frames_to_spike_drive(FrameSequence(frames))
        assert np.shares_memory(drive, frames)
        counts = frames_to_spike_drive(FrameSequence(np.arange(120).reshape(3, 2, 4, 5)))
        assert counts.dtype == np.float64
        assert np.array_equal(counts, np.arange(120.0).reshape(3, 40))

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


@st.composite
def event_streams(draw, t_range, size_max, coord_max, p_max, label_max):
    """Streams ``EventStream`` accepts, drawn inside a format's field ranges:
    sorted t, x and y inside the sensor and below ``coord_max``, p up to
    ``p_max``, and no label or one up to ``label_max``."""
    width, height = draw(st.integers(1, size_max)), draw(st.integers(1, size_max))
    n = draw(st.integers(0, 40))

    def column(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))

    return EventStream(
        t=sorted(column(*t_range)),
        x=column(0, min(width, coord_max) - 1),
        y=column(0, min(height, coord_max) - 1),
        p=column(0, p_max),
        width=width,
        height=height,
        label=draw(st.none() | st.integers(0, label_max)),
    )


def assert_same_stream(got, want):
    assert (got.width, got.height, got.label) == (want.width, want.height, want.label)
    for fieldname in ("t", "x", "y", "p"):
        assert np.array_equal(getattr(got, fieldname), getattr(want, fieldname))


EMPTY_UNLABELED = EventStream(t=[], x=[], y=[], p=[], width=1, height=1)
INT64 = (-(2**63), 2**63 - 1)


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

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        event_streams(
            t_range=(0, INT64[1]), size_max=2**32 - 1, coord_max=2**16,
            p_max=255, label_max=2**32 - 2,
        )
    )
    @example(EMPTY_UNLABELED)
    def test_binary_round_trip_property(self, tmp_path_factory, stream):
        # every valid stream whose fields fit the EVS1 record and header
        path = tmp_path_factory.getbasetemp() / "property.evs"
        write_events(stream, path)
        assert_same_stream(read_events(path), stream)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        event_streams(
            t_range=INT64, size_max=INT64[1], coord_max=2**63,
            p_max=INT64[1], label_max=INT64[1],
        )
    )
    @example(EMPTY_UNLABELED)
    def test_csv_round_trip_property(self, tmp_path_factory, stream):
        # CSV carries t,x,y,p only; the reader is given the geometry and label
        path = tmp_path_factory.getbasetemp() / "property.csv"
        write_csv_events(stream, path)
        back = read_csv_events(path, stream.width, stream.height, label=stream.label)
        assert_same_stream(back, stream)

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

    @pytest.mark.parametrize(
        "data, message",
        [(b"EVS1abc", "truncated EVS1 header, 3 of 20 bytes"),
         (b"", "not an EVS1 file")],
        ids=["short-header", "empty"],
    )
    def test_short_file_rejected(self, tmp_path, data, message):
        path = tmp_path / "short.evs"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
            read_events(path)

    @pytest.mark.parametrize(
        "width, height", [(2.5, 3), (3, 2.5), (True, 2)], ids=["width", "height", "bool"]
    )
    def test_non_integer_geometry_writes_no_file(self, tmp_path, width, height):
        # the header would fail to pack only after the magic is on disk
        path = tmp_path / "geometry.evs"
        with pytest.raises(TypeError, match="width|height"):
            write_events(EventStream([], [], [], [], width, height, label=1), path)
        assert not path.exists()

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

    @pytest.mark.parametrize(
        "field, record, size",
        [("x", (0, 70000, 0, 0), (70001, 1)),
         ("y", (0, 0, 65536, 1), (1, 65537)),
         ("p", (0, 1, 1, 300), (2, 2))],
        ids=["x", "y", "p"],
    )
    def test_field_too_wide_for_a_record_rejected(self, tmp_path, field, record, size):
        # x and y are u16 and p is u8 on disk; storing more would wrap silently
        stream = stream_of([record], width=size[0], height=size[1])
        path = tmp_path / "wide.evs"
        with pytest.raises(ConfigError, match=f"event {field} ="):
            write_events(stream, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "header, message",
        [(dict(width=2**32), "header width = 4294967296"),
         (dict(height=2**32), "header height = 4294967296"),
         (dict(label=-1), "header label = -1"),
         (dict(label=2**32), "header label = 4294967296"),
         (dict(label=0xFFFFFFFF), "label 4294967295 is reserved")],
        ids=["width", "height", "label-negative", "label-too-big", "label-reserved"],
    )
    def test_header_field_outside_u32_rejected(self, tmp_path, header, message):
        # the header packs width, height and label as u32; 0xFFFFFFFF
        # already means "no label".  The field is set after construction,
        # which the stream's own checks never see, so the writer must refuse it
        stream = stream_of([], width=2, height=2)
        for name, value in header.items():
            setattr(stream, name, value)
        path = tmp_path / "header.evs"
        with pytest.raises(ConfigError, match=message):
            write_events(stream, path)
        assert not path.exists()

    def test_negative_timestamp_rejected(self, tmp_path):
        # t is stored as u64 microseconds; -5 would become 2^64 - 5
        path = tmp_path / "early.evs"
        with pytest.raises(ConfigError, match="event t = -5 is negative"):
            write_events(stream_of([(-5, 1, 1, 0), (3, 0, 0, 1)]), path)
        assert not path.exists()
