import json
import re
import struct

import numpy as np
import pytest

import lsmkit.cli as cli
from lsmkit import ConfigError, DatasetError, EventStream
from lsmkit.datasets import dvsgesture, nmnist, shd
from lsmkit.eventio import read_events, write_dataset
from lsmkit.harness import load_manifest


def pack_nmnist_events(t, x, y, p):
    out = bytearray()
    for ti, xi, yi, pi in zip(t, x, y, p):
        out.append(xi)
        out.append(yi)
        out.append((pi << 7) | ((ti >> 16) & 0x7F))
        out.append((ti >> 8) & 0xFF)
        out.append(ti & 0xFF)
    return bytes(out)


class TestNmnist:
    def test_bin_decoding(self, tmp_path):
        t = [0, 1000, 70000, 300_000]
        x = [0, 33, 5, 12]
        y = [7, 0, 33, 20]
        p = [1, 0, 1, 0]
        path = tmp_path / "ev.bin"
        path.write_bytes(pack_nmnist_events(t, x, y, p))
        stream = nmnist.read_bin(path)
        assert stream.t.tolist() == t
        assert stream.x.tolist() == x
        assert stream.y.tolist() == y
        assert stream.p.tolist() == p

    def write_raw(self, raw):
        for split in ("Train", "Test"):
            for digit in (0, 3):
                d = raw / split / str(digit)
                d.mkdir(parents=True)
                (d / "00001.bin").write_bytes(
                    pack_nmnist_events([10, 500, 9000], [1, 2, 3], [4, 5, 6], [0, 1, 0])
                )

    def test_convert_builds_manifest(self, tmp_path):
        raw = tmp_path / "raw"
        self.write_raw(raw)
        out = tmp_path / "conv"
        manifest_path = nmnist.convert(raw, out)
        manifest = load_manifest(manifest_path)
        assert manifest.width == 34 and manifest.channels == 2
        assert len(manifest.train) == 2 and len(manifest.test) == 2
        labels = sorted(read_events(p).label for p in manifest.train)
        assert labels == [0, 3]

    def test_main_writes_manifest(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        self.write_raw(raw)
        assert cli.main(["convert-dataset", "nmnist", str(raw), str(tmp_path / "conv")]) == 0
        assert (tmp_path / "conv" / "manifest.json").exists()
        assert capsys.readouterr().out.startswith("manifest:")

    def test_main_missing_raw_dir_exits_2(self, tmp_path, capsys):
        assert cli.main(
            ["convert-dataset", "nmnist", str(tmp_path / "nope"), str(tmp_path / "conv")]
        ) == 2
        assert capsys.readouterr().err.startswith("error: missing")

    def test_main_non_digit_class_folder_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        self.write_raw(raw)
        (raw / "Train" / "0").rename(raw / "Train" / "zero")
        assert cli.main(["convert-dataset", "nmnist", str(raw), str(tmp_path / "conv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(raw / "Train" / "zero") in err


class TestShd:
    def test_convert(self, tmp_path):
        h5py = pytest.importorskip("h5py")
        raw = tmp_path / "raw"
        raw.mkdir()
        for name, n in (("shd_train.h5", 3), ("shd_test.h5", 2)):
            with h5py.File(raw / name, "w") as fh:
                vlen_f = h5py.special_dtype(vlen=np.dtype("float64"))
                vlen_u = h5py.special_dtype(vlen=np.dtype("int64"))
                times = fh.create_dataset("spikes/times", (n,), dtype=vlen_f)
                units = fh.create_dataset("spikes/units", (n,), dtype=vlen_u)
                for i in range(n):
                    times[i] = np.array([0.001 * i, 0.5, 0.75])
                    units[i] = np.array([5, 699, 0])
                fh.create_dataset("labels", data=np.arange(n) % 20)
        out = tmp_path / "conv"
        manifest_path = shd.convert(raw, out)
        manifest = load_manifest(manifest_path)
        assert manifest.width == 700 and manifest.height == 1 and manifest.channels == 1
        assert len(manifest.train) == 3 and len(manifest.test) == 2
        stream = read_events(manifest.train[1])
        assert stream.label == 1
        assert stream.t.tolist() == [1000, 500_000, 750_000]
        assert stream.x.tolist() == [5, 699, 0]


def write_aedat(path, events, overflow=0):
    """events: list of (t, x, y, p)."""
    with open(path, "wb") as fh:
        fh.write(b"#!AER-DAT3.1\r\n")
        fh.write(b"#Format: RAW\r\n")
        fh.write(b"#!END-HEADER\r\n")
        n = len(events)
        fh.write(struct.pack("<hhiiiiii", 1, 0, 8, 0, overflow, n, n, n))
        for t, x, y, p in events:
            data = 1 | (p << 1) | (y << 2) | (x << 17)
            fh.write(struct.pack("<II", data, t))


class TestDvsGesture:
    def test_aedat_decoding(self, tmp_path):
        path = tmp_path / "user.aedat"
        write_aedat(path, [(100, 3, 7, 1), (50, 127, 0, 0), (200, 64, 64, 1)])
        t, x, y, p = dvsgesture.read_aedat(path)
        assert t.tolist() == [50, 100, 200]
        assert x.tolist() == [127, 3, 64]
        assert y.tolist() == [0, 7, 64]
        assert p.tolist() == [0, 1, 1]

    def test_invalid_events_dropped(self, tmp_path):
        path = tmp_path / "user.aedat"
        with open(path, "wb") as fh:
            fh.write(b"#!AER-DAT3.1\r\n#!END-HEADER\r\n")
            fh.write(struct.pack("<hhiiiiii", 1, 0, 8, 0, 0, 2, 2, 1))
            fh.write(struct.pack("<II", 0 | (1 << 1) | (2 << 2) | (3 << 17), 10))
            fh.write(struct.pack("<II", 1 | (1 << 1) | (2 << 2) | (3 << 17), 20))
        t, x, y, p = dvsgesture.read_aedat(path)
        assert t.tolist() == [20]

    def test_convert_slices_trials(self, tmp_path):
        raw = tmp_path / "raw" / "DvsGesture"
        raw.mkdir(parents=True)
        events = [(1000 * i, i % 128, (3 * i) % 128, i % 2) for i in range(100)]
        for user in ("user01.aedat", "user02.aedat"):
            write_aedat(raw / user, events)
            (raw / user.replace(".aedat", "_labels.csv")).write_text(
                "class,startTime_usec,endTime_usec\n"
                "1,0,30000\n"
                "5,30000,70000\n"
            )
        (raw / "trials_to_train.txt").write_text("user01.aedat\n")
        (raw / "trials_to_test.txt").write_text("user02.aedat\n")
        out = tmp_path / "conv"
        manifest_path = dvsgesture.convert(tmp_path / "raw", out)
        manifest = load_manifest(manifest_path)
        assert len(manifest.train) == 2 and len(manifest.test) == 2
        first = read_events(manifest.train[0])
        assert first.label == 0  # classes shifted to 0-based
        assert first.t.max() < 30000
        second = read_events(manifest.train[1])
        assert second.label == 4
        assert second.t.min() >= 30000 and second.t.max() < 70000

    def write_raw(self, raw, train="u.aedat", test="u.aedat"):
        data = raw / "DvsGesture"
        data.mkdir(parents=True)
        write_aedat(data / "u.aedat", [(10, 1, 1, 1)])
        (data / "u_labels.csv").write_text("class,startTime_usec,endTime_usec\n2,0,100\n")
        (data / "trials_to_train.txt").write_text(train + "\n")
        (data / "trials_to_test.txt").write_text(test + "\n")
        return data

    @pytest.mark.parametrize("missing", ["gone.aedat", "gone_labels.csv"])
    def test_listed_file_missing_rejected(self, tmp_path, missing):
        data = self.write_raw(tmp_path / "raw", test="gone.aedat")
        if missing == "gone_labels.csv":
            write_aedat(data / "gone.aedat", [(10, 1, 1, 1)])
        with pytest.raises(DatasetError, match=re.escape(str(data / missing))):
            dvsgesture.convert(tmp_path / "raw", tmp_path / "conv")

    @pytest.mark.parametrize("cut", [3, 8 + 10], ids=["payload", "header"])
    def test_truncated_packet_rejected(self, tmp_path, cut):
        # two packets of one 8-byte event behind a 28-byte header each; the
        # cut ends the file inside the last payload or the last header
        path = tmp_path / "cut.aedat"
        write_aedat(path, [(10, 1, 1, 1)])
        packet = path.read_bytes().split(b"#!END-HEADER\r\n")[1]
        path.write_bytes((path.read_bytes() + packet)[:-cut])
        with pytest.raises(DatasetError, match=re.escape(f"{path}: truncated packet")):
            dvsgesture.read_aedat(path)

    def test_main_writes_manifest(self, tmp_path, capsys):
        self.write_raw(tmp_path / "raw")
        assert cli.main(
            ["convert-dataset", "dvsgesture", str(tmp_path / "raw"), str(tmp_path / "conv")]
        ) == 0
        assert (tmp_path / "conv" / "manifest.json").exists()
        assert capsys.readouterr().out.startswith("manifest:")

    def test_main_missing_raw_dir_exits_2(self, tmp_path, capsys):
        assert cli.main(
            ["convert-dataset", "dvsgesture", str(tmp_path / "nope"), str(tmp_path / "conv")]
        ) == 2
        assert capsys.readouterr().err.startswith("error: missing")

    @pytest.mark.parametrize("row", ["2,0", "2,zero,100"], ids=["two-fields", "not-an-integer"])
    def test_main_malformed_labels_row_exits_2(self, tmp_path, capsys, row):
        data = self.write_raw(tmp_path / "raw")
        labels = data / "u_labels.csv"
        labels.write_text(f"class,startTime_usec,endTime_usec\n2,0,100\n{row}\n")
        assert cli.main(
            ["convert-dataset", "dvsgesture", str(tmp_path / "raw"), str(tmp_path / "conv")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{labels}:3" in err

    def test_manifest_json_shape(self, tmp_path):
        self.write_raw(tmp_path / "raw")
        manifest_path = dvsgesture.convert(tmp_path / "raw", tmp_path / "conv")
        data = json.loads(manifest_path.read_text())
        assert data["width"] == 128 and data["channels"] == 2


def labeled_stream(label, n_events):
    """A small labeled stream on a 6x4 sensor whose events identify it."""
    t = np.arange(n_events, dtype=np.int64) * 100 + label
    return EventStream(
        t=t, x=t % 6, y=t % 4, p=t % 2, width=6, height=4, label=label,
    )


class TestWriteDataset:
    SPLITS = {"train": [(2, 3), (0, 5), (1, 1)], "test": [(1, 4), (2, 0)]}

    @pytest.mark.parametrize("limit", [None, 2, 10], ids=["all", "below-end", "past-end"])
    def test_round_trip(self, tmp_path, limit):
        drawn = {split: 0 for split in self.SPLITS}

        def streams(split):
            for label, n_events in self.SPLITS[split]:
                drawn[split] += 1
                yield labeled_stream(label, n_events)

        path = write_dataset(
            tmp_path, 6, 4, 2, {split: streams(split) for split in self.SPLITS}, limit
        )
        assert path == tmp_path / "manifest.json"
        manifest = load_manifest(path)
        assert (manifest.width, manifest.height, manifest.channels) == (6, 4, 2)
        for split, specs in self.SPLITS.items():
            kept = specs[:limit]
            files = getattr(manifest, split)
            assert files == [tmp_path / split / f"sample_{i:05d}.evs" for i in range(len(kept))]
            assert drawn[split] == len(kept)  # no stream is drawn past the limit
            for file, (label, n_events) in zip(files, kept):
                loaded, expected = read_events(file), labeled_stream(label, n_events)
                assert loaded.label == label
                for name in ("t", "x", "y", "p"):
                    assert np.array_equal(getattr(loaded, name), getattr(expected, name))

    def test_negative_limit_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="limit must be >= 0, not -1"):
            write_dataset(tmp_path, 6, 4, 2, {"train": [], "test": []}, limit=-1)

    def test_bad_limit_removes_nothing(self, tmp_path):
        write_dataset(tmp_path, 6, 4, 2, {
            split: (labeled_stream(label, n) for label, n in specs)
            for split, specs in self.SPLITS.items()
        })
        files = sorted(tmp_path.glob("**/*.*"))
        assert len(files) == 1 + sum(map(len, self.SPLITS.values()))
        before = {f: f.read_bytes() for f in files}
        with pytest.raises(TypeError, match="limit must be an integer, not 2.5"):
            write_dataset(tmp_path, 6, 4, 2, {"train": [], "test": []}, limit=2.5)
        assert {f: f.read_bytes() for f in sorted(tmp_path.glob("**/*.*"))} == before

    def test_failed_rewrite_leaves_no_manifest(self, tmp_path):
        # the second conversion into the same directory fails part-way, after
        # some of its samples replaced the first one's
        write_nmnist_raw(tmp_path / "raw", (0, 3), 2)
        nmnist.convert(tmp_path / "raw", tmp_path / "out")
        (tmp_path / "raw" / "Test" / "3").rename(tmp_path / "raw" / "Test" / "three")
        with pytest.raises(DatasetError, match="class folder is not a digit"):
            nmnist.convert(tmp_path / "raw", tmp_path / "out")
        with pytest.raises(DatasetError, match="not found"):
            load_manifest(tmp_path / "out" / "manifest.json")

    def test_reconversion_removes_stale_samples(self, tmp_path):
        out = tmp_path / "D"
        for train, test in (("6", "3"), ("2", "1")):
            assert cli.main(["synth", "--out", str(out), "--train", train, "--test", test]) == 0
            (out / "train" / "notes.txt").write_text("kept")
        assert sorted(f.name for f in (out / "train").iterdir()) == [
            "notes.txt", "sample_00000.evs", "sample_00001.evs"
        ]
        assert sorted(f.name for f in (out / "test").iterdir()) == ["sample_00000.evs"]


def write_nmnist_raw(raw, digits, per_digit):
    for split in ("Train", "Test"):
        for digit in digits:
            folder = raw / split / str(digit)
            folder.mkdir(parents=True)
            for k in range(per_digit):
                (folder / f"{k:05d}.bin").write_bytes(
                    pack_nmnist_events([10, 500 + k], [digit, k], [1, 2], [0, 1])
                )


def write_dvs_raw(raw):
    """Two recordings of two trials each, listed for both splits."""
    data = raw / "DvsGesture"
    data.mkdir(parents=True)
    for user, classes in (("u1", (3, 7)), ("u2", (1, 5))):
        write_aedat(data / f"{user}.aedat", [(1000 * i, i, 2 * i, i % 2) for i in range(50)])
        (data / f"{user}_labels.csv").write_text(
            "class,startTime_usec,endTime_usec\n"
            f"{classes[0]},0,20000\n{classes[1]},20000,50000\n"
        )
    for split in ("train", "test"):
        (data / f"trials_to_{split}.txt").write_text("u1.aedat\nu2.aedat\n")


def write_shd_raw(raw):
    h5py = pytest.importorskip("h5py")
    raw.mkdir(parents=True)
    vlen_f = h5py.special_dtype(vlen=np.dtype("float64"))
    vlen_u = h5py.special_dtype(vlen=np.dtype("int64"))
    for name in ("shd_train.h5", "shd_test.h5"):
        with h5py.File(raw / name, "w") as fh:
            times = fh.create_dataset("spikes/times", (4,), dtype=vlen_f)
            units = fh.create_dataset("spikes/units", (4,), dtype=vlen_u)
            for i in range(4):
                times[i] = np.array([0.001 * i, 0.25])
                units[i] = np.array([i, 699])
            fh.create_dataset("labels", data=[3, 1, 4, 1])


class TestConverterLimit:
    @pytest.mark.parametrize(
        "converter, write_raw",
        [(nmnist, lambda raw: write_nmnist_raw(raw, (0, 3), 2)),
         (dvsgesture, write_dvs_raw),
         (shd, write_shd_raw)],
        ids=["nmnist", "dvsgesture", "shd"],
    )
    def test_limit_keeps_the_first_samples(self, tmp_path, capsys, converter, write_raw):
        write_raw(tmp_path / "raw")
        full = load_manifest(converter.convert(tmp_path / "raw", tmp_path / "full"))
        name = converter.__name__.rsplit(".", 1)[1]
        assert cli.main(
            ["convert-dataset", name, str(tmp_path / "raw"), str(tmp_path / "cut"),
             "--limit", "3"]
        ) == 0
        assert capsys.readouterr().out.startswith("manifest:")
        cut = load_manifest(tmp_path / "cut" / "manifest.json")
        for split in ("train", "test"):
            files, whole = getattr(cut, split), getattr(full, split)
            assert len(whole) == 4
            assert [f.relative_to(tmp_path / "cut") for f in files] == [
                f.relative_to(tmp_path / "full") for f in whole[:3]
            ]
            assert [f.read_bytes() for f in files] == [f.read_bytes() for f in whole[:3]]

    def test_dvsgesture_limit_stops_before_the_next_recording(self, tmp_path):
        # the limit falls on the last trial of u1, so the missing u2 is never opened
        write_dvs_raw(tmp_path / "raw")
        (tmp_path / "raw" / "DvsGesture" / "u2.aedat").unlink()
        cut = load_manifest(dvsgesture.convert(tmp_path / "raw", tmp_path / "cut", 2))
        assert [read_events(f).label for f in cut.train] == [2, 6]
        with pytest.raises(DatasetError, match="u2.aedat is missing"):
            dvsgesture.convert(tmp_path / "raw", tmp_path / "cut", 3)

    def test_nmnist_limit_takes_the_digits_in_turn(self, tmp_path):
        write_nmnist_raw(tmp_path / "raw", range(10), 3)
        cut = load_manifest(nmnist.convert(tmp_path / "raw", tmp_path / "cut", 12))
        for files in (cut.train, cut.test):
            assert [read_events(f).label for f in files] == [*range(10), 0, 1]
