"""Event file formats: the EVS1 binary container and a CSV interchange path.

EVS1 layout (little-endian):

    magic   4 bytes  b"EVS1"
    width   u32
    height  u32
    label   u32      (0xFFFFFFFF when unlabeled)
    count   u64
    then ``count`` records of (t u64 microseconds, x u16, y u16, p u8)

A dataset is a directory of EVS1 files and a ``manifest.json`` that lists
them per split, relative to the directory, under the sensor they share:

    {"width": 34, "height": 34, "channels": 2,
     "train": ["train/sample_00000.evs", ...],
     "test": ["test/sample_00000.evs", ...]}

``write_dataset`` is the one writer of that layout and ``load_manifest``
its one reader.  Dataset-native formats (N-MNIST .bin, AEDAT, HDF5) are
decoded by the modules under ``lsmkit.datasets``, which hand their labeled
streams to ``write_dataset``; the engine core only reads EVS1.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetError, check_int
from .events import EventStream

MAGIC = b"EVS1"
NO_LABEL = 0xFFFFFFFF
_HEADER = struct.Struct("<IIIQ")  # width, height, label, count

_RECORD = np.dtype(
    [("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")]
)


def write_events(stream: EventStream, path) -> None:
    # every field is checked before the file is opened: the record would
    # wrap it silently, the header would fail with a half-written file
    for name in ("x", "y", "p"):
        top, limit = getattr(stream, name).max(initial=0), np.iinfo(_RECORD[name]).max
        if top > limit:
            raise ConfigError(f"event {name} = {top} exceeds the EVS1 limit {limit}")
    if stream.t.min(initial=0) < 0:
        raise ConfigError(
            f"event t = {stream.t.min()} is negative; EVS1 stores unsigned microseconds"
        )
    header = {"width": stream.width, "height": stream.height, "label": stream.label}
    for name, value in header.items():
        if value is not None and not 0 <= value < 2**32:
            raise ConfigError(f"header {name} = {value} is outside the EVS1 u32 range")
    if stream.label == NO_LABEL:
        raise ConfigError(f"label {NO_LABEL} is reserved for unlabeled EVS1 files")
    label = NO_LABEL if stream.label is None else int(stream.label)
    records = np.empty(stream.n_events, dtype=_RECORD)
    records["t"] = stream.t
    records["x"] = stream.x
    records["y"] = stream.y
    records["p"] = stream.p
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(stream.width, stream.height, label, stream.n_events))
        fh.write(records.tobytes())


def read_events(path) -> EventStream:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ConfigError(f"{path}: not an EVS1 file")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ConfigError(
                f"{path}: truncated EVS1 header, {len(header)} of "
                f"{_HEADER.size} bytes after the magic"
            )
        width, height, label, count = _HEADER.unpack(header)
        # check the header's count before trusting it with an allocation
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if count * _RECORD.itemsize != body:
            raise ConfigError(
                f"{path}: header claims {count} events, body holds {body} bytes"
            )
        records = np.frombuffer(fh.read(body), dtype=_RECORD)
    try:  # a stream rule the records break, such as an event off the sensor
        return EventStream(
            t=records["t"].astype(np.int64),
            x=records["x"].astype(np.int64),
            y=records["y"].astype(np.int64),
            p=records["p"].astype(np.int64),
            width=width,
            height=height,
            label=None if label == NO_LABEL else int(label),
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def read_csv_events(path, width: int, height: int, label: int | None = None) -> EventStream:
    """CSV interchange: one ``t,x,y,p`` record per line, header optional."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if parts[0].lower() in ("t", "time", "timestamp"):
                continue
            try:  # a row of other than four fields fails to unpack
                t, x, y, p = (int(v) for v in parts)
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: expected four integers t,x,y,p, got {line!r}"
                ) from None
            rows.append((t, x, y, p))
    if rows:
        arr = np.array(rows, dtype=np.int64)
    else:
        arr = np.zeros((0, 4), dtype=np.int64)
    return EventStream(
        t=arr[:, 0], x=arr[:, 1], y=arr[:, 2], p=arr[:, 3],
        width=width, height=height, label=label,
    )


def write_csv_events(stream: EventStream, path) -> None:
    with open(path, "w") as fh:
        fh.write("t,x,y,p\n")
        for t, x, y, p in zip(stream.t, stream.x, stream.y, stream.p):
            fh.write(f"{t},{x},{y},{p}\n")


SPLITS = ("train", "test")


@dataclass
class Manifest:
    width: int
    height: int
    channels: int
    train: list[Path]
    test: list[Path]


def write_dataset(
    out_dir, width: int, height: int, channels: int,
    splits: dict[str, Iterable[EventStream]], limit: int | None = None,
) -> Path:
    """Write the first ``limit`` (all when None) labeled streams of each
    split as ``{split}/sample_{i:05d}.evs`` under ``out_dir``, then the
    manifest listing them; returns the manifest path.  A manifest already
    in ``out_dir`` is removed before the first sample is written, and each
    split's old ``sample_*.evs`` files before its first.

    ``splits`` maps "train" and "test" to iterables of ``EventStream``; the
    train streams are drawn to the end before the first test stream, so
    generators sharing one random generator keep their draw order.
    """
    if limit is not None:  # checked before anything in out_dir is removed
        check_int("limit", limit, low=0)
    out = Path(out_dir)
    path = out / "manifest.json"
    path.unlink(missing_ok=True)  # a run that fails part-way leaves no manifest
    manifest: dict = {"width": width, "height": height, "channels": channels}
    for split in SPLITS:
        (out / split).mkdir(parents=True, exist_ok=True)
        for old in (out / split).glob("sample_*.evs"):
            old.unlink()
        names = []
        for i, stream in enumerate(itertools.islice(splits[split], limit)):
            names.append(f"{split}/sample_{i:05d}.evs")
            write_events(stream, out / names[-1])
        manifest[split] = names
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1)
    return path


def load_manifest(path) -> Manifest:
    path = Path(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise DatasetError(f"dataset manifest not found: {path}")
    except ValueError as exc:
        raise DatasetError(f"dataset manifest {path} is not valid JSON: {exc}")
    base = path.parent
    try:
        for split in SPLITS:
            names = data[split]
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise TypeError(f"{split} is not a list of file names")
        manifest = Manifest(
            width=check_int("width", data["width"]),
            height=check_int("height", data["height"]),
            channels=check_int("channels", data["channels"]),
            train=[base / p for p in data["train"]],
            test=[base / p for p in data["test"]],
        )
    except KeyError as exc:
        raise DatasetError(f"dataset manifest {path} has no key {exc}")
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"dataset manifest {path} is malformed: {exc}")
    for split in SPLITS:
        if not getattr(manifest, split):
            raise DatasetError(f"dataset manifest {path} lists no {split} samples")
    return manifest
