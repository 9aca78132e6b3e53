"""Event file formats: the EVS1 binary container and a CSV interchange path.

EVS1 layout (little-endian):

    magic   4 bytes  b"EVS1"
    width   u32
    height  u32
    label   u32      (0xFFFFFFFF when unlabeled)
    count   u64
    then ``count`` records of (t u64 microseconds, x u16, y u16, p u8)

Dataset-native formats (N-MNIST .bin, AEDAT, HDF5) are converted to EVS1
by the modules under ``lsmkit.datasets``; the engine core only reads EVS1.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ConfigError, DatasetError
from .events import EventStream

MAGIC = b"EVS1"
NO_LABEL = 0xFFFFFFFF

_RECORD = np.dtype(
    [("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")]
)


def write_events(stream: EventStream, path) -> None:
    label = NO_LABEL if stream.label is None else int(stream.label)
    records = np.empty(stream.n_events, dtype=_RECORD)
    records["t"] = stream.t
    records["x"] = stream.x
    records["y"] = stream.y
    records["p"] = stream.p
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIIQ", stream.width, stream.height, label, stream.n_events))
        fh.write(records.tobytes())


def read_events(path) -> EventStream:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ConfigError(f"{path}: not an EVS1 file")
        width, height, label, count = struct.unpack("<IIIQ", fh.read(20))
        # check the header's count before trusting it with an allocation
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if count * _RECORD.itemsize != body:
            raise ConfigError(
                f"{path}: header claims {count} events, body holds {body} bytes"
            )
        records = np.frombuffer(fh.read(body), dtype=_RECORD)
    return EventStream(
        t=records["t"].astype(np.int64),
        x=records["x"].astype(np.int64),
        y=records["y"].astype(np.int64),
        p=records["p"].astype(np.int64),
        width=width,
        height=height,
        label=None if label == NO_LABEL else int(label),
    )


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
            try:
                t, x, y, p = (int(v) for v in parts[:4])
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: expected integer t,x,y,p, got {line!r}"
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
