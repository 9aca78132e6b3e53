"""N-MNIST (.bin saccade recordings) to EVS1.

The raw archive unpacks to Train/<digit>/*.bin and Test/<digit>/*.bin.
Each event is 5 big-endian-ish packed bytes: x, y, then polarity in the
top bit of the third byte with the 23-bit microsecond timestamp in the
remaining bits.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from ..errors import DatasetError
from ..eventio import write_dataset
from ..events import EventStream

WIDTH = 34
HEIGHT = 34


def read_bin(path, label: int | None = None) -> EventStream:
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % 5:
        raise DatasetError(f"{path}: length not a multiple of 5 bytes")
    raw = raw.reshape(-1, 5).astype(np.int64)
    x = raw[:, 0]
    y = raw[:, 1]
    p = raw[:, 2] >> 7
    t = ((raw[:, 2] & 0x7F) << 16) | (raw[:, 3] << 8) | raw[:, 4]
    order = np.argsort(t, kind="stable")
    return EventStream(
        t=t[order], x=x[order], y=y[order], p=p[order],
        width=WIDTH, height=HEIGHT, label=label,
    )


def read_split(src: Path):
    """Labeled streams of one split's .bin files, taken from the class
    folders in turn (each folder sorted), so every prefix covers the
    digits evenly."""
    folders: dict[Path, list[Path]] = {}
    for bin_path in sorted(src.glob("*/*.bin")):
        folders.setdefault(bin_path.parent, []).append(bin_path)
    for row in itertools.zip_longest(*folders.values()):
        for bin_path in filter(None, row):
            if not bin_path.parent.name.isdecimal():
                raise DatasetError(f"{bin_path.parent}: class folder is not a digit")
            yield read_bin(bin_path, int(bin_path.parent.name))


def convert(raw_dir, out_dir, limit_per_split: int | None = None) -> Path:
    raw_dir = Path(raw_dir)
    splits = {}
    for split in ("Train", "Test"):
        src = raw_dir / split
        if not src.is_dir():
            raise DatasetError(f"missing {src}; unpack the N-MNIST archive first")
        splits[split.lower()] = read_split(src)
    return write_dataset(out_dir, WIDTH, HEIGHT, 2, splits, limit_per_split)
