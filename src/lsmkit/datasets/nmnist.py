"""N-MNIST (.bin saccade recordings) to EVS1.

The raw archive unpacks to Train/<digit>/*.bin and Test/<digit>/*.bin.
Each event is 5 big-endian-ish packed bytes: x, y, then polarity in the
top bit of the third byte with the 23-bit microsecond timestamp in the
remaining bits.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import DatasetError
from ..eventio import write_events
from ..events import EventStream
from . import converter_main, write_manifest

WIDTH = 34
HEIGHT = 34


def read_bin(path) -> EventStream:
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
        width=WIDTH, height=HEIGHT,
    )


def convert(raw_dir, out_dir, limit_per_split: int | None = None) -> Path:
    raw_dir = Path(raw_dir)
    out_dir = Path(out_dir)
    split_files = {}
    for split in ("Train", "Test"):
        src = raw_dir / split
        if not src.is_dir():
            raise DatasetError(f"missing {src}; unpack the N-MNIST archive first")
        dst = out_dir / split.lower()
        dst.mkdir(parents=True, exist_ok=True)
        written = []
        sources = sorted(src.glob("*/*.bin"))
        if limit_per_split is not None:
            sources = sources[:limit_per_split]
        for i, bin_path in enumerate(sources):
            if not bin_path.parent.name.isdecimal():
                raise DatasetError(f"{bin_path.parent}: class folder is not a digit")
            stream = read_bin(bin_path)
            stream.label = int(bin_path.parent.name)
            target = dst / f"{split.lower()}_{i:06d}.evs"
            write_events(stream, target)
            written.append(target)
        split_files[split] = written
    return write_manifest(
        out_dir, WIDTH, HEIGHT, 2, split_files["Train"], split_files["Test"]
    )


def main(argv=None) -> int:
    return converter_main(convert, __doc__, argv)


if __name__ == "__main__":
    raise SystemExit(main())
