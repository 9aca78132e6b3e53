"""Spiking Heidelberg Digits (HDF5) to EVS1.

SHD ships as shd_train.h5 / shd_test.h5 with variable-length spike time
(seconds) and unit arrays per sample.  Streams are 1-D: 700 cochlea
channels map to x with height 1 and a single polarity.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import DatasetError
from ..eventio import write_events
from ..events import EventStream
from . import converter_main, write_manifest

CHANNELS = 700


def convert_h5(h5_path, dst_dir, prefix, limit: int | None = None) -> list[Path]:
    try:
        import h5py
    except ImportError as exc:
        raise DatasetError("SHD conversion needs h5py (pip install h5py)") from exc

    dst_dir.mkdir(parents=True, exist_ok=True)
    written = []
    with h5py.File(h5_path, "r") as fh:
        times = fh["spikes"]["times"]
        units = fh["spikes"]["units"]
        labels = fh["labels"]
        count = len(labels) if limit is None else min(limit, len(labels))
        for i in range(count):
            t = np.rint(np.asarray(times[i], dtype=np.float64) * 1e6).astype(np.int64)
            x = np.asarray(units[i], dtype=np.int64)
            order = np.argsort(t, kind="stable")
            stream = EventStream(
                t=t[order],
                x=x[order],
                y=np.zeros(t.shape[0], dtype=np.int64),
                p=np.zeros(t.shape[0], dtype=np.int64),
                width=CHANNELS,
                height=1,
                label=int(labels[i]),
            )
            target = dst_dir / f"{prefix}_{i:06d}.evs"
            write_events(stream, target)
            written.append(target)
    return written


def convert(raw_dir, out_dir, limit_per_split: int | None = None) -> Path:
    raw_dir = Path(raw_dir)
    out_dir = Path(out_dir)
    train_h5 = raw_dir / "shd_train.h5"
    test_h5 = raw_dir / "shd_test.h5"
    for path in (train_h5, test_h5):
        if not path.exists():
            raise DatasetError(f"missing {path}")
    train = convert_h5(train_h5, out_dir / "train", "train", limit_per_split)
    test = convert_h5(test_h5, out_dir / "test", "test", limit_per_split)
    return write_manifest(out_dir, CHANNELS, 1, 1, train, test)


def main(argv=None) -> int:
    return converter_main(convert, __doc__, argv)


if __name__ == "__main__":
    raise SystemExit(main())
