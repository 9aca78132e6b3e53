"""Spiking Heidelberg Digits (HDF5) to EVS1.

SHD ships as shd_train.h5 / shd_test.h5 with variable-length spike time
(seconds) and unit arrays per sample.  Streams are 1-D: 700 cochlea
channels map to x with height 1 and a single polarity.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import DatasetError
from ..eventio import write_dataset
from ..events import EventStream

CHANNELS = 700


def read_h5(h5_path):
    """Labeled streams of one SHD HDF5 file, in file order."""
    try:
        import h5py
    except ImportError as exc:
        raise DatasetError("SHD conversion needs h5py (pip install h5py)") from exc

    with h5py.File(h5_path, "r") as fh:
        times = fh["spikes"]["times"]
        units = fh["spikes"]["units"]
        labels = fh["labels"]
        for i in range(len(labels)):
            t = np.rint(np.asarray(times[i], dtype=np.float64) * 1e6).astype(np.int64)
            x = np.asarray(units[i], dtype=np.int64)
            order = np.argsort(t, kind="stable")
            yield EventStream(
                t=t[order],
                x=x[order],
                y=np.zeros(t.shape[0], dtype=np.int64),
                p=np.zeros(t.shape[0], dtype=np.int64),
                width=CHANNELS,
                height=1,
                label=int(labels[i]),
            )


def convert(raw_dir, out_dir, limit_per_split: int | None = None) -> Path:
    raw_dir = Path(raw_dir)
    splits = {split: raw_dir / f"shd_{split}.h5" for split in ("train", "test")}
    for path in splits.values():
        if not path.exists():
            raise DatasetError(f"missing {path}")
    streams = {split: read_h5(path) for split, path in splits.items()}
    return write_dataset(out_dir, CHANNELS, 1, 1, streams, limit_per_split)
