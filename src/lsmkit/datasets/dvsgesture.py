"""DVS128 Gesture (AEDAT 3.1) to EVS1.

The raw archive holds DvsGesture/*.aedat recordings with companion
*_labels.csv trial tables (class, startTime_usec, endTime_usec) and the
trials_to_train.txt / trials_to_test.txt split lists.  Each labeled trial
becomes one EVS1 sample; gesture classes are shifted to 0-based.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..errors import DatasetError
from ..eventio import write_events
from ..events import EventStream
from . import converter_main, write_manifest

WIDTH = 128
HEIGHT = 128
POLARITY_EVENT = 1
_PACKET_HEADER = struct.Struct("<hhiiiiii")


def read_aedat(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode polarity events: returns (t, x, y, p) sorted by time."""
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first.startswith(b"#!AER-DAT3"):
            raise DatasetError(f"{path}: not an AEDAT 3.x file")
        while True:
            pos = fh.tell()
            line = fh.readline()
            if not line:
                raise DatasetError(f"{path}: header never ends")
            if not line.startswith(b"#"):
                fh.seek(pos)
                break
            if line.startswith(b"#!END-HEADER"):
                break
        chunks_t, chunks_x, chunks_y, chunks_p = [], [], [], []
        while True:
            header = fh.read(_PACKET_HEADER.size)
            if not header:
                break
            if len(header) < _PACKET_HEADER.size:
                raise DatasetError(f"{path}: truncated packet header")
            (etype, _src, esize, _tsoff, tsoverflow, _cap, enumber, _valid
             ) = _PACKET_HEADER.unpack(header)
            payload = fh.read(esize * enumber)
            if len(payload) < esize * enumber:
                raise DatasetError(
                    f"{path}: truncated packet, {len(payload)} of "
                    f"{esize * enumber} payload bytes"
                )
            if etype != POLARITY_EVENT:
                continue
            raw = np.frombuffer(payload, dtype="<u4").reshape(-1, esize // 4)
            data = raw[:, 0]
            ts = raw[:, 1].astype(np.int64) | (np.int64(tsoverflow) << 31)
            valid = (data & 1) == 1
            chunks_t.append(ts[valid])
            chunks_p.append(((data >> 1) & 1).astype(np.int64)[valid])
            chunks_y.append(((data >> 2) & 0x7FFF).astype(np.int64)[valid])
            chunks_x.append(((data >> 17) & 0x7FFF).astype(np.int64)[valid])
    if not chunks_t:
        return (np.zeros(0, dtype=np.int64),) * 4
    t = np.concatenate(chunks_t)
    x = np.concatenate(chunks_x)
    y = np.concatenate(chunks_y)
    p = np.concatenate(chunks_p)
    order = np.argsort(t, kind="stable")
    return t[order], x[order], y[order], p[order]


def read_trials(csv_path) -> list[tuple[int, int, int]]:
    trials = []
    with open(csv_path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.lower().startswith("class"):
                continue
            try:
                cls, start, end = (int(v) for v in line.split(",")[:3])
            except ValueError:
                raise DatasetError(f"{csv_path}:{number}: {line!r} is not class,start,end")
            trials.append((cls, start, end))
    return trials


def _split_list(raw_dir: Path, name: str) -> list[str]:
    path = raw_dir / name
    if not path.exists():
        raise DatasetError(f"missing {path}")
    return [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]


def convert(raw_dir, out_dir, limit_per_split: int | None = None) -> Path:
    raw_dir = Path(raw_dir)
    data_dir = raw_dir / "DvsGesture" if (raw_dir / "DvsGesture").is_dir() else raw_dir
    out_dir = Path(out_dir)
    split_files: dict[str, list[Path]] = {}
    for split, listing in (("train", "trials_to_train.txt"),
                           ("test", "trials_to_test.txt")):
        names = _split_list(data_dir, listing)
        dst = out_dir / split
        dst.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for name in names:
            aedat = data_dir / name
            labels_csv = data_dir / name.replace(".aedat", "_labels.csv")
            for needed in (aedat, labels_csv):
                if not needed.exists():
                    raise DatasetError(f"{listing} names {name}, but {needed} is missing")
            t, x, y, p = read_aedat(aedat)
            for cls, start, end in read_trials(labels_csv):
                if limit_per_split is not None and len(written) >= limit_per_split:
                    break
                sel = (t >= start) & (t < end)
                stream = EventStream(
                    t=t[sel], x=x[sel], y=y[sel], p=p[sel],
                    width=WIDTH, height=HEIGHT, label=cls - 1,
                )
                target = dst / f"{split}_{len(written):06d}.evs"
                write_events(stream, target)
                written.append(target)
            if limit_per_split is not None and len(written) >= limit_per_split:
                break
        split_files[split] = written
    return write_manifest(
        out_dir, WIDTH, HEIGHT, 2, split_files["train"], split_files["test"]
    )


def main(argv=None) -> int:
    return converter_main(convert, __doc__, argv)


if __name__ == "__main__":
    raise SystemExit(main())
