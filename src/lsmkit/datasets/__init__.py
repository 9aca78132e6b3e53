"""Converters from dataset-native formats to the EVS1 container.

These are offline preparation tools: the engine core only reads EVS1
files listed in a manifest.  Each module converts one benchmark:

    python -m lsmkit.datasets.nmnist     <raw_dir> <out_dir>
    python -m lsmkit.datasets.shd        <raw_dir> <out_dir>
    python -m lsmkit.datasets.dvsgesture <raw_dir> <out_dir>

Raw downloads are never fetched here; see the README for dataset sources.
"""

import argparse
import json
import sys
from pathlib import Path

from ..errors import ConfigError, DatasetError


def write_manifest(out_dir, width, height, channels, train_files, test_files) -> Path:
    out_dir = Path(out_dir)
    manifest = {
        "width": width,
        "height": height,
        "channels": channels,
        "train": [str(p.relative_to(out_dir)) for p in train_files],
        "test": [str(p.relative_to(out_dir)) for p in test_files],
    }
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1)
    return path


def converter_main(convert, description: str, argv=None) -> int:
    """Every converter's CLI; bad input exits 2 with ``error:``, as ``lsmkit`` does."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("raw_dir")
    parser.add_argument("out_dir")
    parser.add_argument("--limit", type=int, default=None, help="samples per split")
    args = parser.parse_args(argv)
    try:
        manifest = convert(args.raw_dir, args.out_dir, limit_per_split=args.limit)
    except (ConfigError, DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"manifest: {manifest}")
    return 0
