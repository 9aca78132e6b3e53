"""Converters from dataset-native formats to the EVS1 container.

These are offline preparation tools: the engine core only reads EVS1
files listed in a manifest.  Each module decodes one benchmark into
labeled streams and hands them to ``eventio.write_dataset``, which writes
the files and the manifest:

    python -m lsmkit.datasets.nmnist     <raw_dir> <out_dir>
    python -m lsmkit.datasets.shd        <raw_dir> <out_dir>
    python -m lsmkit.datasets.dvsgesture <raw_dir> <out_dir>

Raw downloads are never fetched here; see the README for dataset sources.
"""

import argparse
import sys

from ..errors import ConfigError, DatasetError


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
