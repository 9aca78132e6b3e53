"""Command-line front end.

Subcommands:
    run          execute one experiment config, write report.json
    sweep        repeat a config along one hyperparameter axis
    synth            generate the multi-phase synthetic event dataset
    convert          CSV <-> EVS1 event file conversion
    convert-dataset  N-MNIST, SHD or DVSGesture raw files to EVS1 plus a manifest
    topo-export      build and dump reservoir topologies as text

Dataset manifests referenced with relative paths resolve against the
LSMKIT_DATA_ROOT environment variable when it is set.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import eventio
from .config import Seeds, load_config, write_json
from .datasets import dvsgesture, nmnist, shd
from .errors import ConfigError, DatasetError, NumericsError
from .harness import (
    SWEEP_AXES,
    build_members,
    run_experiment,
    run_sweep,
    sweep_table,
)
from .inputs import save_input_map
from .synth import MultiPhaseParams, generate_multiphase
from .topology import save_topology

CONVERTERS = {
    "nmnist": nmnist.convert, "shd": shd.convert, "dvsgesture": dvsgesture.convert
}
# synth flags whose names differ from the MultiPhaseParams field they set
SYNTH_FLAGS = {
    "n_classes": "classes", "n_phases": "phases", "n_train": "train", "n_test": "test"
}


def _apply_overrides(cfg, args):
    if args.seed_override is not None:
        s = args.seed_override
        cfg = replace(cfg, seeds=Seeds(topology=s, input=s + 1, training=s + 2))
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    return cfg


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    report = run_experiment(cfg, threads=args.threads)
    print(f"train accuracy: {report.train_accuracy:.4f}")
    print(f"test accuracy:  {report.test_accuracy:.4f}")
    for stage, seconds in report.timings.items():
        print(f"  {stage:>9}: {seconds:.2f} s")
    if cfg.output_dir:
        print(f"report: {Path(cfg.output_dir) / 'report.json'}")
    else:
        print(json.dumps(report.to_dict(), indent=1))
    return 0


def _parse_axis_values(axis: str, raw: str):
    # an integer literal is an int, any other number a float; the swept
    # section checks its type and range as it would in a config file
    def number(token):
        for kind in (int, float):
            try:
                return kind(token)
            except ValueError:
                pass
        raise ConfigError(f"--values for axis {axis}: {token!r} is not a number")

    if axis == "d_list":
        # semicolon-separated offset lists: "0;0,5;0,4,6"
        return [[number(v) for v in group.split(",")] for group in raw.split(";") if group]
    return [number(v) for v in raw.split(",") if v]


def cmd_sweep(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    values = _parse_axis_values(args.axis, args.values)
    result = run_sweep(
        cfg, args.axis, values, repeats=args.repeats, threads=args.threads
    )
    print(sweep_table(result))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(result, out / "sweep.json")
        with open(out / "sweep.txt", "w") as fh:
            fh.write(sweep_table(result) + "\n")
        print(f"sweep results: {out / 'sweep.json'}")
    return 0


def cmd_synth(args) -> int:
    # only the flags given are in args (argument_default=SUPPRESS); the
    # dataclass supplies every other field's default
    given = {f.name: getattr(args, f.name) for f in fields(MultiPhaseParams)
             if f.name in args}
    manifest = generate_multiphase(MultiPhaseParams(**given), args.out)
    print(f"manifest: {manifest}")
    return 0


def cmd_convert(args) -> int:
    # the EVS1 header carries the sensor size and label; CSV has no header
    header = {"--width": args.width, "--height": args.height, "--label": args.label}
    if args.to_binary:
        for flag in ("--width", "--height"):
            if header[flag] is None:
                raise ConfigError(f"--to-binary needs {flag}")
        stream = eventio.read_csv_events(
            args.input, width=args.width, height=args.height, label=args.label
        )
        eventio.write_events(stream, args.output)
    else:
        given = [flag for flag, value in header.items() if value is not None]
        if given:
            raise ConfigError(f"--to-csv takes no {', '.join(given)}")
        stream = eventio.read_events(args.input)
        eventio.write_csv_events(stream, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_convert_dataset(args) -> int:
    convert = CONVERTERS[args.dataset]
    manifest = convert(args.raw_dir, args.out_dir, limit_per_split=args.limit)
    print(f"manifest: {manifest}")
    return 0


def cmd_topo_export(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    engine = build_members(cfg, eventio.load_manifest(cfg.dataset_manifest))
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    for i, (topo, imap) in enumerate(engine.members):
        topo_path = out / f"member_{i}_topology.txt"
        save_topology(topo, topo_path)
        print(f"wrote {topo_path} ({topo.n_edges} edges)")
        if args.with_input:
            input_path = out / f"member_{i}_input.txt"
            save_input_map(imap, input_path)
            print(f"wrote {input_path} ({imap.n_edges} edges)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsmkit", description="liquid state machine ensemble harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument(
            "--seed-override",
            type=int,
            default=None,
            help="set the topology, input and training seeds to N, N+1, N+2 "
            "(the training seed is reserved and unused)",
        )
        p.add_argument("--out", default=None, help="output directory")

    p_run = sub.add_parser("run", help="run one experiment")
    add_common(p_run)
    p_run.add_argument("--threads", type=int, default=1)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one hyperparameter axis")
    add_common(p_sweep)
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument(
        "--values",
        required=True,
        help="comma-separated values; for d_list, semicolon-separated groups",
    )
    p_sweep.add_argument("--repeats", type=int, default=3)
    p_sweep.set_defaults(func=cmd_sweep)

    p_synth = sub.add_parser(
        "synth", help="generate synthetic event data",
        argument_default=argparse.SUPPRESS,
    )
    kind = "multi-phase-classification"
    p_synth.add_argument("--kind", default=kind, choices=[kind])
    p_synth.add_argument("--out", required=True)
    for f in fields(MultiPhaseParams):  # one flag per field, of its default's type
        name = SYNTH_FLAGS.get(f.name, f.name)
        p_synth.add_argument(
            "--" + name.replace("_", "-"), dest=f.name, metavar=name.upper(),
            type=type(f.default), help=f"default {f.default}",
        )
    p_synth.set_defaults(func=cmd_synth)

    p_conv = sub.add_parser("convert", help="CSV <-> EVS1 conversion")
    direction = p_conv.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-binary", action="store_true")
    direction.add_argument("--to-csv", action="store_true")
    p_conv.add_argument("input")
    p_conv.add_argument("output")
    p_conv.add_argument("--width", type=int, help="sensor width (--to-binary)")
    p_conv.add_argument("--height", type=int, help="sensor height (--to-binary)")
    p_conv.add_argument("--label", type=int, help="sample label (--to-binary)")
    p_conv.set_defaults(func=cmd_convert)

    p_data = sub.add_parser(
        "convert-dataset", help="convert a raw benchmark download to EVS1"
    )
    p_data.add_argument("dataset", choices=CONVERTERS)
    p_data.add_argument("raw_dir")
    p_data.add_argument("out_dir")
    p_data.add_argument("--limit", type=int, default=None, help="samples per split")
    p_data.set_defaults(func=cmd_convert_dataset)

    p_topo = sub.add_parser("topo-export", help="dump built topologies as text")
    add_common(p_topo)
    p_topo.add_argument("--with-input", action="store_true")
    p_topo.set_defaults(func=cmd_topo_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, NumericsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
