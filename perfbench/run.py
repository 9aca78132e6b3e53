"""lsmkit benchmark: one workload at one seed, checked, as one JSON line.

    python3 perfbench/run.py --workload synth-tepre3 --seed 1 --seconds 24 --trace 0

Writes the workload's inputs from the seed, then times back-to-back
``run_experiment(cfg, threads=1)`` calls in a fresh process (measure.py)
for ``--seconds`` while sampling the host's speed (hostspeed.py), and
reports medians over the calls of times scaled by the host's speed during
each call.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` spends a third of the
budget untraced and the rest with every layer hook installed, and reports
the per-layer metrics.  Every check is printed; the last stdout line is the
JSON result.  The exit code is 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from hostspeed import slowness
from layers import HOOKS, expected_hooks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
# one caller, one core: no BLAS or OpenMP pool may add threads
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CHILD_DEADLINE_S = 170  # the whole command must end within 180 s
SILENT_RATE, SATURATED_RATE = 1e-4, 0.9  # spikes per neuron-step, per member


def scaled(key: str):
    """A call's ``key`` seconds, host-scaled."""
    return lambda r: r[key] * r["scale"]


def median_of(records: list[dict], value) -> float:
    return statistics.median(value(r) for r in records)


def end_to_end(untraced: list[dict], attempted: int, failed: int) -> dict:
    """Timings are medians over the untraced calls, each scaled by the host
    speed during it.  Memory is the first call's, as in a one-run process."""
    return {
        "total_s": median_of(untraced, scaled("total_s")),
        "setup_s": median_of(untraced, scaled("setup_s")),
        "samples_per_s": median_of(
            untraced, lambda r: r["samples"] / (r["simulate_s"] * r["scale"])
        ),
        "neuron_steps_per_s": median_of(
            untraced, lambda r: r["neuron_steps"] / (r["simulate_s"] * r["scale"])
        ),
        "peak_rss_mb": untraced[0]["peak_rss_mb"],
        "test_accuracy": untraced[0]["test_accuracy"],
        "completed_fraction": 1.0 - failed / attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Busy self times are host-scaled medians over the traced calls; counts
    are exact."""
    spans = dict.fromkeys(h.span for h in HOOKS if h.span != "harness.build_members")
    out = {
        f"{span}.s": median_of(traced, lambda r: r["self_s"].get(span, 0.0) * r["scale"])
        for span in spans
    }
    last = traced[-1]  # counts are identical on every call; the hashes prove it
    counters = dict(last["counters"])
    kept, computed = counters.pop("drive_rows_kept"), counters.pop("drive_rows_computed")
    out.update(counters)
    out["ensemble.drive_useful_ratio"] = kept / computed
    out["neurons.lif_step.calls"] = last["calls"]["lif_step"]
    out["neurons.neuron_steps"] = last["neuron_steps"]
    out["neurons.spike_rate"] = last["spikes"] / last["neuron_steps"]
    out["neurons.spike_rate.min_member"] = min(last["member_rates"])
    out["neurons.spike_rate.max_member"] = max(last["member_rates"])
    out["harness.run_experiment.self_s"] = median_of(
        traced, lambda r: r["self_s"]["harness.run_experiment"] * r["scale"]
    )
    out["trace.overhead_s"] = median_of(traced, scaled("total_s")) - median_of(
        untraced, scaled("total_s")
    )
    return out


def threads_check(wl, cfg, manifest: Path) -> tuple[bool, str]:
    """Hashes of a slice at threads=2 must equal threads=1 (outside timing)."""
    from lsmkit.harness import run_experiment

    data = json.loads(manifest.read_text())
    for split in ("train", "test"):
        data[split] = data[split][: wl.threads_slice]
    sliced = manifest.with_name("manifest_threads.json")
    sliced.write_text(json.dumps(data))
    cfg = replace(cfg, dataset_manifest=str(sliced), output_dir=None)
    one = run_experiment(cfg, threads=1).state_hash
    two = run_experiment(cfg, threads=2).state_hash
    return one == two, f"{2 * wl.threads_slice} samples, threads=2 vs threads=1"


def measure(config: Path, seconds: float, trace: int, out: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--config", str(config), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(out),
    ]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=max(deadline - time.monotonic(), 1))
    return json.loads(out.read_text())


def checks(wl, seed: int, cfg, untraced, traced, failed: int, attempted: int) -> list:
    """(name, passed, detail) for every output check of the timed calls."""
    out = [("no failed samples", failed == 0, f"{failed} of {attempted}")]
    if not untraced:
        return out
    first, calls = untraced[0], untraced + traced
    out.append(
        ("state_hash repeats", len({r["digest"] for r in calls}) == 1, f"{len(calls)} calls")
    )
    want = json.loads(REFERENCE.read_text()).get(wl.name, {}).get(str(seed))
    if want is None:
        print(f"note: no stored state_hash for {wl.name} seed {seed}; reference check skipped")
    else:
        out.append(("state_hash matches reference", first["digest"] == want, want[:16]))
    acc = first["test_accuracy"]
    out.append(("test accuracy floor", acc >= wl.accuracy_floor, f"{acc:.4f} >= {wl.accuracy_floor}"))
    rates = first["member_rates"]
    out.append(
        (
            "no silent or saturated member",
            SILENT_RATE <= min(rates) and max(rates) <= SATURATED_RATE,
            "rates " + " ".join(f"{r:.4f}" for r in rates),
        )
    )
    if traced:
        out.append(("traced state_hash equals untraced", traced[-1]["digest"] == first["digest"], ""))
        missing = expected_hooks(cfg) - set(traced[-1]["calls"])
        out.append(("every layer hook fired", not missing, ", ".join(sorted(missing))))
    return out


def run(args, started: float) -> tuple[bool, dict, int, int]:
    from lsmkit.config import save_config
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    try:
        manifest = wl.generate(wl, args.seed, work / "data")
        cfg = wl.load_config(manifest, work / "out")
        save_config(cfg, work / "config.json")
        result = measure(
            work / "config.json", args.seconds, args.trace, work / "measure.json",
            started + CHILD_DEADLINE_S,
        )
        untraced, traced = result["untraced"], result["traced"]
        for r in untraced + traced:
            # turns the call's seconds into seconds on the reference host
            r["scale"] = 1 / slowness(r["host_block_s"], wl.in_cache)
        failed = 0 if result["ok"] else wl.n_samples
        attempted = (len(untraced) + len(traced)) * wl.n_samples + failed
        results = checks(wl, args.seed, cfg, untraced, traced, failed, attempted)
        if wl.threads_slice:
            results.append(("threads=2 hashes equal threads=1",) + threads_check(wl, cfg, manifest))
        for name, passed, detail in results:
            print(f"check {'ok  ' if passed else 'FAIL'} {name}: {detail}")

        metrics = {}
        if untraced:
            metrics = end_to_end(untraced, attempted, failed)
            print(f"end-to-end, median of {len(untraced)} untraced calls, host-scaled:")
            for name, value in metrics.items():
                print(f"  {name:<36} {value:.6g}")
            print(f"  {'failed_fraction':<36} {failed / attempted:.6g}")
            raw_total = median_of(untraced, lambda r: r["total_s"])
            host = median_of(untraced, lambda r: 1 / r["scale"])
            print(f"  {'total_s, unscaled':<36} {raw_total:.6g}")
            print(f"  {'host slowness vs reference':<36} {host:.6g}")
        if traced:
            layers = per_layer(traced, untraced)
            print(f"per layer, median of {len(traced)} traced calls, host-scaled:")
            for name, value in layers.items():
                print(f"  {name:<36} {value:.6g}")
            metrics.update(layers)
        return all(passed for _, passed, _ in results), metrics, attempted, failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lsmkit" / "__init__.py").is_file():
        print(f"error: lsmkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    correct, metrics, attempted, failed = run(args, started)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"check FAIL every metric reported: {', '.join(missing)}")
        correct = False
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] not in missing
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
