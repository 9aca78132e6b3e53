#!/usr/bin/env python3
"""Full pipeline on the synthetic multi-phase task.

Generates a dataset whose classes differ only in WHICH temporal phase
shows WHICH spatial pattern, then compares a single reservoir against a
temporally partitioned ensemble with the same 600-neuron budget. Because
full-window spike counts are nearly blind to phase order, partitioning is
worth a lot here; this is the desk-scale version of the partition-count
comparison on the neuromorphic benchmarks.

Runtime: about 25 s on a 2-core host.
"""

import tempfile
from pathlib import Path

from lsmkit import (
    EnsembleConfig,
    ExperimentConfig,
    InputConfig,
    PreprocessingConfig,
    Seeds,
    run_experiment,
)
from lsmkit.harness import run_sweep, sweep_table
from lsmkit.synth import MultiPhaseParams, generate_multiphase

workdir = Path(tempfile.mkdtemp(prefix="lsmkit_demo_"))
params = MultiPhaseParams(n_classes=4, n_phases=3, n_train=300, n_test=300)
manifest = generate_multiphase(params, workdir / "data")
print(f"dataset: {params.n_classes} classes x 3 phases, "
      f"{params.n_train} train / {params.n_test} test -> {manifest}")

cfg = ExperimentConfig(
    dataset_manifest=str(manifest),
    preprocessing=PreprocessingConfig(time_window=1000, steps=300),
    ensemble=EnsembleConfig(variant="tepre", partitions=3, dims=(5, 5, 24)),
    input=InputConfig(weight=8.0, density=0.15, scheme="standard"),
    seeds=Seeds(topology=1, input=2, training=3),
)

print("\nsweeping the partition count at a fixed 600-neuron budget...")
result = run_sweep(cfg, "partitions", [1, 2, 3, 4], repeats=1)
print()
print(sweep_table(result))
print()
base = result["rows"][0]["test_accuracy_mean"]
best = max(result["rows"], key=lambda r: r["test_accuracy_mean"])
print(f"unpartitioned baseline: {base:.3f}; best partitioned: "
      f"{best['test_accuracy_mean']:.3f} at {best['value']} partitions")
print("full-window counts are nearly blind to phase order, so splitting the")
print("window is what recovers it; the gain saturates once the partition")
print("count reaches the data's phase structure.")

print("\nsingle full run with report:")
report = run_experiment(cfg)
print(f"  train accuracy {report.train_accuracy:.3f}, "
      f"test accuracy {report.test_accuracy:.3f}")
print(f"  stage timings: " + ", ".join(
    f"{k} {v:.1f}s" for k, v in report.timings.items()))
print(f"  per-member mean spike rates: "
      + ", ".join(f"{m['mean_rate']:.4f}" for m in report.spike_stats["members"]))
