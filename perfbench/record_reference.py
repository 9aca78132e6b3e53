"""Record each workload's state_hash digest per seed into reference.json.

    python3 perfbench/record_reference.py --seeds 0-24 [--workload NAME ...]

``run.py`` fails a run whose digest differs from the one stored here for
its workload and seed.  Re-record only for a change that is meant to alter
results; a performance change must leave this file as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import REFERENCE, ROOT, THREAD_VARS, WORK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from lsmkit.harness import run_experiment
    from measure import state_digest
    from workloads import WORKLOADS

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        for seed in range(first, last + 1):
            work = WORK / f"reference-{name}-s{seed}"
            try:
                cfg = wl.load_config(wl.generate(wl, seed, work / "data"), work / "out")
                report = run_experiment(cfg, threads=1)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            digest = state_digest(report.state_hash)
            reference.setdefault(name, {})[str(seed)] = digest
            print(name, seed, digest, f"test_accuracy {report.test_accuracy:.4f}", flush=True)
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
