"""Timed loop of ``run_experiment`` calls in a process of its own.

Started by ``run.py`` after it has written the inputs, so this process's
peak resident memory belongs to the experiment alone.  It calls
``lsmkit.harness.run_experiment(cfg, threads=1)``, the call ``lsmkit run``
makes, back to back until the time budget is spent, and writes one JSON
record per call.  Every call runs under a ``HostSampler``: its times leave
out the sampler's blocks, and its record carries their mean time, which
tells how fast the host ran during the call.  With ``--trace 1`` the last
two thirds of the budget run with every layer hook installed.

    python3 perfbench/measure.py --config CFG.json --seconds 20 --trace 0 --out OUT.json
"""

from __future__ import annotations

import argparse
import faulthandler
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSampler

ROOT = Path(__file__).resolve().parent.parent


def state_digest(state_hash: dict) -> str:
    """One digest over the report's four state-vector hashes."""
    return hashlib.sha256(json.dumps(state_hash, sort_keys=True).encode()).hexdigest()


def one_run(cfg, host: HostSampler, make_tracer) -> dict:
    from lsmkit import harness

    with host, make_tracer(host.clock) as tracer:
        run = tracer.span("harness.run_experiment", "run_experiment", harness.run_experiment)
        start = host.clock()
        report = run(cfg, threads=1)
        total = host.clock() - start
    build_start, build_end = tracer.last["harness.build_members"]
    train_start, _ = tracer.last["readout.train_readout"]
    members = report.spike_stats["members"]
    samples = report.dataset["n_train"] + report.dataset["n_test"]
    # every member runs the fixed presentation length of every sample
    steps = cfg.preprocessing.steps * samples
    return {
        "total_s": total,
        "host_block_s": host.block_s(),  # (compute, memory)
        "setup_s": build_end - build_start,
        "simulate_s": train_start - build_end,
        "samples": samples,
        "neuron_steps": sum(m["neurons"] for m in members) * steps,
        "spikes": sum(m["total_spikes"] for m in members),
        "member_rates": [m["mean_rate"] for m in members],
        "test_accuracy": report.test_accuracy,
        "digest": state_digest(report.state_hash),
        # the process's peak so far; the first call's is that of a lone run
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "counters": dict(tracer.counters),
    }


def timed_phase(cfg, seconds: float, host, make_tracer, records: list) -> bool:
    """Run until the next call would overrun ``seconds``; False on a failure."""
    began = time.perf_counter()
    while True:
        try:
            records.append(one_run(cfg, host, make_tracer))
        except Exception:  # the run is the unit of failure; report and stop
            traceback.print_exc()
            return False
        elapsed = time.perf_counter() - began
        if elapsed + records[-1]["total_s"] > seconds:
            return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from lsmkit.config import load_config
    from layers import BOUNDARY_HOOKS, Tracer

    cfg = load_config(args.config)
    # a call that hangs shows where before run.py's deadline kills this process
    faulthandler.dump_traceback_later(args.seconds + 120)
    host = HostSampler()  # before the first call, so peak RSS includes its buffer
    untraced, traced = [], []
    budget = args.seconds / 3 if args.trace else args.seconds
    ok = timed_phase(cfg, budget, host, lambda clock: Tracer(BOUNDARY_HOOKS, clock), untraced)
    if ok and args.trace:
        ok = timed_phase(
            cfg, args.seconds - budget, host, lambda clock: Tracer(clock=clock), traced
        )
    Path(args.out).write_text(json.dumps({"ok": ok, "untraced": untraced, "traced": traced}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
