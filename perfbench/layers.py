"""Spans around the public functions of each lsmkit layer, recorded from outside.

A hook replaces a function in the module namespace its caller looks it up
in (``lsmkit.harness`` calls ``build_reservoir`` through its own globals,
``lsmkit.ensemble`` calls ``lif_step`` through its own), so the program is
unchanged and every call still goes to the original.  A span's self time
is its duration minus the time of the spans nested directly inside it.
Work counters are taken from the arguments and results at the same
boundary; their cost is kept out of every span and shows up only in the
traced run's extra wall time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    module: str  # namespace the caller resolves the name in
    attr: str
    span: str  # per-layer metric prefix; several hooks may share one


HOOKS = (
    Hook("lsmkit.harness", "build_members", "harness.build_members"),
    Hook("lsmkit.harness", "build_reservoir", "topology.build_reservoir"),
    Hook("lsmkit.harness", "build_input", "inputs.build_input"),
    Hook("lsmkit.harness", "build_tepre", "ensemble.build_tepre"),
    Hook("lsmkit.eventio", "read_events", "eventio.read_events"),
    Hook("lsmkit.harness", "bin_events", "events.bin_events"),
    Hook("lsmkit.harness", "downscale", "events.pool"),
    Hook("lsmkit.harness", "clip_or_pad", "events.pool"),
    Hook("lsmkit.harness", "gabor_bank", "gabor.gabor_bank"),
    Hook("lsmkit.harness", "run_tepre", "ensemble.run"),
    Hook("lsmkit.harness", "run_mulre", "ensemble.run"),
    Hook("lsmkit.ensemble", "drive_through_map", "ensemble.drive_through_map"),
    Hook("lsmkit.ensemble", "lif_step", "neurons.lif_step"),
    Hook("lsmkit.harness", "extract_state", "readout.extract_state"),
    Hook("lsmkit.harness", "train_readout", "readout.train_readout"),
    Hook("lsmkit.harness", "evaluate", "readout.evaluate"),
)

# The two calls that bound the end-to-end intervals of an untraced run.
BOUNDARY_HOOKS = tuple(h for h in HOOKS if h.attr in ("build_members", "train_readout"))


def expected_hooks(cfg) -> set[str]:
    """Attributes of the hooks a run of ``cfg`` must pass through."""
    prep, variant = cfg.preprocessing, cfg.ensemble.variant
    skip = {"run_mulre" if variant == "tepre" else "run_tepre"}
    if variant != "tepre":
        skip.add("build_tepre")
    if prep.downscale <= 1:
        skip.add("downscale")
    if not prep.gabor:
        skip.add("gabor_bank")
    if prep.steps is None:
        skip.add("clip_or_pad")
    return {h.attr for h in HOOKS} - skip


# --- work counters, one per hook that has any --------------------------------


def _count_read(c, args, result):
    c["eventio.events"] += result.n_events
    c["eventio.bytes"] += os.path.getsize(args[0])


def _count_bin(c, args, result):
    c["events.frame_bytes"] += result.frames.nbytes


def _count_drive(c, args, result):
    rates, imap = args[0], args[1]
    c["ensemble.drive_macs"] += imap.n_edges * rates.shape[0]
    c["drive_rows_computed"] += rates.shape[0]


def _recurrent_macs(members, steps):
    return sum(topo.n_edges for topo, _ in members) * steps


def _count_tepre(c, args, result):
    members, schedule = args[1], args[3]
    # each step's drive is injected into exactly one partition
    c["drive_rows_kept"] += schedule.steps
    c["ensemble.recurrent_macs"] += _recurrent_macs(members, schedule.steps)


def _count_mulre(c, args, result):
    rates, members = args[0], args[1]
    c["drive_rows_kept"] += rates.shape[0] * len(members)
    c["ensemble.recurrent_macs"] += _recurrent_macs(members, rates.shape[0])


def _count_edges(key):
    def count(c, args, result):
        c[key] += result.n_edges

    return count


def _count_features(c, args, result):
    c["readout.features"] = result.features.shape[0]


COUNTERS: dict[str, Callable] = {
    "read_events": _count_read,
    "bin_events": _count_bin,
    "drive_through_map": _count_drive,
    "run_tepre": _count_tepre,
    "run_mulre": _count_mulre,
    "build_reservoir": _count_edges("topology.edges"),
    "build_input": _count_edges("inputs.edges"),
    "extract_state": _count_features,
}


def install(hooks, wrap: Callable, saved: list) -> None:
    """Replace each hook's function by ``wrap(hook, original)``, appending
    to ``saved`` what ``restore`` needs to put the original back."""
    for hook in hooks:
        module = importlib.import_module(hook.module)
        original = getattr(module, hook.attr)
        saved.append((module, hook.attr, original))
        setattr(module, hook.attr, wrap(hook, original))


def restore(saved: list) -> None:
    """Put back the originals ``install`` replaced, last installed first."""
    while saved:
        module, attr, original = saved.pop()
        setattr(module, attr, original)


class Tracer:
    """Installs hooks, accumulates span self times, calls and counters.

    ``with Tracer(hooks):`` wraps the functions for the body and restores
    the originals afterwards, also when the body raises.
    """

    def __init__(self, hooks=HOOKS, clock: Callable[[], float] = time.perf_counter):
        self.hooks = hooks
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)  # by hook attribute
        self.counters: dict[str, float] = defaultdict(float)
        self.last: dict[str, tuple[float, float]] = {}  # span -> (start, end)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, attr: str, fn: Callable, counter: Callable | None = None):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        counters, last, clock = self.counters, self.last, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self_s[name] += end - start - stack.pop()
            calls[attr] += 1
            last[name] = (start, end)
            if counter is not None:
                counter(counters, args, result)
            if stack:
                # the parent's child time includes the counter's own cost
                stack[-1] += clock() - start
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        install(
            self.hooks,
            lambda hook, fn: self.span(hook.span, hook.attr, fn, COUNTERS.get(hook.attr)),
            self._saved,
        )
        return self

    def __exit__(self, *exc) -> None:
        restore(self._saved)
