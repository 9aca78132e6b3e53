"""How fast the host runs, sampled while the program runs.

The shared host the benchmark was tuned on runs a vCPU at two speeds, one
about 1.8x slower than the other.  It switches between them every few
milliseconds, and the share of slow time drifts over minutes.  CPU time
slows with wall time, and the guest sees no steal time.  So the mean speed
over a 24-second run spreads about 25% between runs.  Neither a longer run
nor the fastest of several calls helps: a whole minute can run slow.

``HostSampler`` therefore times a small block of fixed work at most every
``INTERVAL_S`` while the program runs.  The mean block times during a call
tell how fast the host ran during that call, and ``run.py`` divides the
call's times by its ``slowness``.  Each part of the block runs twice per
sample and only the second run is timed, so it meets warm caches whatever
the program left in them.  The sampler's ``clock()`` leaves
the blocks' time out, so totals and spans timed with it are the program's
own time.

Samples are taken on entry to the layer functions of ``layers.HOOKS``, the
first one due at least ``INTERVAL_S`` after the last sample.  A timer
signal would sample more evenly, but it runs the block wherever the
program happens to be, including inside library code that holds a lock
the block may need; on entry to a layer function the program holds none.

The block's compute part mixes the kinds of work lsmkit does, so a slow
phase slows it much as it slows the program (not exactly; see README.md):
a LIF-style loop of small NumPy and sparse matrix-vector calls, an FFT
correlation, a sparse-by-dense product and dictionary updates in pure
Python.  Its memory part is one pass over an 8 MB buffer, four times the
L2 cache, because work on arrays larger than the cache slows differently.
The block uses only NumPy and SciPy, never lsmkit, so a change to the
program cannot change it.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np
from scipy import sparse
from scipy.signal import fftconvolve

from layers import HOOKS, install, restore

INTERVAL_S = 0.025
# Typical mean times of the block's two parts in a call on the tuning host
# (2-vCPU shared VM, "Intel Xeon Processor", Python 3.11.7, NumPy 2.4.6,
# SciPy 1.17.1), so scaled and unscaled seconds there are of the same size.
REFERENCE_COMPUTE_S = 0.0012
REFERENCE_MEMORY_S = 0.0008


def slowness(block_s: tuple[float, float], in_cache: bool) -> float:
    """How many times slower than the reference host a call ran.

    ``block_s`` is the call's mean (compute, memory) block time.  A workload
    whose data fit in the L2 cache is slowed only through the core, so it
    is compared with the compute part alone; any other, with both parts.
    """
    compute, memory = block_s
    if in_cache:
        return compute / REFERENCE_COMPUTE_S
    return (compute + memory) / (REFERENCE_COMPUTE_S + REFERENCE_MEMORY_S)


class HostSampler:
    """``with host:`` samples the host's speed while the body runs.

    Make one per process and enter it once per call: entering clears the
    samples, and the first layer function the call enters takes one.  On
    exit the original functions are restored, also when the body raises.
    """

    def __init__(self, hooks=HOOKS):
        rng = np.random.default_rng(12345)
        self._weights = sparse.random(600, 600, density=0.03, format="csr", random_state=rng)
        self._drive = rng.random((20, 600))
        self._frames = rng.random((4, 34, 34))
        self._kernel = rng.random((1, 7, 7))
        self._input_map = sparse.random(1000, 2000, density=0.004, format="csr", random_state=rng)
        self._rates = rng.random((20, 2000))
        self._buffer = np.ones(1 << 20)
        self._compute()  # first-use costs of NumPy and SciPy stay out of samples
        self.hooks = hooks
        self.spent = 0.0  # seconds spent in blocks, timed or not
        self.samples: list[tuple[float, float]] = []  # (compute, memory) seconds
        self._due = 0.0
        self._saved: list = []

    def _compute(self) -> None:
        v, s = np.zeros(600), np.zeros(600)
        for drive in self._drive:
            v = v * 0.94 + drive * 0.1 + self._weights.dot(s)
            s = (v > 1.0).astype(np.float64)
            v[s > 0] = 0.0
        fftconvolve(self._frames, self._kernel, mode="same", axes=(1, 2))
        self._input_map.dot(self._rates.T)
        counts: dict[int, int] = {}
        for i in range(1000):
            counts[i & 63] = counts.get(i & 63, 0) + i

    def _memory(self) -> None:
        np.multiply(self._buffer, 1.0, out=self._buffer)

    @staticmethod
    def _timed(block) -> float:
        block()  # warms the caches the program may have evicted
        start = time.perf_counter()
        block()
        return time.perf_counter() - start

    def poll(self) -> None:
        """Take a sample if one is due."""
        start = time.perf_counter()
        if start < self._due:
            return
        self.samples.append((self._timed(self._compute), self._timed(self._memory)))
        end = time.perf_counter()
        self.spent += end - start
        self._due = end + INTERVAL_S

    def _polling(self, hook, fn):
        poll = self.poll

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            poll()
            return fn(*args, **kwargs)

        return wrapper

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in blocks."""
        return time.perf_counter() - self.spent

    def block_s(self) -> tuple[float, float]:
        """Mean times of the timed compute and memory parts so far."""
        compute, memory = zip(*self.samples)
        return statistics.fmean(compute), statistics.fmean(memory)

    def __enter__(self) -> "HostSampler":
        self.spent, self.samples, self._due = 0.0, [], 0.0
        install(self.hooks, self._polling, self._saved)
        return self

    def __exit__(self, *exc) -> None:
        restore(self._saved)
