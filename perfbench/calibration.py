"""Host-speed reference: a fixed computation timed between ops.

The reference host's speed drifts by up to a factor of two over minutes
(see README.md), on every vCPU at once and with CPU time tracking wall time,
so ten runs taken twenty minutes apart can differ by a third with the same
code. The end-to-end times are therefore reported at the reference speed:
each run times `reference_seconds()` before each set-up probe and in bursts
between ops, and scales each time by NOMINAL_S / (median of the samples
taken around it; see run.py).

The reference uses numpy and the interpreter only, never dlamf, so no
change to the program can move it. Its mix mirrors what the workloads
spend time on: batched Hermitian eigendecompositions at N=24 and N=48,
normal draws, a complex matrix product and interpreted Python.
"""

from __future__ import annotations

import functools
import math
from time import perf_counter

import numpy as np

# A typical reference_seconds() on the reference host (2 vCPU Xeon VM); it
# only sets the scale of the reported times.
NOMINAL_S = 0.08


@functools.cache
def _inputs():
    rng = np.random.default_rng(20261017)

    def hermitian(batch, n):
        a = rng.standard_normal((batch, n, n)) \
            + 1j * rng.standard_normal((batch, n, n))
        return a @ a.conj().transpose(0, 2, 1)

    return (hermitian(64, 24), hermitian(8, 48), hermitian(1, 96)[0],
            np.empty(96 * 512))


def reference_seconds():
    """Wall time of one fixed unit of reference work.

    Its working set is a few MB, so that it adds little to a workload's
    peak resident set.
    """
    h24, h48, c, z = _inputs()
    t0 = perf_counter()
    gen = np.random.Generator(np.random.Philox(7))
    for _ in range(4):
        np.linalg.eigh(h24)
        np.linalg.eigh(h48)
        for _ in range(5):
            gen.standard_normal(out=z)
        c @ z.reshape(96, 512)
    acc = 0.0
    for i in range(150_000):
        acc += math.sqrt(i)
    return perf_counter() - t0
