"""A fixed reference kernel, timed between stages to gauge the machine's speed.

The host's speed is not steady: the same code runs at one of two speeds, about
1.7x apart, switching every 0.1-2 s, so raw walls of a stage spread by 25-35%.
The runner times this kernel right before and right after every untraced stage
and divides the stage wall by the mean of the two, so the end-to-end timings
are in reference units ("ref"): how many times longer than the kernel a stage
takes on the same machine at the same moment. A slower program raises that
ratio; a slower machine raises both sides of it. The ratio tracks the speed
best for short stages, which is why the workloads keep every stage under a
second.

The kernel mixes what the iad stages spend their time on: Python float
arithmetic with ``math.lgamma``, numpy calls on small arrays (a 2-32-32-3
forward pass and its gradient), and a digamma-like series over a 150 000-element
array, as in the ``verify`` lemmas. The slow state hurts the small-array parts
more than the bulk one: timed against the small-array parts alone, a ``verify``
wall grows only ~0.6 times as fast in log terms, and its ratio then moves with
the share of the run spent in the slow state. With the bulk part at ~40% of the
kernel, every stage's wall grows ~0.8-1.1 times as fast as the kernel's. Its
inputs are fixed and it calls nothing of ``iad``, so no change to the package
can move it. One call takes ~25-45 ms on a 2.1 GHz Xeon vCPU, depending on the
host's state.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((32, 2))
_W1 = _RNG.standard_normal((2, 32))
_W2 = _RNG.standard_normal((32, 32)) * 0.2
_W3 = _RNG.standard_normal((32, 3))
_VALUES = [float(v) for v in _RNG.uniform(0.5, 20.0, 300)]
_BULK = 1.0 + _RNG.uniform(1e-3, 50.0, 150_000)


def _python_floats() -> float:
    acc = 0.0
    for _ in range(100):
        for v in _VALUES:
            acc += math.lgamma(v) + math.log(v) * v / (v + 1.0)
    return acc


def _small_numpy() -> float:
    acc = 0.0
    for _ in range(300):
        h1 = np.tanh(_X @ _W1)
        h2 = np.tanh(h1 @ _W2)
        a = np.exp(h2 @ _W3) + 1.0
        s = a.sum(axis=1, keepdims=True)
        g = (a / s - 0.5) @ _W3.T * (1.0 - h2 * h2)
        acc += float(np.log(s).sum()) + float(g.sum())
    return acc


def _bulk_numpy() -> float:
    # digamma by upward recurrence to y >= 6, then its asymptotic series
    y = _BULK.copy()
    acc = np.zeros_like(y)
    small = y < 6.0
    while np.any(small):
        acc[small] -= 1.0 / y[small]
        y[small] += 1.0
        small = y < 6.0
    u = 1.0 / (y * y)
    psi = acc + np.log(y) - 0.5 / y - u * (1.0 / 12.0 - u * (1.0 / 120.0 - u / 252.0))
    return float(psi.sum())


def reference_s() -> float:
    """Wall seconds of one run of the kernel."""
    t0 = perf_counter()
    _python_floats()
    _small_numpy()
    _bulk_numpy()
    return perf_counter() - t0
