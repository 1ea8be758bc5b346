"""Host-speed calibration with a fixed kernel that does not touch ampso.

On a shared 2-vCPU Xeon host the same code ran up to about 1.8x slower for
stretches of seconds to minutes, and CPU time grew with wall time, so the
slowdown cannot be subtracted.  It hits every instruction mix alike: a mix of small
numpy calls and Python bytecode, like an optimizer iteration, slows by the
same factor as the runs around it (measured: raw run time varied by 25 %,
its ratio to this kernel by 11 % per sample and 2-5 % over ten seconds).

The benchmark times this kernel before and after every run unit and scales
the unit's wall time by ``REFERENCE_S / kernel time``: the time the unit
would have taken at the speed where the kernel takes ``REFERENCE_S``.
Because the kernel is the benchmark's own code, a change to ampso cannot
move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.011  # defines the reference speed: about the kernel time on an unloaded 2-vCPU Xeon
_ROWS, _DIM, _BINS = 40, 10, 10


class Calibrator:
    def __init__(self):
        self._rng = np.random.default_rng(20200415)
        self._lower = np.full(_DIM, -100.0)
        self._upper = np.full(_DIM, 100.0)
        self._offsets = np.arange(_DIM) * _BINS

    def sample(self) -> float:
        """Wall seconds of one pass of the kernel (about 10 ms)."""
        start = time.perf_counter()
        rng, lower, upper = self._rng, self._lower, self._upper
        for _ in range(150):
            x = rng.uniform(size=(_ROWS, _DIM)) * 200.0 - 100.0
            y = np.clip(x * 1.3 - 0.2, lower, upper)
            cells = ((y - lower) * (_BINS / 200.0)).astype(np.intp)
            np.minimum(cells, _BINS - 1, out=cells)
            np.bincount((cells + self._offsets).ravel(), minlength=_DIM * _BINS)
            float(np.sum(y * y - 10.0 * np.cos(2.0 * np.pi * y)))
        total, table = 0, {}
        for i in range(60_000):
            total += i * i % 7
            table[i & 255] = total
        return time.perf_counter() - start

    def scale(self, before: float, after: float) -> float:
        """Factor that rescales a time taken between two kernel samples."""
        return REFERENCE_S / ((before + after) / 2.0)
