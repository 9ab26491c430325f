"""Drift calibration against a fixed reference operation.

On a small shared VM the speed of the whole machine moves by tens of
percent within a minute, while the program's share of it does not. The
benchmark therefore runs a fixed reference operation next to every timed
operation and reports each timing as

    raw time / median(neighbouring reference times) * REFERENCE_NOMINAL_S

that is, as the time the operation would take on a machine where the
reference operation takes exactly its nominal duration ("at reference
speed").

The reference operation calls nothing in the program. It mixes a pure
Python loop with small numpy element-wise work and one small BLAS matrix
product, because the program is made of the same three kinds of work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Nominal duration of one reference operation, in seconds. Calibrated
#: times are expressed at this reference speed.
REFERENCE_NOMINAL_S = 1.0e-3


class Reference:
    """The reference operation and its fixed operands."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._image = rng.integers(0, 256, (128, 128)).astype(np.float64)
        self._rows = rng.integers(0, 127, 128 * 128)
        self._cols = rng.integers(0, 127, 128 * 128)
        self._matrix = rng.standard_normal((80, 80))
        self._table = {i: float(i) for i in range(64)}
        self.ticks: list[float] = []

    def run(self) -> float:
        """One reference operation; returns its raw duration in seconds."""
        start = time.perf_counter()
        # Interpreter work: a loop over small Python objects.
        total = 0.0
        table = self._table
        for i in range(2500):
            total += table[i & 63] * 0.5
        # Element-wise numpy work on an image-sized array: a gather, a
        # stencil and a histogram, as in cropping and texture descriptors.
        image = self._image
        sampled = image[self._rows, self._cols].reshape(128, 128)
        gradient = np.abs(sampled[1:, :] - sampled[:-1, :])
        codes = (gradient > 32.0).astype(np.int64) + 2 * (sampled[1:, :] > 127.0)
        total += float(np.bincount(codes.ravel(), minlength=4)[0])
        # Many small numpy calls, as in the solver's inner loop.
        v = image[0]
        for _ in range(40):
            v = np.where(v > 64.0, v * 0.5, v + 16.0)
            total += float(v[int(np.argmax(v))])
        # Small BLAS matrix products, as in kernel matrices. They stay
        # below the size at which OpenBLAS splits work across threads, so
        # the reference does not depend on how fast idle BLAS threads wake.
        product = self._matrix
        for _ in range(4):
            product = np.tanh(product @ self._matrix)
        total += float(product[0, 0])
        elapsed = time.perf_counter() - start
        if total != total:  # keeps the work observable
            raise AssertionError("reference operation produced NaN")
        return elapsed

    def burst(self, count: int) -> list[float]:
        return [self.run() for _ in range(count)]

    def tick(self) -> None:
        """One reference run inside a timed region, kept in `ticks`.

        The caller subtracts the ticks from the region's time, so the
        reference samples the machine throughout a long operation without
        adding to it.
        """
        self.ticks.append(self.run())


def calibrate(raw_s: float, reference_s: list[float]) -> float:
    """Scale a raw duration to reference speed."""
    return raw_s / statistics.median(reference_s) * REFERENCE_NOMINAL_S


def windowed(raw_s: list[float], reference_s: list[list[float]], half_width: int) -> list[float]:
    """Calibrate operation i by the reference runs next to operations
    i-half_width..i+half_width.

    `reference_s[i]` holds the reference runs made next to operation i. A
    window over neighbouring operations follows the machine's drift, which
    moves over seconds, while smoothing out the jitter of single reference
    runs.
    """
    out = []
    for i, raw in enumerate(raw_s):
        lo = max(0, i - half_width)
        hi = min(len(reference_s), i + half_width + 1)
        out.append(calibrate(raw, [r for runs in reference_s[lo:hi] for r in runs]))
    return out
