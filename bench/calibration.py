"""A reference kernel that puts timings on a steady scale.

The host this benchmark was built on changes speed by up to 2x over minutes
(other tenants share its cores): the same exact-verify cycle took 1.3 s in
one minute and 2.6 s in another, and a fixed loop slowed down with it.  Raw
wall time would therefore measure the host more than the program.

A ``SpeedProbe`` times a small fixed probe, owned by the benchmark and never
touched by changes to the program, right before and right after each timed
call, and scales the call's wall time by ``reference / probe``, where the
probe time is the mean of the two timings.  The default probe is ``kernel``
below, with reference ``REFERENCE``.  The result is in *reference seconds*:
the time the call would take on a host where the probe takes exactly its
reference.

The kernel mixes the three kinds of work the workloads do: exact
Gaussian-rational polynomial products in pure Python, small dense numpy
operations (batched matrix-vector products, 3x6 SVDs), and outer products
accumulated into a tensor larger than L2 cache.  On identical inputs it cut
the cycle-to-cycle spread from 10-18% to 5-8%.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction
from typing import Callable, Dict, Tuple

import numpy as np


def _random_terms(rng: random.Random, count: int) -> Dict[Tuple[int, ...], Tuple[Fraction, Fraction]]:
    terms = {}
    while len(terms) < count:
        exps = [0] * 6
        for _ in range(5):
            exps[rng.randrange(6)] += 1
        terms[tuple(exps)] = (Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                              Fraction(rng.randint(-9, 9)))
    return terms


_rng = random.Random(20261017)
_LEFT = _random_terms(_rng, 12)
_RIGHT = _random_terms(_rng, 24)
_TENSOR = np.random.default_rng(20261017).standard_normal((126, 35, 35))
_VECTOR = np.linspace(-1.0, 1.0, 35)
_FRAMES = np.random.default_rng(7).standard_normal((50, 3, 6))
_SLABS = np.zeros((24, 126, 126))  # 3 MB, above the 2 MB L2 of the build host
_ROW = np.linspace(0.0, 1.0, 126)

# Median kernel time on the build host while it ran fast.
REFERENCE = 0.0070


def kernel() -> None:
    """Exact products, small numpy operations and outer-product accumulation."""
    product: Dict[Tuple[int, ...], Tuple[Fraction, Fraction]] = {}
    for ea, (ar, ai) in _LEFT.items():
        for eb, (br, bi) in _RIGHT.items():
            exps = tuple(a + b for a, b in zip(ea, eb))
            re, im = ar * br - ai * bi, ar * bi + ai * br
            if exps in product:
                pr, pi = product[exps]
                product[exps] = (pr + re, pi + im)
            else:
                product[exps] = (re, im)
    for _ in range(30):
        (_TENSOR @ _VECTOR) @ _VECTOR
    for frame in _FRAMES:
        np.linalg.svd(frame, compute_uv=False)
    for i in range(100):
        _SLABS[i % len(_SLABS)] += np.outer(_ROW, _ROW)


class SpeedProbe:
    """Scales wall times by a probe's reference time over its measured time.

    ``probe`` is a fixed piece of work owned by the benchmark and
    ``reference`` its time on the build host while the host ran fast; by
    default the probe is ``kernel`` above.
    """

    def __init__(self, probe: Callable[[], object] = kernel, reference: float = REFERENCE):
        self.probe, self.reference = probe, reference
        probe()  # warm caches once; the first timing is not used
        self.mark()

    def mark(self) -> None:
        """Take the timing that the next `scale` averages with its own."""
        self.last = self.measure()

    def measure(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not probe time
        try:
            start = time.perf_counter()
            self.probe()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def scale(self, wall: float) -> float:
        """Reference seconds for a call of `wall` seconds that just ended."""
        before = self.last
        self.mark()
        return wall * self.reference / ((before + self.last) / 2)
