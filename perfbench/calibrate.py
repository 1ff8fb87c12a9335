"""Fixed reference work that measures how fast this core runs right now.

On a shared host one core's speed drifts by tens of percent over minutes,
and the two cores of the VM this was tuned on drift independently. So the
benchmark runs a short piece of reference work on the same core between
jobs (and before every set-up), and scales a job's time to a reference speed
by ``reference seconds / seconds the reference work took``.

There are two kinds, because contention slows interpreted code more than
array code: ``interpreter`` (a Python loop with tiny numpy calls, like the
planted suite's per-op tape overhead and the TSV parser) and ``arrays``
(matmuls, scatters and SpMVs on a few thousand rows, like an FB-scale
explainer epoch). Neither calls the package, so code changes do not move it.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0)
_A = _rng.random((200, 96))
_W = _rng.random((96, 64))
_IDX = _rng.integers(0, 100, 2000)
_ROWS = _rng.random((2000, 16))
_X = _rng.random((3000, 96))
_W2 = _rng.random((64, 32))
_DST = _rng.integers(0, 400, 3000)
_SRC = _rng.integers(0, 400, 3000)


def _interpreter():
    for _ in range(100):
        x = 0
        for i in range(300):
            x += i
        (_A @ _W).sum()
        out = np.zeros((100, 16))
        np.add.at(out, _IDX, _ROWS)


def _arrays():
    for _ in range(20):
        h = np.maximum(_X @ _W, 0.0) @ _W2
        out = np.zeros((400, 32))
        np.add.at(out, _DST, h)
        np.bincount(_DST, weights=h[:, 0] * out[_SRC, 0], minlength=400)


# kind -> (reference work, its seconds at the reference speed: a quiet 2-core VM)
KINDS = {"interpreter": (_interpreter, 0.05), "arrays": (_arrays, 0.05)}


def scale(kind):
    """Reference seconds over the seconds the reference work takes now."""
    work, reference_s = KINDS[kind]
    t0 = time.perf_counter()
    work()
    return reference_s / (time.perf_counter() - t0)
