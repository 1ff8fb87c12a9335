"""Kernel section: each public kernel dispatcher at 1k, 10k and 100k edges.

Only the dispatchers in `kgexplain.kernels` are called, so the section times
whatever backend the package selects and needs no backend API. Reports the
median milliseconds per call and the computed bytes the call moves.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracer import KERNEL_BYTES, KERNELS

SIZES = {"1k": 1000, "10k": 10000, "100k": 100000}
MIN_REPEATS = 5
BUDGET_S = 0.1  # per kernel and size


def build_case(n_edges, seed=0, dim=16):
    rng = np.random.default_rng(seed)
    n = max(n_edges // 10, 16)
    src = rng.integers(0, n, n_edges).astype(np.int64)
    dst = rng.integers(0, n, n_edges).astype(np.int64)
    vals = rng.random(n_edges)
    u = rng.random(n)
    g = rng.random(n)
    counts = rng.integers(0, 3, n).astype(np.int64)
    return {
        "edge_spmv": (u, vals, src, dst, n),
        "edge_spmv_bw": (g, u, vals, src, dst),
        "scatter_add_rows": (rng.random((n_edges, dim)), dst, n),
        "scatter_add_vec": (vals, dst, n),
        "walk_step": (counts, src, dst, n),
    }


def _median_ms(fn, args):
    fn(*args)
    times = []
    t_end = time.perf_counter() + BUDGET_S
    while len(times) < MIN_REPEATS or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def kernel_metrics():
    from kgexplain import kernels

    m = {}
    for label, n_edges in SIZES.items():
        case = build_case(n_edges)
        for k in KERNELS:
            m[f"kernels.bench.{k}.{label}_ms"] = _median_ms(getattr(kernels, k), case[k])
            m[f"kernels.bench.{k}.{label}_bytes"] = KERNEL_BYTES[k](*case[k])
    return m
