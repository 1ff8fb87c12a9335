"""Hot numeric kernels: edge-list SpMV and scatter/gather reductions.

Each kernel is one numpy call over the whole edge list, so results are
deterministic for a given input order. All index arrays are int64; float
data is float64, walk counts are int64.
"""

from __future__ import annotations

import numpy as np


def edge_spmv(u, vals, src, dst, n):
    """out[j] = sum over edges e with dst[e]=j of u[src[e]] * vals[e]."""
    return np.bincount(dst, weights=u[src] * vals, minlength=n)


def edge_spmv_bw(g_out, u, vals, src, dst):
    """Adjoints of edge_spmv w.r.t. u and vals."""
    g_u = np.bincount(src, weights=vals * g_out[dst], minlength=u.shape[0])
    g_vals = u[src] * g_out[dst]
    return g_u, g_vals


def scatter_cells(idx, d):
    """The flattened (row, column) cells that `scatter_add_rows` sums an
    (E, d) block into; for d = 1 they are `idx` itself. An index that is
    fixed for a run has its cells built once and passed as `cells=`."""
    return (idx[:, None] * d + np.arange(d)).ravel()


def scatter_add_rows(rows, idx, n, *, cells=None):
    """out[idx[e]] += rows[e] for a (E, d) row block.

    One bincount over flattened (row, column) cells: each output cell sums
    its entries in edge order, as np.add.at does, so the result is identical.
    `cells` is `scatter_cells(idx, d)` when the caller keeps it.
    (bincount returns int64 for an empty input, hence the cast.)
    """
    d = rows.shape[1]
    if cells is None:
        cells = scatter_cells(idx, d)
    out = np.bincount(cells, weights=rows.ravel(), minlength=n * d)
    return out.astype(np.float64, copy=False).reshape(n, d)


def scatter_add_vec(vals, idx, n):
    """out[idx[e]] += vals[e] for a (E,) vector."""
    return np.bincount(idx, weights=vals, minlength=n)


def walk_step(counts, src, dst, n):
    """One integer walk-count propagation step along directed edges."""
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, dst, counts[src])
    return out
