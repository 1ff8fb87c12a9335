"""The generic tape ops and walk sums that no run records, kept as the
tests' oracles.

Each hand-written op of the package (`explain.TesOp`, `explain.PathLossOp`,
`model.RgcnLayerOp`, `model.KgcLossOp`, `model.TargetHeadOp`) is checked bit
for bit against a composition of generic ops, one per numpy operation. The
generic ops a run records live in `kgexplain.autodiff`; these are the rest.
Like those, each ends in one `autodiff.record` call, so it returns a raw
array when no operand is a Node.

`power_chain` and `on_path_probability` are the path term's walk sums on
one graph, without the tape: the values `explain.PathLossOp` must
reproduce for each row.

log() clamps its argument to >= 1e-12 (`autodiff.LOG_CLAMP`) so -log(p) stays
finite when a probability collapses; the adjoint uses the clamped argument as
well.
"""

import numpy as np

from kgexplain import kernels
from kgexplain.autodiff import LOG_CLAMP, Node, _binary, _sigmoid_value, _unary, _val, record
from kgexplain.explain import _walk_mass, _walk_mean
from kgexplain.kgraph import ComputationGraph


def leaf(tape, value, op="leaf") -> Node:
    return Node(tape, np.asarray(value, dtype=np.float64), (), None, op)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g, "sub")


def neg(a):
    return _unary(a, lambda x: -x, lambda g, x, o: -g, "neg")


def matmul(a, b):
    va, vb = _val(a), _val(b)
    out = va @ vb

    def bw(g):
        grads = []
        if isinstance(a, Node):
            if vb.ndim == 1:
                ga = np.outer(g, vb) if va.ndim == 2 else g * vb
            else:
                ga = (g @ vb.T) if va.ndim == 2 else vb @ g
            grads.append(ga.reshape(np.shape(va)))
        if isinstance(b, Node):
            if va.ndim == 1:
                gb = np.outer(va, g) if vb.ndim == 2 else g * va
            else:
                gb = va.T @ g
            grads.append(gb.reshape(np.shape(vb)))
        return grads

    return record(out, (a, b), bw, "matmul")


def scatter_add(rows, idx, n):
    """out[idx[e]] += rows[e]; the aggregation half of gather/scatter."""
    idx = np.asarray(idx, dtype=np.int64)
    v = _val(rows)
    if v.ndim == 2:
        out = kernels.scatter_add_rows(np.ascontiguousarray(v), idx, n)
    else:
        out = kernels.scatter_add_vec(np.ascontiguousarray(v), idx, n)
    return record(out, (rows,), lambda g: [g[idx]], "scatter_add")


def edge_spmv(u, vals, src, dst, n):
    """Row-vector x sparse-matrix product over an edge list (the power step)."""
    vu, vv = _val(u), _val(vals)
    out = kernels.edge_spmv(vu, vv, src, dst, n)

    def bw(g):
        g_u, g_vals = kernels.edge_spmv_bw(np.ascontiguousarray(g), vu, vv, src, dst)
        grads = []
        if isinstance(u, Node):
            grads.append(g_u)
        if isinstance(vals, Node):
            grads.append(g_vals)
        return grads

    return record(out, (u, vals), bw, "edge_spmv")


def reshape(a, shape):
    va = _val(a)
    return record(va.reshape(shape), (a,), lambda g: [g.reshape(va.shape)], "reshape")


def sigmoid(a):
    return _unary(a, _sigmoid_value, lambda g, x, o: g * o * (1.0 - o), "sigmoid")


def relu(a):
    return _unary(a, lambda x: np.maximum(x, 0.0), lambda g, x, o: g * (x > 0.0), "relu")


def log(a):
    return _unary(
        a,
        lambda x: np.log(np.maximum(x, LOG_CLAMP)),
        lambda g, x, o: g / np.maximum(x, LOG_CLAMP),
        "log",
    )


def powc(a, c):
    """x ** c for a constant exponent; grad defined as 0 where x == 0."""

    def fwd(x):
        with np.errstate(invalid="ignore"):
            return np.power(x, c)

    def bw(g, x, o):
        base = np.where(x == 0.0, 1.0, x)
        return g * np.where(x == 0.0, 0.0, c * np.power(base, c - 1.0))

    return _unary(a, fwd, bw, "powc")


def normalized_walk_mass(u, node: int, count: int, length: int):
    """(u[node] / count) ** (1 / length), shape (1,): the length-th root of
    the mean edge-score product over the `count` > 0 walks that reach `node`."""
    return _walk_mass(u, [node], count, length)


def power_chain(gc: ComputationGraph, values, start: int, L: int) -> list:
    """[u_1, ..., u_L] with u_l = e_start . M^l for the pair-score matrix M:
    u_l[k] sums edge-score products over all length-l walks start -> k.
    `values` holds one score per pair."""
    u = np.zeros(gc.num_nodes)
    u[start] = 1.0
    chain = []
    for _ in range(L):
        u = kernels.edge_spmv(u, values, gc.pair_src, gc.pair_dst, gc.num_nodes)
        chain.append(u)
    return chain


def on_path_probability(gc: ComputationGraph, values, L: int, walk_counts):
    """Mean over l = 1..L of the normalised walk mass from the target head to
    the tail, shape (1,). `walk_counts` is
    `adjacency_power_row(gc, gc.head_local, L)`."""
    return _walk_mean(power_chain(gc, values, gc.head_local, L), [gc.tail_local],
                      [int(c[gc.tail_local]) for c in walk_counts])
