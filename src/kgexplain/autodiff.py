"""Minimal reverse-mode differentiation over numpy arrays.

A :class:`Tape` is an append-only list of :class:`Node` records; reverse
iteration is a valid reverse-topological order because operands always
precede their consumers. Every op accepts a mix of :class:`Node` operands
and plain numpy constants. When *no* operand is a Node the op falls
through to the identical numpy computation and returns a raw array, so
the same model code serves both differentiable and value-only forward
passes (bit-for-bit, since the op sequence is unchanged).

A tape lives for one forward/backward pass. Open it with
``with Tape() as tape:`` and run `backward` inside the block: leaving the
block empties the tape and cuts every node off its parents and adjoint, so
the pass's arrays are freed by refcounting the moment the block ends rather
than whenever the cyclic collector next runs. After a tape's block ends its
nodes can no longer be backpropagated; a node still referenced outside keeps
only its own value. Entering the block also has glibc's malloc keep freed
memory for the next pass instead of handing it back to the OS.

Hand-written ops join the same tape: an op computes its value from plain
arrays and, when an operand is a Node, appends one Node whose backward
returns the adjoint of each Node operand. An op that stands for several
uses of one operand may return a tuple of adjoints for it, which `backward`
adds one after another in the tuple's order, as the separate uses' nodes
would be in reverse tape order. These ops are hand-written:

- `explain.TesOp`, the explainer's edge scorer;
- `explain.PathLossOp`, the path term's power steps, walk masses and -log;
- `model.RgcnLayerOp`, one encoder layer;
- `model.TargetHeadOp`, the target's row gathers, decoder, sigmoid and -log;
- `model.KgcLossOp`, the training loss.

So a training or explainer epoch records a handful of nodes instead of one
per numpy operation.

Scalars are represented as 0-d or length-1 arrays; `backward` accepts any
single-element output. Forward values and backward adjoints are checked
for NaN/Inf and raise :class:`NumericError` naming the offending op.

Each value is checked once, where it is produced. A Node's value is checked
when the Node is made, unless its op passes ``checked=True`` because the
op's own checks already imply that the value is finite:

- `explain.TesOp`'s scores are the sigmoid of its checked logits;
- `model.RgcnLayerOp`'s output is the relu (or identity) of its checked
  pre-activation;
- `gather`, `take_row` and `segment_max` take entries and maxima of a
  Node's value, which was checked, and `put_rows` places them.

Scalar outputs keep their check, which costs next to nothing;
`explain.PathLossOp` needs it, since a negative mask can make its loss NaN.

A :class:`ParamStore` keeps its tensors in one buffer, so `Tape.params`
checks every parameter in one call and makes their leaves unchecked; only
when that check fails does it look for the first non-finite tensor, in
store order, and name it as `Tape.param` would, ``param:<name>``.

`backward` checks each adjoint piece as it flows into its parent, except
the first parent's adjoint when the op passes ``adjoint_checked=True``
because its backward has just checked that array itself:
`model.RgcnLayerOp`'s input adjoint, `model.KgcLossOp`'s entity adjoint and
`model.TargetHeadOp`'s adjoint.

log() clamps its argument to >= 1e-12 so -log(p) stays finite when a
probability collapses; the adjoint uses the clamped argument as well.
"""

from __future__ import annotations

import ctypes
import functools
import math

import numpy as np

from . import kernels
from .errors import ContractError, NumericError

LOG_CLAMP = 1e-12


def _all_finite(value):
    """True when every entry of `value` (an array or a scalar) is finite."""
    if isinstance(value, np.ndarray):
        return np.logical_and.reduce(np.isfinite(value), axis=None)
    return math.isfinite(value)


def _check_finite(value, op):
    if not _all_finite(value):
        raise NumericError(f"non-finite value produced by op '{op}'")


class Node:
    """One tape record. Its value is finite-checked here unless the op passes
    `checked=True` because its own checks already imply it, and `backward`
    checks the adjoint of its first parent unless the op passes
    `adjoint_checked=True` because its backward checks that one itself (see
    the module docstring)."""

    __slots__ = ("tape", "value", "parents", "bw", "grad", "op", "store", "pname",
                 "adjoint_checked")

    def __init__(self, tape, value, parents, bw, op, checked=False, adjoint_checked=False):
        if not checked:
            _check_finite(value, op)
        self.tape = tape
        self.value = value
        self.parents = parents
        self.bw = bw
        self.grad = None
        self.op = op
        self.store = None
        self.pname = None
        self.adjoint_checked = adjoint_checked
        tape.nodes.append(self)

    @property
    def shape(self):
        return np.shape(self.value)


@functools.cache
def _reuse_freed_heap():
    """Have glibc's malloc keep freed memory for the next pass (elsewhere a no-op).

    glibc maps blocks above its mmap threshold afresh and hands the free top of
    its heap back to the OS beyond its trim threshold. Both start at 128 KiB and
    rise only after the process frees a larger mapped block. Every pass frees
    its arrays when it ends, so the next pass faulted them in again unless
    something earlier had happened to free a big block: on a 7.4k-triple
    ego-graph, 611k minor page faults against 29k over 250 epochs, and 1.62 s
    against 1.39 s a job. These values are the largest glibc would pick itself.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


class Tape:
    """Owns the node list for one forward/backward pass; a context manager
    whose exit ends the pass (see the module docstring)."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self):
        _reuse_freed_heap()
        return self

    def __exit__(self, *exc):
        for node in self.nodes:
            node.parents = ()
            node.bw = None
            node.grad = None
        self.nodes.clear()

    def leaf(self, value, op="leaf") -> Node:
        return Node(self, np.asarray(value, dtype=np.float64), (), None, op)

    def param(self, store: "ParamStore", name: str, checked=False) -> Node:
        node = Node(self, store.params[name], (), None, f"param:{name}", checked)
        node.store = store
        node.pname = name
        return node

    def params(self, store: "ParamStore") -> dict:
        """A leaf per tensor of `store`, keyed by name, after one finite check
        of its buffer; when that fails, the first non-finite tensor in store
        order is named as `param` would name it."""
        if not _all_finite(store.flat):
            for name, value in store.params.items():
                _check_finite(value, f"param:{name}")
        return {name: self.param(store, name, checked=True) for name in store.params}


def _val(x):
    return x.value if isinstance(x, Node) else x


def _tape_of(*xs):
    for x in xs:
        if isinstance(x, Node):
            return x.tape
    return None


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, forward, bw_a, bw_b, op):
    va, vb = _val(a), _val(b)
    out = forward(va, vb)
    tape = _tape_of(a, b)
    if tape is None:
        return out
    parents, fns = [], []
    if isinstance(a, Node):
        parents.append(a)
        sa = np.shape(va)
        fns.append(lambda g: _unbroadcast(np.asarray(bw_a(g, va, vb)), sa))
    if isinstance(b, Node):
        parents.append(b)
        sb = np.shape(vb)
        fns.append(lambda g: _unbroadcast(np.asarray(bw_b(g, va, vb)), sb))
    return Node(tape, out, tuple(parents), lambda g: [f(g) for f in fns], op)


def _unary(a, forward, bw, op):
    va = _val(a)
    out = forward(va)
    if not isinstance(a, Node):
        return out
    return Node(a.tape, out, (a,), lambda g: [bw(g, va, out)], op)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g, "add")


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g, "sub")


def neg(a):
    return _unary(a, lambda x: -x, lambda g, x, o: -g, "neg")


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def matmul(a, b):
    va, vb = _val(a), _val(b)
    out = va @ vb
    tape = _tape_of(a, b)
    if tape is None:
        return out

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

    parents = tuple(x for x in (a, b) if isinstance(x, Node))
    return Node(tape, out, parents, bw, "matmul")


# ---------------------------------------------------------------------------
# gather / scatter


def gather(x, idx):
    """Row (2-D) or element (1-D) gather; adjoint is a scatter-add. An element
    gather takes the shape of `idx`, so an (E, 1) index gives an (E, 1) column."""
    idx = np.asarray(idx, dtype=np.int64)
    vx = _val(x)
    out = vx[idx]
    if not isinstance(x, Node):
        return out
    n = vx.shape[0]

    def bw(g):
        g = np.ascontiguousarray(g)
        if vx.ndim == 2:
            return [kernels.scatter_add_rows(g, idx, n)]
        return [kernels.scatter_add_vec(g.ravel(), idx.ravel(), n)]

    # rows of a checked Node's value are finite
    return Node(x.tape, out, (x,), bw, "gather", checked=True)


def scatter_add(rows, idx, n):
    """out[idx[e]] += rows[e]; the aggregation half of gather/scatter."""
    idx = np.asarray(idx, dtype=np.int64)
    v = _val(rows)
    if v.ndim == 2:
        out = kernels.scatter_add_rows(np.ascontiguousarray(v), idx, n)
    else:
        out = kernels.scatter_add_vec(np.ascontiguousarray(v), idx, n)
    if not isinstance(rows, Node):
        return out
    return Node(rows.tape, out, (rows,), lambda g: [g[idx]], "scatter_add")


def edge_spmv(u, vals, src, dst, n):
    """Row-vector x sparse-matrix product over an edge list (the power step)."""
    vu, vv = _val(u), _val(vals)
    out = kernels.edge_spmv(vu, vv, src, dst, n)
    tape = _tape_of(u, vals)
    if tape is None:
        return out

    def bw(g):
        g_u, g_vals = kernels.edge_spmv_bw(np.ascontiguousarray(g), vu, vv, src, dst)
        grads = []
        if isinstance(u, Node):
            grads.append(g_u)
        if isinstance(vals, Node):
            grads.append(g_vals)
        return grads

    parents = tuple(x for x in (u, vals) if isinstance(x, Node))
    return Node(tape, out, parents, bw, "edge_spmv")


def segment_max(vals, indptr, seg_of=None):
    """Per-segment max along the last axis, split at contiguous boundaries.

    `vals` is one row of values, or a batch of rows that share the segments.
    Ties route the adjoint to the first maximal element of the segment.
    `seg_of` is each element's segment; the explainer passes its
    `gc.pair_index`. Without it, it is derived from `indptr`, which the tests
    keep as the reference for the passed-in index.
    """
    v = _val(vals)
    out = np.maximum.reduceat(v, indptr[:-1], axis=-1)
    if seg_of is None:
        seg_of = np.repeat(np.arange(out.shape[-1]), np.diff(indptr))
    width = v.shape[-1]
    hit = np.where(v == np.take(out, seg_of, axis=-1), np.arange(width), width)
    argmax = np.minimum.reduceat(hit, indptr[:-1], axis=-1)
    if not isinstance(vals, Node):
        return out, argmax
    # each maximum's index in `v`, with its row's index in a batch
    at = argmax if v.ndim == 1 else (np.arange(v.shape[0])[:, None], argmax)

    def bw(g):
        gz = np.zeros_like(v)
        gz[at] = g
        return [gz]

    # the max of a checked Node's values is finite
    return Node(vals.tape, out, (vals,), bw, "segment_max", checked=True), argmax


def take_row(x, row):
    """Row `row` of a batch of rows (an array or a Node). The adjoint is -0.0
    in every other row: adding -0.0 leaves any float as it is, so the other
    rows' adjoints keep their bits (+0.0 would turn a -0.0 into +0.0)."""
    vx = _val(x)
    out = vx[row]
    if not isinstance(x, Node):
        return out

    def bw(g):
        gx = np.full(vx.shape, -0.0)
        gx[row] = g
        return [gx]

    # a row of a checked Node's value is finite
    return Node(x.tape, out, (x,), bw, "take_row", checked=True)


def put_rows(n, parts):
    """An (n,) vector with one value per row of a batch: `parts` pairs each
    value (a scalar or a vector, an array or a Node) with the row or rows it
    fills, and every other row holds -0.0, which adding leaves unchanged. The
    adjoint of each part is its rows of the vector's adjoint."""
    out = np.full(n, -0.0)
    for value, rows in parts:
        out[rows] = _val(value)
    nodes = [(x, rows) for x, rows in parts if isinstance(x, Node)]
    if not nodes:
        return out
    # the parts' values were checked
    return Node(nodes[0][0].tape, out, tuple(x for x, _ in nodes),
                lambda g: [g[rows] for _, rows in nodes], "put_rows", checked=True)


def reshape(a, shape):
    va = _val(a)
    out = va.reshape(shape)
    if not isinstance(a, Node):
        return out
    return Node(a.tape, out, (a,), lambda g: [g.reshape(va.shape)], "reshape")


# ---------------------------------------------------------------------------
# nonlinearities and reductions


def _sigmoid_value(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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


def norm(a):
    """Euclidean norm along the last axis: of all entries of a vector, of each
    row of a batch of rows; grad defined as 0 at the origin."""
    return _unary(
        a,
        lambda x: np.sqrt((x * x).sum(axis=-1)),
        lambda g, x, o: g[..., None] * x / np.maximum(o, 1e-30)[..., None],
        "norm",
    )


def sumall(a):
    return _unary(a, lambda x: x.sum(), lambda g, x, o: np.full(x.shape, g), "sum")


# ---------------------------------------------------------------------------
# parameters, backward, optimizer


class ParamStore:
    """Named float64 tensors with matching gradient accumulators, built once
    from the full dict of tensors.

    The tensors are views into one contiguous buffer, `flat`, in the order
    they were given, and their accumulators views into a second, `grad_flat`,
    so a finite check, an SGD step or a zeroing is one numpy call per store.
    Each tensor is cast into its view, so no other copy is kept. Changing a
    tensor in place changes `flat`; rebinding `params[name]` would not.
    """

    def __init__(self, tensors):
        shapes = {name: np.shape(value) for name, value in tensors.items()}
        self.flat = np.empty(sum(math.prod(shape) for shape in shapes.values()))
        self.grad_flat = np.zeros(self.flat.size)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in shapes.items():
            end = offset + math.prod(shape)
            self.params[name] = self.flat[offset:end].reshape(shape)
            self.params[name][...] = tensors[name]
            self.grads[name] = self.grad_flat[offset:end].reshape(shape)
            offset = end

    def zero_grads(self):
        self.grad_flat[...] = 0.0


def backward(tape: Tape, out: Node):
    """Accumulate d(out)/d(node) for every node, store-bound leaves included."""
    if not isinstance(out, Node) or out.tape is not tape or not tape.nodes:
        raise ContractError("backward target must be a Node on an open tape")
    if np.size(out.value) != 1:
        raise ContractError(f"backward requires a scalar output, got shape {out.shape}")
    out.grad = np.ones_like(np.asarray(out.value, dtype=np.float64))
    for node in reversed(tape.nodes):
        g = node.grad
        if g is None:
            continue
        if node.bw is not None:
            checked = node.adjoint_checked
            for parent, pg in zip(node.parents, node.bw(g)):
                # a tuple holds the adjoints of several uses, added in its order
                for piece in pg if isinstance(pg, tuple) else (pg,):
                    if type(piece) is not np.ndarray or piece.dtype != np.float64:
                        piece = np.asarray(piece, dtype=np.float64)
                    if not checked and not _all_finite(piece):
                        raise NumericError(f"NaN/Inf adjoint flowing into op '{parent.op}'")
                    parent.grad = piece if parent.grad is None else parent.grad + piece
                checked = False
        if node.store is not None:
            node.store.grads[node.pname] += g.reshape(node.store.grads[node.pname].shape)


def sgd_step(store: ParamStore, lr: float):
    """Plain gradient descent on the whole buffer; zeroes the accumulators
    afterwards. Each entry is `p - lr * g`, as a step per tensor would be.
    A step that overflows leaves Inf in the buffer, without a numpy warning;
    the store's next finite check (`Tape.params`, `save_checkpoint`) raises
    NumericError for it."""
    with np.errstate(over="ignore", invalid="ignore"):
        store.flat -= lr * store.grad_flat
    store.grad_flat[...] = 0.0


# ---------------------------------------------------------------------------
# finite differences


class FiniteDiffReport:
    def __init__(self, per_param, tol, step):
        self.per_param = per_param
        self.tol = tol
        self.step = step
        self.max_rel_err = max(per_param.values()) if per_param else 0.0
        self.passed = self.max_rel_err <= tol

    def __repr__(self):
        worst = max(self.per_param, key=self.per_param.get) if self.per_param else "-"
        return (
            f"FiniteDiffReport(passed={self.passed}, max_rel_err={self.max_rel_err:.3e}, "
            f"worst={worst!r}, tol={self.tol}, step={self.step})"
        )


def relative_error(analytic, numeric, floor=1e-4):
    """|a - f| / max(|a|, |f|, floor): relative above the floor, absolute below."""
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def finite_diff_check(loss_fn, store: ParamStore, step=1e-5, tol=1e-4,
                      floor=1e-4) -> FiniteDiffReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn(store, tape)`` must return the scalar loss as a Node when a
    tape is given, and as a plain float/0-d array when ``tape is None``
    (the ops fall through to raw numpy in that mode, so one definition
    serves both). `floor` bounds the relative-error denominator so
    near-zero gradients are compared absolutely at tol * floor.
    """
    if step <= 0:
        raise ContractError("finite-difference step must be positive")
    with Tape() as tape:
        out = loss_fn(store, tape)
        store.zero_grads()
        backward(tape, out)
    analytic = {name: store.grads[name].copy() for name in store.params}
    per_param = {}
    for name, p in store.params.items():
        worst = 0.0
        flat = p.ravel()
        a_flat = analytic[name].ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            f_hi = float(np.asarray(_val(loss_fn(store, None))).reshape(()))
            flat[i] = keep - step
            f_lo = float(np.asarray(_val(loss_fn(store, None))).reshape(()))
            flat[i] = keep
            fd = (f_hi - f_lo) / (2.0 * step)
            worst = max(worst, relative_error(a_flat[i], fd, floor))
        per_param[name] = worst
    store.zero_grads()
    return FiniteDiffReport(per_param, tol, step)
