"""Minimal reverse-mode differentiation over numpy arrays.

A :class:`Tape` is an append-only list of :class:`Node` records; reverse
iteration is a valid reverse-topological order because operands always
precede their consumers. Every op accepts a mix of :class:`Node` operands
and plain numpy constants and ends in one `record` call, the one rule by
which an op either returns a raw array or joins the tape.

A tape lives for one forward/backward pass. Open it with
``with Tape() as tape:`` and run `backward` inside the block, once: the
hand-written ops free each array they saved for their backward at its last
use there, as autograd libraries free a node's saved tensors once its
backward has run, so `backward` refuses a second pass over the same open
tape (which would also add every gradient twice). Leaving the block empties
the tape and cuts every node off its parents and adjoint, so the pass's
arrays are freed by refcounting the moment the block ends rather than
whenever the cyclic collector next runs. After a tape's block ends its
nodes can no longer be backpropagated; a node still referenced outside keeps
only its own value. Entering the block also has glibc's malloc keep freed
memory for the next pass instead of handing it back to the OS. Importing
the module runs numpy's bundled OpenBLAS on one thread (`_pin_blas_threads`).

The ops kept here are the ones a run records: `add`, `mul`, `gather`,
`segment_max`, `take_row`, `put_rows`, `norm` and `sumall`. The rest of an
epoch is hand-written ops:

- `explain.TesOp`, the explainer's edge scorer;
- `explain.PathLossOp`, the path term's power steps, walk masses and -log;
- `model.RgcnLayerOp`, one encoder layer;
- `model.TargetHeadOp`, the target's row gathers, decoder, sigmoid and -log;
- `model.KgcLossOp`, the training loss.

So a training or explainer epoch records a handful of nodes instead of one
per numpy operation. `take_row`'s adjoint, `put_rows` and `explain.PathLossOp`
place a batch's rows by one rule, `_in_rows`.

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
`model.TargetHeadOp`'s adjoint. `explain.TesOp` checks each layer's adjoint
through the column sums its bias gradient takes anyway, and the whole
adjoint only when a sum is not finite, since finite entries can overflow
their sum.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os

import numpy as np

from . import kernels
from .errors import ContractError, NumericError

# the ops' -log(p) reads max(p, LOG_CLAMP), so the loss stays finite when p
# collapses; their adjoints divide by the same clamped p
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


def _pin_blas_threads():
    """Run numpy's bundled OpenBLAS on one thread (elsewhere a no-op).

    OpenBLAS splits a product's inner sum across its threads, and so rounds
    differently at each thread count: on an ego-graph of a few thousand
    edges, `TesOp`'s weight gradients (whose inner dimension is the edge
    count) differed between OPENBLAS_NUM_THREADS 1 and 2. One thread makes
    every output the same bits whatever that variable says, and leaves the
    other cores to worker processes (see `metrics._fork_map`).
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(name for name in os.listdir(libs) if "openblas" in name)
    except OSError:
        return
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))  # the copy numpy has loaded
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = (ctypes.c_int,)
                setter.restype = None
                setter(1)
                return


_pin_blas_threads()


class Tape:
    """Owns the node list for one forward/backward pass; a context manager
    whose exit ends the pass. `backpropagated` is set by the pass's one
    `backward` (see the module docstring)."""

    __slots__ = ("nodes", "backpropagated")

    def __init__(self):
        self.nodes: list[Node] = []
        self.backpropagated = False

    def __enter__(self):
        _reuse_freed_heap()
        return self

    def __exit__(self, *exc):
        for node in self.nodes:
            node.parents = ()
            node.bw = None
            node.grad = None
        self.nodes.clear()
        self.backpropagated = False

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


def record(value, operands, bw, op, checked=False, adjoint_checked=False):
    """The end of every op. `value`, which the op computed from plain arrays,
    is returned itself when no operand is a Node, so the same model code
    serves differentiable and value-only passes, bit for bit. Otherwise one
    Node is appended to the first Node operand's tape, whose parents are the
    Node operands in order and whose `bw(g)` returns one adjoint per parent.
    For a parent that the op uses several times, `bw` may return a tuple of
    adjoints, which `backward` adds one after another in the tuple's order,
    as the separate uses' nodes would be in reverse tape order. `checked` and
    `adjoint_checked` are as in :class:`Node`."""
    parents = tuple([x for x in operands if isinstance(x, Node)])
    if not parents:
        return value
    return Node(parents[0].tape, value, parents, bw, op, checked, adjoint_checked)


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

    def bw(g):
        return [_unbroadcast(np.asarray(f(g, va, vb)), np.shape(v))
                for x, v, f in ((a, va, bw_a), (b, vb, bw_b)) if isinstance(x, Node)]

    return record(forward(va, vb), (a, b), bw, op)


def _unary(a, forward, bw, op):
    va = _val(a)
    out = forward(va)
    return record(out, (a,), lambda g: [bw(g, va, out)], op)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g, "add")


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


# ---------------------------------------------------------------------------
# indexing


def gather(x, idx):
    """Row (2-D) or element (1-D) gather; adjoint is a scatter-add. An element
    gather takes the shape of `idx`, so an (E, 1) index gives an (E, 1) column."""
    idx = np.asarray(idx, dtype=np.int64)
    vx = _val(x)

    def bw(g):
        g = np.ascontiguousarray(g)
        if vx.ndim == 2:
            return [kernels.scatter_add_rows(g, idx, vx.shape[0])]
        return [kernels.scatter_add_vec(g.ravel(), idx.ravel(), vx.shape[0])]

    # rows of a checked Node's value are finite
    return record(vx[idx], (x,), bw, "gather", checked=True)


def segment_max(vals, indptr, seg_of):
    """Per-segment max along the last axis, split at contiguous boundaries.

    `vals` is one row of values, or a batch of rows that share the segments.
    Ties route the adjoint to the first maximal element of the segment.
    `seg_of` is each element's segment; the explainer passes its
    `gc.pair_index`.
    """
    v = _val(vals)
    out = np.maximum.reduceat(v, indptr[:-1], axis=-1)
    width = v.shape[-1]
    hit = np.where(v == np.take(out, seg_of, axis=-1), np.arange(width), width)
    argmax = np.minimum.reduceat(hit, indptr[:-1], axis=-1)

    def bw(g):
        # each maximum's index in `v`, with its row's index in a batch
        at = argmax if v.ndim == 1 else (np.arange(v.shape[0])[:, None], argmax)
        gz = np.zeros_like(v)
        gz[at] = g
        return [gz]

    # the max of a checked Node's values is finite
    return record(out, (vals,), bw, "segment_max", checked=True), argmax


def _in_rows(x, rows, shape):
    """`x`, one entry or row per row of the ascending `rows`, as a batch of
    `shape`: `x` reshaped when `rows` are every row, else -0.0 in the other
    rows. Adding -0.0 leaves any float as it is (+0.0 would turn a -0.0 into
    +0.0), so the other rows keep their bits."""
    if len(rows) == shape[0]:
        return x.reshape(shape)
    out = np.full(shape, -0.0)
    out[rows] = x.reshape(len(rows), *shape[1:])
    return out


def take_row(x, row):
    """Row `row` of a batch of rows (an array or a Node)."""
    vx = _val(x)
    # a row of a checked Node's value is finite
    return record(vx[row], (x,), lambda g: [_in_rows(g, [row], vx.shape)], "take_row",
                  checked=True)


def put_rows(values, rows, n):
    """An (n,) vector of `values`, one scalar (an array or a Node) per row of
    the ascending `rows`; each value's adjoint is its row of the vector's."""
    out = _in_rows(np.array([_val(v) for v in values]), rows, (n,))
    # the values were checked
    return record(out, values,
                  lambda g: [g[row] for v, row in zip(values, rows) if isinstance(v, Node)],
                  "put_rows", checked=True)


# ---------------------------------------------------------------------------
# nonlinearities and reductions


def _sigmoid_value(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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

    def __reduce__(self):
        # pickled as its tensors, so that a copy is one buffer again (a worker
        # process sends its results this way)
        return ParamStore, (self.params,)


def backward(tape: Tape, out: Node):
    """Accumulate d(out)/d(node) for every node, store-bound leaves included.
    A tape is backpropagated once (see the module docstring)."""
    if not isinstance(out, Node) or out.tape is not tape or not tape.nodes:
        raise ContractError("backward target must be a Node on an open tape")
    if np.size(out.value) != 1:
        raise ContractError(f"backward requires a scalar output, got shape {out.shape}")
    if tape.backpropagated:
        raise ContractError("a tape is backpropagated once: its ops free what they saved "
                            "as their backward runs")
    tape.backpropagated = True
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
