"""GNN encoder + KGE decoder link-prediction model.

The encoder is a relational message-passing network with basis
decomposition: each layer sends, along every stored triple, the source
embedding through the relation's basis-combined weight, optionally scaled
by that edge's mask value, then mean-aggregates incoming messages by
in-degree count (not mask sum) and adds an unmasked self-loop term.
ReLU between layers, identity on the last.

Each encoder layer is one hand-written op on the autodiff tape
(`RgcnLayerOp`), and so are the training loss (`KgcLossOp`: the row
gathers, the decoder, the sigmoid and the clamped cross-entropy) and the
prediction head of one target (`TargetHeadOp`: the head and tail rows, the
decoder, the sigmoid and the clamped -log). Their backwards repeat, in the
same order, the numpy operations that the generic autodiff ops would run,
so trained checkpoints and explainer masks are the same bytes as with the
generic-op composition the tests keep as their oracle. Given only arrays
the ops return arrays, so masked and unmasked, differentiable and
value-only passes share one implementation: `score`, F+, F-, HDR:m and the
`prob` filter read the same head op as the explainer. Nothing depends on
the edge count: on an edgeless graph the message terms are empty arrays.

Scoring one target reads only the head and tail rows of the last layer, so
`TargetScorer` runs each layer on the target's receptive field: layer l of
L keeps the edges whose dst lies within L-1-l in-hops of {head, tail}. It
finds the field and builds its layer ops once, so the explainer does that
once per job rather than once per epoch. The per-edge mask is gathered once
over all edges and each layer takes its rows from that, so the scores equal
the full pass bit for bit, and the mask gradients do too wherever it was
checked (the tests allow rtol 1e-12). `encode`, `rank_target` and training
need every row and run the full pass.

Training builds what its epochs only read once per run: the layer ops
(each with the scatter cells of its edge indices), the loss op (with those
of the relation rows) and the repeated heads and tails the negatives are
drawn from. An epoch then records and backpropagates its nodes and steps.
"""

from __future__ import annotations

import functools
import io
import json
import math
import operator
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import ParamStore, Tape, backward, sgd_step
from .errors import ContractError, DataError, NumericError
from .kgraph import ComputationGraph, KnowledgeGraph, TargetTriple, full_graph, hop_distances

DECODERS = ("transe", "distmult")

CHECKPOINT_MAGIC = b"PLNK"
CHECKPOINT_VERSION = 1
CHECKPOINT_KEYS = frozenset({
    "dim", "layers", "bases", "decoder", "num_entities", "num_relations",
    "entity_vocab_sha256", "relation_vocab_sha256", "tensors",
})


@dataclass(frozen=True)
class TripleScore:
    raw: float
    probability: float


def _check_model_settings(dim, layers, bases, decoder):
    if decoder not in DECODERS:
        raise ContractError(f"decoder must be one of {DECODERS}, got {decoder!r}")
    if dim < 2:
        raise ContractError("embedding dim must be >= 2")
    if layers < 1:
        raise ContractError("layers must be >= 1")
    if bases < 1:
        raise ContractError("bases must be >= 1")


@dataclass
class ModelConfig:
    dim: int = 16
    layers: int = 2
    bases: int = 2
    decoder: str = "distmult"
    epochs: int = 300
    lr: float = 0.5
    negatives: int = 4
    seed: int = 0

    def validate(self):
        _check_model_settings(self.dim, self.layers, self.bases, self.decoder)
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.negatives < 1:
            raise ContractError("negatives must be >= 1")
        if not self.lr > 0:
            raise ContractError(f"lr must be positive, got {self.lr}")
        if not np.isfinite(self.lr):
            raise ContractError(f"lr must be finite, got {self.lr}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")


def param_count(num_entities, num_relations, dim, layers, bases):
    """The number of floats in a `KgcModel`'s tensors, in closed form."""
    return ((num_entities + num_relations) * dim
            + layers * ((1 + bases) * dim * dim + num_relations * bases))


def _param_shapes(num_entities, num_relations, dim, layers, bases):
    """Each tensor's shape, in store, draw and checkpoint order."""
    shapes = {"ent": (num_entities, dim), "rel": (num_relations, dim)}
    for layer in range(layers):
        shapes[f"self_{layer}"] = (dim, dim)
        for b in range(bases):
            shapes[f"basis_{layer}_{b}"] = (dim, dim)
        shapes[f"coef_{layer}"] = (num_relations, bases)
    return shapes


def _physical_memory():
    """Bytes of physical memory, or 0 where `os.sysconf` cannot tell."""
    try:
        return max(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), 0)
    except (AttributeError, OSError, ValueError):
        return 0


def _refuse_beyond_memory(nbytes, what):
    """ContractError when `nbytes`, a lower bound on what a run needs, exceed
    physical memory; skipped where `os.sysconf` cannot tell."""
    physical = _physical_memory()
    if 0 < physical < nbytes:
        raise ContractError(f"{what} need {nbytes} bytes, more than the {physical} bytes "
                            "of physical memory")


def _refuse_model_beyond_memory(num_entities, num_relations, dim, layers, bases):
    """ContractError when a model's parameters and gradients, 16 bytes per
    float, exceed physical memory. `KgcModel` checks its settings with it,
    and a suite its model's before it generates an instance."""
    settings = (num_entities, num_relations, dim, layers, bases)
    _refuse_beyond_memory(16 * param_count(*settings), "model parameters and gradients "
                          "(entities={}, relations={}, dim={}, layers={}, bases={})"
                          .format(*settings))


class KgcModel:
    """Entity/relation embeddings plus encoder weights and a decoder tag."""

    def __init__(self, num_entities, num_relations, dim=16, layers=2, bases=2,
                 decoder="distmult", seed=0):
        self._settle(num_entities, num_relations, dim, layers, bases, decoder)
        _refuse_model_beyond_memory(self.num_entities, self.num_relations, self.dim, self.layers,
                                    self.bases)
        rng = np.random.default_rng(seed)
        scale, coef_scale = 1.0 / np.sqrt(dim), 1.0 / np.sqrt(bases)
        self.store = ParamStore({
            name: rng.normal(0.0, coef_scale if name.startswith("coef_") else scale, size=shape)
            for name, shape in _param_shapes(num_entities, num_relations, dim, layers,
                                             bases).items()
        })

    def _settle(self, num_entities, num_relations, dim, layers, bases, decoder):
        """Check and keep the settings."""
        _check_model_settings(dim, layers, bases, decoder)
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self.dim = int(dim)
        self.layers = int(layers)
        self.bases = int(bases)
        self.decoder = decoder
        self.final_loss = None


def _as_pair_values(mask, gc: ComputationGraph):
    """Accept an EdgeScoreMatrix-like object or a raw per-pair vector."""
    values = getattr(mask, "values", mask)
    if hasattr(mask, "pair_src"):
        if len(mask.pair_src) != gc.num_pairs or not (
            np.array_equal(mask.pair_src, gc.pair_src)
            and np.array_equal(mask.pair_dst, gc.pair_dst)
        ):
            raise ContractError("mask support does not match the computation graph")
    vals = ad._val(values)
    if np.shape(vals) != (gc.num_pairs,):
        raise ContractError(
            f"mask has {np.shape(vals)} values for {gc.num_pairs} edge positions"
        )
    return values


def _receptive_field(gc: ComputationGraph, rows, layers: int):
    """Per-layer edge rows that reach the output rows `rows` of an encoder of
    `layers` layers: layer l keeps the edges whose dst lies within
    layers - 1 - l in-hops of `rows` (hop distances over dst -> src). None
    stands for every edge, so a field that covers the graph costs nothing."""
    reach = hop_distances(gc.num_nodes, gc.dst, gc.src, rows, layers - 1)[gc.dst]
    reach[reach < 0] = layers  # no layer reaches the rows from there
    fields = []
    for layer in range(layers):
        edges = np.flatnonzero(reach < layers - layer)
        fields.append(None if edges.size == gc.num_edges else edges)
    return fields


class RgcnLayerOp:
    """One encoder layer as one tape op with a hand-written backward.

    Built for one graph and one edge subset `keep` of it (None for every
    edge). A call takes h, the parameter dict and the (E, 1) edge mask or
    None; each may hold Nodes or arrays. It returns a Node whose parents are
    the Node operands, or a plain array when there is none, so training, the
    frozen encode and the masked target score run one implementation. The op
    keeps no buffers across calls.

    Only the pre-activation is finite-checked in the forward (relu(-inf) is
    0, and every other intermediate reaches it), as `rgcn:layer<l>`, so the
    output Node is not checked again; the input adjoint is checked as
    `rgcn:layer<l> adjoint`, and only there. The scatter cells of `dst` and
    `src` are built once per op, and so are the coefficient cells
    `rel * bases + b`, which the coefficient adjoint sums into in one
    scatter; the one-column scatter along `keep` takes its indices as cells.
    """

    def __init__(self, model: KgcModel, gc: ComputationGraph, layer: int, keep=None):
        self.name = f"rgcn:layer{layer}"
        self.names = (f"self_{layer}", f"coef_{layer}",
                      *(f"basis_{layer}_{b}" for b in range(model.bases)))
        self.relu = layer < model.layers - 1
        self.n, self.num_edges = gc.num_nodes, gc.num_edges
        src, dst, rel = gc.src, gc.dst, gc.rel
        if keep is not None:
            if keep.size == 1:
                # numpy multiplies a one-row matrix with a BLAS kernel that
                # rounds differently from the many-row product, so a lone edge
                # takes a second one, whose dst lies outside the field
                keep = np.union1d(keep, [int(keep[0] == 0)])
            src, dst, rel = src[keep], dst[keep], rel[keep]
        self.keep, self.src, self.dst = keep, src, dst
        self.dim = model.dim
        self.dst_cells = kernels.scatter_cells(dst, model.dim)
        # coef[r, b] is row r * bases + b of the (R * bases, 1) view of coef
        self.rel, self.coef_cells = rel, kernels.scatter_cells(rel, model.bases)
        self.coef_rows = [self.coef_cells[b::model.bases] for b in range(model.bases)]
        self.inv_deg = (1.0 / np.maximum(gc.in_degree, 1)).reshape(self.n, 1)
        self.fixed = None

    @functools.cached_property
    def src_cells(self):
        """Only the input adjoint scatters along `src`, so a value-only op
        never builds these cells."""
        return kernels.scatter_cells(self.src, self.dim)

    def _messages(self, vh, vc, vb):
        """hs, the products hs @ basis_b, their coefficient columns and the
        unmasked message, which sums the basis messages in ascending b."""
        coef_col = vc.reshape(-1, 1)
        hs = vh[self.src]
        mms, cgs, msg = [], [], None
        for b, rows in enumerate(self.coef_rows):
            mms.append(hs @ vb[b])
            cgs.append(coef_col[rows])
            term = mms[b] * cgs[b]
            msg = term if msg is None else msg + term
        return hs, mms, cgs, msg

    @np.errstate(over="ignore", invalid="ignore")
    def fix_input(self, h, params):
        """Compute the unmasked message and the self term of the array input
        `h` under the array weights in `params` once. Later calls given the
        same `h` and weight arrays reuse them, so those arrays must not change
        in place. Only these two are kept: the gathered rows, basis products
        and coefficient columns feed only the adjoints of h and the weights,
        which arrays never have."""
        weights = [params[name] for name in self.names]
        w_self, coef, *basis = weights
        self.fixed = (h, weights, self._messages(h, coef, basis)[3], h @ w_self)

    # Overflow surfaces as the finite checks' NumericError, not as a warning.
    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, h, params, mask=None):
        weights = [params[name] for name in self.names]
        w_self, coef, *basis = weights
        vh, vw, vc = ad._val(h), ad._val(w_self), ad._val(coef)
        vb = [ad._val(b) for b in basis]
        fixed = self.fixed
        if fixed is not None and h is fixed[0] and all(map(operator.is_, weights, fixed[1])):
            hs = mms = cgs = None  # read only by adjoints that array operands lack
            msg, self_term = fixed[2], fixed[3]
        else:
            hs, mms, cgs, msg = self._messages(vh, vc, vb)
            self_term = vh @ vw
        vm = None if mask is None else ad._val(mask)
        if vm is not None and self.keep is not None:
            vm = vm[self.keep]
        sent = msg if vm is None else msg * vm
        agg = kernels.scatter_add_rows(sent, self.dst, self.n, cells=self.dst_cells)
        pre = self_term + agg * self.inv_deg
        ad._check_finite(pre, self.name)
        out = np.maximum(pre, 0.0) if self.relu else pre
        operands = (h, w_self, coef, *basis, mask)
        need = [isinstance(x, ad.Node) for x in operands]

        def bw(g):
            with np.errstate(over="ignore", invalid="ignore"):
                # Bit for bit the adjoints of the generic-op composition (see the
                # module docstring), taken in its reverse tape order: the forward
                # sums the basis messages in ascending b, so the g_mm @ basis_b.T
                # terms of the hs adjoint add up in descending b; the coefficient
                # adjoint is the row sum _unbroadcast takes, and its per-basis
                # scatters fill disjoint cells, so they are one scatter; each
                # gather adjoint is a bincount scatter.
                adj = [None] * len(operands)
                if self.relu:
                    g = g * (pre > 0.0)
                g_msg = (g * self.inv_deg)[self.dst]
                if need[-1]:
                    g_vm = (g_msg * msg).sum(axis=1, keepdims=True)
                    adj[-1] = (g_vm if self.keep is None
                               else kernels.scatter_add_rows(g_vm, self.keep, self.num_edges,
                                                             cells=self.keep))
                if vm is not None and (need[0] or any(need[2:-1])):
                    g_msg = g_msg * vm
                g_hs = None
                if need[2]:
                    g_cg = np.empty((len(self.rel), len(vb)))
                for b in reversed(range(len(vb))):
                    if need[2]:
                        g_cg[:, b] = (g_msg * mms[b]).sum(axis=1)
                    if need[0] or need[3 + b]:
                        g_mm = g_msg * cgs[b]
                        if need[3 + b]:
                            adj[3 + b] = hs.T @ g_mm
                        if need[0]:
                            g_hs = g_mm @ vb[b].T if g_hs is None else g_hs + g_mm @ vb[b].T
                if need[0]:
                    adj[0] = (kernels.scatter_add_rows(g_hs, self.src, self.n, cells=self.src_cells)
                              + g @ vw.T)
                    ad._check_finite(adj[0], f"{self.name} adjoint")
                if need[1]:
                    adj[1] = vh.T @ g
                if need[2]:
                    adj[2] = kernels.scatter_add_rows(g_cg, self.rel, vc.shape[0],
                                                      cells=self.coef_cells)
                return [a for a, wanted in zip(adj, need) if wanted]

        return ad.record(out, operands, bw, self.name, checked=True, adjoint_checked=need[0])


def layer_ops(model: KgcModel, gc: ComputationGraph, rows=None) -> list:
    """One `RgcnLayerOp` per encoder layer: on every edge, or with `rows`
    (local node indices) on the edges of the rows' receptive field."""
    fields = [None] * model.layers if rows is None else _receptive_field(gc, rows, model.layers)
    return [RgcnLayerOp(model, gc, layer, keep) for layer, keep in enumerate(fields)]


def encode_operands(model: KgcModel, gc: ComputationGraph, mask=None, operands=None,
                    layers=None, h=None):
    """Message passing over gc; returns the (n, d) node-embedding matrix.

    `operands` maps parameter names to Nodes (training) or is None, in
    which case the model's raw arrays are used (frozen weights). `mask`
    may be an EdgeScoreMatrix, a per-pair vector/Node, or None. Overflow
    raises the ops' NumericError without a numpy warning first.

    `layers` are the `layer_ops` to run, every edge's by default. Built for
    some rows' receptive field, they give a result that equals the full
    pass bit for bit at those rows and is meaningless elsewhere. `h` is the
    first layer's input, by default the graph's rows of the entity table.
    """
    p = operands if operands is not None else model.store.params
    mask_vec = None if mask is None else _as_pair_values(mask, gc)
    if h is None:
        h = ad.gather(p["ent"], gc.nodes)
    edge_mask = None if mask_vec is None else ad.gather(mask_vec, gc.pair_index[:, None])
    for op in layers or layer_ops(model, gc):
        h = op(h, p, edge_mask)
    return h


def encode(model: KgcModel, gc: ComputationGraph, mask=None):
    """Value-only forward pass (frozen weights); returns an (n, d) array."""
    return ad._val(encode_operands(model, gc, mask))


def _decode_rows(decoder, H, R, T):
    """Row-wise decoder scores of (E, d) stacks (a (d,) operand broadcasts),
    and the intermediates the adjoints read. The package's one decoder
    forward: `KgcLossOp`, `TargetHeadOp` and `rank_target` all call it."""
    if decoder == "transe":
        x = (H + R) - T
        sq = (x * x).sum(axis=1)
        with np.errstate(invalid="ignore"):
            return -np.power(sq, 0.5), (x, sq)
    if decoder == "distmult":
        hr = H * R
        return (hr * T).sum(axis=1), (hr,)
    raise ContractError(f"unknown decoder {decoder!r}")


class KgcLossOp:
    """The training loss as one tape op with a hand-written backward.

    One call gathers the head, relation and tail rows of every scored
    triple, decodes them, and returns the binary cross-entropy of the first
    `n_pos` (positives) and the rest (negatives), each side averaged and
    weighted 1/2 regardless of the ratio. Probabilities are clamped at
    `autodiff.LOG_CLAMP` inside the logs, and so are the adjoints, as the
    tests' generic `log` op does. The raw scores are finite-checked as `kgc_loss`,
    since the sigmoid and the clamp would turn -inf into a finite loss; the
    entity adjoint as `kgc_loss adjoint`, and only there.

    A node's backward runs once (see `autodiff.backward`) and drops each
    (rows, d) block at its last use: the gathered tail, relation and head
    rows and the decoder's saved intermediate as soon as the row adjoints
    that read them are formed (TransE's read none of the gathered rows), and
    each row adjoint once it is scattered, tails first, then heads.
    """

    def __init__(self, model: KgcModel, rels, n_pos: int):
        self.decoder = model.decoder
        self.rels = rels
        self.rel_cells = kernels.scatter_cells(rels, model.dim)
        self.num_relations = model.num_relations
        self.pos = np.arange(n_pos)
        self.neg = np.arange(n_pos, len(rels))

    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, H, rel, heads, tails):
        vH, vR = ad._val(H), ad._val(rel)
        hh, rr, tt = vH[heads], vR[self.rels], vH[tails]
        raws, saved = _decode_rows(self.decoder, hh, rr, tt)
        ad._check_finite(raws, "kgc_loss")
        probs = ad._sigmoid_value(raws)
        n, n_pos, n_neg = len(raws), len(self.pos), len(self.neg)
        p_pos, q_neg = probs[:n_pos], 1.0 - probs[n_pos:]
        loss = ((-np.log(np.maximum(p_pos, ad.LOG_CLAMP))).sum() * (0.5 / n_pos)
                + (-np.log(np.maximum(q_neg, ad.LOG_CLAMP))).sum() * (0.5 / n_neg))

        def bw(g):
            # each dropped at its last use (see the class docstring)
            nonlocal hh, rr, tt, saved
            with np.errstate(over="ignore", invalid="ignore"):
                # Bit for bit the adjoints of the generic-op composition, taken
                # in its reverse tape order: the log adjoint divides by the
                # clamped argument, the sigmoid's is (g * o) * (1 - o), TransE's
                # mul(x, x) gives g*x + g*x, and each gather adjoint is a
                # bincount scatter.
                g_neg = -(-np.full(n_neg, g * (0.5 / n_neg)) / np.maximum(q_neg, ad.LOG_CLAMP))
                g_pos = -np.full(n_pos, g * (0.5 / n_pos)) / np.maximum(p_pos, ad.LOG_CLAMP)
                g_probs = (kernels.scatter_add_vec(g_neg, self.neg, n)
                           + kernels.scatter_add_vec(g_pos, self.pos, n))
                g_raw = (g_probs * probs) * (1.0 - probs)
                if self.decoder == "transe":
                    hh = rr = tt = None  # TransE's adjoints read only x and sq
                    x, sq = saved
                    saved = None
                    g_sq = -g_raw * np.where(sq == 0.0, 0.0,
                                             0.5 * np.power(np.where(sq == 0.0, 1.0, sq), -0.5))
                    g_x = g_sq[:, None] * x + g_sq[:, None] * x
                    x = None
                    g_h, g_r, g_t = g_x, g_x, -g_x
                else:
                    g_hr = g_raw[:, None] * tt
                    tt = None
                    g_h = g_hr * rr
                    rr = None
                    g_r = g_hr * hh
                    hh = g_hr = None
                    g_t = g_raw[:, None] * saved[0]
                    saved = None
                grads = []
                if isinstance(H, ad.Node):
                    g_H = kernels.scatter_add_rows(g_t, tails, vH.shape[0])
                    g_t = None
                    g_H += kernels.scatter_add_rows(g_h, heads, vH.shape[0])
                    g_h = None
                    ad._check_finite(g_H, "kgc_loss adjoint")
                    grads.append(g_H)
                if isinstance(rel, ad.Node):
                    grads.append(kernels.scatter_add_rows(g_r, self.rels, self.num_relations,
                                                          cells=self.rel_cells))
                return grads

        return ad.record(loss, (H, rel), bw, "kgc_loss", adjoint_checked=isinstance(H, ad.Node))


class TargetHeadOp:
    """The prediction head as one tape op with a hand-written backward.

    A call decodes rows `head` and `tail` of the (n, d) embeddings H with
    the relation vector `r`, through `_decode_rows` on one-row stacks, and
    returns (raw, prob, nll): the raw score and its sigmoid as arrays, and
    -log of the probability clamped at `autodiff.LOG_CLAMP`, which is a
    Node when H is one. The raw score is finite-checked as `target_head`,
    since the sigmoid and the clamp would turn -inf into a finite loss; the
    adjoint of H as `target_head adjoint`, and only there.
    """

    name = "target_head"

    def __init__(self, decoder: str, head: int, tail: int, r):
        self.decoder, self.head, self.tail, self.r = decoder, head, tail, r

    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, H):
        vH, r = ad._val(H), self.r
        raws, saved = _decode_rows(self.decoder, vH[[self.head]], r, vH[[self.tail]])
        raw, x_or_hr = raws[0], saved[0][0]  # TransE's h + r - t, DistMult's h * r
        ad._check_finite(raw, self.name)
        prob = ad._sigmoid_value(raw)
        nll = -np.log(np.maximum(prob, ad.LOG_CLAMP))

        def bw(g):
            with np.errstate(over="ignore", invalid="ignore"):
                # Bit for bit the adjoints of the generic-op composition, taken
                # in its reverse tape order: the log adjoint divides by the
                # clamped argument, the sigmoid's is (g * o) * (1 - o), the
                # norm's (g * x) / max(norm, 1e-30), and the tail row's scatter
                # comes first; a row written onto +0.0 is what a bincount gives.
                g_raw = ((-g / np.maximum(prob, ad.LOG_CLAMP)) * prob) * (1.0 - prob)
                if self.decoder == "transe":
                    g_h = (-g_raw * x_or_hr) / max(float(-raw), 1e-30)
                    g_t = -g_h
                else:
                    g_h, g_t = (g_raw * vH[self.tail]) * r, g_raw * x_or_hr
                g_H = np.zeros(vH.shape)
                g_H[self.tail] += g_t
                g_H[self.head] += g_h
                ad._check_finite(g_H, f"{self.name} adjoint")
                return [g_H]

        return raw, prob, ad.record(nll, (H,), bw, self.name, adjoint_checked=True)


def score(model: KgcModel, h_emb, r_emb, t_emb) -> TripleScore:
    """TransE: -||h + r - t||; DistMult: sum(h*r*t); probability = sigmoid."""
    for v in (h_emb, r_emb, t_emb):
        if np.shape(v) != (model.dim,):
            raise ContractError("embedding dimension mismatch")
    H = np.stack([np.asarray(h_emb, dtype=np.float64), np.asarray(t_emb, dtype=np.float64)])
    raw, prob, _ = TargetHeadOp(model.decoder, 0, 1, np.asarray(r_emb))(H)
    return TripleScore(float(raw), float(prob))


class TargetScorer:
    """The target's score under an edge mask, built once per model, graph
    and target: the encoder's layer ops on the receptive field of the head
    and tail rows, then `TargetHeadOp`. A call takes the mask (see
    `encode_operands`) and returns the head op's (raw, prob, nll).

    The model's weights count as frozen: the first layer's input and its
    unmasked messages are computed here, once, from the weights as they are.
    """

    def __init__(self, model: KgcModel, gc: ComputationGraph, target: TargetTriple):
        i, k = gc.target_rows(target)
        self.model, self.gc = model, gc
        self.h = model.store.params["ent"][gc.nodes]
        self.layers = layer_ops(model, gc, [i, k])
        self.layers[0].fix_input(self.h, model.store.params)
        self.head = TargetHeadOp(model.decoder, i, k, model.store.params["rel"][target.relation])

    def __call__(self, mask):
        return self.head(encode_operands(self.model, self.gc, mask, layers=self.layers,
                                         h=self.h))


def score_target_masked(model: KgcModel, gc: ComputationGraph, mask,
                        target: TargetTriple) -> TripleScore:
    raw, prob, _ = TargetScorer(model, gc, target)(mask)
    return TripleScore(float(raw), float(prob))


def rank_target(model: KgcModel, gc: ComputationGraph, target: TargetTriple,
                mask=None) -> int:
    """Raw (unfiltered) rank of the true tail among all gc nodes except the
    head, with ties counted against the true tail."""
    i, k = gc.target_rows(target)
    H = encode(model, gc, mask)
    r = model.store.params["rel"][target.relation]
    raws, _ = _decode_rows(model.decoder, H[i], r, H)
    ahead = raws >= raws[k]
    ahead[[i, k]] = False
    return int(ahead.sum()) + 1


def train_kgc(g: KnowledgeGraph, config: ModelConfig) -> KgcModel:
    """Binary cross-entropy training with uniform head/tail corruption.

    Full-batch: every epoch scores all positives plus `negatives` fresh
    corruptions per positive. Deterministic under config.seed; the final
    epoch's loss is stored on the returned model.
    """
    if g.num_triples == 0:
        raise ContractError("cannot train on an empty graph")
    config.validate()
    _refuse_beyond_memory(3 * 8 * g.num_triples * (1 + config.negatives) * config.dim,
                          f"one training epoch's head, relation and tail rows (triples="
                          f"{g.num_triples}, negatives={config.negatives}, dim={config.dim})")
    model = KgcModel(g.num_entities, g.num_relations, dim=config.dim, layers=config.layers,
                     bases=config.bases, decoder=config.decoder, seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    gc = full_graph(g)
    layers = layer_ops(model, gc)
    all_r = np.concatenate([g.rels, np.repeat(g.rels, config.negatives)])
    loss_op = KgcLossOp(model, all_r, g.num_triples)
    base_h = np.repeat(g.heads, config.negatives)
    base_t = np.repeat(g.tails, config.negatives)
    for _ in range(config.epochs):
        corrupt_head = rng.random(len(base_h)) < 0.5
        repl = rng.integers(0, g.num_entities, size=len(base_h))
        neg_h = np.where(corrupt_head, repl, base_h)
        neg_t = np.where(corrupt_head, base_t, repl)
        all_h = np.concatenate([g.heads, neg_h])
        all_t = np.concatenate([g.tails, neg_t])
        with Tape() as tape:
            operands = tape.params(model.store)
            # gc's nodes are every entity in order, so the table is the input
            H = encode_operands(model, gc, None, operands=operands, layers=layers,
                                h=operands["ent"])
            loss = loss_op(H, operands["rel"], all_h, all_t)
            backward(tape, loss)
            model.final_loss = float(ad._val(loss))
        sgd_step(model.store, config.lr)
    return model


# ---------------------------------------------------------------------------
# checkpoint format: magic "PLNK", u16 version, u32 JSON length, JSON
# metadata, then little-endian float32 tensors in the declared order.


def _tensor_layout(shapes):
    return [{"name": name, "shape": list(shape)} for name, shape in shapes.items()]


def save_checkpoint(model: KgcModel, g: KnowledgeGraph, path):
    ent_hash, rel_hash = g.vocab_hashes()
    meta = {
        "dim": model.dim,
        "layers": model.layers,
        "bases": model.bases,
        "decoder": model.decoder,
        "num_entities": model.num_entities,
        "num_relations": model.num_relations,
        "entity_vocab_sha256": ent_hash,
        "relation_vocab_sha256": rel_hash,
        "tensors": _tensor_layout({name: p.shape for name, p in model.store.params.items()}),
    }
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<H", CHECKPOINT_VERSION))
    buf.write(struct.pack("<I", len(blob)))
    buf.write(blob)
    for name, p in model.store.params.items():
        with np.errstate(over="ignore"):
            stored = p.astype("<f4")
        if not np.isfinite(stored).all():
            raise NumericError(f"checkpoint tensor {name} holds values that are not finite "
                               "as float32")
        buf.write(stored.tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path, g: KnowledgeGraph) -> KgcModel:
    """Read a checkpoint written by save_checkpoint for the dataset `g`.

    Raises DataError when the file is cut short, carries trailing bytes, its
    metadata does not describe the tensors that follow, or a tensor holds a
    NaN or Inf value. The store is built from the file, with no random draw.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a model checkpoint (bad magic)")
    if len(data) < 10:
        raise DataError(f"{path}: checkpoint header is truncated")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack_from("<I", data, 6)
    offset = 10 + meta_len
    if len(data) < offset:
        raise DataError(f"{path}: checkpoint metadata is truncated")
    try:
        meta = json.loads(data[10:offset].decode())
    except ValueError as exc:
        raise DataError(f"{path}: checkpoint metadata is not valid JSON ({exc})") from None
    if not isinstance(meta, dict) or set(meta) != CHECKPOINT_KEYS:
        raise DataError(f"{path}: checkpoint metadata keys are not {sorted(CHECKPOINT_KEYS)}")
    ent_hash, rel_hash = g.vocab_hashes()
    if (meta["entity_vocab_sha256"], meta["relation_vocab_sha256"], meta["num_entities"],
            meta["num_relations"]) != (ent_hash, rel_hash, g.num_entities, g.num_relations):
        raise DataError(f"{path}: checkpoint vocabulary does not match the dataset")
    tensor_bytes = len(data) - offset
    settings = (meta["num_entities"], meta["num_relations"], meta["dim"], meta["layers"],
                meta["bases"])
    try:
        # refuse settings larger than the file before allocating or looping
        needed = 4 * param_count(g.num_entities, g.num_relations, *settings[2:])
        if needed > tensor_bytes:
            raise DataError(f"{path}: checkpoint settings need {needed} tensor bytes, "
                            f"the file holds {tensor_bytes}")
        model = KgcModel.__new__(KgcModel)  # its store comes from the file, not a draw
        model._settle(*settings, meta["decoder"])
        shapes = _param_shapes(*map(operator.index, settings))
    except (ContractError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad checkpoint model settings ({exc})") from None
    if meta["tensors"] != _tensor_layout(shapes):
        raise DataError(f"{path}: checkpoint tensor list does not match its model settings")
    if tensor_bytes != needed:
        raise DataError(f"{path}: checkpoint holds {tensor_bytes} tensor bytes, expected {needed}")
    tensors = {}
    for name, shape in shapes.items():
        size = math.prod(shape)
        arr = np.frombuffer(data, dtype="<f4", count=size, offset=offset)
        offset += size * 4
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: checkpoint tensor {name} holds NaN or Inf values")
        tensors[name] = arr.reshape(shape)
    model.store = ParamStore(tensors)
    return model
