"""Edge-score learning with a path-enforcing powering loss, and path extraction.

The triplet edge scorer (TES) is an MLP over a combination of the edge
triple's embeddings and the target triple's embeddings (frozen encoder
outputs for entities, the model's relation table for relations). Its
sigmoid outputs form a sparse weighted adjacency over the computation
graph's distinct (src, dst) positions; when several triples share a
position the maximum score is stored and the arg-max triple recorded as
provenance.

The TES is one tape op (`TesOp`) with a hand-written backward that keeps
nothing between calls but its inputs: an epoch's activations are fresh
arrays, served from the heap the previous epoch freed (see
`autodiff._reuse_freed_heap`), and its backward frees each of them at its
last use. In concatenation mode the first layer is
split: the input [h_src, r, h_dst | h_i, r_t, h_k] has a last block that
is the same target row for every edge, so
`x @ w1 = xe @ w1[:3d] + (xt @ w1[3d:])`, with xe (E, 3d) and xt (3d,), and
the bottom block of w1's gradient is `outer(xt, column sums of the layer-1
adjoint)`. This halves the widest matmul and its backward.

Training maximises the length-normalised on-path probability obtained by
repeatedly multiplying the target row of the score matrix into the
matrix (walk-product sums, normalised by walk counts and the l-th root),
together with the prediction term -log P(Y=1 | masked graph) and an L2
penalty on the mask. Paths are then read off with Dijkstra on inverse
scores, removing each found path's edges before searching again.

Every job trains a batch of configs (`train_explainers`); a lone config
is a batch of one (`train_explainer`). The configs share the model,
ego-graph, target and every setting but the two loss switches
(`enable_path_loss`, `enable_mi_loss`), as a suite's ablation modes do.
The TES parameters, scores and per-pair mask carry a leading batch axis of
one row per config, and an epoch records one tape: the six TES parameters,
one `TesOp` pass, one `segment_max`, the prediction term once per row that
has it (`autodiff.take_row` of the mask, one mask gather, the encoder's
`RgcnLayerOp`s on the target's receptive field and `model.TargetHeadOp`,
all built once per job by `model.TargetScorer`, with the rows placed in one
vector by `autodiff.put_rows`), one path term over the rows that have it
(`PathLossOp`: the L power steps, the walk masses and -log, on a
block-diagonal graph with one copy of the pairs per row), the L2 penalty
and its weight, the adds that sum the terms, and the sum of the rows'
totals that is backpropagated. A batch of one records 20 nodes at two
encoder layers. Each term stays its own node so that it can be
backpropagated alone, on a tape of its own. The hand-written backwards
repeat the generic ops' numpy operations in reverse tape order, so masks,
loss traces and paths are the same bits as with the generic-op
composition the tests keep as their oracle: the ops `autodiff` keeps, with
the ones no run records (`edge_spmv`, `powc`, `log` and the like) and the
plain walk sums `power_chain` and `on_path_probability` in
`tests/tape_oracles.py`.

Each row's numbers are those of its config in a batch of one, bit for
bit, by two rules:

- every numpy call acts on each row as it acts on a batch of one: stacked
  matmuls multiply slice by slice with the 2-D product's BLAS call, sums
  and maxima run along the same axes, and one bincount over per-row offset
  bins adds each bin's entries in the same order;
- the order of additions is kept. A row without a term holds -0.0 in that
  term's vector and in its adjoint pieces (`autodiff._in_rows`, where the
  rule is written); adding -0.0 leaves every float as it is, so each row's
  total is (prediction + path) + L2, prediction + L2 or path + L2, and its
  mask adjoint adds the L2, path and prediction pieces in that order. A zero
  pad would turn -0.0 into +0.0. `ExplainJob.rows` lists each term's rows.

Note on walks vs paths: the powering chain counts walks (node revisits
allowed) exactly as the matrix algebra dictates; simple-path constraints
apply only at extraction time.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import ParamStore, Tape, backward, sgd_step
from .errors import ContractError, NumericError
from .kgraph import (
    ComputationGraph,
    KnowledgeGraph,
    TargetTriple,
    adjacency_power_row,
    extract_computation_graph,
    k_core_prune,
)
from .model import KgcModel, TargetScorer, _refuse_beyond_memory, encode

COMBINE_MODES = ("concatenation", "euclidean")

TES_HIDDEN = (64, 32)


@dataclass
class ExplainConfig:
    epochs: int = 50
    lr: float = 0.005
    gamma: float = 0.03
    power_order: int = 3
    combine_mode: str = "concatenation"
    seed: int = 0
    enable_path_loss: bool = True
    enable_mi_loss: bool = True
    num_paths: int = 3

    def validate(self):
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if self.power_order < 2:
            raise ContractError("power_order must be >= 2")
        if not self.gamma >= 0:
            raise ContractError(f"gamma must be >= 0, got {self.gamma}")
        if not self.lr > 0:
            raise ContractError(f"lr must be positive, got {self.lr}")
        if not math.isfinite(self.gamma):
            raise ContractError(f"gamma must be finite, got {self.gamma}")
        if not math.isfinite(self.lr):
            raise ContractError(f"lr must be finite, got {self.lr}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.combine_mode not in COMBINE_MODES:
            raise ContractError(f"combine_mode must be one of {COMBINE_MODES}")
        if not (self.enable_path_loss or self.enable_mi_loss):
            raise ContractError("at least one of path loss / MI loss must be enabled")
        if self.num_paths < 1:
            raise ContractError("num_paths must be >= 1")


def init_tes(combine_mode: str, dim: int, seed: int = 0, batch: int = 1) -> ParamStore:
    """MLP [input -> 64 -> 32 -> 1], ReLU hidden, sigmoid output.

    The final layer starts near zero so initial edge scores sit at ~0.5.
    Each tensor has a leading axis of `batch` copies of the same draw, one
    per row of a job.
    """
    if combine_mode not in COMBINE_MODES:
        raise ContractError(f"combine_mode must be one of {COMBINE_MODES}")
    width = 6 * dim if combine_mode == "concatenation" else 3
    rng = np.random.default_rng(seed)
    tensors = {
        "w1": rng.normal(0.0, math.sqrt(2.0 / width), (width, TES_HIDDEN[0])),
        "b1": np.zeros(TES_HIDDEN[0]),
        "w2": rng.normal(0.0, math.sqrt(2.0 / TES_HIDDEN[0]), (TES_HIDDEN[0], TES_HIDDEN[1])),
        "b2": np.zeros(TES_HIDDEN[1]),
        "w3": rng.normal(0.0, 0.1 / math.sqrt(TES_HIDDEN[1]), (TES_HIDDEN[1], 1)),
        "b3": np.zeros(1),
    }
    return ParamStore({name: np.broadcast_to(t, (batch, *t.shape)) for name, t in tensors.items()})


@dataclass
class EdgeScoreMatrix:
    """Sparse n x n edge-probability matrix aligned to a computation graph.

    `values[p]` scores the distinct pair (pair_src[p], pair_dst[p]);
    `provenance[p]` is the gc triple row that produced the entry.
    """

    pair_src: np.ndarray
    pair_dst: np.ndarray
    values: np.ndarray
    provenance: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.pair_src.shape:
            raise ContractError("one value per edge position required")
        if not ((self.values >= 0.0).all() and (self.values <= 1.0).all()):
            raise NumericError("edge scores must lie in [0, 1]")

    @classmethod
    def from_values(cls, gc: ComputationGraph, values, provenance=None):
        if provenance is None:
            provenance = gc.pair_indptr[:-1].copy()
        return cls(gc.pair_src.copy(), gc.pair_dst.copy(), values, provenance)

    @classmethod
    def constant(cls, gc: ComputationGraph, value: float):
        return cls.from_values(gc, np.full(gc.num_pairs, float(value)))

    def complement(self) -> "EdgeScoreMatrix":
        return EdgeScoreMatrix(self.pair_src, self.pair_dst, 1.0 - self.values, self.provenance)


@np.errstate(invalid="ignore")
def _walk_mass(u, at, count: int, length: int):
    return np.power(u[at] * (1.0 / count), 1.0 / length)


def _walk_mean(chain, at, counts):
    """Mean over l = 1..L of the normalised walk mass at the indices `at` of
    the power chain, one entry per index; `counts[l - 1]` is the number of
    length-l walks that reach them. The l = 1 term is the direct-edge score,
    and a length with no walk contributes 0."""
    total = chain[0][at]
    for length in range(2, len(chain) + 1):
        count = counts[length - 1]
        if count > 0:
            total = total + _walk_mass(chain[length - 1], at, count, length)
    return total * (1.0 / len(chain))


class PathLossOp:
    """The path term -log(P_on) as one tape op with a hand-written backward.

    P_on is the mean over l = 1..L of the normalised walk mass from the
    target head to the tail (`_walk_mean` of the power chain), clamped at
    `autodiff.LOG_CLAMP` inside the log. A call takes a job's per-pair
    scores, shape (B, pairs), and returns the loss, shape (B,): an array, or
    a Node when the scores are one. The op stands for the L power steps, so
    its adjoint of the scores is a tuple with one piece per step that
    receives an adjoint, from the last step to the first, which `backward`
    adds up in that order. The first step's input is the constant one-hot
    start, so its adjoint is never formed. Each chain vector is
    finite-checked as `path_loss`, each chain adjoint as `path_loss adjoint`.

    `rows` are the ascending rows that have the term. Their chains run as
    one block-diagonal graph, one copy of the pairs per row, so each row's
    numbers are those of its own chain. The loss and each adjoint piece are
    placed in the batch by `autodiff._in_rows`.
    """

    name = "path_loss"

    def __init__(self, gc: ComputationGraph, L: int, walk_counts, rows):
        self.L = L
        self.counts = [int(c[gc.tail_local]) for c in walk_counts]
        self.rows = rows
        n = gc.num_nodes
        offsets = n * np.arange(len(rows))
        self.n = n * len(offsets)
        self.src = (gc.pair_src + offsets[:, None]).ravel()
        self.dst = (gc.pair_dst + offsets[:, None]).ravel()
        self.at = gc.tail_local + offsets
        self.start = np.zeros(self.n)
        self.start[gc.head_local + offsets] = 1.0
        # the one-hot start at each pair's source: the first step's adjoint
        # of the scores is this times the step's adjoint at the pair's dst
        self.start_src = self.start[self.src]

    # Overflow surfaces as the finite checks' NumericError, not as a warning.
    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, values):
        L, n, src, dst, at = self.L, self.n, self.src, self.dst, self.at
        vv, rows = ad._val(values), self.rows
        flat = vv[rows].reshape(-1)
        chain, u = [], self.start
        for _ in range(L):
            u = kernels.edge_spmv(u, flat, src, dst, n)
            ad._check_finite(u, self.name)
            chain.append(u)
        p = _walk_mean(chain, at, self.counts)
        loss = ad._in_rows(-np.log(np.maximum(p, ad.LOG_CLAMP)), rows, vv.shape[:-1])

        def bw(g):
            with np.errstate(over="ignore", invalid="ignore"):
                # Bit for bit the adjoints of the generic-op composition, taken
                # in its reverse tape order: each chain vector's gather adjoint
                # comes before the next step's, and the steps' score adjoints
                # from the last step to the first.
                g_total = -g[rows] / np.maximum(p, ad.LOG_CLAMP) * (1.0 / L)
                g_chain = [None] * L
                for length in range(L, 1, -1):
                    count = self.counts[length - 1]
                    if count > 0:
                        x = chain[length - 1][at] * (1.0 / count)
                        c = 1.0 / length
                        slope = np.where(x == 0.0, 0.0,
                                         c * np.power(np.where(x == 0.0, 1.0, x), c - 1.0))
                        g_x = (g_total * slope) * (1.0 / count)
                        g_chain[length - 1] = kernels.scatter_add_vec(g_x, at, n)
                g_chain[0] = kernels.scatter_add_vec(g_total, at, n)
                pieces = []
                for step in reversed(range(L)):
                    g_u = g_chain[step]
                    if g_u is None:
                        continue
                    ad._check_finite(g_u, f"{self.name} adjoint")
                    if step == 0:
                        g_vals = self.start_src * g_u[dst]
                    else:
                        g_prev, g_vals = kernels.edge_spmv_bw(g_u, chain[step - 1], flat, src,
                                                              dst)
                        before = g_chain[step - 1]
                        g_chain[step - 1] = g_prev if before is None else before + g_prev
                    pieces.append(ad._in_rows(g_vals, rows, vv.shape))
                return [tuple(pieces)]

        return ad.record(loss, (values,), bw, self.name)


# ---------------------------------------------------------------------------
# TES forward and backward

TES_PARAMS = ("w1", "b1", "w2", "b2", "w3", "b3")


def _checked_sum(g, op):
    """The column sums of the (B, E, k) adjoint `g`, which `g` must be finite
    for: only when they are not is `g` itself checked, since finite entries
    can overflow their sum."""
    total = g.sum(axis=-2)
    if not ad._all_finite(total):
        ad._check_finite(g, op)
    return total


class TesOp:
    """The TES MLP as one tape op with a hand-written backward.

    `xe` and `xt` are the split first-layer input of concatenation mode
    (see the module docstring); in euclidean mode `xe` is the (E, 3)
    distance input and `xt` is None. They are all the op keeps: each
    forward and each backward computes into fresh arrays, so a node can be
    backpropagated after any number of later calls.

    A node's backward runs once (see `autodiff.backward`) and drops each
    array at its last use: the hidden activations z2 and z1 once their
    weight gradients and ReLU masks are taken, before the (E, 32) and
    (E, 64) adjoints that replace them are made, and the layer-2 adjoint
    once the layer-1 one is. So the backward holds at most one hidden
    activation or adjoint of each width, never z1, z2 and both adjoints at
    once. Each adjoint is finite-checked through its column sums, which the
    bias gradients take anyway, and checked whole only when a sum is not
    finite, as `tes_mlp:layer<k> adjoint`.

    The parameters carry a leading batch axis, one set of weights per row,
    and the scores are (B, E). `np.matmul` multiplies a stack one slice at
    a time with the 2-D product's BLAS call, and the bias and column sums
    run along the same axes, so each row's numbers are those of a batch of
    one with its weights.
    """

    def __init__(self, xe, xt=None):
        self.xe, self.xt = xe, xt

    # Overflow surfaces as the finite checks' NumericError, not as a warning.
    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, params):
        """Edge scores (B, E) for `params` keyed by `TES_PARAMS`: a Node whose
        parents are the six params when they are Nodes of one tape, a plain
        array when they are arrays."""
        w1, b1, w2, b2, w3, b3 = (ad._val(params[name]) for name in TES_PARAMS)
        xe, xt = self.xe, self.xt
        split = xe.shape[1]
        z1 = xe @ w1[..., :split, :]
        z1 += (b1 if xt is None else xt @ w1[..., split:, :] + b1)[..., None, :]
        ad._check_finite(z1, "tes_mlp:layer1")
        np.maximum(z1, 0.0, out=z1)
        z2 = z1 @ w2
        z2 += b2[..., None, :]
        ad._check_finite(z2, "tes_mlp:layer2")
        np.maximum(z2, 0.0, out=z2)
        logit = z2 @ w3 + b3[..., None, :]
        ad._check_finite(logit, "tes_mlp:layer3")
        out = ad._sigmoid_value(logit)
        scores = out.reshape(out.shape[:-1])

        def bw(g):
            # each dropped at its last use (see the class docstring)
            nonlocal z1, z2
            with np.errstate(over="ignore", invalid="ignore"):
                g3 = g.reshape(out.shape) * out * (1.0 - out)
                gb3 = _checked_sum(g3, "tes_mlp:layer3 adjoint")
                gw3, on2 = z2.swapaxes(-1, -2) @ g3, z2 > 0.0
                z2 = None
                g2 = g3 * w3.swapaxes(-1, -2)
                g2 *= on2
                on2 = None
                gb2 = _checked_sum(g2, "tes_mlp:layer2 adjoint")
                gw2, on1 = z1.swapaxes(-1, -2) @ g2, z1 > 0.0
                z1 = None
                g1 = g2 @ w2.swapaxes(-1, -2)
                g2 = None
                g1 *= on1
                gb1 = _checked_sum(g1, "tes_mlp:layer1 adjoint")
                gw1 = xe.T @ g1
                if xt is not None:
                    # np.outer(xt, gb1) per row
                    gw1 = np.concatenate([gw1, xt[:, None] * gb1[..., None, :]], axis=-2)
                return [gw1, gb1, gw2, gb2, gw3, gb3]

        # the sigmoid of the checked logits is finite
        return ad.record(scores, [params[name] for name in TES_PARAMS], bw, "tes_mlp",
                         checked=True)


def _tes_inputs(H, R, gc: ComputationGraph, target: TargetTriple, combine_mode: str):
    """(xe, xt) for `TesOp`: the edge blocks and the target row in
    concatenation mode, the (E, 3) distances and None in euclidean mode."""
    hs, rr, ht = H[gc.src], R[gc.rel], H[gc.dst]
    th, tr, tt = H[gc.head_local], R[target.relation], H[gc.tail_local]
    if combine_mode == "concatenation":
        return np.concatenate([hs, rr, ht], axis=1), np.concatenate([th, tr, tt])
    cols = [
        np.sqrt(((hs - th) ** 2).sum(axis=1)),
        np.sqrt(((rr - tr) ** 2).sum(axis=1)),
        np.sqrt(((ht - tt) ** 2).sum(axis=1)),
    ]
    return np.stack(cols, axis=1), None


# ---------------------------------------------------------------------------
# training


def _shared_config(configs) -> ExplainConfig:
    """The settings a job's configs share: the first config, once each is
    valid and differs from it in nothing but the two loss switches."""
    if not configs:
        raise ContractError("an explainer job needs at least one config")
    first = configs[0]
    for cfg in configs:
        cfg.validate()
        if replace(cfg, enable_path_loss=first.enable_path_loss,
                   enable_mi_loss=first.enable_mi_loss) != first:
            raise ContractError("the explainer configs of one job may differ only in "
                                "enable_path_loss and enable_mi_loss")
    return first


def _walk_bytes(power_order: int, nodes: int, chains: int) -> int:
    """The walk counts and power steps of a job whose `chains` rows have the
    path loss: per such row float64 power steps, and once when a row has it
    int64 walk counts, `power_order` vectors over the nodes each."""
    return 8 * (min(chains, 1) + chains) * power_order * nodes


class ExplainJob:
    """One explanation unit: owns the TES inputs, constants, and loss tape.

    Entity inputs to the TES are encoder outputs computed once on the
    unmasked graph and frozen for the whole optimisation.

    `configs` is a list of ExplainConfigs that differ only in their loss
    switches: one TES per config, as the rows of a leading batch axis of
    `batch` rows (see the module docstring). A lone config is a list of one.
    """

    def __init__(self, model: KgcModel, gc: ComputationGraph, target: TargetTriple,
                 configs: list):
        self.configs = list(configs)
        config = _shared_config(self.configs)
        self.batch = len(self.configs)
        # the ascending rows that have each term
        self.rows = {"prediction": [row for row, cfg in enumerate(self.configs)
                                    if cfg.enable_mi_loss],
                     "path": [row for row, cfg in enumerate(self.configs) if cfg.enable_path_loss]}
        gc.target_rows(target)
        L, n = config.power_order, gc.num_nodes
        chains = len(self.rows["path"])
        _refuse_beyond_memory(_walk_bytes(L, n, chains),
                              f"the walk counts and power steps (power_order={L}, nodes={n})")
        self.model = model
        self.gc = gc
        self.target = target
        self.config = config
        self.H = encode(model, gc, None)
        self.R = model.store.params["rel"]
        self.tes = TesOp(*_tes_inputs(self.H, self.R, gc, target, config.combine_mode))
        self.awalks = adjacency_power_row(gc, gc.head_local, L) if chains else None
        self.prediction = TargetScorer(model, gc, target) if self.rows["prediction"] else None
        self.path = PathLossOp(gc, L, self.awalks, self.rows["path"]) if chains else None

    def pair_scores(self, store: ParamStore, tape: Tape | None):
        """TES scores collapsed to pairs: (per-pair values, arg-max triple rows),
        each (batch, pairs). Each pair keeps its maximum score; ties keep the
        first triple."""
        params = tape.params(store) if tape is not None else store.params
        return ad.segment_max(self.tes(params), self.gc.pair_indptr, self.gc.pair_index)

    def loss_terms(self, pair_vals):
        """Enabled loss terms plus the mask L2 penalty for the (batch, pairs)
        mask (an array, or a Node on the training tape), keyed by name. Each
        term is one value per row, -0.0 in the rows without the term."""
        terms = {}
        if self.prediction is not None:
            rows = self.rows["prediction"]
            terms["prediction"] = ad.put_rows(
                [self.prediction(ad.take_row(pair_vals, row))[2] for row in rows], rows, self.batch)
        if self.path is not None:
            terms["path"] = self.path(pair_vals)
        terms["regularization"] = ad.mul(ad.norm(pair_vals), self.config.gamma)
        return terms

    def objective(self, store: ParamStore, tape: Tape | None):
        pair_vals, argmax = self.pair_scores(store, tape)
        terms = self.loss_terms(pair_vals)
        out = None
        for t in terms.values():
            out = t if out is None else ad.add(out, t)
        return out, terms, pair_vals, argmax

    def trace_rows(self, epoch: int, terms, objective) -> list:
        """One loss-trace entry per config: each term and the total as floats,
        None for a term the config leaves out."""
        values = {name: ad._val(t).tolist() for name, t in terms.items()}
        totals = ad._val(objective).tolist()
        prediction, path = self.rows["prediction"], self.rows["path"]
        return [{"epoch": epoch,
                 "prediction": values["prediction"][row] if row in prediction else None,
                 "path": values["path"][row] if row in path else None,
                 "regularization": values["regularization"][row],
                 "total": totals[row]}
                for row in range(self.batch)]

    def final_masks(self, store: ParamStore) -> list:
        """One EdgeScoreMatrix per config, from the TES in `store`."""
        pair_vals, argmax = self.pair_scores(store, None)
        return [EdgeScoreMatrix(self.gc.pair_src.copy(), self.gc.pair_dst.copy(), values, rows)
                for values, rows in zip(pair_vals, argmax)]


@dataclass
class ExplainResult:
    tes: ParamStore
    mask: EdgeScoreMatrix
    loss_trace: list


def train_explainers(model: KgcModel, gc: ComputationGraph, target: TargetTriple,
                     configs) -> list:
    """Optimise one TES per config on one target, as one batch: one tape, TES
    pass, backward and SGD step per epoch for all of them. The configs may
    differ only in enable_path_loss and enable_mi_loss. Returns one
    ExplainResult per config: its scorer, final mask and per-epoch loss
    breakdown, the bits of its batch of one."""
    job = ExplainJob(model, gc, target, configs)
    cfg = job.config
    tes = init_tes(cfg.combine_mode, model.dim, cfg.seed, job.batch)
    traces = [[] for _ in job.configs]
    for epoch in range(cfg.epochs):
        with Tape() as tape:
            objective, terms, _, _ = job.objective(tes, tape)
            # the rows are independent losses: their sum gives each an
            # adjoint of exactly 1
            backward(tape, ad.sumall(objective))
        for trace, entry in zip(traces, job.trace_rows(epoch, terms, objective)):
            trace.append(entry)
        sgd_step(tes, cfg.lr)
    stores = [ParamStore({name: p[row] for name, p in tes.params.items()})
              for row in range(job.batch)]
    return [ExplainResult(store, mask, trace)
            for store, mask, trace in zip(stores, job.final_masks(tes), traces)]


def train_explainer(model: KgcModel, gc: ComputationGraph, target: TargetTriple,
                    config: ExplainConfig | None = None) -> ExplainResult:
    """`train_explainers` for one config, a batch of one."""
    return train_explainers(model, gc, target, [config or ExplainConfig()])[0]


# ---------------------------------------------------------------------------
# path generation


@dataclass
class ExplanationPath:
    triples: list          # global (head, relation, tail) tuples
    triple_indices: list   # gc triple rows (provenance)
    edge_scores: list
    mean_score: float


@dataclass
class Explanation:
    target: TargetTriple
    paths: list
    mask: EdgeScoreMatrix | None = None
    loss_trace: list = field(default_factory=list)

    def to_json_dict(self, g: KnowledgeGraph | None = None):
        def ent(i):
            return g.entity_names[i] if g is not None else str(i)

        def rel(i):
            return g.relation_names[i] if g is not None else str(i)

        return {
            "target": {
                "head": {"id": self.target.head, "name": ent(self.target.head)},
                "relation": {"id": self.target.relation, "name": rel(self.target.relation)},
                "tail": {"id": self.target.tail, "name": ent(self.target.tail)},
                "label": self.target.label,
            },
            "paths": [
                {
                    "triples": [
                        {
                            "head": {"id": h, "name": ent(h)},
                            "relation": {"id": r, "name": rel(r)},
                            "tail": {"id": t, "name": ent(t)},
                            "score": s,
                        }
                        for (h, r, t), s in zip(p.triples, p.edge_scores)
                    ],
                    "mean_score": p.mean_score,
                }
                for p in self.paths
            ],
            "loss_trace": self.loss_trace,
        }


def _dijkstra_pairs(gc: ComputationGraph, costs, alive, start, goal):
    """Min-cost pair chain start -> goal; ties pop the smaller node index."""
    dist = np.full(gc.num_nodes, np.inf)
    dist[start] = 0.0
    pred = np.full(gc.num_nodes, -1, dtype=np.int64)
    done = np.zeros(gc.num_nodes, dtype=bool)
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == goal:
            break
        for pid in range(gc.adj_indptr[u], gc.adj_indptr[u + 1]):
            if not alive[pid]:
                continue
            v = gc.pair_dst[pid]
            nd = d + costs[pid]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = pid
                heapq.heappush(heap, (nd, int(v)))
    if not done[goal]:
        return None
    chain = []
    node = goal
    while node != start:
        pid = pred[node]
        chain.append(int(pid))
        node = gc.pair_src[pid]
    return chain[::-1]


def generate_paths(gc: ComputationGraph, mask: EdgeScoreMatrix, target: TargetTriple,
                   num_paths: int = 3, max_len: int | None = None) -> Explanation:
    """Iterative edge-disjoint Dijkstra with edge cost 1 / score.

    Shortest paths longer than max_len are discarded but their edges are
    still removed before the next round. An unreachable tail yields an
    empty path list (unexplainable, not an error).
    """
    if num_paths < 1:
        raise ContractError("num_paths must be >= 1")
    if len(mask.values) != gc.num_pairs:
        raise ContractError("mask support does not match the computation graph")
    i, k = gc.target_rows(target)
    paths = []
    if i == k:
        return Explanation(target, paths, mask)
    with np.errstate(divide="ignore"):
        costs = 1.0 / mask.values
    alive = np.ones(gc.num_pairs, dtype=bool)
    while len(paths) < num_paths:
        chain = _dijkstra_pairs(gc, costs, alive, i, k)
        if chain is None:
            break
        alive[chain] = False
        if max_len is not None and len(chain) > max_len:
            continue
        triples, rows, scores = [], [], []
        for pid in chain:
            row = int(mask.provenance[pid])
            triples.append(
                (
                    int(gc.nodes[gc.src[row]]),
                    int(gc.rel[row]),
                    int(gc.nodes[gc.dst[row]]),
                )
            )
            rows.append(row)
            scores.append(float(mask.values[pid]))
        paths.append(ExplanationPath(triples, rows, scores, float(np.mean(scores))))
    return Explanation(target, paths, mask)


# ---------------------------------------------------------------------------
# pipeline helper


def prepare_computation_graph(g: KnowledgeGraph, target: TargetTriple, hops: int,
                              k_core: int = 2, max_nodes: int | None = None) -> ComputationGraph:
    """extract -> drop the asserted triple itself -> k-core prune.

    The asserted triple, when present in the KG, is removed before
    explaining so the explanation cannot be the prediction restated.
    """
    gc = extract_computation_graph(g, target, hops, max_nodes)
    row = gc.triple_index_of(gc.head_local, target.relation, gc.tail_local)
    if row >= 0:
        gc = gc.without_triples([row])
    return k_core_prune(gc, k_core)
