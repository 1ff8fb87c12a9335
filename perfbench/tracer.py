"""Span tracing installed from outside the package, and the per-layer metrics.

The package imports its collaborators with ``from ... import``, so a wrapper
only takes effect at the module attribute the caller looks up: for example
``kgexplain.explain.backward``, not ``kgexplain.autodiff.backward``. Each
wrapped call appends one span ``[name, start, end, parent, info]`` to an
in-memory list; ``info`` carries what the call produced (bytes computed, tape
sizes, graph sizes). Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
import weakref
from collections import Counter

KERNELS = ("edge_spmv", "edge_spmv_bw", "scatter_add_rows", "scatter_add_vec", "walk_step")

# Tape ops that the explainer's epochs record; anything else counts as "other".
OPS = ("param", "add", "neg", "mul", "matmul", "gather", "scatter_add", "edge_spmv",
       "segment_max", "reshape", "sigmoid", "relu", "log", "powc", "norm", "sum",
       "gather_col", "other")


def _edges(a):
    return a.shape[0]


# Computed bytes each kernel moves: index and value reads per edge (gathered
# reads counted per edge) plus the dense output written.
KERNEL_BYTES = {
    "edge_spmv": lambda u, vals, src, dst, n: 32 * _edges(src) + 8 * n,
    "edge_spmv_bw": lambda g, u, vals, src, dst: 48 * _edges(src) + 8 * u.shape[0],
    "scatter_add_rows": lambda rows, idx, n: 8 * rows.size + 8 * _edges(idx) + 8 * n * rows.shape[1],
    "scatter_add_vec": lambda vals, idx, n: 16 * _edges(idx) + 8 * n,
    "walk_step": lambda counts, src, dst, n: 24 * _edges(src) + 8 * n,
}


def _op_bucket(op):
    if op.startswith("param:"):
        return "param"
    return op if op in OPS else "other"


class Tracer:
    """Wraps the package's public functions and records spans in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self._tapes = []
        self._epoch_start = None
        self.tapes_alive_max = 0

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner, attr, name, info=None):
        orig = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[4] = info(args, out)
            return out

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, orig))

    def install(self):
        import kgexplain.explain as ex
        import kgexplain.harness as hs
        import kgexplain.kernels as kn
        import kgexplain.kgraph as kg
        import kgexplain.metrics as mt
        import kgexplain.model as md

        for k in KERNELS:
            size = KERNEL_BYTES[k]
            self.wrap(kn, k, f"kernels.{k}", lambda a, out, size=size: size(*a))
        self._wrap_tape(ex)
        self.wrap(ex, "backward", "explain.backward", self._tape_info)
        self.wrap(ex, "sgd_step", "explain.sgd", self._epoch_end)
        self.wrap(ex.ExplainJob, "__init__", "explain.job_init")
        self.wrap(ex.ExplainJob, "objective", "explain.forward")
        for mod in (ex, mt, hs):
            self.wrap(mod, "prepare_computation_graph", "kgraph.prepare")
            self.wrap(mod, "train_explainer", "explain.train",
                      lambda a, out: a[1].num_edges)
            self.wrap(mod, "generate_paths", "explain.paths", lambda a, out: len(out.paths))
        self.wrap(ex, "extract_computation_graph", "kgraph.extract")
        self.wrap(ex, "k_core_prune", "kgraph.kcore",
                  lambda a, out: (a[0].num_edges, out.num_edges))
        self.wrap(ex, "adjacency_power_row", "kgraph.walk_counts")
        self.wrap(kg, "load_triples", "kgraph.load_triples")
        self.wrap(kg.ComputationGraph, "__init__", "kgraph.graph_build")
        self.wrap(md, "encode_operands", "model.encode")
        self.wrap(md, "load_checkpoint", "model.load_checkpoint")
        self.wrap(hs, "train_kgc", "model.train")
        self.wrap(mt, "_is_explainable", "metrics.filter", lambda a, out: bool(out))
        for mod in (mt, hs):
            self.wrap(mod, "measure_explanation", "metrics.measure")
        self.wrap(hs, "generate_planted", "harness.generate")
        self.wrap(hs, "run_instance", "harness.instance")

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _wrap_tape(self, ex):
        tracer, base = self, ex.Tape

        class CountedTape(base):
            """Weakly referenced so live tapes can be counted at backward."""

            __slots__ = ("__weakref__",)

            def __init__(self):
                super().__init__()
                tracer._tapes.append(weakref.ref(self))
                tracer._epoch_start = time.perf_counter()

        ex.Tape = CountedTape
        self._restore.append((ex, "Tape", base))

    def _tape_info(self, args, out):
        tape = args[0]
        self._tapes = [r for r in self._tapes if r() is not None]
        self.tapes_alive_max = max(self.tapes_alive_max, len(self._tapes))
        ops = Counter(_op_bucket(n.op) for n in tape.nodes)
        nbytes = sum(getattr(n.value, "nbytes", 8) for n in tape.nodes)
        return len(tape.nodes), nbytes, ops

    def _epoch_end(self, args, out):
        if self._epoch_start is not None:
            self.spans.append(["explain.epoch", self._epoch_start, time.perf_counter(), -1, None])
            self._epoch_start = None

    def dump(self, path, extra):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows, **extra}, fh)


def _per(num, den):
    return num / den if den else 0.0


def _median_span(spans):
    return statistics.median(s[2] - s[1] for s in spans) if spans else 0.0


def _under(spans, i, name):
    """True when span i has an ancestor called `name`."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(tracer, first_start, first_end, first_targets, targets):
    """Per-layer metrics from the spans.

    Spans before `first_start` come from set-up; [first_start, first_end) is
    the first traced pass, which runs the same jobs on every run of a seed, so
    the counts and graph shapes taken from it repeat exactly. Times are totals
    over every traced pass, per explained target (`targets` of them).
    """
    spans = tracer.spans
    first = spans[first_start:first_end]
    total = Counter()
    for s in spans[first_start:]:
        total[s[0]] += s[2] - s[1]
    calls = Counter(s[0] for s in first)
    m = {}
    for k in KERNELS:
        name = f"kernels.{k}"
        m[f"{name}_s"] = _per(total[name], targets)
        m[f"{name}_calls"] = _per(calls[name], first_targets)
        m[f"{name}_bytes"] = _per(sum(s[4] for s in first if s[0] == name), first_targets)

    tapes = [s[4] for s in first if s[0] == "explain.backward"]
    ops = Counter()
    for t in tapes:
        ops.update(t[2])
    m["autodiff.nodes_per_epoch"] = _per(sum(t[0] for t in tapes), len(tapes))
    for op in OPS:
        m[f"autodiff.ops.{op}"] = _per(ops[op], len(tapes))
    m["autodiff.value_bytes_per_epoch"] = _per(sum(t[1] for t in tapes), len(tapes))
    m["autodiff.tapes_alive_max"] = tracer.tapes_alive_max

    for key in ("job_init", "forward", "backward", "sgd", "paths"):
        m[f"explain.{key}_s"] = _per(total[f"explain.{key}"], targets)
    epoch_spans = [s for s in spans[first_start:] if s[0] == "explain.epoch"]
    m["explain.epoch_s_p50"] = _median_span(epoch_spans)
    # epochs of the largest ego-graph, the size ROADMAP's explainer baseline
    # is stated at on fb-explain
    trains = [s for s in spans[first_start:] if s[0] == "explain.train"]
    top = max((t[4] for t in trains), default=None)
    biggest = [t for t in trains if t[4] == top]
    m["explain.epoch_s_ego_max"] = _median_span(
        [e for e in epoch_spans if any(t[1] <= e[1] and e[2] <= t[2] for t in biggest)])
    path_counts = [s[4] for s in first if s[0] == "explain.paths"]
    m["explain.path_yield"] = _per(sum(1 for c in path_counts if c), calls["explain.train"])

    for key in ("extract", "kcore", "walk_counts"):
        m[f"kgraph.{key}_s"] = _per(total[f"kgraph.{key}"], targets)
    loads = [s[2] - s[1] for s in spans[:first_start] if s[0] == "kgraph.load_triples"]
    m["kgraph.load_triples_s"] = statistics.median(loads) if loads else 0.0
    m["kgraph.graph_builds_per_target"] = _per(calls["kgraph.graph_build"], first_targets)
    m["kgraph.ego_builds_per_target"] = _per(calls["kgraph.prepare"], first_targets)
    ego = [s[4] for s in first if s[0] == "explain.train"]
    m["kgraph.ego_triples_p50"] = statistics.median(ego) if ego else 0.0
    m["kgraph.ego_triples_max"] = max(ego) if ego else 0
    kcore = [s[4] for s in first if s[0] == "kgraph.kcore"]
    m["kgraph.kcore_kept_share"] = _per(sum(k[1] for k in kcore), sum(k[0] for k in kcore))

    encodes = [i for i in range(first_start, len(spans)) if spans[i][0] == "model.encode"
               and not _under(spans, i, "model.train")]
    m["model.encode_s"] = _per(sum(spans[i][2] - spans[i][1] for i in encodes), targets)
    m["model.encode_calls_per_target"] = _per(sum(1 for i in encodes if i < first_end),
                                              first_targets)
    m["model.train_s"] = _per(total["model.train"], targets)
    ckpt = [s[2] - s[1] for s in spans[:first_start] if s[0] == "model.load_checkpoint"]
    m["model.load_checkpoint_s"] = statistics.median(ckpt) if ckpt else 0.0

    filters = [s[4] for s in first if s[0] == "metrics.filter"]
    m["metrics.filter_s"] = _per(total["metrics.filter"], targets)
    m["metrics.filter_yield"] = _per(sum(filters), len(filters))
    m["metrics.measure_s"] = _per(total["metrics.measure"], targets)

    instances = sum(1 for s in spans[first_start:] if s[0] == "harness.instance")
    m["harness.generate_s"] = _per(total["harness.generate"], instances)
    m["harness.instance_s"] = _per(total["harness.instance"], instances)
    return m

