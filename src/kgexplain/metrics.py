"""Explanation-quality metrics: Fidelity+, Fidelity-, Sparsity, and the
hit-rate-on-removal family (HDR:m).

Fidelity uses probability scores and measures the prediction change when
the explanation mask is removed from (F+) or kept as (F-) the input
graph. HDR:m deletes the triples on the top-m explanation paths and
counts a hit when the raw score does not increase; a tie therefore
counts as a hit, exactly as the strict-inequality indicator dictates.
"""

from __future__ import annotations

import json
import time
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, at_least, one_of
from .explain import (
    EdgeScoreMatrix,
    ExplainConfig,
    Explanation,
    _walk_bytes,
    generate_paths,
    prepare_computation_graph,
    train_explainer,
)
from .kgraph import ComputationGraph, KnowledgeGraph, TargetTriple, check_ego_settings
from .model import KgcModel, TargetScorer, rank_target, score_target_masked
from .parallel import _fork_map

HDR_PATH_COUNTS = (1, 3, 5)


@dataclass
class MetricReport:
    fidelity_plus: float
    fidelity_minus: float
    sparsity: float
    h_delta_r: dict
    n_samples: int

    def to_json_dict(self):
        return {
            "fidelity_plus": self.fidelity_plus,
            "fidelity_minus": self.fidelity_minus,
            "sparsity": self.sparsity,
            "h_delta_r": {str(m): v for m, v in self.h_delta_r.items()},
            "n_samples": self.n_samples,
        }


def sparsity(mask: EdgeScoreMatrix, gc: ComputationGraph) -> float:
    """1 - mean mask value over the graph's edge positions (1 when empty)."""
    if gc.num_pairs == 0:
        return 1.0
    return 1.0 - float(mask.values.sum()) / gc.num_pairs


THRESHOLD_RULES = ("prob", "rank1")  # model probability > 0.5, or the true tail ranked first


@dataclass
class EvalConfig:
    sample_num: int = 20
    threshold_rule: str = "prob"
    k_hop: int = 1
    k_core: int = 2
    max_nodes: int | None = 1000
    seed: int = 0
    explain: ExplainConfig = field(default_factory=ExplainConfig)

    def validate(self):
        at_least("sample_num", self.sample_num, 1)
        one_of("threshold_rule", self.threshold_rule, THRESHOLD_RULES)
        at_least("seed", self.seed, 0)
        check_ego_settings(self.k_hop, self.k_core, self.max_nodes,
                           names=("k_hop", "k_core", "max_nodes"))
        self.explain.validate()


def measure_explanation(model: KgcModel, gc: ComputationGraph, target: TargetTriple,
                        mask: EdgeScoreMatrix, explanation: Explanation):
    """Metric row for an already-computed explanation: the package's one
    implementation of F+, F-, sparsity and HDR:m. One scorer serves the
    unmasked, complement and kept masks, and its single unmasked forward
    pass feeds every metric. Each distinct set of deleted rows (the triples
    on the top-m paths) is built and scored once, since m beyond the path
    count deletes what the path count does."""
    scorer = TargetScorer(model, gc, target)
    base_raw, base_prob = map(float, scorer(None)[:2])
    row = {
        "head": target.head,
        "relation": target.relation,
        "tail": target.tail,
        "f_plus": abs(base_prob - float(scorer(mask.complement())[1])),
        "f_minus": abs(float(scorer(mask)[1]) - base_prob),
        "sparsity": sparsity(mask, gc),
    }
    removed_raw = {}
    for m in HDR_PATH_COUNTS:
        rows = tuple(sorted({r for p in explanation.paths[:m] for r in p.triple_indices}))
        if rows not in removed_raw:
            gt = gc.without_triples(rows) if rows else gc
            removed_raw[rows] = score_target_masked(model, gt, None, target).raw
        row[f"hit{m}"] = not (removed_raw[rows] > base_raw)
    return row


def _is_explainable(model, g, target, cfg: EvalConfig):
    gc = prepare_computation_graph(g, target, cfg.k_hop, cfg.k_core, cfg.max_nodes)
    if cfg.threshold_rule == "prob":
        return score_target_masked(model, gc, None, target).probability > 0.5
    return rank_target(model, gc, target) == 1


def _train_one(model, g, cfg: EvalConfig, target):
    """The part of one target's explanation a worker runs: (its ego-graph, its
    trained explainer's mask, the training's seconds), all that the calling
    process reads. The mask shares the ego-graph's pair arrays, so a pickled
    outcome holds each of them once."""
    gc = prepare_computation_graph(g, target, cfg.k_hop, cfg.k_core, cfg.max_nodes)
    t0 = time.perf_counter()
    mask = train_explainer(model, gc, target, cfg.explain).mask
    return gc, mask, time.perf_counter() - t0


def evaluate_batch(model: KgcModel, g: KnowledgeGraph, candidates, cfg: EvalConfig):
    """Filter candidates by the explainability rule, sample deterministically,
    explain each, and aggregate a MetricReport plus one CSV-ready row per
    target. The explainers' training runs in worker processes
    (`parallel._fork_map`); the filter, and the paths' extraction and
    measurement, run here, in target order. A row's `wall_time_s` is its
    target's training, extraction and measurement time."""
    cfg.validate()
    explainable = [t for t in candidates if _is_explainable(model, g, t, cfg)]
    if not explainable:
        raise DataError(
            "no explainable target triples under rule "
            f"{cfg.threshold_rule!r}; relax the threshold or switch rules"
        )
    rng = np.random.default_rng(cfg.seed)
    if len(explainable) > cfg.sample_num:
        idx = rng.choice(len(explainable), size=cfg.sample_num, replace=False)
        sampled = [explainable[i] for i in sorted(idx.tolist())]
    else:
        sampled = explainable
    nodes = min(cfg.max_nodes or g.num_entities, g.num_entities)
    job_bytes = _walk_bytes([cfg.explain], nodes)
    rows = []
    with closing(_fork_map(lambda t: _train_one(model, g, cfg, t), sampled, job_bytes)) as trained:
        for target, (gc, mask, train_s) in zip(sampled, trained):
            t0 = time.perf_counter()
            explanation = generate_paths(gc, mask, target, cfg.explain.num_paths,
                                         cfg.explain.power_order)
            row = measure_explanation(model, gc, target, mask, explanation)
            row["epochs"] = cfg.explain.epochs
            row["wall_time_s"] = train_s + time.perf_counter() - t0
            rows.append(row)
    report = MetricReport(
        fidelity_plus=float(np.mean([r["f_plus"] for r in rows])),
        fidelity_minus=float(np.mean([r["f_minus"] for r in rows])),
        sparsity=float(np.mean([r["sparsity"] for r in rows])),
        h_delta_r={m: float(np.mean([r[f"hit{m}"] for r in rows])) for m in HDR_PATH_COUNTS},
        n_samples=len(rows),
    )
    return report, rows


CSV_COLUMNS = (
    "head", "relation", "tail", "f_plus", "f_minus", "sparsity",
    "hit1", "hit3", "hit5", "epochs", "wall_time_s",
)


def json_text(obj) -> str:
    """The one JSON form of every output file: indented, keys sorted, with a
    trailing newline, so equal content gives equal bytes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def csv_text(columns, rows) -> str:
    """Header plus one line per row dict; bools as 1/0, floats by repr."""
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(r[c]) for c in columns) for r in rows)
    return "\n".join(lines) + "\n"
