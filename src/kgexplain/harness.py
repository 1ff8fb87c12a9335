"""Synthetic planted-path instances and the desk-scale suite driver.

An instance plants node-disjoint head->tail paths that all use one
"explains" relation, adds the asserted (head, target, tail) triple to the
training set, and sprinkles noise. Distractor edges are rejection-sampled
so no head->tail route of length <= the planted length exists besides the
planted paths themselves; optional decoy paths deliberately add
equal-length routes over noise relations so ablations have competing
candidates to mis-rank.
"""

from __future__ import annotations

import math
import sys
import time
import typing
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ContractError, DataError, at_least, one_of
from .explain import (
    ExplainConfig,
    generate_paths,
    prepare_computation_graph,
    train_explainer,
    train_explainers,
)
from .kgraph import KnowledgeGraph, TargetTriple, check_ego_settings, full_graph, hop_distances
from .metrics import HDR_PATH_COUNTS, csv_text, json_text, measure_explanation
from .model import (
    KgcModel,
    ModelConfig,
    _check_model_settings,
    _refuse_beyond_memory,
    _refuse_model_beyond_memory,
    encode,
    train_kgc,
)

EXPLAIN_REL = 0
TARGET_REL = 1
NOISE_REL_BASE = 2
# reliant_model's encoder: one layer, whose basis 0 carries the explains
# relation and basis 1 every other
RELIANT_LAYERS, RELIANT_BASES = 1, 2
# its self-loop weight, explains gain, and raw target score on the full graph
RELIANT_ALPHA, RELIANT_GAIN, RELIANT_BASE_RAW = 0.4, 2.0, 0.9


@dataclass
class PlantedConfig:
    n_entities: int = 40
    n_relations: int = 6
    n_planted_paths: int = 2
    path_len: int = 2
    n_distractors: int = 30
    n_decoy_paths: int = 0
    n_context_groups: int = 4
    seed: int = 0

    def validate(self):
        """DataError for settings that no instance can meet; ContractError
        when its names and hop counts could not fit in physical memory."""
        if self.path_len not in (1, 2, 3, 4):
            raise DataError("path_len must be in {1, 2, 3, 4}")
        at_least("n_planted_paths", self.n_planted_paths, 1, DataError)
        for name in ("n_distractors", "n_decoy_paths", "n_context_groups"):
            at_least(name, getattr(self, name), 0, DataError)
        inner = self.path_len - 1
        reserved = (
            2
            + inner * (self.n_planted_paths + self.n_decoy_paths)
            + self.n_context_groups * (2 + inner)
            - (2 if self.n_context_groups >= 2 else 0)
        )
        if self.n_entities < reserved:
            raise DataError(
                f"n_entities={self.n_entities} cannot host the requested disjoint paths "
                f"and context groups ({reserved} nodes needed)"
            )
        needs_noise = self.n_distractors > 0 or self.n_decoy_paths > 0
        if self.n_relations < 2 + (1 if needs_noise else 0):
            raise DataError("n_relations too small: need explains, target, and noise relations")
        distinct = self.n_entities * (self.n_entities - 1) * len(_noise_relations(self)[0])
        if self.n_distractors > distinct:
            raise DataError(
                f"n_distractors={self.n_distractors} exceeds the {distinct} distinct "
                "distractor triples of this instance; use more entities or fewer distractors"
            )
        # each name is a str and a slot in the name list; each entity also has
        # two int64 hop counts, from the head and to the tail
        name = sys.getsizeof("e0") + 8
        _refuse_beyond_memory(
            self.n_entities * (name + 16) + self.n_relations * name,
            f"the planted instance's names and hop counts (n_entities={self.n_entities}, "
            f"n_relations={self.n_relations})",
        )


@dataclass
class PlantedInstance:
    graph: KnowledgeGraph
    target: TargetTriple
    planted_paths: list
    decoy_paths: list
    distractor_edges: list
    seed: int


def _directed_distances(n, edges, start, reverse=False, max_dist=None):
    """Directed hops from `start` over (h, r, t) triples (t -> h when
    `reverse`), -1 where unreachable or beyond `max_dist` (default n)."""
    h, _, t = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    src, dst = (t, h) if reverse else (h, t)
    return hop_distances(n, src, dst, [start], n if max_dist is None else max_dist)


def _closes_route(d_h, d_t, path_len):
    """Whether an edge a -> b closes a head->tail route of at most `path_len`
    hops, given a's hops from head `d_h` and b's hops to tail `d_t` (-1:
    none)."""
    return (d_h >= 0) & (d_t >= 0) & (d_h + 1 + d_t <= path_len)


def _placeable_distractors(triples, is_rel, d_h, d_t, path_len):
    """How many (a, r, b) with `is_rel[r]` a distractor could still be: no
    self-loop, none of the (E, 3) `triples` yet, and no head->tail route of
    at most `path_len` hops closed (`_closes_route`).
    O(n + edges): the shortcut pairs are counted from histograms of the hop
    counts."""
    n = len(d_h)
    hist_h = np.bincount(d_h[d_h >= 0], minlength=path_len)
    # within_t[k]: nodes at most k hops before tail; reversed, it pairs each
    # head distance i with the tail distances of at most path_len - 1 - i
    within_t = np.cumsum(np.bincount(d_t[d_t >= 0], minlength=path_len))
    pairs = int(hist_h @ within_t[::-1]) - np.count_nonzero(_closes_route(d_h, d_t, path_len))
    h, r, t = triples.T
    own = is_rel[r] & (h != t)
    existing = np.count_nonzero(~_closes_route(d_h[h[own]], d_t[t[own]], path_len))
    return np.count_nonzero(is_rel) * (n * (n - 1) - pairs) - existing


def _noise_relations(cfg: PlantedConfig):
    """(distractor relations, decoy relations) as ranges: with decoy paths
    and at least two noise relations, each kind takes its own half."""
    noise = range(NOISE_REL_BASE, cfg.n_relations)
    if cfg.n_decoy_paths > 0 and len(noise) >= 2:
        return noise[: len(noise) // 2], noise[len(noise) // 2 :]
    return noise, noise


def generate_planted(config: PlantedConfig) -> PlantedInstance:
    """Deterministic planted instance; raises DataError when infeasible.

    Context groups replicate the (explains-chain => target) pattern on
    disjoint entity pairs so a trained model has to rely on the chain
    messages rather than memorised embeddings. Decoy paths connect head to
    tail at the planted length over decoy-only noise relations, giving the
    mask something plausible but unsupportive to rank.
    """
    cfg = config
    cfg.validate()
    inner = cfg.path_len - 1
    rng = np.random.default_rng(cfg.seed)
    head, tail = 0, 1
    distract_rels, decoy_rels = map(list, _noise_relations(cfg))

    edges = []
    seen = set()
    names = {head: "head", tail: "tail"}

    def put(h, r, t):
        if (h, r, t) not in seen:
            seen.add((h, r, t))
            edges.append((h, r, t))

    next_node = 2

    def fresh(name):
        nonlocal next_node
        names[next_node] = name
        next_node += 1
        return next_node - 1

    def lay(a, b, label, rel=lambda: EXPLAIN_REL):
        """Put a chain a -> b through `inner` fresh nodes, `rel()` drawn per edge."""
        chain = [a, *(fresh(f"{label}_{j}") for j in range(inner)), b]
        path = [(h, rel(), t) for h, t in zip(chain, chain[1:])]
        for edge in path:
            put(*edge)
        return path

    planted_paths = [lay(head, tail, f"mid{p}") for p in range(cfg.n_planted_paths)]
    decoy_paths = [lay(head, tail, f"decoy{p}", lambda: int(rng.choice(decoy_rels)))
                   for p in range(cfg.n_decoy_paths)]
    # the first two groups reuse the target endpoints so both endpoint roles
    # are trained even though the explained pair itself may not be
    shared = ((head, None), (None, tail)) if cfg.n_context_groups >= 2 else ()
    for gidx in range(cfg.n_context_groups):
        gh, gt = shared[gidx] if gidx < len(shared) else (None, None)
        gh = fresh(f"ctx{gidx}_head") if gh is None else gh
        gt = fresh(f"ctx{gidx}_tail") if gt is None else gt
        lay(gh, gt, f"ctx{gidx}")
        put(gh, TARGET_REL, gt)

    distractors = []
    attempts = 0
    max_attempts = 200 * max(cfg.n_distractors, 1)
    stuck = ("could not place distractors without creating a head->tail shortcut; "
             "use more entities or fewer distractors")
    is_distract = np.isin(np.arange(cfg.n_relations), distract_rels)
    # hops from head and to tail over the current edges, up to path_len - 1
    # (a farther node closes no route of at most path_len); a rejected
    # candidate adds no edge, so they are searched again only after an accept
    d_h = d_t = None
    while len(distractors) < cfg.n_distractors:
        if d_h is None:
            triples = np.array(edges, dtype=np.int64).reshape(-1, 3)
            d_h = _directed_distances(cfg.n_entities, triples, head, max_dist=inner)
            d_t = _directed_distances(cfg.n_entities, triples, tail, reverse=True,
                                      max_dist=inner)
            # Edges only grow, so the triples that can still be placed only
            # shrink, and each accept takes one of them: with too few left the
            # attempts below could never succeed, so give up at once.
            placeable = _placeable_distractors(triples, is_distract, d_h, d_t, cfg.path_len)
            if placeable < cfg.n_distractors - len(distractors):
                raise DataError(stuck)
        attempts += 1
        if attempts > max_attempts:
            raise DataError(stuck)
        a = int(rng.integers(0, cfg.n_entities))
        b = int(rng.integers(0, cfg.n_entities))
        r = int(rng.choice(distract_rels))
        if a == b or (a, r, b) in seen:
            continue
        if _closes_route(d_h[a], d_t[b], cfg.path_len):
            continue
        put(a, r, b)
        distractors.append((a, r, b))
        d_h = d_t = None

    # the asserted fact itself, trained on so the model predicts it confidently
    put(head, TARGET_REL, tail)

    check = [e for e in edges if e != (head, TARGET_REL, tail)]
    d_h = _directed_distances(cfg.n_entities, check, head)
    if d_h[tail] != cfg.path_len:
        raise DataError("internal generator error: planted paths are not shortest")

    entity_names = [names.get(i, f"e{i}") for i in range(cfg.n_entities)]
    relation_names = ["explains", "target"] + [
        f"noise{i}" for i in range(cfg.n_relations - 2)
    ]

    arr = np.array(edges, dtype=np.int64)
    graph = KnowledgeGraph(
        cfg.n_entities, cfg.n_relations, arr[:, 0], arr[:, 1], arr[:, 2],
        entity_names, relation_names,
    )
    target = TargetTriple(head, TARGET_REL, tail)
    return PlantedInstance(graph, target, planted_paths, decoy_paths, distractors, cfg.seed)


def reliant_model(g: KnowledgeGraph, target: TargetTriple, dim: int = 8, seed: int = 0) -> KgcModel:
    """Hand-set model whose target score provably tracks explains-chain mass.

    Entity embeddings reserve coordinate 0 with a constant positive mass;
    the explains relation transports it (identity basis), every other
    relation is routed through a basis with coordinate 0 zeroed out, and
    the target relation's decoder embedding reads coordinate 0 alone.
    With one layer every explains message into the tail carries the same
    mass, so under mean aggregation deleting an explains-path triple can
    never raise the target's raw score while deleting a no-mass triple
    strictly raises it: explanation-quality metrics then measure route
    selection rather than accidents of toy-scale training.

    The read-out weight is calibrated so the unexplained target scores
    `RELIANT_BASE_RAW` on the full graph (minus the asserted triple itself).
    """
    model = KgcModel(g.num_entities, g.num_relations, dim=dim, layers=RELIANT_LAYERS,
                     bases=RELIANT_BASES, decoder="distmult", seed=seed)
    rng = np.random.default_rng(seed + 17)
    p = model.store.params
    mu = 0.6
    ent = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(g.num_entities, dim))
    ent[:, 0] = mu
    p["ent"][...] = ent
    eye = np.eye(dim)
    for layer in range(model.layers):
        p[f"self_{layer}"][...] = RELIANT_ALPHA * eye
        p[f"basis_{layer}_0"][...] = RELIANT_GAIN * eye
        b1 = rng.normal(0.0, 0.25 / np.sqrt(dim), size=(dim, dim))
        b1[0, :] = 0.0
        b1[:, 0] = 0.0
        p[f"basis_{layer}_1"][...] = b1
        coef = np.zeros((g.num_relations, 2))
        coef[:, 1] = 1.0
        coef[EXPLAIN_REL] = (1.0, 0.0)
        p[f"coef_{layer}"][...] = coef
    gc = full_graph(g, target)
    row = gc.triple_index_of(gc.head_local, target.relation, gc.tail_local)
    H = encode(model, gc.without_triples([row]) if row >= 0 else gc)
    mass = H[target.head, 0] * H[target.tail, 0]
    r_target = np.zeros(dim)
    r_target[0] = RELIANT_BASE_RAW / mass
    p["rel"][target.relation] = r_target
    return model


# ---------------------------------------------------------------------------
# suite driver


MODEL_SOURCES = ("trained", "reliant")


def _in_section(section, check):
    """Run `check`; the error it raises names the suite config section."""
    try:
        check()
    except (ContractError, DataError) as exc:
        raise type(exc)(f"{section} section: {exc}") from None


def _field_types(cls) -> dict:
    """Field name -> the types its annotation allows."""
    return {name: typing.get_args(hint) or (hint,)
            for name, hint in typing.get_type_hints(cls).items()}


@dataclass
class SuiteConfig:
    n_instances: int = 20
    base_seed: int = 0
    instance: PlantedConfig = field(default_factory=PlantedConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    explain: ExplainConfig = field(default_factory=ExplainConfig)
    model_source: str = "trained"   # "trained" or "reliant" (hand-set oracle model)
    hops: int | None = None
    k_core: int = 2
    max_nodes: int | None = None
    ablations: bool = False

    def resolved_hops(self):
        return self.hops if self.hops is not None else max(1, self.instance.path_len // 2)

    @classmethod
    def from_flat_dict(cls, flat) -> "SuiteConfig":
        """Flat key-value file format: instance.*/model.*/explain.* prefixes.

        Raises DataError unless `flat` is a table of known keys whose values
        have their field's type (an int also fills a float field), then
        refuses what `validate` refuses."""
        if not isinstance(flat, dict):
            raise DataError(f"suite config must be a table of keys, not a {type(flat).__name__}")
        cfg = cls()
        sections = {"instance": cfg.instance, "model": cfg.model, "explain": cfg.explain}
        for key, value in flat.items():
            section, _, name = key.rpartition(".")
            obj = sections.get(section) if section else cfg
            allowed = _field_types(type(obj)).get(name) if obj is not None else None
            if allowed is None:
                raise DataError(f"unknown suite config key {key!r}")
            if not (type(value) in allowed or (type(value) is int and float in allowed)):
                names = " or ".join(t.__name__ for t in allowed)
                raise DataError(f"suite config key {key!r} must be {names}, got {value!r}")
            setattr(obj, name, value)
        cfg.validate()
        return cfg

    def validate(self):
        """Refuse what a run would refuse after writing its config, and what
        it could not run: an unknown model source and fewer than one instance
        (DataError), a negative base seed (ContractError), a model or an
        instance that could not fit in physical memory (ContractError), the
        instance (DataError), the model a trained source would train (for a
        reliant model, only its dim), the ego-graph settings and each mode's
        explain config (ContractError). The seeds checked are those a run
        uses."""
        one_of("model_source", self.model_source, MODEL_SOURCES, DataError)
        at_least("n_instances", self.n_instances, 1, DataError)
        at_least("base_seed", self.base_seed, 0)
        # the model's bound first: at the default dim it is the larger per entity
        layers, bases = ((RELIANT_LAYERS, RELIANT_BASES) if self.model_source == "reliant"
                         else (self.model.layers, self.model.bases))
        _refuse_model_beyond_memory(self.instance.n_entities, self.instance.n_relations,
                                    self.model.dim, layers, bases)
        _in_section("instance", self.instance.validate)
        if self.model_source == "reliant":
            _in_section("model", lambda: _check_model_settings(
                self.model.dim, RELIANT_LAYERS, RELIANT_BASES, "distmult"))
        else:
            _in_section("model", replace(self.model, seed=self.base_seed).validate)
        check_ego_settings(self.resolved_hops(), self.k_core, self.max_nodes)
        for mode in self.modes():
            _in_section("explain", _mode_config(self.explain, mode, self.base_seed).validate)

    def modes(self) -> tuple:
        """The explainer modes a run trains: `MODES` with ablations, else "full"."""
        return MODES if self.ablations else ("full",)

    def to_flat_dict(self):
        out = {k: v for k, v in asdict(self).items()
               if k not in ("instance", "model", "explain")}
        for section, obj in (("instance", self.instance), ("model", self.model),
                             ("explain", self.explain)):
            for k, v in asdict(obj).items():
                out[f"{section}.{k}"] = v
        return out


MODES = ("full", "path_off", "mi_off")


def _mode_config(base: ExplainConfig, mode: str, seed: int) -> ExplainConfig:
    cfg = replace(base, seed=seed)
    if mode == "path_off":
        cfg = replace(cfg, enable_path_loss=False)
    elif mode == "mi_off":
        cfg = replace(cfg, enable_mi_loss=False)
    return cfg


def run_instance(suite: SuiteConfig, seed: int):
    """Generate, train (or construct), explain per enabled mode, and measure.
    The ablation modes' explainers train as one batch (`train_explainers`)."""
    inst = generate_planted(replace(suite.instance, seed=seed))
    if suite.model_source == "reliant":
        model = reliant_model(inst.graph, inst.target, dim=suite.model.dim, seed=seed)
    else:
        model = train_kgc(inst.graph, replace(suite.model, seed=seed))
    gc = prepare_computation_graph(
        inst.graph, inst.target, suite.resolved_hops(), suite.k_core, suite.max_nodes
    )
    modes = suite.modes()
    configs = [_mode_config(suite.explain, mode, seed) for mode in modes]
    # the modes share the ego-graph, target, model and seed: one batch
    results = (train_explainers(model, gc, inst.target, configs) if suite.ablations
               else [train_explainer(model, gc, inst.target, configs[0])])
    out = {"seed": seed}
    for mode, cfg, result in zip(modes, configs, results):
        explanation = generate_paths(gc, result.mask, inst.target, cfg.num_paths,
                                     cfg.power_order)
        row = measure_explanation(model, gc, inst.target, result.mask, explanation)
        returned = [p.triples for p in explanation.paths]
        planted = inst.planted_paths
        matches = [p for p in returned if p in planted]
        row["top1_match"] = bool(returned) and returned[0] in planted
        row["precision"] = len(matches) / len(returned) if returned else 0.0
        row["recall"] = len({tuple(map(tuple, p)) for p in matches}) / len(planted)
        row["n_paths"] = len(returned)
        out[mode] = row
    return out


def sign_test_p(diffs) -> float:
    """One-sided sign test: P(at least this many positive signs | fair coin)."""
    nonzero = [d for d in diffs if d != 0]
    if not nonzero:
        return 1.0
    n = len(nonzero)
    k = sum(1 for d in nonzero if d > 0)
    return sum(math.comb(n, j) for j in range(k, n + 1)) / 2.0**n


SUITE_CSV_COLUMNS = (
    "seed", "mode", "f_plus", "f_minus", "sparsity", "hit1", "hit3", "hit5",
    "top1_match", "precision", "recall", "n_paths",
)


# each mode's aggregate: the mean over instances of its row key
MODE_AGGREGATES = {
    "recovery_rate": "top1_match", "precision": "precision", "recall": "recall",
    "f_plus": "f_plus", "f_minus": "f_minus", "sparsity": "sparsity",
    **{f"hdr{m}": f"hit{m}" for m in HDR_PATH_COUNTS},
}


def run_suite(suite: SuiteConfig, out_dir=None):
    """Runs every instance, aggregates recovery and metric trends, and (when
    out_dir is given) writes config echo, per-instance JSON, and aggregate
    JSON + CSV with deterministic bytes. Invalid settings, and a model or
    an instance that could not fit in physical memory, are refused before
    anything is written or any instance is generated."""
    t0 = time.perf_counter()
    suite.validate()
    flat = suite.to_flat_dict()
    out = None
    if out_dir is not None:
        from pathlib import Path

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(json_text(flat))
    instances = [run_instance(suite, suite.base_seed + i) for i in range(suite.n_instances)]
    modes = suite.modes()
    agg = {"n_instances": suite.n_instances, "modes": {
        mode: {name: float(np.mean([r[mode][key] for r in instances]))
               for name, key in MODE_AGGREGATES.items()}
        for mode in modes}}
    if suite.ablations:
        full_hits = [r["full"]["hit1"] for r in instances]
        for mode in ("path_off", "mi_off"):
            other = [r[mode]["hit1"] for r in instances]
            diffs = [int(a) - int(b) for a, b in zip(full_hits, other)]
            agg[f"sign_test_full_vs_{mode}"] = sign_test_p(diffs)
    report = {"config": flat, "aggregate": agg, "instances": instances}
    if out is not None:
        for r in instances:
            (out / f"instance_{r['seed']}.json").write_text(json_text(r))
        (out / "aggregate.json").write_text(json_text({"config": flat, "aggregate": agg}))
        rows = [{**r[mode], "seed": r["seed"], "mode": mode} for r in instances for mode in modes]
        (out / "aggregate.csv").write_text(csv_text(SUITE_CSV_COLUMNS, rows))
    report["wall_time_s"] = time.perf_counter() - t0
    return report


def ablation_suite_config(n_instances: int = 32, base_seed: int = 0) -> SuiteConfig:
    """Canonical paired-seed suite for the loss-ablation comparison.

    Decoy routes give target-blind objectives something plausible to
    pick; the hand-set reliant model makes route choice measurable; the
    mask hyperparameters sit where 50 epochs train to meaningful margins
    at this graph size.
    """
    return SuiteConfig(
        n_instances=n_instances,
        base_seed=base_seed,
        ablations=True,
        model_source="reliant",
        instance=PlantedConfig(
            n_decoy_paths=3, n_context_groups=4, n_entities=50, n_distractors=30
        ),
        explain=ExplainConfig(gamma=0.3, lr=0.03),
        hops=2,
    )


def power_order_suite_config(power_order: int, n_instances: int = 20,
                             base_seed: int = 0) -> SuiteConfig:
    """Length-4 planted paths explained at the given power order."""
    return SuiteConfig(
        n_instances=n_instances,
        base_seed=base_seed,
        model_source="reliant",
        instance=PlantedConfig(
            path_len=4, n_planted_paths=2, n_context_groups=4,
            n_entities=44, n_distractors=20,
        ),
        explain=ExplainConfig(power_order=power_order),
        hops=2,
    )
