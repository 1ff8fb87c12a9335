"""Property tests over random small knowledge graphs: the pruned computation
graph, the trained mask and its metrics, and the extracted paths; and over
drawn planted-instance settings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgexplain.errors import DataError
from kgexplain.explain import (
    ExplainConfig,
    generate_paths,
    prepare_computation_graph,
    train_explainer,
)
from kgexplain.harness import (
    EXPLAIN_REL,
    TARGET_REL,
    PlantedConfig,
    _directed_distances,
    _noise_relations,
    generate_planted,
)
from kgexplain.kgraph import KnowledgeGraph, TargetTriple
from kgexplain.metrics import measure_explanation
from kgexplain.model import KgcModel


@st.composite
def small_kgs(draw):
    """(graph, target, k) with 2-8 entities, 1-3 relations and 1-24 triples;
    the target triple itself may or may not be in the graph."""
    n = draw(st.integers(2, 8))
    n_rel = draw(st.integers(1, 3))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n_rel - 1), st.integers(0, n - 1))
    triples = sorted(draw(st.sets(cells, min_size=1, max_size=24)))
    h, r, t = (np.array(c, dtype=np.int64) for c in zip(*triples))
    head = draw(st.integers(0, n - 1))
    tail = draw(st.integers(0, n - 1).filter(lambda x: x != head))
    target = TargetTriple(head, draw(st.integers(0, n_rel - 1)), tail)
    return KnowledgeGraph(n, n_rel, h, r, t), target, draw(st.integers(0, 3))


@settings(max_examples=100, deadline=None)
@given(small_kgs(), st.integers(1, 3))
def test_pruned_graph_keeps_endpoints_core_and_consistent_pairs(case, hops):
    g, target, k = case
    gc = prepare_computation_graph(g, target, hops, k)

    assert gc.nodes[gc.head_local] == target.head
    assert gc.nodes[gc.tail_local] == target.tail
    deg = gc.undirected_degrees()
    others = np.ones(gc.num_nodes, dtype=bool)
    others[[gc.head_local, gc.tail_local]] = False
    assert (deg[others] >= k).all()

    kg_triples = set(g.triples)
    local = [(int(gc.nodes[s]), int(r), int(gc.nodes[d])) for s, r, d in gc.edges]
    assert set(local) <= kg_triples
    assert (target.head, target.relation, target.tail) not in local

    ptr = gc.pair_indptr
    assert ptr[0] == 0 and ptr[-1] == gc.num_edges and (np.diff(ptr) > 0).all()
    assert len(ptr) == gc.num_pairs + 1
    for p in range(gc.num_pairs):
        rows = slice(ptr[p], ptr[p + 1])
        assert (gc.src[rows] == gc.pair_src[p]).all() and (gc.dst[rows] == gc.pair_dst[p]).all()
        assert (gc.pair_index[rows] == p).all()
    keys = gc.pair_src * gc.num_nodes + gc.pair_dst
    assert (np.diff(keys) > 0).all()
    adj = gc.adj_indptr
    assert adj[0] == 0 and adj[-1] == gc.num_pairs and len(adj) == gc.num_nodes + 1
    for u in range(gc.num_nodes):
        assert (gc.pair_src[adj[u]:adj[u + 1]] == u).all()


@settings(max_examples=100, deadline=None)
@given(small_kgs(), st.integers(2, 4), st.sampled_from(["concatenation", "euclidean"]),
       st.integers(0, 2**16))
def test_mask_metrics_in_unit_interval_and_paths_edge_disjoint(case, power_order, mode, seed):
    g, target, k = case
    gc = prepare_computation_graph(g, target, 2, k)
    model = KgcModel(g.num_entities, g.num_relations, dim=2, layers=1, seed=seed)
    cfg = ExplainConfig(epochs=3, power_order=power_order, combine_mode=mode, seed=seed)
    result = train_explainer(model, gc, target, cfg)

    values = result.mask.values
    assert values.shape == (gc.num_pairs,)
    assert ((values >= 0.0) & (values <= 1.0)).all()

    explanation = generate_paths(gc, result.mask, target, num_paths=3, max_len=power_order)
    row = measure_explanation(model, gc, target, result.mask, explanation)
    for metric in ("f_plus", "f_minus", "sparsity"):
        assert 0.0 <= row[metric] <= 1.0, (metric, row[metric])

    kg_triples = set(g.triples)
    used = []
    for path in explanation.paths:
        assert 1 <= len(path.triples) <= power_order
        assert set(path.triples) <= kg_triples
        assert path.triples[0][0] == target.head and path.triples[-1][2] == target.tail
        assert all(a[2] == b[0] for a, b in zip(path.triples, path.triples[1:]))
        used += [(gc.src[row], gc.dst[row]) for row in path.triple_indices]
    assert len(used) == len(set(used))


@st.composite
def planted_configs(draw):
    """PlantedConfigs over 2-30 entities and 2-6 relations, feasible or not."""
    return PlantedConfig(
        n_entities=draw(st.integers(2, 30)), n_relations=draw(st.integers(2, 6)),
        n_planted_paths=draw(st.integers(1, 3)), path_len=draw(st.integers(1, 4)),
        n_distractors=draw(st.integers(0, 25)), n_decoy_paths=draw(st.integers(0, 2)),
        n_context_groups=draw(st.integers(0, 4)), seed=draw(st.integers(0, 2**16)))


@settings(max_examples=150, deadline=None)
@given(planted_configs())
def test_planted_instance_holds_its_chains_decoys_and_distances(cfg):
    try:
        cfg.validate()
    except DataError:
        with pytest.raises(DataError):
            generate_planted(cfg)
        return
    try:
        inst = generate_planted(cfg)
    except DataError as exc:
        # settings that validate fail only where the distractors find no room
        assert cfg.n_distractors > 0 and "could not place distractors" in str(exc)
        return
    g, target = inst.graph, inst.target
    head, tail = target.head, target.tail
    triples = set(g.triples)
    assert (head, TARGET_REL, tail) in triples and len(triples) == g.num_triples
    distract_rels, decoy_rels = _noise_relations(cfg)

    def chain_inner(path, rels):
        assert len(path) == cfg.path_len and set(path) <= triples
        assert path[0][0] == head and path[-1][2] == tail
        assert all(a[2] == b[0] for a, b in zip(path, path[1:]))
        assert all(r in rels for _, r, _ in path)
        return [t for _, _, t in path[:-1]]

    assert len(inst.planted_paths) == cfg.n_planted_paths
    assert len(inst.decoy_paths) == cfg.n_decoy_paths
    inner = [node for path in inst.planted_paths for node in chain_inner(path, {EXPLAIN_REL})]
    inner += [node for path in inst.decoy_paths for node in chain_inner(path, decoy_rels)]
    assert len(set(inner)) == len(inner) and not {head, tail} & set(inner)

    rest = [e for e in g.triples if e != (head, TARGET_REL, tail)]
    d_h = _directed_distances(cfg.n_entities, rest, head)
    assert d_h[tail] == cfg.path_len
    d_t = _directed_distances(cfg.n_entities, rest, tail, reverse=True)
    assert len(inst.distractor_edges) == cfg.n_distractors
    for a, r, b in inst.distractor_edges:
        assert (a, r, b) in triples and a != b and r in distract_rels
        assert not (d_h[a] >= 0 and d_t[b] >= 0 and d_h[a] + 1 + d_t[b] <= cfg.path_len)

    again = generate_planted(cfg)
    assert again.graph.triples == g.triples
    assert again.graph.entity_names == g.entity_names
    assert (again.planted_paths, again.decoy_paths, again.distractor_edges) == (
        inst.planted_paths, inst.decoy_paths, inst.distractor_edges)
