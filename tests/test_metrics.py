import numpy as np
import pytest

from kgexplain import metrics as mx
from kgexplain.errors import ContractError, DataError
from kgexplain.explain import (
    EdgeScoreMatrix,
    ExplainConfig,
    Explanation,
    ExplanationPath,
    generate_paths,
    prepare_computation_graph,
    train_explainer,
)
from kgexplain.harness import PlantedConfig, generate_planted, reliant_model
from kgexplain.kgraph import ComputationGraph, KnowledgeGraph, TargetTriple, full_graph
from kgexplain.metrics import EvalConfig, evaluate_batch, measure_explanation, sparsity
from kgexplain.model import KgcModel, TargetScorer, score_target_masked


def kg_from(triples, n_ent=None, n_rel=None):
    arr = np.array(triples, dtype=np.int64).reshape(-1, 3)
    n_ent = n_ent or int(arr[:, [0, 2]].max()) + 1
    n_rel = n_rel or int(arr[:, 1].max()) + 1
    return KnowledgeGraph(n_ent, n_rel, arr[:, 0], arr[:, 1], arr[:, 2])


@pytest.fixture
def setup():
    g = kg_from([(0, 0, 2), (2, 0, 1), (0, 1, 3), (3, 0, 1), (2, 1, 3)])
    target = TargetTriple(0, 0, 1)
    gc = full_graph(g, target)
    model = KgcModel(4, 2, dim=4, seed=0)
    return g, gc, target, model


def measured(model, gc, target, mask, explanation=None):
    """The metric row of `mask`, with no paths unless `explanation` is given."""
    return measure_explanation(model, gc, target, mask, explanation or Explanation(target, []))


# -- identities (acceptance criterion 5 granularity) ---------------------------


def test_fidelity_minus_zero_for_all_ones(setup):
    _, gc, target, model = setup
    assert measured(model, gc, target, EdgeScoreMatrix.constant(gc, 1.0))["f_minus"] == 0.0


def test_fidelity_plus_zero_for_all_zeros(setup):
    _, gc, target, model = setup
    assert measured(model, gc, target, EdgeScoreMatrix.constant(gc, 0.0))["f_plus"] == 0.0


def test_fidelity_positive_for_informative_masks(setup):
    _, gc, target, model = setup
    ones = EdgeScoreMatrix.constant(gc, 1.0)
    zeros = EdgeScoreMatrix.constant(gc, 0.0)
    assert measured(model, gc, target, ones)["f_plus"] > 0.0
    assert measured(model, gc, target, zeros)["f_minus"] > 0.0


def test_fidelity_matches_forward_difference_oracle(setup):
    _, gc, target, model = setup
    rng = np.random.default_rng(1)
    mask = EdgeScoreMatrix.from_values(gc, rng.uniform(0.2, 0.8, gc.num_pairs))
    base = score_target_masked(model, gc, None, target).probability
    removed = score_target_masked(model, gc, mask.complement(), target).probability
    kept = score_target_masked(model, gc, mask, target).probability
    row = measured(model, gc, target, mask)
    assert row["f_plus"] == pytest.approx(abs(base - removed))
    assert row["f_minus"] == pytest.approx(abs(kept - base))


def test_sparsity_anchors(setup):
    _, gc, _, _ = setup
    assert sparsity(EdgeScoreMatrix.constant(gc, 1.0), gc) == 0.0
    assert sparsity(EdgeScoreMatrix.constant(gc, 0.0), gc) == 1.0
    assert sparsity(EdgeScoreMatrix.constant(gc, 0.25), gc) == pytest.approx(0.75)


def test_sparsity_complement_identity(setup):
    _, gc, _, _ = setup
    rng = np.random.default_rng(2)
    mask = EdgeScoreMatrix.from_values(gc, rng.uniform(0.0, 1.0, gc.num_pairs))
    assert sparsity(mask.complement(), gc) == pytest.approx(1.0 - sparsity(mask, gc))


def test_sparsity_empty_graph_is_one():
    g = kg_from([(0, 0, 1)], n_ent=3)
    gc = full_graph(g, TargetTriple(0, 0, 2)).subgraph(np.array([True, False, True]))
    assert gc.num_pairs == 0
    assert sparsity(EdgeScoreMatrix.from_values(gc, np.zeros(0)), gc) == 1.0


# -- HDR:m -----------------------------------------------------------------------


def test_hdr_empty_explanation_is_hit(setup):
    _, gc, target, model = setup
    assert measured(model, gc, target, EdgeScoreMatrix.constant(gc, 0.5))["hit1"] is True


def test_hdr_m_larger_than_path_count_clamps(setup):
    _, gc, target, model = setup
    row = 0
    path = ExplanationPath(
        [(int(gc.nodes[gc.src[row]]), int(gc.rel[row]), int(gc.nodes[gc.dst[row]]))],
        [row], [0.9], 0.9,
    )
    row = measured(model, gc, target, EdgeScoreMatrix.constant(gc, 0.5),
                   Explanation(target, [path]))
    assert row["hit5"] == row["hit1"]


def test_hdr_planted_instance_supporting_path_drops_score():
    inst = generate_planted(PlantedConfig(seed=0))
    model = reliant_model(inst.graph, inst.target, seed=0)
    gc = prepare_computation_graph(inst.graph, inst.target, 2, 2)
    rows = []
    triples = []
    for h, r, t in inst.planted_paths[0]:
        row = gc.triple_index_of(np.searchsorted(gc.nodes, h), r, np.searchsorted(gc.nodes, t))
        rows.append(row)
        triples.append((h, r, t))
    ex = Explanation(inst.target, [ExplanationPath(triples, rows, [0.9] * len(rows), 0.9)])
    base = score_target_masked(model, gc, None, inst.target)
    gt = gc.without_triples(rows)
    assert score_target_masked(model, gt, None, inst.target).raw < base.raw
    assert measured(model, gc, inst.target, EdgeScoreMatrix.constant(gc, 0.5), ex)["hit1"] is True


@pytest.mark.parametrize("n_paths, builds", [(0, 0), (1, 1), (2, 2), (3, 2)])
def test_hdr_builds_and_scores_each_deleted_row_set_once(monkeypatch, n_paths, builds):
    # HDR:3 and HDR:5 delete the same rows when at most 3 paths exist
    inst = generate_planted(PlantedConfig(seed=0))
    model = reliant_model(inst.graph, inst.target, seed=0)
    gc = prepare_computation_graph(inst.graph, inst.target, 2, 2)

    def path(rows):
        triples = [(int(gc.nodes[gc.src[r]]), int(gc.rel[r]), int(gc.nodes[gc.dst[r]]))
                   for r in rows]
        return ExplanationPath(triples, rows, [0.5] * len(rows), 0.5)

    ex = Explanation(inst.target, [path(rows) for rows in ([0, 6], [1, 8], [2])][:n_paths])
    # oracle: score the graph without the top-m paths' triples against the unmasked raw score
    base_raw = score_target_masked(model, gc, None, inst.target).raw
    expected = {}
    for m in mx.HDR_PATH_COUNTS:
        rows = sorted({r for p in ex.paths[:m] for r in p.triple_indices})
        removed_raw = score_target_masked(model, gc.without_triples(rows), None, inst.target).raw
        expected[f"hit{m}"] = not removed_raw > base_raw
    built = []
    original = ComputationGraph.without_triples

    def counting(self, rows):
        built.append(tuple(rows))
        return original(self, rows)

    monkeypatch.setattr(ComputationGraph, "without_triples", counting)
    row = mx.measure_explanation(model, gc, inst.target, EdgeScoreMatrix.constant(gc, 0.5), ex)
    assert len(built) == len(set(built)) == builds
    assert {k: row[k] for k in expected} == expected
    assert all(type(row[k]) is bool for k in expected)


# -- per-target caching ------------------------------------------------------------


def test_one_unmasked_forward_per_target(setup, monkeypatch):
    _, gc, target, model = setup
    calls = []
    score = TargetScorer.__call__

    def counting(scorer, mask_):
        if mask_ is None:
            calls.append(scorer.gc)
        return score(scorer, mask_)

    monkeypatch.setattr(TargetScorer, "__call__", counting)
    mask = EdgeScoreMatrix.constant(gc, 0.5)
    ex = generate_paths(gc, mask, target, 3, 3)
    mx.measure_explanation(model, gc, target, mask, ex)
    assert sum(1 for g_ in calls if g_ is gc) == 1


# -- evaluate_batch ------------------------------------------------------------------


def planted_batch_setup(n_targets=6, seed=0):
    inst = generate_planted(PlantedConfig(seed=seed))
    model = reliant_model(inst.graph, inst.target, seed=seed)
    return inst, model


def test_evaluate_batch_planted_reports_all_fields():
    inst, model = planted_batch_setup()
    cfg = EvalConfig(sample_num=3, threshold_rule="prob", k_hop=2,
                     explain=ExplainConfig(epochs=10, seed=0), seed=0)
    report, rows = evaluate_batch(model, inst.graph, [inst.target], cfg)
    assert report.n_samples == 1
    assert set(report.h_delta_r) == {1, 3, 5}
    assert all(np.isfinite(v) for v in
               (report.fidelity_plus, report.fidelity_minus, report.sparsity))
    csv = mx.csv_text(mx.CSV_COLUMNS, rows)
    header = csv.splitlines()[0].split(",")
    assert header == list(mx.CSV_COLUMNS)
    assert len(csv.splitlines()) == 2


def test_evaluate_batch_sample_count_exceeding_pool():
    inst, model = planted_batch_setup()
    cfg = EvalConfig(sample_num=50, threshold_rule="prob", k_hop=2,
                     explain=ExplainConfig(epochs=5, seed=0), seed=0)
    report, _ = evaluate_batch(model, inst.graph, [inst.target], cfg)
    assert report.n_samples == 1


def test_evaluate_batch_no_explainable_targets_errors():
    inst, _ = planted_batch_setup()
    # a zeroed model scores raw 0 -> probability exactly 0.5, never > 0.5
    flat = KgcModel(inst.graph.num_entities, inst.graph.num_relations, dim=4, seed=0)
    for name in flat.store.params:
        flat.store.params[name][...] = 0.0
    cfg = EvalConfig(sample_num=2, threshold_rule="prob", k_hop=2,
                     explain=ExplainConfig(epochs=5, seed=0))
    with pytest.raises(DataError, match="threshold"):
        evaluate_batch(flat, inst.graph, [inst.target], cfg)


def test_evaluate_batch_rank1_rule_filters():
    # two-node graph: the true tail is the only candidate, so rank is 1
    g = kg_from([(0, 0, 1), (1, 0, 0)])
    target = TargetTriple(0, 0, 1)
    model = KgcModel(2, 1, dim=4, seed=0)
    cfg = EvalConfig(sample_num=2, threshold_rule="rank1", k_hop=1,
                     explain=ExplainConfig(epochs=5, seed=0))
    report, _ = evaluate_batch(model, g, [target], cfg)
    assert report.n_samples == 1


def test_evaluate_batch_deterministic(tmp_path):
    inst, model = planted_batch_setup()
    cfg = EvalConfig(sample_num=1, threshold_rule="prob", k_hop=2,
                     explain=ExplainConfig(epochs=5, seed=3), seed=3)
    r1, rows1 = evaluate_batch(model, inst.graph, [inst.target], cfg)
    r2, rows2 = evaluate_batch(model, inst.graph, [inst.target], cfg)
    assert r1.to_json_dict() == r2.to_json_dict()
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]
    assert strip(rows1) == strip(rows2)


def test_eval_config_validation():
    with pytest.raises(ContractError):
        EvalConfig(sample_num=0).validate()
    with pytest.raises(ContractError):
        EvalConfig(threshold_rule="magic").validate()


def test_fidelity_bounded_by_unit_interval(setup):
    _, gc, target, model = setup
    rng = np.random.default_rng(3)
    for _ in range(20):
        mask = EdgeScoreMatrix.from_values(gc, rng.uniform(0.0, 1.0, gc.num_pairs))
        row = measured(model, gc, target, mask)
        assert 0.0 <= row["f_plus"] <= 1.0
        assert 0.0 <= row["f_minus"] <= 1.0
