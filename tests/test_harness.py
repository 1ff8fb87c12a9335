import json
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_explainer import linear_fit_r2, measure_explain_memory
from test_model import _physical_memory

from kgexplain import harness as hs
from kgexplain.errors import ContractError, DataError
from kgexplain.harness import (
    PlantedConfig,
    SuiteConfig,
    _directed_distances,
    _placeable_distractors,
    ablation_suite_config,
    generate_planted,
    reliant_model,
    run_suite,
    sign_test_p,
)
from kgexplain.explain import prepare_computation_graph
from kgexplain.kgraph import KnowledgeGraph, full_graph
from kgexplain.model import score_target_masked


def test_generate_basic_structure():
    cfg = PlantedConfig(n_planted_paths=2, path_len=2, n_distractors=0,
                        n_context_groups=0, n_entities=10, seed=0)
    inst = generate_planted(cfg)
    assert len(inst.planted_paths) == 2
    for path in inst.planted_paths:
        assert len(path) == 2
        assert path[0][0] == inst.target.head
        assert path[-1][2] == inst.target.tail
        assert all(r == 0 for _, r, _ in path)
    # node-disjoint interiors
    interiors = [p[0][2] for p in inst.planted_paths]
    assert len(set(interiors)) == 2
    # verified shortest by BFS (ignoring the asserted triple)
    edges = [e for e in inst.graph.triples if e != (0, 1, 1)]
    assert _directed_distances(inst.graph.num_entities, edges, 0)[1] == 2


def test_generate_distractors_never_shortcut():
    inst = generate_planted(PlantedConfig(n_distractors=50, n_entities=60, seed=1))
    edges = [e for e in inst.graph.triples
             if e != (inst.target.head, inst.target.relation, inst.target.tail)]
    d = _directed_distances(inst.graph.num_entities, edges, inst.target.head)
    assert d[inst.target.tail] == 2
    assert len(inst.distractor_edges) == 50


def test_directed_distances_forward_and_reverse():
    edges = [(0, 0, 1), (1, 0, 2), (3, 1, 2), (2, 1, 2)]
    assert _directed_distances(5, edges, 0).tolist() == [0, 1, 2, -1, -1]
    assert _directed_distances(5, edges, 2, reverse=True).tolist() == [2, 1, 0, 1, -1]
    assert _directed_distances(3, [], 1).tolist() == [-1, 0, -1]


@pytest.mark.parametrize("instance", [PlantedConfig(), ablation_suite_config().instance],
                         ids=["default", "ablation"])
def test_generate_searches_twice_per_accepted_distractor(monkeypatch, instance):
    # a candidate rejected as a shortcut reuses the last searches; the final
    # shortest-path check is the one extra search
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _directed_distances(*args, **kwargs)

    monkeypatch.setattr(hs, "_directed_distances", counting)
    for seed in range(10):
        calls.clear()
        generate_planted(replace(instance, seed=seed))
        assert len(calls) == 2 * instance.n_distractors + 1


def test_generate_more_distractors_than_distinct_triples_raises():
    # 40 entities and 4 noise relations give 40 * 39 * 4 distinct distractors
    generate_planted(PlantedConfig(n_distractors=0))
    with pytest.raises(DataError, match="exceeds the 6240 distinct distractor triples"):
        generate_planted(PlantedConfig(n_distractors=6241))


def test_generate_gives_up_once_too_few_distractors_can_still_be_placed():
    # 6200 of the 6240 distinct triples: self-loops, duplicates and shortcuts
    # leave fewer than that placeable, which once took about 40 s of draws
    t0 = time.perf_counter()
    with pytest.raises(DataError, match="could not place distractors"):
        generate_planted(PlantedConfig(n_distractors=6200))
    assert time.perf_counter() - t0 < 2.0


def test_generate_gives_up_after_its_attempt_cap(monkeypatch):
    # of the two distractors of this instance, (tail, noise0, head) can be
    # placed and (head, noise0, tail) would be a one-hop shortcut; with the
    # give-up count reporting room, only the cap of 200 attempts per
    # distractor ends the draws, two entity draws each
    default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self.rng, self.draws = default_rng(seed), 0

        def integers(self, *args):
            self.draws += 1
            return self.rng.integers(*args)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    made = []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(CountingRng(seed)) or made[-1])
    monkeypatch.setattr(hs, "_placeable_distractors", lambda *args: 10**9)
    cfg = PlantedConfig(n_entities=2, n_relations=3, n_planted_paths=1, path_len=1,
                        n_distractors=2, n_context_groups=0)
    with pytest.raises(DataError, match="could not place distractors"):
        generate_planted(cfg)
    [rng] = made
    assert rng.draws == 2 * 200 * cfg.n_distractors


def test_generate_on_many_entities_stays_small_and_fast():
    # the give-up check counts in O(entities + edges); an entity x relation x
    # entity table would take 1.6 GB here, for an instance of about 60 edges
    tracemalloc.start()
    t0 = time.perf_counter()
    inst = generate_planted(PlantedConfig(n_entities=20000, n_distractors=4))
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(inst.distractor_edges) == 4
    assert peak < 32 * 2**20
    assert elapsed < 2.0


def test_planted_instance_beyond_physical_memory_is_refused(monkeypatch):
    cfg = PlantedConfig(n_entities=20000, n_distractors=4)
    tracemalloc.start()
    try:
        generate_planted(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _physical_memory(monkeypatch, peak)
    cfg.validate()  # the estimate is at most what generating holds
    # 64 bytes per entity: less than its name and hop counts
    _physical_memory(monkeypatch, 64 * 20000)
    message = (r"the planted instance's names and hop counts \(n_entities=20000, "
               r"n_relations=6\) need \d+ bytes, more than the 1280000 bytes of physical memory")
    with pytest.raises(ContractError, match=message):
        cfg.validate()
    with pytest.raises(ContractError, match=message):
        generate_planted(cfg)


@st.composite
def placeable_cases(draw):
    """Triples over 1-7 entities and relations 0-4 (repeats and self-loops
    allowed), a path length and a set of distractor relations."""
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)
    triples = draw(st.lists(st.tuples(node, st.integers(0, 4), node), max_size=25, unique=True))
    rels = sorted(draw(st.sets(st.integers(0, 4), min_size=1)))
    return n, triples, rels, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(placeable_cases())
def test_placeable_distractors_matches_a_count_over_every_triple(case):
    n, triples, rels, path_len = case
    arr = np.array(triples, dtype=np.int64).reshape(-1, 3)
    d_h = _directed_distances(n, arr, 0, max_dist=path_len - 1)
    d_t = _directed_distances(n, arr, n - 1, reverse=True, max_dist=path_len - 1)
    want = sum(
        1 for a in range(n) for r in rels for b in range(n)
        if a != b and (a, r, b) not in triples
        and not (d_h[a] >= 0 and d_t[b] >= 0 and d_h[a] + 1 + d_t[b] <= path_len)
    )
    is_rel = np.isin(np.arange(5), rels)
    assert _placeable_distractors(arr, is_rel, d_h, d_t, path_len) == want


def test_generate_deterministic():
    a = generate_planted(PlantedConfig(seed=5))
    b = generate_planted(PlantedConfig(seed=5))
    assert a.graph.triples == b.graph.triples
    assert a.planted_paths == b.planted_paths


def test_generate_target_triple_in_train_set():
    inst = generate_planted(PlantedConfig(seed=0))
    assert (inst.target.head, inst.target.relation, inst.target.tail) in set(
        inst.graph.triples
    )


def test_generate_infeasible_config():
    with pytest.raises(DataError):
        generate_planted(PlantedConfig(n_entities=4, n_planted_paths=5, path_len=3))
    with pytest.raises(DataError):
        generate_planted(PlantedConfig(path_len=5))
    with pytest.raises(DataError):
        generate_planted(PlantedConfig(n_relations=2, n_distractors=5))


def test_generate_decoys_same_length_noise_relations():
    inst = generate_planted(PlantedConfig(n_decoy_paths=2, seed=3))
    for path in inst.decoy_paths:
        assert len(path) == inst.planted_paths[0].__len__()
        assert path[0][0] == inst.target.head
        assert path[-1][2] == inst.target.tail
        assert all(r >= 2 for _, r, _ in path)


def test_generate_path_len_four():
    inst = generate_planted(PlantedConfig(path_len=4, n_entities=60, seed=0))
    assert all(len(p) == 4 for p in inst.planted_paths)


def test_reliant_model_score_tracks_chains():
    inst = generate_planted(PlantedConfig(n_decoy_paths=2, seed=0))
    model = reliant_model(inst.graph, inst.target, seed=0)
    gc = prepare_computation_graph(inst.graph, inst.target, 2, 2)
    base = score_target_masked(model, gc, None, inst.target)
    assert base.probability > 0.5

    def removed(path):
        rows = [gc.triple_index_of(np.searchsorted(gc.nodes, h), r, np.searchsorted(gc.nodes, t))
                for h, r, t in path]
        return score_target_masked(model, gc.without_triples([r for r in rows if r >= 0]),
                                   None, inst.target).raw

    for path in inst.planted_paths:
        assert removed(path) <= base.raw
    for path in inst.decoy_paths:
        assert removed(path) > base.raw


@pytest.mark.parametrize("asserted", [True, False], ids=["asserted", "absent"])
@pytest.mark.parametrize("instance", [
    PlantedConfig(n_decoy_paths=2),
    # a planted and a decoy path alone: the graph's last triple (by source)
    # is the decoy's last, a no-mass triple into the tail
    PlantedConfig(n_entities=4, n_planted_paths=1, n_decoy_paths=1, n_distractors=0,
                  n_context_groups=0),
], ids=["decoys", "bare"])
def test_reliant_model_scores_its_base_raw_on_the_full_graph_without_the_target(instance,
                                                                                asserted):
    # the calibration drops the asserted triple when the graph has it, and
    # nothing otherwise
    inst = generate_planted(instance)
    g, target = inst.graph, inst.target
    keep = ~((g.heads == target.head) & (g.rels == target.relation) & (g.tails == target.tail))
    assert np.count_nonzero(~keep) == 1
    without = KnowledgeGraph(g.num_entities, g.num_relations, g.heads[keep], g.rels[keep],
                             g.tails[keep])
    model = reliant_model(g if asserted else without, target, seed=0)
    raw = score_target_masked(model, full_graph(without, target), None, target).raw
    assert raw == pytest.approx(hs.RELIANT_BASE_RAW, rel=1e-12, abs=0.0)


def test_sign_test_values():
    assert sign_test_p([]) == 1.0
    assert sign_test_p([0, 0]) == 1.0
    assert sign_test_p([1] * 6) == pytest.approx(1 / 64)
    assert sign_test_p([1, 1, -1]) == pytest.approx(0.5)


def test_suite_reproducible_csv_bytes(tmp_path):
    cfg_kwargs = dict(
        n_instances=2,
        instance=PlantedConfig(n_entities=30, n_distractors=10, n_context_groups=2),
        model_source="reliant",
        hops=2,
    )
    run_suite(SuiteConfig(**cfg_kwargs), tmp_path / "a")
    run_suite(SuiteConfig(**cfg_kwargs), tmp_path / "b")
    for name in ("aggregate.csv", "aggregate.json", "config.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    agg = json.loads((tmp_path / "a" / "aggregate.json").read_text())
    assert agg["aggregate"]["n_instances"] == 2


def test_suite_flat_config_roundtrip():
    suite = SuiteConfig.from_flat_dict(
        {"n_instances": 3, "instance.path_len": 3, "explain.gamma": 0.5, "hops": 2}
    )
    assert suite.n_instances == 3
    assert suite.instance.path_len == 3
    assert suite.explain.gamma == 0.5
    assert suite.to_flat_dict()["instance.path_len"] == 3
    with pytest.raises(DataError):
        SuiteConfig.from_flat_dict({"bogus_key": 1})
    with pytest.raises(DataError):
        SuiteConfig.from_flat_dict({"instance.bogus": 1})
    assert SuiteConfig.from_flat_dict({"explain.lr": 1, "max_nodes": None}).explain.lr == 1
    for bad in ([1, 2], {"n_instances": "abc"}, {"hops": True}, {"ablations": 1},
                {"explain.epochs": 5.0}, {"instance": {"path_len": 3}},
                {"resolved_hops": 1}, {"explain.validate": 1}, {"model_source": "relaint"},
                {"n_instances": 0}):
        with pytest.raises(DataError):
            SuiteConfig.from_flat_dict(bad)


def test_memory_scaling_smoke():
    points = measure_explain_memory(edge_counts=(500, 2000), epochs=1)
    assert points[1][1] > points[0][1]
    assert linear_fit_r2([(1, 10.0), (2, 20.0), (3, 30.0)]) == pytest.approx(1.0)


def test_ablation_suite_directions():
    # paired-seed directional checks: disabling the path loss hurts recovery
    # precision, disabling the MI loss hurts HDR:1 (full significance is
    # asserted by the acceptance suite at 32 seeds)
    from kgexplain.harness import ablation_suite_config

    suite = ablation_suite_config(n_instances=16)
    agg = run_suite(suite)["aggregate"]["modes"]
    assert agg["full"]["precision"] > agg["path_off"]["precision"]
    assert agg["full"]["hdr1"] > agg["mi_off"]["hdr1"]
    assert agg["full"]["hdr1"] > agg["path_off"]["hdr1"]


@pytest.mark.parametrize("settings, message", [
    ({"n_instances": 0}, "n_instances must be >= 1, got 0"),
    ({"model_source": "bogus"},
     "model_source must be one of ('trained', 'reliant'), got 'bogus'"),
])
def test_run_suite_refuses_a_library_config_before_any_instance(settings, message, monkeypatch,
                                                                 tmp_path):
    import warnings

    started = []
    monkeypatch.setattr(hs, "run_instance", lambda *args: started.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as err:
            run_suite(SuiteConfig(**settings), tmp_path / "out")
    assert str(err.value) == message
    assert started == [] and not (tmp_path / "out").exists()


def _digest_paths(explanation):
    return [(p.triples, p.triple_indices, p.edge_scores, p.mean_score) for p in explanation.paths]


@pytest.mark.parametrize("model_source", hs.MODEL_SOURCES)
@pytest.mark.parametrize("combine_mode", ["concatenation", "euclidean"])
def test_batched_ablation_modes_equal_serial_runs_bit_for_bit(model_source, combine_mode,
                                                              monkeypatch):
    from kgexplain.explain import ExplainConfig, generate_paths, train_explainer
    from kgexplain.metrics import measure_explanation
    from kgexplain.model import ModelConfig

    batches, explanations = [], []

    def spy(fn, calls):
        def wrapped(*args):
            out = fn(*args)
            calls.append((args, out))
            return out
        return wrapped

    monkeypatch.setattr(hs, "train_explainers", spy(hs.train_explainers, batches))
    monkeypatch.setattr(hs, "generate_paths", spy(hs.generate_paths, explanations))
    suite = SuiteConfig(ablations=True, model_source=model_source, model=ModelConfig(epochs=100),
                        explain=ExplainConfig(combine_mode=combine_mode))
    for seed in range(10):
        rows = hs.run_instance(suite, seed)
        (model, gc, target, configs), results = batches.pop()
        assert [(c.enable_path_loss, c.enable_mi_loss) for c in configs] == [
            (True, True), (False, True), (True, False)]
        got_paths = [out for _, out in explanations[-3:]]
        for mode, cfg, got, got_explanation in zip(hs.MODES, configs, results, got_paths):
            want = train_explainer(model, gc, target, cfg)
            label = f"seed {seed} {mode}"
            assert got.mask.values.tobytes() == want.mask.values.tobytes(), label
            assert got.mask.provenance.tobytes() == want.mask.provenance.tobytes(), label
            assert repr(got.loss_trace) == repr(want.loss_trace), label
            assert got.tes.flat.tobytes() == want.tes.flat.tobytes(), label
            explanation = generate_paths(gc, want.mask, target, cfg.num_paths, cfg.power_order)
            assert _digest_paths(got_explanation) == _digest_paths(explanation), label
            row = measure_explanation(model, gc, target, want.mask, explanation)
            assert repr({k: rows[mode][k] for k in row}) == repr(row), label


def test_ablation_suite_extracts_paths_once_per_mode_in_mode_order(monkeypatch):
    """perfbench's planted-suite workload reads each mode's paths off these
    calls: one per mode, in `MODES` order, with max_len the fifth argument."""
    trained, extracted, measured = [], [], []
    batch, paths, measure = hs.train_explainers, hs.generate_paths, hs.measure_explanation

    def train_spy(*args):
        trained.append(batch(*args))
        return trained[-1]

    monkeypatch.setattr(hs, "train_explainers", train_spy)
    monkeypatch.setattr(hs, "generate_paths",
                        lambda *args, **kw: extracted.append((args, kw)) or paths(*args, **kw))
    monkeypatch.setattr(hs, "measure_explanation",
                        lambda *args: measured.append(args) or measure(*args))
    suite = SuiteConfig(ablations=True, n_instances=1, model_source="reliant",
                        instance=PlantedConfig(n_entities=30, n_distractors=10,
                                               n_context_groups=2), hops=2)
    run_suite(suite)
    (results,) = trained
    assert len(results) == len(extracted) == len(measured) == len(hs.MODES) == 3
    for result, (args, kw), measure_args in zip(results, extracted, measured):
        assert kw == {} and len(args) == 5
        assert args[1] is result.mask and args[4] == suite.explain.power_order
        assert measure_args[3] is result.mask
