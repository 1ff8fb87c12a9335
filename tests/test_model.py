import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import tape_oracles as oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from kgexplain import autodiff as ad
from kgexplain.errors import ContractError, DataError, NumericError
from kgexplain.explain import EdgeScoreMatrix
from kgexplain.kgraph import ComputationGraph, KnowledgeGraph, TargetTriple, full_graph
from kgexplain.model import (
    DECODERS,
    KgcLossOp,
    KgcModel,
    ModelConfig,
    TargetHeadOp,
    TargetScorer,
    _receptive_field,
    encode,
    encode_operands,
    layer_ops,
    load_checkpoint,
    param_count,
    rank_target,
    save_checkpoint,
    score,
    score_target_masked,
    train_kgc,
)


def kg_from(triples, n_ent=None, n_rel=None):
    arr = np.array(triples, dtype=np.int64).reshape(-1, 3)
    n_ent = n_ent or int(arr[:, [0, 2]].max()) + 1
    n_rel = n_rel or int(arr[:, 1].max()) + 1
    return KnowledgeGraph(n_ent, n_rel, arr[:, 0], arr[:, 1], arr[:, 2])


@pytest.fixture
def small_setup():
    g = kg_from([(0, 0, 1), (1, 1, 2), (2, 0, 3), (0, 1, 3), (3, 0, 0)])
    target = TargetTriple(0, 1, 3)
    gc = full_graph(g, target)
    model = KgcModel(g.num_entities, g.num_relations, dim=4, layers=2, seed=0)
    return g, gc, target, model


# -- encode -------------------------------------------------------------------


def test_encode_all_ones_mask_equals_unmasked_bitwise(small_setup):
    _, gc, _, model = small_setup
    plain = encode(model, gc, None)
    ones = encode(model, gc, EdgeScoreMatrix.constant(gc, 1.0))
    assert np.array_equal(plain, ones)


def test_encode_all_zeros_mask_is_self_loop_only(small_setup):
    _, gc, _, model = small_setup
    zeros = encode(model, gc, EdgeScoreMatrix.constant(gc, 0.0))
    h = model.store.params["ent"][gc.nodes]
    for layer in range(model.layers):
        h = h @ model.store.params[f"self_{layer}"]
        if layer < model.layers - 1:
            h = np.maximum(h, 0.0)
    np.testing.assert_allclose(zeros, h, atol=1e-15)


def test_encode_single_edge_hand_computed():
    g = kg_from([(0, 0, 1)])
    gc = full_graph(g, TargetTriple(0, 0, 1))
    model = KgcModel(2, 1, dim=3, layers=1, bases=1, seed=1)
    p = model.store.params
    p["ent"][...] = [[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]]
    p["self_0"][...] = np.eye(3) * 0.5
    p["basis_0_0"][...] = np.arange(9, dtype=float).reshape(3, 3) / 4.0
    p["coef_0"][...] = [[2.0]]
    out = encode(model, gc, None)
    e0, e1 = p["ent"]
    expected0 = e0 @ p["self_0"]
    expected1 = e1 @ p["self_0"] + 2.0 * (e0 @ p["basis_0_0"]) / 1.0
    np.testing.assert_allclose(out[0], expected0, atol=1e-14)
    np.testing.assert_allclose(out[1], expected1, atol=1e-14)


def test_encode_mask_shape_mismatch(small_setup):
    _, gc, _, model = small_setup
    with pytest.raises(ContractError):
        encode(model, gc, np.ones(gc.num_pairs + 1))


def test_encode_masked_message_scaling():
    # one edge with mask value m scales the aggregated message linearly
    g = kg_from([(0, 0, 1)])
    gc = full_graph(g, TargetTriple(0, 0, 1))
    model = KgcModel(2, 1, dim=3, layers=1, seed=2)
    full = encode(model, gc, None)
    half = encode(model, gc, np.array([0.5]))
    self_only = encode(model, gc, np.array([0.0]))
    np.testing.assert_allclose(half[1], 0.5 * (full[1] - self_only[1]) + self_only[1],
                               atol=1e-14)


# -- score ---------------------------------------------------------------------


def test_score_transe_exact_translation():
    model = KgcModel(2, 1, dim=3, decoder="transe")
    h = np.array([1.0, 2.0, 3.0])
    r = np.array([0.5, -1.0, 0.25])
    s = score(model, h, r, h + r)
    assert s.raw == 0.0
    assert s.probability == 0.5


def test_score_distmult_all_ones_relation():
    model = KgcModel(2, 1, dim=3, decoder="distmult")
    h = np.array([1.0, 2.0, -1.0])
    t = np.array([0.5, 0.25, 2.0])
    s = score(model, h, np.ones(3), t)
    assert s.raw == pytest.approx(float(h @ t))


@pytest.mark.parametrize("decoder", ["transe", "distmult"])
def test_score_matches_scalar_loop_oracle(decoder):
    rng = np.random.default_rng(3)
    model = KgcModel(2, 1, dim=4, decoder=decoder)
    for _ in range(10):
        h, r, t = rng.normal(size=(3, 4))
        s = score(model, h, r, t)
        if decoder == "transe":
            acc = 0.0
            for i in range(4):
                acc += (h[i] + r[i] - t[i]) ** 2
            expected = -np.sqrt(acc)
        else:
            expected = 0.0
            for i in range(4):
                expected += h[i] * r[i] * t[i]
        assert s.raw == pytest.approx(expected, rel=1e-12)
        assert s.probability == pytest.approx(1.0 / (1.0 + np.exp(-expected)), rel=1e-12)


def test_score_dimension_mismatch():
    model = KgcModel(2, 1, dim=4)
    with pytest.raises(ContractError):
        score(model, np.ones(3), np.ones(4), np.ones(4))


def test_transe_raw_nonpositive():
    rng = np.random.default_rng(4)
    model = KgcModel(2, 1, dim=5, decoder="transe")
    for _ in range(50):
        h, r, t = rng.normal(size=(3, 5))
        assert score(model, h, r, t).raw <= 0.0


def test_distmult_symmetric_under_head_tail_swap():
    rng = np.random.default_rng(5)
    model = KgcModel(2, 1, dim=5, decoder="distmult")
    for _ in range(20):
        h, r, t = rng.normal(size=(3, 5))
        assert score(model, h, r, t).raw == pytest.approx(score(model, t, r, h).raw)


# -- score_target_masked --------------------------------------------------------


def test_masked_identity_bit_for_bit(small_setup):
    _, gc, target, model = small_setup
    ones = score_target_masked(model, gc, EdgeScoreMatrix.constant(gc, 1.0), target)
    H = encode(model, gc, None)
    i, k = gc.head_local, gc.tail_local
    direct = score(model, H[i], model.store.params["rel"][target.relation], H[k])
    assert ones.raw == direct.raw
    assert ones.probability == direct.probability


def test_masked_all_zeros_differs_for_neighbor_dependent_model(small_setup):
    _, gc, target, model = small_setup
    ones = score_target_masked(model, gc, EdgeScoreMatrix.constant(gc, 1.0), target)
    zeros = score_target_masked(model, gc, EdgeScoreMatrix.constant(gc, 0.0), target)
    assert ones.probability != zeros.probability


def test_masked_matches_composition_oracle(small_setup):
    _, gc, target, model = small_setup
    rng = np.random.default_rng(6)
    vals = rng.uniform(0.1, 0.9, gc.num_pairs)
    got = score_target_masked(model, gc, EdgeScoreMatrix.from_values(gc, vals), target)
    H = encode(model, gc, vals)
    i, k = gc.head_local, gc.tail_local
    expected = score(model, H[i], model.store.params["rel"][target.relation], H[k])
    assert got.raw == pytest.approx(expected.raw, abs=1e-9)


def test_masked_target_absent_raises(small_setup):
    g, gc, _, model = small_setup
    sub = gc.subgraph(np.array([True, True, True, False]))
    with pytest.raises(ContractError):
        score_target_masked(model, sub, None, TargetTriple(0, 1, 3))


def test_mask_gradient_matches_finite_differences(small_setup):
    _, gc, target, model = small_setup
    rng = np.random.default_rng(7)
    store = ad.ParamStore({"mask": rng.uniform(0.2, 0.8, gc.num_pairs)})

    def loss(s, tape):
        mask = tape.param(s, "mask") if tape is not None else s.params["mask"]
        return TargetScorer(model, gc, target)(mask)[2]

    report = ad.finite_diff_check(loss, store, step=1e-5, tol=1e-4)
    assert report.passed, report


# -- rank_target ----------------------------------------------------------------


def test_rank_two_node_graph():
    g = kg_from([(0, 0, 1)])
    gc = full_graph(g, TargetTriple(0, 0, 1))
    model = KgcModel(2, 1, dim=4, seed=8)
    assert rank_target(model, gc, TargetTriple(0, 0, 1)) == 1


def test_rank_with_one_higher_competitor():
    g = kg_from([(0, 0, 1), (0, 0, 2)])
    gc = full_graph(g, TargetTriple(0, 0, 1))
    model = KgcModel(3, 1, dim=2, decoder="distmult", seed=9)
    p = model.store.params
    p["ent"][...] = [[1.0, 0.0], [0.5, 0.0], [2.0, 0.0]]
    p["rel"][...] = [[1.0, 1.0]]
    for layer in range(model.layers):
        p[f"self_{layer}"][...] = np.eye(2)
        p[f"basis_{layer}_0"][...] = 0.0
        p[f"basis_{layer}_1"][...] = 0.0
    # scores: tail candidates 1 -> 0.5, 2 -> 2.0; true tail is 1
    assert rank_target(model, gc, TargetTriple(0, 0, 1)) == 2


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(10)
    triples = {(int(rng.integers(8)), int(rng.integers(2)), int(rng.integers(8)))
               for _ in range(20)}
    g = kg_from(sorted(triples), n_ent=8, n_rel=2)
    target = TargetTriple(0, 0, 1)
    gc = full_graph(g, target)
    model = KgcModel(8, 2, dim=4, seed=11)
    H = encode(model, gc, None)
    i, k = gc.head_local, gc.tail_local
    r = model.store.params["rel"][0]
    raws = {c: score(model, H[i], r, H[c]).raw for c in range(8) if c != i}
    better = sorted(raws.values(), reverse=True)
    expected = 1 + sum(1 for c, v in raws.items() if c != k and v >= raws[k])
    assert rank_target(model, gc, target) == expected
    assert expected == better.index(raws[k]) + 1 or True  # pessimistic ties


def rank_loop_oracle(model, gc, target, mask=None):
    """Rank by one `score` call per candidate node, ties counted against the tail."""
    H = encode(model, gc, mask)
    i, k = gc.head_local, gc.tail_local
    h = H[i]
    r = model.store.params["rel"][target.relation]
    true_raw = score(model, h, r, H[k]).raw
    ahead = 0
    for cand in range(gc.num_nodes):
        if cand == i or cand == k:
            continue
        if score(model, h, r, H[cand]).raw >= true_raw:
            ahead += 1
    return ahead + 1


@pytest.mark.parametrize("decoder", ["distmult", "transe"])
def test_rank_matches_per_candidate_loop(decoder):
    rng = np.random.default_rng(12)
    for seed in range(20):
        n = int(rng.integers(2, 12))
        triples = {(int(rng.integers(n)), int(rng.integers(2)), int(rng.integers(n)))
                   for _ in range(3 * n)}
        g = kg_from(sorted(triples), n_ent=n, n_rel=2)
        target = TargetTriple(int(rng.integers(n)), int(rng.integers(2)), int(rng.integers(n)))
        gc = full_graph(g, target)
        model = KgcModel(n, 2, dim=int(rng.integers(2, 20)), decoder=decoder, seed=seed)
        mask = rng.uniform(0.0, 1.0, gc.num_pairs) if seed % 2 else None
        assert rank_target(model, gc, target, mask) == rank_loop_oracle(model, gc, target, mask)
    # candidate 2 has the true tail's embedding: the tie counts against the tail
    g = kg_from([(0, 0, 1), (0, 0, 2), (0, 0, 3)])
    target = TargetTriple(0, 0, 1)
    gc = full_graph(g, target)
    model = KgcModel(4, 1, dim=2, layers=1, decoder=decoder, seed=0)
    p = model.store.params
    p["ent"][...] = [[1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [0.1, 0.2]]
    p["rel"][...] = [[1.0, 1.0]]
    p["self_0"][...] = np.eye(2)
    p["basis_0_0"][...] = 0.0
    p["basis_0_1"][...] = 0.0
    assert rank_target(model, gc, target) == rank_loop_oracle(model, gc, target) == 2


# -- train_kgc -------------------------------------------------------------------


def test_train_separates_held_out_true_from_corrupted():
    # pooled over several planted instances: a 10% random holdout scores
    # higher on average than uniform corruptions of the same triples
    from kgexplain.harness import PlantedConfig, generate_planted

    true_probs, corrupt_probs = [], []
    for seed in range(5):
        inst = generate_planted(PlantedConfig(seed=seed))
        g = inst.graph
        rng = np.random.default_rng(seed)
        held = rng.choice(g.num_triples, size=g.num_triples // 10, replace=False)
        keep = np.ones(g.num_triples, dtype=bool)
        keep[held] = False
        g_train = KnowledgeGraph(g.num_entities, g.num_relations, g.heads[keep],
                                 g.rels[keep], g.tails[keep], g.entity_names,
                                 g.relation_names)
        model = train_kgc(g_train, ModelConfig(dim=16, epochs=200, lr=0.5, seed=seed))
        H = encode(model, full_graph(g_train), None)
        R = model.store.params["rel"]
        for idx in held:
            h, r, t = int(g.heads[idx]), int(g.rels[idx]), int(g.tails[idx])
            true_probs.append(score(model, H[h], R[r], H[t]).probability)
            corrupt_probs.append(
                score(model, H[h], R[r],
                      H[int(rng.integers(g.num_entities))]).probability
            )
    assert np.mean(true_probs) > np.mean(corrupt_probs)


def test_train_single_triple_runs():
    g = kg_from([(0, 0, 1)])
    model = train_kgc(g, ModelConfig(dim=4, epochs=5, seed=0))
    assert np.isfinite(model.final_loss)


def test_train_deterministic_bitwise():
    g = kg_from([(0, 0, 1), (1, 0, 2), (2, 1, 0)])
    a = train_kgc(g, ModelConfig(dim=4, epochs=10, seed=3))
    b = train_kgc(g, ModelConfig(dim=4, epochs=10, seed=3))
    for name in a.store.params:
        assert np.array_equal(a.store.params[name], b.store.params[name])


def test_train_rejects_empty_graph():
    g = KnowledgeGraph(2, 1, np.zeros(0, np.int64), np.zeros(0, np.int64),
                       np.zeros(0, np.int64))
    with pytest.raises(ContractError):
        train_kgc(g, ModelConfig(epochs=1))


# -- checkpoints ------------------------------------------------------------------


def test_checkpoint_file_roundtrip_bit_identical(tmp_path, small_setup):
    g, _, _, model = small_setup
    p1 = tmp_path / "m1.plnk"
    p2 = tmp_path / "m2.plnk"
    save_checkpoint(model, g, p1)
    loaded = load_checkpoint(p1, g)
    save_checkpoint(loaded, g, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_magic_and_vocab_hash(tmp_path, small_setup):
    g, _, _, model = small_setup
    p = tmp_path / "m.plnk"
    save_checkpoint(model, g, p)
    assert p.read_bytes()[:4] == b"PLNK"
    other = kg_from([(0, 0, 1)])
    with pytest.raises(DataError, match="vocabulary"):
        load_checkpoint(p, other)
    bad = tmp_path / "bad.plnk"
    bad.write_bytes(b"XXXX" + p.read_bytes()[4:])
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(bad, g)


def test_checkpoint_damage_raises_data_error(tmp_path):
    g = kg_from([(0, 0, 1)])
    model = KgcModel(2, 1, dim=2, layers=1, seed=0)
    p = tmp_path / "m.plnk"
    save_checkpoint(model, g, p)
    data = p.read_bytes()
    bad = tmp_path / "bad.plnk"
    for cut in range(len(data)):
        bad.write_bytes(data[:cut])
        with pytest.raises(DataError):
            load_checkpoint(bad, g)
    bad.write_bytes(data + b"\0")
    with pytest.raises(DataError, match="tensor bytes"):
        load_checkpoint(bad, g)
    meta_len = int.from_bytes(data[6:10], "little")
    meta = json.loads(data[10 : 10 + meta_len])
    no_layers = {k: v for k, v in meta.items() if k != "layers"}
    for edited, reason in ((dict(meta, dim=3), None),
                           (dict(meta, tensors=meta["tensors"][:-1]), None), (no_layers, None),
                           (dict(meta, bases=0), "bases must be >= 1"),
                           (dict(meta, layers=0), "layers must be >= 1")):
        blob = json.dumps(edited).encode()
        bad.write_bytes(data[:6] + len(blob).to_bytes(4, "little") + blob
                        + data[10 + meta_len :])
        with pytest.raises(DataError, match=reason):
            load_checkpoint(bad, g)
    loaded = load_checkpoint(p, g)
    for name, value in model.store.params.items():
        assert np.array_equal(loaded.store.params[name], value.astype("<f4"))


def test_load_checkpoint_draws_no_random_numbers(tmp_path, small_setup, monkeypatch):
    g, _, _, model = small_setup
    p = tmp_path / "m.plnk"
    save_checkpoint(model, g, p)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    loaded = load_checkpoint(p, g)
    assert loaded.store.flat.tobytes() == model.store.flat.astype("<f4").astype(float).tobytes()
    assert (loaded.num_entities, loaded.num_relations, loaded.dim, loaded.layers, loaded.bases,
            loaded.decoder, loaded.final_loss) == (4, 2, 4, 2, 2, "distmult", None)


@pytest.mark.parametrize("field, value", [
    ("dim", 2.0), ("dim", "2"), ("dim", None), ("layers", 1.0), ("bases", [1]),
])
def test_checkpoint_settings_of_the_wrong_type_raise_data_error(tmp_path, field, value):
    g = kg_from([(0, 0, 1)])
    p = tmp_path / "m.plnk"
    save_checkpoint(KgcModel(2, 1, dim=2, layers=1, bases=1, seed=0), g, p)
    data = p.read_bytes()
    meta_len = int.from_bytes(data[6:10], "little")
    blob = json.dumps(dict(json.loads(data[10 : 10 + meta_len]), **{field: value})).encode()
    p.write_bytes(data[:6] + len(blob).to_bytes(4, "little") + blob + data[10 + meta_len :])
    with pytest.raises(DataError, match="bad checkpoint model settings"):
        load_checkpoint(p, g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 4), st.integers(2, 5), st.integers(1, 3),
       st.integers(1, 3))
def test_param_count_is_the_store_size(n_ent, n_rel, dim, layers, bases):
    model = KgcModel(n_ent, n_rel, dim=dim, layers=layers, bases=bases, seed=0)
    assert param_count(n_ent, n_rel, dim, layers, bases) == model.store.flat.size


def _physical_memory(monkeypatch, nbytes):
    """Make os.sysconf report `nbytes` of physical memory, in one-byte pages."""
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": nbytes}
    monkeypatch.setattr("os.sysconf", lambda name: pages[name])


def test_model_beyond_physical_memory_is_refused_at_its_parameters_and_gradients(monkeypatch):
    need = 16 * param_count(5, 2, 4, 2, 3)
    _physical_memory(monkeypatch, need)
    KgcModel(5, 2, dim=4, layers=2, bases=3)  # exactly fits
    _physical_memory(monkeypatch, need - 1)
    with pytest.raises(ContractError, match=f"entities=5, relations=2, dim=4, layers=2, "
                                            f"bases=3\\) need {need} bytes, more than the "
                                            f"{need - 1} bytes of physical memory"):
        KgcModel(5, 2, dim=4, layers=2, bases=3)

    def unavailable(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr("os.sysconf", unavailable)
    KgcModel(5, 2, dim=4, layers=2, bases=3)  # no check where sysconf cannot tell


def test_training_epoch_beyond_physical_memory_is_refused(monkeypatch):
    g = kg_from([(0, 0, 1), (1, 1, 2), (2, 0, 0)])
    config = ModelConfig(dim=4, layers=1, bases=1, epochs=1, negatives=4)
    need = 3 * 8 * 3 * (1 + 4) * 4
    assert need > 16 * param_count(3, 2, 4, 1, 1)  # the epoch's rows are the larger bound
    _physical_memory(monkeypatch, need)
    train_kgc(g, config)
    _physical_memory(monkeypatch, need - 1)
    with pytest.raises(ContractError, match=f"rows \\(triples=3, negatives=4, dim=4\\) "
                                            f"need {need} bytes"):
        train_kgc(g, config)


def test_encode_operands_training_path(small_setup):
    # encoding through store-bound leaves equals the frozen-array encoding
    _, gc, _, model = small_setup
    tape = ad.Tape()
    operands = {name: tape.param(model.store, name) for name in model.store.params}
    node = encode_operands(model, gc, None, operands=operands)
    plain = encode(model, gc, None)
    assert np.array_equal(node.value, plain)


# -- encoder against a dense per-relation oracle ------------------------------------


def oracle_encode(model, gc, pair_mask=None):
    """R-GCN forward written per edge with dense relation weights
    W_r = sum_b coef[r, b] B_b: each message h[src] W_r is scaled by its
    (src, dst) position's mask value and averaged over the in-degree count."""
    p = model.store.params
    mask_of = {}
    if pair_mask is not None:
        for s, d, m in zip(gc.pair_src.tolist(), gc.pair_dst.tolist(), pair_mask):
            mask_of[s, d] = m
    h = p["ent"][gc.nodes]
    for layer in range(model.layers):
        weights = [sum(p[f"coef_{layer}"][r, b] * p[f"basis_{layer}_{b}"]
                       for b in range(model.bases)) for r in range(model.num_relations)]
        agg = np.zeros_like(h)
        count = np.zeros(gc.num_nodes)
        for s, r, d in gc.edges:
            agg[d] += mask_of.get((s, d), 1.0) * (h[s] @ weights[r])
            count[d] += 1
        h = h @ p[f"self_{layer}"] + agg / np.maximum(count, 1)[:, None]
        if layer < model.layers - 1:
            h = np.maximum(h, 0.0)
    return h


@st.composite
def encoder_cases(draw):
    """(model, gc, pair mask or None) over 2-6 nodes, 3-4 relations and 0-16
    triples; layers and bases 1-3."""
    n = draw(st.integers(2, 6))
    n_rel = draw(st.integers(3, 4))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n_rel - 1), st.integers(0, n - 1))
    triples = sorted(draw(st.sets(cells, max_size=16)))
    src, rel, dst = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    gc = ComputationGraph(np.arange(n), src, rel, dst, 0, 1)
    model = KgcModel(n, n_rel, dim=draw(st.integers(2, 4)), layers=draw(st.integers(1, 3)),
                     bases=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mask = rng.uniform(0.1, 0.9, gc.num_pairs) if draw(st.booleans()) else None
    return model, gc, mask


@settings(max_examples=60, deadline=None)
@given(encoder_cases())
def test_encoder_matches_dense_per_relation_oracle(case):
    model, gc, mask = case
    np.testing.assert_allclose(encode(model, gc, mask), oracle_encode(model, gc, mask),
                               rtol=1e-12, atol=1e-12)

    coef_names = [f"coef_{layer}" for layer in range(model.layers)]
    tensors = {name: model.store.params[name] for name in coef_names}
    if mask is not None:
        tensors["mask"] = mask
    store = ad.ParamStore(tensors)
    weights = np.random.default_rng(0).normal(size=(gc.num_nodes, model.dim))

    def loss(s, tape):
        leaf = (lambda name: tape.param(s, name)) if tape is not None else s.params.get
        operands = {**model.store.params, **{name: leaf(name) for name in coef_names}}
        vals = None if mask is None else leaf("mask")
        return ad.sumall(ad.mul(encode_operands(model, gc, vals, operands), weights))

    report = ad.finite_diff_check(loss, store, step=1e-6, tol=1e-6, floor=1e-3)
    assert report.passed, report


def test_edgeless_graph_runs_the_same_ops_and_backward():
    model = KgcModel(3, 2, dim=3, layers=2, bases=2, seed=5)
    with_edges = ComputationGraph(np.arange(3), [0, 2], [1, 0], [1, 1], 0, 1)
    edgeless = ComputationGraph(np.arange(3), [], [], [], 0, 1)
    ops = []
    for gc in (with_edges, edgeless):
        with ad.Tape() as tape:
            operands = {name: tape.param(model.store, name) for name in model.store.params}
            mask = oracles.leaf(tape, np.full(gc.num_pairs, 0.5))
            H = encode_operands(model, gc, mask, operands)
            model.store.zero_grads()
            ad.backward(tape, ad.sumall(H))
            ops.append([node.op for node in tape.nodes])
            assert mask.grad.shape == (gc.num_pairs,)
    assert ops[0] == ops[1]
    # with no messages only the self-loop chain carries gradient
    assert not model.store.grads["coef_0"].any()
    assert not model.store.grads["basis_1_1"].any()
    assert model.store.grads["self_1"].any()


# -- target scoring on the receptive field ------------------------------------------


def decoder_raw(decoder, h, r, t):
    """Decoder score of single vectors composed from generic tape ops."""
    if decoder == "transe":
        return oracles.neg(ad.norm(oracles.sub(ad.add(h, r), t)))
    return ad.sumall(ad.mul(ad.mul(h, r), t))


def generic_head(model, H, target_rows, r):
    """`TargetHeadOp` composed from generic tape ops: (raw, prob, -log prob)."""
    i, k = target_rows
    h = oracles.reshape(ad.gather(H, np.array([i])), (model.dim,))
    t = oracles.reshape(ad.gather(H, np.array([k])), (model.dim,))
    raw = decoder_raw(model.decoder, h, r, t)
    prob = oracles.sigmoid(raw)
    return raw, prob, oracles.neg(oracles.log(prob))


def full_pass_target_score(model, gc, mask, target):
    """The unrestricted target score: every layer sends messages along every
    edge, then the decoder reads the head and tail rows."""
    rows = gc.head_local, gc.tail_local
    return generic_head(model, encode_operands(model, gc, mask), rows,
                        model.store.params["rel"][target.relation])


def field_target_score(model, gc, mask, target):
    return TargetScorer(model, gc, target)(mask)


def scores_and_mask_grad(score_fn, model, gc, mask, target, mask_kind):
    """(raw, prob, d(-log prob)/d(mask) or None) for a mask given as None, an
    array or a Node on a tape."""
    if mask_kind != "node":
        raw, prob, _ = score_fn(model, gc, None if mask_kind == "none" else mask, target)
        return raw, prob, None
    with ad.Tape() as tape:
        leaf = oracles.leaf(tape, mask)
        raw, prob, nll = score_fn(model, gc, leaf, target)
        ad.backward(tape, nll)
        return ad._val(raw), ad._val(prob), leaf.grad


@st.composite
def target_score_cases(draw):
    """Random graphs of 0-40 triples over 1-8 nodes (self-loops, parallel and
    repeated triples allowed), head == tail allowed, tails often unreachable."""
    n = draw(st.integers(1, 8))
    n_rel = draw(st.integers(1, 3))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n_rel - 1), st.integers(0, n - 1))
    triples = draw(st.lists(cells, max_size=40))
    src, rel, dst = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    head, tail = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    gc = ComputationGraph(np.arange(n), src, rel, dst, head, tail)
    model = KgcModel(n, n_rel, dim=draw(st.integers(2, 4)), layers=draw(st.integers(1, 3)),
                     bases=draw(st.integers(1, 3)), decoder=draw(st.sampled_from(DECODERS)),
                     seed=draw(st.integers(0, 2**16)))
    mask = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(0.05, 0.95,
                                                                       gc.num_pairs)
    target = TargetTriple(head, draw(st.integers(0, n_rel - 1)), tail)
    return model, gc, mask, target, draw(st.sampled_from(["none", "array", "node"]))


@settings(max_examples=150, deadline=None)
@given(target_score_cases())
def test_target_score_on_receptive_field_equals_full_pass(case):
    model, gc, mask, target, mask_kind = case
    raw, prob, grad = scores_and_mask_grad(field_target_score, model, gc, mask, target,
                                           mask_kind)
    full_raw, full_prob, full_grad = scores_and_mask_grad(full_pass_target_score, model, gc,
                                                          mask, target, mask_kind)
    np.testing.assert_array_equal(raw, full_raw)
    np.testing.assert_array_equal(prob, full_prob)
    if mask_kind == "node":
        np.testing.assert_allclose(grad, full_grad, rtol=1e-12, atol=0)


def test_receptive_field_of_a_chain_is_a_strict_subset():
    # 0 -> 1 -> 2 -> 3 -> 4 -> 5, target (5, 0, 0): the last layer needs the
    # edge into 5, the first one also the edge into 4
    chain = [(i, 0, i + 1) for i in range(5)]
    src, rel, dst = np.array(chain).T
    gc = ComputationGraph(np.arange(6), src, rel, dst, 5, 0)
    target = TargetTriple(5, 0, 0)
    fields = _receptive_field(gc, [5, 0], 2)
    assert [f.tolist() for f in fields] == [[3, 4], [4]]
    assert _receptive_field(gc, [5, 0], 6)[0] is None  # deep enough to need every edge

    model = KgcModel(6, 1, dim=3, layers=2, bases=2, seed=3)
    mask = np.linspace(0.2, 0.9, gc.num_pairs)
    restricted = encode_operands(model, gc, mask, layers=layer_ops(model, gc, [5, 0]))
    full = encode_operands(model, gc, mask)
    np.testing.assert_array_equal(restricted[[5, 0]], full[[5, 0]])
    assert not np.array_equal(restricted[2], full[2])  # row 2 lost its message
    raw, prob, grad = scores_and_mask_grad(field_target_score, model, gc, mask, target, "node")
    full_raw, full_prob, full_grad = scores_and_mask_grad(full_pass_target_score, model, gc,
                                                          mask, target, "node")
    assert (raw, prob) == (full_raw, full_prob)
    np.testing.assert_allclose(grad, full_grad, rtol=1e-12, atol=0)
    assert not grad[:3].any() and grad[4] != 0  # edges 0-2 lie outside the field


# -- non-finite and damaged checkpoints ------------------------------------------------


def checkpoint_with(model, g, path, name, row, value):
    """Save `model` to `path`, then overwrite element `row` of tensor `name`."""
    save_checkpoint(model, g, path)
    data = bytearray(path.read_bytes())
    offset = 10 + int.from_bytes(data[6:10], "little")
    for other, p in model.store.params.items():
        if other == name:
            break
        offset += 4 * p.size
    offset += 4 * row
    data[offset : offset + 4] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("name, value", [
    ("ent", np.nan), ("self_0", np.inf), ("coef_1", -np.inf), ("rel", -np.nan),
])
def test_checkpoint_non_finite_tensor_raises_data_error(tmp_path, small_setup, name, value):
    g, _, _, model = small_setup
    p = tmp_path / "m.plnk"
    checkpoint_with(model, g, p, name, 1, value)
    with pytest.raises(DataError, match=f"checkpoint tensor {name} holds NaN or Inf"):
        load_checkpoint(p, g)
    checkpoint_with(model, g, p, name, 1, 3.0e38)  # large but finite loads
    assert load_checkpoint(p, g).store.params[name].flat[1] == np.float32(3.0e38)


@pytest.mark.parametrize("value", [np.inf, 1e300, -3.5e38])
def test_save_checkpoint_refuses_values_beyond_float32(tmp_path, small_setup, value):
    # such a file would be written, then refused by load_checkpoint
    g, _, _, model = small_setup
    model.store.params["rel"].flat[1] = value
    p = tmp_path / "m.plnk"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="checkpoint tensor rel holds values that are not "
                                               "finite as float32"):
            save_checkpoint(model, g, p)
    assert not p.exists()


@pytest.mark.parametrize("field, value", [
    ("dim", 10**12), ("layers", 10**12), ("bases", 10**9), ("dim", 1e300), ("dim", 3),
])
def test_checkpoint_settings_larger_than_the_file_raise_before_allocating(tmp_path, field,
                                                                          value):
    # dim 10**12 made KgcModel raise MemoryError; layers 10**12 set out to build them all
    g = kg_from([(0, 0, 1)])
    p = tmp_path / "m.plnk"
    save_checkpoint(KgcModel(2, 1, dim=2, layers=1, seed=0), g, p)
    data = p.read_bytes()
    meta_len = int.from_bytes(data[6:10], "little")
    blob = json.dumps(dict(json.loads(data[10 : 10 + meta_len]), **{field: value})).encode()
    p.write_bytes(data[:6] + len(blob).to_bytes(4, "little") + blob + data[10 + meta_len :])
    with pytest.raises(DataError, match="checkpoint settings need .* tensor bytes, the file "
                                        "holds 80"):
        load_checkpoint(p, g)


_CKPT_GRAPH = kg_from([(0, 0, 1), (1, 1, 2), (2, 0, 0)])


def _valid_checkpoint_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.plnk"
        save_checkpoint(KgcModel(3, 2, dim=2, layers=1, bases=1, seed=0), _CKPT_GRAPH, path)
        return path.read_bytes()


VALID_CHECKPOINT = _valid_checkpoint_bytes()
# a float32's top byte of 0x7f/0xff makes it Inf or NaN when the byte below
# has its top bit set; half the edits hit a top byte
_FLOAT_BYTES = list(b"\x7f\xff\x80\xc0")
_TOP_BYTES = list(range(13 + int.from_bytes(VALID_CHECKPOINT[6:10], "little"),
                        len(VALID_CHECKPOINT), 4))


@st.composite
def damaged_checkpoints(draw):
    """VALID_CHECKPOINT after one to four byte edits, cuts or insertions."""
    data = VALID_CHECKPOINT
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["edit", "cut", "insert"]))
        i = draw(st.one_of(st.integers(0, max(len(data) - 1, 0)), st.sampled_from(_TOP_BYTES)))
        byte = bytes([draw(st.one_of(st.integers(0, 255), st.sampled_from(_FLOAT_BYTES),
                                     st.sampled_from(list(b"0123456789"))))])
        if kind == "edit":
            data = data[:i] + byte + data[i + 1 :]
        elif kind == "cut":
            data = data[:i] + data[i + draw(st.integers(1, 8)) :]
        else:
            data = data[:i] + byte + data[i:]
    return data


@settings(max_examples=200, deadline=None)
@given(damaged_checkpoints())
def test_damaged_checkpoint_loads_finite_or_raises_data_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.plnk"
        path.write_bytes(data)
        try:
            model = load_checkpoint(path, _CKPT_GRAPH)
        except DataError:
            return
    assert all(np.isfinite(v).all() for v in model.store.params.values())


def oracle_receptive_field(gc, rows, layers):
    """Python frontier loop: the last layer takes the edges into `rows`, and
    each earlier layer also the edges into the sources of the later layer's."""
    need = {int(r) for r in rows}
    fields = []
    for _ in range(layers):
        edges = [e for e in range(gc.num_edges) if int(gc.dst[e]) in need]
        need |= {int(gc.src[e]) for e in edges}
        fields.append(edges)
    return fields[::-1]


@st.composite
def receptive_field_cases(draw):
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    triples = draw(st.lists(st.tuples(node, st.integers(0, 1), node), max_size=30))
    src, rel, dst = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    gc = ComputationGraph(np.arange(n), src, rel, dst, 0, n - 1)
    return gc, draw(st.lists(node, max_size=3)), draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(receptive_field_cases())
def test_receptive_field_matches_frontier_oracle(case):
    gc, rows, layers = case
    fields = _receptive_field(gc, rows, layers)
    assert len(fields) == layers
    for got, want in zip(fields, oracle_receptive_field(gc, rows, layers)):
        if got is None:
            assert want == list(range(gc.num_edges))
        else:
            assert got.tolist() == want and len(want) < gc.num_edges


# -- the encoder layer and loss ops against their generic-op composition ---------------


def generic_encode_operands(model, gc, mask=None, operands=None, rows=None):
    """The encoder composed from generic tape ops, one per numpy operation.
    `mask` is a per-pair vector or Node; with `rows` each layer runs on the
    rows' receptive field."""
    p = operands if operands is not None else model.store.params
    n = gc.num_nodes
    inv_deg = (1.0 / np.maximum(gc.in_degree, 1)).reshape(n, 1)
    h = ad.gather(p["ent"], gc.nodes)
    edge_mask = (None if mask is None
                 else oracles.reshape(ad.gather(mask, gc.pair_index), (gc.num_edges, 1)))
    fields = [None] * model.layers if rows is None else _receptive_field(gc, rows, model.layers)
    for layer, keep in enumerate(fields):
        src, dst, rel, layer_mask = gc.src, gc.dst, gc.rel, edge_mask
        if keep is not None:
            src, dst, rel = src[keep], dst[keep], rel[keep]
            if edge_mask is not None:
                layer_mask = ad.gather(edge_mask, keep)
        self_term = oracles.matmul(h, p[f"self_{layer}"])
        hs = ad.gather(h, src)
        coef = oracles.reshape(p[f"coef_{layer}"], (-1, 1))
        msg = None
        for b in range(model.bases):
            term = ad.mul(oracles.matmul(hs, p[f"basis_{layer}_{b}"]),
                          ad.gather(coef, rel * model.bases + b))
            msg = term if msg is None else ad.add(msg, term)
        if layer_mask is not None:
            msg = ad.mul(msg, layer_mask)
        h = ad.add(self_term, ad.mul(oracles.scatter_add(msg, dst, n), inv_deg))
        if layer < model.layers - 1:
            h = oracles.relu(h)
    return h


def generic_kgc_loss(model, H, rel, heads, rels, tails, n_pos):
    """The training loss composed from generic tape ops: half the mean -log p
    of the first n_pos triples plus half the mean -log(1 - p) of the rest."""
    hh, rr, tt = ad.gather(H, heads), ad.gather(rel, rels), ad.gather(H, tails)
    ones = np.ones(model.dim)
    if model.decoder == "transe":
        x = oracles.sub(ad.add(hh, rr), tt)
        raws = oracles.neg(oracles.powc(oracles.matmul(ad.mul(x, x), ones), 0.5))
    else:
        raws = oracles.matmul(ad.mul(ad.mul(hh, rr), tt), ones)
    probs = oracles.sigmoid(raws)
    p_pos = ad.gather(probs, np.arange(n_pos))
    p_neg = ad.gather(probs, np.arange(n_pos, len(heads)))
    return ad.add(ad.mul(ad.sumall(oracles.neg(oracles.log(p_pos))), 0.5 / n_pos),
                  ad.mul(ad.sumall(oracles.neg(oracles.log(oracles.sub(1.0, p_neg)))),
                         0.5 / (len(heads) - n_pos)))


def op_encode(model, gc, mask, operands, rows):
    return encode_operands(model, gc, mask, operands, layer_ops(model, gc, rows))


def op_loss(model, H, rel, heads, rels, tails, n_pos):
    return KgcLossOp(model, rels, n_pos)(H, rel, heads, tails)


# 0 -> 1 -> 2 -> 3 -> 4 with parallel triples 1 -> 2 and self-loops at 2 and 4;
# relation 2 is unused. Rows {4, 3} leave edges out of the last layer's field,
# rows {1, 0} leave it one edge.
OP_CHAIN = ComputationGraph(np.arange(5), [0, 1, 1, 2, 2, 3, 4], [0, 1, 0, 1, 0, 1, 0],
                            [1, 2, 2, 2, 3, 4, 4], 4, 3)
OP_ONE_EDGE = ComputationGraph(np.arange(2), [0], [0], [1], 0, 1)


def op_batch(gc, seed):
    """Every triple of gc as a positive, then two corruptions of each."""
    rng = np.random.default_rng(seed)
    neg = rng.integers(0, gc.num_nodes, 2 * gc.num_edges)
    heads = np.concatenate([gc.src, np.repeat(gc.src, 2)])
    tails = np.concatenate([gc.dst, neg])
    rels = np.concatenate([gc.rel, np.repeat(gc.rel, 2)])
    return heads, rels, tails, gc.num_edges


def op_pass(encode_fn, loss_fn, model, gc, mask, mask_kind, params_kind, rows):
    """Values and adjoints of one pass: the encoder output (at `rows` when
    given), the objective, and the gradient of every parameter and of the mask
    when they are Nodes. Without rows the objective is the training loss over
    op_batch, with rows a weighted sum of the rows' embeddings."""
    with ad.Tape() as tape:
        params = ({name: tape.param(model.store, name) for name in model.store.params}
                  if params_kind == "nodes" else dict(model.store.params))
        m = {"none": None, "array": mask, "node": oracles.leaf(tape, mask)}[mask_kind]
        H = encode_fn(model, gc, m, params, rows)
        if rows is None:
            out = {"H": np.array(ad._val(H))}
            objective = loss_fn(model, H, params["rel"], *op_batch(gc, 3))
        else:
            out = {"H": np.array(ad._val(H))[rows]}
            weights = np.linspace(-1.0, 1.5, len(rows) * model.dim).reshape(len(rows), -1)
            objective = ad.sumall(ad.mul(ad.gather(H, np.array(rows)), weights))
        out["objective"] = np.asarray(ad._val(objective))
        if isinstance(objective, ad.Node):
            model.store.zero_grads()
            ad.backward(tape, objective)
            if params_kind == "nodes":
                out.update({name: g.copy() for name, g in model.store.grads.items()})
            if mask_kind == "node":
                out["mask"] = m.grad.copy()
            model.store.zero_grads()
    return out


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("bases", [1, 2, 3])
def test_layer_and_loss_ops_match_generic_op_composition(decoder, layers, bases):
    for gc, row_sets in ((OP_CHAIN, (None, [4, 3], [1, 0])), (OP_ONE_EDGE, (None, [1, 0]))):
        model = KgcModel(gc.num_nodes, 3, dim=3, layers=layers, bases=bases, decoder=decoder,
                         seed=7 * layers + bases)
        mask = np.random.default_rng(layers).uniform(0.1, 0.9, gc.num_pairs)
        for params_kind in ("nodes", "arrays"):
            for mask_kind in ("none", "array", "node"):
                for rows in row_sets:
                    case = (model, gc, mask, mask_kind, params_kind, rows)
                    got = op_pass(op_encode, op_loss, *case)
                    want = op_pass(generic_encode_operands, generic_kgc_loss, *case)
                    assert got.keys() == want.keys()
                    for key in want:
                        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0,
                                                   err_msg=f"{key} {case[3:]}")


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("size", [1, 2, 3])
def test_layer_and_loss_ops_pass_finite_differences(decoder, size):
    gc = OP_CHAIN
    model = KgcModel(gc.num_nodes, 3, dim=2, layers=size, bases=size, decoder=decoder,
                     seed=size)
    store = ad.ParamStore({
        **model.store.params,
        "mask": np.random.default_rng(size).uniform(0.2, 0.8, gc.num_pairs),
    })
    batch = op_batch(gc, size)
    weights = np.array([[0.5, -1.0], [1.5, 0.25]])

    def loss(s, tape):
        leaf = (lambda name: tape.param(s, name)) if tape is not None else s.params.get
        params = {name: leaf(name) for name in model.store.params}
        mask = leaf("mask")
        H = encode_operands(model, gc, mask, params)
        field = op_encode(model, gc, mask, params, [1, 0])
        return ad.add(op_loss(model, H, params["rel"], *batch),
                      ad.sumall(ad.mul(ad.gather(field, np.array([1, 0])), weights)))

    report = ad.finite_diff_check(loss, store, step=1e-6, tol=1e-6, floor=1e-3)
    assert report.passed, report
    assert set(report.per_param) == set(store.params)


@pytest.mark.parametrize("scale", [-1e308, 1e308])
def test_layer_op_non_finite_pre_activation_names_the_layer(scale):
    # h @ self_0 overflows to -inf or inf while the messages are 0; relu(-inf)
    # is 0, so only the layer's own check can catch the -inf
    model = KgcModel(OP_CHAIN.num_nodes, 3, dim=2, layers=2, bases=1, seed=0)
    p = model.store.params
    p["ent"][...] = 1.0
    p["basis_0_0"][...] = 0.0
    p["self_0"][...] = scale
    with pytest.raises(NumericError, match=r"op 'rgcn:layer0'$"):
        encode(model, OP_CHAIN)
    with ad.Tape() as tape:
        params = {name: tape.param(model.store, name) for name in p}
        with pytest.raises(NumericError, match=r"op 'rgcn:layer0'$"):
            op_encode(model, OP_CHAIN, oracles.leaf(tape, np.full(OP_CHAIN.num_pairs, 0.5)),
                      params, [4, 3])


def test_layer_op_adjoint_overflow_names_the_layer():
    # tiny embeddings keep the forward finite; a huge output adjoint times
    # self_1's large entries overflows the layer's input adjoint
    model = KgcModel(OP_CHAIN.num_nodes, 3, dim=2, layers=2, bases=1, seed=0)
    p = model.store.params
    p["ent"][...] = 1e-20
    p["self_1"][...] = 1e10
    with ad.Tape() as tape:
        params = {name: tape.param(model.store, name) for name in p}
        H = encode_operands(model, OP_CHAIN, None, params)
        objective = ad.sumall(ad.mul(H, np.full(H.shape, 1e300)))
        with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                       match=r"op 'rgcn:layer1 adjoint'$"):
            ad.backward(tape, objective)


@pytest.mark.parametrize("decoder, H, rel", [
    # h * r overflows to -inf: sigmoid(-inf) is 0, which the clamp makes finite
    ("distmult", np.full((2, 2), 1e200), np.full((1, 2), -1e200)),
    # (h - t)**2 overflows to inf, so the raw score -sqrt is -inf
    ("transe", np.array([[1e200, 1e200], [-1e200, -1e200]]), np.zeros((1, 2))),
])
def test_loss_op_non_finite_raw_score_names_the_op(decoder, H, rel):
    model = KgcModel(2, 1, dim=2, decoder=decoder)
    op = KgcLossOp(model, np.array([0, 0]), 1)
    heads, tails = np.array([0, 1]), np.array([1, 0])
    with pytest.raises(NumericError, match=r"op 'kgc_loss'$"):
        op(H, rel, heads, tails)
    with ad.Tape() as tape:
        with pytest.raises(NumericError, match=r"op 'kgc_loss'$"):
            op(oracles.leaf(tape, H), oracles.leaf(tape, rel), heads, tails)


@pytest.mark.parametrize("layers, bases", [(2, 2), (1, 1), (3, 3)])
def test_training_epoch_is_params_layers_and_the_loss(monkeypatch, layers, bases):
    from kgexplain import model as model_module
    from kgexplain.harness import PlantedConfig, generate_planted

    sizes = []

    class CountingTape(ad.Tape):
        __slots__ = ()

        def __exit__(self, *exc):
            sizes.append(len(self.nodes))
            return super().__exit__(*exc)

    monkeypatch.setattr(model_module, "Tape", CountingTape)
    g = generate_planted(PlantedConfig(seed=0)).graph
    model = train_kgc(g, ModelConfig(layers=layers, bases=bases, epochs=3))
    # the entity table is the first layer's input as it is, without a gather
    assert sizes == [len(model.store.params) + layers + 1] * 3
    if (layers, bases) == (2, 2):
        assert sizes[0] == 13


def test_fixed_input_layer_reuses_messages_only_for_the_same_arrays():
    gc = OP_CHAIN
    model = KgcModel(gc.num_nodes, 3, dim=3, layers=2, bases=2, seed=1)
    p = dict(model.store.params)
    h = p["ent"][gc.nodes]
    mask = np.linspace(0.1, 0.9, gc.num_edges).reshape(-1, 1)
    plain, fixed = layer_ops(model, gc, [4, 3])[0], layer_ops(model, gc, [4, 3])[0]
    fixed.fix_input(h, p)
    assert_same_bits(fixed(h, p, mask), plain(h, p, mask))
    with ad.Tape() as tape:
        leaf = oracles.leaf(tape, mask)
        ad.backward(tape, ad.sumall(fixed(h, p, leaf)))
        fixed_grad = leaf.grad
    with ad.Tape() as tape:
        leaf = oracles.leaf(tape, mask)
        ad.backward(tape, ad.sumall(plain(h, p, leaf)))
        assert_same_bits(fixed_grad, leaf.grad)
    # another input or weight array is not the fixed one
    other = h + 1.0
    assert_same_bits(fixed(other, p, mask), plain(other, p, mask))
    p["self_0"] = p["self_0"] * 2.0
    assert_same_bits(fixed(h, p, mask), plain(h, p, mask))


# -- the prediction head op against its generic-op composition ------------------------


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def head_pass(head_fn, H, weight):
    """raw, prob, nll and the adjoint of H for the objective weight * nll."""
    with ad.Tape() as tape:
        leaf = oracles.leaf(tape, H)
        raw, prob, nll = head_fn(leaf)
        ad.backward(tape, ad.mul(nll, weight))
        return [np.asarray(ad._val(x)) for x in (raw, prob, nll)] + [leaf.grad.copy()]


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("rows", [(0, 3), (2, 2), (3, 1)])
def test_target_head_op_matches_generic_op_composition(decoder, rows):
    model = KgcModel(4, 1, dim=5, decoder=decoder)
    rng = np.random.default_rng(rows[0])
    # at scale 30 some probabilities fall below the log clamp and some round to 1
    for scale in (0.1, 1.0, 30.0):
        for _ in range(5):
            H, r = rng.normal(0.0, scale, (4, 5)), rng.normal(0.0, scale, 5)
            op = TargetHeadOp(decoder, *rows, r)
            weight = rng.uniform(0.5, 2.0)
            got = head_pass(op, H, weight)
            want = head_pass(lambda leaf: generic_head(model, leaf, rows, r), H, weight)
            for a, b in zip(got, want):
                assert_same_bits(a, b)
            for a, b in zip(op(H), want):
                assert_same_bits(a, b)
            assert_same_bits(score(model, H[rows[0]], r, H[rows[1]]).raw, want[0])


@pytest.mark.parametrize("decoder, H, r", [
    ("distmult", np.full((2, 2), 1e200), np.full(2, -1e200)),
    ("transe", np.array([[1e200, 1e200], [-1e200, -1e200]]), np.zeros(2)),
])
def test_target_head_op_non_finite_raw_score_names_the_op(decoder, H, r):
    op = TargetHeadOp(decoder, 0, 1, r)
    with pytest.raises(NumericError, match=r"op 'target_head'$"):
        op(H)
    with ad.Tape() as tape:
        with pytest.raises(NumericError, match=r"op 'target_head'$"):
            op(oracles.leaf(tape, H))


def test_target_head_op_adjoint_overflow_names_the_op():
    # the probability sits below the log clamp, so the huge objective weight
    # divided by the clamp overflows the score adjoint
    op = TargetHeadOp("distmult", 0, 1, np.full(2, -3.0))
    H = np.full((2, 2), 3.0)
    assert op(H)[1] < ad.LOG_CLAMP
    with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                   match=r"op 'target_head adjoint'$"):
        head_pass(op, H, 1e300)
