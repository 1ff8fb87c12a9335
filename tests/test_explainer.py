import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import tape_oracles as oracles
from hypothesis import given, settings
from hypothesis import strategies as st
from tape_oracles import normalized_walk_mass
from test_model import assert_same_bits, generic_head

from kgexplain import autodiff as ad
from kgexplain.errors import ContractError, DataError, NumericError
from kgexplain.explain import (
    EdgeScoreMatrix,
    ExplainConfig,
    ExplainJob,
    PathLossOp,
    generate_paths,
    init_tes,
    on_path_probability,
    power_chain,
    train_explainer,
    train_explainers,
)
from kgexplain.harness import MODES, _mode_config
from kgexplain.kgraph import (
    ComputationGraph,
    KnowledgeGraph,
    TargetTriple,
    adjacency_power_row,
    full_graph,
)
from kgexplain.model import (
    DECODERS,
    KgcModel,
    TargetScorer,
    encode,
    layer_ops,
    rank_target,
    score_target_masked,
)


def kg_from(triples, n_ent=None, n_rel=None):
    arr = np.array(triples, dtype=np.int64).reshape(-1, 3)
    n_ent = n_ent or int(arr[:, [0, 2]].max()) + 1
    n_rel = n_rel or int(arr[:, 1].max()) + 1
    return KnowledgeGraph(n_ent, n_rel, arr[:, 0], arr[:, 1], arr[:, 2])


def gc_with_mask(triples, values, target=(0, 0, 1), n_ent=None):
    g = kg_from(triples, n_ent=n_ent)
    gc = full_graph(g, TargetTriple(*target))
    return gc, EdgeScoreMatrix.from_values(gc, np.asarray(values, dtype=float))


def scalar(x):
    return float(np.asarray(ad._val(x)).reshape(()))


def p_on(gc, values, L):
    """The on-path probability the training tape computes, as a float."""
    walks = adjacency_power_row(gc, gc.head_local, L)
    return scalar(on_path_probability(gc, values, L, walks))


def path_job(gc, target, L):
    """A job whose loss terms are the path term and a zero L2 penalty."""
    model = KgcModel(gc.num_nodes, target.relation + 1, dim=4, seed=0)
    cfg = ExplainConfig(power_order=L, gamma=0.0, enable_mi_loss=False)
    return ExplainJob(model, gc, target, [cfg])


def tes_mask(tes, model, gc, target, combine_mode="concatenation"):
    """The final mask the explainer reads off a trained TES."""
    job = ExplainJob(model, gc, target, [ExplainConfig(combine_mode=combine_mode)])
    return job.final_masks(tes)[0]


def combine_cat(edge_embs, target_embs):
    """TES input oracle: [h, r, t, target-h, target-r, target-t] concatenated."""
    parts = [np.asarray(v, dtype=np.float64) for v in (*edge_embs, *target_embs)]
    d = parts[0].shape
    if any(p.shape != d for p in parts):
        raise ContractError("all six embeddings must share one dimension")
    return np.concatenate(parts)


def combine_euc(edge_embs, target_embs):
    """TES input oracle: per-slot Euclidean distances between edge and target."""
    out = []
    for a, b in zip(edge_embs, target_embs):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            raise ContractError("edge/target embedding dimension mismatch")
        diff = a - b
        out.append(np.sqrt((diff * diff).sum()))
    return np.array(out)


def walk_products(pairs, values, start, end, length):
    """Brute-force sum of edge-score products over all directed walks."""
    table = {(s, d): v for (s, d), v in zip(pairs, values)}
    nodes = {s for s, _ in pairs} | {d for _, d in pairs} | {start, end}
    total, count = 0.0, 0

    def rec(node, remaining, product):
        nonlocal total, count
        if remaining == 0:
            if node == end:
                total += product
                count += 1
            return
        for nxt in nodes:
            if (node, nxt) in table:
                rec(nxt, remaining - 1, product * table[(node, nxt)])

    rec(start, length, 1.0)
    return total, count


def p_on_oracle(gc, values, L):
    pairs = list(zip(gc.pair_src.tolist(), gc.pair_dst.tolist()))
    expected = 0.0
    for length in range(1, L + 1):
        total, count = walk_products(pairs, values, gc.head_local, gc.tail_local, length)
        if count:
            expected += (total / count) ** (1.0 / length)
    return expected / L


# -- combine (the TES input oracles) ---------------------------------------------


def test_combine_cat_zero():
    z = [np.zeros(2)] * 3
    assert combine_cat(z, z).tolist() == [0.0] * 12


def test_combine_cat_placement():
    h = np.array([1.0, 0.0])
    z = np.zeros(2)
    out = combine_cat((h, z, z), (z, z, z))
    assert out.tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]


def test_combine_cat_slices_equal_inputs():
    rng = np.random.default_rng(0)
    vecs = [rng.normal(size=4) for _ in range(6)]
    out = combine_cat(vecs[:3], vecs[3:])
    for i, v in enumerate(vecs):
        np.testing.assert_array_equal(out[4 * i : 4 * (i + 1)], v)


def test_combine_cat_dimension_mismatch():
    with pytest.raises(ContractError):
        combine_cat((np.ones(3), np.ones(4), np.ones(4)), (np.ones(4),) * 3)


def test_combine_euc_identity():
    rng = np.random.default_rng(1)
    vecs = [rng.normal(size=5) for _ in range(3)]
    assert combine_euc(vecs, vecs).tolist() == [0.0, 0.0, 0.0]


def test_combine_euc_three_four_five():
    h = np.array([3.0, 4.0])
    z = np.zeros(2)
    out = combine_euc((h, z, z), (z, z, z))
    assert out.tolist() == [5.0, 0.0, 0.0]


def test_combine_euc_matches_loop_oracle():
    rng = np.random.default_rng(2)
    edge = [rng.normal(size=4) for _ in range(3)]
    tgt = [rng.normal(size=4) for _ in range(3)]
    out = combine_euc(edge, tgt)
    for i in range(3):
        acc = 0.0
        for j in range(4):
            acc += (edge[i][j] - tgt[i][j]) ** 2
        assert out[i] == pytest.approx(math.sqrt(acc), rel=1e-12)


# -- TES scoring (ExplainJob.final_masks) -------------------------------------------


def test_tes_zero_weights_scores_half():
    g = kg_from([(0, 0, 1), (1, 1, 2), (2, 0, 0)])
    target = TargetTriple(0, 0, 1)
    gc = full_graph(g, target)
    model = KgcModel(3, 2, dim=4, seed=0)
    tes = init_tes("concatenation", 4, seed=0)
    for name in tes.params:
        tes.params[name][...] = 0.0
    mask = tes_mask(tes, model, gc, target)
    assert np.all(mask.values == 0.5)


def test_tes_single_edge_support():
    g = kg_from([(0, 0, 1)], n_ent=3)
    target = TargetTriple(0, 0, 1)
    gc = full_graph(g, target)
    model = KgcModel(3, 1, dim=4, seed=1)
    mask = tes_mask(init_tes("concatenation", 4, seed=1), model, gc, target)
    assert (mask.pair_src.tolist(), mask.pair_dst.tolist()) == ([0], [1])
    assert mask.values[0] > 0


@pytest.mark.parametrize("mode", ["concatenation", "euclidean"])
def test_tes_matches_per_edge_oracle(mode):
    g = kg_from([(0, 0, 1), (1, 1, 2), (2, 0, 3), (3, 1, 0), (0, 1, 2)])
    target = TargetTriple(0, 1, 2)
    gc = full_graph(g, target)
    model = KgcModel(4, 2, dim=4, seed=2)
    tes = init_tes(mode, 4, seed=3)
    mask = tes_mask(tes, model, gc, target, mode)

    H = encode(model, gc, None)
    R = model.store.params["rel"]
    i, k = gc.head_local, gc.tail_local
    p = {name: t[0] for name, t in tes.params.items()}
    for pid in range(gc.num_pairs):
        row = int(mask.provenance[pid])
        s, r, d = gc.src[row], gc.rel[row], gc.dst[row]
        edge = (H[s], R[r], H[d])
        tgt = (H[i], R[target.relation], H[k])
        x = combine_cat(edge, tgt) if mode == "concatenation" else combine_euc(edge, tgt)
        z1 = np.maximum(x @ p["w1"] + p["b1"], 0.0)
        z2 = np.maximum(z1 @ p["w2"] + p["b2"], 0.0)
        logit = z2 @ p["w3"] + p["b3"]
        expected = 1.0 / (1.0 + np.exp(-logit[0]))
        assert mask.values[pid] == pytest.approx(expected, rel=1e-12)


def test_tes_multi_relation_pair_takes_max_with_provenance():
    g = kg_from([(0, 0, 1), (0, 1, 1)])
    target = TargetTriple(0, 0, 1)
    gc = full_graph(g, target)
    model = KgcModel(2, 2, dim=4, seed=4)
    tes = init_tes("concatenation", 4, seed=5)
    mask = tes_mask(tes, model, gc, target)
    assert gc.num_pairs == 1 and gc.num_edges == 2
    # provenance points at the arg-max triple
    H = encode(model, gc, None)
    R = model.store.params["rel"]
    p = {name: t[0] for name, t in tes.params.items()}
    scores = []
    for row in range(2):
        x = combine_cat((H[gc.src[row]], R[gc.rel[row]], H[gc.dst[row]]),
                        (H[0], R[0], H[1]))
        z1 = np.maximum(x @ p["w1"] + p["b1"], 0.0)
        z2 = np.maximum(z1 @ p["w2"] + p["b2"], 0.0)
        scores.append(float(1.0 / (1.0 + np.exp(-(z2 @ p["w3"] + p["b3"])[0]))))
    assert mask.values[0] == pytest.approx(max(scores), rel=1e-12)
    assert mask.provenance[0] == int(np.argmax(scores))


# -- the TES tape op (ExplainJob.tes) ----------------------------------------------


def tes_oracle(params, x):
    """The TES MLP composed from generic tape ops over the full input x, for
    the one row of a batch-of-one TES."""
    params = {name: ad.take_row(p, 0) for name, p in params.items()}
    z = oracles.relu(ad.add(oracles.matmul(x, params["w1"]), params["b1"]))
    z = oracles.relu(ad.add(oracles.matmul(z, params["w2"]), params["b2"]))
    z = ad.add(oracles.matmul(z, params["w3"]), params["b3"])
    return oracles.reshape(oracles.sigmoid(z), (x.shape[0],))


def tes_case(mode, num_edges, dim=4, seed=0):
    """A job over `num_edges` random triples, a TES with random biases, and
    the oracle's (E, 6d) or (E, 3) input built edge by edge."""
    rng = np.random.default_rng(seed)
    n = 6
    keys = rng.choice(n * 2 * n, size=num_edges, replace=False)
    triples = [(int(k // (2 * n)), int(k // n % 2), int(k % n)) for k in keys]
    g = kg_from(triples, n_ent=n, n_rel=2)
    target = TargetTriple(0, 1, 1)
    gc = full_graph(g, target)
    model = KgcModel(n, 2, dim=dim, seed=seed)
    job = ExplainJob(model, gc, target, [ExplainConfig(combine_mode=mode)])
    tes = init_tes(mode, dim, seed=seed + 1)
    for name in ("b1", "b2", "b3"):
        tes.params[name][...] = rng.normal(0.0, 0.5, tes.params[name].shape)
    H, R = job.H, model.store.params["rel"]
    tgt = (H[gc.head_local], R[target.relation], H[gc.tail_local])
    combine = combine_cat if mode == "concatenation" else combine_euc
    rows = [combine((H[s], R[r], H[d]), tgt) for s, r, d in zip(gc.src, gc.rel, gc.dst)]
    width = 6 * dim if mode == "concatenation" else 3
    x = np.array(rows).reshape(len(rows), width)
    return job, tes, x, rng.normal(size=gc.num_edges)


def scores_and_grads(fn, store, weights):
    """Edge scores of `fn(params)` and d(sum(weights * scores))/d(params)."""
    store.zero_grads()
    with ad.Tape() as tape:
        scores = fn({name: tape.param(store, name) for name in store.params})
        ad.backward(tape, ad.sumall(ad.mul(scores, weights)))
        values = np.array(scores.value)
    return values, {name: g.copy() for name, g in store.grads.items()}


def tes_loss(job, weights):
    def loss(store, tape):
        params = ({name: tape.param(store, name) for name in store.params}
                  if tape is not None else store.params)
        return ad.sumall(ad.mul(job.tes(params), weights))

    return loss


@pytest.mark.parametrize("mode", ["concatenation", "euclidean"])
@pytest.mark.parametrize("num_edges", [0, 1, 40])
def test_tes_op_matches_composed_oracle(mode, num_edges):
    job, store, x, weights = tes_case(mode, num_edges)
    got, got_grads = scores_and_grads(job.tes, store, weights)
    want, want_grads = scores_and_grads(lambda p: tes_oracle(p, x), store, weights)
    assert got.shape == (1, num_edges)
    np.testing.assert_allclose(got[0], want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(job.tes(store.params)[0], want, rtol=1e-12, atol=0)
    for name in store.params:
        assert got_grads[name].shape == store.params[name].shape
        np.testing.assert_allclose(got_grads[name], want_grads[name], rtol=1e-12, atol=0,
                                   err_msg=name)


@pytest.mark.parametrize("mode", ["concatenation", "euclidean"])
def test_tes_op_passes_finite_differences(mode):
    job, store, _, weights = tes_case(mode, 6, dim=3, seed=5)
    report = ad.finite_diff_check(tes_loss(job, weights), store, step=1e-5, tol=1e-4)
    assert report.passed, report


def test_tes_op_is_one_tape_node():
    job, store, _, _ = tes_case("concatenation", 5)
    with ad.Tape() as tape:
        job.pair_scores(store, tape)
        ops = [node.op for node in tape.nodes]
    assert ops == [f"param:{name}" for name in store.params] + ["tes_mlp", "segment_max"]


@pytest.mark.parametrize("mode", ["concatenation", "euclidean"])
def test_tes_op_overflow_names_the_layer(mode):
    job, store, _, weights = tes_case(mode, 3)
    xe = job.tes.xe
    assert np.abs(xe[0]).sum() > 2.0
    store.params["w1"][...] = 0.0
    store.params["w1"][0, : xe.shape[1]] = 1e308 * np.sign(xe[0])[:, None]
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="tes_mlp:layer1"):
            job.tes(store.params)
        with pytest.raises(NumericError, match="tes_mlp:layer1"):
            with ad.Tape() as tape:
                job.pair_scores(store, tape)


def test_tes_op_adjoint_overflow_names_the_layer():
    # hidden layer 2 is all ones and the logit is 0, so every score is 0.5;
    # a huge output adjoint times w3's large entries overflows the layer-2 adjoint
    job, store, _, _ = tes_case("concatenation", 3)
    p = store.params
    p["w2"][...] = 0.0
    p["b2"][...] = 1.0
    p["w3"][...] = 0.0
    p["w3"][0, :2, 0] = (1e10, -1e10)
    p["b3"][...] = 0.0
    np.testing.assert_array_equal(job.tes(p), 0.5)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="tes_mlp:layer2 adjoint"):
        scores_and_grads(job.tes, store, np.full(3, 1e300))


@pytest.mark.parametrize("mode", ["concatenation", "euclidean"])
def test_tes_op_backward_after_later_forwards_matches_a_lone_forward(mode):
    # the op keeps no activations between calls, so later forwards on the
    # same tape and a final mask leave an earlier node's adjoints unchanged
    job, store, _, weights = tes_case(mode, 6)
    _, lone = scores_and_grads(job.tes, store, weights)
    other = init_tes(mode, 4, seed=9)
    store.zero_grads()
    with ad.Tape() as tape:
        first = job.tes({name: tape.param(store, name) for name in store.params})
        job.tes({name: tape.param(other, name) for name in other.params})
        job.final_masks(other)
        ad.backward(tape, ad.sumall(ad.mul(first, weights)))
    for name in store.params:
        assert store.grads[name].tobytes() == lone[name].tobytes(), name


# -- powering ---------------------------------------------------------------------


def test_power_step_chain():
    gc, mask = gc_with_mask([(0, 0, 1), (1, 0, 2)], [0.5, 0.8], target=(0, 0, 2))
    chain = power_chain(gc, mask.values, 0, 2)
    assert len(chain) == 2
    assert chain[0].tolist() == [0.0, 0.5, 0.0]
    assert chain[1][2] == pytest.approx(0.4)


def test_power_step_no_walk_is_zero():
    gc, mask = gc_with_mask([(0, 0, 1)], [0.7], n_ent=3)
    u2 = power_chain(gc, mask.values, 0, 2)[1]
    assert u2[2] == 0.0


def test_power_step_symbolic_expansion():
    # u^(2)[k] must equal sum over n of M[i, n] * M[n, k] for every k
    rng = np.random.default_rng(6)
    n = 6
    triples = [(i, 0, j) for i in range(n) for j in range(n) if i != j]
    g = kg_from(triples, n_ent=n, n_rel=1)
    gc = full_graph(g, TargetTriple(2, 0, 3))
    vals = rng.uniform(0.05, 0.95, gc.num_pairs)
    m = np.zeros((n, n))
    m[gc.pair_src, gc.pair_dst] = vals
    u2 = power_chain(gc, vals, 2, 2)[1]
    for k in range(n):
        expected = sum(m[2, nn] * m[nn, k] for nn in range(n))
        assert u2[k] == pytest.approx(expected, abs=1e-12)


def test_walk_sum_correctness_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        pairs = sorted({(int(rng.integers(n)), int(rng.integers(n))) for _ in range(2 * n)})
        g = kg_from([(s, 0, d) for s, d in pairs], n_ent=n, n_rel=1)
        gc = full_graph(g, TargetTriple(0, 0, min(1, n - 1)))
        vals = rng.uniform(0.05, 0.95, gc.num_pairs)
        gc_pairs = list(zip(gc.pair_src.tolist(), gc.pair_dst.tolist()))
        chain = power_chain(gc, vals, 0, 4)
        for length in range(2, 5):
            for k in range(n):
                expected, _ = walk_products(gc_pairs, vals, 0, k, length)
                assert chain[length - 1][k] == pytest.approx(expected, abs=1e-9)


# -- normalized_walk_mass -----------------------------------------------------------


def test_normalize_single_walk():
    gc, mask = gc_with_mask([(0, 0, 1), (1, 0, 2)], [0.5, 0.8], target=(0, 0, 2))
    u2 = power_chain(gc, mask.values, 0, 2)[1]
    counts = adjacency_power_row(gc, 0, 2)[1]
    out = normalized_walk_mass(u2, 2, counts[2], 2)
    assert out[0] == pytest.approx(math.sqrt(0.4))


def test_normalize_equal_scores_gives_score():
    triples = [(0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 3)]
    gc, mask = gc_with_mask(triples, [0.3] * 4, target=(0, 0, 3))
    u2 = power_chain(gc, mask.values, 0, 2)[1]
    counts = adjacency_power_row(gc, 0, 2)[1]
    assert counts[3] == 2
    out = normalized_walk_mass(u2, 3, counts[3], 2)
    assert out[0] == pytest.approx(0.3)


def test_normalize_zero_walks_is_zero():
    # no length-2 walk reaches the tail, so that length adds 0 to the mean
    gc, mask = gc_with_mask([(0, 0, 1)], [0.9], n_ent=3)
    assert adjacency_power_row(gc, 0, 2)[1][1] == 0
    assert p_on(gc, mask.values, 2) == 0.9 / 2


def test_normalized_entries_bounded_by_edge_scores():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        pairs = sorted({(int(rng.integers(n)), int(rng.integers(n))) for _ in range(2 * n)})
        g = kg_from([(s, 0, d) for s, d in pairs], n_ent=n, n_rel=1)
        gc = full_graph(g, TargetTriple(0, 0, 1))
        vals = rng.uniform(0.05, 0.95, gc.num_pairs)
        chain = power_chain(gc, vals, 0, 3)
        for length in range(2, 4):
            counts = adjacency_power_row(gc, 0, length)[length - 1]
            for k in np.flatnonzero(counts > 0):
                out = normalized_walk_mass(chain[length - 1], k, counts[k], length)[0]
                assert vals.min() - 1e-12 <= out <= vals.max() + 1e-12


# -- on_path_probability and the path term ------------------------------------------


def test_on_path_two_node_single_edge():
    gc, mask = gc_with_mask([(0, 0, 1)], [0.7])
    assert p_on(gc, mask.values, 2) == pytest.approx(0.7 / 2)


def test_on_path_disconnected_is_zero():
    gc, mask = gc_with_mask([(1, 0, 0)], [0.9])  # edge in the wrong direction
    assert p_on(gc, mask.values, 3) == 0.0


def test_on_path_matches_exhaustive_oracle():
    triples = [(0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 3), (1, 0, 2), (3, 0, 0)]
    gc, _ = gc_with_mask(triples, [0.5] * 6, target=(0, 0, 3))
    rng = np.random.default_rng(9)
    vals = rng.uniform(0.1, 0.9, gc.num_pairs)
    L = 3
    assert p_on(gc, vals, L) == pytest.approx(p_on_oracle(gc, vals, L), abs=1e-12)


def test_on_path_requires_min_order():
    gc, _ = gc_with_mask([(0, 0, 1)], [0.5])
    with pytest.raises(ContractError):
        path_job(gc, TargetTriple(0, 0, 1), 1)


def test_path_loss_values():
    # path term = -log(P_on), with P_on clamped at 1e-12
    target = TargetTriple(0, 0, 1)
    for triples, values, expected, tol in (
        ([(0, 0, 0), (0, 0, 1)], [1.0, 1.0], 0.0, 0.0),    # P_on = 1
        ([(0, 0, 1)], [1.0], 0.6931, 1e-4),                # P_on = (1 + 0) / 2
        ([(1, 0, 0)], [1.0], 27.631, 1e-3),                # P_on = 0
    ):
        gc, mask = gc_with_mask(triples, values)
        path = scalar(path_job(gc, target, 2).loss_terms(mask.values[None])["path"])
        assert path == pytest.approx(expected, abs=tol)


# -- loss terms of a fixed mask (ExplainJob.loss_terms) --------------------------------


def test_total_loss_vanishes_for_perfect_instance():
    # direct edge plus a head self-loop gives P_on = 1 under an all-ones mask;
    # hand-set model saturates the prediction at probability 1.0
    g = kg_from([(0, 0, 0), (0, 0, 1)])
    target = TargetTriple(0, 0, 1)
    gc = full_graph(g, target)
    model = KgcModel(2, 1, dim=2, layers=1, decoder="distmult", seed=0)
    p = model.store.params
    p["ent"][...] = [[5.0, 5.0], [5.0, 5.0]]
    p["rel"][...] = [[5.0, 5.0]]
    p["self_0"][...] = np.eye(2) * 10.0
    p["basis_0_0"][...] = 0.0
    p["basis_0_1"][...] = 0.0
    mask = EdgeScoreMatrix.constant(gc, 1.0)
    job = ExplainJob(model, gc, target, [ExplainConfig(gamma=0.0, power_order=2)])
    terms = {name: scalar(v) for name, v in job.loss_terms(mask.values[None]).items()}
    assert terms["prediction"] == 0.0
    assert terms["path"] == 0.0
    assert sum(terms.values()) == 0.0


def test_total_loss_single_edge_regularization():
    g = kg_from([(0, 0, 1)])
    target = TargetTriple(0, 0, 1)
    gc = full_graph(g, target)
    model = KgcModel(2, 1, dim=4, seed=1)
    job = ExplainJob(model, gc, target, [ExplainConfig(gamma=1.0, power_order=2)])
    reg = scalar(job.loss_terms(np.array([[0.6]]))["regularization"])
    assert reg == pytest.approx(0.6, rel=1e-12)


def test_total_loss_matches_term_by_term_oracle():
    g = kg_from([(0, 0, 1), (1, 0, 2), (0, 1, 3), (3, 0, 2), (2, 1, 4)])
    target = TargetTriple(0, 0, 2)
    gc = full_graph(g, target)
    model = KgcModel(5, 2, dim=4, seed=2)
    rng = np.random.default_rng(10)
    mask = EdgeScoreMatrix.from_values(gc, rng.uniform(0.2, 0.8, gc.num_pairs))
    gamma, L = 0.25, 3
    job = ExplainJob(model, gc, target, [ExplainConfig(gamma=gamma, power_order=L)])
    got = {name: scalar(v) for name, v in job.loss_terms(mask.values[None]).items()}
    pred = -math.log(max(score_target_masked(model, gc, mask, target).probability, 1e-12))
    path = -math.log(max(p_on_oracle(gc, mask.values, L), 1e-12))
    reg = gamma * math.sqrt(float((mask.values ** 2).sum()))
    assert got["prediction"] == pytest.approx(pred, abs=1e-12)
    assert got["path"] == pytest.approx(path, abs=1e-12)
    assert got["regularization"] == pytest.approx(reg, abs=1e-12)
    assert sum(got.values()) == pytest.approx(pred + path + reg, abs=1e-12)
    with pytest.raises(ContractError):
        ExplainJob(model, gc, target, [ExplainConfig(gamma=-0.1, power_order=L)])


# -- gradients through the powering chain ----------------------------------------------


def test_path_loss_gradient_matches_finite_differences():
    triples = [(0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 3), (1, 0, 2)]
    g = kg_from(triples, n_rel=1)
    target = TargetTriple(0, 0, 3)
    gc = full_graph(g, target)
    rng = np.random.default_rng(11)
    store = ad.ParamStore({"mask": rng.uniform(0.2, 0.8, (1, gc.num_pairs))})
    awalks = adjacency_power_row(gc, gc.head_local, 3)

    def loss(s, tape):
        v = tape.param(s, "mask") if tape is not None else s.params["mask"]
        return PathLossOp(gc, 3, awalks, [True])(v)

    assert ad.finite_diff_check(loss, store, step=1e-5, tol=1e-4).passed


def test_path_loss_monotone_in_on_path_scores():
    triples = [(0, 0, 1), (1, 0, 2), (0, 0, 3), (3, 0, 2)]
    gc, _ = gc_with_mask(triples, [0.5] * 4, target=(0, 0, 2))
    job = path_job(gc, TargetTriple(0, 0, 2), 3)
    base = np.full(gc.num_pairs, 0.4)
    losses = [scalar(job.loss_terms((base + bump)[None])["path"])
              for bump in (0.0, 0.1, 0.2, 0.3)]
    assert all(b < a for a, b in zip(losses, losses[1:]))


# -- the fused loss ops against their generic-op composition ----------------------------


def generic_on_path_probability(gc, values, L, walk_counts):
    """The on-path probability composed from generic tape ops, one per numpy
    operation."""
    n = gc.num_nodes
    u = np.zeros(n)
    u[gc.head_local] = 1.0
    chain = []
    for _ in range(L):
        u = oracles.edge_spmv(u, values, gc.pair_src, gc.pair_dst, n)
        chain.append(u)
    k = gc.tail_local
    total = ad.gather(chain[0], np.array([k]))
    for length in range(2, L + 1):
        count = int(walk_counts[length - 1][k])
        if count > 0:
            mass = oracles.powc(ad.mul(ad.gather(chain[length - 1], np.array([k])), 1.0 / count),
                                1.0 / length)
            total = ad.add(total, mass)
    return ad.mul(total, 1.0 / L)


def generic_loss_terms(job, pair_vals):
    """`ExplainJob.loss_terms` composed from generic tape ops, apart from the
    encoder layers: the mask gather and reshape, the prediction head, the
    power chain and the walk masses."""
    cfg, gc, model, target = job.config, job.gc, job.model, job.target
    terms = {}
    if cfg.enable_mi_loss:
        rows = gc.head_local, gc.tail_local
        h = model.store.params["ent"][gc.nodes]
        edge_mask = oracles.reshape(ad.gather(pair_vals, gc.pair_index), (gc.num_edges, 1))
        for op in layer_ops(model, gc, list(rows)):
            h = op(h, model.store.params, edge_mask)
        r = model.store.params["rel"][target.relation]
        terms["prediction"] = generic_head(model, h, rows, r)[2]
    if cfg.enable_path_loss:
        p_on = generic_on_path_probability(gc, pair_vals, cfg.power_order, job.awalks)
        terms["path"] = oracles.neg(oracles.log(p_on))
    terms["regularization"] = ad.mul(ad.norm(pair_vals), cfg.gamma)
    return terms


def terms_and_mask_adjoints(loss_terms, mask):
    """Each term's value as an array and on the tape, and the mask adjoint of
    the summed objective and of each term alone, summed over a batch's rows."""
    out = {f"{name} array": v for name, v in loss_terms(mask).items()}
    names = list(out)
    for which in ["objective", *(name.split()[0] for name in names)]:
        with ad.Tape() as tape:
            leaf = oracles.leaf(tape, mask)
            terms = loss_terms(leaf)
            node = None
            for t in terms.values():
                node = t if node is None else ad.add(node, t)
            node = node if which == "objective" else terms[which]
            ad.backward(tape, ad.sumall(node))
            out[which] = node.value
            out[f"{which} mask adjoint"] = leaf.grad
    return out


def assert_fused_terms_match(job, mask):
    """The terms and mask adjoints of a batch-of-one job on `mask` as its one
    row are those of the generic-op composition on `mask`, bit for bit; only
    the job's leading batch axis of length 1 is dropped."""
    got = terms_and_mask_adjoints(job.loss_terms, mask[None])
    want = terms_and_mask_adjoints(lambda v: generic_loss_terms(job, v), mask)
    assert got.keys() == want.keys()
    for key in want:
        assert_same_bits(np.reshape(got[key], np.shape(want[key])), want[key])


# head 0, tail 1: a direct edge, and every other walk three or more hops long
NO_TWO_WALK = [(0, 1, 1), (0, 0, 2), (2, 1, 3), (3, 0, 1), (0, 1, 4), (4, 0, 5), (5, 1, 1),
               (2, 0, 4), (3, 1, 5), (4, 1, 2)]
# 0 -> 2 -> 1 and 0 -> 3 -> 1 beside the direct edge, with a 3-cycle through 1
TWO_WALKS = [(0, 0, 1), (0, 1, 2), (2, 0, 1), (0, 0, 3), (3, 1, 1), (1, 0, 4), (4, 1, 2),
             (2, 1, 3)]


def loss_case(triples, decoder, mode, L, layers=2, seed=0):
    g = kg_from(triples)
    target = TargetTriple(0, 0, 1)
    gc = full_graph(g, target)
    model = KgcModel(g.num_entities, g.num_relations, dim=4, layers=layers, decoder=decoder,
                     seed=seed)
    cfg = ExplainConfig(power_order=L, gamma=0.25, enable_path_loss=mode != "path_off",
                        enable_mi_loss=mode != "mi_off")
    return gc, ExplainJob(model, gc, target, [cfg])


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("mode", ["full", "path_off", "mi_off"])
@pytest.mark.parametrize("L", [2, 3, 4])
def test_fused_loss_terms_match_generic_op_composition(decoder, mode, L):
    rng = np.random.default_rng(L)
    for triples in (NO_TWO_WALK, TWO_WALKS):
        gc, job = loss_case(triples, decoder, mode, L)
        for _ in range(3):
            assert_fused_terms_match(job, rng.uniform(0.05, 0.95, gc.num_pairs))


def test_fused_loss_terms_take_the_empty_length_and_zero_mass_branches():
    gc, job = loss_case(NO_TWO_WALK, "distmult", "full", 4)
    k = gc.tail_local
    assert job.awalks[1][k] == 0 and job.awalks[2][k] > 0  # no length-2 walk
    assert_fused_terms_match(job, np.full(gc.num_pairs, 0.5))
    gc, job = loss_case(TWO_WALKS, "transe", "full", 3)
    mask = np.full(gc.num_pairs, 0.5)
    # pairs (0, 2) and (0, 3) start both length-2 walks, so u_2[tail] == 0
    mask[[p for p in range(gc.num_pairs) if gc.pair_src[p] == 0 and gc.pair_dst[p] > 1]] = 0.0
    u2 = power_chain(gc, mask, gc.head_local, 3)[1]
    assert job.awalks[1][k] == 2 and u2[k] == 0.0
    assert_fused_terms_match(job, mask)
    mask[:] = 0.0  # every walk mass is 0, and the path term sits at the clamp
    assert_fused_terms_match(job, mask)


@st.composite
def loss_term_graphs(draw, rows=1):
    """Random graphs of 0-30 triples over 1-7 nodes (self-loops and parallel
    triples allowed, head == tail allowed), a model, a power order and `rows`
    masks that hold exact zeros, one per row of a (rows, pairs) array."""
    n = draw(st.integers(1, 7))
    n_rel = draw(st.integers(1, 3))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n_rel - 1), st.integers(0, n - 1))
    triples = draw(st.lists(cells, max_size=30, unique=True))
    src, rel, dst = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    head, tail = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    gc = ComputationGraph(np.arange(n), src, rel, dst, head, tail)
    target = TargetTriple(head, draw(st.integers(0, n_rel - 1)), tail)
    model = KgcModel(n, n_rel, dim=draw(st.integers(2, 4)), layers=draw(st.integers(1, 3)),
                     bases=draw(st.integers(1, 2)), decoder=draw(st.sampled_from(DECODERS)),
                     seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mask = rng.uniform(0.0, 1.0, (rows, gc.num_pairs))
    mask[rng.random(mask.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return model, gc, target, draw(st.integers(2, 4)), mask


@st.composite
def loss_term_cases(draw):
    """A batch-of-one job in a random ablation mode on a `loss_term_graphs`
    graph, and its mask row."""
    model, gc, target, L, mask = draw(loss_term_graphs())
    mode = draw(st.sampled_from(["full", "path_off", "mi_off"]))
    config = _mode_config(ExplainConfig(power_order=L), mode, 0)
    return ExplainJob(model, gc, target, [config]), mask[0]


@settings(max_examples=120, deadline=None)
@given(loss_term_cases())
def test_fused_loss_terms_match_generic_op_composition_on_random_graphs(case):
    assert_fused_terms_match(*case)


@settings(max_examples=80, deadline=None)
@given(loss_term_graphs(rows=3))
def test_each_row_of_a_batch_is_its_batch_of_one(case):
    # the three ablation modes as one batch, each row on its own mask, against
    # each mode alone on that row: the same bytes, signed zeros included; a term
    # a row leaves out holds -0.0 there and passes it only -0.0 adjoints
    model, gc, target, L, mask = case
    configs = [_mode_config(ExplainConfig(power_order=L), mode, 0) for mode in MODES]
    batch = terms_and_mask_adjoints(ExplainJob(model, gc, target, configs).loss_terms, mask)
    for row, cfg in enumerate(configs):
        alone = terms_and_mask_adjoints(ExplainJob(model, gc, target, [cfg]).loss_terms,
                                        mask[row:row + 1])
        for key, value in batch.items():
            got = value[row:row + 1]
            if key in alone:
                assert_same_bits(got, alone[key])
            else:
                assert (got == 0.0).all() and np.signbit(got).all(), (MODES[row], key)


def test_a_job_refuses_no_configs_and_configs_that_differ_beyond_the_loss_switches():
    g = kg_from([(0, 0, 1), (1, 0, 2), (0, 0, 2)])
    target = TargetTriple(0, 0, 2)
    gc = full_graph(g, target)
    model = KgcModel(3, 1, dim=4, seed=0)
    with pytest.raises(ContractError, match="at least one config"):
        train_explainers(model, gc, target, [])
    base = ExplainConfig(epochs=1)
    for other in (replace(base, seed=1), replace(base, gamma=0.5, enable_mi_loss=False)):
        with pytest.raises(ContractError, match="differ only"):
            train_explainers(model, gc, target, [base, other])


def test_a_job_without_the_path_term_builds_and_counts_no_walks(monkeypatch):
    # at this power order the walk counts alone would exceed physical memory
    gc, job = loss_case(TWO_WALKS, "distmult", "path_off", 2**40)
    assert job.awalks is None and job.path is None
    with pytest.raises(ContractError, match=r"^the walk counts and power steps \(power_order="):
        loss_case(TWO_WALKS, "distmult", "full", 2**40)
    from kgexplain import explain as explain_module

    needs = []
    monkeypatch.setattr(explain_module, "_refuse_beyond_memory",
                        lambda nbytes, what: needs.append(nbytes))
    full = ExplainConfig(power_order=3)
    configs = [replace(full, enable_path_loss=False), full, replace(full, enable_mi_loss=False)]
    walks = [ExplainJob(job.model, gc, job.target, configs[:k]).awalks for k in (1, 2, 3)]
    assert walks[0] is None and len(walks[1]) == len(walks[2]) == 3
    # int64 counts once, and float64 steps per row with the path term
    assert needs == [0, 8 * 2 * 3 * gc.num_nodes, 8 * 3 * 3 * gc.num_nodes]


@pytest.mark.parametrize("mode, nodes", [("full", 15), ("path_off", 13), ("mi_off", 12)])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_explainer_epoch_tape_nodes(monkeypatch, mode, nodes, layers):
    # `nodes`: six TES params, the TES and segment_max, the terms (the
    # prediction term: the mask gather and the head, beside the layers; the
    # path loss; the norm and its weight) and the adds that sum them. A lone
    # config is a batch of one, which adds three nodes: the prediction term's
    # `take_row` of its row and `put_rows` into the term vector, and the `sum`
    # of the rows' totals; mi_off has no prediction term and adds only the sum.
    from kgexplain import explain as explain_module

    sizes = []

    class CountingTape(ad.Tape):
        __slots__ = ()

        def __exit__(self, *exc):
            sizes.append(len(self.nodes))
            return super().__exit__(*exc)

    monkeypatch.setattr(explain_module, "Tape", CountingTape)
    _, job = loss_case(TWO_WALKS, "distmult", mode, 3, layers=layers)
    train_explainer(job.model, job.gc, job.target, replace(job.config, epochs=3))
    want = nodes + (layers + 2 if mode != "mi_off" else 0) + 1
    assert sizes == [want] * 3
    if (mode, layers) == ("full", 2):
        assert want == 20


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_batched_explainer_epoch_tape_nodes(monkeypatch, layers):
    # the ablation modes as one batch: six TES params, the TES and segment_max,
    # per row with the prediction term (full, path_off) its row, the mask
    # gather, the layers and the head, then the rows placed in one vector,
    # the path loss over its rows (full, mi_off), the norm and its weight, the
    # adds that sum the terms and the sum of the rows' totals
    from kgexplain import explain as explain_module

    sizes = []

    class CountingTape(ad.Tape):
        __slots__ = ()

        def __exit__(self, *exc):
            sizes.append(len(self.nodes))
            return super().__exit__(*exc)

    monkeypatch.setattr(explain_module, "Tape", CountingTape)
    _, job = loss_case(TWO_WALKS, "distmult", "full", 3, layers=layers)
    configs = [_mode_config(replace(job.config, epochs=3), mode, 0) for mode in MODES]
    train_explainers(job.model, job.gc, job.target, configs)
    want = 15 + 2 * (3 + layers)
    assert sizes == [want] * 3
    if layers == 2:
        assert want == 25


def test_batched_mask_adjoints_keep_each_rows_signed_zeros():
    # With gamma = -0.0, which validate accepts, the L2 adjoint is -0.0 on every
    # pair, so a row's mask adjoint keeps -0.0 wherever its own terms add only
    # -0.0; a +0.0 pad from another row's term would turn it into +0.0.
    from kgexplain.explain import prepare_computation_graph
    from kgexplain.harness import reliant_model

    inst = make_planted(seed=0)
    model = reliant_model(inst.graph, inst.target, seed=0)
    gc = prepare_computation_graph(inst.graph, inst.target, 2, 2)
    configs = [_mode_config(ExplainConfig(gamma=-0.0), mode, 0) for mode in MODES]

    def mask_adjoint(configs):
        job = ExplainJob(model, gc, inst.target, configs)
        tes = init_tes(job.config.combine_mode, model.dim, 0, len(configs))
        with ad.Tape() as tape:
            objective, _, pair_vals, _ = job.objective(tes, tape)
            ad.backward(tape, ad.sumall(objective))
            return pair_vals.grad.copy()

    batched = mask_adjoint(configs)
    for row, config in enumerate(configs):
        assert batched[row].tobytes() == mask_adjoint([config])[0].tobytes(), MODES[row]
    assert np.signbit(batched[batched == 0.0]).any()


def test_path_loss_op_non_finite_chain_names_the_op():
    gc, job = loss_case(TWO_WALKS, "distmult", "mi_off", 3)
    with pytest.raises(NumericError, match=r"op 'path_loss'$"):
        job.path(np.full((1, gc.num_pairs), 1e300))
    with ad.Tape() as tape:
        with pytest.raises(NumericError, match=r"op 'path_loss'$"):
            job.path(oracles.leaf(tape, np.full((1, gc.num_pairs), 1e300)))


def test_path_loss_op_adjoint_overflow_names_the_op():
    # P_on is tiny, so a huge objective weight divided by it overflows
    gc, job = loss_case(NO_TWO_WALK, "distmult", "mi_off", 2)
    with ad.Tape() as tape:
        leaf = oracles.leaf(tape, np.full((1, gc.num_pairs), 1e-20))
        loss = ad.mul(job.path(leaf), 1e300)
        with pytest.raises(NumericError, match=r"op 'path_loss adjoint'$"):
            ad.backward(tape, loss)


# -- train_explainer ---------------------------------------------------------------------


def make_planted(seed=0, **kw):
    from kgexplain.harness import PlantedConfig, generate_planted

    return generate_planted(PlantedConfig(seed=seed, **kw))


def test_train_explainer_prefers_planted_edges():
    from kgexplain.explain import prepare_computation_graph
    from kgexplain.harness import reliant_model

    inst = make_planted(seed=0)
    model = reliant_model(inst.graph, inst.target, seed=0)
    gc = prepare_computation_graph(inst.graph, inst.target, 2, 2)
    res = train_explainer(model, gc, inst.target, ExplainConfig(seed=0))
    planted_pairs = set()
    for path in inst.planted_paths:
        for h, _, t in path:
            planted_pairs.add(tuple(np.searchsorted(gc.nodes, (h, t))))
    on = [v for v, s, d in zip(res.mask.values, res.mask.pair_src, res.mask.pair_dst)
          if (s, d) in planted_pairs]
    off = [v for v, s, d in zip(res.mask.values, res.mask.pair_src, res.mask.pair_dst)
           if (s, d) not in planted_pairs]
    assert np.mean(on) > np.mean(off)


def test_train_explainer_epoch_contract():
    inst = make_planted(seed=1)
    model = KgcModel(inst.graph.num_entities, inst.graph.num_relations, dim=4, seed=1)
    from kgexplain.explain import prepare_computation_graph

    gc = prepare_computation_graph(inst.graph, inst.target, 1, 2)
    with pytest.raises(ContractError):
        ExplainConfig(epochs=0).validate()
    res = train_explainer(model, gc, inst.target, ExplainConfig(epochs=1, seed=0))
    assert len(res.loss_trace) == 1
    assert math.isfinite(res.loss_trace[0]["total"])


def test_default_hyperparameters():
    cfg = ExplainConfig()
    assert cfg.epochs == 50
    assert cfg.lr == 0.005
    assert cfg.gamma == 0.03
    assert cfg.power_order == 3
    assert cfg.combine_mode == "concatenation"


@pytest.mark.parametrize("field, value", [("lr", math.nan), ("lr", 0.0), ("gamma", math.nan),
                                          ("gamma", -0.1)])
def test_config_rejects_bad_rates(field, value):
    with pytest.raises(ContractError, match=field):
        ExplainConfig(**{field: value}).validate()


def test_both_losses_off_rejected():
    with pytest.raises(ContractError):
        ExplainConfig(enable_path_loss=False, enable_mi_loss=False).validate()


def test_train_explainer_deterministic_bitwise():
    inst = make_planted(seed=2)
    model = KgcModel(inst.graph.num_entities, inst.graph.num_relations, dim=4, seed=2)
    from kgexplain.explain import prepare_computation_graph

    gc = prepare_computation_graph(inst.graph, inst.target, 1, 2)
    cfg = ExplainConfig(epochs=5, seed=7)
    a = train_explainer(model, gc, inst.target, cfg)
    b = train_explainer(model, gc, inst.target, cfg)
    assert np.array_equal(a.mask.values, b.mask.values)
    assert a.loss_trace == b.loss_trace


def test_loss_trace_reports_enabled_terms():
    inst = make_planted(seed=3)
    model = KgcModel(inst.graph.num_entities, inst.graph.num_relations, dim=4, seed=3)
    from kgexplain.explain import prepare_computation_graph

    gc = prepare_computation_graph(inst.graph, inst.target, 1, 2)
    res = train_explainer(model, gc, inst.target,
                          ExplainConfig(epochs=1, enable_path_loss=False, seed=0))
    row = res.loss_trace[0]
    assert row["path"] is None and row["prediction"] is not None


# -- generate_paths -----------------------------------------------------------------------


def test_generate_paths_orders_by_score():
    triples = [(0, 0, 2), (2, 0, 1), (0, 0, 3), (3, 0, 1)]
    gc, _ = gc_with_mask(triples, [0.5] * 4)
    vals = []
    for s, d in zip(gc.pair_src, gc.pair_dst):
        vals.append(0.9 if 2 in (s, d) else 0.5)
    mask = EdgeScoreMatrix.from_values(gc, np.array(vals))
    ex = generate_paths(gc, mask, TargetTriple(0, 0, 1), num_paths=2, max_len=3)
    assert len(ex.paths) == 2
    assert [t[0:3] for t in ex.paths[0].triples] == [(0, 0, 2), (2, 0, 1)]
    assert [t[0:3] for t in ex.paths[1].triples] == [(0, 0, 3), (3, 0, 1)]
    assert ex.paths[0].mean_score == pytest.approx(0.9)


def test_generate_paths_direct_edge():
    gc, mask = gc_with_mask([(0, 0, 1)], [0.8])
    ex = generate_paths(gc, mask, TargetTriple(0, 0, 1), num_paths=3, max_len=3)
    assert len(ex.paths) == 1
    assert ex.paths[0].triples == [(0, 0, 1)]


def test_generate_paths_no_route_is_empty():
    gc, mask = gc_with_mask([(1, 0, 0)], [0.8])
    ex = generate_paths(gc, mask, TargetTriple(0, 0, 1), num_paths=2, max_len=3)
    assert ex.paths == []


def test_generate_paths_matches_exhaustive_min_cost_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = 8
        pairs = sorted({(int(rng.integers(n)), int(rng.integers(n))) for _ in range(18)}
                       - {(0, 0), (1, 1)})
        g = kg_from([(s, 0, d) for s, d in pairs], n_ent=n, n_rel=1)
        gc = full_graph(g, TargetTriple(0, 0, 1))
        vals = rng.uniform(0.1, 0.9, gc.num_pairs)
        mask = EdgeScoreMatrix.from_values(gc, vals)
        ex = generate_paths(gc, mask, TargetTriple(0, 0, 1), num_paths=1, max_len=None)

        # oracle: enumerate simple paths, minimize sum of inverse scores
        cost = {(int(s), int(d)): 1.0 / v
                for s, d, v in zip(gc.pair_src, gc.pair_dst, vals)}
        best, best_cost = None, float("inf")
        for r in range(1, n):
            for mids in itertools.permutations([x for x in range(n) if x not in (0, 1)],
                                               r - 1):
                route = (0, *mids, 1)
                c = 0.0
                ok = True
                for a, b in zip(route, route[1:]):
                    if (a, b) not in cost:
                        ok = False
                        break
                    c += cost[(a, b)]
                if ok and c < best_cost - 1e-12:
                    best, best_cost = route, c
        if best is None:
            assert ex.paths == []
        else:
            got = [ex.paths[0].triples[0][0]] + [t[2] for t in ex.paths[0].triples]
            assert got == list(best)


def test_generate_paths_discards_overlong_but_removes_edges():
    # only route is 3 hops; with max_len=2 it must be discarded and the
    # search must then terminate with no recorded paths
    triples = [(0, 0, 2), (2, 0, 3), (3, 0, 1)]
    gc, mask = gc_with_mask(triples, [0.9, 0.9, 0.9])
    ex = generate_paths(gc, mask, TargetTriple(0, 0, 1), num_paths=2, max_len=2)
    assert ex.paths == []


def test_generate_paths_edge_disjoint_iteration():
    # second-best path must not reuse the first path's edges
    triples = [(0, 0, 2), (2, 0, 1), (0, 0, 3), (3, 0, 2)]
    gc, _ = gc_with_mask(triples, [0.5] * 4)
    mask = EdgeScoreMatrix.from_values(gc, np.array([0.9, 0.9, 0.9, 0.9]))
    ex = generate_paths(gc, mask, TargetTriple(0, 0, 1), num_paths=3, max_len=4)
    assert len(ex.paths) == 1  # the 3-hop alternative reuses pair (2, 1)


def test_generate_paths_validates():
    gc, mask = gc_with_mask([(0, 0, 1)], [0.5])
    with pytest.raises(ContractError):
        generate_paths(gc, mask, TargetTriple(0, 0, 1), num_paths=0)


def test_target_must_be_the_graphs_head_and_tail():
    # full_graph(g) reads (0, 1) as head and tail; (2, 1, 3) is a pair inside it
    g = kg_from([(0, 0, 1), (1, 1, 2), (2, 1, 3), (3, 0, 1)])
    gc = full_graph(g)
    target = TargetTriple(2, 1, 3)
    model = KgcModel(g.num_entities, g.num_relations, dim=4, seed=0)
    with pytest.raises(ContractError, match="head and tail"):
        train_explainer(model, gc, target, ExplainConfig(epochs=1))
    with pytest.raises(ContractError, match="head and tail"):
        generate_paths(gc, EdgeScoreMatrix.constant(gc, 0.5), target)
    swapped = TargetTriple(1, 0, 0)
    with pytest.raises(ContractError, match="head and tail"):
        ExplainJob(model, gc, swapped, [ExplainConfig()])
    with pytest.raises(ContractError, match="head and tail"):
        TargetScorer(model, gc, target)
    with pytest.raises(ContractError, match="head and tail"):
        score_target_masked(model, gc, None, target)
    with pytest.raises(ContractError, match="head and tail"):
        rank_target(model, gc, target)
    gc = full_graph(g, target)
    explanation = generate_paths(gc, EdgeScoreMatrix.constant(gc, 0.5), target)
    assert explanation.paths[0].triples == [(2, 1, 3)]


# -- memory scaling (module-level quick check; full sizes in acceptance) -------------


def test_explain_job_loss_value_and_tape_agree():
    inst = make_planted(seed=4)
    model = KgcModel(inst.graph.num_entities, inst.graph.num_relations, dim=4, seed=4)
    from kgexplain.explain import prepare_computation_graph

    gc = prepare_computation_graph(inst.graph, inst.target, 1, 2)
    job = ExplainJob(model, gc, inst.target, [ExplainConfig(seed=0)])
    tes = init_tes("concatenation", 4, seed=0)
    terms_v = job.objective(tes, None)[1]
    tape = ad.Tape()
    terms_n = job.objective(tes, tape)[1]
    for name in terms_v:
        assert float(np.asarray(terms_v[name]).reshape(())) == pytest.approx(
            float(np.asarray(ad._val(terms_n[name])).reshape(())), abs=0
        )


def _random_instance_for_memory(n_edges, seed=0, dim=8):
    rng = np.random.default_rng(seed)
    n = max(n_edges // 10, 16)
    key_bound = n * n * 4
    keys = np.unique(rng.integers(0, key_bound, size=int(n_edges * 1.6)))
    h = keys // (n * 4)
    rest = keys % (n * 4)
    t = rest // 4
    r = rest % 4
    keep = h != t
    h, r, t = h[keep], r[keep], t[keep]
    if h.size < n_edges:
        raise DataError("could not build the requested edge count")
    h, r, t = h[:n_edges], r[:n_edges], t[:n_edges]
    g = KnowledgeGraph(n, 4, h, r, t)
    model = KgcModel(n, 4, dim=dim, layers=1, bases=2, decoder="distmult", seed=seed)
    target = TargetTriple(0, 0, 1)
    gc = full_graph(g, target)
    return model, gc, target


def measure_explain_memory(edge_counts=(1000, 10000, 100000), seed=0, epochs=2, dim=8):
    """Peak auxiliary allocation of one explanation per edge count.

    Each epoch's tape is freed when the epoch ends, so the peak does not
    depend on `epochs`."""
    results = []
    cfg = ExplainConfig(epochs=epochs, power_order=3)
    for n_edges in edge_counts:
        model, gc, target = _random_instance_for_memory(n_edges, seed=seed, dim=dim)
        tracemalloc.start()
        train_explainer(model, gc, target, cfg)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        results.append((int(gc.num_edges), int(peak)))
    return results


def linear_fit_r2(points) -> float:
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = ((y - pred) ** 2).sum()
    ss_tot = ((y - y.mean()) ** 2).sum()
    return float(1.0 - ss_res / ss_tot)


def test_explainer_peak_memory_does_not_grow_with_epochs():
    """Each epoch's tape is freed when the epoch ends, so a longer run peaks
    no higher than a 2-epoch one."""
    (_, short_peak), = measure_explain_memory(edge_counts=(10000,), epochs=2)
    (_, long_peak), = measure_explain_memory(edge_counts=(10000,), epochs=12)
    assert long_peak <= 1.05 * short_peak, (short_peak, long_peak)


def test_training_loops_leave_no_tape_nodes_for_the_cyclic_collector():
    import gc as cyclic_gc

    from kgexplain.explain import prepare_computation_graph
    from kgexplain.model import ModelConfig, train_kgc

    inst = make_planted(seed=4)
    model = KgcModel(inst.graph.num_entities, inst.graph.num_relations, dim=4, seed=4)
    graph = prepare_computation_graph(inst.graph, inst.target, 2, 2)
    was_enabled = cyclic_gc.isenabled()
    cyclic_gc.collect()
    cyclic_gc.disable()
    try:
        train_explainer(model, graph, inst.target, ExplainConfig(epochs=3, seed=0))
        train_kgc(inst.graph, ModelConfig(dim=4, epochs=3, seed=0))
        left = sum(isinstance(o, ad.Node) for o in cyclic_gc.get_objects())
    finally:
        if was_enabled:
            cyclic_gc.enable()
    assert left == 0


def _injection_instance():
    from kgexplain.explain import prepare_computation_graph

    inst = make_planted(seed=4)
    model = KgcModel(inst.graph.num_entities, inst.graph.num_relations, dim=4, seed=4)
    return inst, model, prepare_computation_graph(inst.graph, inst.target, 2, 2)


def _explainer_epoch(edit):
    """One objective and backward after `edit(job, tes params)`."""
    def run(monkeypatch):
        inst, model, gc = _injection_instance()
        cfg = ExplainConfig(seed=0)
        job = ExplainJob(model, gc, inst.target, [cfg])
        tes = init_tes(cfg.combine_mode, model.dim, cfg.seed)
        edit(job, tes.params)
        with ad.Tape() as tape:
            ad.backward(tape, job.objective(tes, tape)[0])
    return run


def _training(lr=0.5, fill=None):
    """`train_kgc`; with `fill=(name, value)` every SGD step ends by filling
    parameter `name` with `value`."""
    def run(monkeypatch):
        from kgexplain import model as model_module
        from kgexplain.model import ModelConfig, train_kgc

        if fill is not None:
            def step(store, step_lr):
                ad.sgd_step(store, step_lr)
                store.params[fill[0]].fill(fill[1])

            monkeypatch.setattr(model_module, "sgd_step", step)
        inst, _, _ = _injection_instance()
        train_kgc(inst.graph, ModelConfig(dim=4, epochs=3, lr=lr, seed=0))
    return run


def _through(build, values, per_edge=False):
    """A leaf of mask values, `values(size)`, fed to `build(job, leaf)`, then
    backward: one value per pair, or per edge for a build that starts with
    segment_max."""
    def run(monkeypatch):
        inst, model, gc = _injection_instance()
        job = ExplainJob(model, gc, inst.target, [ExplainConfig(seed=0)])
        size = gc.num_edges if per_edge else gc.num_pairs
        with ad.Tape() as tape:
            ad.backward(tape, build(job, oracles.leaf(tape, values(size))))
    return run


def _pair_max(job, leaf):
    indptr = job.gc.pair_indptr
    seg_of = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return ad.segment_max(leaf, indptr, seg_of)[0]


def _first_negative(size):
    values = np.full(size, 0.5)
    values[0] = -1.0
    return values


# Each value is finite-checked once, where it is produced; these op names were
# read off the code before the ops whose checks imply it stopped checking their
# outputs again, and must not move.
INJECTIONS = {
    "tes parameter nan": (_explainer_epoch(lambda job, p: p["w2"].__setitem__((0, 0, 0), np.nan)),
                          "non-finite value produced by op 'param:w2'"),
    "tes layer-1 overflow": (_explainer_epoch(lambda job, p: p["w1"].__imul__(1e308)),
                             "non-finite value produced by op 'tes_mlp:layer1'"),
    "tes layer-2 overflow": (_explainer_epoch(lambda job, p: p["w2"].__imul__(1e308)),
                             "non-finite value produced by op 'tes_mlp:layer2'"),
    "tes input inf": (_explainer_epoch(lambda job, p: job.tes.xe.__setitem__((0, 0), np.inf)),
                      "non-finite value produced by op 'tes_mlp:layer1'"),
    "encoder parameter nan after a step": (_training(fill=("basis_1_0", np.nan)),
                                           "non-finite value produced by op 'param:basis_1_0'"),
    "entity table 1e200 after a step": (_training(fill=("ent", 1e200)),
                                        "non-finite value produced by op 'kgc_loss'"),
    "training step lr 1e308": (_training(lr=1e308),
                               "non-finite value produced by op 'rgcn:layer0'"),
    "mask 1e308 through the layers": (_through(lambda job, m: job.prediction(m)[2],
                                               lambda n: np.full(n, 1e308)),
                                      "non-finite value produced by op 'rgcn:layer0'"),
    "mask 1e200 through the layers": (_through(lambda job, m: job.prediction(m)[2],
                                               lambda n: np.full(n, 1e200)),
                                      "non-finite value produced by op 'rgcn:layer1'"),
    "edge mask 1e200 through segment_max and the path loss": (
        _through(lambda job, m: job.path(_pair_max(job, m)), lambda n: np.full((1, n), 1e200),
                 per_edge=True),
        "non-finite value produced by op 'path_loss'"),
    "negative mask through the path loss": (
        _through(lambda job, m: job.path(m), lambda n: _first_negative(n)[None]),
        "non-finite value produced by op 'path_loss'"),
    "edge mask 1e-320 under a steep power": (
        _through(lambda job, m: ad.sumall(oracles.powc(_pair_max(job, m), 0.01)),
                 lambda n: np.full(n, 1e-320), per_edge=True),
        "NaN/Inf adjoint flowing into op 'segment_max'"),
}


@pytest.mark.parametrize("case", list(INJECTIONS))
def test_numeric_error_names_the_op_that_produced_the_value(case, monkeypatch):
    run, message = INJECTIONS[case]
    with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
        run(monkeypatch)
    assert str(err.value) == message


# Finite checks per epoch at the default settings (2 layers, 2 bases). A
# training epoch checks the parameter buffer once (1), each layer's
# pre-activation (2), the raw scores and the loss (2), inside the ops the
# entity adjoint and each layer's input adjoint (3), and in `backward` the
# adjoints of the relation table and of each layer's 4 weights (9): 17. An
# adjoint its op has checked is not checked again.
# A lone explainer config trains as a batch of one, so full and path_off
# check the adjoints that `put_rows` and `take_row` pass on and the `sum` of
# the rows' totals with its adjoint, and mi_off, which has no prediction term,
# the `sum`'s two.
CHECKS_PER_EPOCH = {"train": 17, "full": 45, "path_off": 34, "mi_off": 31}
# The three ablation modes as one batch (`train_explainers`) check what they
# share once: the parameter buffer, the TES, its and segment_max's adjoints and
# the six parameters' (14). Each prediction row checks what path_off checks,
# plus its row's adjoint and its place in the term vector (2 x 11); the path
# term what mi_off checks, once (9); the L2 term, the two adds and the sum of
# the rows' totals with their adjoints 11. That is 56, against 100 in the three
# modes' serial epochs.
CHECKS_PER_EPOCH["ablations"] = 56


@pytest.mark.parametrize("run", list(CHECKS_PER_EPOCH))
def test_finite_checks_per_epoch_are_pinned(run, monkeypatch):
    from kgexplain.explain import prepare_computation_graph
    from kgexplain.model import ModelConfig, train_kgc

    inst = make_planted(seed=0)
    calls = [0]
    check = ad._all_finite

    def counted(value):
        calls[0] += 1
        return check(value)

    if run == "train":
        def checks(epochs):
            train_kgc(inst.graph, ModelConfig(epochs=epochs))
    else:
        model = KgcModel(inst.graph.num_entities, inst.graph.num_relations, seed=0)
        gc = prepare_computation_graph(inst.graph, inst.target, 2, 2)

        def checks(epochs):
            if run == "ablations":
                train_explainers(model, gc, inst.target,
                                 [_mode_config(ExplainConfig(epochs=epochs), mode, 0)
                                  for mode in MODES])
                return
            cfg = _mode_config(ExplainConfig(epochs=epochs), run, 0)
            train_explainer(model, gc, inst.target, cfg)

    monkeypatch.setattr(ad, "_all_finite", counted)
    counts = []
    for epochs in (1, 3):
        calls[0] = 0
        checks(epochs)
        counts.append(calls[0])
    assert (counts[1] - counts[0]) / 2 == CHECKS_PER_EPOCH[run]
