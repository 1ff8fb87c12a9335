"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here exactly as stated.
"""

import itertools
import json
import time

import numpy as np
import pytest
from tape_oracles import normalized_walk_mass, on_path_probability, power_chain
from test_explainer import linear_fit_r2, measure_explain_memory

from kgexplain import autodiff as ad
from kgexplain.cli import main as cli_main
from kgexplain.explain import (
    EdgeScoreMatrix,
    ExplainConfig,
    ExplainJob,
    Explanation,
    ExplanationPath,
    generate_paths,
    init_tes,
    prepare_computation_graph,
)
from kgexplain.harness import (
    PlantedConfig,
    SuiteConfig,
    ablation_suite_config,
    generate_planted,
    power_order_suite_config,
    reliant_model,
    run_suite,
)
from kgexplain.kgraph import (
    KnowledgeGraph,
    TargetTriple,
    adjacency_power_row,
    full_graph,
    k_core_prune,
)
from kgexplain.metrics import measure_explanation
from kgexplain.model import KgcModel


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def kg_from(triples, n_ent, n_rel=1):
    arr = np.array(triples, dtype=np.int64).reshape(-1, 3)
    return KnowledgeGraph(n_ent, n_rel, arr[:, 0], arr[:, 1], arr[:, 2])


def walk_products(pairs, values, start, end, length):
    table = {(s, d): v for (s, d), v in zip(pairs, values)}
    succ = {}
    for s, d in pairs:
        succ.setdefault(s, []).append(d)
    total, count = 0.0, 0

    def rec(node, remaining, product):
        nonlocal total, count
        if remaining == 0:
            if node == end:
                total += product
                count += 1
            return
        for nxt in succ.get(node, ()):
            rec(nxt, remaining - 1, product * table[(node, nxt)])

    rec(start, length, 1.0)
    return total, count


def test_criterion_1_powering_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_u, worst_norm = 0.0, 0.0
    for case in range(200):
        n = int(rng.integers(2, 9))
        pairs = sorted({(int(rng.integers(n)), int(rng.integers(n)))
                        for _ in range(int(rng.integers(1, 3 * n)))})
        g = kg_from([(s, 0, d) for s, d in pairs], n_ent=n)
        start = int(rng.integers(n))
        gc = full_graph(g, TargetTriple(start, 0, int(rng.integers(n))))
        vals = rng.uniform(0.05, 0.95, gc.num_pairs)
        gc_pairs = list(zip(gc.pair_src.tolist(), gc.pair_dst.tolist()))
        walks = adjacency_power_row(gc, start, 4)
        chain = power_chain(gc, vals, start, 4)
        for length in range(2, 5):
            u = chain[length - 1]
            for k in range(n):
                total, cnt = walk_products(gc_pairs, vals, start, k, length)
                worst_u = max(worst_u, abs(u[k] - total))
                assert walks[length - 1][k] == cnt
                if cnt:
                    normed = normalized_walk_mass(u, k, cnt, length)[0]
                    worst_norm = max(worst_norm, abs(normed - (total / cnt) ** (1.0 / length)))
        # lengths without a walk to the tail add 0 to the on-path mean
        expect = 0.0
        for length in range(1, 5):
            total, cnt = walk_products(gc_pairs, vals, start, gc.tail_local, length)
            expect += (total / cnt) ** (1.0 / length) if cnt else 0.0
        on_path = on_path_probability(gc, vals, 4, walks)[0]
        worst_norm = max(worst_norm, abs(on_path - expect / 4))
    elapsed = time.perf_counter() - t0
    ok = worst_u <= 1e-9 and worst_norm <= 1e-9 and elapsed < 10.0
    report(1, ok, f"200 random graphs, walk-sum err {worst_u:.2e}, "
                  f"normalized err {worst_norm:.2e}, {elapsed:.1f}s (<10s)")


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    step, tol = 1e-5, 1e-4
    worst = {"path": 0.0, "prediction": 0.0, "total": 0.0}
    for seed in range(20):
        inst = generate_planted(PlantedConfig(
            n_entities=12, n_relations=4, n_planted_paths=2, path_len=2,
            n_distractors=5, n_context_groups=0, seed=seed,
        ))
        gc = prepare_computation_graph(inst.graph, inst.target, 1, 2)
        model = KgcModel(inst.graph.num_entities, inst.graph.num_relations,
                         dim=4, layers=1, seed=seed)
        job = ExplainJob(model, gc, inst.target, [ExplainConfig(seed=seed)])
        store = init_tes("concatenation", 4, seed=seed + 100)

        def term_values():
            terms = job.objective(store, None)[1]
            out = {k: float(np.asarray(ad._val(v)).reshape(())) for k, v in terms.items()}
            out["total"] = out["prediction"] + out["path"] + out["regularization"]
            return out

        analytic = {}
        for which in ("path", "prediction", "total"):
            store.zero_grads()
            tape = ad.Tape()
            terms = job.objective(store, tape)[1]
            node = terms[which] if which != "total" else ad.add(
                ad.add(terms["prediction"], terms["path"]), terms["regularization"]
            )
            ad.backward(tape, node)
            analytic[which] = {k: v.copy() for k, v in store.grads.items()}

        for name, p in store.params.items():
            flat = p.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                hi = term_values()
                flat[i] = keep - step
                lo = term_values()
                flat[i] = keep
                for which in worst:
                    fd = (hi[which] - lo[which]) / (2 * step)
                    a = analytic[which][name].ravel()[i]
                    worst[which] = max(worst[which], ad.relative_error(a, fd))
    elapsed = time.perf_counter() - t0
    ok = all(v <= tol for v in worst.values()) and elapsed < 60.0
    report(2, ok, "20 planted instances, all TES params; worst rel err "
                  f"path {worst['path']:.2e}, prediction {worst['prediction']:.2e}, "
                  f"total {worst['total']:.2e} (tol 1e-4); {elapsed:.1f}s (<60s)")


def test_criterion_3_planted_path_recovery():
    t0 = time.perf_counter()
    suite = SuiteConfig(n_instances=20)
    cfg = suite.explain
    assert (cfg.epochs, cfg.lr, cfg.gamma, cfg.power_order) == (50, 0.005, 0.03, 3)
    rep = run_suite(suite)
    rate = rep["aggregate"]["modes"]["full"]["recovery_rate"]
    elapsed = time.perf_counter() - t0
    ok = rate >= 0.9 and elapsed < 300.0
    report(3, ok, f"default 20-instance suite, top-1 recovery {rate:.2f} (>=0.9), "
                  f"{elapsed:.1f}s (<5min)")


def test_criterion_4_ablation_trends():
    rep = run_suite(ablation_suite_config(n_instances=32, base_seed=0))
    agg = rep["aggregate"]
    full = agg["modes"]["full"]["hdr1"]
    po = agg["modes"]["path_off"]["hdr1"]
    mi = agg["modes"]["mi_off"]["hdr1"]
    p_po = agg["sign_test_full_vs_path_off"]
    p_mi = agg["sign_test_full_vs_mi_off"]
    ok = full > po and full > mi and p_po < 0.05 and p_mi < 0.05
    report(4, ok, f"32 paired seeds, HdR:1 full {full:.2f} > path-off {po:.2f} "
                  f"(p={p_po:.4f}) and > MI-off {mi:.2f} (p={p_mi:.4f})")


def test_criterion_5_metric_identities():
    g = kg_from([(0, 0, 2), (2, 0, 1), (0, 0, 3), (3, 0, 1), (2, 0, 3)], n_ent=4)
    target = TargetTriple(0, 0, 1)
    gc = full_graph(g, target)
    model = KgcModel(4, 1, dim=4, seed=0)
    no_paths = Explanation(target, [])
    ones = measure_explanation(model, gc, target, EdgeScoreMatrix.constant(gc, 1.0), no_paths)
    zeros = measure_explanation(model, gc, target, EdgeScoreMatrix.constant(gc, 0.0), no_paths)
    checks = [
        ones["f_minus"] == 0.0,
        zeros["f_plus"] == 0.0,
        ones["sparsity"] == 0.0,
        zeros["sparsity"] == 1.0,
        ones["hit1"] is True,
    ]
    # tie case with a real path whose removal leaves the raw score unchanged:
    # removing an isolated spectator edge not reaching the target
    g2 = kg_from([(0, 0, 1), (2, 0, 3)], n_ent=4)
    gc2 = full_graph(g2, TargetTriple(0, 0, 1))
    model2 = KgcModel(4, 1, dim=4, layers=1, seed=1)
    model2.store.params["basis_0_0"][...] = 0.0
    model2.store.params["basis_0_1"][...] = 0.0
    row = gc2.triple_index_of(2, 0, 3)
    spectator = Explanation(
        TargetTriple(0, 0, 1),
        [ExplanationPath([(2, 0, 3)], [row], [0.5], 0.5)],
    )
    half = EdgeScoreMatrix.constant(gc2, 0.5)
    checks.append(measure_explanation(model2, gc2, TargetTriple(0, 0, 1), half,
                                      spectator)["hit1"] is True)
    ok = all(checks)
    report(5, ok, "F-=0 (all-ones), F+=0 (all-zeros), sparsity anchors 0/1, "
                  "HdR tie counts as hit - all exact")


def oracle_k_core_local(gc, k):
    pairs = {(int(s), int(d)) for s, d in zip(gc.pair_src, gc.pair_dst) if s != d}
    alive = set(range(gc.num_nodes))
    while True:
        deg = {u: 0 for u in alive}
        seen = set()
        for s, d in pairs:
            if s in alive and d in alive:
                key = (min(s, d), max(s, d))
                if key not in seen:
                    seen.add(key)
                    deg[s] += 1
                    deg[d] += 1
        drop = {u for u in alive if deg[u] < k}
        if not drop:
            break
        alive -= drop
    return alive | {gc.head_local, gc.tail_local}


def test_criterion_6_dijkstra_and_kcore_oracles():
    rng = np.random.default_rng(66)
    dijkstra_cases = kcore_cases = 0
    for _ in range(500):
        n = 8
        pairs = sorted({(int(rng.integers(n)), int(rng.integers(n)))
                        for _ in range(18)} - {(0, 0), (1, 1)})
        g = kg_from([(s, 0, d) for s, d in pairs], n_ent=n)
        gc = full_graph(g, TargetTriple(0, 0, 1))
        vals = rng.uniform(0.1, 0.9, gc.num_pairs)
        mask = EdgeScoreMatrix.from_values(gc, vals)
        ex = generate_paths(gc, mask, TargetTriple(0, 0, 1), num_paths=1, max_len=None)
        cost = {(int(s), int(d)): 1.0 / v
                for s, d, v in zip(gc.pair_src, gc.pair_dst, vals)}
        best, best_cost = None, float("inf")
        for r in range(1, n):
            for mids in itertools.permutations(
                    [x for x in range(n) if x not in (0, 1)], r - 1):
                route = (0, *mids, 1)
                c = 0.0
                ok_route = True
                for a, b in zip(route, route[1:]):
                    if (a, b) not in cost:
                        ok_route = False
                        break
                    c += cost[(a, b)]
                if ok_route and c < best_cost - 1e-12:
                    best, best_cost = route, c
        if best is None:
            assert ex.paths == []
        else:
            got = [ex.paths[0].triples[0][0]] + [t[2] for t in ex.paths[0].triples]
            assert got == list(best)
        dijkstra_cases += 1

    for _ in range(500):
        n = 40
        pairs = sorted({(int(rng.integers(n)), int(rng.integers(n)))
                        for _ in range(90)})
        g = kg_from([(s, 0, d) for s, d in pairs], n_ent=n)
        gc = full_graph(g, TargetTriple(0, 0, 1))
        pruned = k_core_prune(gc, 2)
        expected = oracle_k_core_local(gc, 2)
        assert set(pruned.nodes.tolist()) == {int(gc.nodes[i]) for i in expected}
        kcore_cases += 1
    report(6, True, f"exact oracle match: Dijkstra {dijkstra_cases}/500, "
                    f"k-core {kcore_cases}/500")


def test_criterion_7_memory_linearity():
    points = measure_explain_memory(edge_counts=(1000, 10000, 100000), epochs=2)
    r2 = linear_fit_r2(points)
    ok = r2 >= 0.99
    mb = [round(p[1] / 1e6, 1) for p in points]
    report(7, ok, f"peak alloc at 1k/10k/100k edges = {mb} MB, linear fit R^2={r2:.5f}")


def test_criterion_8_power_order_trend():
    rates = {}
    for L in (2, 3, 4):
        rep = run_suite(power_order_suite_config(L, n_instances=20))
        rates[L] = rep["aggregate"]["modes"]["full"]["recovery_rate"]
    ok = rates[4] >= rates[3] >= rates[2]
    report(8, ok, f"length-4 planted suite recovery by power order: "
                  f"L=2 {rates[2]:.2f} <= L=3 {rates[3]:.2f} <= L=4 {rates[4]:.2f}")


def test_criterion_9_determinism(tmp_path):
    inst = generate_planted(PlantedConfig(n_entities=30, n_distractors=10,
                                          n_context_groups=2, seed=0))
    g = inst.graph
    train = tmp_path / "train.tsv"
    train.write_text("\n".join(
        f"{g.entity_names[h]}\t{g.relation_names[r]}\t{g.entity_names[t]}"
        for h, r, t in g.triples) + "\n")

    from kgexplain.kgraph import load_triples
    from kgexplain.model import save_checkpoint

    loaded = load_triples(train)
    target = TargetTriple(loaded.entity_id("head"), loaded.relation_id("target"),
                          loaded.entity_id("tail"))
    ckpt = tmp_path / "model.plnk"
    save_checkpoint(reliant_model(loaded, target, seed=0), loaded, ckpt)

    def snapshot(out_dir, args):
        assert cli_main(args) == 0
        outs = {}
        for p in sorted(out_dir.rglob("*")):
            if p.suffix in (".json", ".csv", ".dot", ".plnk"):
                outs[str(p.relative_to(out_dir))] = p.read_bytes()
        return outs

    def strip_wall_time(data):
        lines = data.decode().splitlines()
        cols = lines[0].split(",")
        drop = cols.index("wall_time_s")
        return "\n".join(
            ",".join(c for i, c in enumerate(line.split(",")) if i != drop)
            for line in lines
        ).encode()

    cases = {
        "train": ["train", "--train", str(train), "--out_dir", str(tmp_path / "t"),
                  "--dim", "6", "--epochs", "10", "--seed", "4"],
        "explain": ["explain", "--train", str(train), "--checkpoint", str(ckpt),
                    "--out_dir", str(tmp_path / "e"), "--head", "head",
                    "--relation", "target", "--tail", "tail", "--k_hop", "2",
                    "--epochs", "5", "--seed", "4", "--dot"],
        "evaluate": ["evaluate", "--train", str(train), "--checkpoint", str(ckpt),
                     "--out_dir", str(tmp_path / "v"), "--k_hop", "2",
                     "--epochs", "5", "--sample_num", "1", "--threshold", "prob",
                     "--seed", "4"],
    }
    suite_cfg = tmp_path / "suite.json"
    suite_cfg.write_text(json.dumps({
        "n_instances": 1, "model_source": "reliant", "hops": 2,
        "instance.n_entities": 30, "instance.n_distractors": 10,
        "instance.n_context_groups": 2, "explain.epochs": 5,
    }))
    cases["suite"] = ["suite", "--config", str(suite_cfg),
                      "--out_dir", str(tmp_path / "s")]

    mismatches = []
    for name, args in cases.items():
        out_dir = tmp_path / {"train": "t", "explain": "e", "evaluate": "v",
                              "suite": "s"}[name]
        first = snapshot(out_dir, args)
        second = snapshot(out_dir, args)
        assert first.keys() == second.keys()
        for fname in first:
            a, b = first[fname], second[fname]
            if fname.endswith("per_target.csv"):
                a, b = strip_wall_time(a), strip_wall_time(b)
            if a != b:
                mismatches.append(f"{name}/{fname}")
    ok = not mismatches
    report(9, ok, "train/explain/evaluate/suite reruns byte-identical "
                  "(per-target CSV modulo the wall-time column)"
                  + ("" if ok else f"; mismatches: {mismatches}"))
