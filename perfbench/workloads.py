"""The three workloads, their jobs and their output checks.

A workload is set up, then runs in passes. Pass p is a fixed list of jobs
that depends only on the seed and p, so pass 0 is the same on every run of a
seed; the loop runs whole passes until the time is up. The planted suite
takes new instances in every pass; the FB-shaped workloads repeat the seed's
target set, so that a run's cost does not depend on how many passes fit in
it. A workload's `setup` is the loading a user waits for and is timed; its
`plan`, which picks the targets, is the benchmark's own work and is not.

A job is a pair (targets it should explain, callable); the callable returns
one output record per target it should explain:

    {"key": str, "explained": bool, "expected": bool,
     "paths": [[[h, r, t], ...], ...], "max_len": int, "mask_ok": bool, "row_ok": bool}
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np

import data

# planted-suite: instances per pass; instance seeds of workload seed s start at
# s * INSTANCE_STRIDE, so seed 0 begins with criterion 3's instances 0..19.
PASS_INSTANCES = {"full": 4, "smoke": 1}
INSTANCE_STRIDE = 1000
RECOVERY_FLOOR = 0.9
RECOVERY_MIN_INSTANCES = 10

# Ego-graph sizes (triples) of the targets of one pass: the unused pool triple
# closest to each size. The sizes are the pool's quantiles p10, p30, p50
# (three times, so that explain_s_p50 does not rest on the shape of one
# ego-graph), p70 and p90, so a pass follows the traffic of explaining
# sampled triples. They are the medians over seeds 0 and 21-25 rather than
# each seed's own quantiles (the `data` line prints those): one pool's p90
# ranges over 6.8k-8.9k triples between seeds, which alone moved
# targets_per_s by 15%. The p90 rung (7.5k) is near the 7k triples ROADMAP's
# explainer baseline is stated at; the tail above it is left out, as one such
# target (up to 18k triples, 7-8 s) would be a large, seed-dependent share of
# a run.
EXPLAIN_RUNGS = {"full": (65, 180, 440, 440, 440, 1300, 7500),
                 "smoke": (55, 120, 225, 225, 225, 500, 1300)}
EVALUATE_RUNGS = {"full": (440, 1300, 7500), "smoke": (225, 500, 1300)}

DENSE_SAMPLE_NUM = 500  # `kgexplain evaluate --preset dense`


def ensure_data(root, seed, size):
    """Cache directory for the seed, generating it in a child process.

    The child keeps generation out of this process's peak RSS.
    """
    out = data.cache_dir(root, size, seed)
    if not os.path.exists(os.path.join(out, "manifest.json")):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data.py")
        subprocess.run([sys.executable, script, "--seed", str(seed), "--size", size,
                        "--out", out], check=True, env=env, timeout=600)
    return out


def _key(t):
    return f"{t.head} {t.relation} {t.tail}"


def row_ok(row):
    return all(0.0 <= row[c] <= 1.0 for c in ("f_plus", "f_minus", "sparsity"))


def output_record(key, explanation, max_len):
    vals = explanation.mask.values
    return {
        "key": key,
        "explained": True,
        "expected": True,
        "paths": [[list(t) for t in p.triples] for p in explanation.paths],
        "max_len": max_len,
        "mask_ok": bool(np.isfinite(vals).all() and ((vals >= 0) & (vals <= 1)).all()),
        "row_ok": True,
    }


def check_record(rec, has_triple):
    """Names of the invariants the record breaks (empty when it is correct)."""
    bad = []
    if not rec["explained"]:
        bad.append("not explained: the filter rejected a target the model scores above 0.5")
    if not rec["expected"]:
        bad.append("explained: the filter admitted a target the model scores at most 0.5")
    if not rec["mask_ok"]:
        bad.append("mask outside [0, 1]")
    if not rec["row_ok"]:
        bad.append("F+/F-/sparsity outside [0, 1]")
    pairs = [(h, t) for p in rec["paths"] for h, _, t in p]
    if len(set(pairs)) != len(pairs):
        bad.append("paths share an edge")
    if any(not p or len(p) > rec["max_len"] for p in rec["paths"]):
        bad.append("path longer than power_order")
    if not all(has_triple(*tr) for p in rec["paths"] for tr in p):
        bad.append("path triple not in the KG")
    return bad


class Capture:
    """Keeps an output record for every `generate_paths` call a module makes."""

    def __init__(self, module):
        self.records = []
        orig = module.generate_paths

        def capture(*args, **kwargs):
            out = orig(*args, **kwargs)
            max_len = args[4] if len(args) > 4 else kwargs.get("max_len")
            self.records.append(output_record(_key(out.target), out, max_len))
            return out

        module.generate_paths = capture

    def take(self):
        out, self.records = self.records, []
        return out


class PlantedSuite:
    """`kgexplain suite --ablations`: criterion 3's default SuiteConfig, one
    instance per job, training included."""

    name = "planted-suite"
    calibration = "interpreter"  # ~10-triple graphs: tape and interpreter overhead

    def __init__(self, root, seed, size):
        import kgexplain.harness as hs

        self.seed, self.size, self.hs = seed, size, hs
        self.capture = Capture(hs)
        self.outcomes = {}  # instance seed -> (top1_match, hit1) in full mode

    def setup(self):
        self.suite = self.hs.SuiteConfig(ablations=True)

    def plan(self):
        pass

    def data_info(self):
        return {}

    def pass_jobs(self, p):
        k = PASS_INSTANCES[self.size]
        base = self.seed * INSTANCE_STRIDE + p * k
        return [(len(self.hs.MODES), lambda s=s: self._instance(s))
                for s in range(base, base + k)]

    def _instance(self, seed):
        self.capture.take()  # drop what a failed job left behind
        report = self.hs.run_suite(replace(self.suite, n_instances=1, base_seed=seed))
        inst = report["instances"][0]
        records = self.capture.take()
        if len(records) != len(self.hs.MODES):
            raise RuntimeError(f"{len(records)} explanations for {len(self.hs.MODES)} modes")
        for mode, rec in zip(self.hs.MODES, records):
            rec["key"] = f"{seed} {mode}"
            rec["row_ok"] = row_ok(inst[mode])
            rec["instance"] = seed
        self.outcomes[seed] = (inst["full"]["top1_match"], inst["full"]["hit1"])
        return records

    def checker(self):
        graphs = {}

        def has_triple_in(seed):
            if seed not in graphs:
                inst = self.hs.generate_planted(replace(self.suite.instance, seed=seed))
                graphs[seed] = set(inst.graph.triples)
            return lambda h, r, t: (h, r, t) in graphs[seed]

        return lambda rec: check_record(rec, has_triple_in(rec["instance"]))

    def quality(self):
        tops = [v[0] for v in self.outcomes.values()]
        hits = [v[1] for v in self.outcomes.values()]
        q = {"recovery_rate": float(np.mean(tops)) if tops else 0.0,
             "hdr1": float(np.mean(hits)) if hits else 0.0}
        problems = []
        if len(tops) >= RECOVERY_MIN_INSTANCES and q["recovery_rate"] < RECOVERY_FLOOR:
            problems.append(f"recovery_rate {q['recovery_rate']:.3f} < {RECOVERY_FLOOR}")
        return q, problems


class _FbBase:
    """Shared set-up of the FB15k-237-shaped workloads."""

    calibration = "arrays"  # thousands of triples: array work per epoch

    def __init__(self, root, seed, size):
        self.seed, self.size = seed, size
        self.dir = ensure_data(root, seed, size)

    def setup(self):
        import json

        import kgexplain.kgraph as kg
        import kgexplain.model as md

        self.kg = kg
        self.g = kg.load_triples(os.path.join(self.dir, "triples.tsv"))
        self.model = md.load_checkpoint(os.path.join(self.dir, "model.plnk"), self.g)
        with open(os.path.join(self.dir, "manifest.json"), encoding="utf-8") as fh:
            self.manifest = json.load(fh)

    def data_info(self):
        m = self.manifest
        info = {k: m[k] for k in ("num_entities", "num_relations", "num_triples",
                                  "degree_max", "degree_median", "pool_ego_triples_quantiles")}
        info["target_ego_triples"] = sorted(t["ego_triples"] for t in self.targets())
        return info

    def _nearest(self, size, chosen, accept=lambda t: True):
        """The unused pool entry closest to `size` ego triples that `accept`s."""
        pool = sorted(self.manifest["pool"],
                      key=lambda t: (abs(t["ego_triples"] - size), t["triple"]))
        return next(t for t in pool if t not in chosen and accept(t))

    def _target(self, entry):
        return self.kg.TargetTriple(*entry["triple"])

    def checker(self):
        g = self.g
        n_rel, n_ent = g.num_relations, g.num_entities
        keys = np.sort((g.heads * n_rel + g.rels) * n_ent + g.tails)

        def has_triple(h, r, t):
            k = (h * n_rel + r) * n_ent + t
            i = np.searchsorted(keys, k)
            return bool(i < keys.size and keys[i] == k)

        return lambda rec: check_record(rec, has_triple)

    def quality(self):
        return {}, []


class FbExplain(_FbBase):
    """`kgexplain explain --preset dense` on sampled targets of the KG."""

    name = "fb-explain"

    def setup(self):
        super().setup()
        import kgexplain.explain as ex

        self.ex = ex
        self.cfg = ex.ExplainConfig()

    def plan(self):
        self.rungs = []
        for size in EXPLAIN_RUNGS[self.size]:
            self.rungs.append(self._nearest(size, self.rungs))

    def targets(self):
        return self.rungs

    def pass_jobs(self, p):
        return [(1, lambda e=e: self._explain(e)) for e in self.rungs]

    def _explain(self, entry):
        ex, cfg, t = self.ex, self.cfg, self._target(entry)
        gc = ex.prepare_computation_graph(self.g, t, data.DENSE["k_hop"], data.DENSE["k_core"],
                                          data.DENSE["max_nodes"])
        result = ex.train_explainer(self.model, gc, t, cfg)
        explanation = ex.generate_paths(gc, result.mask, t, cfg.num_paths, cfg.power_order)
        return [output_record(_key(t), explanation, cfg.power_order)]


class FbEvaluate(_FbBase):
    """`kgexplain evaluate --preset dense` (prob rule) on candidate chunks.

    Each chunk holds, per rung, the closest pool triple the model scores above
    0.5 and the closest it scores at most 0.5 (the `prob` rule, computed by
    `plan` with the public scoring call, so it never comes from a stale
    cache). The filter should admit exactly the ones scored above 0.5, so
    every chunk explains the same sizes.
    """

    name = "fb-evaluate"

    def __init__(self, root, seed, size):
        super().__init__(root, seed, size)
        import kgexplain.metrics as mt

        self.mt = mt
        self.capture = Capture(mt)

    def setup(self):
        super().setup()
        import kgexplain.explain as ex

        mt = self.mt
        self.ex = ex
        self.cfg = mt.EvalConfig(
            sample_num=DENSE_SAMPLE_NUM, threshold_rule="prob", k_hop=data.DENSE["k_hop"],
            k_core=data.DENSE["k_core"], max_nodes=data.DENSE["max_nodes"], seed=self.seed,
            explain=ex.ExplainConfig(seed=self.seed),
        )

    def plan(self):
        import kgexplain.model as md

        scored = {}

        def explainable(entry):
            t = self._target(entry)
            if t not in scored:
                gc = self.ex.prepare_computation_graph(self.g, t, data.DENSE["k_hop"],
                                                       data.DENSE["k_core"],
                                                       data.DENSE["max_nodes"])
                scored[t] = md.score_target_masked(self.model, gc, None, t).probability > 0.5
            return scored[t]

        self.yes, self.no = [], []
        for size in EVALUATE_RUNGS[self.size]:
            self.yes.append(self._nearest(size, self.yes, explainable))
            self.no.append(self._nearest(size, self.no, lambda e: not explainable(e)))

    def targets(self):
        return self.yes + self.no

    def pass_jobs(self, p):
        chunk = sorted(self.targets(), key=lambda t: t["triple"])
        return [(len(self.yes), lambda: self._evaluate([self._target(e) for e in chunk]))]

    def _evaluate(self, candidates):
        """One record per target the filter should admit or did admit."""
        self.capture.take()  # drop what a failed job left behind
        _, rows = self.mt.evaluate_batch(self.model, self.g, candidates, self.cfg)
        records = self.capture.take()
        want = {_key(self._target(e)) for e in self.yes}
        for rec, row in zip(records, rows):
            rec["row_ok"] = row_ok(row)
            rec["expected"] = rec["key"] in want
        missing = sorted(want - {rec["key"] for rec in records})
        return records + [{"key": k, "explained": False, "expected": True, "paths": [],
                           "max_len": 0, "mask_ok": True, "row_ok": True} for k in missing]


WORKLOADS = {w.name: w for w in (PlantedSuite, FbExplain, FbEvaluate)}
