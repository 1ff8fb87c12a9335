"""Deterministic benchmark inputs, generated from a seed and cached on disk.

The FB15k-237-shaped knowledge graph has the dataset's entity, relation and
triple counts, with Zipf-skewed entity popularity (exponent 0.6 puts the
highest degree near 4.5k and the median near 24, close to the real training
split). It is written as a TSV, and a random-init dim-16, 2-layer model as
a checkpoint. A manifest lists a pool of existing triples with the size of
their dense-preset ego-graph, which is what the workloads draw their targets
from.

Nothing here depends on how the package computes: the weights come from this
module's own random stream, and the ego-graph sizes from this module's own
extraction (`ego_size`, the documented dense-preset rule). The package is
used only to write the checkpoint in its file format, and its parser checks
that the entity ids below are the ones it assigns.

Run as a script, it builds one cache entry:

    python3 perfbench/data.py --seed 0 --size full --out .perfbench_cache/fb-full-s0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

# Bump when the generated bytes change, so stale cache entries are not reused.
GENERATOR_VERSION = 4
# The package files the generator calls (the TSV parser and the checkpoint
# writer); their hash is part of the cache key.
PACKAGE_FILES = ("kgraph.py", "model.py", "autodiff.py")

SIZES = {
    # entities, relations, triples, pool of candidate targets
    "full": (14541, 237, 272115, 1000),
    "smoke": (600, 24, 6000, 100),
}
ENTITY_ZIPF = 0.6
RELATION_ZIPF = 1.0
DENSE = {"k_hop": 1, "k_core": 2, "max_nodes": 1000}
MODEL = {"dim": 16, "layers": 2, "bases": 2, "decoder": "distmult"}
POOL_QUANTILES = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 1.0)


def cache_dir(root, size, seed):
    src = os.path.join(root, "src", "kgexplain")
    h = hashlib.sha256()
    for name in PACKAGE_FILES:
        with open(os.path.join(src, name), "rb") as fh:
            h.update(fh.read())
    return os.path.join(root, ".perfbench_cache",
                        f"fb-{size}-s{seed}-v{GENERATOR_VERSION}-{h.hexdigest()[:12]}")


def _zipf(n, s):
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return w / w.sum()


def _first_appearance(ids, n):
    """Relabelling of `ids` by order of first appearance, as a parser assigns them."""
    _, first = np.unique(ids, return_index=True)
    label = np.empty(n, dtype=np.int64)
    label[ids[np.sort(first)]] = np.arange(first.size)
    return label


def synthetic_triples(seed, n_ent, n_rel, n_triples):
    """(heads, rels, tails) int arrays; every entity appears at least once.

    Ids are numbered in order of first appearance in the file (heads before
    tails on a line), so they equal the ids a first-appearance parser gives.
    """
    rng = np.random.default_rng(seed)
    p_ent = _zipf(n_ent, ENTITY_ZIPF)
    p_rel = _zipf(n_rel, RELATION_ZIPF)
    # one triple per entity so the vocabulary is complete
    anchor = np.arange(n_ent)
    partner = rng.choice(n_ent, size=n_ent, p=p_ent)
    flip = rng.random(n_ent) < 0.5
    h = np.where(flip, partner, anchor)
    t = np.where(flip, anchor, partner)
    r = rng.choice(n_rel, size=n_ent, p=p_rel)
    parts = [(h, r, t)]
    while True:
        hh = np.concatenate([p[0] for p in parts])
        rr = np.concatenate([p[1] for p in parts])
        tt = np.concatenate([p[2] for p in parts])
        ok = hh != tt
        hh, rr, tt = hh[ok], rr[ok], tt[ok]
        keys = (hh * n_rel + rr) * n_ent + tt
        _, first = np.unique(keys, return_index=True)
        first.sort()
        if first.size >= n_triples:
            first = first[:n_triples]
            hh, rr, tt = hh[first], rr[first], tt[first]
            break
        need = n_triples - first.size
        parts = [(hh[first], rr[first], tt[first])]
        m = int(need * 1.3) + 64
        parts.append((rng.choice(n_ent, size=m, p=p_ent), rng.choice(n_rel, size=m, p=p_rel),
                      rng.choice(n_ent, size=m, p=p_ent)))
    order = rng.permutation(n_triples)
    hh, rr, tt = hh[order], rr[order], tt[order]
    ent = _first_appearance(np.stack([hh, tt], axis=1).ravel(), n_ent)
    rel = _first_appearance(rr, n_rel)
    return ent[hh], rel[rr], ent[tt]


def write_tsv(path, heads, rels, tails):
    lines = [f"/m/e{h:05d}\t/r/rel{r:03d}\t/m/e{t:05d}" for h, r, t in
             zip(heads.tolist(), rels.tolist(), tails.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def random_weights(seed, shapes):
    """name -> normal(0, 1/sqrt(fan)) tensor from this module's own stream;
    the basis coefficients use the number of bases as fan, the rest dim."""
    rng = np.random.default_rng([seed, 16])
    out = {}
    for name in sorted(shapes):
        fan = MODEL["bases"] if name.startswith("coef_") else MODEL["dim"]
        out[name] = rng.normal(0.0, 1.0 / np.sqrt(fan), size=shapes[name])
    return out


class EgoSizer:
    """Dense-preset ego-graph sizes, computed here rather than by the package.

    The rule (kgexplain's documented `prepare_computation_graph`): the union
    of the undirected 1-hop balls of head and tail, kept by ascending
    (distance, entity id) up to max_nodes; every triple between kept nodes
    except the target itself; nodes of fewer than 2 distinct undirected
    neighbours removed until none is left, head and tail kept.
    """

    def __init__(self, heads, rels, tails, n_ent):
        self.h, self.r, self.t, self.n = heads, rels, tails, n_ent
        both = np.unique(np.concatenate([heads * n_ent + tails, tails * n_ent + heads]))
        src, self.nbr = both // n_ent, both % n_ent
        self.indptr = np.searchsorted(src, np.arange(n_ent + 1))

    def __call__(self, head, rel, tail):
        near = np.union1d(self.nbr[self.indptr[head]:self.indptr[head + 1]],
                          self.nbr[self.indptr[tail]:self.indptr[tail + 1]])
        near = near[(near != head) & (near != tail)]
        nodes = np.concatenate([np.unique([head, tail]), near])[:DENSE["max_nodes"]]
        member = np.zeros(self.n, dtype=bool)
        member[nodes] = True
        keep = member[self.h] & member[self.t]
        keep &= ~((self.h == head) & (self.r == rel) & (self.t == tail))
        src, dst = self.h[keep], self.t[keep]
        alive = member.copy()
        pairs = np.unique(np.minimum(src, dst) * self.n + np.maximum(src, dst))
        a, b = pairs // self.n, pairs % self.n
        a, b = a[a != b], b[a != b]
        while True:
            live = alive[a] & alive[b]
            deg = np.bincount(a[live], minlength=self.n) + np.bincount(b[live], minlength=self.n)
            drop = alive & (deg < DENSE["k_core"])
            if not drop.any():
                break
            alive &= ~drop
        alive[[head, tail]] = True
        return int((alive[src] & alive[dst]).sum()), int(alive.sum())


def build(out, seed, size):
    """Write triples.tsv, model.plnk and manifest.json into `out`."""
    from kgexplain import kgraph, model as kmodel

    n_ent, n_rel, n_triples, pool = SIZES[size]
    os.makedirs(out, exist_ok=True)
    heads, rels, tails = synthetic_triples(seed, n_ent, n_rel, n_triples)
    tsv = os.path.join(out, "triples.tsv")
    write_tsv(tsv, heads, rels, tails)
    g = kgraph.load_triples(tsv)
    if not (np.array_equal(g.heads, heads) and np.array_equal(g.rels, rels)
            and np.array_equal(g.tails, tails)):
        raise RuntimeError("the parser numbers entities differently from data.py")
    model = kmodel.KgcModel(n_ent, n_rel, **MODEL)
    shapes = {k: v.shape for k, v in model.store.params.items()}
    model.store.params.update(random_weights(seed, shapes))
    kmodel.save_checkpoint(model, g, os.path.join(out, "model.plnk"))

    sizer = EgoSizer(heads, rels, tails, n_ent)
    rng = np.random.default_rng([seed, 1])
    targets = []
    for row in sorted(rng.choice(n_triples, size=pool, replace=False).tolist()):
        triple = [int(heads[row]), int(rels[row]), int(tails[row])]
        ego_triples, ego_nodes = sizer(*triple)
        targets.append({"triple": triple, "ego_triples": ego_triples, "ego_nodes": ego_nodes})
    degree = np.bincount(np.concatenate([heads, tails]), minlength=n_ent)
    ego = np.array([t["ego_triples"] for t in targets])
    manifest = {
        "generator_version": GENERATOR_VERSION,
        "seed": seed,
        "size": size,
        "num_entities": n_ent,
        "num_relations": n_rel,
        "num_triples": n_triples,
        "degree_max": int(degree.max()),
        "degree_median": float(np.median(degree)),
        "pool_ego_triples_quantiles": {f"p{round(q * 100)}": float(np.quantile(ego, q))
                                       for q in POOL_QUANTILES},
        "pool": targets,
    }
    tmp = os.path.join(out, "manifest.json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    os.replace(tmp, os.path.join(out, "manifest.json"))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    t0 = time.perf_counter()
    build(args.out, args.seed, args.size)
    print(f"generated {args.out} in {time.perf_counter() - t0:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
