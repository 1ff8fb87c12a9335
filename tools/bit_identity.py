"""Print sha256 digests of the package's deterministic outputs.

Run from anywhere: ``python3 tools/bit_identity.py``. The script imports the
package from the ``src/`` directory of its own checkout, so two checkouts
whose outputs agree bit for bit print the same lines; ``diff`` the output of
two runs to compare a change with its parent. Each line is
``<sha256>  <label>``; the last line digests all the others.

What is digested (float64 arrays by their raw bytes, floats by ``repr``):

- ``train_kgc`` for both decoders with ``layers`` and ``bases`` in {1, 2, 3}:
  every parameter, the final loss and the checkpoint file's bytes, on a
  planted instance and on three edge-case graphs (one triple; self-loops, an
  unused relation and isolated entities; the edgeless ego-graph's KG below),
  the latter with 1 and 4 negatives per positive, and once with a step
  large enough that the loss's log clamp is reached;
- the explainer on planted instances, in the ``full``, ``path_off`` and
  ``mi_off`` modes and both TES combine modes: the mask values, the
  provenance and the loss trace;
- metric rows, extracted paths and ``rank_target`` on those instances and on
  an edgeless ego-graph (the target is the only triple between its two
  endpoints and is excluded before explaining);
- the explainer at ``power_order`` 2 and 4, for a TransE model in every
  mode, and on a hand-built graph whose tail has no length-2 walk from the
  head, so the path loss takes its empty-length branch (both decoders);
- the same outputs on a seeded random ego-graph of a few hundred triples at
  ``layers`` 2 and 3, where the encoder's receptive field of the target's
  head and tail leaves out most edges of the last layer (the planted graphs
  are small enough for the field to hold every edge);
- the same outputs on a seeded random ego-graph of about 7,000 triples in
  both combine modes, for models of dim 8 and 16, which `TesOp` splits into
  row blocks and its weight gradients into pieces on two or more CPUs (its
  lines must not change under ``taskset -c 0``);
- ``generate_planted`` instances of the default, ablation and power-order
  suites at seeds 0-39: the triples, distractors, planted and decoy paths;
- ``prepare_computation_graph``'s ``nodes``, ``src``, ``rel`` and ``dst`` on a
  seeded random KG at ``k_hop`` 1, 2 and 3, uncut and with a ``max_nodes``
  cut that falls inside a run of nodes at equal distance;
- ``load_triples`` on a seeded file of 40,000 lines with a ``"::"``
  delimiter, repeated lines, blank and whitespace-only lines, ``\n``,
  ``\r\n`` and lone ``\r`` endings and no final line break: the columns,
  both vocabularies, the duplicate count, ``vocab_hashes`` and the warning,
  then the same for a second load of the file (read from its cache where
  the package caches) and for a load under a stale cache (a same-size copy
  of other bytes loaded first, its times restored after the file's bytes
  are), and the error messages of three broken copies of the file;
- the CLI's output files for the train/explain/evaluate/suite script of the
  determinism acceptance test, plus an ``evaluate --test`` run whose test
  split holds an unknown name and a ``suite --ablations`` run on the same
  suite config, whose three modes train as one batch, with the wall-time
  column of ``per_target.csv`` removed.

It takes about fifteen seconds on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import logging.handlers
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from kgexplain.cli import main as cli_main  # noqa: E402
from kgexplain.explain import (  # noqa: E402
    ExplainConfig,
    generate_paths,
    prepare_computation_graph,
    train_explainer,
)
from kgexplain.harness import (  # noqa: E402
    MODES,
    PlantedConfig,
    SuiteConfig,
    ablation_suite_config,
    generate_planted,
    power_order_suite_config,
    reliant_model,
)
from kgexplain.kgraph import (  # noqa: E402
    KnowledgeGraph,
    TargetTriple,
    adjacency_power_row,
    extract_computation_graph,
)
from kgexplain.metrics import measure_explanation  # noqa: E402
from kgexplain.model import (  # noqa: E402
    DECODERS,
    KgcModel,
    ModelConfig,
    rank_target,
    save_checkpoint,
    train_kgc,
)

PLANTED_SEEDS = (0, 1)
INSTANCE_SEEDS = range(40)
SIZES = (1, 2, 3)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True, default=repr).encode())
        h.update(b"\0")
    return h.hexdigest()


def checkpoint_bytes(model, g) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.plnk"
        save_checkpoint(model, g, path)
        return path.read_bytes()


def checkpoint_digest(model, g) -> str:
    """Every parameter, the final loss and the checkpoint file's bytes."""
    return digest(*model.store.params.values(), model.final_loss, checkpoint_bytes(model, g))


def mode_config(mode: str, **fields) -> ExplainConfig:
    return ExplainConfig(enable_path_loss=mode != "path_off",
                         enable_mi_loss=mode != "mi_off", **fields)


def explain_lines(label, model, g, target, hops, modes=MODES, combine_modes=("concatenation",),
                  **fields):
    """Mask, provenance, loss trace, metric row, paths and rank per mode;
    `fields` are further ExplainConfig settings."""
    gc = prepare_computation_graph(g, target, hops)
    yield digest(rank_target(model, gc, target), gc.num_nodes, gc.num_edges), f"{label} rank"
    for combine in combine_modes:
        for mode in modes:
            cfg = mode_config(mode, combine_mode=combine, **fields)
            result = train_explainer(model, gc, target, cfg)
            explanation = generate_paths(gc, result.mask, target, cfg.num_paths,
                                         cfg.power_order)
            row = measure_explanation(model, gc, target, result.mask, explanation)
            name = f"{label} {combine} {mode}"
            yield digest(result.mask.values, result.mask.provenance), f"{name} mask"
            yield digest(result.loss_trace), f"{name} loss trace"
            yield digest(row), f"{name} metric row"
            yield digest([(p.triples, p.triple_indices, p.edge_scores, p.mean_score)
                          for p in explanation.paths]), f"{name} paths"


def training_lines():
    inst = generate_planted(PlantedConfig(seed=0))
    g = inst.graph
    for decoder in DECODERS:
        for layers in SIZES:
            for bases in SIZES:
                cfg = ModelConfig(decoder=decoder, layers=layers, bases=bases, dim=8)
                model = train_kgc(g, cfg)
                label = f"train_kgc {decoder} layers={layers} bases={bases}"
                yield checkpoint_digest(model, g), f"{label} checkpoint"
                yield from explain_lines(label, model, g, inst.target, hops=1, modes=("full",))


EDGE_CASE_GRAPHS = {
    "one triple": (2, 1, [(0, 0, 1)]),
    "self-loops": (7, 3, [(0, 0, 0), (0, 0, 1), (1, 1, 1), (1, 0, 2), (2, 1, 0), (3, 0, 3)]),
    "edgeless": (6, 2, [(0, 0, 1), (2, 0, 3), (3, 1, 4), (4, 0, 2), (2, 1, 5)]),
}


def edge_training_lines():
    """Checkpoints trained on tiny graphs, where single rows, self-loops,
    empty relations and isolated entities reach every training op."""
    for name, (n_ent, n_rel, triples) in EDGE_CASE_GRAPHS.items():
        h, r, t = np.array(triples).T
        g = KnowledgeGraph(n_ent, n_rel, h, r, t)
        for decoder in DECODERS:
            for layers in SIZES:
                for bases in SIZES:
                    for negatives in (1, 4):
                        cfg = ModelConfig(decoder=decoder, layers=layers, bases=bases, dim=4,
                                          epochs=100, negatives=negatives)
                        yield (checkpoint_digest(train_kgc(g, cfg), g),
                               f"train_kgc {name} {decoder} layers={layers} bases={bases} "
                               f"negatives={negatives} checkpoint")
            # a step this large drives some probabilities past the log clamp
            model = train_kgc(g, ModelConfig(decoder=decoder, dim=4, epochs=100, lr=5.0))
            yield checkpoint_digest(model, g), f"train_kgc {name} {decoder} lr=5.0 checkpoint"


def planted_lines():
    for seed in PLANTED_SEEDS:
        inst = generate_planted(PlantedConfig(seed=seed))
        model = train_kgc(inst.graph, replace(ModelConfig(), seed=seed))
        yield from explain_lines(f"planted seed={seed} trained", model, inst.graph,
                                 inst.target, hops=1,
                                 combine_modes=("concatenation", "euclidean"))
        model = reliant_model(inst.graph, inst.target, seed=seed)
        yield from explain_lines(f"planted seed={seed} reliant", model, inst.graph,
                                 inst.target, hops=2)


def edgeless_lines():
    """Target (0, 0, 1) is the only triple touching entities 0 and 1."""
    triples = np.array([(0, 0, 1), (2, 0, 3), (3, 1, 4), (4, 0, 2), (2, 1, 5)])
    g = KnowledgeGraph(6, 2, triples[:, 0], triples[:, 1], triples[:, 2])
    model = train_kgc(g, ModelConfig(dim=4, epochs=20))
    target = TargetTriple(0, 0, 1)
    yield from explain_lines("edgeless", model, g, target, hops=1,
                             combine_modes=("concatenation", "euclidean"))


# Target (0, 0, 1) is removed before explaining; (0, 1, 1) keeps a direct
# edge. Every head -> tail walk but the direct edge takes three or more hops.
NO_TWO_WALK = [(0, 0, 1), (0, 1, 1), (0, 0, 2), (2, 1, 3), (3, 0, 1), (0, 1, 4), (4, 0, 5),
               (5, 1, 1), (2, 0, 4), (3, 1, 5), (4, 1, 2)]


def explainer_lines():
    """The explainer beyond the planted runs' settings: power orders 2 and 4,
    a TransE model in every mode, and a tail that no length-2 walk reaches."""
    inst = generate_planted(PlantedConfig(seed=0))
    model = train_kgc(inst.graph, ModelConfig())
    for order in (2, 4):
        yield from explain_lines(f"planted seed=0 trained power_order={order}", model,
                                 inst.graph, inst.target, hops=1, power_order=order)
    model = train_kgc(inst.graph, ModelConfig(decoder="transe"))
    yield from explain_lines("planted seed=0 trained transe", model, inst.graph, inst.target,
                             hops=2, combine_modes=("concatenation", "euclidean"))
    triples = np.array(NO_TWO_WALK)
    g = KnowledgeGraph(6, 2, triples[:, 0], triples[:, 1], triples[:, 2])
    target = TargetTriple(0, 0, 1)
    gc = prepare_computation_graph(g, target, 2)
    walks = adjacency_power_row(gc, gc.head_local, 4)
    if walks[1][gc.tail_local] != 0 or walks[2][gc.tail_local] == 0:
        raise SystemExit("bit_identity: the no-2-walk graph gained a length-2 walk")
    for decoder in DECODERS:
        model = train_kgc(g, ModelConfig(decoder=decoder, dim=4, epochs=50))
        for order in (3, 4):
            yield from explain_lines(f"no 2-walk {decoder} power_order={order}", model, g,
                                     target, hops=2, power_order=order)


def instance_lines():
    """One line per suite instance config: its instances at seeds 0-39, which
    guard the distractor rejection loop that places most of their triples."""
    configs = {"default": SuiteConfig().instance, "ablation": ablation_suite_config().instance,
               "power_order=4": power_order_suite_config(4).instance}
    for name, instance in configs.items():
        parts = []
        for seed in INSTANCE_SEEDS:
            inst = generate_planted(replace(instance, seed=seed))
            g = inst.graph
            parts += [g.heads, g.rels, g.tails, inst.distractor_edges, inst.planted_paths,
                      inst.decoy_paths]
        yield digest(*parts), f"generate_planted {name} seeds 0-39"


def random_ego_lines():
    """A random KG of 60 entities and 900 triples; the target's 1-hop
    ego-graph holds a few hundred of them."""
    rng = np.random.default_rng(7)
    triples = np.unique(np.stack([rng.integers(0, 60, 900), rng.integers(0, 5, 900),
                                  rng.integers(0, 60, 900)], axis=1), axis=0)
    g = KnowledgeGraph(60, 5, triples[:, 0], triples[:, 1], triples[:, 2])
    h, r, t = (int(x) for x in triples[0])
    target = TargetTriple(h, r, t)
    gc = prepare_computation_graph(g, target, 1)
    into_target = int(np.isin(gc.dst, [gc.head_local, gc.tail_local]).sum())
    if not 0 < into_target < gc.num_edges // 4:
        raise SystemExit("bit_identity: the random ego-graph lost its small last-layer field")
    for layers in (2, 3):
        model = KgcModel(g.num_entities, g.num_relations, dim=8, layers=layers, seed=layers)
        label = (f"random ego layers={layers} ({gc.num_edges} triples, "
                 f"{into_target} into head and tail)")
        yield from explain_lines(label, model, g, target, hops=1, modes=("full", "path_off"))


def large_ego_lines():
    """A random KG of 300 entities and 7,000 triples; the target's 2-hop
    ego-graph holds nearly all of them, enough rows for `TesOp` to split its
    row-wise work into blocks on two or more CPUs, and a count that is not a
    multiple of the blocks' 64-row alignment. Models of dim 8 and of dim 16,
    the default, whose 48 TES input columns `TesOp` also splits into pieces
    for the first layer's weight gradient (dim 8's 24 columns split too)."""
    rng = np.random.default_rng(0)
    triples = np.unique(np.stack([rng.integers(0, 300, 7000), rng.integers(0, 6, 7000),
                                  rng.integers(0, 300, 7000)], axis=1), axis=0)
    g = KnowledgeGraph(300, 6, triples[:, 0], triples[:, 1], triples[:, 2])
    target = TargetTriple(*(int(x) for x in triples[0]))
    edges = prepare_computation_graph(g, target, 2).num_edges
    if edges < 4096 or edges % 64 == 0:
        raise SystemExit("bit_identity: the large ego-graph lost its size")
    for dim, label in ((8, ""), (16, " dim=16")):
        model = KgcModel(g.num_entities, g.num_relations, dim=dim, seed=3)
        yield from explain_lines(f"large ego ({edges} triples){label}", model, g, target,
                                 hops=2, modes=("full",),
                                 combine_modes=("concatenation", "euclidean"))


def extraction_lines():
    """Ego-graphs of a random KG of 300 entities and 1200 triples: each target
    uncut and cut at the middle of its last distance ring, where the
    (distance, id) order decides which nodes stay."""
    rng = np.random.default_rng(11)
    triples = np.unique(np.stack([rng.integers(0, 300, 1200), rng.integers(0, 7, 1200),
                                  rng.integers(0, 300, 1200)], axis=1), axis=0)
    g = KnowledgeGraph(300, 7, triples[:, 0], triples[:, 1], triples[:, 2])
    for row in (0, 400, 800):
        target = TargetTriple(*(int(x) for x in triples[row]))
        for hops in (1, 2, 3):
            full = extract_computation_graph(g, target, hops)
            near = (extract_computation_graph(g, target, hops - 1).num_nodes if hops > 1
                    else len({target.head, target.tail}))
            cut = (near + full.num_nodes) // 2
            if not near < cut < full.num_nodes:
                raise SystemExit("bit_identity: an extraction cut missed its distance ring")
            for max_nodes in (None, cut):
                gc = prepare_computation_graph(g, target, hops, max_nodes=max_nodes)
                yield (digest(gc.nodes, gc.src, gc.rel, gc.dst),
                       f"extract triple {row} k_hop={hops} max_nodes={max_nodes} "
                       f"({gc.num_nodes} nodes, {gc.num_edges} triples)")


def messy_tsv(rng, n_lines) -> bytes:
    """Lines of "::"-separated names drawn from small pools, so that lines
    repeat, with blank and whitespace-only lines, "\\n", "\\r\\n" and lone
    "\\r" endings, and no line break after the last line."""
    ents = [f"/m/0{i:x}" for i in range(300)] + ["a b", " lead", "trail ", "été"]
    rels = [f"/rel/{i}/p" for i in range(9)]
    lines = []
    for _ in range(n_lines):
        kind = rng.integers(0, 20)
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append(" \t ")
        else:
            lines.append("::".join((ents[rng.integers(len(ents))], rels[rng.integers(len(rels))],
                                    ents[rng.integers(len(ents))])))
    ends = [("\n", "\r\n", "\r")[k] for k in rng.integers(0, 3, n_lines)]
    return "".join(line + end for line, end in zip(lines, ends))[: -len(ends[-1])].encode()


def loader_lines():
    """`load_triples` on a seeded messy file of 40,000 lines (several parse
    blocks) with a "::" delimiter: the columns, both vocabularies, the
    duplicate count, `vocab_hashes` and the warning, for a first load, a
    second load and a load under a stale same-size, same-mtime cache; then
    the error message for the same file with a bad line, with a non-UTF-8
    byte, and blank."""
    from kgexplain.errors import DataError
    from kgexplain.kgraph import load_triples

    data = messy_tsv(np.random.default_rng(5), 40_000)
    variants = {"bad line": data[:300_000] + b"\nx::y\n" + data[300_000:],
                "non-UTF-8": data[:500_000] + b"\xff" + data[500_000:],
                "blank": b" \r\n\t\n"}
    handler = logging.handlers.BufferingHandler(capacity=100)
    logger = logging.getLogger("kgexplain.kgraph")
    logger.addHandler(handler)
    logger.propagate = False
    def load():
        handler.flush()
        g = load_triples("kg.tsv", "::")
        return g, digest(g.heads, g.rels, g.tails, g.entity_names, g.relation_names,
                         g.duplicates_dropped, g.vocab_hashes(),
                         [record.getMessage() for record in handler.buffer])

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("kg.tsv").write_bytes(data)
            g, value = load()
            yield value, (f"load_triples messy file ({g.num_triples} triples, "
                          f"{g.duplicates_dropped} duplicates)")
            yield load()[1], "load_triples messy file loaded again"
            Path("kg.tsv").write_bytes(data.replace(b"/rel/1/", b"/rel/2/"))
            load_triples("kg.tsv", "::")
            other = os.stat("kg.tsv")
            Path("kg.tsv").write_bytes(data)
            os.utime("kg.tsv", ns=(other.st_atime_ns, other.st_mtime_ns))
            yield load()[1], "load_triples messy file under a stale same-size, same-mtime cache"
            for name, text in variants.items():
                Path("kg.tsv").write_bytes(text)
                try:
                    load_triples("kg.tsv", "::")
                    message = None
                except DataError as exc:
                    message = str(exc)
                yield digest(message), f"load_triples messy file {name} error"
        finally:
            os.chdir(cwd)
            logger.removeHandler(handler)
            logger.propagate = True


def cli_lines():
    """The determinism acceptance test's script, run in a temporary directory
    with relative paths so config echoes do not name the directory."""
    inst = generate_planted(PlantedConfig(n_entities=30, n_distractors=10,
                                          n_context_groups=2, seed=0))
    g = inst.graph
    cases = {
        "train": ["train", "--train", "train.tsv", "--out_dir", "t", "--dim", "6",
                  "--epochs", "10", "--seed", "4"],
        "explain": ["explain", "--train", "train.tsv", "--checkpoint", "model.plnk",
                    "--out_dir", "e", "--head", "head", "--relation", "target", "--tail",
                    "tail", "--k_hop", "2", "--epochs", "5", "--seed", "4", "--dot"],
        "evaluate": ["evaluate", "--train", "train.tsv", "--checkpoint", "model.plnk",
                     "--out_dir", "v", "--k_hop", "2", "--epochs", "5", "--sample_num", "1",
                     "--threshold", "prob", "--seed", "4"],
        "evaluate-test": ["evaluate", "--train", "train.tsv", "--checkpoint", "model.plnk",
                          "--test", "test.tsv", "--out_dir", "w", "--k_hop", "2", "--epochs",
                          "5", "--threshold", "prob", "--seed", "4"],
        "suite": ["suite", "--config", "suite.json", "--out_dir", "s"],
        # the three modes train as one batch
        "suite-ablations": ["suite", "--config", "suite.json", "--out_dir", "a", "--ablations"],
    }
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("train.tsv").write_text("\n".join(
                f"{g.entity_names[h]}\t{g.relation_names[r]}\t{g.entity_names[t]}"
                for h, r, t in g.triples) + "\n")
            Path("test.tsv").write_text("mid0_0\texplains\ttail\nhead\ttarget\ttail\n"
                                        "head\ttarget\tnowhere\nhead\texplains\tmid1_0\n")
            from kgexplain.kgraph import load_triples

            loaded = load_triples("train.tsv")
            target = TargetTriple(loaded.entity_id("head"), loaded.relation_id("target"),
                                  loaded.entity_id("tail"))
            save_checkpoint(reliant_model(loaded, target, seed=0), loaded, "model.plnk")
            Path("suite.json").write_text(json.dumps({
                "n_instances": 1, "model_source": "reliant", "hops": 2,
                "instance.n_entities": 30, "instance.n_distractors": 10,
                "instance.n_context_groups": 2, "explain.epochs": 5,
            }))
            for name, args in cases.items():
                if cli_main(args) != 0:
                    raise SystemExit(f"bit_identity: `kgexplain {name}` failed")
                out_dir = Path(args[args.index("--out_dir") + 1])
                for p in sorted(out_dir.rglob("*")):
                    if p.is_file():
                        data = p.read_bytes()
                        if p.name == "per_target.csv":
                            data = _without_column(data, "wall_time_s")
                        yield digest(data), f"cli {name} {p.relative_to(out_dir)}"
        finally:
            os.chdir(cwd)


def _without_column(data: bytes, column: str) -> bytes:
    lines = data.decode().splitlines()
    drop = lines[0].split(",").index(column)
    return "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != drop)
                     for line in lines).encode()


def main() -> int:
    logging.basicConfig(level=logging.WARNING)
    total = hashlib.sha256()
    for section in (training_lines, edge_training_lines, planted_lines, edgeless_lines,
                    explainer_lines, instance_lines, random_ego_lines, large_ego_lines,
                    extraction_lines, loader_lines, cli_lines):
        with contextlib.redirect_stderr(io.StringIO()):
            lines = list(section())
        for value, label in lines:
            line = f"{value}  {label}"
            print(line)
            total.update(line.encode() + b"\n")
    print(f"{total.hexdigest()}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
