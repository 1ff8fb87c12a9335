"""Command-line entry point: train / explain / evaluate / suite.

Once their settings pass validation, and before doing any other work,
train/explain/evaluate write <out-dir>/config.json:
the subcommand name and the resolved value of each of its flags (presets
applied). Flags share the run-config field names and defaults; the default
of each flag made by `_add_opt` can be overridden with an environment
variable named KGEXPLAIN_<KEY> (e.g. KGEXPLAIN_EPOCHS=10). `suite` echoes
its SuiteConfig.

Exit codes: 0 success, 2 usage (and a worker process that ended without
its result), 3 data, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ContractError, DataError, NumericError, WorkerError
from .explain import (
    COMBINE_MODES,
    ExplainConfig,
    generate_paths,
    prepare_computation_graph,
    train_explainer,
)
from .harness import SuiteConfig, run_suite
from .kgraph import TargetTriple, check_ego_settings, load_triples
from .metrics import CSV_COLUMNS, THRESHOLD_RULES, EvalConfig, csv_text, evaluate_batch, json_text
from .model import DECODERS, ModelConfig, load_checkpoint, save_checkpoint, train_kgc

log = logging.getLogger("kgexplain")

ENV_PREFIX = "KGEXPLAIN_"

# Appendix-style presets: hop radius, node cap, sample count, threshold rule.
PRESETS = {
    "dense": {"k_hop": 1, "max_nodes": 1000, "sample_num": 500, "threshold": "prob"},
    "sparse": {"k_hop": 3, "max_nodes": 2000, "sample_num": 200, "threshold": "rank1"},
}


def _env_default(key, fallback, cast):
    raw = os.environ.get(ENV_PREFIX + key.upper())
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ContractError(
            f"{ENV_PREFIX}{key.upper()}={raw!r} is not a valid {cast.__name__}"
        ) from None


def _add_opt(parser, name, default, cast, help_text, choices=None):
    default = _env_default(name, default, cast)
    if choices is not None and default is not None and default not in choices:
        raise ContractError(f"{ENV_PREFIX}{name.upper()}={default!r} is not one of {choices}")
    parser.add_argument(f"--{name}", type=cast, default=default, choices=choices, help=help_text)


def _echo_config(args, omit=()) -> dict:
    """Write <out_dir>/config.json: the subcommand and every parsed flag but
    `omit` (explain and evaluate have never echoed --delimiter)."""
    skip = {"command", "func", "out_dir", *omit}
    config = {k: v for k, v in vars(args).items() if k not in skip}
    config["subcommand"] = args.command
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json_text(config))
    return config


def _resolve_preset(args):
    for key, value in PRESETS[args.preset].items():
        if key in vars(args) and getattr(args, key) is None:
            setattr(args, key, value)


def _from_args(cls, args, **overrides):
    """A run config whose remaining fields take the same-named flags."""
    values = {f.name: getattr(args, f.name) for f in fields(cls) if f.name not in overrides}
    return cls(**values, **overrides)


def _explain_config(args) -> ExplainConfig:
    return _from_args(ExplainConfig, args, enable_path_loss=not args.no_path_loss,
                      enable_mi_loss=not args.no_mi_loss)


def cmd_train(args) -> int:
    cfg = _from_args(ModelConfig, args)
    cfg.validate()
    _echo_config(args)
    g = load_triples(args.train, args.delimiter)
    model = train_kgc(g, cfg)
    out_dir = Path(args.out_dir)
    ckpt = out_dir / "model.plnk"
    save_checkpoint(model, g, ckpt)
    (out_dir / "train_log.json").write_text(json_text({
        "final_loss": model.final_loss,
        "num_entities": g.num_entities,
        "num_relations": g.num_relations,
        "num_triples": g.num_triples,
        "duplicates_dropped": g.duplicates_dropped,
    }))
    log.info("checkpoint written to %s (final loss %.6f)", ckpt, model.final_loss)
    return 0


def cmd_explain(args) -> int:
    _resolve_preset(args)
    cfg = _explain_config(args)
    cfg.validate()
    check_ego_settings(args.k_hop, args.k_core, args.max_nodes,
                       names=("k_hop", "k_core", "max_nodes"))
    config = _echo_config(args, omit=("delimiter",))
    g = load_triples(args.train, args.delimiter)
    model = load_checkpoint(args.checkpoint, g)
    target = TargetTriple(
        g.entity_id(args.head), g.relation_id(args.relation), g.entity_id(args.tail)
    )
    gc = prepare_computation_graph(g, target, args.k_hop, args.k_core, args.max_nodes)
    result = train_explainer(model, gc, target, cfg)
    explanation = generate_paths(gc, result.mask, target, cfg.num_paths, cfg.power_order)
    explanation.loss_trace = result.loss_trace
    payload = explanation.to_json_dict(g)
    payload["config"] = config
    out_dir = Path(args.out_dir)
    (out_dir / "explanation.json").write_text(json_text(payload))
    if args.dot:
        from .viz import to_dot

        (out_dir / "explanation.dot").write_text(to_dot(explanation, g))
    if not explanation.paths:
        log.info("no head->tail path exists; wrote an empty explanation")
    return 0


def cmd_evaluate(args) -> int:
    _resolve_preset(args)
    cfg = _from_args(EvalConfig, args, threshold_rule=args.threshold,
                     explain=_explain_config(args))
    cfg.validate()
    _echo_config(args, omit=("delimiter",))
    g = load_triples(args.train, args.delimiter)
    model = load_checkpoint(args.checkpoint, g)
    test = load_triples(args.test, args.delimiter) if args.test else g
    # by exact name only: a test name that is no training name is never read as an id
    ents, rels = g.name_index()
    ent_ids = [ents.get(name, -1) for name in test.entity_names]
    rel_ids = [rels.get(name, -1) for name in test.relation_names]
    triples = [(ent_ids[h], rel_ids[r], ent_ids[t]) for h, r, t in test.triples]
    candidates = [TargetTriple(*ids) for ids in triples if min(ids) >= 0]
    if not candidates:
        raise DataError("test split contains no triples over the training vocabulary")
    report, rows = evaluate_batch(model, g, candidates, cfg)
    out_dir = Path(args.out_dir)
    (out_dir / "report.json").write_text(json_text(report.to_json_dict()))
    (out_dir / "per_target.csv").write_text(csv_text(CSV_COLUMNS, rows))
    log.info("evaluated %d targets", report.n_samples)
    return 0


def _read_suite_config(path) -> dict:
    """Parse a JSON or (Python 3.11+) TOML suite config file into its flat keys."""
    path = Path(path)
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:
            raise ContractError(f"{path}: TOML suite configs need Python 3.11+") from None
        parse = tomllib.loads
    else:
        parse = json.loads
    try:
        doc = parse(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not valid JSON/TOML
        raise DataError(f"{path}: malformed suite config ({exc})") from None
    if path.suffix != ".toml":
        return doc
    # TOML reads `instance.n_entities = 40` and an [instance] table as nested
    # tables: flatten each one level, refusing a key given both ways
    flat = {}
    for key, value in doc.items():
        items = ({f"{key}.{k}": v for k, v in value.items()} if isinstance(value, dict)
                 else {key: value})
        twice = sorted(flat.keys() & items.keys())
        if twice:
            raise DataError(f"{path}: suite config key '{twice[0]}' is given twice")
        flat.update(items)
    return flat


def cmd_suite(args) -> int:
    flat = _read_suite_config(args.config) if args.config else {}
    suite = SuiteConfig.from_flat_dict(flat)
    if args.ablations:
        suite.ablations = True
    report = run_suite(suite, Path(args.out_dir))
    log.info(
        "suite finished: recovery %.3f over %d instances",
        report["aggregate"]["modes"]["full"]["recovery_rate"],
        suite.n_instances,
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line in one stderr line, as the other
    failures are reported, rather than after the usage text (which `-h`
    still prints). Subcommand parsers take the same class."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgexplain",
        description="Path-based explanations for GNN link-prediction models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a link-prediction model")
    p_train.add_argument("--train", required=True, help="training triples (TSV)")
    p_train.add_argument("--out_dir", "--out-dir", dest="out_dir", required=True)
    p_train.add_argument("--delimiter", default="\t")
    _add_opt(p_train, "dim", ModelConfig.dim, int, "embedding width")
    _add_opt(p_train, "layers", ModelConfig.layers, int, "encoder layers")
    _add_opt(p_train, "bases", ModelConfig.bases, int, "relation weight bases")
    _add_opt(p_train, "decoder", ModelConfig.decoder, str, "triple decoder", DECODERS)
    _add_opt(p_train, "epochs", ModelConfig.epochs, int, "training epochs")
    _add_opt(p_train, "lr", ModelConfig.lr, float, "learning rate")
    _add_opt(p_train, "negatives", ModelConfig.negatives, int, "negatives per positive")
    _add_opt(p_train, "seed", ModelConfig.seed, int, "rng seed")
    p_train.set_defaults(func=cmd_train)

    def common_explain(p):
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--train", required=True)
        p.add_argument("--out_dir", "--out-dir", dest="out_dir", required=True)
        p.add_argument("--delimiter", default="\t")
        _add_opt(p, "preset", "dense", str, "k_hop/max_nodes/sample_num/threshold defaults",
                 tuple(PRESETS))
        _add_opt(p, "k_hop", None, int, "ego-graph radius (preset default)")
        _add_opt(p, "k_core", EvalConfig.k_core, int, "k-core pruning threshold")
        _add_opt(p, "max_nodes", None, int, "ego-graph node cap (preset default)")
        _add_opt(p, "epochs", ExplainConfig.epochs, int, "explainer epochs")
        _add_opt(p, "lr", ExplainConfig.lr, float, "explainer learning rate")
        _add_opt(p, "gamma", ExplainConfig.gamma, float, "mask regularisation weight")
        _add_opt(p, "power_order", ExplainConfig.power_order, int, "maximum enhanced path length")
        _add_opt(p, "combine_mode", ExplainConfig.combine_mode, str, "TES input combination",
                 COMBINE_MODES)
        _add_opt(p, "num_paths", ExplainConfig.num_paths, int, "paths to extract")
        p.add_argument("--no_path_loss", "--no-path-loss", dest="no_path_loss",
                       action="store_true", help="ablation: mutual-information loss only")
        p.add_argument("--no_mi_loss", "--no-mi-loss", dest="no_mi_loss",
                       action="store_true", help="ablation: path loss only")
        _add_opt(p, "seed", ExplainConfig.seed, int, "rng seed")

    p_explain = sub.add_parser("explain", help="explain one predicted triple")
    common_explain(p_explain)
    p_explain.add_argument("--head", required=True, help="entity name or id")
    p_explain.add_argument("--relation", required=True, help="relation name or id")
    p_explain.add_argument("--tail", required=True, help="entity name or id")
    p_explain.add_argument("--dot", action="store_true", help="also write DOT")
    p_explain.set_defaults(func=cmd_explain)

    p_eval = sub.add_parser("evaluate", help="metric report over sampled targets")
    common_explain(p_eval)
    p_eval.add_argument("--test", default=None, help="test triples (TSV)")
    _add_opt(p_eval, "sample_num", None, int, "targets to sample (preset default)")
    _add_opt(p_eval, "threshold", None, str, "explainable-target rule (preset default)",
             THRESHOLD_RULES)
    p_eval.set_defaults(func=cmd_evaluate)

    p_suite = sub.add_parser("suite", help="planted-path suite of the harness")
    p_suite.add_argument("--config", default=None, help="flat JSON/TOML key-value file")
    p_suite.add_argument("--out_dir", "--out-dir", dest="out_dir", required=True)
    p_suite.add_argument("--ablations", action="store_true")
    p_suite.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    command = "kgexplain"
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        return args.func(args)
    except ContractError as exc:
        log.error("usage error: %s", exc)
        return 2
    except FileNotFoundError as exc:
        log.error("missing input file: %s", exc)
        return 2
    except OSError as exc:
        log.error("cannot use file: %s", exc)
        return 2
    except DataError as exc:
        log.error("%s", exc)
        return 3
    except NumericError as exc:
        log.error("numeric failure: %s", exc)
        return 4
    except MemoryError:
        log.error("out of memory: %s needs more memory than this process can allocate",
                  command)
        return 2
    except WorkerError as exc:
        log.error("%s: %s", command, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
