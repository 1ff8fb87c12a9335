"""Command-line entry point: train / explain / evaluate / suite.

Every subcommand writes its fully resolved configuration to
<out-dir>/config.json before doing any work. Flags mirror the run-config
keys verbatim; any flag default can be overridden with an environment
variable named KGEXPLAIN_<KEY> (e.g. KGEXPLAIN_EPOCHS=10).

Exit codes: 0 success, 2 usage, 3 data, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .errors import ContractError, DataError, NumericError
from .explain import ExplainConfig, generate_paths, prepare_computation_graph, train_explainer
from .harness import SuiteConfig, run_suite
from .kgraph import TargetTriple, load_triples
from .metrics import EvalConfig, evaluate_batch, report_to_json, rows_to_csv
from .model import ModelConfig, load_checkpoint, save_checkpoint, train_kgc

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
    if cast is bool:
        return raw.strip().lower() in ("1", "true", "yes", "on")
    try:
        return cast(raw)
    except ValueError:
        raise ContractError(
            f"{ENV_PREFIX}{key.upper()}={raw!r} is not a valid {cast.__name__}"
        ) from None


def _add_opt(parser, name, default, cast, help_text):
    parser.add_argument(
        f"--{name}", type=cast, default=_env_default(name, default, cast), help=help_text
    )


def _echo_config(out_dir: Path, config: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True, default=str) + "\n"
    )


def _resolve_preset(args):
    preset = PRESETS[args.preset]
    for key, value in preset.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def cmd_train(args) -> int:
    out_dir = Path(args.out_dir)
    config = {
        "subcommand": "train",
        "train": args.train,
        "delimiter": args.delimiter,
        "dim": args.dim,
        "layers": args.layers,
        "bases": args.bases,
        "decoder": args.decoder,
        "epochs": args.epochs,
        "lr": args.lr,
        "negatives": args.negatives,
        "seed": args.seed,
    }
    _echo_config(out_dir, config)
    g = load_triples(args.train, args.delimiter)
    model = train_kgc(
        g,
        ModelConfig(
            dim=args.dim, layers=args.layers, bases=args.bases, decoder=args.decoder,
            epochs=args.epochs, lr=args.lr, negatives=args.negatives, seed=args.seed,
        ),
    )
    ckpt = out_dir / "model.plnk"
    save_checkpoint(model, g, ckpt)
    (out_dir / "train_log.json").write_text(
        json.dumps(
            {
                "final_loss": model.final_loss,
                "num_entities": g.num_entities,
                "num_relations": g.num_relations,
                "num_triples": g.num_triples,
                "duplicates_dropped": g.duplicates_dropped,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    log.info("checkpoint written to %s (final loss %.6f)", ckpt, model.final_loss)
    return 0


def _explain_config(args) -> ExplainConfig:
    return ExplainConfig(
        epochs=args.epochs,
        lr=args.lr,
        gamma=args.gamma,
        power_order=args.power_order,
        combine_mode=args.combine_mode,
        seed=args.seed,
        enable_path_loss=not args.no_path_loss,
        enable_mi_loss=not args.no_mi_loss,
        num_paths=args.num_paths,
    )


def cmd_explain(args) -> int:
    _resolve_preset(args)
    out_dir = Path(args.out_dir)
    config = {
        "subcommand": "explain",
        "checkpoint": args.checkpoint,
        "train": args.train,
        "head": args.head,
        "relation": args.relation,
        "tail": args.tail,
        "preset": args.preset,
        "k_hop": args.k_hop,
        "k_core": args.k_core,
        "max_nodes": args.max_nodes,
        "epochs": args.epochs,
        "lr": args.lr,
        "gamma": args.gamma,
        "power_order": args.power_order,
        "combine_mode": args.combine_mode,
        "num_paths": args.num_paths,
        "no_path_loss": args.no_path_loss,
        "no_mi_loss": args.no_mi_loss,
        "seed": args.seed,
        "dot": args.dot,
    }
    _echo_config(out_dir, config)
    g = load_triples(args.train, args.delimiter)
    model = load_checkpoint(args.checkpoint, g)
    target = TargetTriple(
        g.entity_id(args.head), g.relation_id(args.relation), g.entity_id(args.tail)
    )
    gc = prepare_computation_graph(g, target, args.k_hop, args.k_core, args.max_nodes)
    cfg = _explain_config(args)
    result = train_explainer(model, gc, target, cfg)
    explanation = generate_paths(gc, result.mask, target, cfg.num_paths, cfg.power_order)
    explanation.loss_trace = result.loss_trace
    payload = explanation.to_json_dict(g)
    payload["config"] = config
    (out_dir / "explanation.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    if args.dot:
        from .viz import to_dot

        (out_dir / "explanation.dot").write_text(to_dot(explanation, g))
    if not explanation.paths:
        log.info("no head->tail path exists; wrote an empty explanation")
    return 0


def cmd_evaluate(args) -> int:
    _resolve_preset(args)
    if args.sample_num is not None and args.sample_num < 1:
        raise ContractError(f"sample_num must be >= 1, got {args.sample_num}")
    out_dir = Path(args.out_dir)
    config = {
        "subcommand": "evaluate",
        "checkpoint": args.checkpoint,
        "train": args.train,
        "test": args.test,
        "preset": args.preset,
        "k_hop": args.k_hop,
        "k_core": args.k_core,
        "max_nodes": args.max_nodes,
        "sample_num": args.sample_num,
        "threshold": args.threshold,
        "workers": args.workers,
        "epochs": args.epochs,
        "lr": args.lr,
        "gamma": args.gamma,
        "power_order": args.power_order,
        "combine_mode": args.combine_mode,
        "num_paths": args.num_paths,
        "no_path_loss": args.no_path_loss,
        "no_mi_loss": args.no_mi_loss,
        "seed": args.seed,
    }
    _echo_config(out_dir, config)
    g = load_triples(args.train, args.delimiter)
    model = load_checkpoint(args.checkpoint, g)
    test = load_triples(args.test, args.delimiter) if args.test else g
    candidates = []
    for h, r, t in zip(test.heads, test.rels, test.tails):
        try:
            candidates.append(
                TargetTriple(
                    g.entity_id(test.entity_names[h]),
                    g.relation_id(test.relation_names[r]),
                    g.entity_id(test.entity_names[t]),
                )
            )
        except DataError:
            continue
    if not candidates:
        raise DataError("test split contains no triples over the training vocabulary")
    cfg = EvalConfig(
        sample_num=args.sample_num,
        threshold_rule=args.threshold,
        k_hop=args.k_hop,
        k_core=args.k_core,
        max_nodes=args.max_nodes,
        seed=args.seed,
        workers=args.workers,
        explain=_explain_config(args),
    )
    report, rows = evaluate_batch(model, g, candidates, cfg)
    (out_dir / "report.json").write_text(report_to_json(report))
    (out_dir / "per_target.csv").write_text(rows_to_csv(rows))
    log.info("evaluated %d targets", report.n_samples)
    return 0


def cmd_suite(args) -> int:
    out_dir = Path(args.out_dir)
    flat = {}
    if args.config:
        path = Path(args.config)
        text = path.read_text()
        if path.suffix == ".toml":
            import tomllib

            flat = tomllib.loads(text)
        else:
            flat = json.loads(text)
    suite = SuiteConfig.from_flat_dict(flat)
    if args.ablations:
        suite.ablations = True
    report = run_suite(suite, out_dir)
    log.info(
        "suite finished: recovery %.3f over %d instances",
        report["aggregate"]["modes"]["full"]["recovery_rate"],
        suite.n_instances,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgexplain",
        description="Path-based explanations for GNN link-prediction models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a link-prediction model")
    p_train.add_argument("--train", required=True, help="training triples (TSV)")
    p_train.add_argument("--out_dir", "--out-dir", dest="out_dir", required=True)
    p_train.add_argument("--delimiter", default="\t")
    _add_opt(p_train, "dim", 16, int, "embedding width")
    _add_opt(p_train, "layers", 2, int, "encoder layers")
    _add_opt(p_train, "bases", 2, int, "relation weight bases")
    p_train.add_argument(
        "--decoder", choices=("transe", "distmult"),
        default=_env_default("decoder", "distmult", str),
    )
    _add_opt(p_train, "epochs", 300, int, "training epochs")
    _add_opt(p_train, "lr", 0.5, float, "learning rate")
    _add_opt(p_train, "negatives", 4, int, "negatives per positive")
    _add_opt(p_train, "seed", 0, int, "rng seed")
    p_train.set_defaults(func=cmd_train)

    def common_explain(p):
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--train", required=True)
        p.add_argument("--out_dir", "--out-dir", dest="out_dir", required=True)
        p.add_argument("--delimiter", default="\t")
        p.add_argument(
            "--preset", choices=tuple(PRESETS), default=_env_default("preset", "dense", str)
        )
        _add_opt(p, "k_hop", None, int, "ego-graph radius (preset default)")
        _add_opt(p, "k_core", 2, int, "k-core pruning threshold")
        _add_opt(p, "max_nodes", None, int, "ego-graph node cap (preset default)")
        _add_opt(p, "epochs", 50, int, "explainer epochs")
        _add_opt(p, "lr", 0.005, float, "explainer learning rate")
        _add_opt(p, "gamma", 0.03, float, "mask regularisation weight")
        _add_opt(p, "power_order", 3, int, "maximum enhanced path length")
        p.add_argument(
            "--combine_mode", choices=("concatenation", "euclidean"),
            default=_env_default("combine_mode", "concatenation", str),
        )
        _add_opt(p, "num_paths", 3, int, "paths to extract")
        p.add_argument("--no_path_loss", "--no-path-loss", dest="no_path_loss",
                       action="store_true", help="ablation: mutual-information loss only")
        p.add_argument("--no_mi_loss", "--no-mi-loss", dest="no_mi_loss",
                       action="store_true", help="ablation: path loss only")
        _add_opt(p, "seed", 0, int, "rng seed")

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
    p_eval.add_argument(
        "--threshold", choices=("prob", "rank1"),
        default=_env_default("threshold", None, str),
        help="explainable-target rule (preset default)",
    )
    _add_opt(p_eval, "workers", 1, int, "parallel workers")
    p_eval.set_defaults(func=cmd_evaluate)

    p_suite = sub.add_parser("suite", help="planted-path suite of the harness")
    p_suite.add_argument("--config", default=None, help="flat JSON/TOML key-value file")
    p_suite.add_argument("--out_dir", "--out-dir", dest="out_dir", required=True)
    p_suite.add_argument("--ablations", action="store_true")
    p_suite.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ContractError as exc:
        log.error("usage error: %s", exc)
        return 2
    except FileNotFoundError as exc:
        log.error("missing input file: %s", exc)
        return 2
    except DataError as exc:
        log.error("%s", exc)
        return 3
    except NumericError as exc:
        log.error("numeric failure: %s", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
