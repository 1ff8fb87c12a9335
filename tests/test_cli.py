import json
import os

import numpy as np
import pytest

from kgexplain.cli import main
from kgexplain.harness import PlantedConfig, generate_planted


@pytest.fixture
def dataset(tmp_path):
    inst = generate_planted(PlantedConfig(n_entities=30, n_distractors=10,
                                          n_context_groups=2, seed=0))
    g = inst.graph
    lines = []
    for h, r, t in g.triples:
        lines.append(f"{g.entity_names[h]}\t{g.relation_names[r]}\t{g.entity_names[t]}")
    train = tmp_path / "train.tsv"
    train.write_text("\n".join(lines) + "\n")
    return train, inst


def run_train(tmp_path, train, extra=()):
    out = tmp_path / "run_train"
    code = main([
        "train", "--train", str(train), "--out_dir", str(out),
        "--dim", "6", "--epochs", "20", "--seed", "1", *extra,
    ])
    return code, out


def test_train_writes_checkpoint_and_log(tmp_path, dataset):
    train, _ = dataset
    code, out = run_train(tmp_path, train)
    assert code == 0
    assert (out / "config.json").exists()
    assert (out / "model.plnk").read_bytes()[:4] == b"PLNK"
    log = json.loads((out / "train_log.json").read_text())
    assert np.isfinite(log["final_loss"])


def test_train_checkpoint_reproducible(tmp_path, dataset):
    train, _ = dataset
    _, out1 = run_train(tmp_path / "a", train)
    _, out2 = run_train(tmp_path / "b", train)
    assert (out1 / "model.plnk").read_bytes() == (out2 / "model.plnk").read_bytes()


def test_train_missing_file_exits_2(tmp_path):
    code = main(["train", "--train", str(tmp_path / "nope.tsv"),
                 "--out_dir", str(tmp_path / "o")])
    assert code == 2


def test_fb15k237_format_accepted(tmp_path):
    # FB-style identifiers, tab separated, no header
    p = tmp_path / "fb.tsv"
    p.write_text(
        "/m/027rn\t/location/country/form_of_government\t/m/06cx9\n"
        "/m/06cx9\t/government/form_of_government/countries\t/m/027rn\n"
    )
    code = main(["train", "--train", str(p), "--out_dir", str(tmp_path / "o"),
                 "--epochs", "2", "--dim", "4"])
    assert code == 0


def explain_args(train, ckpt_dir, out, inst, extra=()):
    g = inst.graph
    return [
        "explain",
        "--train", str(train),
        "--checkpoint", str(ckpt_dir / "model.plnk"),
        "--out_dir", str(out),
        "--head", g.entity_names[inst.target.head],
        "--relation", g.relation_names[inst.target.relation],
        "--tail", g.entity_names[inst.target.tail],
        "--k_hop", "2",
        "--epochs", "5",
        "--seed", "2",
        *extra,
    ]


def test_explain_writes_json_and_dot(tmp_path, dataset):
    train, inst = dataset
    _, ckpt = run_train(tmp_path, train)
    out = tmp_path / "run_explain"
    code = main(explain_args(train, ckpt, out, inst, extra=("--dot",)))
    assert code == 0
    payload = json.loads((out / "explanation.json").read_text())
    assert payload["target"]["head"]["name"] == "head"
    assert len(payload["loss_trace"]) == 5
    dot = (out / "explanation.dot").read_text()
    assert dot.startswith("digraph") and "dashed" in dot


def test_explain_unknown_entity_lists_matches(tmp_path, dataset, caplog):
    train, inst = dataset
    _, ckpt = run_train(tmp_path, train)
    out = tmp_path / "run_bad"
    args = explain_args(train, ckpt, out, inst)
    args[args.index("--head") + 1] = "heda"
    code = main(args)
    assert code == 3
    assert "closest matches" in caplog.text
    assert (out / "config.json").exists()  # config echoed before the failure


def test_explain_disconnected_target_writes_empty_paths(tmp_path, dataset):
    train, inst = dataset
    g = inst.graph
    # pick two context-group entities with no route between them
    head_name = "ctx0_tail"
    tail_name = "ctx1_head"
    _, ckpt = run_train(tmp_path, train)
    out = tmp_path / "run_empty"
    args = explain_args(train, ckpt, out, inst)
    args[args.index("--head") + 1] = head_name
    args[args.index("--tail") + 1] = tail_name
    code = main(args)
    assert code == 0
    payload = json.loads((out / "explanation.json").read_text())
    assert payload["paths"] == []


def test_explain_ablation_flags_run(tmp_path, dataset):
    train, inst = dataset
    _, ckpt = run_train(tmp_path, train)
    out = tmp_path / "run_nopath"
    code = main(explain_args(train, ckpt, out, inst, extra=("--no_path_loss",)))
    assert code == 0
    trace = json.loads((out / "explanation.json").read_text())["loss_trace"]
    assert trace[0]["path"] is None
    out2 = tmp_path / "run_nomi"
    assert main(explain_args(train, ckpt, out2, inst, extra=("--no_mi_loss",))) == 0


def test_explain_deterministic_output_bytes(tmp_path, dataset):
    train, inst = dataset
    _, ckpt = run_train(tmp_path, train)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(explain_args(train, ckpt, out1, inst))
    main(explain_args(train, ckpt, out2, inst))
    assert (out1 / "explanation.json").read_bytes() == (out2 / "explanation.json").read_bytes()


def test_explain_env_override(tmp_path, dataset, monkeypatch):
    train, inst = dataset
    _, ckpt = run_train(tmp_path, train)
    monkeypatch.setenv("KGEXPLAIN_EPOCHS", "3")
    out = tmp_path / "run_env"
    args = explain_args(train, ckpt, out, inst)
    del args[args.index("--epochs") + 1]
    args.remove("--epochs")
    code = main(args)
    assert code == 0
    assert json.loads((out / "config.json").read_text())["epochs"] == 3


def test_evaluate_runs_and_writes_report(tmp_path, dataset):
    from kgexplain.harness import reliant_model
    from kgexplain.kgraph import load_triples
    from kgexplain.model import save_checkpoint

    train, inst = dataset
    g = load_triples(train)
    model = reliant_model(g, inst.target, seed=0)
    ckpt = tmp_path / "reliant.plnk"
    save_checkpoint(model, g, ckpt)
    test_file = tmp_path / "test.tsv"
    test_file.write_text("head\ttarget\ttail\n")
    out = tmp_path / "run_eval"
    code = main([
        "evaluate", "--train", str(train), "--test", str(test_file),
        "--checkpoint", str(ckpt), "--out_dir", str(out),
        "--k_hop", "2", "--epochs", "5", "--sample_num", "1",
        "--threshold", "prob", "--seed", "0",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_samples"] == 1
    csv = (out / "per_target.csv").read_text().splitlines()
    assert csv[0].split(",") == [
        "head", "relation", "tail", "f_plus", "f_minus", "sparsity",
        "hit1", "hit3", "hit5", "epochs", "wall_time_s",
    ]


def test_evaluate_sample_num_zero_usage_error(tmp_path, dataset, caplog):
    train, inst = dataset
    _, ckpt = run_train(tmp_path, train)
    code = main([
        "evaluate", "--train", str(train),
        "--checkpoint", str(ckpt / "model.plnk"),
        "--out_dir", str(tmp_path / "o"), "--sample_num", "0",
    ])
    assert code == 2
    assert "sample_num must be >= 1" in caplog.text


def test_zero_epochs_usage_error(tmp_path, dataset, caplog):
    train, inst = dataset
    _, ckpt = run_train(tmp_path, train)
    args = explain_args(train, ckpt, tmp_path / "o", inst)
    args[args.index("--epochs") + 1] = "0"
    assert main(args) == 2
    assert "epochs must be >= 1" in caplog.text
    caplog.clear()
    assert main(["train", "--train", str(train), "--out_dir", str(tmp_path / "t"),
                 "--epochs", "0"]) == 2
    assert "epochs must be >= 1" in caplog.text


def test_malformed_env_override_usage_error(tmp_path, dataset, monkeypatch, caplog):
    train, inst = dataset
    _, ckpt = run_train(tmp_path, train)
    monkeypatch.setenv("KGEXPLAIN_EPOCHS", "abc")
    assert main(explain_args(train, ckpt, tmp_path / "o", inst)) == 2
    assert "KGEXPLAIN_EPOCHS='abc' is not a valid int" in caplog.text


def test_suite_subcommand(tmp_path):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({
        "n_instances": 1,
        "model_source": "reliant",
        "hops": 2,
        "instance.n_entities": 30,
        "instance.n_distractors": 10,
        "instance.n_context_groups": 2,
        "explain.epochs": 5,
    }))
    out = tmp_path / "suite_out"
    code = main(["suite", "--config", str(cfg), "--out_dir", str(out)])
    assert code == 0
    assert (out / "aggregate.csv").exists()
    assert (out / "instance_0.json").exists()


def test_usage_error_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_numeric_failure_exits_4(tmp_path, dataset, monkeypatch):
    from kgexplain import cli
    from kgexplain.errors import NumericError

    train, _ = dataset

    def boom(*a, **kw):
        raise NumericError("synthetic numeric failure")

    monkeypatch.setattr(cli, "train_kgc", boom)
    code = main(["train", "--train", str(train), "--out_dir", str(tmp_path / "o")])
    assert code == 4


def test_cli_defaults_match_run_config():
    from kgexplain.cli import PRESETS, build_parser

    parser = build_parser()
    args = parser.parse_args([
        "explain", "--train", "x", "--checkpoint", "c", "--out_dir", "o",
        "--head", "h", "--relation", "r", "--tail", "t",
    ])
    assert args.k_core == 2
    assert args.epochs == 50
    assert args.lr == 0.005
    assert args.power_order == 3
    assert args.gamma == 0.03
    assert args.combine_mode == "concatenation"
    assert PRESETS["dense"]["k_hop"] == 1
    assert PRESETS["sparse"]["k_hop"] == 3
    assert PRESETS["dense"]["sample_num"] == 500
    assert PRESETS["sparse"]["sample_num"] == 200
    assert PRESETS["dense"]["max_nodes"] == 1000
