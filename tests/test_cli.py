import contextlib
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgexplain.cli import main
from kgexplain.harness import PlantedConfig, generate_planted
from test_model import _physical_memory


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


@pytest.fixture
def reliant_checkpoint(tmp_path, dataset):
    """Directory holding model.plnk: the hand-set model that relies on the planted paths."""
    from kgexplain.harness import reliant_model
    from kgexplain.kgraph import load_triples
    from kgexplain.model import save_checkpoint

    train, inst = dataset
    g = load_triples(train)
    ckpt_dir = tmp_path / "reliant"
    ckpt_dir.mkdir()
    save_checkpoint(reliant_model(g, inst.target, seed=0), g, ckpt_dir / "model.plnk")
    return ckpt_dir


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


def test_explain_with_head_equal_to_tail_writes_empty_paths(tmp_path, dataset,
                                                            reliant_checkpoint):
    train, inst = dataset
    out = tmp_path / "run_self"
    args = explain_args(train, reliant_checkpoint, out, inst)
    args[args.index("--tail") + 1] = args[args.index("--head") + 1]
    assert main(args) == 0
    assert json.loads((out / "explanation.json").read_text())["paths"] == []


def test_explain_takes_the_ids_the_graph_assigns_to_its_names(tmp_path, dataset,
                                                              reliant_checkpoint):
    # no planted name is a number, so each id given is read as that id
    from kgexplain.kgraph import load_triples

    train, inst = dataset
    g = load_triples(train)
    args = explain_args(train, reliant_checkpoint, tmp_path / "by_name", inst)
    assert main(args) == 0
    for flag, lookup in (("--head", g.entity_id), ("--relation", g.relation_id),
                         ("--tail", g.entity_id)):
        i = args.index(flag) + 1
        assert not args[i].isdigit()
        args[i] = str(lookup(args[i]))
    args[args.index("--out_dir") + 1] = str(tmp_path / "by_id")
    assert main(args) == 0
    by_name, by_id = (json.loads((tmp_path / run / "explanation.json").read_text())
                      for run in ("by_name", "by_id"))
    assert by_name.pop("config") != by_id.pop("config")
    assert by_name == by_id


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


def test_evaluate_runs_and_writes_report(tmp_path, dataset, reliant_checkpoint):
    train, _ = dataset
    ckpt = reliant_checkpoint / "model.plnk"
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


def test_evaluate_maps_test_names_exactly_in_test_order(tmp_path, dataset,
                                                        reliant_checkpoint, monkeypatch):
    # "12" parses as an id but is no training name; lookups never fuzzy-match
    import difflib

    import kgexplain.cli as cli
    from kgexplain.kgraph import TargetTriple, load_triples

    train, _ = dataset
    g = load_triples(train)
    test_file = tmp_path / "test.tsv"
    test_file.write_text("mid0_0\texplains\ttail\n12\ttarget\ttail\nhead\ttarget\ttail\n"
                         "head\ttarget\tnowhere\nhead\tnorel\ttail\nmid1_0\texplains\ttail\n")
    seen = []

    def record(model, graph, candidates, cfg):
        seen.extend(candidates)
        return real(model, graph, candidates, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("test names must not be fuzzy-matched")

    real = cli.evaluate_batch
    monkeypatch.setattr(cli, "evaluate_batch", record)
    monkeypatch.setattr(difflib, "get_close_matches", refuse)
    code = main([
        "evaluate", "--train", str(train), "--test", str(test_file),
        "--checkpoint", str(reliant_checkpoint / "model.plnk"), "--out_dir",
        str(tmp_path / "o"), "--k_hop", "2", "--epochs", "2", "--threshold", "prob",
    ])
    assert code == 0
    ent, rel = g.entity_id, g.relation_id
    assert seen == [TargetTriple(ent(h), rel(r), ent(t)) for h, r, t in
                    [("mid0_0", "explains", "tail"), ("head", "target", "tail"),
                     ("mid1_0", "explains", "tail")]]


def test_evaluate_test_split_without_a_training_name_exits_3(tmp_path, dataset,
                                                             reliant_checkpoint, caplog):
    train, _ = dataset
    test_file = tmp_path / "test.tsv"
    test_file.write_text("stranger\ttarget\ttail\nhead\tnorel\ttail\n")
    out = tmp_path / "o"
    assert main([
        "evaluate", "--train", str(train), "--test", str(test_file),
        "--checkpoint", str(reliant_checkpoint / "model.plnk"), "--out_dir", str(out),
        "--k_hop", "2", "--epochs", "2",
    ]) == 3
    assert error_lines(caplog) == ["test split contains no triples over the training vocabulary"]
    assert not (out / "report.json").exists() and not (out / "per_target.csv").exists()


def test_checkpoint_with_an_unknown_decoder_exits_3(tmp_path, dataset, reliant_checkpoint,
                                                    caplog):
    train, inst = dataset
    ckpt = reliant_checkpoint / "model.plnk"
    data = ckpt.read_bytes()
    meta_len = int.from_bytes(data[6:10], "little")
    blob = json.dumps(dict(json.loads(data[10:10 + meta_len]), decoder="complex")).encode()
    ckpt.write_bytes(data[:6] + len(blob).to_bytes(4, "little") + blob + data[10 + meta_len:])
    assert main(explain_args(train, reliant_checkpoint, tmp_path / "o", inst)) == 3
    [line] = error_lines(caplog)
    assert line == (f"{ckpt}: bad checkpoint model settings (decoder must be one of "
                    "('transe', 'distmult'), got 'complex')")


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


@pytest.mark.parametrize("sample_num", ["3", "1"])
def test_evaluate_reruns_write_equal_reports(tmp_path, dataset, reliant_checkpoint, sample_num):
    train, _ = dataset
    reports = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main([
            "evaluate", "--train", str(train), "--checkpoint",
            str(reliant_checkpoint / "model.plnk"), "--out_dir", str(out), "--k_hop", "2",
            "--epochs", "2", "--sample_num", sample_num,
        ]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["n_samples"] == int(sample_num)


def test_evaluate_workers_is_an_unknown_flag(tmp_path, dataset, reliant_checkpoint, capsys):
    train, _ = dataset
    with pytest.raises(SystemExit) as exc:
        main([
            "evaluate", "--train", str(train), "--checkpoint",
            str(reliant_checkpoint / "model.plnk"), "--out_dir", str(tmp_path / "o"),
            "--workers", "2",
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    monkeypatch.delenv("KGEXPLAIN_EPOCHS")
    monkeypatch.setenv("KGEXPLAIN_PRESET", "bogus")
    assert main(explain_args(train, ckpt, tmp_path / "o", inst)) == 2
    assert "KGEXPLAIN_PRESET='bogus' is not one of ('dense', 'sparse')" in caplog.text


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


@pytest.mark.parametrize("n_distractors", [7000, 10**9])
def test_suite_with_more_distractors_than_distinct_triples_exits_3(tmp_path, caplog,
                                                                  n_distractors):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"n_instances": 1, "instance.n_distractors": n_distractors}))
    t0 = time.perf_counter()
    assert main(["suite", "--config", str(cfg), "--out_dir", str(tmp_path / "o")]) == 3
    assert time.perf_counter() - t0 < 10
    [line] = error_lines(caplog)
    assert f"n_distractors={n_distractors} exceeds the 6240 distinct" in line
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value, message", [
    ("instance.n_planted_paths", 0, "n_planted_paths must be >= 1, got 0"),
    ("instance.n_distractors", -3, "n_distractors must be >= 0, got -3"),
    ("instance.n_decoy_paths", -1, "n_decoy_paths must be >= 0, got -1"),
    ("instance.n_context_groups", -2, "n_context_groups must be >= 0, got -2"),
])
def test_suite_with_bad_planted_count_exits_3(tmp_path, caplog, key, value, message):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"n_instances": 1, key: value}))
    assert main(["suite", "--config", str(cfg), "--out_dir", str(tmp_path / "o")]) == 3
    assert error_lines(caplog) == [f"instance section: {message}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("settings, code, message", [
    ({"k_core": -1}, 2, "usage error: k_core must be >= 0, got -1"),
    ({"hops": 0}, 2, "usage error: hops must be >= 1, got 0"),
    ({"max_nodes": 1}, 2, "usage error: max_nodes must be >= 2, got 1"),
    ({"explain.epochs": 0}, 2, "usage error: explain section: epochs must be >= 1, got 0"),
    ({"explain.combine_mode": "sum"}, 2, "usage error: explain section: combine_mode must be "
                                         "one of ('concatenation', 'euclidean'), got 'sum'"),
    # the path_off mode would run with both losses off
    ({"ablations": True, "explain.enable_mi_loss": False}, 2,
     "usage error: explain section: at least one of path loss / MI loss must be enabled"),
    ({"model.epochs": 0}, 2, "usage error: model section: epochs must be >= 1, got 0"),
    ({"model_source": "reliant", "model.dim": 1}, 2,
     "usage error: model section: embedding dim must be >= 2, got 1"),
    ({"instance.path_len": 7}, 3, "instance section: path_len must be in {1, 2, 3, 4}"),
])
def test_suite_invalid_settings_refused_before_any_write(tmp_path, caplog, settings, code,
                                                         message):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"n_instances": 1, **settings}))
    t0 = time.perf_counter()
    assert main(["suite", "--config", str(cfg), "--out_dir", str(tmp_path / "o")]) == code
    assert time.perf_counter() - t0 < 1.0
    assert error_lines(caplog) == [message]
    assert not (tmp_path / "o").exists()


def test_suite_checks_only_the_settings_a_run_uses(tmp_path):
    # a reliant model is not trained, and each instance sets its own seeds
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({
        "n_instances": 1, "model_source": "reliant", "hops": 2, "instance.n_entities": 30,
        "instance.n_distractors": 10, "instance.n_context_groups": 2, "explain.epochs": 2,
        "model.epochs": 0, "model.lr": -1.0, "model.layers": 0, "explain.seed": -1,
        "instance.seed": -1,
    }))
    assert main(["suite", "--config", str(cfg), "--out_dir", str(tmp_path / "o")]) == 0


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


def test_config_json_holds_the_subcommand_flags(tmp_path, dataset, reliant_checkpoint):
    train, inst = dataset
    common = {
        "subcommand", "checkpoint", "train", "preset", "k_hop", "k_core", "max_nodes",
        "epochs", "lr", "gamma", "power_order", "combine_mode", "num_paths",
        "no_path_loss", "no_mi_loss", "seed",
    }
    expected = {
        "train": {"subcommand", "train", "delimiter", "dim", "layers", "bases", "decoder",
                  "epochs", "lr", "negatives", "seed"},
        "explain": common | {"head", "relation", "tail", "dot"},
        "evaluate": common | {"test", "sample_num", "threshold"},
    }
    runs = {
        "train": run_train(tmp_path, train)[1],
        "explain": tmp_path / "e",
        "evaluate": tmp_path / "v",
    }
    assert main(explain_args(train, reliant_checkpoint, runs["explain"], inst)) == 0
    assert main([
        "evaluate", "--train", str(train), "--checkpoint", str(reliant_checkpoint / "model.plnk"),
        "--out_dir", str(runs["evaluate"]), "--k_hop", "2", "--epochs", "2",
        "--sample_num", "1",
    ]) == 0
    for name, out in runs.items():
        config = json.loads((out / "config.json").read_text())
        assert set(config) == expected[name]
        assert config["subcommand"] == name
    explain_config = json.loads((runs["explain"] / "config.json").read_text())
    assert explain_config["max_nodes"] == 1000  # filled by the dense preset
    assert explain_config["k_hop"] == 2  # the flag wins over the preset
    payload = json.loads((runs["explain"] / "explanation.json").read_text())
    assert payload["config"] == explain_config
    evaluate_config = json.loads((runs["evaluate"] / "config.json").read_text())
    assert evaluate_config["threshold"] == "prob"


def error_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]


@pytest.mark.parametrize("name, value", [("ent", float("nan")), ("self_0", float("inf"))])
@pytest.mark.parametrize("command", ["explain", "evaluate"])
def test_non_finite_checkpoint_tensor_exits_3(tmp_path, dataset, reliant_checkpoint, caplog,
                                              command, name, value):
    from kgexplain.kgraph import load_triples
    from kgexplain.model import load_checkpoint

    train, inst = dataset
    ckpt = reliant_checkpoint / "model.plnk"
    # save_checkpoint refuses such a tensor, so the value is written into the file
    params = load_checkpoint(ckpt, load_triples(train)).store.params
    data = bytearray(ckpt.read_bytes())
    names = list(params)
    offset = len(data) - 4 * sum(params[n].size for n in names[names.index(name):])
    data[offset:offset + 4] = np.array([value], dtype="<f4").tobytes()
    ckpt.write_bytes(bytes(data))
    out = tmp_path / "o"
    args = (explain_args(train, reliant_checkpoint, out, inst) if command == "explain" else
            ["evaluate", "--train", str(train), "--checkpoint", str(ckpt), "--out_dir", str(out),
             "--k_hop", "2", "--epochs", "2", "--sample_num", "1"])
    assert main(args) == 3
    [line] = error_lines(caplog)
    assert f"{ckpt}: checkpoint tensor {name} holds NaN or Inf values" in line
    assert not any(p.suffix in (".json", ".csv") and p.name != "config.json"
                   for p in out.rglob("*"))


@pytest.mark.parametrize("name, data, message", [
    ("bad.json", b'{"n_instances": 1', "malformed suite config"),
    ("bad.toml", b"n_instances = ", "malformed suite config"),
    ("latin1.json", '{"model_source": "reliant\u00e9"}'.encode("latin-1"),
     "malformed suite config"),
    ("list.json", b"[1, 2]", "must be a table of keys, not a list"),
    ("typed.json", b'{"n_instances": "abc"}', "'n_instances' must be int"),
    ("source.json", b'{"model_source": "relaint"}', "model_source must be one of"),
])
def test_malformed_suite_config_exits_3(tmp_path, caplog, name, data, message):
    if name.endswith(".toml"):
        pytest.importorskip("tomllib")
    cfg = tmp_path / name
    cfg.write_bytes(data)
    assert main(["suite", "--config", str(cfg), "--out_dir", str(tmp_path / "o")]) == 3
    [line] = error_lines(caplog)
    assert message in line and "\n" not in line


def test_toml_suite_config_without_tomllib_is_usage_error(tmp_path, monkeypatch, caplog):
    monkeypatch.setitem(sys.modules, "tomllib", None)  # as on Python 3.10
    cfg = tmp_path / "suite.toml"
    cfg.write_text("n_instances = 1\n")
    assert main(["suite", "--config", str(cfg), "--out_dir", str(tmp_path / "o")]) == 2
    assert "TOML suite configs need Python 3.11+" in caplog.text


def test_non_utf8_tsv_exits_3(tmp_path, caplog):
    p = tmp_path / "latin1.tsv"
    p.write_bytes("caf\u00e9\tr\tb\n".encode("latin-1"))
    assert main(["train", "--train", str(p), "--out_dir", str(tmp_path / "o")]) == 3
    [line] = error_lines(caplog)
    assert f"{p}: not UTF-8 text" in line


@pytest.mark.parametrize("flag", ["negatives", "bases", "layers"])
def test_zero_model_flag_usage_error(tmp_path, dataset, caplog, flag):
    train, _ = dataset
    code = main(["train", "--train", str(train), "--out_dir", str(tmp_path / "o"),
                 "--epochs", "2", f"--{flag}", "0"])
    assert code == 2
    assert f"{flag} must be >= 1" in caplog.text


@pytest.mark.parametrize("lr", ["-1", "0", "nan"])
def test_train_bad_lr_usage_error(tmp_path, dataset, caplog, lr):
    train, _ = dataset
    out = tmp_path / "o"
    assert main(["train", "--train", str(train), "--out_dir", str(out),
                 "--epochs", "2", "--lr", lr]) == 2
    [line] = error_lines(caplog)
    assert "lr must be positive" in line
    assert not (out / "model.plnk").exists()


@pytest.mark.parametrize("flag, value, code, message", [
    ("lr", "nan", 2, "lr must be positive, got nan"),
    ("lr", "-0.1", 2, "lr must be positive"),
    ("gamma", "nan", 2, "gamma must be >= 0, got nan"),
    ("lr", "1e308", 4, "numeric failure"),
])
def test_explain_rate_flags_exit_codes(tmp_path, dataset, reliant_checkpoint, caplog,
                                       flag, value, code, message):
    train, inst = dataset
    args = explain_args(train, reliant_checkpoint, tmp_path / "o", inst,
                        extra=(f"--{flag}", value))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args) == code
    [line] = error_lines(caplog)
    assert message in line


@pytest.mark.parametrize("command, flag, value, message", [
    ("train", "seed", "-1", "seed must be >= 0, got -1"),
    ("train", "lr", "inf", "lr must be finite, got inf"),
    ("explain", "seed", "-1", "seed must be >= 0, got -1"),
    ("explain", "lr", "inf", "lr must be finite, got inf"),
    ("explain", "gamma", "inf", "gamma must be finite, got inf"),
    ("evaluate", "seed", "-1", "seed must be >= 0, got -1"),
    ("evaluate", "lr", "inf", "lr must be finite, got inf"),
    ("evaluate", "gamma", "inf", "gamma must be finite, got inf"),
])
def test_negative_seed_or_non_finite_rate_usage_error(tmp_path, dataset, reliant_checkpoint,
                                                      caplog, recwarn, command, flag, value,
                                                      message):
    train, inst = dataset
    out = tmp_path / "o"
    args = {
        "train": ["train", "--train", str(train), "--out_dir", str(out), "--epochs", "2"],
        "explain": explain_args(train, reliant_checkpoint, out, inst),
        "evaluate": ["evaluate", "--train", str(train), "--checkpoint",
                     str(reliant_checkpoint / "model.plnk"), "--out_dir", str(out),
                     "--k_hop", "2", "--epochs", "2", "--sample_num", "1"],
    }[command]
    assert main([*args, f"--{flag}", value]) == 2
    assert error_lines(caplog) == [f"usage error: {message}"]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (out / "model.plnk").exists()


@pytest.mark.parametrize("command", ["train", "explain", "evaluate"])
def test_invalid_settings_leave_no_config_json(tmp_path, dataset, reliant_checkpoint, caplog,
                                               command):
    train, inst = dataset
    out = tmp_path / "o"
    args = {
        "train": ["train", "--train", str(train), "--out_dir", str(out), "--epochs", "2"],
        "explain": explain_args(train, reliant_checkpoint, out, inst),
        "evaluate": ["evaluate", "--train", str(train), "--checkpoint",
                     str(reliant_checkpoint / "model.plnk"), "--out_dir", str(out),
                     "--k_hop", "2", "--epochs", "2", "--sample_num", "1"],
    }[command]
    assert main([*args, "--seed", "-1"]) == 2
    assert error_lines(caplog) == ["usage error: seed must be >= 0, got -1"]
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("command", ["explain", "evaluate"])
@pytest.mark.parametrize("flag, value, message", [
    ("k_core", "-1", "k_core must be >= 0, got -1"),
    ("k_hop", "0", "k_hop must be >= 1, got 0"),
    ("max_nodes", "1", "max_nodes must be >= 2, got 1"),
])
def test_ego_graph_flags_refused_before_config_json(tmp_path, dataset, reliant_checkpoint,
                                                    caplog, command, flag, value, message):
    train, inst = dataset
    out = tmp_path / "o"
    args = explain_args(train, reliant_checkpoint, out, inst)
    if command == "evaluate":
        args = ["evaluate", *args[1:args.index("--head")], "--sample_num", "1"]
    t0 = time.perf_counter()
    assert main([*args, f"--{flag}", value]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert error_lines(caplog) == [f"usage error: {message}"]
    assert not out.exists()


def test_suite_negative_base_seed_usage_error(tmp_path, caplog):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"n_instances": 1, "base_seed": -1}))
    assert main(["suite", "--config", str(cfg), "--out_dir", str(tmp_path / "o")]) == 2
    assert error_lines(caplog) == ["usage error: base_seed must be >= 0, got -1"]


@pytest.mark.parametrize("flag, value, needs", [
    ("dim", "1000000000", "one training epoch's head, relation and tail rows"),
    ("dim", "100000", "model parameters and gradients"),
    ("bases", "100000000", "model parameters and gradients"),
    ("negatives", "100000000", "one training epoch's head, relation and tail rows"),
])
def test_train_beyond_physical_memory_usage_error(tmp_path, dataset, caplog, flag, value,
                                                  needs):
    train, _ = dataset
    out = tmp_path / "o"
    args = ["train", "--train", str(train), "--out_dir", str(out), "--epochs", "2"]
    assert main([*args, f"--{flag}", value]) == 2
    [line] = error_lines(caplog)
    assert line.startswith(f"usage error: {needs} (")
    assert f"{flag}={value}" in line and line.endswith("bytes of physical memory")
    assert not (out / "model.plnk").exists()


@pytest.mark.parametrize("source, needs", [
    # the suite checks the model before it generates an instance to train on
    ("trained", "model parameters and gradients"),
    ("reliant", "model parameters and gradients"),
])
def test_suite_model_beyond_physical_memory_usage_error(tmp_path, caplog, source, needs):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"n_instances": 1, "model_source": source, "model.dim": 10**8}))
    assert main(["suite", "--config", str(cfg), "--out_dir", str(tmp_path / "o")]) == 2
    [line] = error_lines(caplog)
    assert line.startswith(f"usage error: {needs} (") and "dim=100000000" in line


def test_suite_training_epoch_beyond_physical_memory_usage_error(tmp_path, caplog):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"n_instances": 1, "model.negatives": 10**8}))
    assert main(["suite", "--config", str(cfg), "--out_dir", str(tmp_path / "o")]) == 2
    [line] = error_lines(caplog)
    assert line.startswith("usage error: one training epoch's head, relation and tail rows (")
    assert "negatives=100000000" in line


@pytest.mark.parametrize("key, setting", [("instance.n_entities", "entities"),
                                          ("instance.n_relations", "relations")])
@pytest.mark.parametrize("source, layers", [("trained", 2), ("reliant", 1)])
def test_suite_instance_too_large_for_its_model_usage_error(tmp_path, caplog, key, setting,
                                                            source, layers):
    # refused before generating the instance, which would allocate without bound
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"n_instances": 1, "model_source": source, key: 10**8}))
    t0 = time.perf_counter()
    assert main(["suite", "--config", str(cfg), "--out_dir", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - t0 < 1.0
    [line] = error_lines(caplog)
    assert line.startswith("usage error: model parameters and gradients (")
    assert f"{setting}=100000000" in line and f"layers={layers}, bases=2)" in line
    assert not (tmp_path / "o").exists()


def test_suite_instance_beyond_physical_memory_usage_error(tmp_path, caplog, monkeypatch):
    # 16 MiB of physical memory: the dim-1 reliant model's 4.8 MB fit, the
    # names and hop counts of 300,000 entities do not
    _physical_memory(monkeypatch, 16 << 20)
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"n_instances": 1, "model_source": "reliant", "model.dim": 1,
                               "instance.n_entities": 300_000}))
    assert main(["suite", "--config", str(cfg), "--out_dir", str(tmp_path / "o")]) == 2
    [line] = error_lines(caplog)
    assert line.startswith("usage error: instance section: the planted instance's names and "
                           "hop counts (n_entities=300000, n_relations=6) need ")
    assert line.endswith(f"more than the {16 << 20} bytes of physical memory")
    assert not (tmp_path / "o").exists()


def test_explain_power_order_beyond_physical_memory_usage_error(tmp_path, dataset,
                                                                reliant_checkpoint, caplog):
    train, inst = dataset
    out = tmp_path / "o"
    args = explain_args(train, reliant_checkpoint, out, inst, extra=("--power_order", str(2**31)))
    t0 = time.perf_counter()
    assert main(args) == 2
    assert time.perf_counter() - t0 < 1.0
    [line] = error_lines(caplog)
    assert line.startswith("usage error: the walk counts and power steps "
                           "(power_order=2147483648, nodes=")
    assert line.endswith("bytes of physical memory")
    assert not (out / "explanation.json").exists()


def test_memory_refusal_prints_one_line(tmp_path, dataset, capfd):
    # a fresh interpreter, as in test_numeric_failure_prints_one_line
    train, _ = dataset
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = subprocess.run([sys.executable, "-m", "kgexplain.cli", "train", "--train", str(train),
                           "--out_dir", str(tmp_path / "o"), "--dim", "100000"],
                          env=env).returncode
    assert code == 2
    [line] = capfd.readouterr().err.splitlines()
    assert line.startswith("ERROR usage error: model parameters and gradients (")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_out_of_memory_prints_one_line(tmp_path, dataset, capfd):
    # A fresh interpreter whose address space is capped 64 MiB above what its
    # imports use: a dim-4000 model fits in physical memory (1.5 GB of
    # parameters and gradients) but its first 128 MB tensor cannot be
    # allocated, so nothing is touched before the MemoryError.
    train, _ = dataset
    child = (
        "import resource, sys\n"
        "from kgexplain.cli import main\n"
        "with open('/proc/self/statm') as fh:\n"
        "    size = int(fh.read().split()[0]) * resource.getpagesize()\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size + (64 << 20), hard))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    code = subprocess.run([sys.executable, "-c", child, "train", "--train", str(train),
                           "--out_dir", str(tmp_path / "o"), "--dim", "4000"],
                          env=env).returncode
    assert code == 2
    [line] = capfd.readouterr().err.splitlines()
    assert line == "ERROR out of memory: train needs more memory than this process can allocate"
    assert not (tmp_path / "o" / "model.plnk").exists()


def test_numeric_failure_prints_one_line(tmp_path, dataset, reliant_checkpoint, capfd):
    # A fresh interpreter, so stderr is what a user sees: numpy's default error
    # state (no errstate around the run) and the CLI's own logging handler.
    train, inst = dataset
    args = explain_args(train, reliant_checkpoint, tmp_path / "o", inst, extra=("--lr", "1e308"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = subprocess.run([sys.executable, "-m", "kgexplain.cli", *args], env=env).returncode
    assert code == 4
    [line] = capfd.readouterr().err.splitlines()
    assert line.startswith("ERROR numeric failure: non-finite value produced by op")


@pytest.mark.parametrize("delimiter", ["", "\n", "\r", "x\r\n"])
def test_empty_or_line_breaking_delimiter_usage_error(tmp_path, dataset, caplog, delimiter):
    train, _ = dataset
    assert main(["train", "--train", str(train), "--out_dir", str(tmp_path / "o"),
                 "--delimiter", delimiter]) == 2
    [line] = error_lines(caplog)
    assert "delimiter must be non-empty and contain no line break" in line


def test_input_path_os_errors_exit_2(tmp_path, dataset, caplog):
    # a directory as the triple file, and an out_dir that is an existing file
    train, _ = dataset
    assert main(["train", "--train", str(tmp_path), "--out_dir", str(tmp_path / "o")]) == 2
    [line] = error_lines(caplog)
    assert "Is a directory" in line and str(tmp_path) in line
    caplog.clear()
    assert main(["train", "--train", str(train), "--out_dir", str(train)]) == 2
    [line] = error_lines(caplog)
    assert str(train) in line


# -- damaged inputs: every run ends in a documented exit code -----------------

_INST = generate_planted(PlantedConfig(n_entities=12, n_distractors=3, n_context_groups=1,
                                       seed=0))
VALID_TSV = "".join(
    f"{_INST.graph.entity_names[h]}\t{_INST.graph.relation_names[r]}\t"
    f"{_INST.graph.entity_names[t]}\n" for h, r, t in _INST.graph.triples
).encode()
# Compact (no space for an edit to turn into a leading digit) and with every
# setting given, so that a one-byte edit cannot make a valid but slow suite
# (many instances, or a 300-epoch trained model).
_SUITE = {"n_instances": 1, "model_source": "reliant", "hops": 2,
          "instance.n_entities": 30, "instance.n_distractors": 5,
          "instance.n_context_groups": 2, "model.epochs": 2, "model.dim": 4,
          "explain.epochs": 2}
VALID_SUITE_JSON = json.dumps(_SUITE, separators=(",", ":")).encode()
VALID_SUITE_TOML = "".join(f'"{k}"={json.dumps(v)}\n' for k, v in _SUITE.items()).encode()


# bytes that often keep a file parseable, so edits also reach the value checks
_SYNTAX_BYTES = list(b"-.eE'\" ,:=#[]{}\t\nnulltruefalse")


@st.composite
def damaged(draw, data, truncate=True):
    """`data` cut short, or with one byte replaced; half the edits hit a digit."""
    if truncate and draw(st.booleans()):
        return data[: draw(st.integers(0, len(data) - 1))]
    digits = [i for i, b in enumerate(data) if chr(b).isdigit()]
    i = draw(st.one_of(st.integers(0, len(data) - 1), st.sampled_from(digits)))
    byte = draw(st.one_of(st.integers(0, 255), st.sampled_from(list(b"0123456789")),
                          st.sampled_from(_SYNTAX_BYTES)))
    return data[:i] + bytes([byte]) + data[i + 1 :]


@settings(max_examples=40, deadline=None)
@given(damaged(VALID_TSV))
def test_damaged_tsv_exits_with_documented_code(data):
    from kgexplain.harness import reliant_model
    from kgexplain.kgraph import load_triples
    from kgexplain.model import save_checkpoint

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "valid.tsv").write_bytes(VALID_TSV)
        g = load_triples(tmp / "valid.tsv")
        save_checkpoint(reliant_model(g, _INST.target, dim=4), g, tmp / "model.plnk")
        tsv = tmp / "damaged.tsv"
        tsv.write_bytes(data)
        train = ["train", "--train", str(tsv), "--out_dir", str(tmp / "t"),
                 "--dim", "2", "--layers", "1", "--epochs", "1"]
        explain = ["explain", "--train", str(tsv), "--checkpoint", str(tmp / "model.plnk"),
                   "--out_dir", str(tmp / "e"), "--head", "head", "--relation", "target",
                   "--tail", "tail", "--epochs", "1"]
        assert main(train) in (0, 2, 3)
        assert main(explain) in (0, 2, 3)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.tuples(st.just("suite.json"), damaged(VALID_SUITE_JSON)),
    # an empty or cut TOML file is a valid table of fewer keys, so only edit bytes
    st.tuples(st.just("suite.toml"), damaged(VALID_SUITE_TOML, truncate=False)),
))
def test_damaged_suite_config_exits_with_documented_code(case):
    name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / name
        cfg.write_bytes(data)
        code = main(["suite", "--config", str(cfg), "--out_dir", str(Path(tmp) / "o")])
        assert code in (0, 2, 3)


def _toml_sections(suite):
    """`suite`'s top-level keys, then each section's keys under its `[section]`
    header, as TOML text."""
    top = [f"{k} = {json.dumps(v)}\n" for k, v in suite.items() if "." not in k]
    tables = {}
    for key, value in suite.items():
        if "." in key:
            section, name = key.split(".", 1)
            tables.setdefault(section, []).append(f"{name} = {json.dumps(value)}\n")
    return "".join(top + [f"[{section}]\n" + "".join(lines) for section, lines in tables.items()])


@pytest.mark.parametrize("text", [
    "".join(f"{k} = {json.dumps(v)}\n" for k, v in _SUITE.items()),
    _toml_sections(_SUITE),
], ids=["dotted", "tables"])
def test_toml_suite_config_reads_dotted_keys_and_tables(tmp_path, text):
    pytest.importorskip("tomllib")
    quoted, cfg = tmp_path / "quoted.toml", tmp_path / "suite.toml"
    quoted.write_bytes(VALID_SUITE_TOML)
    cfg.write_text(text)
    assert main(["suite", "--config", str(quoted), "--out_dir", str(tmp_path / "q")]) == 0
    assert main(["suite", "--config", str(cfg), "--out_dir", str(tmp_path / "o")]) == 0
    for name in ("config.json", "aggregate.json", "instance_0.json"):
        assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "q" / name).read_bytes()


@pytest.mark.parametrize("text", [
    '"instance.n_entities" = 30\ninstance.n_entities = 30\n',
    '"instance.n_entities" = 30\n[instance]\nn_entities = 30\n',
], ids=["quoted-and-dotted", "quoted-and-table"])
def test_toml_suite_key_given_twice_exits_3(tmp_path, caplog, text):
    pytest.importorskip("tomllib")
    cfg = tmp_path / "suite.toml"
    cfg.write_text(text)
    assert main(["suite", "--config", str(cfg), "--out_dir", str(tmp_path / "o")]) == 3
    [line] = error_lines(caplog)
    assert "suite config key 'instance.n_entities' is given twice" in line
    assert not (tmp_path / "o").exists()


# -- argv: numeric flags at the edges of their range ---------------------------

_EDGE_VALUES = ["-1", "0", "1", "2", str(2**31), str(2**63), "1e308", "nan", "inf", "-inf"]
_EXPLAIN_FLAGS = ["k_hop", "k_core", "max_nodes", "lr", "gamma", "power_order", "num_paths", "seed"]
_NUMERIC_FLAGS = {"train": ["dim", "layers", "bases", "lr", "negatives", "seed"],
                  "explain": _EXPLAIN_FLAGS, "evaluate": _EXPLAIN_FLAGS}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A directory holding the tiny planted TSV and a hand-set checkpoint for it."""
    from kgexplain.harness import reliant_model
    from kgexplain.kgraph import load_triples
    from kgexplain.model import save_checkpoint

    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "train.tsv").write_bytes(VALID_TSV)
    g = load_triples(tmp / "train.tsv")
    save_checkpoint(reliant_model(g, _INST.target, dim=4), g, tmp / "model.plnk")
    return tmp


@st.composite
def edge_argv(draw):
    """A subcommand with one or two numeric flags set to edge values; the
    epoch and sample counts stay small, since large ones are valid, just slow."""
    command = draw(st.sampled_from(sorted(_NUMERIC_FLAGS)))
    argv = [command, "--epochs", draw(st.sampled_from(["1", "2"]))]
    if command == "evaluate":
        argv += ["--sample_num", draw(st.sampled_from(["1", "2"]))]
    for flag in draw(st.lists(st.sampled_from(_NUMERIC_FLAGS[command]), min_size=1, max_size=2,
                              unique=True)):
        argv += [f"--{flag}", draw(st.sampled_from(_EDGE_VALUES))]
    return argv


def run_captured(argv):
    """main(argv) in process: its exit code, the lines a user would see on
    stderr (the package's log records at the CLI's INFO level and text
    written to sys.stderr) and the warnings raised."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("kgexplain")
    level, propagate = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False  # no other handler sees them, wherever it writes
    err = io.StringIO()
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        logger.propagate = propagate
    return code, [r.getMessage() for r in records] + err.getvalue().splitlines(), caught


@settings(max_examples=100, deadline=None)
@given(edge_argv())
# a last step that overflows float32 in the checkpoint, and one that overflows float64
@example(["train", "--epochs", "1", "--lr", "1e308"])
@example(["evaluate", "--epochs", "1", "--sample_num", "1", "--lr", "2", "--gamma", "1e308"])
def test_numeric_flags_at_their_edges_exit_with_one_line(tiny_run, argv):
    with tempfile.TemporaryDirectory() as tmp:
        files = ["--train", str(tiny_run / "train.tsv"), "--out_dir", tmp]
        if argv[0] != "train":
            files += ["--checkpoint", str(tiny_run / "model.plnk")]
        if argv[0] == "explain":
            files += ["--head", "head", "--relation", "target", "--tail", "tail"]
        code, lines, caught = run_captured([*argv, *files])
    assert code in (0, 2, 3, 4)
    assert len(lines) <= 1, lines
    assert not caught, [str(w.message) for w in caught]
