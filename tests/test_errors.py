"""Every settings refusal goes through one of the three rules in
`kgexplain.errors`: its message names the setting and its value, NaN is
refused by every numeric bound, and the CLI maps its error class to the
documented exit code with one line."""

import argparse
import types

import numpy as np
import pytest

from kgexplain import cli
from kgexplain.autodiff import ParamStore, finite_diff_check
from kgexplain.errors import ContractError, DataError
from kgexplain.explain import EdgeScoreMatrix, ExplainConfig, generate_paths, init_tes
from kgexplain.harness import PlantedConfig, SuiteConfig
from kgexplain.kgraph import (
    ComputationGraph,
    TargetTriple,
    adjacency_power_row,
    check_ego_settings,
)
from kgexplain.metrics import EvalConfig
from kgexplain.model import ModelConfig

EXIT = {ContractError: (2, "usage error: "), DataError: (3, "")}


def _gc():
    return ComputationGraph([0, 1, 2], [0, 1], [0, 0], [1, 2], 0, 2)


def _paths(num_paths):
    gc = _gc()
    generate_paths(gc, EdgeScoreMatrix.constant(gc, 0.5), TargetTriple(0, 0, 2), num_paths)


def _step(step):
    finite_diff_check(lambda store, tape: 0.0, ParamStore({"w": np.zeros(1)}), step=step)


# (name, refuse(value), a refused value, error class, message with {} for the value);
# each numeric bound also refuses NaN
BOUNDS = [
    ("explain.epochs", lambda v: ExplainConfig(epochs=v).validate(), 0, ContractError,
     "epochs must be >= 1, got {}"),
    ("explain.power_order", lambda v: ExplainConfig(power_order=v).validate(), 1, ContractError,
     "power_order must be >= 2, got {}"),
    ("explain.gamma", lambda v: ExplainConfig(gamma=v).validate(), -1.0, ContractError,
     "gamma must be >= 0, got {}"),
    ("explain.lr", lambda v: ExplainConfig(lr=v).validate(), 0.0, ContractError,
     "lr must be positive, got {}"),
    ("explain.seed", lambda v: ExplainConfig(seed=v).validate(), -1, ContractError,
     "seed must be >= 0, got {}"),
    ("explain.num_paths", lambda v: ExplainConfig(num_paths=v).validate(), 0, ContractError,
     "num_paths must be >= 1, got {}"),
    ("generate_paths.num_paths", _paths, 0, ContractError, "num_paths must be >= 1, got {}"),
    ("model.dim", lambda v: ModelConfig(dim=v).validate(), 1, ContractError,
     "embedding dim must be >= 2, got {}"),
    ("model.layers", lambda v: ModelConfig(layers=v).validate(), 0, ContractError,
     "layers must be >= 1, got {}"),
    ("model.bases", lambda v: ModelConfig(bases=v).validate(), 0, ContractError,
     "bases must be >= 1, got {}"),
    ("model.epochs", lambda v: ModelConfig(epochs=v).validate(), 0, ContractError,
     "epochs must be >= 1, got {}"),
    ("model.negatives", lambda v: ModelConfig(negatives=v).validate(), 0, ContractError,
     "negatives must be >= 1, got {}"),
    ("model.lr", lambda v: ModelConfig(lr=v).validate(), -0.5, ContractError,
     "lr must be positive, got {}"),
    ("model.seed", lambda v: ModelConfig(seed=v).validate(), -1, ContractError,
     "seed must be >= 0, got {}"),
    ("eval.sample_num", lambda v: EvalConfig(sample_num=v).validate(), 0, ContractError,
     "sample_num must be >= 1, got {}"),
    ("eval.seed", lambda v: EvalConfig(seed=v).validate(), -1, ContractError,
     "seed must be >= 0, got {}"),
    ("instance.n_planted_paths", lambda v: PlantedConfig(n_planted_paths=v).validate(), 0,
     DataError, "n_planted_paths must be >= 1, got {}"),
    ("instance.n_distractors", lambda v: PlantedConfig(n_distractors=v).validate(), -1,
     DataError, "n_distractors must be >= 0, got {}"),
    ("instance.n_decoy_paths", lambda v: PlantedConfig(n_decoy_paths=v).validate(), -1,
     DataError, "n_decoy_paths must be >= 0, got {}"),
    ("instance.n_context_groups", lambda v: PlantedConfig(n_context_groups=v).validate(), -1,
     DataError, "n_context_groups must be >= 0, got {}"),
    ("suite.n_instances", lambda v: SuiteConfig(n_instances=v).validate(), 0, DataError,
     "n_instances must be >= 1, got {}"),
    ("suite.base_seed", lambda v: SuiteConfig(base_seed=v).validate(), -1, ContractError,
     "base_seed must be >= 0, got {}"),
    ("ego.hops", lambda v: check_ego_settings(hops=v), 0, ContractError,
     "hops must be >= 1, got {}"),
    ("ego.k_core", lambda v: check_ego_settings(k_core=v), -1, ContractError,
     "k_core must be >= 0, got {}"),
    ("ego.max_nodes", lambda v: check_ego_settings(max_nodes=v), 1, ContractError,
     "max_nodes must be >= 2, got {}"),
    ("adjacency_power_row.max_len", lambda v: adjacency_power_row(_gc(), 0, v), 0,
     ContractError, "max_len must be >= 1, got {}"),
    ("finite_diff_check.step", _step, 0.0, ContractError,
     "finite-difference step must be positive, got {}"),
]

OTHERS = [
    ("explain.lr", lambda v: ExplainConfig(lr=v).validate(), float("inf"), ContractError,
     "lr must be finite, got {}"),
    ("model.lr", lambda v: ModelConfig(lr=v).validate(), float("inf"), ContractError,
     "lr must be finite, got {}"),
    ("finite_diff_check.step", _step, float("inf"), ContractError,
     "finite-difference step must be finite, got {}"),
    ("explain.combine_mode", lambda v: ExplainConfig(combine_mode=v).validate(), "sum",
     ContractError, "combine_mode must be one of ('concatenation', 'euclidean'), got {!r}"),
    ("init_tes.combine_mode", lambda v: init_tes(v, 4), "sum", ContractError,
     "combine_mode must be one of ('concatenation', 'euclidean'), got {!r}"),
    ("model.decoder", lambda v: ModelConfig(decoder=v).validate(), "complex", ContractError,
     "decoder must be one of ('transe', 'distmult'), got {!r}"),
    ("eval.threshold_rule", lambda v: EvalConfig(threshold_rule=v).validate(), "rank2",
     ContractError, "threshold_rule must be one of ('prob', 'rank1'), got {!r}"),
    ("suite.model_source", lambda v: SuiteConfig(model_source=v).validate(), "bogus",
     DataError, "model_source must be one of ('trained', 'reliant'), got {!r}"),
]


def _cases(table, *more):
    return [pytest.param(refuse, value, error, message.format(value), id=f"{name}={value}")
            for name, refuse, bad, error, message in table for value in (bad, *more)]


CASES = _cases(BOUNDS, float("nan")) + _cases(OTHERS)


@pytest.mark.parametrize("refuse, value, error, message", CASES)
def test_each_refusal_names_its_value_and_keeps_its_exit_code(monkeypatch, caplog, refuse,
                                                              value, error, message):
    with pytest.raises(error) as exc:
        refuse(value)
    assert type(exc.value) is error and str(exc.value) == message
    run = argparse.Namespace(command="refuse", func=lambda args: refuse(value))
    monkeypatch.setattr(cli, "build_parser",
                        lambda: types.SimpleNamespace(parse_args=lambda argv: run))
    code, prefix = EXIT[error]
    assert cli.main([]) == code
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        prefix + message]


def test_no_cap_is_no_value():
    check_ego_settings(max_nodes=None)
    EvalConfig(max_nodes=None).validate()
