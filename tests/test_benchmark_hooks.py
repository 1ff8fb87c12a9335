"""The benchmark's contract with the package: every name perfbench's tracer
wraps, and every name its workloads call directly, still exists."""

import importlib.util
from pathlib import Path

import kgexplain.explain as ex
import kgexplain.harness as hs
import kgexplain.kgraph as kg
import kgexplain.metrics as mt
import kgexplain.model as md

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# (module, names) that perfbench/workloads.py calls without the tracer
WORKLOAD_NAMES = [
    (hs, ("run_suite", "SuiteConfig", "MODES", "generate_planted")),
    (mt, ("evaluate_batch", "EvalConfig")),
    (md, ("score_target_masked", "load_checkpoint")),
    (ex, ("train_explainer", "generate_paths", "prepare_computation_graph", "ExplainConfig")),
    (kg, ("load_triples", "TargetTriple")),
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_over_the_package():
    # getattr raises AttributeError when a name the workloads call is gone
    originals = {(mod, name): getattr(mod, name) for mod, names in WORKLOAD_NAMES for name in names}
    tracer = load_tracer().Tracer()
    try:
        tracer.install()  # AttributeError when a name it wraps is gone
        for mod, name in originals:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    finally:
        tracer.uninstall()
    assert all(getattr(mod, name) is obj for (mod, name), obj in originals.items())
