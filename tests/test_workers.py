"""Worker processes: `evaluate` trains its targets' explainers in forked
children (`metrics._fork_map`), one per CPU this process may run on. Its
outputs are the serial run's bytes, its failures the serial run's one line
and exit code, and no child outlives a run. The worker count is set here by
patching `os.sched_getaffinity`, as `taskset` sets it."""

import errno
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kgexplain.metrics as mt
from kgexplain.autodiff import ParamStore
from kgexplain.cli import main
from kgexplain.errors import ContractError, DataError, NumericError, WorkerError
from kgexplain.harness import PlantedConfig
from test_cli import dataset, error_lines, reliant_checkpoint  # noqa: F401 - fixtures
from test_model import _physical_memory

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n): this process may run on n CPUs from now on."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cpus


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked from now on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def second_call_fails(monkeypatch):
    """second_call_fails(name, error): the second call of `os.<name>` from now
    on raises `error`; returns the list of calls made."""
    def patch(name, error):
        calls, real = [], getattr(os, name)

        def call():
            calls.append(name)
            if len(calls) == 2:
                raise error
            return real()

        monkeypatch.setattr(os, name, call)
        return calls
    return patch


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_child(fn):
    """`fn`, run only where the calling process is a forked worker."""
    parent = os.getpid()

    def wrapped(*args, **kwargs):
        if os.getpid() != parent:
            fn()
        return None
    return wrapped


# -- the helper --------------------------------------------------------------------


def test_fork_map_yields_results_in_item_order(cpus, forks):
    cpus(2)

    def job(delay):
        time.sleep(delay)  # later items finish first
        return delay, os.getpid()

    delays = [0.3, 0.2, 0.1, 0.0, 0.05]
    results = list(mt._fork_map(job, delays))
    assert [d for d, _ in results] == delays
    assert [pid for _, pid in results] == forks and os.getpid() not in forks
    assert_no_children()


def test_fork_map_runs_in_this_process_on_one_cpu_or_one_item(cpus, forks):
    cpus(1)
    assert list(mt._fork_map(lambda x: (x, os.getpid()), [1, 2])) == [
        (1, os.getpid()), (2, os.getpid())]
    cpus(2)
    assert list(mt._fork_map(lambda x: (x, os.getpid()), [3])) == [(3, os.getpid())]
    assert forks == []


def test_closing_the_generator_kills_and_reaps_every_child(cpus, forks):
    cpus(2)
    results = mt._fork_map(lambda x: time.sleep(x) or x, [0.0, 60.0, 60.0])
    t0 = time.perf_counter()
    assert next(results) == 0.0
    results.close()
    assert time.perf_counter() - t0 < 30.0
    assert len(forks) == 2
    assert_no_children()


@pytest.mark.parametrize("exc", [NumericError("nan in op 'x'"), DataError("bad row"),
                                 ContractError("k_hop must be >= 1"), MemoryError(),
                                 ValueError("a bug")])
def test_an_exception_in_a_worker_is_raised_at_its_turn(cpus, exc):
    cpus(2)

    def job(i):
        if i in (1, 2):  # the serial run raises item 1's
            raise type(exc)(*exc.args, i)
        return i

    got = []
    with pytest.raises(type(exc)) as err:
        for value in mt._fork_map(job, range(4)):
            got.append(value)
    assert got == [0] and err.value.args == (*exc.args, 1)
    assert_no_children()


@pytest.mark.parametrize("end, how", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    (lambda: os._exit(7), "exited with status 7"),
    # a child that is interrupted still ends in os._exit, not in the caller's stack
    (lambda: (_ for _ in ()).throw(KeyboardInterrupt), "exited with status 1"),
])
def test_a_worker_that_ends_without_a_result_raises_worker_error(cpus, end, how):
    cpus(2)

    def job(i):
        if i == 1:
            end()
        return i

    with pytest.raises(WorkerError, match=f"^worker process [0-9]+ {how} before it sent its "
                                          "result$"):
        list(mt._fork_map(job, range(3)))
    assert_no_children()


@pytest.mark.parametrize("name, error", [
    ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
    ("fork", OSError(errno.ENOMEM, "Cannot allocate memory")),
    ("pipe", OSError(errno.EMFILE, "Too many open files")),
])
def test_a_job_whose_child_cannot_start_runs_in_this_process(cpus, second_call_fails,
                                                              name, error):
    cpus(2)
    calls = second_call_fails(name, error)
    results = list(mt._fork_map(lambda x: (x, os.getpid()), range(4)))
    assert [x for x, _ in results] == [0, 1, 2, 3]
    # item 0 ran in the child started first; no child is started after the failure
    assert results[0][1] != os.getpid()
    assert [pid for _, pid in results[1:]] == [os.getpid()] * 3
    assert len(calls) == 2
    assert_no_children()


def test_a_param_store_pickles_as_one_buffer():
    # a worker sends its models and explainers back pickled
    store = ParamStore({"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2)})
    copy = pickle.loads(pickle.dumps(store))
    assert copy.flat.tobytes() == store.flat.tobytes()
    assert all(np.shares_memory(copy.params[name], copy.flat) for name in copy.params)
    assert all(np.shares_memory(copy.grads[name], copy.grad_flat) for name in copy.grads)


# -- memory ------------------------------------------------------------------------


def test_workers_drop_to_what_physical_memory_holds(cpus, monkeypatch):
    cpus(4)
    _physical_memory(monkeypatch, 1000)
    assert mt._worker_count(9) == 4
    assert mt._worker_count(3) == 3
    assert [mt._worker_count(9, job) for job in (250, 251, 400, 501, 999, 1000, 10**6)] == [
        4, 3, 2, 1, 1, 1, 1]

    def unavailable(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr("os.sysconf", unavailable)
    assert mt._worker_count(9, 10**6) == 4  # no bound where sysconf cannot tell


def test_an_evaluate_job_too_large_for_two_runs_alone(cpus, forks, monkeypatch):
    # power_order 2**31 walks over up to 30 nodes: one job's refusal bound
    # exceeds memory, so the run is serial and refuses as the serial run does
    from kgexplain.explain import ExplainConfig
    from kgexplain.harness import generate_planted, reliant_model

    inst = generate_planted(PlantedConfig(n_entities=30, n_distractors=10, n_context_groups=2))
    model = reliant_model(inst.graph, inst.target)
    cfg = mt.EvalConfig(k_hop=2, explain=ExplainConfig(epochs=1, power_order=2**31))
    cpus(2)
    with pytest.raises(ContractError, match=r"^the walk counts and power steps \(power_order"):
        mt.evaluate_batch(model, inst.graph, [inst.target] * 3, cfg)
    assert forks == []
    assert_no_children()


# -- the CLI -----------------------------------------------------------------------


def evaluate_args(train, ckpt_dir, out):
    # every training triple is a candidate: several targets are explained
    return ["evaluate", "--train", str(train), "--checkpoint", str(ckpt_dir / "model.plnk"),
            "--out_dir", str(out), "--k_hop", "2", "--epochs", "5", "--seed", "3"]


def output_bytes(out: Path) -> dict:
    """Every file under `out`, by relative path; per_target.csv without its
    wall-time column."""
    files = {}
    for p in sorted(out.rglob("*")):
        if p.is_file():
            data = p.read_text()
            if p.name == "per_target.csv":
                lines = [line.split(",") for line in data.splitlines()]
                drop = lines[0].index("wall_time_s")
                data = "\n".join(",".join(c for i, c in enumerate(line) if i != drop)
                                 for line in lines)
            files[str(p.relative_to(out))] = data
    return files


def test_outputs_are_the_same_bytes_with_one_or_two_workers(tmp_path, dataset, reliant_checkpoint,
                                                            cpus, forks):
    train, _ = dataset
    outputs = {}
    for n in (1, 2):
        out = tmp_path / f"workers{n}"
        cpus(n)
        assert main(evaluate_args(train, reliant_checkpoint, out)) == 0
        outputs[n] = output_bytes(out)
        assert_no_children()
    rows = outputs[1]["per_target.csv"].splitlines()
    assert len(rows) >= 3  # a header and at least two targets
    assert len(forks) == len(rows) - 1  # one child per target, with two workers only
    assert outputs[1] == outputs[2]


def test_evaluate_finishes_in_this_process_when_a_child_cannot_start(
        tmp_path, dataset, reliant_checkpoint, cpus, second_call_fails):
    train, _ = dataset
    cpus(1)
    assert main(evaluate_args(train, reliant_checkpoint, tmp_path / "serial")) == 0
    cpus(2)
    calls = second_call_fails("fork", BlockingIOError(errno.EAGAIN,
                                                      "Resource temporarily unavailable"))
    assert main(evaluate_args(train, reliant_checkpoint, tmp_path / "workers")) == 0
    assert len(calls) == 2
    assert_no_children()
    assert output_bytes(tmp_path / "workers") == output_bytes(tmp_path / "serial")


@pytest.mark.parametrize("error, code", [
    (NumericError("non-finite value produced by op 'tes'"), 4),
    (DataError("a data failure"), 3),
    (ContractError("a usage failure"), 2),
    (MemoryError(), 2),
])
def test_a_worker_failure_gives_the_serial_line_and_exit_code(tmp_path, dataset,
                                                              reliant_checkpoint, cpus,
                                                              monkeypatch, caplog, error, code):
    train, _ = dataset

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(mt, "train_explainer", fail)
    lines = {}
    for n in (1, 2):
        cpus(n)
        caplog.clear()
        assert main(evaluate_args(train, reliant_checkpoint, tmp_path / f"workers{n}")) == code
        lines[n] = error_lines(caplog)
        assert_no_children()
    assert len(lines[1]) == 1 and lines[1] == lines[2]


def test_a_worker_that_dies_gives_one_line(tmp_path, dataset, reliant_checkpoint, cpus,
                                           monkeypatch, caplog):
    train, _ = dataset
    monkeypatch.setattr(mt, "train_explainer",
                        in_child(lambda: os.kill(os.getpid(), signal.SIGKILL)))
    cpus(2)
    assert main(evaluate_args(train, reliant_checkpoint, tmp_path / "o")) == 2
    [line] = error_lines(caplog)
    assert line.startswith("evaluate: worker process ")
    assert line.endswith(" was killed by signal 9 before it sent its result")
    assert_no_children()


# -- one BLAS thread -----------------------------------------------------------------

BLAS_CHILD = r"""
import hashlib
import numpy as np
from kgexplain import autodiff as ad
from kgexplain.explain import (ExplainConfig, ExplainJob, init_tes, prepare_computation_graph,
                               train_explainer)
from kgexplain.kgraph import KnowledgeGraph, TargetTriple
from kgexplain.model import KgcModel

rng = np.random.default_rng(5)
n = 300
triples = np.unique(np.stack([rng.integers(0, n, 7000), rng.integers(0, 6, 7000),
                              rng.integers(0, n, 7000)], axis=1), axis=0)
g = KnowledgeGraph(n, 6, triples[:, 0], triples[:, 1], triples[:, 2])
target = TargetTriple(*(int(x) for x in triples[0]))
gc = prepare_computation_graph(g, target, 2)
assert gc.num_edges >= 5000, gc.num_edges
model = KgcModel(n, 6, dim=16, seed=1)
cfg = ExplainConfig(epochs=10)
job = ExplainJob(model, gc, target, [cfg])
tes = init_tes(cfg.combine_mode, model.dim, cfg.seed, 1)
with ad.Tape() as tape:
    ad.backward(tape, ad.sumall(job.objective(tes, tape)[0]))
result = train_explainer(model, gc, target, cfg)
for data in (tes.grad_flat.tobytes(), result.mask.values.tobytes(),
             repr(result.loss_trace).encode()):
    print(hashlib.sha256(data).hexdigest())
"""


def test_outputs_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits TesOp's weight-gradient products (inner dimension: the
    # edge count) across its threads; the package runs it on one
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", BLAS_CHILD], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert len(digests[0]) == 3
    for label, one, two in zip(("TES gradient", "mask", "loss trace"), *digests):
        assert one == two, label
