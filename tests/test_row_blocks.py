"""`TesOp`'s row blocks: on an ego-graph of at least two blocks' rows the
op runs its row-wise work in blocks, one per CPU, the first in the calling
thread and the others on helper threads. Its scores, gradients, failures
and the explainer's outputs are those of one block, bit for bit, whatever
the CPU count. The CPU count is set here by patching `os.sched_getaffinity`,
as `taskset` sets it, or in child interpreters by `os.sched_setaffinity`."""

import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import kgexplain.explain as ex
import kgexplain.parallel as par
from kgexplain import autodiff as ad
from kgexplain.cli import main
from kgexplain.errors import NumericError
from kgexplain.kgraph import KnowledgeGraph, TargetTriple, load_triples
from kgexplain.model import KgcModel, save_checkpoint
from test_cli import error_lines
from test_workers import assert_no_children, cpus, output_bytes  # noqa: F401 - fixture

TESTS = str(Path(__file__).resolve().parent)
SRC = str(Path(TESTS).parent / "src")


def random_kg(seed, n, m, relations=6):
    """A random KG whose 2-hop ego-graphs hold nearly all of its m triples."""
    rng = np.random.default_rng(seed)
    triples = np.unique(np.stack([rng.integers(0, n, m), rng.integers(0, relations, m),
                                  rng.integers(0, n, m)], axis=1), axis=0)
    return KnowledgeGraph(n, relations, triples[:, 0], triples[:, 1], triples[:, 2]), triples


def ego_case(seed, n, m):
    """(KG, target, its 2-hop ego-graph) of `random_kg`."""
    g, triples = random_kg(seed, n, m)
    target = TargetTriple(*(int(x) for x in triples[0]))
    return g, target, ex.prepare_computation_graph(g, target, 2)


# -- the block rule ------------------------------------------------------------------


@pytest.mark.parametrize("rows", [1, 2047, 4095, 4096, 4097, 6953, 8960, 12_288, 100_003])
@pytest.mark.parametrize("n_cpus", [1, 2, 3, 8])
def test_row_blocks_follow_the_block_rule(cpus, rows, n_cpus):
    cpus(n_cpus)
    bounds = ex._row_blocks(rows)
    assert bounds[0] == 0 and bounds[-1] == rows
    assert len(bounds) - 1 == max(1, min(n_cpus, rows // ex.ROW_BLOCK_MIN))
    if len(bounds) > 2:
        assert all(b % ex.ROW_ALIGN == 0 for b in bounds[1:-1])
        assert all(b - a >= ex.ROW_BLOCK_MIN for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 8])
def test_weight_gradient_pieces_follow_the_piece_rule(blocks):
    for rows in range(200):
        bounds = ex._pieces(rows, blocks)
        assert bounds[0] == 0 and bounds[-1] == rows and bounds == sorted(bounds)
        assert len(bounds) - 1 <= blocks, rows
        if rows >= blocks * ex.PIECE_ALIGN:
            assert len(bounds) - 1 == blocks, rows
        if rows < 2 * ex.PIECE_ALIGN:
            assert bounds == [0, rows]
        else:
            assert all(b % ex.PIECE_ALIGN == 0 for b in bounds[1:-1]), rows
            assert all(b - a >= ex.PIECE_ALIGN for a, b in zip(bounds, bounds[1:])), rows


@pytest.mark.parametrize("combine, dim, pieces", [
    ("concatenation", 16, {64: [0, 32, 64], 48: [0, 24, 48]}),
    ("concatenation", 8, {64: [0, 32, 64], 24: [0, 8, 24]}),
    ("concatenation", 4, {64: [0, 32, 64], 12: [0, 12]}),
    ("euclidean", 16, {64: [0, 32, 64], 3: [0, 3]}),
])
def test_the_blocked_backward_splits_each_wide_weight_gradient(cpus, monkeypatch, combine, dim,
                                                               pieces):
    """At two CPUs the layer-2 weight gradient (64 rows) and the layer-1 one
    (a row per TES input column) are cut into a piece per block; one that
    is too narrow for two pieces stays whole."""
    xe, xt, tes, upstream = tes_instance(6953, combine, dim=dim)
    real, seen = ex._pieces, {}

    def recorded(rows, blocks):
        seen[rows] = real(rows, blocks)
        return seen[rows]

    monkeypatch.setattr(ex, "_pieces", recorded)
    cpus(2)
    tes_pass(xe, xt, tes, upstream)
    assert seen == pieces


# -- the same bits at any CPU count ----------------------------------------------------


def tes_pass(xe, xt, tes, upstream):
    """Scores and the six gradients, as bytes, of one `TesOp` pass."""
    op = ex.TesOp(xe, xt)
    with ad.Tape() as tape:
        scores = op(tape.params(tes))
        ad.backward(tape, ad.sumall(ad.mul(scores, upstream)))
    out = scores.value.tobytes(), tes.grad_flat.tobytes()
    tes.zero_grads()
    return out


def tes_instance(rows, combine, batch=3, dim=16, seed=0):
    """Random TES inputs, per-row weights that differ, and an upstream adjoint."""
    rng = np.random.default_rng(seed)
    width = 3 * dim if combine == "concatenation" else 3
    xe = rng.normal(size=(rows, width))
    xt = rng.normal(size=3 * dim) if combine == "concatenation" else None
    tes = ex.init_tes(combine, dim, seed, batch)
    tes.flat += rng.normal(0.0, 0.05, tes.flat.size)
    return xe, xt, tes, rng.normal(size=(batch, rows))


@pytest.mark.parametrize("rows", [4096, 6953, 7436, 9_999])
@pytest.mark.parametrize("combine", ["concatenation", "euclidean"])
def test_tes_scores_and_gradients_do_not_depend_on_the_blocks(cpus, rows, combine):
    xe, xt, tes, upstream = tes_instance(rows, combine)
    cpus(1)
    whole = tes_pass(xe, xt, tes, upstream)
    for n in (2, 3, 4):
        cpus(n)
        assert len(ex._row_blocks(rows)) - 1 == min(n, rows // ex.ROW_BLOCK_MIN)
        assert tes_pass(xe, xt, tes, upstream) == whole, n


def test_more_blocks_than_cores_under_a_short_switch_interval(cpus):
    """Four blocks, three of them on the helper pool (which runs some one
    after another on a machine of fewer than three CPUs), with the
    interpreter switching threads as often as it can: every pass is the
    one-block bits."""
    xe, xt, tes, upstream = tes_instance(9_999, "concatenation")
    cpus(1)
    whole = tes_pass(xe, xt, tes, upstream)
    cpus(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 2.0:
            assert tes_pass(xe, xt, tes, upstream) == whole
    finally:
        sys.setswitchinterval(interval)


def cpu_flags():
    """The flags /proc/cpuinfo lists for this machine's first CPU."""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        return next((set(line.split(":", 1)[1].split()) for line in fh
                     if line.startswith("flags")), set())


# The kernels OpenBLAS lets OPENBLAS_CORETYPE choose, and the CPU flags each
# needs to run.
CORETYPES = {"SkylakeX": {"avx512f"}, "Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"},
             "Nehalem": {"sse4_2"}, "Prescott": {"pni"}}

CORETYPE_CHILD = r"""
import ctypes
import os

import numpy as np

from kgexplain import explain as ex
from test_row_blocks import tes_instance, tes_pass

libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
lib = ctypes.CDLL(os.path.join(libs, next(n for n in sorted(os.listdir(libs)) if "openblas" in n)))
core = next(getattr(lib, symbol) for symbol in ("scipy_openblas_get_corename64_",
                                                "scipy_openblas_get_corename")
            if hasattr(lib, symbol))
core.restype = ctypes.c_char_p
print(core().decode())
cases = [(rows, combine, dim, batch) for rows in (4096, 6953, 9_999)
         for combine, dim in [("concatenation", d) for d in (4, 8, 16, 32)] + [("euclidean", 8)]
         for batch in (1, 3)]
for rows, combine, dim, batch in cases:
    xe, xt, tes, upstream = tes_instance(rows, combine, batch=batch, dim=dim)
    os.sched_getaffinity = lambda pid: {0}
    whole = tes_pass(xe, xt, tes, upstream)
    for n in (2, 3, 4):
        os.sched_getaffinity = lambda pid, n=n: set(range(n))
        assert len(ex._row_blocks(rows)) - 1 == min(n, rows // ex.ROW_BLOCK_MIN)
        if tes_pass(xe, xt, tes, upstream) != whole:
            print(f"differs: {rows} rows, {combine} dim={dim}, batch {batch}, {n} CPUs")
print(f"compared {len(cases)} cases")
"""


@pytest.mark.skipif(sys.platform != "linux" or os.uname().machine != "x86_64",
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_blocks_and_pieces_keep_their_bits_under_each_blas_kernel():
    """Under each OpenBLAS kernel this CPU can run, `TesOp`'s scores and six
    gradients at 2, 3 and 4 CPUs are those of one block. Each kernel blocks
    a product's rows in its own way, so this guards the 64-row alignment of
    the row blocks and the 8-row alignment of the weight gradients' pieces
    on more than the kernel this machine picks."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    if not any("scipy_openblas" in p.name for p in libs.glob("*")):
        pytest.skip("needs numpy's bundled scipy-openblas")
    flags = cpu_flags()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, TESTS])}
    kernels = [name for name, needs in CORETYPES.items() if needs <= flags]
    assert "Prescott" in kernels
    cores = []
    for name in kernels:
        done = subprocess.run([sys.executable, "-c", CORETYPE_CHILD],
                              env={**env, "OPENBLAS_CORETYPE": name},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (name, done.stderr)
        lines = done.stdout.splitlines()
        cores.append(lines[0])
        assert lines[1:] == ["compared 30 cases"], (name, lines)
    assert len(set(cores)) == len(kernels), cores  # each child ran the kernel it asked for


AFFINITY_CHILD = r"""
import hashlib
import os
import sys

if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from kgexplain import explain as ex
from kgexplain.model import KgcModel
from test_row_blocks import ego_case

modes = {"full": (True, True), "path_off": (False, True), "mi_off": (True, False)}
cases = [("concatenation dim=4", 0, 300, 7000, 4, "concatenation", ["full"]),
         ("concatenation dim=16", 3, 400, 9000, 16, "concatenation", ["full"]),
         ("euclidean", 1, 400, 9000, 8, "euclidean", ["full"]),
         ("ablation batch", 0, 300, 7000, 8, "concatenation", list(modes))]
for label, seed, n, m, dim, combine, names in cases:
    g, target, gc = ego_case(seed, n, m)
    model = KgcModel(g.num_entities, g.num_relations, dim=dim, seed=seed)
    configs = [ex.ExplainConfig(epochs=3, combine_mode=combine, enable_path_loss=modes[name][0],
                                enable_mi_loss=modes[name][1]) for name in names]
    for name, result in zip(names, ex.train_explainers(model, gc, target, configs)):
        h = hashlib.sha256()
        for part in (result.mask.values, result.mask.provenance, repr(result.loss_trace).encode(),
                     result.tes.flat):
            h.update(bytes(part))
        print(f"{label} {name}|{gc.num_edges}|{len(ex._row_blocks(gc.num_edges)) - 1}|"
              f"{h.hexdigest()}")
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to run in")
def test_explainer_outputs_are_the_same_bytes_on_one_cpu_and_on_all():
    runs = {}
    for cpu_set in ("one", "all"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, TESTS])}
        done = subprocess.run([sys.executable, "-c", AFFINITY_CHILD, cpu_set], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs[cpu_set] = [line.split("|") for line in done.stdout.splitlines()]
    assert len(runs["one"]) == 6  # three lone configs and a batch of three
    edges = {int(line[1]) for line in runs["one"]}
    assert min(edges) >= 2 * ex.ROW_BLOCK_MIN and any(e % ex.ROW_ALIGN for e in edges)
    assert {line[2] for line in runs["one"]} == {"1"}
    assert all(int(line[2]) >= 2 for line in runs["all"])
    for one, every in zip(runs["one"], runs["all"]):
        assert (one[0], one[1], one[3]) == (every[0], every[1], every[3]), one[0]


# -- the helper threads ---------------------------------------------------------------


def helper_threads():
    """How many helper threads of `parallel._together` are alive."""
    return sum(t.name.startswith("tes-rows") for t in threading.enumerate())


def test_one_helper_pool_serves_every_cpu_count(cpus, monkeypatch):
    """The helper a pass at two CPUs started serves a pass at four and one
    at two again: helpers are neither replaced nor started past the ones a
    pass ran at once."""
    xe, xt, tes, upstream = tes_instance(9_999, "concatenation")
    cpus(1)
    whole = tes_pass(xe, xt, tes, upstream)
    monkeypatch.setattr(par, "_helpers", None)  # helpers of this test's own
    earlier = helper_threads()
    started, helpers = [], []
    for n in (2, 4, 2):
        cpus(n)
        assert tes_pass(xe, xt, tes, upstream) == whole, n
        started.append(list(par._helpers[1]))
        helpers.append(helper_threads() - earlier)
    assert [len(jobs) for jobs in started] == helpers == [1, 3, 3]
    assert started[0] == started[1][:1] and started[1] == started[2]


ONE_BLOCK_CHILD = r"""
import os
import threading

from kgexplain import explain as ex, parallel
from kgexplain.model import KgcModel
from test_row_blocks import ego_case

for m in (1500, 7000):
    g, target, gc = ego_case(0, 300, m)
    model = KgcModel(g.num_entities, g.num_relations, dim=8, seed=0)
    ex.train_explainer(model, gc, target, ex.ExplainConfig(epochs=2))
    print(len(os.sched_getaffinity(0)), gc.num_edges, threading.active_count() - 1,
          len(parallel._helpers[1]) if parallel._helpers else 0)
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to run in")
def test_one_block_starts_no_thread():
    """On every CPU this process has, an ego-graph below two blocks' rows
    trains with no thread but the main one; a larger one then starts
    helpers, at most one per block but the first."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, TESTS])}
    done = subprocess.run([sys.executable, "-c", ONE_BLOCK_CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    (n_cpus, small, threads, started), (_, large, helpers, helpers_started) = (
        [int(x) for x in line.split()] for line in done.stdout.splitlines())
    assert small < 2 * ex.ROW_BLOCK_MIN <= large
    assert (threads, started) == (0, 0)
    assert 1 <= helpers <= min(n_cpus, large // ex.ROW_BLOCK_MIN) - 1
    assert helpers_started == helpers


@pytest.fixture
def thread_starts(monkeypatch):
    """thread_starts(refused): from now on `parallel` starts its helpers
    afresh, and the n-th call of `threading.Thread.start` raises
    RuntimeError, as when no thread can be started, for every n that
    `refused(n)` holds true; returns the list of calls made."""
    def patch(refused):
        calls, real = [], threading.Thread.start

        def start(thread):
            calls.append(thread.name)
            if refused(len(calls)):
                raise RuntimeError("can't start new thread")
            return real(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(par, "_helpers", None)
        return calls
    return patch


def counted_calls(n, failing=()):
    """(n calls, the order they ran in, the thread each last ran in, the number of
    runs of each): call k returns k, or raises ValueError(k) for k in `failing`."""
    order, threads, runs = [], {}, [0] * n

    def call(k):
        order.append(k)
        threads[k] = threading.get_ident()
        runs[k] += 1  # each k only ever runs in one thread at a time
        if k in failing:
            raise ValueError(k)
        return k

    return [lambda k=k: call(k) for k in range(n)], order, threads, runs


def test_a_call_whose_helper_cannot_start_runs_once_in_this_thread(cpus, thread_starts):
    """Four CPUs, and the second thread start fails: the first helper runs
    call 1, and calls 2 and 3 run here after call 0, each exactly once (a
    late second run would show after the sleep). The next call reuses that
    helper and starts the two it lacks."""
    cpus(4)
    starts = thread_starts(lambda n: n == 2)
    calls, order, threads, runs = counted_calls(4)
    assert par._together(*calls) == [0, 1, 2, 3]
    time.sleep(0.2)
    assert runs == [1, 1, 1, 1] and len(starts) == 2
    here, helper = threading.get_ident(), threads[1]
    assert threads[0] == threads[2] == threads[3] == here != helper
    assert order.index(0) < order.index(2) < order.index(3)
    assert par._together(*calls) == [0, 1, 2, 3]
    time.sleep(0.2)
    assert runs == [2, 2, 2, 2] and len(starts) == 4
    assert threads[0] == here and threads[1] == helper
    assert len({here, *(threads[k] for k in (1, 2, 3))}) == 4


@pytest.mark.parametrize("failing, raised, ran", [
    ((2, 3), 2, [1, 1, 1, 1]),  # two calls here: the first one's
    ((1, 2), 1, [1, 1, 1, 1]),  # a helper's before a later call's here
    ((0, 3), 0, [1, 1, 0, 0]),  # `here`'s, after the helper ends, and the rest never start
])
def test_a_call_run_here_for_its_helper_raises_at_its_turn(cpus, thread_starts, failing, raised,
                                                           ran):
    cpus(4)
    thread_starts(lambda n: n == 2)
    calls, _, _, runs = counted_calls(4, failing)
    with pytest.raises(ValueError) as err:
        par._together(*calls)
    assert err.value.args == (raised,)
    time.sleep(0.2)
    assert runs == ran


# -- failures on the helper threads ----------------------------------------------------


def failure(fn):
    """The NumericError text `fn()` raises, with any warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as info:
            fn()
    return str(info.value)


def forward_failure(xe, xt, tes):
    return failure(lambda: ex.TesOp(xe, xt)(tes.params))


@pytest.mark.parametrize("combine", ["concatenation", "euclidean"])
def test_a_non_finite_layer_in_a_later_block_fails_as_the_whole_op_does(cpus, combine):
    rows = 7436
    xe, xt, tes, _ = tes_instance(rows, combine, batch=1)
    tes.params["w1"][...] = 0.5
    tes.params["w2"][...] = 0.5
    cases = {}
    nan = xe.copy()
    nan[rows - 1, 0] = np.nan  # in the last block only
    cases["tes_mlp:layer1"] = nan
    # layer 1 about 1e307, so that its sum over the block overflows (a warning
    # without the helper's own error state), and so does layer 2
    big = xe.copy()
    big[rows - 8:] = 2e307 / xe.shape[1]
    cases["tes_mlp:layer2"] = big
    # a layer-2 overflow in the first block, a NaN in the second: layer 1 is
    # the first layer that is not finite
    both = big.copy()
    both[:8] = big[-1]
    both[rows - 1, 0] = np.nan
    cases["tes_mlp:layer1 first"] = both
    for name, inputs in cases.items():
        texts = []
        for n in (1, 2):
            cpus(n)
            texts.append(forward_failure(inputs, xt, tes))
        op = name.split()[0]
        assert texts == [f"non-finite value produced by op '{op}'"] * 2, name


@pytest.mark.parametrize("edit, op", [
    (lambda tes, g: g.__setitem__((0, -1), np.nan), "tes_mlp:layer3 adjoint"),
    (lambda tes, g: (g.__setitem__((0, -1), 1e300), tes.params["w3"].__setitem__(..., 1e10)),
     "tes_mlp:layer2 adjoint"),
    (lambda tes, g: (g.__setitem__((0, -1), 1e100), tes.params["w2"].__setitem__(..., 1e307)),
     "tes_mlp:layer1 adjoint"),
])
def test_a_non_finite_adjoint_in_a_later_block_fails_as_the_whole_op_does(cpus, edit, op):
    """`edit(tes, g)` sets the upstream adjoint of the last row, and weights
    that the backward reads, between the forward and the backward."""
    rows = 7436
    texts = []
    for n in (1, 2):
        cpus(n)
        xe, xt, tes, _ = tes_instance(rows, "concatenation", batch=1)
        with ad.Tape() as tape:
            scores = ex.TesOp(xe, xt)(tape.params(tes))
            g = np.zeros(scores.shape)
            edit(tes, g)
            texts.append(failure(lambda: scores.bw(g)))
    assert texts == [f"non-finite value produced by op '{op}'"] * 2


def huge_hidden_unit(tes, xe):
    """Layer-1 units 56-63 of the third row about 1e150, which layer 2 does
    not read: the forward is finite, and z1ᵀg2 overflows only in those rows
    of the layer-2 weight gradient, the last piece, a helper's."""
    tes.params["w1"][2, :, 56:] = 1e150
    tes.params["w2"][2, 56:] = 0.0


@pytest.mark.parametrize("before, after, text", [
    # the layer-2 adjoint, only in the last edge of the third row
    (None, lambda tes, g, xe: (g.__setitem__((2, -1), 1e300),
                               tes.params["w3"].__setitem__(2, 1e10)),
     "non-finite value produced by op 'tes_mlp:layer2 adjoint'"),
    # the layer-1 adjoint, only there and in units 56-63, the last piece of
    # the layer-2 weight gradient
    (None, lambda tes, g, xe: (g.__setitem__((2, -1), 1e10),
                               tes.params["w2"].__setitem__((2, slice(56, None)), 1e308)),
     "non-finite value produced by op 'tes_mlp:layer1 adjoint'"),
    # finite adjoints, and a weight gradient that overflows in a helper's piece
    (huge_hidden_unit, lambda tes, g, xe: g.__setitem__(2, 1e200),
     "NaN/Inf adjoint flowing into op 'param:w2'"),
    (None, lambda tes, g, xe: (g.__setitem__(..., 1.0), xe.__setitem__((slice(-100, None), -1),
                                                                        1e308)),
     "NaN/Inf adjoint flowing into op 'param:w1'"),
])
def test_a_non_finite_in_a_helpers_piece_or_rows_fails_as_the_whole_op_does(cpus, before, after,
                                                                            text):
    """A batch of three at 1-4 CPUs (one to three row blocks and pieces).
    `before(tes, xe)` runs before the forward, `after(tes, g, xe)` between
    the forward and the backward, and sets the upstream adjoint `g`. The
    layer-1 weight gradient's last row, in its last piece, is xe's last
    column times the layer-1 adjoint."""
    texts = []
    for n in (1, 2, 3, 4):
        cpus(n)
        xe, xt, tes, _ = tes_instance(7436, "concatenation")
        if before is not None:
            before(tes, xe)
        with ad.Tape() as tape:
            scores = ex.TesOp(xe, xt)(tape.params(tes))
            g = np.zeros(scores.shape)
            after(tes, g, xe)
            texts.append(failure(lambda: ad.backward(tape, ad.sumall(ad.mul(scores, g)))))
    assert texts == [text] * 4


def test_an_interrupt_or_error_leaves_no_stale_result(cpus, monkeypatch):
    rows = 7436
    xe, xt, tes, upstream = tes_instance(rows, "concatenation")
    cpus(1)
    whole = tes_pass(xe, xt, tes, upstream)
    cpus(2)
    real, main_thread = ex._finite_rows, threading.main_thread()
    for error in (KeyboardInterrupt, ValueError):
        helper_checks = []

        def check(y):
            if threading.current_thread() is main_thread:
                if error is KeyboardInterrupt:
                    raise KeyboardInterrupt
            else:
                time.sleep(0.1)  # still running when the calling thread raises
                if error is ValueError:
                    raise ValueError("in a helper")
                helper_checks.append(y.shape)
            return real(y)

        monkeypatch.setattr(ex, "_finite_rows", check)
        with pytest.raises(error):
            tes_pass(xe, xt, tes, upstream)
        if error is KeyboardInterrupt:
            assert len(helper_checks) == 3  # the helper's block ended before the op raised
        tes.zero_grads()
        monkeypatch.setattr(ex, "_finite_rows", real)
        assert tes_pass(xe, xt, tes, upstream) == whole


def test_the_cli_exits_4_for_a_nan_in_a_later_block(tmp_path, cpus, monkeypatch, caplog):
    data, ckpt = big_dataset(tmp_path)
    g, triples = random_kg(0, 300, 7000)
    h, r, t = (int(x) for x in triples[0])
    real = ex._tes_inputs

    def with_nan(*args):
        xe, xt = real(*args)
        xe = xe.copy()
        xe[-1, 0] = np.nan
        return xe, xt

    monkeypatch.setattr(ex, "_tes_inputs", with_nan)
    lines = {}
    for n in (1, 2):
        cpus(n)
        caplog.clear()
        assert main(["explain", "--train", str(data), "--checkpoint", str(ckpt), "--out_dir",
                     str(tmp_path / f"cpus{n}"), "--head", f"e{h}", "--relation", f"r{r}",
                     "--tail", f"e{t}", "--k_hop", "2", "--epochs", "2"]) == 4
        lines[n] = error_lines(caplog)
    assert len(lines[1]) == 1 and "tes_mlp:layer1" in lines[1][0] and lines[1] == lines[2]


# -- worker processes ------------------------------------------------------------------


def big_dataset(tmp_path):
    """(train.tsv, model.plnk) for `random_kg(0, 300, 7000)` and a random model."""
    g, _ = random_kg(0, 300, 7000)
    data = tmp_path / "big.tsv"
    data.write_text("".join(f"e{h}\tr{r}\te{t}\n" for h, r, t in g.triples))
    loaded = load_triples(data)
    ckpt = tmp_path / "big.plnk"
    save_checkpoint(KgcModel(loaded.num_entities, loaded.num_relations, dim=8, seed=2), loaded,
                    ckpt)
    return data, ckpt


def test_a_forked_worker_makes_its_own_helpers(tmp_path, cpus):
    """The calling process has helper threads when it forks; a worker that
    trains an ego-graph of two blocks must start its own, or it waits for
    threads that were not copied."""
    data, ckpt = big_dataset(tmp_path)
    g, triples = random_kg(0, 300, 7000)
    test = tmp_path / "test.tsv"
    test.write_text("".join(f"e{h}\tr{r}\te{t}\n" for h, r, t in triples[:6]))
    for h, r, t in triples[:6]:
        gc = ex.prepare_computation_graph(g, TargetTriple(int(h), int(r), int(t)), 2)
        assert gc.num_edges >= 2 * ex.ROW_BLOCK_MIN
    xe, xt, tes, upstream = tes_instance(7436, "concatenation", batch=1)

    def timeout(*_):
        raise TimeoutError("evaluate did not finish")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(120)
    try:
        outputs = {}
        for n in (1, 2):
            cpus(n)
            tes_pass(xe, xt, tes, upstream)  # this process's helpers, for n = 2
            out = tmp_path / f"workers{n}"
            assert main(["evaluate", "--train", str(data), "--checkpoint", str(ckpt), "--test",
                         str(test), "--out_dir", str(out), "--k_hop", "2", "--epochs", "2",
                         "--sample_num", "3", "--seed", "1"]) == 0
            outputs[n] = output_bytes(out)
            assert_no_children()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(outputs[1]["per_target.csv"].splitlines()) >= 3  # at least two targets
    assert outputs[1] == outputs[2]


# -- no thread can start ---------------------------------------------------------------

REFUSED_CHILD = r"""
import os
import sys
import threading


def refuse(thread):
    raise RuntimeError("can't start new thread")


threading.Thread.start = refuse
os.sched_getaffinity = lambda pid: set(range(2))
forks, fork = [], os.fork


def counted():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid


os.fork = counted
from kgexplain.cli import main

code = main(sys.argv[1:])
print(code, len(forks), threading.active_count())
"""


def refusing_threads(args):
    """(exit code, children forked, threads alive at the end) of `kgexplain
    <args>` in a child interpreter at two CPUs, where `threading.Thread.start`
    always raises; its forked workers inherit the patch."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, TESTS])}
    done = subprocess.run([sys.executable, "-c", REFUSED_CHILD, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return [int(x) for x in done.stdout.split()]


def test_explain_runs_in_one_thread_where_no_helper_can_start(tmp_path, cpus):
    data, ckpt = big_dataset(tmp_path)
    g, triples = random_kg(0, 300, 7000)
    h, r, t = (int(x) for x in triples[0])
    gc = ex.prepare_computation_graph(g, TargetTriple(h, r, t), 2)
    assert gc.num_edges >= 2 * ex.ROW_BLOCK_MIN

    def args(out):
        return ["explain", "--train", str(data), "--checkpoint", str(ckpt), "--out_dir", str(out),
                "--head", f"e{h}", "--relation", f"r{r}", "--tail", f"e{t}", "--k_hop", "2",
                "--epochs", "3"]

    cpus(1)
    assert main(args(tmp_path / "one")) == 0
    assert refusing_threads(args(tmp_path / "refused")) == [0, 0, 1]
    assert output_bytes(tmp_path / "refused") == output_bytes(tmp_path / "one")


def test_evaluate_workers_run_in_one_thread_where_no_helper_can_start(tmp_path, cpus):
    data, ckpt = big_dataset(tmp_path)
    _, triples = random_kg(0, 300, 7000)
    test = tmp_path / "test.tsv"
    test.write_text("".join(f"e{h}\tr{r}\te{t}\n" for h, r, t in triples[:6]))

    def args(out):
        return ["evaluate", "--train", str(data), "--checkpoint", str(ckpt), "--test", str(test),
                "--out_dir", str(out), "--k_hop", "2", "--epochs", "2", "--sample_num", "3",
                "--seed", "1"]

    cpus(1)
    assert main(args(tmp_path / "one")) == 0
    assert refusing_threads(args(tmp_path / "refused")) == [0, 3, 1]  # a worker per target
    assert output_bytes(tmp_path / "refused") == output_bytes(tmp_path / "one")
