import os
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import tape_oracles as oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from kgexplain import autodiff as ad
from kgexplain.errors import ContractError, NumericError
from kgexplain.kgraph import ComputationGraph


def grad_of(build, x0):
    """d build(x) / dx at x0 for a scalar-to-scalar build."""
    store = ad.ParamStore({"x": np.array(x0)})
    tape = ad.Tape()
    out = build(tape.param(store, "x"))
    ad.backward(tape, out)
    return float(store.grads["x"])


def test_square_gradient():
    assert grad_of(lambda x: ad.mul(x, x), 3.0) == pytest.approx(6.0)


def test_log_sigmoid_gradient():
    # f(x) = -log(sigmoid(x)), f'(0) = -(1 - sigmoid(0)) = -0.5
    g = grad_of(lambda x: oracles.neg(oracles.log(oracles.sigmoid(x))), 0.0)
    assert g == pytest.approx(-0.5)


PRIMITIVES = [
    ("add", lambda a, b: ad.add(a, b), 2),
    ("sub", lambda a, b: oracles.sub(a, b), 2),
    ("mul", lambda a, b: ad.mul(a, b), 2),
    ("matmul", None, 2),
    ("sigmoid", lambda a: oracles.sigmoid(a), 1),
    ("relu", None, 1),
    ("log", lambda a: oracles.log(ad.add(ad.mul(a, a), 0.5)), 1),
    ("powc", lambda a: oracles.powc(ad.add(ad.mul(a, a), 0.5), 0.7), 1),
    ("norm", lambda a: ad.norm(ad.add(a, 3.0)), 1),
    ("sum", lambda a: ad.sumall(a), 1),
]


@pytest.mark.parametrize("name,build,arity", PRIMITIVES)
def test_primitive_gradients_match_central_differences(name, build, arity):
    rng = np.random.default_rng(hash(name) % 2**32)
    for trial in range(5):
        tensors = {"a": rng.normal(size=(3, 4))}
        if arity == 2:
            tensors["b"] = rng.normal(size=(3, 4))
        store = ad.ParamStore(tensors)

        def loss(s, tape):
            if tape is not None:
                a = tape.param(s, "a")
                b = tape.param(s, "b") if arity == 2 else None
            else:
                a = s.params["a"]
                b = s.params["b"] if arity == 2 else None
            if name == "matmul":
                w = np.arange(12.0).reshape(4, 3) / 6.0
                out = oracles.matmul(oracles.matmul(a, w), b)
                return ad.sumall(ad.mul(out, out))
            if name == "relu":
                # keep inputs away from the kink
                shifted = ad.add(ad.mul(a, a), 0.25)
                return ad.sumall(oracles.relu(shifted))
            inner = build(a) if arity == 1 else build(a, b)
            return ad.sumall(ad.mul(inner, inner)) if np.ndim(ad._val(inner)) else ad.mul(inner, inner)

        report = ad.finite_diff_check(loss, store, step=1e-5, tol=1e-6, floor=1e-3)
        assert report.passed, f"{name}: {report}"


def test_matmul_vector_forms():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 4))
    v = rng.normal(size=4)
    w = rng.normal(size=3)
    store = ad.ParamStore({"A": A})

    def loss(s, tape):
        a = tape.param(s, "A") if tape is not None else s.params["A"]
        mv = oracles.matmul(a, v)     # (3,)
        vm = oracles.matmul(w, a)     # (4,)
        return ad.add(ad.sumall(ad.mul(mv, mv)), ad.sumall(ad.mul(vm, vm)))

    assert ad.finite_diff_check(loss, store, step=1e-6, tol=1e-6).passed


def segment_of(indptr):
    """Each element's segment under the boundaries `indptr`, derived from them:
    the reference for the index the explainer passes to `segment_max`."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def test_gather_scatter_and_segment_max_gradients():
    rng = np.random.default_rng(6)
    idx = np.array([0, 2, 2, 1, 0])
    seg = np.array([0, 2, 5])
    store = ad.ParamStore({"x": rng.normal(size=(3, 2)), "v": rng.normal(size=5)})

    def loss(s, tape):
        if tape is not None:
            x, v = tape.param(s, "x"), tape.param(s, "v")
        else:
            x, v = s.params["x"], s.params["v"]
        g = ad.gather(x, idx)                     # (5, 2)
        agg = oracles.scatter_add(ad.mul(g, g), idx, 3)
        m, _ = ad.segment_max(ad.mul(v, v), seg, segment_of(seg))
        return ad.add(ad.sumall(agg), ad.sumall(m))

    assert ad.finite_diff_check(loss, store, step=1e-6, tol=1e-6).passed


def test_edge_spmv_gradients():
    rng = np.random.default_rng(7)
    src = np.array([0, 0, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 2, 0], dtype=np.int64)
    store = ad.ParamStore({"u": rng.random(3), "vals": rng.random(4)})

    def loss(s, tape):
        if tape is not None:
            u, vals = tape.param(s, "u"), tape.param(s, "vals")
        else:
            u, vals = s.params["u"], s.params["vals"]
        out = oracles.edge_spmv(u, vals, src, dst, 3)
        return ad.sumall(ad.mul(out, out))

    assert ad.finite_diff_check(loss, store, step=1e-6, tol=1e-6).passed


def test_gradient_linearity_on_random_tapes():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        x0 = rng.normal(size=n)
        a, b = float(rng.normal()), float(rng.normal())

        def run(coef_f, coef_g):
            store = ad.ParamStore({"x": x0.copy()})
            tape = ad.Tape()
            x = tape.param(store, "x")
            f = ad.sumall(ad.mul(x, x))
            g = ad.sumall(oracles.sigmoid(x))
            out = ad.add(ad.mul(f, coef_f), ad.mul(g, coef_g))
            ad.backward(tape, out)
            return store.grads["x"].copy()

        combined = run(a, b)
        parts = a * run(1.0, 0.0) + b * run(0.0, 1.0)
        np.testing.assert_allclose(combined, parts, rtol=1e-12)


def test_backward_determinism_bitwise():
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=(4, 4))

    def run():
        store = ad.ParamStore({"x": x0.copy()})
        tape = ad.Tape()
        x = tape.param(store, "x")
        out = ad.sumall(oracles.sigmoid(oracles.matmul(x, x)))
        ad.backward(tape, out)
        return store.grads["x"].copy()

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_backward_requires_scalar():
    store = ad.ParamStore({"x": np.ones(3)})
    tape = ad.Tape()
    x = tape.param(store, "x")
    y = ad.mul(x, 2.0)
    with pytest.raises(ContractError):
        ad.backward(tape, y)


def test_tape_block_end_detaches_nodes():
    store = ad.ParamStore({"x": np.array([1.0, 2.0])})
    with ad.Tape() as tape:
        x = tape.param(store, "x")
        out = ad.sumall(ad.mul(x, x))
        ad.backward(tape, out)
        assert len(tape.nodes) == 3
    np.testing.assert_array_equal(store.grads["x"], [2.0, 4.0])
    assert tape.nodes == []
    assert out.parents == () and out.bw is None and out.grad is None
    assert float(out.value) == 5.0
    with pytest.raises(ContractError, match="open tape"):
        ad.backward(tape, out)


_PASSES = """
import resource
import numpy as np
from kgexplain.autodiff import Tape

def one_pass():
    with Tape():
        arrays = [np.ones(1 << 17) for _ in range(20)]  # 20 blocks of 1 MiB

one_pass()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    one_pass()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc settings")
def test_later_passes_reuse_the_memory_earlier_passes_freed():
    # A fresh interpreter starts from glibc's default malloc thresholds, under
    # which each pass's 20 MiB is handed back to the OS and faulted in again
    # (5 x 5120 pages).
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _PASSES], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert int(out) < 2000


def test_backward_rejects_node_of_another_tape():
    a, b = ad.Tape(), ad.Tape()
    out = ad.sumall(oracles.leaf(a, np.ones(2)))
    with pytest.raises(ContractError, match="open tape"):
        ad.backward(b, out)


def test_nan_raises_naming_op():
    tape = ad.Tape()
    x = oracles.leaf(tape, np.array([1.0, -1.0]))
    with pytest.raises(NumericError, match="powc"):
        oracles.powc(x, 0.5)  # sqrt of a negative entry


def test_constant_passthrough_matches_tape_forward():
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=(3, 3))
    raw = ad.sumall(oracles.sigmoid(oracles.matmul(x0, x0)))
    tape = ad.Tape()
    node = ad.sumall(oracles.sigmoid(oracles.matmul(oracles.leaf(tape, x0), x0)))
    assert float(raw) == float(node.value)


# -- record: the one rule every op ends in -----------------------------------


def test_record_without_a_node_returns_the_value_and_records_nothing():
    value = np.arange(3.0)
    with ad.Tape() as tape:
        for operands in ((), (value,), (value, 2.0, None)):
            assert ad.record(value, operands, lambda g: [g], "op") is value
        assert tape.nodes == []


def test_record_makes_one_node_whose_parents_are_the_node_operands_in_order():
    store = ad.ParamStore({"x": np.ones(2), "y": np.zeros(2)})
    first, other = ad.Tape(), ad.Tape()
    x, y = first.param(store, "x"), first.param(store, "y")
    z = other.param(store, "x")

    def bw(g):
        return [g, g, g]

    value = np.full(2, np.inf)  # passed as checked, so not checked again
    node = ad.record(value, (np.ones(2), y, 3.0, x, z), bw, "op", checked=True,
                     adjoint_checked=True)
    assert node.tape is first and first.nodes == [x, y, node] and other.nodes == [z]
    assert node.parents == (y, x, z)
    assert node.value is value and node.bw is bw and node.op == "op"
    assert node.adjoint_checked and node.grad is None
    with pytest.raises(NumericError, match="op 'op'"):
        ad.record(value, (x,), bw, "op")
    assert not ad.record(np.ones(2), (x,), bw, "op").adjoint_checked


def _every_op():
    """Each op left in the package, as a call on plain arrays: the generic ops
    of `autodiff` and the hand-written ones."""
    from kgexplain.explain import PathLossOp, TesOp, init_tes
    from kgexplain.kgraph import adjacency_power_row
    from kgexplain.model import KgcLossOp, KgcModel, RgcnLayerOp, TargetHeadOp

    gc = ComputationGraph(np.arange(3), [0, 1, 0], [0, 1, 1], [1, 2, 2], 0, 2)
    model = KgcModel(3, 2, dim=2, layers=1, seed=0)
    p = model.store.params
    x = np.arange(6.0).reshape(2, 3)
    return {
        "add": lambda: ad.add(x, 1.0),
        "mul": lambda: ad.mul(x, x),
        "gather": lambda: ad.gather(x, [1, 0]),
        "segment_max": lambda: ad.segment_max(x, np.array([0, 1, 3]), np.array([0, 1, 1]))[0],
        "take_row": lambda: ad.take_row(x, 1),
        "put_rows": lambda: ad.put_rows(2, [(np.array(1.0), 0), (np.array(2.0), 1)]),
        "norm": lambda: ad.norm(x),
        "sumall": lambda: ad.sumall(x),
        "TesOp": lambda: TesOp(np.ones((gc.num_edges, 3)))(init_tes("euclidean", 2).params),
        "PathLossOp": lambda: PathLossOp(gc, 2, adjacency_power_row(gc, 0, 2), [True])(
            np.full((1, gc.num_pairs), 0.5)),
        "RgcnLayerOp": lambda: RgcnLayerOp(model, gc, 0)(p["ent"][gc.nodes], p,
                                                          np.full((gc.num_edges, 1), 0.5)),
        "KgcLossOp": lambda: KgcLossOp(model, gc.rel, 2)(p["ent"], p["rel"], gc.src, gc.dst),
        "TargetHeadOp": lambda: TargetHeadOp(model.decoder, 0, 2, p["rel"][0])(p["ent"])[2],
    }


@pytest.mark.parametrize("name", list(_every_op()))
def test_every_op_given_no_node_returns_a_plain_value_and_records_nothing(name):
    call = _every_op()[name]
    with ad.Tape() as tape:
        out = call()
        # a scalar loss is a numpy float, every other value an ndarray
        assert type(out) in (np.ndarray, np.float64)
        assert tape.nodes == []


# -- sgd ---------------------------------------------------------------------


def test_sgd_step_basic():
    store = ad.ParamStore({"p": np.array([1.0])})
    store.grads["p"][...] = 2.0
    ad.sgd_step(store, 0.1)
    assert store.params["p"][0] == pytest.approx(0.8)
    assert store.grads["p"][0] == 0.0


def test_sgd_zero_gradient_is_identity():
    store = ad.ParamStore({"p": np.array([1.5, -2.0])})
    before = store.params["p"].copy()
    ad.sgd_step(store, 0.5)
    assert np.array_equal(store.params["p"], before)


def test_sgd_overflow_is_refused_by_the_next_params_check_without_a_warning():
    store = ad.ParamStore({"p": np.array([1.0, 2.0]), "q": np.array([3.0])})
    store.grads["q"][...] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ad.sgd_step(store, 2.0)
    assert store.params["q"][0] == np.inf and np.array_equal(store.params["p"], [1.0, 2.0])
    with pytest.raises(NumericError, match="op 'param:q'"):
        ad.Tape().params(store)


def test_sgd_descends_convex_quadratic():
    rng = np.random.default_rng(11)
    target = rng.normal(size=5)
    store = ad.ParamStore({"p": np.zeros(5)})
    losses = []
    for _ in range(50):
        tape = ad.Tape()
        p = tape.param(store, "p")
        diff = oracles.sub(p, target)
        loss = ad.sumall(ad.mul(diff, diff))
        losses.append(float(loss.value))
        store.zero_grads()
        ad.backward(tape, loss)
        ad.sgd_step(store, 0.05)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


# -- the flat parameter store ------------------------------------------------

# ±0.0, the smallest and largest subnormals, the smallest normal, and ordinary
# values, so a step's signed zeros and gradual underflow are compared too
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
           2.2250738585072014e-308, 1.0, -3.5]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-4.0, 4.0))


@st.composite
def flat_stores(draw):
    """A store of 1-4 tensors, among them 0-d, empty and one-element ones, and
    a gradient for each: (store, values, grads), the latter two as copies."""
    shapes = draw(st.lists(st.sampled_from([(), (0,), (1,), (3,), (2, 3), (0, 4), (1, 1)]),
                           min_size=1, max_size=4))
    values, grads = {}, {}
    for i, shape in enumerate(shapes):
        size = int(np.prod(shape))
        for out in (values, grads):
            out[f"t{i}"] = np.array(draw(st.lists(VALUES, min_size=size, max_size=size)),
                                    dtype=np.float64).reshape(shape)
    store = ad.ParamStore(values)
    for name, g in grads.items():
        store.grads[name][...] = g
    return store, values, grads


def assert_views_of_the_buffers(store):
    """Every tensor and gradient is a contiguous view of `flat` and
    `grad_flat`, a non-empty one at its offset in store order, and together
    they fill both. (numpy points an empty view at its base's start.)"""
    offset = 0
    for name, p in store.params.items():
        g = store.grads[name]
        for view, buf in ((p, store.flat), (g, store.grad_flat)):
            assert view.base is buf and view.dtype == np.float64 and view.flags.c_contiguous
            assert view.size == 0 or (view.__array_interface__["data"][0]
                                      == buf.__array_interface__["data"][0] + 8 * offset)
        offset += p.size
    assert offset == store.flat.size == store.grad_flat.size


def test_store_keeps_tensor_shapes_and_values_in_order():
    store = ad.ParamStore({"a": np.arange(6.0).reshape(2, 3), "b": 7.0, "c": np.zeros(0)})
    assert list(store.params) == list(store.grads) == ["a", "b", "c"]
    assert [p.shape for p in store.params.values()] == [(2, 3), (), (0,)]
    assert store.flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
    assert not store.grad_flat.any()
    assert_views_of_the_buffers(store)


@settings(max_examples=200, deadline=None)
@given(flat_stores(), st.sampled_from([1e-3, 0.05, 0.5, 1.0, 3.0]))
def test_flat_sgd_step_is_the_per_tensor_loop_bit_for_bit(case, lr):
    store, values, grads = case
    want = {}
    for name in values:
        # the step per tensor that one step over the whole buffer replaces
        p = values[name].copy()
        p -= lr * grads[name]
        want[name] = p
    ad.sgd_step(store, lr)
    assert_views_of_the_buffers(store)
    for name in values:
        assert store.params[name].tobytes() == want[name].tobytes()
        assert store.grads[name].tobytes() == np.zeros_like(grads[name]).tobytes()
    store.grad_flat[...] = 1.0
    store.zero_grads()
    assert_views_of_the_buffers(store)
    assert store.grad_flat.tobytes() == np.zeros(store.flat.size).tobytes()


@settings(max_examples=50, deadline=None)
@given(flat_stores())
def test_finite_diff_check_leaves_the_views_aliased_and_the_values_unchanged(case):
    store, values, _ = case

    def loss(s, tape):
        out = 0.0
        for name in s.params:
            p = tape.param(s, name) if tape is not None else s.params[name]
            out = ad.add(out, ad.sumall(ad.mul(p, p)))
        return out

    report = ad.finite_diff_check(loss, store, step=1e-5, tol=1e-4)
    assert report.passed, report
    assert_views_of_the_buffers(store)
    for name, value in values.items():
        assert store.params[name].tobytes() == value.tobytes()
    assert not store.grad_flat.any()


@settings(max_examples=200, deadline=None)
@given(flat_stores(), st.data())
def test_tape_params_names_the_first_non_finite_tensor_as_param_would(case, data):
    store, _, _ = case
    filled = [name for name, p in store.params.items() if p.size]
    if filled:
        for name in data.draw(st.lists(st.sampled_from(filled), min_size=1, max_size=2,
                                       unique=True)):
            flat = store.params[name].reshape(-1)
            flat[data.draw(st.integers(0, flat.size - 1))] = data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
    want = None
    with ad.Tape() as tape:
        for name in store.params:
            try:
                tape.param(store, name)
            except NumericError as exc:
                want = str(exc)
                break
    with ad.Tape() as tape:
        if want is None:
            nodes = tape.params(store)
            assert list(nodes) == list(store.params)
            for name, node in nodes.items():
                assert node.value is store.params[name] and node.op == f"param:{name}"
                assert node.store is store and node.pname == name
            assert tape.nodes == list(nodes.values())
        else:
            assert want.startswith("non-finite value produced by op 'param:")
            with pytest.raises(NumericError) as err:
                tape.params(store)
            assert str(err.value) == want


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**16))
def test_model_stores_are_one_buffer_through_a_checkpoint(dim, layers, bases, seed):
    from kgexplain.kgraph import KnowledgeGraph
    from kgexplain.model import KgcModel, load_checkpoint, save_checkpoint

    g = KnowledgeGraph(3, 2, np.array([0, 1]), np.array([0, 1]), np.array([1, 2]))
    model = KgcModel(3, 2, dim=dim, layers=layers, bases=bases, seed=seed)
    assert_views_of_the_buffers(model.store)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, g, path)
        loaded = load_checkpoint(path, g)
    assert_views_of_the_buffers(loaded.store)
    assert loaded.store.flat.tobytes() == model.store.flat.astype("<f4").astype(np.float64).tobytes()
    loaded.store.flat[...] = np.arange(loaded.store.flat.size)  # a write shows in every tensor
    assert np.concatenate([p.ravel() for p in loaded.store.params.values()]).tolist() == list(
        range(loaded.store.flat.size))


# -- finite_diff_check -------------------------------------------------------


def test_finite_diff_quadratic_bowl():
    store = ad.ParamStore({"p": np.array([0.3, -1.2, 2.0])})

    def loss(s, tape):
        p = tape.param(s, "p") if tape is not None else s.params["p"]
        return ad.sumall(ad.mul(p, p))

    report = ad.finite_diff_check(loss, store, step=1e-5, tol=1e-8)
    assert report.passed and report.max_rel_err < 1e-8


def test_finite_diff_rejects_corrupted_gradient():
    store = ad.ParamStore({"p": np.array([0.5, 1.5])})

    calls = {"n": 0}

    def loss(s, tape):
        p = tape.param(s, "p") if tape is not None else s.params["p"]
        out = ad.sumall(ad.mul(p, p))
        if tape is not None:
            calls["n"] += 1
            # unit perturbation of the analytic gradient, injected by a bogus
            # extra term that the value path never sees
            bogus = ad.Node(tape, np.array(0.0), (p,),
                            lambda g: [np.array([1.0, 0.0])], "corrupt")
            out = ad.add(out, bogus)
        return out

    report = ad.finite_diff_check(loss, store, step=1e-5, tol=1e-4)
    assert not report.passed


def test_finite_diff_requires_positive_step():
    store = ad.ParamStore({"p": np.array([1.0])})
    with pytest.raises(ContractError):
        ad.finite_diff_check(lambda s, t: None, store, step=0.0)


def test_finite_diff_tes_with_path_loss_small_graph():
    # the edge scorer plus the powering loss on a 6-node planted graph
    from kgexplain.explain import ExplainConfig, ExplainJob, init_tes
    from kgexplain.harness import PlantedConfig, generate_planted
    from kgexplain.explain import prepare_computation_graph
    from kgexplain.model import KgcModel

    inst = generate_planted(PlantedConfig(
        n_entities=6, n_relations=3, n_planted_paths=2, n_distractors=0,
        n_context_groups=0, seed=0,
    ))
    gc = prepare_computation_graph(inst.graph, inst.target, 1, 2)
    model = KgcModel(6, 3, dim=3, layers=1, seed=0)
    job = ExplainJob(model, gc, inst.target, [ExplainConfig(enable_mi_loss=False)])
    tes = init_tes("concatenation", 3, seed=1)

    def loss(store, tape):
        terms = job.objective(store, tape)[1]
        return ad.add(terms["path"], terms["regularization"])

    report = ad.finite_diff_check(loss, tes, step=1e-5, tol=1e-4)
    assert report.passed, report


@st.composite
def pair_graphs(draw):
    """A computation graph over 1-6 nodes with 0-20 triples (repeated pairs
    allowed), and per-triple values from a small set, so that pairs tie."""
    n = draw(st.integers(1, 6))
    n_edges = draw(st.integers(0, 20))
    node = st.integers(0, n - 1)
    triples = draw(st.lists(st.tuples(node, st.integers(0, 2), node),
                            min_size=n_edges, max_size=n_edges))
    hrt = np.array(triples, dtype=np.int64).reshape(-1, 3)
    gc = ComputationGraph(np.arange(n), hrt[:, 0], hrt[:, 1], hrt[:, 2], 0, n - 1)
    vals = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                  min_size=gc.num_edges, max_size=gc.num_edges)))
    return gc, vals


@settings(max_examples=200, deadline=None)
@given(pair_graphs(), st.integers(0, 2**32 - 1))
def test_segment_max_with_kept_indices_is_the_same_bytes(case, seed):
    # the explainer passes gc.pair_index instead of deriving it per call
    gc, vals = case
    derived = segment_of(gc.pair_indptr)
    want, want_arg = ad.segment_max(vals, gc.pair_indptr, derived)
    got, got_arg = ad.segment_max(vals, gc.pair_indptr, gc.pair_index)
    assert got.tobytes() == want.tobytes() and got_arg.tobytes() == want_arg.tobytes()
    g = np.random.default_rng(seed).standard_normal(gc.num_pairs)
    adjoints = []
    for seg_of in (derived, gc.pair_index):
        with ad.Tape() as tape:
            node, arg = ad.segment_max(oracles.leaf(tape, vals), gc.pair_indptr, seg_of)
            [adj] = node.bw(g)
            adjoints.append((node.value.tobytes(), arg.tobytes(), adj.tobytes()))
    assert adjoints[0] == adjoints[1]
    assert adjoints[0][:2] == (want.tobytes(), want_arg.tobytes())
