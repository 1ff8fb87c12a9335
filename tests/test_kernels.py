import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kgexplain import kernels


def random_edges(rng, n, n_edges):
    src = rng.integers(0, n, n_edges)
    dst = rng.integers(0, n, n_edges)
    return src.astype(np.int64), dst.astype(np.int64)


def dense_from_edges(vals, src, dst, n):
    m = np.zeros((n, n))
    for v, s, d in zip(vals, src, dst):
        m[s, d] += v
    return m


@st.composite
def edge_lists(draw):
    """A node count and an edge list over it; may be empty, indices may repeat."""
    n = draw(st.integers(1, 8))
    n_edges = draw(st.integers(0, 30))
    index = st.lists(st.integers(0, n - 1), min_size=n_edges, max_size=n_edges)
    src = np.array(draw(index), dtype=np.int64)
    dst = np.array(draw(index), dtype=np.int64)
    return n, src, dst


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.integers(0, 2**32 - 1))
def test_kernels_match_dense_oracles(edges, seed):
    n, src, dst = edges
    rng = np.random.default_rng(seed)
    vals = rng.random(src.size)
    u = rng.random(n)
    g = rng.random(n)
    rows = rng.random((src.size, 3))
    counts = rng.integers(0, 5, n)
    m = dense_from_edges(vals, src, dst, n)

    np.testing.assert_allclose(kernels.edge_spmv(u, vals, src, dst, n), u @ m, atol=1e-12)

    g_u, g_vals = kernels.edge_spmv_bw(g, u, vals, src, dst)
    np.testing.assert_allclose(g_u, m @ g, atol=1e-12)
    np.testing.assert_allclose(g_vals, u[src] * g[dst], atol=1e-12)

    want_rows = np.zeros((n, 3))
    want_vec = np.zeros(n)
    want_walks = np.zeros(n, dtype=np.int64)
    for e in range(src.size):
        want_rows[dst[e]] += rows[e]
        want_vec[dst[e]] += vals[e]
        want_walks[dst[e]] += counts[src[e]]
    np.testing.assert_array_equal(kernels.scatter_add_rows(rows, dst, n), want_rows)
    np.testing.assert_allclose(kernels.scatter_add_vec(vals, dst, n), want_vec, atol=1e-12)

    walks = kernels.walk_step(counts, src, dst, n)
    assert walks.dtype == np.int64
    np.testing.assert_array_equal(walks, want_walks)


def test_edge_spmv_backward_matches_dense_adjoint():
    rng = np.random.default_rng(2)
    n, E = 7, 18
    src, dst = random_edges(rng, n, E)
    vals = rng.random(E)
    u = rng.random(n)
    g = rng.random(n)
    g_u, g_vals = kernels.edge_spmv_bw(g, u, vals, src, dst)
    m = dense_from_edges(vals, src, dst, n)
    np.testing.assert_allclose(g_u, m @ g, atol=1e-12)
    np.testing.assert_allclose(g_vals, u[src] * g[dst], atol=1e-12)


def test_walk_step_stays_integer():
    src = np.array([0, 1], dtype=np.int64)
    dst = np.array([1, 2], dtype=np.int64)
    counts = np.array([3, 0, 0], dtype=np.int64)
    out = kernels.walk_step(counts, src, dst, 3)
    assert out.dtype == np.int64
    assert out.tolist() == [0, 3, 0]


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_scatter_add_rows_with_kept_cells_is_the_same_bytes(edges, d, seed):
    # cells built once for an index, as the layer and loss ops keep them,
    # against cells built on every call; empty, one-edge and repeated indices
    n, _, dst = edges
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((dst.size, d))
    cells = kernels.scatter_cells(dst, d)
    want = kernels.scatter_add_rows(rows, dst, n)
    got = kernels.scatter_add_rows(rows, dst, n, cells=cells)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape == (n, d)
    assert got.tobytes() == want.tobytes()
    if d == 1:  # one-column scatters pass their index as the cells
        assert cells.tobytes() == dst.tobytes()
    # the kept cells serve every call on the same index
    rows = rng.standard_normal((dst.size, d))
    assert (kernels.scatter_add_rows(rows, dst, n, cells=cells).tobytes()
            == kernels.scatter_add_rows(rows, dst, n).tobytes())
