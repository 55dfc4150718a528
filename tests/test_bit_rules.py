"""The numpy behaviours that the bit-for-bit promises rest on, one test each.

The per-sample kernels take their products through ``np.ndarray.dot``
(``maps.products``) and the stacked kernels through ``np.matmul`` and
``stacked_mv``; the training sum over samples may reduce a stack along
axis 0. Each rule below is one of those promises, checked on the operand
layouts the kernels pass, with seeded random entries whose magnitudes
span 1e-6 to 1e6. The rules were checked on numpy 2.4.6; on a numpy
where one breaks, its test names it.
"""

import numpy as np
import pytest

from treemotion.maps import products, stacked_mv

TRIALS = 200
# Node dimensions, tangent counts and hidden widths of a few entries, and
# the feature counts of the chains' banks.
SMALL = (1, 2, 3, 4, 6, 8)
FEATURES = (1, 2, 6, 32, 128)


def entries(rng, shape):
    """Random signs and magnitudes from 1e-6 to 1e6."""
    return rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-6.0, 6.0, shape)


def sizes(rng, k=3):
    return [int(v) for v in rng.choice(SMALL, k)]


def dot_is_matmul(A, B):
    return np.array_equal(A.dot(B), A @ B) and np.array_equal(np.matmul(A, B), A.dot(B))


# name -> operands from a generator, three small sizes and a feature
# count: each layout a kernel passes.
LAYOUTS = {
    # plain C-contiguous matrices and vectors (a net's weights, a metric)
    "c_contiguous_matrix_vector": lambda r, m, n, k, D: (entries(r, (m, n)), entries(r, n)),
    "c_contiguous_matrix_matrix": lambda r, m, n, k, D: (entries(r, (m, n)),
                                                         entries(r, (n, k))),
    # a bank's rows times a slice of the state (``self._bank.dot(a)``)
    "bank_times_vector_slice": lambda r, m, n, k, D: (entries(r, (2 * D, n)),
                                                      entries(r, n + m + 1)[m: m + n]),
    # row slices: ``G[:D]``, ``V[rows_a]``, ``W[rows_s]``
    "row_slice_operand": lambda r, m, n, k, D: (entries(r, (m, n)),
                                                entries(r, (n + 2 * k, k))[k: k + n]),
    # ``theta.T`` against one net's half of the bank's slopes or features
    "transposed_weights_times_half": lambda r, m, n, k, D: (entries(r, (D, m)).T,
                                                            entries(r, (2 * D, k))[:D]),
    "transposed_weights_times_vector_half": lambda r, m, n, k, D: (entries(r, (D, m)).T,
                                                                   entries(r, 2 * D)[D:]),
    # ``W[rows_s].dot(CP.swapaxes(-1, -2))`` and ``J.T``-sided products
    "swapaxes_right_operand": lambda r, m, n, k, D: (entries(r, (m, n)),
                                                     entries(r, (k, n)).swapaxes(-1, -2)),
    "transposed_left_operand": lambda r, m, n, k, D: (entries(r, (n, m)).T,
                                                      entries(r, (n, k))),
    "both_transposed": lambda r, m, n, k, D: (entries(r, (n, m)).T, entries(r, (k, n)).T),
    # ``J^T p`` of a 1-D child, (n, 1) times (1,); ``J u`` into it, (1, n) times (n,)
    "column_times_one_entry": lambda r, m, n, k, D: (entries(r, (1, n)).T, entries(r, 1)),
    "row_times_vector": lambda r, m, n, k, D: (entries(r, (1, n)), entries(r, n)),
    # ``(J^T M) J`` of the backward stage
    "pulled_metric_chain": lambda r, m, n, k, D: (
        entries(r, (m, n)).T.dot(entries(r, (m, m))), entries(r, (m, n))),
    # a strided vector, as a column of a matrix: not the bits of its
    # contiguous copy, but the same bits through ``dot`` and ``@``
    "strided_vector": lambda r, m, n, k, D: (entries(r, (m, n)), entries(r, (n, k + 1))[:, k]),
    # 1-D times 1-D (a squared norm, a row dot)
    "vector_times_vector": lambda r, m, n, k, D: (entries(r, D * n), entries(r, D * n)),
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_ndarray_dot_is_matmul_on_every_kernel_layout(layout):
    rng = np.random.default_rng(list(LAYOUTS).index(layout))
    for _ in range(TRIALS):
        A, B = LAYOUTS[layout](rng, *sizes(rng), int(rng.choice(FEATURES)))
        assert dot_is_matmul(A, B)


def test_cholesky_product_by_dot_is_matmul():
    """``L.dot(L.T)``: numpy may take a symmetric rank-k update for an
    operand times its own transpose; it must still be the bits of ``@``."""
    rng = np.random.default_rng(20)
    for _ in range(TRIALS):
        d = int(rng.choice(SMALL))
        L = np.tril(entries(rng, (d, d)))
        assert dot_is_matmul(L, L.T) and dot_is_matmul(L, L.swapaxes(-1, -2))
        S = entries(rng, (d, d))
        assert dot_is_matmul(S + S.swapaxes(-1, -2), L)


def test_products_picks_dot_for_one_input_and_matmul_for_a_stack():
    assert products(False) == (np.ndarray.dot, np.ndarray.dot)
    assert products(True) == (stacked_mv, np.matmul)


def test_stacked_matmul_rows_are_the_per_sample_dot():
    """A stacked ``np.matmul``, with a per-sample or a broadcast operand on
    either side, gives each row the bits of that sample's ``dot``."""
    rng = np.random.default_rng(21)
    for _ in range(TRIALS // 4):
        N = int(rng.integers(1, 40))
        m, n, k = sizes(rng)
        A, B = entries(rng, (N, m, n)), entries(rng, (N, n, k))
        A1, B1 = entries(rng, (m, n)), entries(rng, (n, k))
        for left, right in ((A, B), (A1, B), (A, B1)):
            C = np.matmul(left, right)
            for i in range(N):
                a = left[i] if left.ndim == 3 else left
                b = right[i] if right.ndim == 3 else right
                assert np.array_equal(C[i], a.dot(b))


@pytest.mark.parametrize("order", ["C", "F"])
def test_stacked_mv_rows_are_the_per_sample_dot(order):
    """``stacked_mv`` on a per-sample or a broadcast matrix gives each row
    the bits of the sample's own (contiguous) vector's ``dot``, also for a
    column-major stack, as fancy indexing returns, whose rows are strided:
    ``stacked_mv`` makes it C-contiguous first."""
    rng = np.random.default_rng(22 if order == "C" else 23)
    for _ in range(TRIALS // 4):
        N = int(rng.integers(1, 40))
        m, n, _ = sizes(rng)
        X = np.asarray(entries(rng, (N, n)), order=order)
        for A in (entries(rng, (N, m, n)), entries(rng, (m, n))):
            Y = stacked_mv(A, X)
            for i in range(N):
                x = np.ascontiguousarray(X[i])
                assert np.array_equal(Y[i], (A[i] if A.ndim == 3 else A).dot(x))


def test_axis0_reduction_of_a_c_contiguous_stack_adds_rows_in_order():
    """``np.add.reduce(S, axis=0)`` over a C-contiguous ``(N, n)`` stack
    is ``total = S[0]; total += row`` for each later row, bit for bit."""
    rng = np.random.default_rng(24)
    for _ in range(TRIALS // 2):
        S = entries(rng, (int(rng.integers(1, 130)), int(rng.integers(1, 2000))))
        total = S[0].copy()
        for row in S[1:]:
            total += row
        assert S.flags.c_contiguous
        assert np.array_equal(np.add.reduce(S, axis=0), total)
        assert np.array_equal(S.sum(axis=0), total)
