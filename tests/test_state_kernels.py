"""The per-sample kernels against the expressions they replace.

One state through the four stages works on arrays of a few entries, so
the per-sample kernels call ufunc methods and dot products in place of
numpy's Python-level wrappers. The references below keep the replaced
expressions verbatim (``np.cumsum``, ``.sum()``, ``np.linalg.norm``);
the kernels must equal them bit for bit, and the stacked kinematics must
equal the per-sample kernel row by row. The leaf and root stages check
finiteness through a sum of squares, so the tests also pin what that
check must still do: reject every inf and NaN with the same error, and
pass finite outputs whose squares overflow.
"""

import numpy as np
import pytest

from treemotion.errors import NumericError
from treemotion.maps import DistanceToPoint, IdentityMap, PlanarArmFK
from treemotion.policies import LeafPolicy
from treemotion.tree import Edge, TransformTree, run_pipeline, run_stacked, solve_root


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_arm_fk(fk, x):
    """``PlanarArmFK.value_and_jacobian`` as it was written with
    ``np.cumsum`` and ``.sum()``."""
    c = np.cumsum(np.asarray(x, dtype=float)[: fk.point])
    L = fk.lengths[: fk.point]
    sx = L * np.sin(c)
    cx = L * np.cos(c)
    J = np.zeros((2, fk.in_dim))
    J[0, : fk.point] = -np.cumsum(sx[::-1])[::-1]
    J[1, : fk.point] = np.cumsum(cx[::-1])[::-1]
    return np.array([cx.sum(), sx.sum()]), J


def reference_distance(d, x):
    """``DistanceToPoint.value_and_jacobian`` as it was written with
    ``np.linalg.norm``."""
    delta = np.asarray(x, dtype=float) - d.center
    r = float(np.linalg.norm(delta))
    return np.array([r]), (delta / r)[None, :]


# 4 links as in the fixtures; 10 past the length where numpy's sums
# switch to pairwise summation.
@pytest.mark.parametrize("n_links", [4, 10])
def test_arm_kinematics_is_the_cumsum_expressions_bit_for_bit(n_links):
    rng = np.random.default_rng(n_links)
    lengths = rng.uniform(0.2, 2.0, n_links)
    X = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, (400, n_links))
    X[:50] *= 30.0
    for point in [*range(1, n_links + 1), "ee"]:
        fk = PlanarArmFK(lengths, point)
        Y, J = fk.stacked_value_and_jacobian(X)
        for k, x in enumerate(X):
            y_k, J_k = fk.value_and_jacobian(x)
            y_ref, J_ref = reference_arm_fk(fk, x)
            assert same_bits(y_k, y_ref) and same_bits(J_k, J_ref)
            assert same_bits(y_k, Y[k]) and same_bits(J_k, J[k])


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_distance_is_the_norm_expression_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    d = DistanceToPoint(rng.normal(0.0, 1.0, dim))
    for x in rng.normal(0.0, 3.0, (400, dim)):
        y, J = d.value_and_jacobian(x)
        y_ref, J_ref = reference_distance(d, x)
        assert same_bits(y, y_ref) and same_bits(J, J_ref)


class FixedLeaf(LeafPolicy):
    """A leaf that reports the same ``(p, M)`` at every state."""

    kind = "fixed"

    def __init__(self, p, M):
        self.p = np.asarray(p, dtype=float)
        self.M = np.asarray(M, dtype=float)
        self.dim = self.p.size

    def evaluate(self, z, params, parent_coord=None):
        return self.p, self.M, None


def fixed_tree(*leaves):
    """Each leaf on its own identity edge below a 2-D root."""
    edges = [Edge(0, k, IdentityMap(2)) for k in range(1, len(leaves) + 1)]
    return TransformTree([2] * (len(leaves) + 1), edges, dict(enumerate(leaves, 1)))


def test_finite_outputs_whose_squares_overflow_pass_the_checks():
    # 1e200 squared overflows the sum of squares; the entrywise fallback
    # must let the leaf and the root system through.
    tree = fixed_tree(FixedLeaf([1e200, -1e200], np.diag([1e200, 1.0])))
    with np.errstate(over="ignore"):
        pi = run_pipeline(tree, np.zeros(2)).pi
        _, stacked = run_stacked(tree, np.zeros((3, 2)))
        u, _ = solve_root(np.diag([1e200, 1.0]), np.array([1e200, 0.0]))
    assert pi.tolist() == [1.0, -1e200]
    assert all(same_bits(row, pi) for row in stacked)
    assert u.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["p", "M"])
def test_an_inf_or_nan_leaf_output_is_still_rejected(bad, where):
    p, M = np.array([1.0, 2.0]), np.eye(2)
    if where == "p":
        p[1] = bad
    else:
        M[0, 1] = bad
    tree = fixed_tree(FixedLeaf([1e200, 0.0], np.eye(2)), FixedLeaf(p, M))
    message = "^leaf 2 produced a non-finite policy output$"
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match=message):
            run_pipeline(tree, np.zeros(2))
        with pytest.raises(NumericError, match=message):
            run_stacked(tree, np.zeros((3, 2)))


def test_a_root_system_that_overflows_is_still_rejected():
    # Each leaf is finite; their pulled forces add up to inf at the root.
    big = FixedLeaf([1e308, 0.0], np.eye(2))
    tree = fixed_tree(big, big)
    message = "^root system contains non-finite entries$"
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match=message):
            run_pipeline(tree, np.zeros(2))
        with pytest.raises(NumericError, match=message):
            run_stacked(tree, np.zeros((3, 2)))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NumericError, match=message):
            solve_root(np.array([[1.0, bad], [bad, 1.0]]), np.ones(2))
        with pytest.raises(NumericError, match=message):
            solve_root(np.eye(2), np.array([1.0, bad]))
