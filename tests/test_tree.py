import re

import numpy as np
import pytest
import scipy.linalg

from treemotion.errors import NumericError, SingularMetricError, StructureError
from treemotion.fixtures import (
    random_tree,
    stability_seed_states,
    three_link_stability_fixture,
)
from treemotion.gradients import policy_param_jacobian, policy_vjp, run_pipeline
from treemotion.losses import LossSpec, loss_value
from treemotion.maps import (
    DifferentiableMap,
    DistanceToPoint,
    IdentityMap,
    LinearMap,
    PlanarArmFK,
)
from treemotion.policies import (
    CholeskyMetricNet,
    ConstantMetric,
    LeafPolicy,
    NaturalGradientLeaf,
    QuadraticPotential,
    RawVMLeaf,
    handcrafted_attractor,
    handcrafted_barrier,
    handcrafted_damper,
)
from treemotion.rollout import integrate
from treemotion.tree import (
    Edge,
    TransformTree,
    backward_pass,
    evaluate_policy,
    flat_solve,
    factor_solve,
    forward_pass,
    leaf_evaluate,
    resolve,
    root_potential,
    run_stacked,
    solve_root,
)
from treemotion.verify import check_tree

from conftest import fd_grad_wrt_params


class SquareFirst(DifferentiableMap):
    """(x1, x2) -> (x1^2), for the forward-pass example."""

    in_dim, out_dim = 2, 1

    def value_and_jacobian(self, x, params=None):
        return np.array([x[0] ** 2]), np.array([[2.0 * x[0], 0.0]])


def single_leaf_tree(dim, policy, mapping=None):
    mapping = mapping if mapping is not None else IdentityMap(dim)
    return TransformTree([dim, policy.dim], [Edge(0, 1, mapping)], {1: policy})


def raw_leaf(v, M):
    return RawVMLeaf(np.asarray(v, dtype=float), ConstantMetric(np.asarray(M, dtype=float)))


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def test_forward_identity_child():
    tree = single_leaf_tree(2, raw_leaf([0.0, 0.0], np.eye(2)))
    states = forward_pass(tree, np.array([0.3, -0.1]))
    np.testing.assert_allclose(states[1].coord, [0.3, -0.1])
    np.testing.assert_allclose(states[1].jac_to_parent, np.eye(2))


def test_forward_square_map():
    tree = single_leaf_tree(2, raw_leaf([0.0], np.eye(1)), mapping=SquareFirst())
    states = forward_pass(tree, np.array([2.0, 5.0]))
    np.testing.assert_allclose(states[1].coord, [4.0])
    np.testing.assert_allclose(states[1].jac_to_parent, [[4.0, 0.0]])


def test_forward_two_link_arm_end_effector():
    tree = single_leaf_tree(2, raw_leaf([0.0, 0.0], np.eye(2)),
                            mapping=PlanarArmFK([1.0, 1.0], "ee"))
    states = forward_pass(tree, np.zeros(2))
    np.testing.assert_allclose(states[1].coord, [2.0, 0.0], atol=1e-15)


def test_forward_rejects_wrong_q_shape():
    tree = single_leaf_tree(2, raw_leaf([0.0, 0.0], np.eye(2)))
    with pytest.raises(StructureError):
        forward_pass(tree, np.zeros(3))


class OneEntryLeaf(LeafPolicy):
    """A 2-D leaf whose force and metric have one entry."""

    kind, dim = "one_entry", 2

    def evaluate(self, z, params, parent_coord=None):
        return np.ones(1), np.eye(1), None


def test_misshapen_leaf_outputs_raise():
    # The backward stage passes an identity edge's (p, M) on as they are,
    # so no product would stop a misshapen one from broadcasting into the
    # sum of its parent.
    tree = TransformTree([2, 2, 2], [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
                         {1: OneEntryLeaf(), 2: handcrafted_damper(0.5, 2)})
    with pytest.raises(StructureError, match=re.escape(
            "leaf 1: policy output shapes (1,) and (1, 1) at a coordinate of shape (2,)")):
        evaluate_policy(tree, np.zeros(2))
    with pytest.raises(StructureError, match=re.escape(
            "leaf 1: policy output shapes (3, 1) and (3, 1, 1) at a coordinate of shape (3, 2)")):
        run_stacked(tree, np.zeros((3, 2)))


def test_dimension_mismatch_names_edge():
    bad = LinearMap(np.ones((2, 2)))
    with pytest.raises(StructureError, match="edge 0->1"):
        TransformTree([2, 1], [Edge(0, 1, bad)], {1: raw_leaf([0.0], np.eye(1))})


# ---------------------------------------------------------------------------
# leaf evaluation
# ---------------------------------------------------------------------------


def test_leaf_evaluate_weighted_force():
    tree = single_leaf_tree(2, raw_leaf([1.0, -1.0], 2.0 * np.eye(2)))
    states = leaf_evaluate(tree, forward_pass(tree, np.zeros(2)), None)
    np.testing.assert_allclose(states[1].pulled_force, [2.0, -2.0])


def test_leaf_evaluate_natural_gradient_ignores_metric():
    for weight in (0.5, 3.0):
        leaf = handcrafted_attractor(np.zeros(2), gain=1.0, weight=weight)
        tree = single_leaf_tree(2, leaf)
        states = leaf_evaluate(tree, forward_pass(tree, np.array([1.0, 0.0])), None)
        np.testing.assert_allclose(states[1].pulled_force, [-1.0, 0.0])


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def test_backward_single_child_pullback():
    tree = single_leaf_tree(2, raw_leaf([1.0, 0.0], np.eye(2)),
                            mapping=LinearMap(2.0 * np.eye(2)))
    states = forward_pass(tree, np.zeros(2))
    states[1].pulled_force = np.array([1.0, 0.0])
    states[1].pulled_metric = np.eye(2)
    backward_pass(tree, states)
    np.testing.assert_allclose(states[0].pulled_force, [2.0, 0.0])
    np.testing.assert_allclose(states[0].pulled_metric, 4.0 * np.eye(2))


def test_backward_two_children_sum():
    tree = TransformTree(
        [2, 2, 2],
        [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
        {1: raw_leaf([1.0, 0.0], np.eye(2)), 2: raw_leaf([0.0, 1.0], np.eye(2))},
    )
    states = forward_pass(tree, np.zeros(2))
    leaf_evaluate(tree, states, None)
    backward_pass(tree, states)
    np.testing.assert_allclose(states[0].pulled_force, [1.0, 1.0])
    np.testing.assert_allclose(states[0].pulled_metric, 2.0 * np.eye(2))


def test_backward_matches_flat_composition_on_random_trees(rng):
    # collapsing the tree to per-leaf chained maps must give the same root
    for seed in range(10):
        tree, params = random_tree(seed + 900, max_depth=3)
        q = rng.uniform(-1.0, 1.0, tree.root_dim)
        states = forward_pass(tree, q, params)
        leaf_evaluate(tree, states, params)
        backward_pass(tree, states)
        A = np.zeros((tree.root_dim, tree.root_dim))
        b = np.zeros(tree.root_dim)
        for leaf in tree.leaves:
            x = q
            prev = None
            J = np.eye(tree.root_dim)
            for edge in tree.leaf_table[leaf].path:
                prev = x
                x, J_edge = edge.map.value_and_jacobian(x, params)
                J = J_edge @ J
            p, M, _ = tree.leaf_policies[leaf].evaluate(x, params, parent_coord=prev)
            A += J.T @ M @ J
            b += J.T @ p
        np.testing.assert_allclose(states[0].pulled_force, b, atol=1e-12)
        np.testing.assert_allclose(states[0].pulled_metric, A, atol=1e-12)
        # The evaluation shared by gradients, losses and rollouts solves the
        # same root system bit for bit.
        assert np.array_equal(run_pipeline(tree, q, params).pi,
                              evaluate_policy(tree, q, params))


def test_backward_metrics_stay_symmetric_psd(rng):
    for seed in range(20):
        tree, params = random_tree(seed + 300)
        q = rng.uniform(-1.0, 1.0, tree.root_dim)
        states = forward_pass(tree, q, params)
        leaf_evaluate(tree, states, params)
        backward_pass(tree, states)
        for i in range(tree.n_nodes):
            M = states[i].pulled_metric
            np.testing.assert_allclose(M, M.T, atol=1e-12)
            assert np.linalg.eigvalsh(M).min() >= -1e-10


class DoublingMap(IdentityMap):
    """``x -> 2 x``: an ``IdentityMap`` subclass with its own Jacobian."""

    def value_and_jacobian(self, x, params=None):
        return 2.0 * np.asarray(x, dtype=float), 2.0 * self._eye

    stacked_value_and_jacobian = DifferentiableMap.stacked_value_and_jacobian


def reference_backward(tree, states):
    """The backward stage as explicit products: ``J^T p`` and ``J^T M J``
    on every edge, identity edges included, summed into zero arrays, each
    parent's metric symmetrized after every child."""
    for e in tree.edges:
        d = tree.node_dims[e.parent]
        states[e.parent].pulled_force = np.zeros(d)
        states[e.parent].pulled_metric = np.zeros((d, d))
    for e in reversed(tree.edges):
        child, parent = states[e.child], states[e.parent]
        J = child.jac_to_parent
        parent.pulled_force = parent.pulled_force + J.T @ child.pulled_force
        M = parent.pulled_metric + J.T @ child.pulled_metric @ J
        parent.pulled_metric = 0.5 * (M + M.T)
    return states


def leaf_states(tree, q, params):
    return leaf_evaluate(tree, forward_pass(tree, q, params), params)


def pulled_bytes(states, row=None):
    """The bytes of every node's ``(p, M)``, or of row ``row`` of a stack:
    unlike ``np.array_equal``, they tell ``-0.0`` from ``0.0``."""
    take = (lambda a: a) if row is None else (lambda a: a[row])
    return [(take(s.pulled_force).tobytes(), take(s.pulled_metric).tobytes())
            for s in states]


def inner_identity_tree(identity):
    """``identity`` edges into an inner node, into a barrier and into a
    leaf whose metric holds -0.0 entries, the last two each the one child
    of its parent, so a -0.0 they pass on is not summed away."""
    return TransformTree(
        [2, 1, 1, 2, 2, 2],
        [Edge(0, 1, DistanceToPoint([0.4, -0.2])), Edge(1, 2, identity(1)),
         Edge(0, 3, identity(2)), Edge(3, 4, identity(2)),
         Edge(0, 5, LinearMap(np.array([[1.0, 0.5], [-0.3, 2.0]])))],
        {2: handcrafted_barrier(0.5), 4: raw_leaf([0.3, -0.2], [[1.0, -0.0], [-0.0, 2.0]]),
         5: handcrafted_attractor([0.5, -0.5])})


def arm_case():
    tree, params, _ = three_link_stability_fixture()
    # The barrier is inert at the first state (its force is -0.0) and
    # active at the second.
    return tree, params, np.stack(stability_seed_states(10, seed=0)[:7])


def random_tree_case(seed):
    tree, params = random_tree(seed)
    return tree, params, np.random.default_rng(seed).uniform(-0.6, 0.6, (7, tree.root_dim))


def small_tree_case(identity):
    # The barrier is inert at the first state and active at the second.
    Q = np.array([[-0.6, -0.2], [0.1, -0.1], [0.4, 0.3], [0.5, 0.0], [0.9, -0.2],
                  [0.4, 0.6], [-0.1, -0.8]])
    return inner_identity_tree(identity), None, Q


# Every random tree has an identity edge (its root damper's); all of
# these but seed 0 also have one into an inner node.
IDENTITY_EDGE_SEEDS = (0, 1, 7, 18, 20, 23, 36)


@pytest.mark.parametrize("case", [
    arm_case,
    *[lambda seed=seed: random_tree_case(seed) for seed in IDENTITY_EDGE_SEEDS],
    lambda: small_tree_case(IdentityMap),
    lambda: small_tree_case(DoublingMap),
], ids=["arm", *[f"random_tree_{seed}" for seed in IDENTITY_EDGE_SEEDS],
        "small_tree", "small_tree_identity_subclass"])
def test_backward_pass_is_the_explicit_product_route_bit_for_bit(case):
    # Identity edges skip their products and each parent starts from its
    # first child's terms; the bits of every node stay those of the
    # product route into zeros, for one state and for every stack row.
    tree, params, Q = case()
    expected = []
    for q in Q:
        ref = reference_backward(tree, leaf_states(tree, q, params))
        got = backward_pass(tree, leaf_states(tree, q, params))
        assert pulled_bytes(got) == pulled_bytes(ref)
        expected.append(pulled_bytes(ref))
    for n in (1, 2, 7):
        states, _ = run_stacked(tree, Q[:n], params)
        for k in range(n):
            assert pulled_bytes(states, k) == expected[k]


def test_pass_through_cases_meet_signed_zeros_and_subclasses():
    # The cases above hold a leaf force of -0.0 (an inert barrier) beside
    # an active one, and only the exact IdentityMap skips its products.
    for (tree, params, Q), barrier in ((arm_case(), 3), (small_tree_case(IdentityMap), 2)):
        forces = [leaf_states(tree, q, params)[barrier].pulled_force for q in Q[:2]]
        assert np.signbit(forces[0]).all() and forces[0][0] == 0.0 and forces[1][0] > 0.0
    assert [identity for *_, identity, _ in inner_identity_tree(IdentityMap)._backward_order] \
        == [False, True, True, True, False]
    assert not any(identity for *_, identity, _ in
                   inner_identity_tree(DoublingMap)._backward_order)


# ---------------------------------------------------------------------------
# resolve
# ---------------------------------------------------------------------------


def test_resolve_diagonal_and_zero_force():
    tree = single_leaf_tree(2, raw_leaf([0.0, 0.0], np.eye(2)))
    states = forward_pass(tree, np.zeros(2))
    states[0].pulled_metric = 2.0 * np.eye(2)
    states[0].pulled_force = np.array([2.0, 4.0])
    np.testing.assert_allclose(resolve(states)[0], [1.0, 2.0])
    states[0].pulled_metric = np.eye(1)
    states[0].pulled_force = np.zeros(1)
    np.testing.assert_allclose(resolve(states)[0], [0.0])


def test_resolve_singular_metric_raises():
    tree = single_leaf_tree(2, raw_leaf([0.0, 0.0], np.eye(2)))
    states = forward_pass(tree, np.zeros(2))
    states[0].pulled_metric = np.array([[1.0, 1.0], [1.0, 1.0]])
    states[0].pulled_force = np.array([1.0, 1.0])
    with pytest.raises(SingularMetricError):
        resolve(states)


def test_resolve_regularized_solves_shifted_system(rng):
    tree = single_leaf_tree(2, raw_leaf([0.0, 0.0], np.eye(2)))
    states = forward_pass(tree, np.zeros(2))
    B = rng.normal(0.0, 1.0, (2, 2))
    M = B @ B.T + 0.5 * np.eye(2)
    p = rng.normal(0.0, 1.0, 2)
    states[0].pulled_metric = M
    states[0].pulled_force = p
    u = resolve(states, regularization=0.1)[0]
    np.testing.assert_allclose((M + 0.1 * np.eye(2)) @ u, p, atol=1e-12)


def test_solve_root_matches_scipy_cholesky_bit_for_bit(rng):
    # solve_root calls the LAPACK routines cho_factor/cho_solve wrap
    for n in range(1, 9):
        for _ in range(5):
            B = rng.normal(0.0, 1.0, (n, n))
            M = B @ B.T + 0.1 * np.eye(n)
            p = rng.normal(0.0, 1.0, n)
            M_in = M.copy()
            u, factor = solve_root(M, p)
            ref = scipy.linalg.cho_factor(M, lower=True)
            assert np.array_equal(factor, ref[0])
            assert np.array_equal(u, scipy.linalg.cho_solve(ref, p))
            g = rng.normal(0.0, 1.0, n)
            assert np.array_equal(factor_solve(factor, g),
                                  scipy.linalg.cho_solve(ref, g))
            assert np.array_equal(M, M_in)


def test_solve_root_singular_and_nonfinite_systems_raise():
    p = np.array([1.0, 1.0])
    # indefinite: the Cholesky factorization itself fails
    with pytest.raises(SingularMetricError, match="Cholesky failed"):
        solve_root(np.array([[1.0, 2.0], [2.0, 1.0]]), p)
    # factorizable, but a pivot is tiny and so is the smallest eigenvalue
    with pytest.raises(SingularMetricError, match="min eigenvalue 1.000e-14"):
        solve_root(np.diag([1.0, 1e-14]), p)
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError, match="non-finite"):
            solve_root(np.array([[1.0, 0.0], [0.0, bad]]), p)
        with pytest.raises(NumericError, match="non-finite"):
            solve_root(np.eye(2), np.array([bad, 0.0]))


def test_regularized_solve_is_one_shifted_cholesky(rng):
    B = rng.normal(0.0, 1.0, (3, 3))
    M = B @ B.T + 0.1 * np.eye(3)
    p = rng.normal(0.0, 1.0, 3)
    u, factor = solve_root(M, p, 0.2)
    ref = scipy.linalg.cho_factor(M + 0.2 * np.eye(3), lower=True)
    assert np.array_equal(factor, ref[0])
    assert np.array_equal(u, scipy.linalg.cho_solve(ref, p))


def test_a_regularization_too_small_for_a_singular_metric_raises():
    p = np.array([1.0, 1.0])
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMetricError, match="regularization 1.000e-14 is too small"):
        solve_root(singular, p, 1e-14)
    tree = single_leaf_tree(2, raw_leaf([6.0], 3.0 * np.eye(1)),
                            mapping=LinearMap(np.array([[1.0, 1.0]])))
    with pytest.raises(SingularMetricError):
        evaluate_policy(tree, np.zeros(2), regularization=1e-14)
    assert np.isfinite(evaluate_policy(tree, np.zeros(2), regularization=1e-3)).all()


@pytest.mark.parametrize("bad", [-5.0, float("nan"), float("inf")])
def test_root_solves_reject_negative_or_nonfinite_regularization(bad):
    tree = single_leaf_tree(2, raw_leaf([1.0, 0.0], np.eye(2)))
    with pytest.raises(StructureError, match="regularization"):
        solve_root(np.eye(2), np.ones(2), bad)
    with pytest.raises(StructureError, match="regularization"):
        flat_solve(tree, np.zeros(2), regularization=bad)


@pytest.mark.parametrize("bad", ["x", None, [], "3", {}],
                         ids=["string", "none", "list", "numeric-string", "dict"])
def test_root_solves_reject_a_regularization_that_is_not_a_real_number(bad):
    tree = single_leaf_tree(2, raw_leaf([1.0, 0.0], np.eye(2)))
    q = np.zeros(2)
    for solve in (lambda: evaluate_policy(tree, q, tree.init_params(), bad),
                  lambda: run_pipeline(tree, q, tree.init_params(), bad),
                  lambda: solve_root(np.eye(2), np.ones(2), bad),
                  lambda: flat_solve(tree, q, regularization=bad)):
        with pytest.raises(StructureError, match="regularization must be a real number"):
            solve()


def test_evaluate_policy_reads_run_pipeline(rng):
    for seed in range(10):
        tree, params = random_tree(seed + 700, max_depth=3)
        q = rng.uniform(-1.0, 1.0, tree.root_dim)
        for reg in (0.0, 0.1):
            assert np.array_equal(evaluate_policy(tree, q, params, reg),
                                  run_pipeline(tree, q, params, reg).pi)


@pytest.mark.parametrize("entry", [
    run_pipeline, evaluate_policy, root_potential, flat_solve,
    lambda tree, q, params: policy_vjp(tree, q, params, np.ones(3)),
    policy_param_jacobian, lambda tree, q, params: integrate(tree, params, q),
], ids=["run_pipeline", "evaluate_policy", "root_potential", "flat_solve", "policy_vjp",
        "policy_param_jacobian", "integrate"])
def test_single_state_entry_points_reject_a_stack(entry):
    # The stages take a stack too; an entry point that takes one state
    # must not pass one on.
    tree, params, _ = three_link_stability_fixture()
    Q = np.stack(stability_seed_states(10, seed=0)[:2])
    with pytest.raises(StructureError, match=r"^q has shape \(2, 3\), root dimension is 3$"):
        entry(tree, Q, params)


# ---------------------------------------------------------------------------
# evaluate_policy / flat_solve
# ---------------------------------------------------------------------------


def test_single_leaf_policy_returns_leaf_velocity(rng):
    for _ in range(3):
        v = rng.uniform(-1.0, 1.0, 2)
        B = rng.normal(0.0, 1.0, (2, 2))
        M = B @ B.T + 0.4 * np.eye(2)
        tree = single_leaf_tree(2, raw_leaf(v, M))
        q = rng.uniform(-1.0, 1.0, 2)
        np.testing.assert_allclose(evaluate_policy(tree, q), v, atol=1e-12)
        np.testing.assert_allclose(flat_solve(tree, q), v, atol=1e-12)


def test_two_equal_leaves_average():
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.0, 2.0])
    tree = TransformTree(
        [2, 2, 2],
        [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
        {1: raw_leaf(v1, np.eye(2)), 2: raw_leaf(v2, np.eye(2))},
    )
    np.testing.assert_allclose(evaluate_policy(tree, np.zeros(2)),
                               0.5 * (v1 + v2), atol=1e-14)


def test_arm_attractor_damper_matches_flat(rng):
    tree = TransformTree(
        [3, 2, 3],
        [Edge(0, 1, PlanarArmFK([1.0, 1.0, 1.0], "ee")), Edge(0, 2, IdentityMap(3))],
        {1: handcrafted_attractor([1.0, 1.0], gain=2.0, weight=1.5),
         2: handcrafted_damper(0.7, 3)},
    )
    for _ in range(5):
        q = rng.uniform(-1.0, 1.0, 3)
        np.testing.assert_allclose(evaluate_policy(tree, q),
                                   flat_solve(tree, q), atol=1e-10)


def test_flat_solve_rank_deficient_pullback_raises():
    # 1-D leaf fed by J = [1, 1]: the pulled-back metric has rank 1
    tree = single_leaf_tree(2, raw_leaf([6.0], 3.0 * np.eye(1)),
                            mapping=LinearMap(np.array([[1.0, 1.0]])))
    with pytest.raises(SingularMetricError):
        flat_solve(tree, np.zeros(2))
    with pytest.raises(SingularMetricError):
        evaluate_policy(tree, np.zeros(2))


@pytest.mark.parametrize("regularization", [0.0, 1e-3, 0.1])
def test_tree_flat_equivalence_sweep(rng, regularization):
    worst = 0.0
    for seed in range(40):
        tree, params = random_tree(seed)
        for _ in range(2):
            q = rng.uniform(-1.0, 1.0, tree.root_dim)
            dev = np.abs(evaluate_policy(tree, q, params, regularization)
                         - flat_solve(tree, q, params, regularization)).max()
            worst = max(worst, float(dev))
    assert worst <= 1e-10


def test_shared_ancestor_reuse_matches_independent_composition(rng):
    # two leaves under one kinematic branch: shared computation must not
    # change anything relative to composing each leaf separately
    fk = PlanarArmFK([1.0, 1.0, 1.0], "ee")
    tree = TransformTree(
        [3, 2, 2, 1, 3],
        [Edge(0, 1, fk), Edge(1, 2, IdentityMap(2)),
         Edge(1, 3, LinearMap(np.array([[0.5, -1.0]]))),
         Edge(0, 4, IdentityMap(3))],
        {2: handcrafted_attractor([0.5, 0.5]),
         3: raw_leaf([0.2], 2.0 * np.eye(1)),
         4: handcrafted_damper(0.5, 3)},
    )
    for _ in range(5):
        q = rng.uniform(-1.0, 1.0, 3)
        np.testing.assert_allclose(evaluate_policy(tree, q),
                                   flat_solve(tree, q), atol=1e-12)


def test_determinism_bit_identical(rng):
    tree, params = random_tree(77)
    q = rng.uniform(-1.0, 1.0, tree.root_dim)
    a = evaluate_policy(tree, q, params)
    b = evaluate_policy(tree, q, params)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------


def test_single_node_tree_root_is_the_leaf():
    tree = TransformTree([2], [], {0: raw_leaf([0.3, -0.1], 2.0 * np.eye(2))})
    q = np.array([0.5, 0.5])
    np.testing.assert_allclose(evaluate_policy(tree, q), [0.3, -0.1], atol=1e-14)
    np.testing.assert_allclose(flat_solve(tree, q), [0.3, -0.1], atol=1e-14)


def test_validation_rejects_disconnected_and_cyclic_wiring():
    with pytest.raises(StructureError, match="not connected"):
        TransformTree([2, 2, 2], [Edge(0, 1, IdentityMap(2))],
                      {1: raw_leaf([0.0, 0.0], np.eye(2)),
                       2: raw_leaf([0.0, 0.0], np.eye(2))})
    with pytest.raises(StructureError, match="topological"):
        TransformTree([2, 2], [Edge(1, 0, IdentityMap(2))],
                      {0: raw_leaf([0.0, 0.0], np.eye(2))})


def test_validation_requires_policy_on_every_leaf():
    with pytest.raises(StructureError, match="no policy"):
        TransformTree([2, 2], [Edge(0, 1, IdentityMap(2))], {})
    with pytest.raises(StructureError, match="not a leaf"):
        TransformTree(
            [2, 2, 2],
            [Edge(0, 1, IdentityMap(2)), Edge(1, 2, IdentityMap(2))],
            {1: raw_leaf([0.0, 0.0], np.eye(2)),
             2: raw_leaf([0.0, 0.0], np.eye(2))},
        )


def test_validation_rejects_double_parent():
    with pytest.raises(StructureError, match="more than one parent"):
        TransformTree(
            [2, 2, 2],
            [Edge(0, 2, IdentityMap(2)), Edge(1, 2, IdentityMap(2)),
             Edge(0, 1, IdentityMap(2))],
            {2: raw_leaf([0.0, 0.0], np.eye(2))},
        )


def test_learnable_component_cannot_move_to_a_second_tree():
    net = CholeskyMetricNet(2, hidden=(4,), seed=0)

    def build(first, second):
        return TransformTree(
            [2, 2, 2],
            [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
            {1: first, 2: second},
        )

    t1 = build(RawVMLeaf(np.zeros(2), ConstantMetric(np.eye(2)), learnable=True),
               NaturalGradientLeaf(2, QuadraticPotential(np.ones(2)), net))
    p1 = t1.init_params()
    assert net.param_slice == slice(2, 2 + net.n_params)
    q = np.array([0.3, -0.2])
    before = evaluate_policy(t1, q, p1)

    # The net would move to 0:n_params; the fresh leaf listed first must
    # not be bound either, so it stays usable in another tree.
    fresh = RawVMLeaf(np.zeros(2), ConstantMetric(np.eye(2)), learnable=True)
    with pytest.raises(StructureError, match="bound to weights 2:"):
        build(NaturalGradientLeaf(2, QuadraticPotential(np.ones(2)), net), fresh)
    assert net.param_slice == slice(2, 2 + net.n_params)
    assert fresh.param_slice is None
    assert np.array_equal(evaluate_policy(t1, q, p1), before)

    # Reuse at the same slice is allowed.
    t3 = build(fresh, NaturalGradientLeaf(2, QuadraticPotential(np.ones(2)), net))
    assert t3.n_params == t1.n_params
    assert np.array_equal(evaluate_policy(t3, q, p1), before)


def test_component_shared_by_two_leaves_is_bound_once():
    net = CholeskyMetricNet(2, hidden=(4,), seed=3)
    tree = TransformTree(
        [2, 2, 2, 2],
        [Edge(0, 1, IdentityMap(2)),
         Edge(0, 2, LinearMap(np.array([[1.0, 0.5], [-0.3, 1.2]]))),
         Edge(0, 3, IdentityMap(2))],
        {1: NaturalGradientLeaf(2, QuadraticPotential(np.array([0.4, -0.2])), net),
         2: NaturalGradientLeaf(2, QuadraticPotential(np.array([-0.3, 0.6])), net),
         3: handcrafted_damper(0.5, 2)},
    )
    params = tree.init_params()
    assert tree.n_params == net.n_params == 27
    assert params.registry == [("leaf[1].metric", 0, 27)]
    # Both leaves' gradients add into the one slice.
    q = np.array([0.3, -0.7])
    cot = np.array([0.8, -1.1])
    grad = policy_vjp(tree, q, params, cot)
    fd = fd_grad_wrt_params(lambda p: float(cot @ evaluate_policy(tree, q, p)), params)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


def test_check_tree_verifies_the_jacobian_the_forward_pass_uses():
    class SkewedFK(PlanarArmFK):
        def value_and_jacobian(self, x, params=None):
            y, J = super().value_and_jacobian(x, params)
            return y, J + 1e-3

    def arm_tree(fk):
        return TransformTree(
            [3, 2, 3], [Edge(0, 1, fk), Edge(0, 2, IdentityMap(3))],
            {1: handcrafted_attractor([1.5, 0.8]), 2: handcrafted_damper(0.3, 3)},
        )

    assert check_tree(arm_tree(PlanarArmFK([1.0, 1.0, 1.0])))["status"] == "pass"
    report = check_tree(arm_tree(SkewedFK([1.0, 1.0, 1.0])))
    assert report["status"] == "numeric_failure"
    assert {f["kind"] for f in report["failures"]} == {"jacobian_mismatch"}


def test_check_tree_takes_whole_float_counts_and_rejects_others():
    tree, params, _ = three_link_stability_fixture()
    assert check_tree(tree, params, n_points=2.0, seed=1.0) == check_tree(
        tree, params, n_points=2, seed=1)
    for bad in (dict(n_points=2.5), dict(seed=2.5), dict(seed="3"), dict(n_points="3")):
        with pytest.raises(StructureError, match="must be an integer"):
            check_tree(tree, params, **bad)


class NarrowJacobian(DifferentiableMap):
    """A 2 -> 2 map whose Jacobian has one column too few."""

    in_dim = out_dim = 2

    def value_and_jacobian(self, x, params=None):
        return np.asarray(x, dtype=float), np.ones((2, 1))


def test_forward_pass_rejects_a_misshapen_jacobian():
    # Between an identity edge and an attractor, the (2, 1) Jacobian once
    # gave pi = [0.14, 0.14] without an error.
    tree = TransformTree(
        [2, 2, 2, 2],
        [Edge(0, 1, IdentityMap(2)), Edge(1, 2, NarrowJacobian()), Edge(0, 3, IdentityMap(2))],
        {2: handcrafted_attractor([0.5, 0.5]), 3: handcrafted_damper(1.0, 2)})
    message = "edge 1->2: map produced shapes (2,) and (2, 1), expected (2,) and (2, 2)"
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        evaluate_policy(tree, [0.2, 0.1])
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        run_stacked(tree, np.zeros((3, 2)))
    with pytest.raises(StructureError, match=f"^sample 0: {re.escape(message)}$"):
        loss_value(LossSpec("subtask_space", np.ones(2)), tree, None,
                   [(np.array([0.2, 0.1]), np.zeros(2))])
