import numpy as np
import pytest

from treemotion.errors import StructureError
from treemotion.fixtures import gradcheck_cases
from treemotion.gradients import (
    policy_param_jacobian,
    policy_vjp,
    run_pipeline,
    pipeline_vjp,
)
from treemotion.learning import loss_and_gradient
from treemotion.losses import DemoSet, LossSpec, Trajectory, loss_value
from treemotion.maps import DiffeoChain, IdentityMap
from treemotion.policies import (
    ConstantMetric,
    LatentQuadraticPotential,
    NaturalGradientLeaf,
    QuadraticPotential,
    RawVMLeaf,
    handcrafted_damper,
)
from treemotion.tree import Edge, TransformTree, evaluate_policy

from conftest import fd_grad_wrt_params


def identity_theta_tree(dim=2):
    """Single identity-map leaf with fixed M = I and v = theta: pi == theta."""
    leaf = RawVMLeaf(np.array([0.25, -0.4][:dim]), ConstantMetric(np.eye(dim)),
                     learnable=True)
    tree = TransformTree([dim, dim], [Edge(0, 1, IdentityMap(dim))], {1: leaf})
    return tree, tree.init_params()


def test_no_learnables_gives_width_zero_jacobian():
    tree = TransformTree([2, 2], [Edge(0, 1, IdentityMap(2))],
                         {1: handcrafted_damper(1.0, 2)})
    params = tree.init_params()
    assert params.size == 0
    grad = policy_param_jacobian(tree, np.zeros(2), params)
    assert grad.jacobian.shape == (2, 0)


def test_direct_velocity_parameterization_gives_identity_jacobian():
    tree, params = identity_theta_tree()
    grad = policy_param_jacobian(tree, np.array([0.1, 0.2]), params)
    np.testing.assert_allclose(grad.jacobian, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(evaluate_policy(tree, np.zeros(2), params),
                               params.values, atol=1e-14)


def test_policy_jacobian_matches_fd_on_learnable_trees():
    h = 1e-5
    for tree, params, demos, _ in gradcheck_cases(4):
        q = demos.trajectories[0].q[0]
        J = policy_param_jacobian(tree, q, params).jacobian
        J_fd = np.zeros_like(J)
        for i in range(params.size):
            up = params.copy()
            up.values[i] += h
            dn = params.copy()
            dn.values[i] -= h
            J_fd[:, i] = (evaluate_policy(tree, q, up)
                          - evaluate_policy(tree, q, dn)) / (2.0 * h)
        denom = np.maximum(np.abs(J_fd), 1e-3)
        assert (np.abs(J - J_fd) / denom).max() < 1e-4


def test_vjp_is_transpose_contraction(rng):
    tree, params, demos, _ = gradcheck_cases(1)[0]
    q = demos.trajectories[0].q[0]
    J = policy_param_jacobian(tree, q, params).jacobian
    g = rng.normal(0.0, 1.0, tree.root_dim)
    np.testing.assert_allclose(policy_vjp(tree, q, params, g), g @ J, atol=1e-13)


def test_loss_gradient_zero_at_global_minimum():
    tree, params = identity_theta_tree()
    qdot = params.values.copy()  # demos produced exactly by the policy
    demos = DemoSet([Trajectory(np.array([0.0, 0.1]),
                                np.array([[0.3, 0.1], [-0.2, 0.4]]),
                                np.stack([qdot, qdot]))])
    g = loss_and_gradient(tree, params, demos, LossSpec("joint_space"))[1]
    assert np.linalg.norm(g) < 1e-8


def test_loss_gradient_single_scalar_matches_fd():
    leaf = RawVMLeaf(np.array([0.3]), ConstantMetric(np.eye(1)), learnable=True)
    tree = TransformTree([1, 1], [Edge(0, 1, IdentityMap(1))], {1: leaf})
    params = tree.init_params()
    demos = DemoSet([Trajectory(np.array([0.0]), np.array([[0.5]]),
                                np.array([[1.2]]))])
    loss = LossSpec("joint_space")
    g = loss_and_gradient(tree, params, demos, loss)[1]
    fd = fd_grad_wrt_params(lambda p: loss_value(loss, tree, p, demos), params)
    assert abs(g[0] - fd[0]) / max(abs(fd[0]), 1e-3) < 1e-4


def test_subtask_gradient_all_zero_weights_is_zero(rng):
    tree, params, demos, _ = gradcheck_cases(1)[0]
    lam = np.zeros(len(tree.leaves))
    g = loss_and_gradient(tree, params, demos, LossSpec("subtask_space", lam))[1]
    np.testing.assert_allclose(g, 0.0)


def test_gradient_scales_exactly_with_weights():
    # doubling lam doubles the gradient bit-exactly (power-of-two scaling)
    for tree, params, demos, loss in gradcheck_cases(2):
        if loss.kind != "subtask_space":
            continue
        g1 = loss_and_gradient(tree, params, demos,
                               LossSpec("subtask_space", loss.lam))[1]
        g2 = loss_and_gradient(tree, params, demos,
                               LossSpec("subtask_space", 2.0 * loss.lam))[1]
        assert np.array_equal(g2, 2.0 * g1)


def test_jacobian_chain_rule_matches_loss_gradient():
    tree, params, demos, loss = gradcheck_cases(2)[1]
    assert loss.kind == "joint_space"
    q = demos.trajectories[0].q[0]
    qdot = demos.trajectories[0].qdot[0]
    one = DemoSet([Trajectory(np.array([0.0]), q[None, :], qdot[None, :])])
    direct = loss_and_gradient(tree, params, one, loss)[1]
    J = policy_param_jacobian(tree, q, params).jacobian
    pi = evaluate_policy(tree, q, params)
    composed = J.T @ (2.0 * (pi - qdot))
    np.testing.assert_allclose(direct, composed, atol=1e-12)


def test_fd_oracle_sweep_over_mixed_cases():
    h = 1e-5
    for tree, params, demos, loss in gradcheck_cases(8):
        value, g = loss_and_gradient(tree, params, demos, loss)
        # The trainer's loss and the reported loss are one computation.
        assert value == loss_value(loss, tree, params, demos)
        fd = fd_grad_wrt_params(lambda p: loss_value(loss, tree, p, demos),
                                params, h=h)
        small = np.abs(fd) < 1e-3
        if (~small).any():
            rel = np.abs(g - fd)[~small] / np.abs(fd)[~small]
            assert rel.max() < 1e-4
        if small.any():
            assert np.abs(g - fd)[small].max() < 1e-7


def test_raw_leaf_with_learnable_metric_matches_fd(rng):
    # p = M(z) v couples the force cotangent into the metric cotangent;
    # check that path against finite differences
    from treemotion.policies import CholeskyMetricNet

    leaf = RawVMLeaf(np.array([0.6, -0.3]),
                     CholeskyMetricNet(2, hidden=(5,), seed=13),
                     learnable=True)
    damp = handcrafted_damper(0.5, 2)
    tree = TransformTree(
        [2, 2, 2],
        [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
        {1: leaf, 2: damp},
    )
    params = tree.init_params()
    q = rng.uniform(-0.7, 0.7, 2)
    qdot = rng.uniform(-1.0, 1.0, 2)
    demos = DemoSet([Trajectory(np.array([0.0]), q[None, :], qdot[None, :])])
    loss = LossSpec("joint_space")
    g = loss_and_gradient(tree, params, demos, loss)[1]
    fd = fd_grad_wrt_params(lambda p: loss_value(loss, tree, p, demos), params)
    denom = np.maximum(np.abs(fd), 1e-3)
    assert (np.abs(g - fd) / denom).max() < 1e-4


def test_nested_learnable_edges_are_rejected():
    c1 = DiffeoChain(2, n_layers=1, n_features=3, seed=1)
    c2 = DiffeoChain(2, n_layers=1, n_features=3, seed=2)
    leaf = RawVMLeaf(np.zeros(2), ConstantMetric(np.eye(2)))
    tree = TransformTree([2, 2, 2], [Edge(0, 1, c1), Edge(1, 2, c2)], {2: leaf})
    params = tree.init_params()
    with pytest.raises(StructureError, match="learnable edge"):
        policy_vjp(tree, np.zeros(2), params, np.ones(2))


def test_nested_learnable_edges_get_the_message_decided_at_construction():
    c1 = DiffeoChain(2, n_layers=1, n_features=3, seed=1)
    c2 = DiffeoChain(2, n_layers=1, n_features=3, seed=2)
    leaf = RawVMLeaf(np.zeros(2), ConstantMetric(np.eye(2)))
    tree = TransformTree([2, 2, 2], [Edge(0, 1, c1), Edge(1, 2, c2)], {2: leaf})
    message = "edge 0->1: learnable edge maps must terminate at a leaf"
    assert tree._gradient_error == message
    params = tree.init_params()
    cache = run_pipeline(tree, np.zeros(2), params)
    for _ in range(2):
        with pytest.raises(StructureError) as info:
            pipeline_vjp(tree, cache, params, np.ones(2), params.zeros_like())
        assert str(info.value) == message


def test_learnable_edge_must_end_at_leaf():
    c1 = DiffeoChain(2, n_layers=1, n_features=3, seed=1)
    leaf = RawVMLeaf(np.zeros(2), ConstantMetric(np.eye(2)))
    tree = TransformTree([2, 2, 2], [Edge(0, 1, c1), Edge(1, 2, IdentityMap(2))],
                         {2: leaf})
    params = tree.init_params()
    with pytest.raises(StructureError, match="terminate at a leaf"):
        policy_vjp(tree, np.zeros(2), params, np.ones(2))


def test_pipeline_cache_reuse_is_consistent(rng):
    tree, params, demos, _ = gradcheck_cases(1)[0]
    q = demos.trajectories[0].q[0]
    cache = run_pipeline(tree, q, params)
    g = rng.normal(0.0, 1.0, tree.root_dim)
    grad1 = params.zeros_like()
    pipeline_vjp(tree, cache, params, g, grad1)
    np.testing.assert_allclose(grad1, policy_vjp(tree, q, params, g), atol=0.0)


def test_pipeline_vjp_on_a_regularized_cache_matches_central_differences(rng):
    # The shift reg * I carries no weights, so the reverse formula is the
    # unregularized one applied to the factor of M_root + reg I.
    reg = 0.3
    for tree, params, demos, _ in gradcheck_cases(4):
        q = demos.trajectories[0].q[0]
        g = rng.normal(0.0, 1.0, tree.root_dim)
        grad = params.zeros_like()
        pipeline_vjp(tree, run_pipeline(tree, q, params, reg), params, g, grad)
        fd = fd_grad_wrt_params(lambda p: g @ evaluate_policy(tree, q, p, reg), params)
        assert np.abs(grad - fd).max() <= 1e-8 * max(1.0, np.abs(fd).max())
        assert np.abs(grad - policy_vjp(tree, q, params, g)).max() > 1e-6

def test_leaf_below_a_fixed_edge_still_reaches_a_chain_through_its_goal(rng):
    # Leaf 2 hangs below a fixed identity edge and has a frozen metric, but
    # its latent goal is the image of the chain bound on edge 0->1. The
    # reverse pass skips only leaves that read no weights (the damper).
    chain = DiffeoChain(2, n_layers=2, n_features=5, length_scale=1.5, seed=4,
                        init_scale=0.3)
    tree = TransformTree(
        [2, 2, 2, 2],
        [Edge(0, 1, chain), Edge(0, 2, IdentityMap(2)), Edge(0, 3, IdentityMap(2))],
        {
            1: NaturalGradientLeaf(2, QuadraticPotential([0.2, -0.1]),
                                   ConstantMetric(np.eye(2))),
            2: NaturalGradientLeaf(2, LatentQuadraticPotential([0.4, 0.3], chain),
                                   ConstantMetric(np.diag([2.0, 0.5]))),
            3: handcrafted_damper(0.5, 2),
        },
    )
    params = tree.init_params()
    q = rng.uniform(-0.5, 0.5, 2)
    g = rng.normal(0.0, 1.0, 2)
    grad = policy_vjp(tree, q, params, g)
    assert [row[0] for row in tree._reverse_leaves] == [1, 2]
    fd = fd_grad_wrt_params(lambda p: g @ evaluate_policy(tree, q, p), params)
    denom = np.maximum(np.abs(fd), 1e-3)
    assert (np.abs(grad - fd) / denom).max() < 1e-6
