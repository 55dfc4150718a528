"""The leaf table: each leaf's place in the tree, decided once at
construction and read by evaluation, the reverse pass, the subtask loss
and the per-leaf baseline."""

import numpy as np
import pytest

from treemotion import learning
from treemotion.errors import StructureError
from treemotion.gradients import policy_vjp
from treemotion.learning import TrainOptions, train_independent_baseline
from treemotion.losses import DemoSet, LossSpec, Trajectory, loss_value
from treemotion.maps import DiffeoChain, IdentityMap
from treemotion.policies import (
    CholeskyMetricNet,
    ConstantMetric,
    LatentQuadraticPotential,
    NaturalGradientLeaf,
    QuadraticPotential,
    handcrafted_damper,
)
from treemotion.tree import Edge, TransformTree, evaluate_policy

from conftest import fd_grad_wrt_params


def make_chain(**kw):
    return DiffeoChain(2, n_layers=2, n_features=5, length_scale=1.5, seed=4,
                       init_scale=0.3, **kw)


def goal_only_tree(chain, metric):
    """Leaf 1 reads ``chain`` only through its latent goal; no edge maps it."""
    leaf = NaturalGradientLeaf(2, LatentQuadraticPotential([0.4, 0.3], chain), metric)
    return TransformTree([2, 2, 2],
                         [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
                         {1: leaf, 2: handcrafted_damper(0.5, 2)})


def shared_goal_chain_tree():
    # Leaf 1 sits below the chain; leaf 2 sits below a fixed edge and
    # reads the same chain through its latent goal.
    chain = make_chain()
    return TransformTree(
        [2, 2, 2, 2],
        [Edge(0, 1, chain), Edge(0, 2, IdentityMap(2)), Edge(0, 3, IdentityMap(2))],
        {
            1: NaturalGradientLeaf(2, QuadraticPotential([0.2, -0.1]),
                                   CholeskyMetricNet(2, hidden=(4,), seed=1)),
            2: NaturalGradientLeaf(2, LatentQuadraticPotential([0.4, 0.3], chain),
                                   ConstantMetric(np.diag([2.0, 0.5]))),
            3: handcrafted_damper(0.5, 2),
        },
    )


def test_rows_split_each_path_into_anchor_and_latent():
    chain = make_chain(learnable=False)
    tree = TransformTree(
        [2, 2, 2, 2, 2],
        [Edge(0, 1, chain), Edge(1, 2, IdentityMap(2)), Edge(0, 3, IdentityMap(2)),
         Edge(3, 4, make_chain())],
        {2: NaturalGradientLeaf(2, QuadraticPotential([0.1, 0.2]),
                                ConstantMetric(np.eye(2))),
         4: NaturalGradientLeaf(2, QuadraticPotential([0.1, 0.2]),
                                ConstantMetric(np.eye(2)))},
    )
    mid, below = tree.leaf_table[2], tree.leaf_table[4]
    assert list(tree.leaf_table) == tree.leaves == [2, 4]
    assert mid.latent is None and mid.anchor == mid.path == tree.edges[:2]
    assert below.latent is below.edge is tree.edges[3]
    assert below.anchor == [tree.edges[2]]
    assert [row.node for row in tree._reverse_leaves] == [4]


def test_goal_chain_bound_by_another_tree_is_rejected():
    chain = make_chain()
    TransformTree([2, 2, 2], [Edge(0, 1, chain), Edge(0, 2, IdentityMap(2))],
                  {1: NaturalGradientLeaf(2, QuadraticPotential([0.2, -0.1]),
                                          ConstantMetric(np.eye(2))),
                   2: handcrafted_damper(0.5, 2)})
    assert chain.param_slice == slice(0, chain.n_params)
    net = CholeskyMetricNet(2, hidden=(4,), seed=2)
    with pytest.raises(StructureError,
                       match=r"leaf\[1\]\.goal_chain is bound to weights 0:"):
        goal_only_tree(chain, net)
    assert net.param_slice is None  # nothing was rebound


def test_goal_chain_bound_as_leaf_component_matches_fd(rng):
    chain = make_chain()
    net = CholeskyMetricNet(2, hidden=(4,), seed=2)
    tree = goal_only_tree(chain, net)
    params = tree.init_params()
    assert params.registry == [("leaf[1].metric", 0, net.n_params),
                               ("leaf[1].goal_chain", net.n_params, chain.n_params)]
    q = rng.uniform(-0.5, 0.5, 2)
    g = rng.normal(0.0, 1.0, 2)
    grad = policy_vjp(tree, q, params, g)
    fd = fd_grad_wrt_params(lambda p: g @ evaluate_policy(tree, q, p), params)
    assert np.abs(grad[chain.param_slice]).max() > 1e-3
    denom = np.maximum(np.abs(fd), 1e-3)
    assert (np.abs(grad - fd) / denom).max() < 1e-6


def test_frozen_mid_path_chain_is_part_of_the_anchor(rng):
    chain = make_chain(learnable=False)
    tree = TransformTree(
        [2, 2, 2, 2],
        [Edge(0, 1, chain), Edge(1, 2, IdentityMap(2)), Edge(0, 3, IdentityMap(2))],
        {2: NaturalGradientLeaf(2, QuadraticPotential([0.3, -0.2]),
                                ConstantMetric(np.diag([1.5, 0.7]))),
         3: handcrafted_damper(0.5, 2)},
    )
    params = tree.init_params()
    q = rng.uniform(-0.5, 0.5, 2)
    qdot = rng.uniform(-1.0, 1.0, 2)
    demos = DemoSet([Trajectory(np.zeros(1), q[None], qdot[None])])
    _, J_chain = chain.value_and_jacobian(q, params)
    assert np.abs(J_chain - np.eye(2)).max() > 1e-2
    r = J_chain @ (qdot - evaluate_policy(tree, q, params))
    value = loss_value(LossSpec("subtask_space", [1.0, 0.0]), tree, params, demos)
    assert value == pytest.approx(float(r @ r), rel=1e-12)


def test_baseline_trains_every_leaf_the_reverse_pass_visits(rng, monkeypatch):
    tree = shared_goal_chain_tree()
    params = tree.init_params()
    qs = rng.uniform(-0.5, 0.5, (4, 2))
    demos = DemoSet([Trajectory(np.arange(4.0), qs, rng.uniform(-1, 1, (4, 2)))])
    seen = []
    original = learning._baseline_leaf_loss_grad

    def recording(tree, params, leaf, samples):
        seen.append(leaf)
        return original(tree, params, leaf, samples)

    monkeypatch.setattr(learning, "_baseline_leaf_loss_grad", recording)
    trained = train_independent_baseline(tree, params, demos,
                                         TrainOptions(alpha=0.01, iterations=1))
    assert sorted(set(seen)) == [1, 2]
    assert [row.node for row in tree._reverse_leaves] == [1, 2]
    assert not np.array_equal(trained.values, params.values)
