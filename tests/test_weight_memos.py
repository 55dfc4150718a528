"""Weight views and goal tapes are memoized, and no memo may go stale.

A chain's layer thetas and a metric net's weight arrays are built once
per parameter vector (views, so writes made in place show through); a
latent goal keeps its tape while the bytes of its chain's weights and of
its goal are unchanged. Every output must be the same bits as a freshly
built tree's, whatever happened to the vector in between.
"""

import numpy as np
import pytest

from treemotion.learning import loss_and_gradient
from treemotion.losses import DemoSet, LossSpec, Trajectory
from treemotion.maps import DiffeoChain, IdentityMap
from treemotion.params import ParamRegistryBuilder, ParamVector
from treemotion.policies import (
    CholeskyMetricNet,
    LatentQuadraticPotential,
    NaturalGradientLeaf,
    QuadraticPotential,
    handcrafted_damper,
)
from treemotion.tree import Edge, TransformTree, evaluate_policy

QS = np.array([[0.3, -0.2], [-0.5, 0.4], [0.1, 0.6]])
DEMOS = DemoSet([Trajectory(np.arange(3.0), QS, np.array([[0.2, 0.1], [-0.3, 0.2],
                                                           [0.4, -0.1]]))])
LOSS = LossSpec("subtask_space", np.ones(3))


def build(chain_learnable=True, net_learnable=True, shared_net=False):
    chain = DiffeoChain(2, n_layers=2, n_features=5, length_scale=2.0, seed=3,
                        learnable=chain_learnable, init_scale=0.3)
    net = CholeskyMetricNet(2, hidden=(5,), eps=1e-3, seed=4, learnable=net_learnable)
    other = net if shared_net else CholeskyMetricNet(2, hidden=(4,), eps=1e-3, seed=5)
    goal = LatentQuadraticPotential(np.array([0.4, -0.3]), chain)
    policies = {
        2: NaturalGradientLeaf(2, goal, net),
        3: NaturalGradientLeaf(2, QuadraticPotential(np.array([-0.2, 0.5])), other),
        4: handcrafted_damper(0.5, 2),
    }
    edges = [Edge(0, 1, IdentityMap(2)), Edge(1, 2, chain), Edge(0, 3, IdentityMap(2)),
             Edge(0, 4, IdentityMap(2))]
    return TransformTree([2] * 5, edges, policies)


def outputs(tree, params):
    loss, grad = loss_and_gradient(tree, params, DEMOS, LOSS)
    return [evaluate_policy(tree, q, params) for q in QS] + [np.array(loss), grad]


def assert_matches_a_fresh_tree(tree, params, build_args):
    fresh = ParamVector(params.values.copy(), list(params.registry))
    got, want = outputs(tree, params), outputs(build(**build_args), fresh)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


@pytest.mark.parametrize("build_args", [
    {}, {"chain_learnable": False}, {"net_learnable": False}, {"shared_net": True},
], ids=["learnable", "frozen_chain", "frozen_net", "shared_net"])
def test_memoized_weights_never_go_stale(build_args):
    rng = np.random.default_rng(11)
    tree = build(**build_args)
    params = tree.init_params()
    params.values[:] += rng.normal(0.0, 0.2, params.size)
    assert_matches_a_fresh_tree(tree, params, build_args)
    first = params.values.copy()

    params.values[:] += rng.normal(0.0, 0.2, params.size)  # in place
    assert_matches_a_fresh_tree(tree, params, build_args)

    other = params.with_values(first)  # a new vector, then back
    assert_matches_a_fresh_tree(tree, other, build_args)
    assert_matches_a_fresh_tree(tree, params, build_args)
    assert not np.array_equal(params.values, first)


def test_signed_zero_and_nan_goal_weights_match_an_uncached_goal():
    chain = DiffeoChain(2, n_layers=2, n_features=5, length_scale=2.0, seed=6)
    builder = ParamRegistryBuilder()
    chain.param_slice = builder.register("chain", np.zeros(chain.n_params))
    params = builder.build()
    goal, z, cot = np.array([0.4, -0.3]), np.array([0.1, 0.2]), np.array([0.7, -1.1])

    def results(pot):
        grad, tape = pot.grad_tape(z, params)
        weights = params.zeros_like()
        for where, R in pot.grad_param_vjp(z, params, cot, tape)[1]:
            weights[where] += R
        return grad.tobytes(), weights.tobytes()

    cached = LatentQuadraticPotential(goal, chain)
    assert results(cached) == results(LatentQuadraticPotential(goal, chain))
    params.values[::2] = -0.0  # equal to 0.0 by value, not by bytes
    assert results(cached) == results(LatentQuadraticPotential(goal, chain))
    params.values[3] = np.nan
    for _ in range(2):
        assert results(cached) == results(LatentQuadraticPotential(goal, chain))
