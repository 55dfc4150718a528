import numpy as np
import pytest

from treemotion.errors import DomainError, StructureError
from treemotion.fixtures import random_tree
from treemotion.maps import DiffeoChain, IdentityMap
from treemotion.params import ParamRegistryBuilder
from treemotion.policies import (
    BarrierPotential,
    CholeskyMetricNet,
    ConstantMetric,
    InverseSquareMetric,
    LatentQuadraticPotential,
    NaturalGradientLeaf,
    QuadraticPotential,
    RawVMLeaf,
    ZeroPotential,
    handcrafted_attractor,
    handcrafted_barrier,
    handcrafted_damper,
)
from treemotion.tree import (
    Edge,
    TransformTree,
    backward_pass,
    evaluate_policy,
    forward_pass,
    leaf_evaluate,
    root_potential,
)
from treemotion.verify import potential_gradient_fd

from conftest import fd_grad_wrt_params, fd_jacobian


def standalone_net(dim, **kw):
    net = CholeskyMetricNet(dim, **kw)
    builder = ParamRegistryBuilder()
    net.param_slice = builder.register("net", net.init_values())
    return net, builder.build()


# ---------------------------------------------------------------------------
# Cholesky metric network
# ---------------------------------------------------------------------------


def test_cholesky_zero_weights_gives_identity():
    net, params = standalone_net(2, hidden=(4,), eps=1.0, seed=0)
    params.values[:] = 0.0
    L, M = net.decompose(np.array([0.3, -0.4]), params)
    np.testing.assert_allclose(L, np.eye(2))
    np.testing.assert_allclose(M, np.eye(2))


def test_cholesky_head_arithmetic():
    # raw heads l_d = [-2, 0], l_o = [3] with eps = 0.5
    net, params = standalone_net(2, hidden=(4,), eps=0.5, seed=0)
    params.values[:] = 0.0
    assert net._shapes == [(4, 2), (4,), (2, 4), (2,), (1, 4), (1,)]
    off = 4 * 2 + 4 + 2 * 4
    params.values[off: off + 2] = [-2.0, 0.0]
    params.values[off + 2 + 4: off + 2 + 4 + 1] = [3.0]
    L, M = net.decompose(np.zeros(2), params)
    np.testing.assert_allclose(L, [[2.5, 0.0], [3.0, 0.5]])
    np.testing.assert_allclose(M, [[6.25, 7.5], [7.5, 9.25]])


def test_cholesky_spd_sweep():
    rng = np.random.default_rng(5)
    worst = np.inf
    for trial in range(10):
        net, params = standalone_net(2 + trial % 3, hidden=(8, 8), eps=1e-4,
                                     seed=trial)
        params.values[:] = rng.normal(0.0, 1.0, params.size)
        for _ in range(100):
            w = rng.uniform(-3.0, 3.0, net.in_dim)
            M = net.value(w, params)
            worst = min(worst, float(np.linalg.eigvalsh(M).min()))
    assert worst > 0.0


def test_raw_leaf_force_matches_independent_matrix_build(rng):
    # rebuild L by hand from the weight slices and check p = (L L^T) v
    net, params = standalone_net(2, hidden=(4,), eps=1e-3, seed=21)
    params.values[:] = rng.normal(0.0, 0.7, params.size)
    v = rng.uniform(-1.0, 1.0, 2)
    leaf = RawVMLeaf(v, net)
    z = rng.uniform(-1.0, 1.0, 2)
    p, M = leaf.evaluate(z, params)

    W1, b1, Wd, bd, Wo, bo = (params.values[s] for s in [
        slice(0, 8), slice(8, 12), slice(12, 20), slice(20, 22),
        slice(22, 26), slice(26, 27)])
    h = np.maximum(W1.reshape(4, 2) @ z + b1, 0.0)
    d_raw = Wd.reshape(2, 4) @ h + bd
    o_raw = Wo.reshape(1, 4) @ h + bo
    L = np.array([[abs(d_raw[0]) + 1e-3, 0.0], [o_raw[0], abs(d_raw[1]) + 1e-3]])
    np.testing.assert_allclose(M, L @ L.T, atol=1e-12)
    np.testing.assert_allclose(p, (L @ L.T) @ v, atol=1e-12)


def test_cholesky_lower_triangular_structure(rng):
    net, params = standalone_net(4, hidden=(6,), seed=3)
    L, M = net.decompose(rng.uniform(-1.0, 1.0, 4), params)
    np.testing.assert_allclose(L, np.tril(L))
    assert np.all(np.diag(L) >= net.eps)
    np.testing.assert_allclose(M, L @ L.T, atol=1e-14)


# ---------------------------------------------------------------------------
# Natural-gradient forces
# ---------------------------------------------------------------------------


def test_quadratic_equilibrium_force_is_zero():
    leaf = handcrafted_attractor(np.array([0.7, -0.3]), gain=2.0)
    p, M = leaf.evaluate(np.array([0.7, -0.3]), None)
    np.testing.assert_allclose(p, 0.0)
    np.testing.assert_allclose(M, np.eye(2))


def test_latent_quadratic_with_identity_chain():
    chain = DiffeoChain(2, n_layers=2, n_features=4, learnable=False, seed=0)
    leaf = NaturalGradientLeaf(2, LatentQuadraticPotential(np.zeros(2), chain),
                               ConstantMetric(np.eye(2)))
    p, _ = leaf.evaluate(np.array([2.0, 0.0]), None)
    np.testing.assert_allclose(p, [-2.0, 0.0])


def test_latent_force_matches_fd_of_pulled_back_potential(rng):
    # force reported below the chain equals -d/dz [Phi(chain(z))] via chain rule
    chain = DiffeoChain(2, n_layers=3, n_features=6, seed=12)
    builder = ParamRegistryBuilder()
    chain.param_slice = builder.register("chain",
                                         rng.normal(0.0, 0.3, chain.n_params))
    params = builder.build()
    goal = np.array([0.4, -0.2])
    pot = LatentQuadraticPotential(goal, chain)

    def pulled(z):
        w = chain.value(z, params)
        return pot.value(w, params)

    z = rng.uniform(-1.0, 1.0, 2)
    w, J = chain.value_and_jacobian(z, params)
    force_at_subtask = J.T @ (-pot.grad(w, params))
    fd = fd_jacobian(lambda zz: np.array([pulled(zz)]), z)[0]
    np.testing.assert_allclose(force_at_subtask, -fd, atol=1e-5)


def test_eq3_consistency_when_velocity_materialized(rng):
    # M v + grad(Phi) = 0 when v is reconstructed as M^{-1} p
    net, params = standalone_net(3, hidden=(6,), seed=9)
    pot = QuadraticPotential(rng.uniform(-1.0, 1.0, 3), gain=1.7)
    leaf = NaturalGradientLeaf(3, pot, net)
    z = rng.uniform(-1.0, 1.0, 3)
    p, M = leaf.evaluate(z, params)
    v = np.linalg.solve(M, p)
    np.testing.assert_allclose(M @ v + pot.grad(z, params), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Handcrafted leaves
# ---------------------------------------------------------------------------


def test_damper_alone_holds_still(rng):
    tree = TransformTree([3, 3], [Edge(0, 1, IdentityMap(3))],
                         {1: handcrafted_damper(0.8, 3)})
    for _ in range(3):
        np.testing.assert_allclose(
            evaluate_policy(tree, rng.uniform(-1.0, 1.0, 3)), 0.0, atol=1e-14)


def test_damper_attractor_compromise():
    tree = TransformTree(
        [2, 2, 2],
        [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
        {1: RawVMLeaf(np.array([2.0, 0.0]), ConstantMetric(np.eye(2))),
         2: handcrafted_damper(1.0, 2)},
    )
    np.testing.assert_allclose(evaluate_policy(tree, np.zeros(2)), [1.0, 0.0],
                               atol=1e-14)


def test_damper_weight_sweep_shrinks_velocity():
    speeds = []
    for c in (0.1, 1.0, 10.0):
        tree = TransformTree(
            [2, 2, 2],
            [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
            {1: RawVMLeaf(np.array([2.0, 0.0]), ConstantMetric(np.eye(2))),
             2: handcrafted_damper(c, 2)},
        )
        pi = evaluate_policy(tree, np.zeros(2))
        speeds.append(float(np.linalg.norm(pi)))
        np.testing.assert_allclose(pi, [2.0 / (1.0 + c), 0.0], atol=1e-12)
    assert speeds[0] > speeds[1] > speeds[2]


def test_barrier_inactive_beyond_margin():
    leaf = handcrafted_barrier(0.5, gain=1.0, weight=1.0)
    p, M = leaf.evaluate(np.array([0.8]), None)
    np.testing.assert_allclose(p, 0.0)
    assert M[0, 0] > 0.0
    assert leaf.potential(np.array([0.8]), None) == 0.0


def test_barrier_repels_inside_margin():
    leaf = handcrafted_barrier(0.5, gain=1.0, weight=1.0)
    p, M = leaf.evaluate(np.array([0.25]), None)
    assert p[0] > 0.0  # pushes the distance to grow
    assert M[0, 0] > leaf.metric.value(np.array([0.5]), None)[0, 0]


def test_barrier_domain_error_at_and_below_zero():
    leaf = handcrafted_barrier(0.5)
    with pytest.raises(DomainError):
        leaf.evaluate(np.array([0.0]), None)
    with pytest.raises(DomainError):
        leaf.potential(np.array([-0.1]), None)


def test_barrier_gradient_matches_fd():
    pot = BarrierPotential(0.5, gain=1.3)
    for z0 in (0.15, 0.3, 0.45):
        z = np.array([z0])
        fd = fd_jacobian(lambda zz: np.array([pot.value(zz, None)]), z)[0]
        np.testing.assert_allclose(pot.grad(z, None), fd, atol=1e-6)


def test_inverse_square_metric_grows_near_zero():
    m = InverseSquareMetric(1.0, 0.5)
    assert m.value(np.array([0.1]), None)[0, 0] > m.value(np.array([1.0]), None)[0, 0]
    with pytest.raises(DomainError):
        m.value(np.array([-0.2]), None)


def test_zero_potential_raw_leaf_guards():
    with pytest.raises(StructureError):
        RawVMLeaf(np.array([1.0]), ConstantMetric(np.eye(1)), zero_potential=True)


# ---------------------------------------------------------------------------
# Closure and equilibrium of full trees
# ---------------------------------------------------------------------------


def test_root_force_is_negative_potential_gradient(rng):
    for seed in range(8):
        tree, params = random_tree(seed + 50, natural_gradient_only=True)
        q = rng.uniform(-1.0, 1.0, tree.root_dim)
        states = forward_pass(tree, q, params)
        leaf_evaluate(tree, states, params)
        backward_pass(tree, states)
        fd = potential_gradient_fd(tree, q, params)
        scale = max(1.0, float(np.abs(fd).max()))
        assert np.abs(states[0].pulled_force + fd).max() / scale < 1e-5


def test_equilibrium_is_fixed_point():
    goal = np.array([0.3, -0.6])
    tree = TransformTree(
        [2, 2, 2],
        [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
        {1: handcrafted_attractor(goal, gain=2.0),
         2: handcrafted_damper(0.5, 2)},
    )
    np.testing.assert_allclose(evaluate_policy(tree, goal), 0.0, atol=1e-10)
    assert root_potential(tree, goal) == 0.0


def test_goal_image_follows_chain_weights(rng):
    def latent(seed):
        chain = DiffeoChain(2, n_layers=3, n_features=6, seed=seed)
        builder = ParamRegistryBuilder()
        chain.param_slice = builder.register(
            "chain", rng.normal(0.0, 0.3, chain.n_params))
        return LatentQuadraticPotential(np.array([0.4, -0.2]), chain), builder.build()

    def image(pot, params):
        out = pot.goal_image(params)
        assert np.array_equal(out, pot.chain.value(pot.goal, params))
        return out

    pot, params = latent(12)
    first = image(pot, params)
    assert pot.goal_image(params) is first
    with pytest.raises(ValueError):
        first[0] = 1.0  # shared by every caller, so read-only

    # weights written in place, then a new vector from with_values
    params.values[:] = rng.normal(0.0, 0.3, params.size)
    assert not np.array_equal(image(pot, params), first)
    other = params.with_values(rng.normal(0.0, 0.3, params.size))
    image(pot, other)

    # two parameter vectors, and two chains, alternating
    pot2, params2 = latent(13)
    for _ in range(2):
        image(pot, params)
        image(pot, other)
        image(pot2, params2)


# ---------------------------------------------------------------------------
# Component reverse rules
# ---------------------------------------------------------------------------


def bind(component=None):
    """Parameters with an unrelated slice first, so a component that adds
    into the wrong place, or a frozen one that adds anything, shows up."""
    builder = ParamRegistryBuilder()
    builder.register("other", np.array([0.3, -0.7, 1.1]))
    if component is not None and component.is_learnable:
        component.param_slice = builder.register("component",
                                                 component.init_values())
    return builder.build()


def metric_cases():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(2, 2))
    return [
        ("constant", ConstantMetric(B @ B.T + np.eye(2)), np.array([0.2, -0.4])),
        ("inverse_square", InverseSquareMetric(0.8, 1.2), np.array([0.7])),
        ("net", CholeskyMetricNet(2, in_dim=3, hidden=(5,), eps=1e-3, seed=7),
         np.array([0.3, -0.5, 0.2])),
        ("frozen_net", CholeskyMetricNet(2, in_dim=3, hidden=(5,), eps=1e-3,
                                         seed=8, learnable=False),
         np.array([-0.1, 0.4, 0.6])),
    ]


@pytest.mark.parametrize("case", range(4), ids=[c[0] for c in metric_cases()])
def test_metric_param_vjp_returns_input_cotangent_and_adds_weight_gradient(case):
    _, metric, x = metric_cases()[case]
    params = bind(metric)
    dim = metric.value(x, params).shape[0]
    S = np.random.default_rng(case).normal(size=(dim, dim))  # not symmetric

    def pairing(xx, pp):
        return float(np.sum(S * metric.value(xx, pp)))

    grad = params.zeros_like()
    c_x = metric.param_vjp(x, params, S, grad)
    np.testing.assert_allclose(
        c_x, fd_jacobian(lambda xx: pairing(xx, params), x), atol=1e-7)
    np.testing.assert_allclose(
        grad, fd_grad_wrt_params(lambda pp: pairing(x, pp), params), atol=1e-7)
    if not metric.is_learnable:
        assert not grad.any()
    if isinstance(metric, CholeskyMetricNet):
        assert np.array_equal(metric.input_vjp(x, params, S), c_x)
        assert np.array_equal(metric.param_vjp(x, params, S, None), c_x)


def potential_cases():
    chain = DiffeoChain(2, n_layers=2, n_features=5, length_scale=2.0, seed=3,
                        init_scale=0.2)
    return [
        ("zero", ZeroPotential(), np.array([0.2, -0.4])),
        ("quadratic", QuadraticPotential(np.array([0.5, -0.1]), gain=1.7),
         np.array([0.2, 0.3])),
        ("latent", LatentQuadraticPotential(np.array([0.4, 0.1]), chain),
         np.array([-0.3, 0.6])),
        ("barrier", BarrierPotential(1.0, gain=1.5), np.array([0.6])),
    ]


@pytest.mark.parametrize("case", range(4), ids=[c[0] for c in potential_cases()])
def test_potential_grad_param_vjp_returns_input_cotangent_and_adds_weight_gradient(case):
    _, pot, z = potential_cases()[case]
    params = bind(getattr(pot, "chain", None))
    cot = np.random.default_rng(case).normal(size=z.size)

    def pairing(zz, pp):
        return float(cot @ pot.grad(zz, pp))

    grad = params.zeros_like()
    c_z = pot.grad_param_vjp(z, params, cot, grad)
    np.testing.assert_allclose(
        c_z, fd_jacobian(lambda zz: pairing(zz, params), z), atol=1e-7)
    np.testing.assert_allclose(
        grad, fd_grad_wrt_params(lambda pp: pairing(z, pp), params), atol=1e-7)
    if not isinstance(pot, LatentQuadraticPotential):
        assert not grad.any()
