import numpy as np
import pytest

from treemotion.errors import DomainError, StructureError
from treemotion.maps import (
    CouplingLayer,
    DiffeoChain,
    DistanceToPoint,
    IdentityMap,
    LinearMap,
    PlanarArmFK,
    RFFNet,
)
from treemotion.params import ParamRegistryBuilder
from treemotion.policies import (
    CholeskyMetricNet,
    ConstantMetric,
    NaturalGradientLeaf,
    ZeroPotential,
    handcrafted_damper,
)
from treemotion.tree import TransformTree

from conftest import fd_jacobian


def make_learnable_chain(dim, seed, theta_scale=0.3, **kw):
    """Chain wired to a standalone parameter vector with random weights."""
    chain = DiffeoChain(dim, seed=seed, **kw)
    builder = ParamRegistryBuilder()
    rng = np.random.default_rng(seed + 99)
    chain.param_slice = builder.register(
        "chain", rng.normal(0.0, theta_scale, chain.n_params))
    return chain, builder.build()


# ---------------------------------------------------------------------------
# Fixed maps
# ---------------------------------------------------------------------------


def test_planar_arm_fk_straight_and_single_link():
    fk = PlanarArmFK([1.0, 1.0], "ee")
    np.testing.assert_allclose(fk.value(np.zeros(2)), [2.0, 0.0], atol=1e-15)
    one = PlanarArmFK([1.0], "ee")
    np.testing.assert_allclose(one.value(np.array([np.pi / 2])), [0.0, 1.0],
                               atol=1e-15)


def test_planar_arm_fk_jacobian_matches_fd(rng):
    fk = PlanarArmFK([1.0, 1.0, 1.0], "ee")
    for _ in range(10):
        q = rng.uniform(-np.pi, np.pi, 3)
        np.testing.assert_allclose(fk.value_and_jacobian(q)[1],
                                   fd_jacobian(fk.value, q), atol=1e-6)


def test_planar_arm_fk_intermediate_point_has_zero_trailing_columns():
    fk = PlanarArmFK([1.0, 1.0, 1.0], point=2)
    q = np.array([0.3, -0.2, 0.9])
    J = fk.value_and_jacobian(q)[1]
    assert J.shape == (2, 3)
    np.testing.assert_allclose(J[:, 2], 0.0)
    np.testing.assert_allclose(J, fd_jacobian(fk.value, q), atol=1e-6)


def test_distance_to_point_values_and_jacobian():
    d = DistanceToPoint([0.0, 0.0])
    val, J = d.value_and_jacobian(np.array([3.0, 4.0]))
    np.testing.assert_allclose(val, [5.0])
    np.testing.assert_allclose(J, [[0.6, 0.8]])
    d2 = DistanceToPoint([1.0, 0.0])
    np.testing.assert_allclose(d2.value(np.array([1.0, 2.0])), [2.0])


def test_distance_to_point_random_jacobians(rng):
    d = DistanceToPoint([0.5, -0.7])
    for _ in range(10):
        x = rng.uniform(2.0, 4.0, 2)
        np.testing.assert_allclose(d.value_and_jacobian(x)[1],
                                   fd_jacobian(d.value, x), atol=1e-6)


def test_distance_to_point_degenerate_center():
    d = DistanceToPoint([1.0, 1.0])
    with pytest.raises(DomainError):
        d.value(np.array([1.0, 1.0 + 1e-12]))


def test_linear_map_shape_validation():
    m = LinearMap(np.array([[1.0, 2.0]]), offset=np.array([0.5]))
    np.testing.assert_allclose(m.value(np.array([1.0, 1.0])), [3.5])
    with pytest.raises(StructureError):
        LinearMap(np.array([[1.0, 2.0]]), offset=np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# Random Fourier features
# ---------------------------------------------------------------------------


def test_rff_features_trivial_cases():
    net = RFFNet(1, 1, 1, frequencies=np.zeros((1, 1)), phases=np.zeros(1))
    np.testing.assert_allclose(net.features(np.zeros(1)), [np.sqrt(2.0)])
    net2 = RFFNet(1, 1, 2, frequencies=np.zeros((2, 1)),
                  phases=np.array([0.0, np.pi]))
    np.testing.assert_allclose(net2.features(np.zeros(1)), [1.0, -1.0],
                               atol=1e-15)


def test_rff_kernel_monte_carlo():
    # phi(x).phi(x') approximates the Gaussian kernel in expectation;
    # averaged over feature draws and 100 point pairs at D=64.
    errs = []
    for net_seed in range(4):
        rng = np.random.default_rng(11)
        net = RFFNet(2, 1, 64, length_scale=1.0, seed=net_seed)
        for _ in range(100):
            x, y = rng.uniform(-1.0, 1.0, (2, 2))
            approx = float(net.features(x) @ net.features(y))
            exact = np.exp(-np.sum((x - y) ** 2) / 2.0)
            errs.append(abs(approx - exact))
    assert np.mean(errs) < 0.1


def test_rff_value_linear_in_weights(rng):
    net = RFFNet(2, 2, 16, seed=3)
    t1 = rng.normal(0.0, 1.0, (16, 2))
    t2 = rng.normal(0.0, 1.0, (16, 2))
    x = rng.uniform(-1.0, 1.0, 2)
    a, b = 2.0, -0.5
    np.testing.assert_allclose(net.value(x, a * t1 + b * t2),
                               a * net.value(x, t1) + b * net.value(x, t2),
                               atol=1e-14)


def test_rff_input_jacobian_matches_fd(rng):
    # The input Jacobian the coupling kernels build from the slope:
    # theta^T (g * A), with df = g * A dx.
    net = RFFNet(3, 2, 12, length_scale=0.9, seed=8)
    theta = rng.normal(0.0, 1.0, (12, 2))
    x = rng.uniform(-1.0, 1.0, 3)
    f, _ = net.features_and_slope(x)
    assert np.array_equal(f, net.features(x))
    np.testing.assert_allclose(_net_input_jacobian(net, x, theta),
                               fd_jacobian(lambda z: net.value(z, theta), x),
                               atol=1e-6)


# ---------------------------------------------------------------------------
# Coupling layers
# ---------------------------------------------------------------------------


def constant_net_layer(dim, s_const, t_const):
    """Coupling layer whose s/t nets are exactly constant (zero
    frequencies), for closed-form checks. The nets' arrays are views of
    the layer's one bank, so they are zeroed in place."""
    layer = CouplingLayer(dim, flip=False, n_features=1, length_scale=1.0, seed=0)
    nb = layer.s_net.out_dim
    for net in (layer.s_net, layer.t_net):
        net.frequencies[...] = 0.0
        net.phases[...] = 0.0
    theta_s = np.full((1, nb), s_const / np.sqrt(2.0))
    theta_t = np.full((1, nb), t_const / np.sqrt(2.0))
    return layer, theta_s, theta_t


def test_coupling_zero_weights_is_identity(rng):
    layer = CouplingLayer(4, flip=False, n_features=6, length_scale=1.0, seed=1)
    zero = np.zeros((6, 2))
    y = rng.uniform(-1.0, 1.0, 4)
    np.testing.assert_allclose(layer.forward(y, zero, zero), y)
    np.testing.assert_allclose(layer.jacobian(y, zero, zero), np.eye(4))


def test_coupling_constant_nets_closed_form():
    layer, ts, tt = constant_net_layer(2, np.log(2.0), 1.0)
    out = layer.forward(np.array([0.7, 3.0]), ts, tt)
    np.testing.assert_allclose(out, [0.7, 7.0], atol=1e-12)
    J = layer.jacobian(np.array([0.7, 3.0]), ts, tt)
    np.testing.assert_allclose(J, np.diag([1.0, 2.0]), atol=1e-12)


def test_coupling_inverse_roundtrip(rng):
    layer = CouplingLayer(5, flip=True, n_features=7, length_scale=1.2, seed=9)
    ts = rng.normal(0.0, 0.5, (7, layer.s_net.out_dim))
    tt = rng.normal(0.0, 0.5, (7, layer.t_net.out_dim))
    y = rng.uniform(-1.0, 1.0, 5)
    np.testing.assert_allclose(layer.inverse(layer.forward(y, ts, tt), ts, tt),
                               y, atol=1e-10)


def test_coupling_jacobian_matches_fd(rng):
    layer = CouplingLayer(4, flip=False, n_features=6, length_scale=1.0, seed=2)
    ts = rng.normal(0.0, 0.4, (6, 2))
    tt = rng.normal(0.0, 0.4, (6, 2))
    y = rng.uniform(-1.0, 1.0, 4)
    J = layer.jacobian(y, ts, tt)
    J_fd = fd_jacobian(lambda z: layer.forward(z, ts, tt), y)
    assert np.abs(J - J_fd).max() / max(1.0, np.abs(J_fd).max()) < 1e-5


# ---------------------------------------------------------------------------
# Diffeo chains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: DiffeoChain(1),
    # A fractional count is not truncated (to 2 layers, 6 units, link 1).
    lambda: DiffeoChain(2, n_layers=2.9),
    lambda: CholeskyMetricNet(2, hidden=(6.5,)),
    lambda: PlanarArmFK([1.0, 1.0], point=1.5),
    # A fractional dimension is not truncated either (to 2).
    lambda: DiffeoChain(2.5),
    lambda: IdentityMap(2.7),
    lambda: RFFNet(2.5, 2, 4),
    lambda: RFFNet(2, 2.5, 4),
    lambda: RFFNet(2, 2, 4.5),
    lambda: CouplingLayer(2.5, False, 4, 1.0, 0),
    lambda: NaturalGradientLeaf(2.5, ZeroPotential(), ConstantMetric(np.eye(2))),
    lambda: ConstantMetric.scaled_identity(1.0, 2.5),
    lambda: handcrafted_damper(1.0, 2.5),
    lambda: TransformTree([2.9], [], {0: handcrafted_damper(1.0, 2)}),
    # No features, and negative seeds, are rejected at construction.
    lambda: RFFNet(1, 1, 0),
    lambda: DiffeoChain(2, n_features=0),
    lambda: DiffeoChain(2, n_features=-3),
    lambda: RFFNet(1, 1, 4, seed=-2),
    lambda: DiffeoChain(2, seed=-1, init_scale=0.1),
    lambda: CholeskyMetricNet(2, seed=-1),
], ids=["one-dimensional-chain", "fractional-layers", "fractional-hidden",
        "fractional-point", "fractional-chain-dim", "fractional-identity-dim",
        "fractional-rff-in-dim", "fractional-rff-out-dim", "fractional-rff-features",
        "fractional-coupling-dim", "fractional-leaf-dim", "fractional-metric-dim",
        "fractional-damper-dim", "fractional-node-dim", "zero-rff-features",
        "zero-chain-features", "negative-chain-features", "negative-rff-seed",
        "negative-chain-seed", "negative-metric-seed"])
def test_constructors_reject_bad_sizes(build):
    with pytest.raises(StructureError):
        build()


def test_chain_zero_init_is_identity(rng):
    chain, params = make_learnable_chain(3, seed=4, theta_scale=0.0,
                                         n_layers=4, n_features=8)
    x = rng.uniform(-1.0, 1.0, 3)
    np.testing.assert_allclose(chain.value(x, params), x)
    np.testing.assert_allclose(chain.jacobian(x, params), np.eye(3))


def test_chain_bijectivity_over_random_weights():
    rng = np.random.default_rng(17)
    for trial in range(20):
        dim = 2 + trial % 3
        chain, params = make_learnable_chain(dim, seed=trial, theta_scale=0.5,
                                             n_layers=3, n_features=6)
        x = rng.uniform(-1.5, 1.5, dim)
        y = chain.value(x, params)
        np.testing.assert_allclose(chain.inverse(y, params), x, atol=1e-8)


def test_chain_jacobian_determinant_never_zero():
    rng = np.random.default_rng(23)
    for trial in range(100):
        chain, params = make_learnable_chain(2 + trial % 4, seed=trial,
                                             theta_scale=0.6, n_layers=2,
                                             n_features=5)
        x = rng.uniform(-2.0, 2.0, chain.in_dim)
        det = np.linalg.det(chain.jacobian(x, params))
        assert abs(det) > 0.0


def test_chain_jacobian_matches_fd_sweep():
    rng = np.random.default_rng(31)
    worst = 0.0
    for trial in range(50):
        chain, params = make_learnable_chain(2 + trial % 3, seed=trial + 100,
                                             theta_scale=0.4, n_layers=3,
                                             n_features=6)
        x = rng.uniform(-1.0, 1.0, chain.in_dim)
        J = chain.jacobian(x, params)
        J_fd = fd_jacobian(lambda z: chain.value(z, params), x)
        worst = max(worst,
                    np.abs(J - J_fd).max() / max(1.0, np.abs(J_fd).max()))
    assert worst < 1e-5


def test_frozen_chain_needs_no_params(rng):
    chain = DiffeoChain(2, n_layers=2, n_features=4, learnable=False,
                        init_scale=0.3, seed=6)
    assert chain.n_params == 0
    x = rng.uniform(-1.0, 1.0, 2)
    y = chain.value(x, None)
    np.testing.assert_allclose(chain.inverse(y, None), x, atol=1e-9)


def _net_input_jacobian(net, x, theta):
    """``d net(x) / dx = theta^T (g * A)``, with ``g`` from the slope."""
    _, g = net.features_and_slope(x)
    return theta.T @ (g[:, None] * net.frequencies)


def _unfused_layer_jacobian(ly, y, ts, tt):
    """A coupling layer's Jacobian assembled block by block, without the
    fused kernel: the reference the fused kernel must match bit for bit."""
    a, b = y[ly.ia], y[ly.ib]
    E = np.exp(ly.s_net.value(a, ts))
    J = np.zeros((ly.dim, ly.dim))
    J[ly.ia, ly.ia] = 1.0
    J[np.ix_(ly.ib, ly.ib)] = np.diag(E)
    dba = (b * E)[:, None] * _net_input_jacobian(ly.s_net, a, ts)
    dba += _net_input_jacobian(ly.t_net, a, tt)
    J[np.ix_(ly.ib, ly.ia)] = dba
    return J


@pytest.mark.parametrize("dim", [2, 3])
def test_fused_chain_kernel_is_bit_identical_to_layer_composition(dim):
    rng = np.random.default_rng(41 + dim)
    for trial in range(10):
        chain, params = make_learnable_chain(dim, seed=trial, theta_scale=0.5,
                                             n_layers=3, n_features=7)
        assert {ly.flip for ly in chain.layers} == {False, True}
        block = params.values[chain.param_slice]
        x = rng.uniform(-1.5, 1.5, dim)
        y, J = x, np.eye(dim)
        for ly, (ts, tt) in zip(chain.layers, chain._layer_thetas(block)):
            J_layer = _unfused_layer_jacobian(ly, y, ts, tt)
            y_next = ly.forward(y, ts, tt)
            fused_y, fused_J, _ = ly.value_jacobian_tape(y, ts, tt)
            assert np.array_equal(fused_y, y_next)
            assert np.array_equal(fused_J, J_layer)
            assert np.array_equal(ly.jacobian(y, ts, tt), J_layer)
            J = J_layer @ J
            y = y_next
        value, jac = chain.value_and_jacobian(x, params)
        assert np.array_equal(value, y)
        assert np.array_equal(jac, J)
        assert np.array_equal(chain.value(x, params), y)


def _added(params, rows):
    """Weight rows of one input added, in order, into a zero gradient."""
    grad = params.zeros_like()
    for where, R in rows:
        grad[where] += R
    return grad


def _value_vjp(chain, x, params, cot):
    """``value_vjp`` on a tape from a fresh forward pass at ``x``."""
    return _added(params, chain.value_vjp(x, params, cot,
                                          chain.value_jacobian_tape(x, params)[2]))


def _goal_vjp(pot, params, cot):
    """``value_vjp`` at ``pot``'s goal, on the tape the potential keeps."""
    _, tape = pot.grad_tape(pot.goal, params)
    return _added(params, pot.grad_param_vjp(None, params, -cot, tape)[1])


def test_value_vjp_memo_follows_weights_and_input(rng):
    from treemotion.policies import LatentQuadraticPotential

    chain, params = make_learnable_chain(3, seed=5, n_layers=3, n_features=6)
    cot = rng.normal(0.0, 1.0, 3)
    pot = LatentQuadraticPotential(rng.uniform(-1.0, 1.0, 3), chain)

    def fresh(p):
        # value_vjp on a tape from its own forward pass
        return _value_vjp(chain, pot.goal, p, cot)

    g0 = _goal_vjp(pot, params, cot)
    assert np.array_equal(g0, fresh(params))
    assert np.array_equal(_goal_vjp(pot, params, cot), g0)

    # weights written in place
    params.values[:] = rng.normal(0.0, 0.3, params.size)
    g1 = _goal_vjp(pot, params, cot)
    assert not np.array_equal(g1, g0)
    assert np.array_equal(g1, fresh(params))

    # a new vector from with_values, and a goal written in place
    other = params.with_values(rng.normal(0.0, 0.3, params.size))
    assert np.array_equal(_goal_vjp(pot, other, cot), fresh(other))
    pot.goal[:] = rng.uniform(-1.0, 1.0, 3)
    for p in (other, params):
        assert np.array_equal(_goal_vjp(pot, p, cot), fresh(p))

    # overwriting the vector a tape was built from leaves the tape intact
    saved = params.copy()
    _goal_vjp(pot, params, cot)
    params.values[:] = 0.0
    assert np.array_equal(_goal_vjp(pot, saved, cot), fresh(saved))


def test_zero_width_reverse_matches_the_tangent_path(rng):
    # value_vjp feeds no tangents, for which the reverse body skips the
    # tangent half. The full path, run with one tangent column
    # whose cotangent is zero, adds only zeros; both must agree exactly,
    # for one input and for stacks of 1, 2 and 7.
    chain, params = make_learnable_chain(3, seed=8, n_layers=3, n_features=6)
    for n in (None, 1, 2, 7):
        lead = () if n is None else (n,)
        X = rng.uniform(-1.0, 1.0, lead + (3,))
        cot = rng.normal(0.0, 1.0, lead + (3,))
        if n is None:
            _, _, tape = chain.value_jacobian_tape(X, params)
        else:
            _, _, tape = chain.stacked_value_jacobian_tape(X, params)

        g_skip = chain._reverse_rows(tape, cot)
        pushed = chain._pushed_tangents(tape, rng.normal(0.0, 1.0, lead + (3, 1)))
        g_full = chain._reverse_rows(tape, cot, pushed, np.zeros(lead + (3, 1)))

        assert np.abs(g_skip).max() > 0.0
        assert np.array_equal(g_skip, g_full)
        for k in np.ndindex(lead):
            assert np.array_equal(_value_vjp(chain, X[k], params, cot[k]), g_skip[k])


def test_value_vjp_memos_of_two_chains_do_not_mix(rng):
    from treemotion.policies import LatentQuadraticPotential

    a, pa = make_learnable_chain(2, seed=1, n_layers=2, n_features=5)
    b, pb = make_learnable_chain(2, seed=2, n_layers=2, n_features=5)
    x = rng.uniform(-1.0, 1.0, 2)
    cot = rng.normal(0.0, 1.0, 2)
    pots = {id(c): LatentQuadraticPotential(x, c) for c in (a, b)}
    first = {id(a): _goal_vjp(pots[id(a)], pa, cot),
             id(b): _goal_vjp(pots[id(b)], pb, cot)}
    assert not np.array_equal(first[id(a)], first[id(b)])
    for _ in range(3):
        for chain, p in ((a, pa), (b, pb)):
            assert np.array_equal(_goal_vjp(pots[id(chain)], p, cot), first[id(chain)])
            assert np.array_equal(_value_vjp(chain, x, p, cot), first[id(chain)])


def test_two_goals_of_one_chain_keep_their_own_tapes(rng, monkeypatch):
    from treemotion.policies import LatentQuadraticPotential

    chain, params = make_learnable_chain(2, seed=3, n_layers=2, n_features=5)
    pots = [LatentQuadraticPotential(rng.uniform(-1.0, 1.0, 2), chain)
            for _ in range(2)]
    cot = rng.normal(0.0, 1.0, 2)
    expected = [(chain.value(pot.goal, params),
                 _value_vjp(chain, pot.goal, params, cot)) for pot in pots]
    passes = []
    original = DiffeoChain._taped_forward

    def counting(self, *args):
        passes.append(1)
        return original(self, *args)

    monkeypatch.setattr(DiffeoChain, "_taped_forward", counting)
    for _ in range(10):
        for pot, (image, grad) in zip(pots, expected):
            assert np.array_equal(pot.goal_image(params), image)
            assert np.array_equal(_goal_vjp(pot, params, cot), grad)
    # one forward pass per goal, not one per alternating call
    assert len(passes) == 2
