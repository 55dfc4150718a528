import numpy as np
import pytest

from treemotion.errors import DomainError, StructureError
from treemotion.maps import (
    CouplingLayer,
    DiffeoChain,
    DistanceToPoint,
    LinearMap,
    PlanarArmFK,
    RFFNet,
)
from treemotion.params import ParamRegistryBuilder

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
        np.testing.assert_allclose(fk.jacobian(q), fd_jacobian(fk.value, q),
                                   atol=1e-6)


def test_planar_arm_fk_intermediate_point_has_zero_trailing_columns():
    fk = PlanarArmFK([1.0, 1.0, 1.0], point=2)
    q = np.array([0.3, -0.2, 0.9])
    J = fk.jacobian(q)
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
        np.testing.assert_allclose(d.jacobian(x), fd_jacobian(d.value, x),
                                   atol=1e-6)


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


def test_rff_feature_matrix_matches_flat_weights(rng):
    net = RFFNet(2, 3, 8, length_scale=1.3, seed=5)
    theta = rng.normal(0.0, 1.0, (8, 3))
    x = rng.uniform(-1.0, 1.0, 2)
    via_matrix = net.feature_matrix(x).T @ theta.ravel()
    np.testing.assert_allclose(net.value(x, theta), via_matrix, atol=1e-14)


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
    net = RFFNet(3, 2, 12, length_scale=0.9, seed=8)
    theta = rng.normal(0.0, 1.0, (12, 2))
    x = rng.uniform(-1.0, 1.0, 3)
    np.testing.assert_allclose(net.input_jacobian(x, theta),
                               fd_jacobian(lambda z: net.value(z, theta), x),
                               atol=1e-6)


# ---------------------------------------------------------------------------
# Coupling layers
# ---------------------------------------------------------------------------


def constant_net_layer(dim, s_const, t_const):
    """Coupling layer whose s/t nets are exactly constant (zero
    frequencies), for closed-form checks."""
    layer = CouplingLayer(dim, flip=False, n_features=1, length_scale=1.0, seed=0)
    nb = layer.s_net.out_dim
    layer.s_net.frequencies = np.zeros_like(layer.s_net.frequencies)
    layer.s_net.phases = np.zeros_like(layer.s_net.phases)
    layer.t_net.frequencies = np.zeros_like(layer.t_net.frequencies)
    layer.t_net.phases = np.zeros_like(layer.t_net.phases)
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


def test_chain_rejects_one_dimensional_space():
    with pytest.raises(StructureError):
        DiffeoChain(1)


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


def _unfused_layer_jacobian(ly, y, ts, tt):
    """A coupling layer's Jacobian assembled block by block, without the
    fused kernel: the reference the fused kernel must match bit for bit."""
    a, b = y[ly.ia], y[ly.ib]
    E = np.exp(ly.s_net.value(a, ts))
    J = np.zeros((ly.dim, ly.dim))
    J[ly.ia, ly.ia] = 1.0
    J[np.ix_(ly.ib, ly.ib)] = np.diag(E)
    dba = (b * E)[:, None] * ly.s_net.input_jacobian(a, ts)
    dba += ly.t_net.input_jacobian(a, tt)
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
        for m, ly in enumerate(chain.layers):
            ts, tt = chain._layer_thetas(block, m)
            J_layer = _unfused_layer_jacobian(ly, y, ts, tt)
            y_next = ly.forward(y, ts, tt)
            fused_y, fused_J = ly.value_and_jacobian(y, ts, tt)
            assert np.array_equal(fused_y, y_next)
            assert np.array_equal(fused_J, J_layer)
            assert np.array_equal(ly.jacobian(y, ts, tt), J_layer)
            J = J_layer @ J
            y = y_next
        value, jac = chain.value_and_jacobian(x, params)
        assert np.array_equal(value, y)
        assert np.array_equal(jac, J)
        assert np.array_equal(chain.value(x, params), y)


def _value_vjp(chain, x, params, cot):
    grad = params.zeros_like()
    chain.value_vjp(x, params, cot, grad)
    return grad


def test_value_vjp_memo_follows_weights_and_input(rng):
    chain, params = make_learnable_chain(3, seed=5, n_layers=3, n_features=6)
    cot = rng.normal(0.0, 1.0, 3)

    def fresh(p, x):
        # an identically built chain whose memo is empty
        twin = DiffeoChain(3, seed=5, n_layers=3, n_features=6)
        twin.param_slice = chain.param_slice
        return _value_vjp(twin, x, p, cot)

    x = rng.uniform(-1.0, 1.0, 3)
    g0 = _value_vjp(chain, x, params, cot)
    assert np.array_equal(g0, fresh(params, x))
    assert np.array_equal(_value_vjp(chain, x, params, cot), g0)

    # weights written in place
    params.values[:] = rng.normal(0.0, 0.3, params.size)
    g1 = _value_vjp(chain, x, params, cot)
    assert not np.array_equal(g1, g0)
    assert np.array_equal(g1, fresh(params, x))

    # a new vector from with_values, and a new input
    other = params.with_values(rng.normal(0.0, 0.3, params.size))
    x2 = rng.uniform(-1.0, 1.0, 3)
    for p, xx in ((other, x), (other, x2), (params, x2)):
        assert np.array_equal(_value_vjp(chain, xx, p, cot), fresh(p, xx))

    # overwriting the vector a tape was built from leaves the tape intact
    saved = params.copy()
    _value_vjp(chain, x, params, cot)
    params.values[:] = 0.0
    assert np.array_equal(_value_vjp(chain, x, saved, cot), fresh(saved, x))


def test_value_vjp_memos_of_two_chains_do_not_mix(rng):
    a, pa = make_learnable_chain(2, seed=1, n_layers=2, n_features=5)
    b, pb = make_learnable_chain(2, seed=2, n_layers=2, n_features=5)
    x = rng.uniform(-1.0, 1.0, 2)
    cot = rng.normal(0.0, 1.0, 2)
    first = {id(a): _value_vjp(a, x, pa, cot), id(b): _value_vjp(b, x, pb, cot)}
    assert not np.array_equal(first[id(a)], first[id(b)])
    for _ in range(3):
        for chain, p in ((a, pa), (b, pb)):
            assert np.array_equal(_value_vjp(chain, x, p, cot), first[id(chain)])
