"""A coupling layer evaluates its two nets' random Fourier features as
one bank, ``[A_s; A_t] a + [beta_s; beta_t]``. Every value, Jacobian,
tape entry and pushed tangent must be the same bits as the route it
replaces: two separate ``RFFNet.features_and_slope`` calls, each net
with its own frequencies and phases, and one product per net."""

import numpy as np
import pytest

from treemotion.maps import CouplingLayer, DiffeoChain, RFFNet
from treemotion.params import ParamRegistryBuilder

N_FEATURES = (2, 5, 48)


def own_nets(ly):
    """Copies of the layer's nets that own their frequencies and phases."""
    return [RFFNet(net.in_dim, net.out_dim, net.n_features,
                   frequencies=net.frequencies.copy(), phases=net.phases.copy())
            for net in (ly.s_net, ly.t_net)]


def reference_kernel(ly, y, ts, tt):
    """``(value, J, f, g, E, bE)`` from one feature call per net."""
    s_net, t_net = own_nets(ly)
    a, b = y[ly.ia], y[ly.ib]
    fs, gs = s_net.features_and_slope(a)
    ft, gt = t_net.features_and_slope(a)
    E = np.exp(ts.T @ fs)
    bE = b * E
    out = y.copy()
    out[ly.ib] = bE + tt.T @ ft
    J = np.eye(ly.dim)
    J[ly.ib, ly.ib] = E
    dba = bE[:, None] * (ts.T @ (gs[:, None] * s_net.frequencies))
    dba += tt.T @ (gt[:, None] * t_net.frequencies)
    J[np.ix_(ly.ib, ly.ia)] = dba
    return out, J, np.concatenate([fs, ft]), np.concatenate([gs, gt]), E, bE


def reference_push(ly, entry, V):
    """A layer's ``(Vb, U, W, P, Q)`` from one product per net."""
    b, bE, f, g, E, ts, tt = entry
    s_net, t_net = own_nets(ly)
    D = s_net.n_features
    Va, Vb = V[ly.ia], V[ly.ib]
    Us, Ut = s_net.frequencies @ Va, t_net.frequencies @ Va
    Ws, Wt = g[:D, None] * Us, g[D:, None] * Ut
    return Vb, np.vstack([Us, Ut]), np.vstack([Ws, Wt]), ts.T @ Ws, tt.T @ Wt


def same(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.shape == y.shape and np.array_equal(x, y)


@pytest.mark.parametrize("n_features", N_FEATURES)
@pytest.mark.parametrize("dim", range(2, 8))
def test_one_bank_is_bit_identical_to_two_feature_calls(dim, n_features):
    rng = np.random.default_rng(100 * dim + n_features)
    for flip in (False, True):
        ly = CouplingLayer(dim, flip, n_features, length_scale=1.3, seed=dim)
        assert ly.s_net.frequencies.base is ly._bank is ly.t_net.frequencies.base
        nb = len(ly.ib)
        ts, tt = rng.normal(0.0, 0.5, (2, n_features, nb))
        for n in (1, 2, 7):
            Y = rng.uniform(-1.5, 1.5, (n, dim))
            out, J, entry = ly.stacked_value_jacobian_tape(Y, ts, tt)
            assert entry[-2] is ts and entry[-1] is tt
            for k, y in enumerate(Y):
                ref_out, ref_J, f, g, E, bE = reference_kernel(ly, y, ts, tt)
                one_out, one_J, one = ly.value_jacobian_tape(y, ts, tt)
                same([one_out, one_J, *one[:5]], [ref_out, ref_J, y[ly.ib], bE, f, g, E])
                same([out[k], J[k], *(x[k] for x in entry[:5])],
                     [ref_out, ref_J, y[ly.ib], bE, f, g, E])


def test_a_one_feature_bank_matches_to_rounding():
    # With D = 1 each net's own product is a dot product, which may round
    # differently from the bank's two-row product.
    rng = np.random.default_rng(3)
    ly = CouplingLayer(5, False, 1, length_scale=1.0, seed=4)
    ts, tt = rng.normal(0.0, 0.5, (2, 1, 3))
    for _ in range(20):
        y = rng.uniform(-1.5, 1.5, 5)
        got = ly.value_jacobian_tape(y, ts, tt)
        want = reference_kernel(ly, y, ts, tt)
        for x, ref in zip([got[0], got[1], got[2][2], got[2][3]], want[:4]):
            np.testing.assert_allclose(x, ref, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("n_features", N_FEATURES)
@pytest.mark.parametrize("dim", range(2, 8))
def test_pushed_tangents_are_bit_identical_to_one_product_per_net(dim, n_features):
    rng = np.random.default_rng(7 * dim + n_features)
    chain = DiffeoChain(dim, n_layers=3, n_features=n_features, length_scale=1.3, seed=dim)
    builder = ParamRegistryBuilder()
    chain.param_slice = builder.register("chain", rng.normal(0.0, 0.4, chain.n_params))
    params = builder.build()
    for width in (0, 1, 2):
        for n in (1, 2, 7):
            X = rng.uniform(-1.0, 1.0, (n, dim))
            V = rng.normal(0.0, 1.0, (n, dim, width))
            _, _, stacked_tape = chain.stacked_value_jacobian_tape(X, params)
            # The one body, on the stacked tape and on each sample's tape.
            stacked = chain._pushed_tangents(stacked_tape, V)
            for k in range(n):
                _, _, tape = chain.value_jacobian_tape(X[k], params)
                pushed = chain._pushed_tangents(tape, V[k])
                v = V[k]
                for m, (ly, entry) in enumerate(zip(chain.layers, tape)):
                    want = reference_push(ly, entry, v)
                    same(pushed[m], want)
                    same([x[k] for x in stacked[m]], want)
                    Vb, U, W, P, Q = want
                    E, bE = entry[4], entry[1]
                    v = v.copy()
                    v[ly.ib] = Vb * E[:, None] + bE[:, None] * P + Q
