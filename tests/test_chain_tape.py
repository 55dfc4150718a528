"""The chain's reverse pass reads the forward stage's tape.

``pullback_vjp`` pushes only the tangent columns through the layers that
``value_jacobian_tape`` recorded. The reference below is the route it
replaces: one augmented forward pass that evaluates every layer again,
value and tangents together, then the reverse sweep over its caches.
Both routes must agree bit for bit, and both must match central
differences of the contraction ``pullback_vjp`` defines. A pipeline
cache, tapes included, must survive any number of reverse passes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from treemotion.fixtures import random_tree
from treemotion.gradients import pipeline_vjp, policy_param_jacobian, policy_vjp
from treemotion.maps import DiffeoChain
from treemotion.params import ParamRegistryBuilder
from treemotion.tree import run_pipeline

from conftest import arrays, fd_grad_wrt_params, fd_jacobian


def reference_aug_forward(chain, block, x, V):
    """Push ``x`` and tangent columns ``V`` through every layer, evaluating
    each layer's features again and caching what the reverse sweep reads."""
    y = np.asarray(x, dtype=float)
    V = np.asarray(V, dtype=float)
    caches = []
    for ly, (ts, tt) in zip(chain.layers, chain._layer_thetas(block)):
        a = y[ly.ia]
        b = y[ly.ib]
        Va = V[ly.ia, :]
        Vb = V[ly.ib, :]
        fs, gs = ly.s_net.features_and_slope(a)
        ft, gt = ly.t_net.features_and_slope(a)
        s = ts.T @ fs
        t = tt.T @ ft
        E = np.exp(s)
        Us = ly.s_net.frequencies @ Va
        Ws = gs[:, None] * Us
        P = ts.T @ Ws
        Ut = ly.t_net.frequencies @ Va
        Wt = gt[:, None] * Ut
        Q = tt.T @ Wt
        y_next = np.empty_like(y)
        y_next[ly.ia] = a
        y_next[ly.ib] = b * E + t
        V_next = np.empty_like(V)
        V_next[ly.ia, :] = Va
        V_next[ly.ib, :] = Vb * E[:, None] + (b * E)[:, None] * P + Q
        caches.append((a, b, Va, Vb, fs, gs, ft, gt, E, Us, Ws, P, Ut, Wt, Q, ts, tt))
        y, V = y_next, V_next
    return y, V, caches


def reference_aug_reverse(chain, caches, cot_y, cot_V, grad_block):
    """The reverse sweep over ``reference_aug_forward``'s caches; returns
    the input cotangents ``(cy, cV)``."""
    cy = np.asarray(cot_y, dtype=float).copy()
    cV = np.asarray(cot_V, dtype=float).copy()
    for m in range(len(chain.layers) - 1, -1, -1):
        ly = chain.layers[m]
        a, b, Va, Vb, fs, gs, ft, gt, E, Us, Ws, P, Ut, Wt, Q, ts, tt = caches[m]
        ca = cy[ly.ia].copy()
        cb_out = cy[ly.ib]
        Ca = cV[ly.ia, :].copy()
        Cb_out = cV[ly.ib, :]
        cb = cb_out * E
        cE = cb_out * b
        ct = cb_out.copy()
        CVb = Cb_out * E[:, None]
        rowsum_P = np.einsum("it,it->i", Cb_out, P)
        rowsum_Vb = np.einsum("it,it->i", Cb_out, Vb)
        cE += rowsum_Vb + b * rowsum_P
        cb += E * rowsum_P
        CP = Cb_out * (b * E)[:, None]
        CQ = Cb_out
        cs = cE * E
        gtheta_s = np.outer(fs, cs)
        cfs = ts @ cs
        gtheta_t = np.outer(ft, ct)
        cft = tt @ ct
        dfs = gs * cfs
        dft = gt * cft
        gtheta_s += Ws @ CP.T
        CWs = ts @ CP
        dfs -= fs * np.einsum("it,it->i", CWs, Us)
        CVa = Ca + ly.s_net.frequencies.T @ (gs[:, None] * CWs)
        gtheta_t += Wt @ CQ.T
        CWt = tt @ CQ
        dft -= ft * np.einsum("it,it->i", CWt, Ut)
        CVa += ly.t_net.frequencies.T @ (gt[:, None] * CWt)
        ca += ly.s_net.frequencies.T @ dfs
        ca += ly.t_net.frequencies.T @ dft
        off = sum(layer.n_weights for layer in chain.layers[:m])
        k = ly.s_net.n_weights
        grad_block[off: off + k] += gtheta_s.ravel()
        grad_block[off + k: off + 2 * k] += gtheta_t.ravel()
        cy_prev = np.empty_like(cy)
        cy_prev[ly.ia] = ca
        cy_prev[ly.ib] = cb
        cy = cy_prev
        cV_prev = np.empty_like(cV)
        cV_prev[ly.ia, :] = CVa
        cV_prev[ly.ib, :] = CVb
        cV = cV_prev
    return cy, cV


@st.composite
def chain_cases(draw):
    return dict(dim=draw(st.integers(2, 5)), n_layers=draw(st.integers(2, 3)),
                n_features=draw(st.integers(2, 6)), width=draw(st.integers(1, 3)),
                with_value=draw(st.booleans()), seed=draw(st.integers(0, 2**16)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(chain_cases())
def test_pullback_on_the_forward_tape_matches_the_reference_route(case):
    dim, width = case["dim"], case["width"]
    rng = np.random.default_rng(case["seed"])
    chain = DiffeoChain(dim, n_layers=case["n_layers"], n_features=case["n_features"],
                        length_scale=1.5, seed=case["seed"] % 97)
    builder = ParamRegistryBuilder()
    chain.param_slice = builder.register("chain", rng.normal(0.0, 0.5, chain.n_params))
    params = builder.build()
    assert {ly.flip for ly in chain.layers} == {False, True}
    x = rng.uniform(-1.0, 1.0, dim)
    V = rng.normal(0.0, 1.0, (dim, width))
    C = rng.normal(0.0, 1.0, (dim, width))
    cy0 = rng.normal(0.0, 1.0, dim) if case["with_value"] else np.zeros(dim)

    y, J, tape = chain.value_jacobian_tape(x, params)
    grad = params.zeros_like()
    for where, R in chain.pullback_vjp(x, params, cy0, V, C, tape=tape):
        grad[where] += R

    ref_y, _, caches = reference_aug_forward(chain, chain.weights(params), x, V)
    ref_grad = params.zeros_like()
    ref_cy, ref_cV = reference_aug_reverse(chain, caches, cy0, C, ref_grad)
    assert np.array_equal(y, ref_y)
    assert np.abs(grad).max() > 0.0
    assert np.array_equal(grad, ref_grad)

    def contraction(p, at=x):
        value, jac = chain.value_and_jacobian(at, p)
        return cy0 @ value + np.sum(C * (jac @ V))

    fd = fd_grad_wrt_params(contraction, params)
    assert np.abs(grad - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())
    # the reference route's input cotangents, which production never forms
    fd_x = fd_jacobian(lambda z: contraction(params, z), x)
    assert np.abs(ref_cy - fd_x).max() <= 1e-6 * max(1.0, np.abs(fd_x).max())
    np.testing.assert_allclose(ref_cV, J.T @ C, rtol=1e-12, atol=1e-12)


def _cache_arrays(cache):
    """Every array a pipeline cache holds, chain tapes and leaf records
    included, in a fixed order."""
    return arrays([cache.pi, cache.factor] + [
        [state.coord, state.jac_to_parent, state.pulled_force, state.pulled_metric,
         state.tape, state.record] for state in cache.states])


def test_one_cache_survives_many_reverse_passes():
    taped = recorded = 0
    for seed in range(40):
        tree, params = random_tree(seed)
        rng = np.random.default_rng(1000 + seed)
        q = rng.uniform(-0.6, 0.6, tree.root_dim)
        cache = run_pipeline(tree, q, params)
        taped += sum(state.tape is not None for state in cache.states)
        recorded += sum(state.record is not None for state in cache.states)
        before = [(a.shape, a.dtype, a.tobytes()) for a in _cache_arrays(cache)]
        weights = params.values.copy()

        cots = [rng.normal(0.0, 1.0, tree.root_dim) for _ in range(2)]
        grads = []
        for g in cots + cots + cots:
            grad = params.zeros_like()
            pipeline_vjp(tree, cache, params, g, grad)
            grads.append(grad)
        for k in range(2, len(grads)):
            assert np.array_equal(grads[k], grads[k % 2])
        after = [(a.shape, a.dtype, a.tobytes()) for a in _cache_arrays(cache)]
        assert after == before
        assert np.array_equal(params.values, weights)

        jac = policy_param_jacobian(tree, q, params).jacobian
        for i, e_i in enumerate(np.eye(tree.root_dim)):
            assert np.array_equal(jac[i], policy_vjp(tree, q, params, e_i))
    assert taped > 0 and recorded > 0
