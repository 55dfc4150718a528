import numpy as np
import pytest

from treemotion.errors import NumericError, StructureError
from treemotion.fixtures import three_link_stability_fixture, stability_seed_states
from treemotion.maps import DistanceToPoint, IdentityMap, PlanarArmFK
from treemotion.policies import (
    ConstantMetric,
    QuadraticPotential,
    NaturalGradientLeaf,
    RawVMLeaf,
    handcrafted_attractor,
    handcrafted_barrier,
    handcrafted_damper,
)
from treemotion.rollout import descent_rate, integrate, lyapunov_check
from treemotion.tree import Edge, TransformTree, root_potential


def one_dimensional_flow_tree(gain=1.0):
    leaf = NaturalGradientLeaf(1, QuadraticPotential(np.zeros(1), gain=gain),
                               ConstantMetric(np.eye(1)))
    return TransformTree([1, 1], [Edge(0, 1, IdentityMap(1))], {1: leaf})


def attractor_damper_tree(goal):
    return TransformTree(
        [2, 2, 2],
        [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
        {1: handcrafted_attractor(goal, gain=2.0),
         2: handcrafted_damper(0.5, 2)},
    )


def test_equilibrium_start_stays_put():
    goal = np.array([0.4, -0.1])
    tree = attractor_damper_tree(goal)
    res = integrate(tree, None, goal, dt=1e-3, max_steps=1000, grad_tol=1e-6)
    assert res.status == "converged"
    assert len(res.trajectory) == 1  # converged before taking any step
    np.testing.assert_allclose(res.trajectory.q[0], goal, atol=1e-9)


def test_one_dimensional_exponential_decay():
    # qdot = -q: q(t) = q0 e^{-t}; RK4 at dt = 0.01 is accurate to ~1e-11
    tree = one_dimensional_flow_tree()
    res = integrate(tree, None, np.array([1.0]), dt=0.01, max_steps=100,
                    grad_tol=0.0)
    assert len(res.trajectory) == 101
    np.testing.assert_allclose(res.trajectory.q[-1], [np.exp(-1.0)], atol=1e-6)
    rep = lyapunov_check(res)
    assert rep.n_violations == 0
    assert rep.max_increase == 0.0


def test_constant_trace_at_equilibrium():
    tree = one_dimensional_flow_tree()
    res = integrate(tree, None, np.zeros(1), dt=0.01, max_steps=50, grad_tol=0.0)
    np.testing.assert_allclose(res.potential_trace, 0.0, atol=1e-15)


def test_whole_float_step_count_runs_as_its_integer():
    tree = one_dimensional_flow_tree()
    whole = integrate(tree, None, np.array([1.0]), dt=0.01, max_steps=7.0, grad_tol=0.0)
    exact = integrate(tree, None, np.array([1.0]), dt=0.01, max_steps=7, grad_tol=0.0)
    assert len(whole.trajectory) == len(exact.trajectory) == 8
    assert whole.status == exact.status == "max_steps"
    assert whole.trajectory.q.tobytes() == exact.trajectory.q.tobytes()
    for bad in (2.5, "3"):
        with pytest.raises(StructureError, match="max_steps must be an integer"):
            integrate(tree, None, np.array([1.0]), max_steps=bad)


def test_rollout_requires_potentials_for_trace():
    leaf = RawVMLeaf(np.array([1.0]), ConstantMetric(np.eye(1)))
    tree = TransformTree([1, 1], [Edge(0, 1, IdentityMap(1))], {1: leaf})
    with pytest.raises(StructureError):
        integrate(tree, None, np.zeros(1), max_steps=3)
    res = integrate(tree, None, np.zeros(1), max_steps=3, record_potential=False)
    assert res.potential_trace is None
    assert res.status == "max_steps"


def test_error_mid_rollout_returns_partial_trajectory():
    # barrier on a raw 1-D coordinate: start inside the valid region but
    # flowing toward z <= 0 triggers the domain error mid-rollout
    leaf = NaturalGradientLeaf(1, QuadraticPotential(np.array([-2.0]), gain=4.0),
                               ConstantMetric(np.eye(1)))
    barrier = handcrafted_barrier(0.5, gain=0.01, weight=0.01)
    tree = TransformTree(
        [1, 1, 1],
        [Edge(0, 1, IdentityMap(1)), Edge(0, 2, IdentityMap(1))],
        {1: leaf, 2: barrier},
    )
    res = integrate(tree, None, np.array([1.0]), dt=0.05, max_steps=5000,
                    grad_tol=1e-9)
    assert res.status == "error"
    assert "z=" in res.message or "domain" in res.message.lower() or res.message
    assert len(res.trajectory) >= 1
    assert res.potential_trace.shape == res.trajectory.t.shape


def test_descent_rate_nonpositive_along_rollouts(rng):
    tree, params, info = three_link_stability_fixture()
    for q0 in stability_seed_states(3, seed=3):
        res = integrate(tree, params, q0, dt=1e-3, max_steps=3000, grad_tol=1e-5)
        for q in res.trajectory.q[::200]:
            assert descent_rate(tree, params, q) <= 1e-10


def test_stability_fixture_converges_with_monotone_potential():
    tree, params, info = three_link_stability_fixture()
    q0 = stability_seed_states(1, seed=1)[0]
    res = integrate(tree, params, q0, dt=1e-3, max_steps=50_000, grad_tol=1e-6)
    assert res.status == "converged"
    assert res.terminal_grad_norm <= 1e-6
    rep = lyapunov_check(res)
    assert rep.n_violations == 0
    # trajectory stayed clear of the obstacle the whole way
    fk = PlanarArmFK(info["lengths"], "ee")
    dist = DistanceToPoint(info["obstacle"])
    min_dist = min(dist.value(fk.value(q))[0] for q in res.trajectory.q[::20])
    assert min_dist > 0.0


def test_forward_invariance_near_equilibrium():
    tree, params, info = three_link_stability_fixture()
    q0 = stability_seed_states(1, seed=2)[0]
    res = integrate(tree, params, q0, dt=1e-3, max_steps=50_000, grad_tol=1e-6)
    assert res.status == "converged"
    # keep integrating from the converged state: the gradient norm stays small
    more = integrate(tree, params, res.trajectory.q[-1], dt=1e-3, max_steps=200,
                     grad_tol=0.0)
    grads = [np.linalg.norm(-g) for g in map(
        lambda q: _root_force(tree, params, q), more.trajectory.q[::50])]
    assert max(grads) <= 1e-6


def _root_force(tree, params, q):
    from treemotion.tree import backward_pass, forward_pass, leaf_evaluate

    states = forward_pass(tree, q, params)
    leaf_evaluate(tree, states, params)
    backward_pass(tree, states)
    return states[0].pulled_force


def test_lyapunov_check_requires_trace():
    tree = one_dimensional_flow_tree()
    res = integrate(tree, None, np.array([0.5]), dt=0.01, max_steps=10,
                    grad_tol=0.0, record_potential=False)
    with pytest.raises(NumericError):
        lyapunov_check(res)


def test_potential_trace_matches_root_potential():
    tree = attractor_damper_tree(np.array([0.2, 0.2]))
    res = integrate(tree, None, np.array([1.0, -1.0]), dt=0.01, max_steps=20,
                    grad_tol=0.0)
    for q, phi in zip(res.trajectory.q[:5], res.potential_trace[:5]):
        assert phi == pytest.approx(root_potential(tree, q), abs=1e-14)
