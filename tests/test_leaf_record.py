"""A leaf's reverse rule reads the record its forward evaluation kept,
the reverse pass runs no forward kernel, and the independent baseline
maps each sample through a leaf's fixed prefix once.

All are exact: the kept record must give the same bits as a fresh
evaluation's record, and the baseline must train the same weights as
the route that maps every sample through the prefix on every trial,
which is kept below as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemotion import learning
from treemotion.errors import StructureError
from treemotion.fixtures import conflicting_demo_fixture
from treemotion.learning import TrainOptions, train_independent_baseline
from treemotion.losses import DemoSet, Trajectory
from treemotion.fixtures import random_tree
from treemotion.gradients import pipeline_vjp, policy_vjp
from treemotion.maps import DiffeoChain, IdentityMap, PlanarArmFK, RFFNet
from treemotion.params import ParamRegistryBuilder
from treemotion.policies import (
    CholeskyMetricNet,
    LatentQuadraticPotential,
    NaturalGradientLeaf,
    QuadraticPotential,
    RawVMLeaf,
    handcrafted_damper,
)
from treemotion.tree import Edge, TransformTree, evaluate_policy, run_pipeline

from conftest import add_rows, arrays, fd_grad_wrt_params


def snapshot(obj):
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays(obj)]


@st.composite
def leaf_cases(draw):
    dim = draw(st.integers(1, 4))
    return dict(dim=dim,
                parent_dim=draw(st.integers(1, 4)),
                hidden=draw(st.sampled_from([(3,), (4, 2), (2, 3, 2)])),
                metric_input=draw(st.sampled_from(["latent", "subtask"])),
                latent_goal=dim >= 2 and draw(st.booleans()),
                seed=draw(st.integers(0, 2**16)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(leaf_cases())
def test_leaf_reverse_on_the_forward_record_matches_a_fresh_evaluation(case):
    dim, subtask = case["dim"], case["metric_input"] == "subtask"
    rng = np.random.default_rng(case["seed"])
    in_dim = case["parent_dim"] if subtask else dim
    net = CholeskyMetricNet(dim, in_dim=in_dim, hidden=case["hidden"], eps=1e-3,
                            seed=case["seed"] % 89)
    builder = ParamRegistryBuilder()
    net.param_slice = builder.register("metric", net.init_values())
    goal = rng.uniform(-1.0, 1.0, dim)
    if case["latent_goal"]:
        chain = DiffeoChain(dim, n_layers=2, n_features=4, length_scale=1.5,
                            seed=case["seed"] % 97)
        chain.param_slice = builder.register("chain",
                                             rng.normal(0.0, 0.3, chain.n_params))
        pot = LatentQuadraticPotential(goal, chain)
    else:
        pot = QuadraticPotential(goal, gain=1.3)
    params = builder.build()
    leaf = NaturalGradientLeaf(dim, pot, net, metric_input=case["metric_input"])
    z = rng.uniform(-1.0, 1.0, dim)
    x = rng.uniform(-1.0, 1.0, case["parent_dim"])
    x_m = x if subtask else z
    S = rng.normal(0.0, 1.0, (dim, dim))  # not symmetric
    cot_p = rng.normal(0.0, 1.0, dim)

    p, M, record = leaf.evaluate(z, params, parent_coord=x)
    p_ref, M_ref, ref_record = leaf.evaluate(z, params, parent_coord=x)
    assert np.array_equal(p, p_ref) and np.array_equal(M, M_ref)
    pot_tape, metric_tape = record
    assert (pot_tape is not None) == case["latent_goal"]
    before = snapshot(record)

    c_x, rows = net.param_vjp(x_m, params, S, metric_tape)
    grad = add_rows(params.zeros_like(), rows)
    ref_c_x, ref_rows = net.param_vjp(x_m, params, S, ref_record[1])
    ref_grad = add_rows(params.zeros_like(), ref_rows)
    assert np.abs(grad).max() > 0.0
    assert np.array_equal(grad, ref_grad) and np.array_equal(c_x, ref_c_x)

    c_z, rows = leaf.vjp(z, params, cot_p, S, parent_coord=x, tape=record)
    grad = add_rows(params.zeros_like(), rows)
    ref_c_z, ref_rows = leaf.vjp(z, params, cot_p, S, parent_coord=x, tape=ref_record)
    ref_grad = add_rows(params.zeros_like(), ref_rows)
    assert np.array_equal(grad, ref_grad) and np.array_equal(c_z, ref_c_z)
    assert snapshot(record) == before


def count_forward_kernels(monkeypatch):
    """Count the calls of each forward kernel a reverse rule could rerun."""
    counts = {}
    for cls, name in ((CholeskyMetricNet, "decompose"),
                      (RFFNet, "features_and_slope"),
                      (DiffeoChain, "_taped_forward")):
        counts[name] = 0

        def counted(self, *args, _name=name, _original=getattr(cls, name)):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return counts


def test_reverse_pass_runs_no_forward_kernel(monkeypatch):
    counts = count_forward_kernels(monkeypatch)
    raw_net_leaves = 0
    for seed in range(40):
        tree, params = random_tree(seed)
        raw_net_leaves += sum(isinstance(row.policy, RawVMLeaf)
                              and isinstance(row.policy.metric, CholeskyMetricNet)
                              for row in tree._reverse_leaves)
        rng = np.random.default_rng(3000 + seed)
        cache = run_pipeline(tree, rng.uniform(-0.6, 0.6, tree.root_dim), params)
        counts.update(dict.fromkeys(counts, 0))
        pipeline_vjp(tree, cache, params, rng.normal(0.0, 1.0, tree.root_dim),
                     params.zeros_like())
        assert counts == dict.fromkeys(counts, 0), seed
    assert raw_net_leaves == 7

    # One learnable raw leaf whose metric is a net: one metric forward per
    # evaluation, none per reverse pass, and the gradient still matches
    # central differences.
    leaf = RawVMLeaf(np.ones(2), CholeskyMetricNet(2, hidden=(4,)), learnable=True)
    tree = TransformTree([2, 2], [Edge(0, 1, IdentityMap(2))], {1: leaf})
    params = tree.init_params()
    q, g = np.array([0.3, -0.2]), np.array([0.7, 0.4])
    counts.update(dict.fromkeys(counts, 0))
    cache = run_pipeline(tree, q, params)
    assert counts["decompose"] == 1
    grad = params.zeros_like()
    pipeline_vjp(tree, cache, params, g, grad)
    assert counts["decompose"] == 1
    fd = fd_grad_wrt_params(lambda p: float(g @ evaluate_policy(tree, q, p)), params)
    assert np.abs(grad).max() > 0.0
    np.testing.assert_allclose(grad, fd, atol=1e-7)
    assert np.array_equal(grad, policy_vjp(tree, q, params, g))


def per_trial_baseline(tree, params, demos, opts):
    """The baseline before the prefix hoist and the leaf record: every
    trial maps each ``(q, qdot)`` through the leaf's prefix again, and
    the leaf's ``vjp`` reads the record of a fresh evaluation."""
    samples = list(demos.samples())
    theta = params.copy()
    for leaf, policy, _, _, prefix, latent in tree._reverse_leaves:
        chain = latent.map if latent is not None else None

        def terms(th, batch, grad=None):
            for q, qdot in batch:
                x = np.asarray(q, dtype=float)
                J_fix = np.eye(tree.root_dim)
                for edge in prefix:
                    x, J_edge = edge.map.value_and_jacobian(x, th)
                    J_fix = J_edge @ J_fix
                zdot = J_fix @ qdot
                if chain is not None:
                    w, J_chain, tape = chain.value_jacobian_tape(x, th)
                    y = J_chain @ zdot
                else:
                    w, y = x, zdot
                p, M, _ = policy.evaluate(w, th, parent_coord=x)
                v = np.linalg.solve(M, p)
                r = y - v
                if grad is not None:
                    rho = np.linalg.solve(M, r)
                    fresh = policy.evaluate(w, th, parent_coord=x)[2]
                    c_w, rows = policy.vjp(w, th, -2.0 * rho, 2.0 * np.outer(rho, v),
                                           parent_coord=x, tape=fresh)
                    if chain is not None and chain.is_learnable:
                        rows = rows + chain.pullback_vjp(x, th, c_w, zdot[:, None],
                                                         (2.0 * r)[:, None], tape=tape)
                    add_rows(grad, rows)
                yield float(r @ r)

        def loss_grad(th, batch):
            grad = th.zeros_like()
            return learning._total_within(terms(th, batch, grad)), grad

        theta = learning._descend(loss_grad, terms, theta, samples, opts).params
    return theta


@pytest.fixture(scope="module")
def fixture_one():
    tree, params, demos, _, _ = conflicting_demo_fixture(seed=1)
    return tree, params, demos


def test_baseline_maps_each_sample_through_the_prefix_once(monkeypatch, fixture_one):
    tree, params, demos = fixture_one
    # Each per-sample call, and each row of a stacked one.
    calls = [0]
    value_and_jacobian = PlanarArmFK.value_and_jacobian
    stacked_value_and_jacobian = PlanarArmFK.stacked_value_and_jacobian

    def counted(self, *args):
        calls[0] += 1
        return value_and_jacobian(self, *args)

    def stacked_counted(self, X, *args):
        calls[0] += len(X)
        return stacked_value_and_jacobian(self, X, *args)

    monkeypatch.setattr(PlanarArmFK, "value_and_jacobian", counted)
    monkeypatch.setattr(PlanarArmFK, "stacked_value_and_jacobian", stacked_counted)
    opts = TrainOptions(alpha=None, iterations=2)
    trained = train_independent_baseline(tree, params, demos, opts)
    assert calls[0] == demos.n_samples == 124  # one leaf has the arm as prefix
    calls[0] = 0
    reference = per_trial_baseline(tree, params, demos, opts)
    assert calls[0] == 508
    assert np.array_equal(trained.values, reference.values)


def test_minibatch_baseline_picks_from_the_mapped_samples(fixture_one):
    tree, params, demos = fixture_one
    opts = TrainOptions(alpha=None, iterations=3, minibatch=31, momentum=0.5, seed=4)
    trained = train_independent_baseline(tree, params, demos, opts)
    reference = per_trial_baseline(tree, params, demos, opts)
    assert not np.array_equal(trained.values, params.values)
    assert np.array_equal(trained.values, reference.values)


def test_baseline_matches_the_reference_at_perturbed_weights_of_another_fixture():
    tree, params, demos, _, _ = conflicting_demo_fixture(seed=9)
    rng = np.random.default_rng(9)
    params = params.with_values(params.values + 0.05 * rng.normal(0.0, 1.0, params.size))
    opts = TrainOptions(alpha=None, iterations=2)
    trained = train_independent_baseline(tree, params, demos, opts)
    reference = per_trial_baseline(tree, params, demos, opts)
    assert not np.array_equal(trained.values, params.values)
    assert np.array_equal(trained.values, reference.values)


def test_baseline_rejects_a_prefix_that_shares_weights_with_the_leaf():
    # The goal chain is also the inner edge above the leaf, so training the
    # leaf would move its own prefix.
    chain = DiffeoChain(2, n_layers=2, n_features=5, length_scale=2.0, seed=2,
                        init_scale=0.1)
    leaf = NaturalGradientLeaf(2, LatentQuadraticPotential(np.array([0.3, 0.1]), chain),
                               CholeskyMetricNet(2, hidden=(4,), seed=1))
    tree = TransformTree([2, 2, 2, 2],
                         [Edge(0, 1, chain), Edge(1, 2, IdentityMap(2)),
                          Edge(0, 3, IdentityMap(2))],
                         {2: leaf, 3: handcrafted_damper(0.5, 2)})
    rng = np.random.default_rng(0)
    demos = DemoSet([Trajectory(np.arange(3.0), rng.uniform(-0.5, 0.5, (3, 2)),
                                rng.uniform(-1.0, 1.0, (3, 2)))])
    with pytest.raises(StructureError, match="edge 0->1 above leaf 2 shares weights"):
        train_independent_baseline(tree, tree.init_params(), demos,
                                   TrainOptions(alpha=0.01, iterations=1))
