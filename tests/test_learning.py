import numpy as np
import pytest

from treemotion import learning
from treemotion.errors import NumericError, StructureError
from treemotion.fixtures import conflicting_demo_fixture, synthesize_conflicting_demos
from treemotion.learning import (
    TrainOptions,
    _baseline_leaf_loss_grad,
    _leaf_samples,
    loss_and_gradient,
    suggest_length_scale,
    train,
    train_independent_baseline,
)
from treemotion.losses import (
    DemoSet,
    LossSpec,
    Trajectory,
    joint_loss,
    loss_value,
    subtask_loss,
    velocities_by_central_difference,
)
from treemotion.maps import DiffeoChain, IdentityMap, LinearMap
from treemotion.policies import (
    CholeskyMetricNet,
    ConstantMetric,
    LatentQuadraticPotential,
    NaturalGradientLeaf,
    RawVMLeaf,
    handcrafted_damper,
)
from treemotion.tree import Edge, TransformTree, evaluate_policy


def demo_from_samples(qs, qdots):
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    qdots = np.atleast_2d(np.asarray(qdots, dtype=float))
    return DemoSet([Trajectory(np.arange(len(qs), dtype=float), qs, qdots)])


def theta_policy_tree(dim=2, v0=None):
    v0 = np.zeros(dim) if v0 is None else np.asarray(v0, dtype=float)
    leaf = RawVMLeaf(v0, ConstantMetric(np.eye(dim)), learnable=True)
    tree = TransformTree([dim, dim], [Edge(0, 1, IdentityMap(dim))], {1: leaf})
    return tree, tree.init_params()


# ---------------------------------------------------------------------------
# demonstration containers
# ---------------------------------------------------------------------------


def test_trajectory_requires_increasing_timestamps():
    with pytest.raises(StructureError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), np.zeros((2, 1)))


def test_central_difference_velocities_exact_for_linear_motion():
    t = np.linspace(0.0, 1.0, 11)
    q = np.outer(t, np.array([2.0, -1.0]))
    qd = velocities_by_central_difference(t, q)
    np.testing.assert_allclose(qd, np.tile([2.0, -1.0], (11, 1)), atol=1e-12)


def test_suggest_length_scale_is_fraction_of_diameter():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert suggest_length_scale(pts) == pytest.approx(0.45 * 5.0)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_subtask_loss_zero_for_perfect_policy():
    tree, params = theta_policy_tree(2, v0=[0.4, -0.2])
    demos = demo_from_samples([[0.0, 0.0], [1.0, 1.0]],
                              [[0.4, -0.2], [0.4, -0.2]])
    assert subtask_loss(tree, params, demos, [1.0]) == 0.0
    assert joint_loss(tree, params, demos) == 0.0


def test_subtask_loss_zero_weights():
    tree, params = theta_policy_tree(2, v0=[0.4, -0.2])
    demos = demo_from_samples([[0.0, 0.0]], [[9.0, 9.0]])
    assert subtask_loss(tree, params, demos, [0.0]) == 0.0


def test_subtask_loss_projects_residual():
    # 1-D leaf via J = [1, 0]: only the first residual component counts
    leaf = RawVMLeaf(np.array([0.0]), ConstantMetric(np.eye(1)))
    damp = handcrafted_damper(1.0, 2)
    tree = TransformTree(
        [2, 2, 1],
        [Edge(0, 1, IdentityMap(2)), Edge(0, 2, LinearMap(np.array([[1.0, 0.0]])))],
        {1: damp, 2: leaf},
    )
    a, b = 0.7, -1.3
    demos = demo_from_samples([[0.0, 0.0]], [[a, b]])  # policy output is 0
    lam = [0.0, 1.0]  # leaves sorted [1, 2]; weight only the projected leaf
    assert subtask_loss(tree, params=None, demos=demos, lam=lam) == pytest.approx(a * a)


def test_joint_loss_zero_policy():
    tree, params = theta_policy_tree(2, v0=[0.0, 0.0])
    demos = demo_from_samples([[0.2, 0.1]], [[3.0, 4.0]])
    assert joint_loss(tree, params, demos) == pytest.approx(25.0)


def test_identity_leaf_subtask_equals_joint():
    tree, params = theta_policy_tree(2, v0=[0.3, 0.3])
    rng = np.random.default_rng(3)
    demos = demo_from_samples(rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (5, 2)))
    assert subtask_loss(tree, params, demos, [1.0]) == joint_loss(tree, params, demos)


def test_loss_spec_validation():
    tree, _ = theta_policy_tree(2)
    with pytest.raises(StructureError):
        LossSpec("nonsense")
    spec = LossSpec("subtask_space", np.zeros(1))
    with pytest.raises(StructureError):
        spec.validate_for_training(tree)
    with pytest.raises(StructureError):
        LossSpec("subtask_space", np.array([1.0, 1.0])).lam_for(tree)


def test_summed_losses_reject_the_baseline_kind_and_bad_weights():
    tree, params = theta_policy_tree(2)
    demos = demo_from_samples([[0.0, 0.0]], [[1.0, 1.0]])
    baseline = LossSpec("independent_baseline")
    with pytest.raises(StructureError, match="trained per leaf"):
        loss_and_gradient(tree, params, demos, baseline)
    with pytest.raises(StructureError, match="trained per leaf"):
        loss_value(baseline, tree, params, demos)
    for lam in ([-1.0], [np.nan]):
        with pytest.raises(StructureError, match="finite and nonnegative"):
            subtask_loss(tree, params, demos, lam)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_zero_iterations_keeps_params():
    tree, params = theta_policy_tree(2, v0=[0.1, 0.9])
    demos = demo_from_samples([[0.0, 0.0]], [[1.0, 1.0]])
    result = train(tree, params, demos, LossSpec("joint_space"),
                   TrainOptions(iterations=0))
    np.testing.assert_array_equal(result.params.values, params.values)
    assert result.history.shape == (1,)


def test_train_quadratic_monotone_below_stability_bound():
    # pi = theta: loss = sum_i ||qdot_i - theta||^2, Hessian = 2 N I, so
    # plain descent is monotone for alpha < 1/N
    tree, params = theta_policy_tree(2)
    rng = np.random.default_rng(0)
    demos = demo_from_samples(rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (4, 2)))
    result = train(tree, params, demos, LossSpec("joint_space"),
                   TrainOptions(alpha=0.2, iterations=30))
    assert result.status == "completed"
    assert np.all(np.diff(result.history) <= 1e-12)
    target = np.mean(demos.trajectories[0].qdot, axis=0)
    np.testing.assert_allclose(result.params.values, target, atol=1e-6)


def test_train_line_search_decreases_loss():
    tree, params = theta_policy_tree(2)
    demos = demo_from_samples([[0.0, 0.0], [0.5, 0.5]], [[1.0, -1.0], [1.0, -1.0]])
    result = train(tree, params, demos, LossSpec("joint_space"),
                   TrainOptions(iterations=40))
    assert result.history[-1] < 1e-6


def test_train_aborts_on_divergence_with_last_finite_params():
    tree, params = theta_policy_tree(2)
    demos = demo_from_samples([[0.0, 0.0]], [[1.0, 1.0]])
    result = train(tree, params, demos, LossSpec("joint_space"),
                   TrainOptions(alpha=1e6, iterations=200))
    assert result.status == "aborted_nonfinite"
    assert np.all(np.isfinite(result.params.values))
    assert np.all(np.isfinite(result.history))


def test_train_deterministic_history():
    tree, params = theta_policy_tree(2)
    rng = np.random.default_rng(1)
    demos = demo_from_samples(rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (6, 2)))
    opts = TrainOptions(iterations=12, seed=5, minibatch=3)
    r1 = train(tree, params, demos, LossSpec("joint_space"), opts)
    r2 = train(tree, params, demos, LossSpec("joint_space"), opts)
    assert np.array_equal(r1.history, r2.history)
    assert np.array_equal(r1.params.values, r2.params.values)


def test_whole_float_counts_train_as_their_integers():
    # The one integer rule of the library: 7.0 is 7, and 7.5 is no count.
    tree, params = theta_policy_tree(2)
    rng = np.random.default_rng(2)
    demos = demo_from_samples(rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (6, 2)))
    whole = TrainOptions(iterations=7.0, seed=5.0, minibatch=3.0)
    got = train(tree, params, demos, LossSpec("joint_space"), whole)
    expected = train(tree, params, demos, LossSpec("joint_space"),
                     TrainOptions(iterations=7, seed=5, minibatch=3))
    assert [(type(v), v) for v in (whole.iterations, whole.seed, whole.minibatch)] == [
        (int, 7), (int, 5), (int, 3)]
    assert len(got.history) == 8 and np.array_equal(got.history, expected.history)
    assert np.array_equal(got.params.values, expected.params.values)
    with pytest.raises(StructureError, match=r"^iterations must be an integer, got 7\.5$"):
        train(tree, params, demos, LossSpec("joint_space"), TrainOptions(iterations=7.5))


@pytest.mark.parametrize("bad", [
    {"alpha": -0.05}, {"alpha": 0.0}, {"alpha": float("inf")}, {"alpha": float("nan")},
    {"iterations": -4}, {"seed": -1},
    {"minibatch": -120}, {"minibatch": 0},
    {"momentum": -0.1}, {"momentum": 1.0},
    {"iterations": 2.5}, {"seed": 1.5}, {"minibatch": 7.5},
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_trainers_reject_out_of_range_options(bad):
    tree, params = theta_policy_tree(2)
    demos = demo_from_samples([[0.0, 0.0]], [[1.0, 1.0]])
    opts = TrainOptions(**bad)
    with pytest.raises(StructureError, match=next(iter(bad))):
        train(tree, params, demos, LossSpec("joint_space"), opts)
    # Fields set after construction (as the CLI flags do) are checked too.
    opts = TrainOptions()
    for key, value in bad.items():
        setattr(opts, key, value)
    chain_tree, chain_params, _ = latent_leaf_tree(seed=7)
    with pytest.raises(StructureError, match=next(iter(bad))):
        train_independent_baseline(chain_tree, chain_params, demos, opts)


def test_train_rejects_baseline_kind():
    tree, params = theta_policy_tree(2)
    demos = demo_from_samples([[0.0, 0.0]], [[1.0, 1.0]])
    with pytest.raises(StructureError):
        train(tree, params, demos, LossSpec("independent_baseline"), TrainOptions())


# ---------------------------------------------------------------------------
# independent baseline
# ---------------------------------------------------------------------------


def latent_leaf_tree(seed=0, with_damper=True, dim=2):
    chain = DiffeoChain(dim, n_layers=2, n_features=6, length_scale=1.5, seed=seed)
    leaf = NaturalGradientLeaf(
        dim, LatentQuadraticPotential(np.zeros(dim), chain),
        CholeskyMetricNet(dim, hidden=(6,), seed=seed + 1),
    )
    dims = [dim, dim, dim]
    edges = [Edge(0, 1, IdentityMap(dim)), Edge(1, 2, chain)]
    policies = {2: leaf}
    if with_damper:
        dims.append(dim)
        edges.append(Edge(0, 3, IdentityMap(dim)))
        policies[3] = handcrafted_damper(0.5, dim)
    # re-index: edges reference node ids in [root, mid, latent, damper]
    tree = TransformTree(dims, edges, policies)
    return tree, tree.init_params(), chain


def test_baseline_residual_relates_to_subtask_residual(rng):
    # single-leaf tree: the baseline residual is the chain-Jacobian image
    # of the subtask-space residual of the composed policy
    tree, params, chain = latent_leaf_tree(seed=4, with_damper=False)
    params.values[chain.param_slice] = rng.normal(0.0, 0.2, chain.n_params)
    q = rng.uniform(-0.8, 0.8, 2)
    qdot = rng.uniform(-1.0, 1.0, 2)
    pi = evaluate_policy(tree, q, params)
    _, J_chain = chain.value_and_jacobian(q, params)
    r_subtask = qdot - pi
    # leaf-mapped demo velocity minus leaf flow equals J_chain @ r_subtask
    value, _ = _baseline_leaf_loss_grad(tree, params, 2,
                                        _leaf_samples(tree, params, 2, [(q, qdot)]))
    expected = float(np.sum((J_chain @ r_subtask) ** 2))
    assert value == pytest.approx(expected, rel=1e-10)


def test_baseline_leaves_frozen_leaf_untouched():
    tree, params, chain = latent_leaf_tree(seed=7)
    demos = demo_from_samples([[0.1, 0.2], [0.3, -0.2]], [[0.5, 0.0], [0.2, 0.4]])
    trained = train_independent_baseline(tree, params, demos,
                                         TrainOptions(iterations=5))
    assert trained.values.shape == params.values.shape
    assert not np.array_equal(trained.values, params.values)  # leaf trained
    # damper has no parameters; registry confirms only chain+metric slices
    names = [n for n, _, _ in params.registry]
    assert names == ["edge[1->2].map", "leaf[2].metric"]


def test_baseline_rejects_learnable_raw_leaf():
    leaf = RawVMLeaf(np.zeros(2), ConstantMetric(np.eye(2)), learnable=True)
    tree = TransformTree([2, 2], [Edge(0, 1, IdentityMap(2))], {1: leaf})
    params = tree.init_params()
    demos = demo_from_samples([[0.0, 0.0]], [[1.0, 1.0]])
    with pytest.raises(StructureError):
        train_independent_baseline(tree, params, demos, TrainOptions(iterations=1))


@pytest.mark.parametrize("variant", ["subtask_metric", "chainless"])
def test_baseline_gradient_matches_fd_on_uncommon_leaves(variant, rng):
    from treemotion.maps import PlanarArmFK
    from treemotion.policies import QuadraticPotential

    if variant == "subtask_metric":
        chain = DiffeoChain(2, n_layers=2, n_features=5, length_scale=2.0,
                            seed=1, init_scale=0.2)
        leaf = NaturalGradientLeaf(
            2, LatentQuadraticPotential(np.array([0.3, 0.1]), chain),
            CholeskyMetricNet(2, hidden=(5,), seed=2), metric_input="subtask")
        tree = TransformTree(
            [2, 2, 2, 2],
            [Edge(0, 1, IdentityMap(2)), Edge(1, 2, chain),
             Edge(0, 3, IdentityMap(2))],
            {2: leaf, 3: handcrafted_damper(0.5, 2)})
        leaf_node, d = 2, 2
    else:
        leaf = NaturalGradientLeaf(
            2, QuadraticPotential(np.array([1.0, 0.5]), gain=1.3),
            CholeskyMetricNet(2, hidden=(5,), seed=4))
        tree = TransformTree(
            [3, 2, 3],
            [Edge(0, 1, PlanarArmFK([1.0, 1.0, 1.0], "ee")),
             Edge(0, 2, IdentityMap(3))],
            {1: leaf, 2: handcrafted_damper(0.5, 3)})
        leaf_node, d = 1, 3
    params = tree.init_params()
    samples = [(rng.uniform(-0.8, 0.8, d), rng.uniform(-1, 1, d))
               for _ in range(3)]
    samples = _leaf_samples(tree, params, leaf_node, samples)  # a fixed prefix
    _, g = _baseline_leaf_loss_grad(tree, params, leaf_node, samples)
    h = 1e-5
    fd = np.zeros_like(g)
    for i in range(params.size):
        up = params.copy()
        up.values[i] += h
        dn = params.copy()
        dn.values[i] -= h
        fd[i] = (_baseline_leaf_loss_grad(tree, up, leaf_node, samples)[0]
                 - _baseline_leaf_loss_grad(tree, dn, leaf_node, samples)[0]) / (2 * h)
    denom = np.maximum(np.abs(fd), 1e-3)
    assert (np.abs(g - fd) / denom).max() < 1e-4


def test_baseline_reduces_its_own_objective():
    tree, params, chain = latent_leaf_tree(seed=11)
    demos = synthesize_conflicting_demos(
        np.array([1.2, 0.5]), np.array([-0.2, 1.5]),
        [(1.0, 3.0, 0.0, 0.5), (-1.0, 4.0, 1.0, -0.5)],
        duration=1.0, subsample=20)
    # map 3-dof demos onto the 2-d tree by dropping the last joint
    qs = np.concatenate([tr.q[:, :2] for tr in demos.trajectories])
    qds = np.concatenate([tr.qdot[:, :2] for tr in demos.trajectories])
    demos2 = demo_from_samples(qs, qds)
    samples = _leaf_samples(tree, params, 2, list(demos2.samples()))
    before, _ = _baseline_leaf_loss_grad(tree, params, 2, samples)
    trained = train_independent_baseline(tree, params, demos2,
                                         TrainOptions(iterations=25))
    after, _ = _baseline_leaf_loss_grad(tree, trained, 2, samples)
    assert after < before


def test_baseline_checks_its_final_iterate():
    # At this fixture seed the last step takes leaf 3's weights to about
    # 2e7, where its own loss is NaN.
    tree, params, demos, _, _ = conflicting_demo_fixture(seed=14)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="leaf 3 "):
        train_independent_baseline(tree, params, demos,
                                   TrainOptions(alpha=None, iterations=2))


def test_baseline_raises_when_a_step_overflows():
    tree, params, _ = latent_leaf_tree(seed=7)
    demos = demo_from_samples([[0.1, 0.2], [0.3, -0.2]], [[5.0, 0.0], [2.0, 4.0]])
    # The gradient's largest entry is about 36, so the first step overflows.
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="leaf 2 "):
        train_independent_baseline(tree, params, demos,
                                   TrainOptions(alpha=1e308, iterations=3))


def test_baseline_honours_minibatch():
    tree, params, _ = latent_leaf_tree(seed=7)
    rng = np.random.default_rng(3)
    demos = demo_from_samples(rng.uniform(-0.8, 0.8, (8, 2)),
                              rng.uniform(-1.0, 1.0, (8, 2)))
    opts = TrainOptions(alpha=0.05, iterations=5, minibatch=3, seed=4)
    first = train_independent_baseline(tree, params, demos, opts)
    again = train_independent_baseline(tree, params, demos, opts)
    full = train_independent_baseline(tree, params, demos,
                                      TrainOptions(alpha=0.05, iterations=5))
    assert np.array_equal(first.values, again.values)
    assert not np.array_equal(first.values, full.values)


def test_zero_first_gradient_stops_after_one_gradient_call(monkeypatch):
    # Demos produced exactly by the policy: the first gradient is exactly 0,
    # so no step can move the weights.
    tree, params = theta_policy_tree(2, v0=[0.3, -0.2])
    demos = demo_from_samples([[0.1, 0.2], [0.4, -0.1]], [[0.3, -0.2], [0.3, -0.2]])
    calls = []
    original = learning.loss_and_gradient

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(learning, "loss_and_gradient", counting)
    result = train(tree, params, demos, LossSpec("joint_space"),
                   TrainOptions(alpha=None, iterations=20))
    assert len(calls) == 1
    assert result.status == "completed"
    assert result.history.tolist() == [0.0, 0.0]
    assert np.array_equal(result.params.values, params.values)
