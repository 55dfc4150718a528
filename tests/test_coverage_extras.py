"""Cross-cutting checks: per-map FD sweeps, the subtask-input metric
variant, loss nonnegativity, momentum, and the remaining CLI loss modes."""

import json

import numpy as np
import pytest

from treemotion.fixtures import synthesize_conflicting_demos
from treemotion.learning import TrainOptions, loss_and_gradient, train
from treemotion.losses import DemoSet, LossSpec, Trajectory, loss_value, subtask_loss
from treemotion.maps import (
    DiffeoChain,
    DistanceToPoint,
    IdentityMap,
    LinearMap,
    PlanarArmFK,
)
from treemotion.params import ParamRegistryBuilder
from treemotion.policies import (
    CholeskyMetricNet,
    ConstantMetric,
    LatentQuadraticPotential,
    NaturalGradientLeaf,
    RawVMLeaf,
    handcrafted_damper,
)
from treemotion.tree import Edge, TransformTree, evaluate_policy

from conftest import fd_grad_wrt_params, fd_jacobian
from test_io_cli import VALID_SPEC, run_cli


def test_every_map_kind_matches_fd_over_fifty_inputs():
    rng = np.random.default_rng(1234)
    chain = DiffeoChain(3, n_layers=3, n_features=6, length_scale=2.0, seed=9)
    builder = ParamRegistryBuilder()
    chain.param_slice = builder.register("chain",
                                         rng.normal(0.0, 0.3, chain.n_params))
    params = builder.build()
    cases = [
        (IdentityMap(3), lambda: rng.uniform(-2, 2, 3), None),
        (LinearMap(rng.uniform(-1, 1, (2, 4))), lambda: rng.uniform(-2, 2, 4), None),
        (PlanarArmFK(rng.uniform(0.5, 1.5, 4), "ee"),
         lambda: rng.uniform(-np.pi, np.pi, 4), None),
        (PlanarArmFK([1.0, 1.0, 1.0], point=2),
         lambda: rng.uniform(-np.pi, np.pi, 3), None),
        (DistanceToPoint([3.0, -2.0, 1.0]), lambda: rng.uniform(-1, 1, 3), None),
        (chain, lambda: rng.uniform(-1.2, 1.2, 3), params),
    ]
    for m, draw, p in cases:
        worst = 0.0
        for _ in range(50):
            x = draw()
            J = m.value_and_jacobian(x, p)[1]
            J_fd = fd_jacobian(lambda z: m.value(z, p), x)
            worst = max(worst, float(np.abs(J - J_fd).max())
                        / max(1.0, float(np.abs(J_fd).max())))
        assert worst < 1e-5, type(m).__name__


def subtask_metric_tree(seed=0):
    chain = DiffeoChain(2, n_layers=2, n_features=5, length_scale=2.0,
                        seed=seed, init_scale=0.2)
    leaf = NaturalGradientLeaf(
        2, LatentQuadraticPotential(np.array([0.4, -0.1]), chain),
        CholeskyMetricNet(2, hidden=(5,), seed=seed + 1),
        metric_input="subtask",
    )
    tree = TransformTree(
        [2, 2, 2, 2],
        [Edge(0, 1, IdentityMap(2)), Edge(1, 2, chain), Edge(0, 3, IdentityMap(2))],
        {2: leaf, 3: handcrafted_damper(0.6, 2)},
    )
    return tree, tree.init_params()


def test_subtask_metric_input_evaluates_and_differentiates():
    tree, params = subtask_metric_tree()
    rng = np.random.default_rng(2)
    q = rng.uniform(-0.8, 0.8, 2)
    qdot = rng.uniform(-1.0, 1.0, 2)
    pi = evaluate_policy(tree, q, params)
    assert np.all(np.isfinite(pi))
    from treemotion.tree import flat_solve

    np.testing.assert_allclose(pi, flat_solve(tree, q, params), atol=1e-12)
    demos = DemoSet([Trajectory(np.array([0.0]), q[None, :], qdot[None, :])])
    loss = LossSpec("joint_space")
    g = loss_and_gradient(tree, params, demos, loss)[1]
    fd = fd_grad_wrt_params(lambda p: loss_value(loss, tree, p, demos), params)
    denom = np.maximum(np.abs(fd), 1e-3)
    assert (np.abs(g - fd) / denom).max() < 1e-4


def test_subtask_metric_sees_parent_coordinate():
    # with a deforming chain, latent vs subtask input give different weights
    tree, params = subtask_metric_tree(seed=5)
    chain_leaf = tree.leaf_policies[2]
    rng = np.random.default_rng(3)
    q = rng.uniform(-0.8, 0.8, 2)
    chain = tree.leaf_table[2].edge.map
    w = chain.value(q, params)
    _, M_sub, _ = chain_leaf.evaluate(w, params, parent_coord=q)
    np.testing.assert_allclose(
        M_sub, chain_leaf.metric.value(q, params), atol=1e-14)


def test_subtask_loss_nonnegative_over_random_states():
    rng = np.random.default_rng(7)
    leaf = RawVMLeaf(rng.uniform(-1, 1, 2), ConstantMetric(np.eye(2)))
    tree = TransformTree(
        [2, 2, 2],
        [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
        {1: leaf, 2: handcrafted_damper(0.4, 2)},
    )
    for _ in range(20):
        demos = DemoSet([Trajectory(np.array([0.0]),
                                    rng.uniform(-1, 1, (1, 2)),
                                    rng.uniform(-2, 2, (1, 2)))])
        assert subtask_loss(tree, None, demos, [1.0, 0.5]) >= 0.0


def test_momentum_option_trains_the_quadratic():
    leaf = RawVMLeaf(np.zeros(2), ConstantMetric(np.eye(2)), learnable=True)
    tree = TransformTree([2, 2], [Edge(0, 1, IdentityMap(2))], {1: leaf})
    params = tree.init_params()
    demos = DemoSet([Trajectory(np.array([0.0, 1.0]),
                                np.array([[0.0, 0.0], [0.5, 0.5]]),
                                np.array([[1.0, -1.0], [1.0, -1.0]]))])
    res = train(tree, params, demos, LossSpec("joint_space"),
                TrainOptions(alpha=0.1, iterations=60, momentum=0.5))
    assert res.status == "completed"
    assert res.history[-1] < 1e-8


def test_policy_level_learnable_flag_freezes_metric(tmp_path):
    spec = json.loads(json.dumps(VALID_SPEC))
    spec["leaves"][0]["policy"]["learnable"] = False
    spec["edges"][1]["map"]["learnable"] = False
    path = tmp_path / "frozen.json"
    path.write_text(json.dumps(spec))
    from treemotion.io import load_tree

    tree = load_tree(str(path))
    assert tree.init_params().size == 0


def test_shipped_arm_fixture_spec_matches_library_fixture(tmp_path):
    import os

    from treemotion.fixtures import three_link_stability_fixture
    from treemotion.io import load_tree

    spec_path = os.path.join(os.path.dirname(__file__), "..", "demos",
                             "arm_fixture.json")
    tree = load_tree(spec_path)
    ref_tree, ref_params, _ = three_link_stability_fixture()
    rng = np.random.default_rng(6)
    for _ in range(3):
        q = rng.uniform(-1.0, 1.0, 3)
        np.testing.assert_allclose(evaluate_policy(tree, q, tree.init_params()),
                                   evaluate_policy(ref_tree, q, ref_params),
                                   atol=1e-14)
    proc = run_cli("check", spec_path)
    assert proc.returncode == 0
    proc = run_cli("rollout", spec_path, "--q0", "0.35,0.55,0.35",
                   "--max-steps", "100000")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "converged"


def test_cli_gradcheck_trivially_passes_with_frozen_leaves(tmp_path):
    spec = json.loads(json.dumps(VALID_SPEC))
    spec["leaves"][0]["policy"]["learnable"] = False
    spec["edges"][1]["map"]["learnable"] = False
    spec_path = tmp_path / "frozen.json"
    spec_path.write_text(json.dumps(spec))
    demo_path = tmp_path / "demo.csv"
    demo_path.write_text("t,q0,q1,qd0,qd1\n0.0,0.1,0.2,0.3,0.4\n")
    proc = run_cli("gradcheck", str(spec_path), "--demos", str(demo_path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_params"] == 0


def test_cli_joint_and_independent_loss_modes(tmp_path):
    spec_path = tmp_path / "tree.json"
    spec_path.write_text(json.dumps(VALID_SPEC))
    demos = synthesize_conflicting_demos(
        np.array([1.2, 0.5]), np.array([-0.2, 1.5]),
        [(1.0, 3.0, 0.0, 0.5), (-1.0, 4.0, 1.0, -0.5)],
        duration=0.6, subsample=20)
    demo_path = tmp_path / "demo.csv"
    lines = ["t,q0,q1,qd0,qd1"]
    tr = demos.trajectories[0]
    for k in range(len(tr)):
        lines.append(",".join(repr(float(v))
                              for v in [tr.t[k], *tr.q[k, :2], *tr.qdot[k, :2]]))
    demo_path.write_text("\n".join(lines) + "\n")

    out_joint = tmp_path / "joint.json"
    proc = run_cli("train", str(spec_path), "--demos", str(demo_path),
                   "--loss", "joint", "--iterations", "3", "--out", str(out_joint))
    assert proc.returncode == 0
    assert out_joint.exists()

    out_base = tmp_path / "base.json"
    proc = run_cli("train", str(spec_path), "--demos", str(demo_path),
                   "--loss", "independent", "--iterations", "3",
                   "--out", str(out_base))
    assert proc.returncode == 0
    history = (tmp_path / "base.json.history.csv").read_text().splitlines()
    assert history[0] == "iteration,loss"
    assert len(history) == 3  # subtask-space loss before and after
