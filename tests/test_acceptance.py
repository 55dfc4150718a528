"""Acceptance criteria, one test per criterion.

Each test measures its quantities, prints one ``PASS``/``FAIL`` line
with the observed margin (visible with ``pytest -s``), and then asserts.
The two training-based criteria share one session-scoped set of runs
(same fixture, same budget, same seed).
"""

import time

import numpy as np
import pytest

from treemotion.fixtures import (
    conflicting_demo_fixture,
    gradcheck_cases,
    random_tree,
    stability_seed_states,
    three_link_stability_fixture,
)
from treemotion.learning import (
    TrainOptions,
    loss_and_gradient,
    train,
    train_independent_baseline,
)
from treemotion.losses import LossSpec, joint_loss, loss_value, subtask_loss
from treemotion.maps import DiffeoChain, IdentityMap, RFFNet
from treemotion.params import ParamRegistryBuilder
from treemotion.policies import (
    CholeskyMetricNet,
    ConstantMetric,
    RawVMLeaf,
    handcrafted_attractor,
    handcrafted_damper,
)
from treemotion.rollout import descent_rate, integrate, lyapunov_check
from treemotion.tree import (
    Edge,
    TransformTree,
    backward_pass,
    evaluate_policy,
    flat_solve,
    forward_pass,
    leaf_evaluate,
)
from treemotion.verify import potential_gradient_fd

from conftest import fd_grad_wrt_params


def report(n, ok, text):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {n}: {text}")
    assert ok, f"criterion {n}: {text}"


# ---------------------------------------------------------------------------
# 1. tree/flat equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_tree_flat_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for seed in range(100):
        tree, params = random_tree(seed, max_depth=4, max_dim=6)
        q = rng.uniform(-1.0, 1.0, tree.root_dim)
        dev = float(np.abs(evaluate_policy(tree, q, params)
                           - flat_solve(tree, q, params)).max())
        worst = max(worst, dev)
    elapsed = time.time() - t0
    report(1, worst <= 1e-10 and elapsed < 10.0,
           f"tree-vs-flat max deviation {worst:.2e} (tol 1e-10) over 100 trees "
           f"({elapsed:.2f} s, budget 10 s)")


# ---------------------------------------------------------------------------
# 2. closure
# ---------------------------------------------------------------------------


def test_criterion_2_closure():
    t0 = time.time()
    rng = np.random.default_rng(2002)
    worst = 0.0
    for seed in range(20):
        tree, params = random_tree(seed + 500, natural_gradient_only=True)
        q = rng.uniform(-1.0, 1.0, tree.root_dim)
        states = forward_pass(tree, q, params)
        leaf_evaluate(tree, states, params)
        backward_pass(tree, states)
        fd = potential_gradient_fd(tree, q, params)
        scale = max(1.0, float(np.abs(fd).max()))
        worst = max(worst, float(np.abs(states[0].pulled_force + fd).max()) / scale)
    elapsed = time.time() - t0
    report(2, worst < 1e-5 and elapsed < 10.0,
           f"root force vs -FD(sum of pulled-back potentials): max rel "
           f"{worst:.2e} (tol 1e-5) over 20 trees ({elapsed:.2f} s, budget 10 s)")


# ---------------------------------------------------------------------------
# 3. stability
# ---------------------------------------------------------------------------


def test_criterion_3_stability_rollouts():
    t0 = time.time()
    tree, params, _ = three_link_stability_fixture()
    all_converged = True
    max_grad = 0.0
    max_increase = 0.0
    worst_rate = -np.inf
    steps = []
    for q0 in stability_seed_states(10, seed=0):
        res = integrate(tree, params, q0, dt=1e-3, max_steps=1_000_000,
                        grad_tol=1e-6)
        all_converged &= res.status == "converged"
        max_grad = max(max_grad, res.terminal_grad_norm)
        rep = lyapunov_check(res, slack_coeff=1.0)
        max_increase = max(max_increase, rep.max_increase)
        for q in res.trajectory.q[:: max(1, len(res.trajectory) // 40)]:
            worst_rate = max(worst_rate, descent_rate(tree, params, q))
        steps.append(len(res.trajectory) - 1)
    elapsed = time.time() - t0
    ok = (all_converged and max_grad <= 1e-6 and max_increase <= 1e-6
          and worst_rate <= 1e-10 and elapsed < 120.0)
    report(3, ok,
           f"10 rollouts converged={all_converged} (max {max(steps)} steps, "
           f"terminal grad <= {max_grad:.2e}), max potential increase "
           f"{max_increase:.2e} (tol 1e-6), max descent rate {worst_rate:.2e} "
           f"(tol 1e-10) ({elapsed:.1f} s, budget 120 s)")


# ---------------------------------------------------------------------------
# 4. diffeomorphism correctness
# ---------------------------------------------------------------------------


def test_criterion_4_diffeomorphism_and_features():
    rng = np.random.default_rng(4004)
    worst_inv = 0.0
    worst_jac = 0.0
    for trial in range(100):
        dim = 2 + trial % 3
        chain = DiffeoChain(dim, n_layers=3, n_features=6, length_scale=2.0,
                            seed=trial)
        builder = ParamRegistryBuilder()
        chain.param_slice = builder.register(
            "chain", rng.normal(0.0, 0.4, chain.n_params))
        params = builder.build()
        x = rng.uniform(-1.5, 1.5, dim)
        y, J = chain.value_and_jacobian(x, params)
        worst_inv = max(worst_inv,
                        float(np.abs(chain.inverse(y, params) - x).max()))
        h = 1e-6
        J_fd = np.zeros_like(J)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            J_fd[:, i] = (chain.value(x + e, params)
                          - chain.value(x - e, params)) / (2 * h)
        worst_jac = max(worst_jac, float(np.abs(J - J_fd).max())
                        / max(1.0, float(np.abs(J_fd).max())))

    errs = []
    for net_seed in range(4):
        pair_rng = np.random.default_rng(11)
        net = RFFNet(2, 1, 64, length_scale=1.0, seed=net_seed)
        for _ in range(100):
            x, y = pair_rng.uniform(-1.0, 1.0, (2, 2))
            approx = float(net.features(x) @ net.features(y))
            exact = np.exp(-np.sum((x - y) ** 2) / 2.0)
            errs.append(abs(approx - exact))
    kernel_err = float(np.mean(errs))
    ok = worst_inv <= 1e-8 and worst_jac < 1e-5 and kernel_err < 0.1
    report(4, ok,
           f"inverse-composition max {worst_inv:.2e} (tol 1e-8), Jacobian-vs-FD "
           f"max rel {worst_jac:.2e} (tol 1e-5) over 100 (x, theta); kernel MC "
           f"mean abs error {kernel_err:.3f} (tol 0.1) at D=64")


# ---------------------------------------------------------------------------
# 5. SPD guarantee
# ---------------------------------------------------------------------------


def test_criterion_5_spd_guarantee():
    rng = np.random.default_rng(5005)
    worst = np.inf
    count = 0
    for draw in range(10):
        net = CholeskyMetricNet(2 + draw % 3, hidden=(8, 8), eps=1e-4, seed=draw)
        builder = ParamRegistryBuilder()
        net.param_slice = builder.register("net", net.init_values())
        params = builder.build()
        params.values[:] = rng.normal(0.0, 1.0, params.size)
        for _ in range(100):
            w = rng.uniform(-3.0, 3.0, net.in_dim)
            worst = min(worst, float(np.linalg.eigvalsh(net.value(w, params)).min()))
            count += 1
    report(5, count == 1000 and worst > 0.0,
           f"min eigenvalue over {count} metric evaluations: {worst:.3e} > 0")


# ---------------------------------------------------------------------------
# 6. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_6_gradient_correctness():
    t0 = time.time()
    cases = gradcheck_cases(20)
    worst_rel = 0.0
    worst_abs_small = 0.0
    for tree, params, demos, loss in cases:
        g = loss_and_gradient(tree, params, demos, loss)[1]
        fd = fd_grad_wrt_params(lambda p: loss_value(loss, tree, p, demos),
                                params, h=1e-5)
        small = np.abs(fd) < 1e-3
        if (~small).any():
            worst_rel = max(worst_rel, float(
                (np.abs(g - fd)[~small] / np.abs(fd)[~small]).max()))
        if small.any():
            worst_abs_small = max(worst_abs_small,
                                  float(np.abs(g - fd)[small].max()))
    elapsed = time.time() - t0
    ok = (len(cases) == 20 and worst_rel < 1e-4 and worst_abs_small < 1e-7
          and elapsed < 60.0)
    report(6, ok,
           f"20 configurations: max relative error {worst_rel:.2e} (tol 1e-4), "
           f"max absolute where |grad| < 1e-3: {worst_abs_small:.2e} (tol 1e-7) "
           f"({elapsed:.1f} s, budget 60 s)")


# ---------------------------------------------------------------------------
# 7 & 8. learning claims on the conflicting-demonstration fixture
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def trained_conflicting_fixture():
    tree, params, demos, lam, info = conflicting_demo_fixture()
    opts = TrainOptions(iterations=120, seed=0)
    t0 = time.time()
    res_subtask = train(tree, params, demos, LossSpec("subtask_space", lam), opts)
    res_joint = train(tree, params, demos, LossSpec("joint_space"), opts)
    baseline_params = train_independent_baseline(tree, params, demos, opts)
    elapsed = time.time() - t0
    return {
        "tree": tree,
        "params0": params,
        "demos": demos,
        "lam": lam,
        "subtask": res_subtask,
        "joint": res_joint,
        "baseline": baseline_params,
        "elapsed": elapsed,
    }


def test_criterion_7_subtask_beats_joint_training(trained_conflicting_fixture):
    fx = trained_conflicting_fixture
    tree, demos, lam = fx["tree"], fx["demos"], fx["lam"]
    ee_subtask = subtask_loss(tree, fx["subtask"].params, demos, lam)
    ee_joint = subtask_loss(tree, fx["joint"].params, demos, lam)
    joint_residual = joint_loss(tree, fx["joint"].params, demos)
    reduction = fx["subtask"].history[0] / max(fx["subtask"].history[-1], 1e-300)
    ok = (fx["subtask"].status == "completed"
          and fx["joint"].status == "completed"
          and ee_subtask * 2.0 <= ee_joint
          and joint_residual > 1e-6
          and reduction >= 10.0
          and fx["elapsed"] < 300.0)
    report(7, ok,
           f"subtask-space error {ee_subtask:.4f} vs joint-trained {ee_joint:.3f} "
           f"({ee_joint / max(ee_subtask, 1e-300):.0f}x margin, required 2x); "
           f"joint-trained loss {joint_residual:.1f} != 0; subtask training "
           f"reduced its loss {reduction:.0f}x "
           f"({fx['elapsed']:.0f} s for all three runs, budget 300 s)")


def test_criterion_8_end_to_end_beats_independent_baseline(
        trained_conflicting_fixture):
    fx = trained_conflicting_fixture
    tree, demos, lam = fx["tree"], fx["demos"], fx["lam"]
    ee_end_to_end = subtask_loss(tree, fx["subtask"].params, demos, lam)
    ee_baseline = subtask_loss(tree, fx["baseline"], demos, lam)
    report(8, ee_end_to_end <= ee_baseline,
           f"end-to-end subtask loss {ee_end_to_end:.4f} <= independent "
           f"baseline {ee_baseline:.3f} "
           f"({ee_baseline / max(ee_end_to_end, 1e-300):.0f}x)")


# ---------------------------------------------------------------------------
# 9. trivial algebraic cases
# ---------------------------------------------------------------------------


def test_criterion_9_trivial_algebra():
    rng = np.random.default_rng(9009)
    v = rng.uniform(-1.0, 1.0, 3)
    B = rng.normal(0.0, 1.0, (3, 3))
    leaf = RawVMLeaf(v, ConstantMetric(B @ B.T + 0.5 * np.eye(3)))
    tree = TransformTree([3, 3], [Edge(0, 1, IdentityMap(3))], {1: leaf})
    dev_single = float(np.abs(evaluate_policy(tree, rng.uniform(-1, 1, 3)) - v).max())

    v1 = rng.uniform(-1.0, 1.0, 2)
    v2 = rng.uniform(-1.0, 1.0, 2)
    tree2 = TransformTree(
        [2, 2, 2],
        [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
        {1: RawVMLeaf(v1, ConstantMetric(np.eye(2))),
         2: RawVMLeaf(v2, ConstantMetric(np.eye(2)))},
    )
    dev_mean = float(np.abs(evaluate_policy(tree2, np.zeros(2))
                            - 0.5 * (v1 + v2)).max())

    goal = rng.uniform(-0.5, 0.5, 2)
    tree3 = TransformTree(
        [2, 2, 2],
        [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
        {1: handcrafted_attractor(goal, gain=3.0),
         2: handcrafted_damper(0.5, 2)},
    )
    dev_eq = float(np.abs(evaluate_policy(tree3, goal)).max())
    ok = dev_single <= 1e-10 and dev_mean <= 1e-10 and dev_eq <= 1e-10
    report(9, ok,
           f"single-leaf {dev_single:.1e}, two-leaf mean {dev_mean:.1e}, "
           f"equilibrium {dev_eq:.1e} (all <= 1e-10)")
