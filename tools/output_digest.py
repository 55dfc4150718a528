"""Print one SHA-256 over treemotion's deterministic outputs.

Usage::

    python tools/output_digest.py <src-dir>

``<src-dir>`` is the ``src`` directory of the checkout to digest (for
example ``src`` here, or ``../parent/src`` of a ``git worktree`` of the
parent commit). Two checkouts whose library and CLI outputs are
bit-identical print the same digest. The digest covers:

- parameter registries and initial values of every tree below;
- ``loss_and_gradient`` (subtask and joint loss) on
  ``conflicting_demo_fixture`` at fixture seeds 1 and 9;
- the training trio at those seeds (``train`` under both losses and
  ``train_independent_baseline``, ``alpha=None``, 2 iterations):
  weights, histories and status;
- ``evaluate_policy``, ``flat_solve`` and ``policy_vjp`` on 40
  ``random_tree`` seeds;
- ``gradcheck_cases(8)``: ``loss_and_gradient``, ``gradcheck_report``
  and a 2-iteration independent baseline;
- 10 RK4 rollouts of the three-link arm, 4 rollouts of the learned
  tree, and ``descent_rate`` at the learned rollouts' starts;
- CLI ``eval``, ``rollout`` and ``train`` (``--loss`` subtask, joint and
  independent): exit codes, standard output and every file written;
- the regularized route on the 40 ``random_tree`` seeds:
  ``evaluate_policy`` and ``flat_solve`` with regularization 0.1, and
  ``pipeline_vjp`` on a ``run_pipeline(..., 0.1)`` cache;
- ``policy_param_jacobian`` on the 40 ``random_tree`` seeds: the one
  caller that runs several reverse passes on one ``run_pipeline`` cache;
- minibatch training at fixture seed 1: ``train`` (subtask loss) and
  ``train_independent_baseline`` with ``alpha=None``, 3 iterations,
  ``minibatch=31``, ``momentum=0.5`` and ``seed=4``;
- the self-checks: ``check_tree`` reports on the 40 ``random_tree``
  seeds and on the three-link arm (their finite differences run
  ``DiffeoChain.value``, and with it ``CouplingLayer.forward`` and
  ``RFFNet.value``), the exit code and output of CLI ``check`` on
  ``demos/arm_fixture.json``, and ``potential_gradient_fd`` on the arm
  at the 10 ``stability_seed_states``;
- the learned kernels: the forward tapes and the weight rows of the two
  chains and the two Cholesky metric nets of ``conflicting_demo_fixture``
  at fixture seeds 1 and 9, for one input and for stacks of 1, 2 and 7,
  through ``value_vjp``, ``pullback_vjp``, ``param_vjp`` and their
  ``stacked_*`` forms, and a latent goal's one tape reversed against
  stacked cotangents;
- the failure routes: the terms ``sample_losses`` yields (subtask and
  joint loss) and the error it raises on 12 seeded samples with one bad
  state at sample 0, 4 or 8 (a non-finite leaf output, a singular root
  metric, a distance map outside its domain), the error of the first
  failing sample where a later one fails at an earlier stage, and
  ``train`` aborting when its final loss fails;
- the stacked losses: the terms ``sample_losses`` yields (subtask and
  joint loss) on the 40 ``random_tree`` seeds, 9 seeded samples each
  (a chunk of 8, then one of 1), which runs every component kind's
  stacked kernels on the loss-only route;
- the root systems: the root ``(p, M)``, ``pi`` and Cholesky factor of
  ``run_pipeline`` and, row by row, of ``run_stacked`` (its factor as
  ``solve_root`` makes it from the row), on the three-link arm at the 10
  ``stability_seed_states`` and at a state with the barrier inert and
  one with it active, and on the 40 ``random_tree`` seeds, 5 seeded
  states each. Root entries go in as bytes, so a ``-0.0`` that becomes
  ``0.0`` changes the digest.

A library error (``TreeMotionError``) an operation raises is digested as
its type and message, so a checkout that starts or stops raising
changes the digest; any other exception stops the script. Per-section
digests go to standard error, to show where two checkouts differ. One
run takes about 20 s on two cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ARM_SPEC = ROOT / "demos" / "arm_fixture.json"
CLI_BOOT = "import sys; from treemotion.cli import main; sys.exit(main())"

# A learnable tree for CLI training: a latent chain leaf and a damper.
TRAIN_SPEC = {
    "nodes": [{"id": 0, "dim": 2}, {"id": 1, "dim": 2},
              {"id": 2, "dim": 2}, {"id": 3, "dim": 2}],
    "edges": [
        {"parent": 0, "child": 1, "map": {"kind": "identity"}},
        {"parent": 1, "child": 2,
         "map": {"kind": "diffeo_chain", "layers": 2, "features_D": 6,
                 "length_scale": 2.0, "seed": 3}},
        {"parent": 0, "child": 3, "map": {"kind": "identity"}},
    ],
    "leaves": [
        {"node": 2, "policy": {
            "kind": "natural_gradient",
            "potential": {"kind": "latent_quadratic", "goal": [0.5, -0.2]},
            "metric": {"kind": "cholesky_net", "hidden": [6], "eps": 1e-3,
                       "seed": 5},
            "learnable": True}},
        {"node": 3, "policy": {"kind": "damper", "gain": 0.5}},
    ],
}


def _encode(obj) -> bytes:
    """Canonical bytes of nested lists, dicts, arrays and scalars."""
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return b"A" + repr((arr.dtype.str, arr.shape)).encode() + arr.tobytes()
    if isinstance(obj, (list, tuple)):
        return b"L%d[" % len(obj) + b",".join(_encode(x) for x in obj) + b"]"
    if isinstance(obj, dict):
        return b"D{" + b",".join(_encode(k) + b":" + _encode(v)
                                 for k, v in obj.items()) + b"}"
    if isinstance(obj, bytes):
        return b"B" + obj
    if isinstance(obj, (float, np.floating)):
        return b"F" + np.float64(obj).tobytes()
    return b"S" + repr(obj).encode()


class Digest:
    def __init__(self):
        self.total = hashlib.sha256()
        self.section = None

    def start(self, name):
        self.finish()
        self.section = (name, hashlib.sha256())

    def add(self, label, obj):
        data = _encode(label) + _encode(obj)
        self.total.update(data)
        self.section[1].update(data)

    def finish(self):
        if self.section is not None:
            name, h = self.section
            print(f"{name}: {h.hexdigest()}", file=sys.stderr)
            self.section = None


def _attempt(fn):
    """``fn()``, or the type and message of the library error it raised."""
    from treemotion.errors import TreeMotionError

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn()
    except TreeMotionError as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _trained(result):
    if isinstance(result, str):
        return result
    if hasattr(result, "history"):
        return [result.params.values, result.history, result.status]
    return result.values


def library_outputs(tm, dig):
    from treemotion.fixtures import gradcheck_cases
    from treemotion.gradients import policy_vjp
    from treemotion.tree import flat_solve
    from treemotion.verify import gradcheck_report

    dig.start("conflicting fixture")
    opts = tm.TrainOptions(alpha=None, iterations=2, seed=0)
    learned = None
    for seed in (1, 9):
        tree, params, demos, lam, _ = tm.conflicting_demo_fixture(seed=seed)
        if learned is None:
            learned = (tree, params, demos)
        dig.add(("registry", seed), [params.registry, params.values])
        for loss in (tm.LossSpec("subtask_space", lam), tm.LossSpec("joint_space")):
            dig.add(("loss_and_gradient", seed, loss.kind),
                    list(tm.loss_and_gradient(tree, params, demos, loss)))
            dig.add(("train", seed, loss.kind),
                    _trained(_attempt(lambda: tm.train(tree, params, demos, loss, opts))))
        dig.add(("baseline", seed), _trained(_attempt(
            lambda: tm.train_independent_baseline(tree, params, demos, opts))))

    dig.start("random trees")
    for seed, tree, params, q, g in _random_tree_cases():
        dig.add(("random_tree", seed), [
            params.registry, params.values,
            _attempt(lambda: tm.evaluate_policy(tree, q, params)),
            _attempt(lambda: flat_solve(tree, q, params)),
            _attempt(lambda: policy_vjp(tree, q, params, g)),
        ])

    dig.start("gradcheck cases")
    for k, (tree, params, demos, loss) in enumerate(gradcheck_cases(8)):
        dig.add(("gradcheck_case", k), [
            params.registry, params.values,
            list(tm.loss_and_gradient(tree, params, demos, loss)),
            json.dumps(gradcheck_report(tree, params, demos, loss), sort_keys=True),
            _trained(_attempt(lambda: tm.train_independent_baseline(
                tree, params, demos, opts))),
        ])

    dig.start("rollouts")
    tree, params, _ = tm.three_link_stability_fixture()
    for k, q0 in enumerate(tm.stability_seed_states(10, seed=0)):
        res = tm.integrate(tree, params, q0, dt=1e-2, max_steps=5_000, grad_tol=1e-6)
        rep = tm.lyapunov_check(res)
        dig.add(("arm_rollout", k), [
            res.trajectory.t, res.trajectory.q, res.trajectory.qdot,
            res.potential_trace, res.terminal_grad_norm, res.status, res.message,
            rep.max_increase, rep.slack, rep.n_violations])
    tree, params, demos = learned
    for k, tr in enumerate(demos.trajectories):
        res = tm.integrate(tree, params, tr.q[0], dt=1e-3, max_steps=100)
        dig.add(("learned_rollout", k), [
            res.trajectory.q, res.trajectory.qdot, res.potential_trace,
            res.terminal_grad_norm, res.status,
            tm.descent_rate(tree, params, tr.q[0])])


def _random_tree_cases():
    from treemotion.fixtures import random_tree

    for seed in range(40):
        tree, params = random_tree(seed)
        rng = np.random.default_rng(1000 + seed)
        q = rng.uniform(-0.6, 0.6, tree.root_dim)
        g = rng.normal(0.0, 1.0, tree.root_dim)
        yield seed, tree, params, q, g


def regularized_outputs(dig, reg=0.1):
    from treemotion.gradients import pipeline_vjp, run_pipeline
    from treemotion.tree import evaluate_policy, flat_solve

    def vjp(tree, q, params, g):
        grad = params.zeros_like()
        pipeline_vjp(tree, run_pipeline(tree, q, params, reg), params, g, grad)
        return grad

    dig.start("regularized")
    for seed, tree, params, q, g in _random_tree_cases():
        dig.add(("regularized", seed), [
            _attempt(lambda: evaluate_policy(tree, q, params, reg)),
            _attempt(lambda: flat_solve(tree, q, params, reg)),
            _attempt(lambda: vjp(tree, q, params, g)),
        ])


def policy_jacobian_outputs(dig):
    from treemotion.gradients import policy_param_jacobian

    dig.start("policy jacobian")
    for seed, tree, params, q, _ in _random_tree_cases():
        dig.add(("policy_param_jacobian", seed),
                _attempt(lambda: policy_param_jacobian(tree, q, params).jacobian))


def minibatch_outputs(tm, dig):
    dig.start("minibatch")
    tree, params, demos, lam, _ = tm.conflicting_demo_fixture(seed=1)
    opts = tm.TrainOptions(alpha=None, iterations=3, minibatch=31, momentum=0.5, seed=4)
    dig.add(("train", "subtask_space"), _trained(_attempt(
        lambda: tm.train(tree, params, demos, tm.LossSpec("subtask_space", lam), opts))))
    dig.add(("baseline",), _trained(_attempt(
        lambda: tm.train_independent_baseline(tree, params, demos, opts))))


def cli_outputs(src_dir, dig):
    import treemotion as tm

    env = dict(os.environ, PYTHONPATH=str(src_dir))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spec = tmp / "tree.json"
        spec.write_text(json.dumps(TRAIN_SPEC))
        demos = tm.synthesize_conflicting_demos(
            np.array([1.2, 0.5]), np.array([-0.2, 1.5]),
            [(1.0, 3.0, 0.0, 0.5), (-1.0, 4.0, 1.0, -0.5)],
            duration=0.6, subsample=20)
        tr = demos.trajectories[0]
        lines = ["t,q0,q1,qd0,qd1"] + [
            ",".join(repr(float(v)) for v in [tr.t[k], *tr.q[k, :2], *tr.qdot[k, :2]])
            for k in range(len(tr))]
        demo = tmp / "demo.csv"
        demo.write_text("\n".join(lines) + "\n")

        q = "0.35,0.55,0.35"
        runs = [
            ("eval", ["eval", str(ARM_SPEC), "--q=" + q]),
            ("rollout", ["rollout", str(ARM_SPEC), "--q0=" + q, "--max-steps", "300",
                         "--out", "rollout.csv", "--summary", "summary.json"]),
        ]
        for loss in ("subtask", "joint", "independent"):
            runs.append((f"train-{loss}", [
                "train", "../tree.json", "--demos", "../demo.csv", "--loss", loss,
                "--iterations", "3", "--out", f"{loss}.json"]))

        dig.start("cli")
        for label, argv in runs:
            work = tmp / label
            work.mkdir()
            proc = subprocess.run([sys.executable, "-c", CLI_BOOT, *argv], cwd=work,
                                  env=env, capture_output=True)
            files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
            dig.add(("cli", label), [proc.returncode, proc.stdout, proc.stderr, files])


def check_outputs(tm, src_dir, dig):
    from treemotion.verify import check_tree, potential_gradient_fd

    dig.start("self-checks")
    for seed, tree, params, _, _ in _random_tree_cases():
        dig.add(("check_tree", seed), _attempt(lambda: check_tree(tree, params)))
    tree, params, _ = tm.three_link_stability_fixture()
    dig.add(("check_tree", "arm"), _attempt(lambda: check_tree(tree, params)))
    proc = subprocess.run([sys.executable, "-c", CLI_BOOT, "check", str(ARM_SPEC)],
                          env=dict(os.environ, PYTHONPATH=str(src_dir)),
                          capture_output=True)
    dig.add(("cli", "check"), [proc.returncode, proc.stdout, proc.stderr])
    for k, q in enumerate(tm.stability_seed_states(10, seed=0)):
        dig.add(("potential_gradient_fd", k),
                _attempt(lambda: potential_gradient_fd(tree, q, params)))


def _added(params, rows):
    """One input's weight rows added, in order, into a zero gradient."""
    grad = params.zeros_like()
    for where, R in rows:
        grad[where] += R
    return grad


def kernel_outputs(tm, dig):
    from treemotion.policies import CholeskyMetricNet

    dig.start("kernels")
    for seed in (1, 9):
        tree, params, *_ = tm.conflicting_demo_fixture(seed=seed)
        rng = np.random.default_rng(seed)
        chains = [e.map for e in tree.edges if isinstance(e.map, tm.DiffeoChain)]
        nets = [row.policy.metric for row in tree.leaf_table.values()
                if isinstance(row.policy.metric, CholeskyMetricNet)]
        for c, chain in enumerate(chains):
            _, goal_tape = chain.value_tape(rng.uniform(-1.0, 1.0, chain.in_dim), params)
            for n in (None, 1, 2, 7):
                lead = () if n is None else (n,)
                X = rng.uniform(-1.0, 1.0, lead + (chain.in_dim,))
                cot = rng.normal(0.0, 1.0, X.shape)
                V, C = rng.normal(0.0, 1.0, (2, *X.shape, 2))
                if n is None:
                    y, J, tape = chain.value_jacobian_tape(X, params)
                    rows = [_added(params, chain.value_vjp(X, params, cot, tape)),
                            _added(params, chain.pullback_vjp(X, params, cot, V, C, tape)),
                            _added(params, chain.value_vjp(X, params, cot, goal_tape))]
                else:
                    y, J, tape = chain.stacked_value_jacobian_tape(X, params)
                    rows = [chain.stacked_value_vjp(X, params, cot, tape),
                            chain.stacked_pullback_vjp(X, params, cot, V, C, tape),
                            chain.stacked_value_vjp(X, params, cot, goal_tape)]
                dig.add(("chain", seed, c, n), [y, J, tape, rows])
        for c, net in enumerate(nets):
            for n in (None, 1, 2, 7):
                lead = () if n is None else (n,)
                X = rng.uniform(-1.0, 1.0, lead + (net.in_dim,))
                S = rng.normal(0.0, 1.0, lead + (net.dim, net.dim))
                if n is None:
                    M, record = net.value_tape(X, params)
                    ch, one_rows = net.param_vjp(X, params, S, record)
                    rows = [ch, _added(params, one_rows),
                            net.param_vjp(X, params, S, record)[0]]
                else:
                    M, record = net.stacked_value_tape(X, params)
                    rows = net.stacked_param_vjp(X, params, S, record)
                dig.add(("metric", seed, c, n), [M, record, rows])


def _failure_trees(tm):
    """Three small trees, each with a state where one stage fails."""
    from treemotion.policies import (
        handcrafted_attractor,
        handcrafted_barrier,
        handcrafted_damper,
    )

    Edge, Tree = tm.Edge, tm.TransformTree
    attractor = Tree([2, 2, 2], [Edge(0, 1, tm.IdentityMap(2)), Edge(0, 2, tm.IdentityMap(2))],
                     {1: handcrafted_attractor([0.5, -0.5]), 2: handcrafted_damper(0.5, 2)})
    # No damper: the root metric is singular where the arm is straight.
    arm = Tree([2, 2], [Edge(0, 1, tm.PlanarArmFK([1.0, 1.0]))],
               {1: handcrafted_attractor([1.0, 1.0])})
    obstacle = Tree([2, 1, 2], [Edge(0, 1, tm.DistanceToPoint([0.3, 0.2])),
                                Edge(0, 2, tm.IdentityMap(2))],
                    {1: handcrafted_barrier(0.5), 2: handcrafted_damper(0.5, 2)})
    return [("non-finite leaf", attractor, [np.inf, 0.0]),
            ("singular root", arm, [0.3, 0.0]),
            ("domain", obstacle, [0.3, 0.2])]


def _consumed(terms):
    """The items of ``terms`` up to the library error it raises, then that
    error's type and message (if it raises one)."""
    got = []

    def run():
        for v in terms:
            got.append(v)

    error = _attempt(run)
    return got if error is None else got + [error]


def failure_outputs(tm, dig):
    from treemotion.losses import sample_losses

    dig.start("failure routes")
    trees = _failure_trees(tm)
    for name, tree, bad in trees:
        for k in (0, 4, 8):
            rng = np.random.default_rng(k)
            qs = list(rng.uniform(0.6, 1.0, (12, 2)))
            qs[k] = np.array(bad)
            samples = list(zip(qs, rng.uniform(-1.0, 1.0, (12, 2))))
            for loss in (tm.LossSpec("joint_space"),
                         tm.LossSpec("subtask_space", np.ones(len(tree.leaves)))):
                dig.add(("sample_losses", name, k, loss.kind),
                        _consumed(sample_losses(loss, tree, None, samples)))
    # Sample 5 fails in the forward stage, sample 3 only at the leaves.
    obstacle = trees[2][1]
    qs = [np.array([1.0, 1.0])] * 8
    qs[3] = np.array([np.nan, 1.0])
    qs[5] = np.array([0.3, 0.2])
    dig.add(("first failing sample",), _attempt(lambda: tm.loss_value(
        tm.LossSpec("joint_space"), obstacle, None, [(q, np.zeros(2)) for q in qs])))
    # One step lands the learnable velocity where the leaf force overflows.
    leaf = tm.RawVMLeaf(np.zeros(2), tm.ConstantMetric(4.0 * np.eye(2)), learnable=True)
    tree = tm.TransformTree([2, 2], [tm.Edge(0, 1, tm.IdentityMap(2))], {1: leaf})
    dig.add(("train aborts on its final loss",), _trained(_attempt(lambda: tm.train(
        tree, tree.init_params(), [(np.zeros(2), np.ones(2))], tm.LossSpec("joint_space"),
        tm.TrainOptions(alpha=0.5e308, iterations=1)))))


def stacked_loss_outputs(tm, dig):
    from treemotion.losses import sample_losses

    dig.start("stacked losses")
    for seed, tree, params, _, _ in _random_tree_cases():
        rng = np.random.default_rng(2000 + seed)
        samples = list(zip(rng.uniform(-0.6, 0.6, (9, tree.root_dim)),
                           rng.uniform(-1.0, 1.0, (9, tree.root_dim))))
        lam = rng.uniform(0.0, 2.0, len(tree.leaves))
        for loss in (tm.LossSpec("joint_space"),
                     tm.LossSpec("subtask_space", lam)):
            dig.add(("sample_losses", seed, loss.kind),
                    _consumed(sample_losses(loss, tree, params, samples)))


def _root_system(tree, q, params):
    from treemotion.tree import run_pipeline

    cache = run_pipeline(tree, q, params)
    root = cache.states[0]
    return [root.pulled_force, root.pulled_metric, cache.pi, cache.factor]


def _stacked_root_systems(tree, Q, params):
    from treemotion.tree import run_stacked, solve_root

    states, pi = run_stacked(tree, Q, params)
    root = states[0]
    return [[p, M, u, solve_root(M, p)[1]]
            for p, M, u in zip(root.pulled_force, root.pulled_metric, pi)]


def root_system_outputs(tm, dig):
    dig.start("root systems")
    tree, params, _ = tm.three_link_stability_fixture()
    # The base pose leaves the barrier inert (its force is -0.0); the
    # second state puts the end effector 0.15 from the obstacle.
    Q = np.array([*tm.stability_seed_states(10, seed=0),
                  [0.35, 0.55, 0.35], [-0.4, 1.3, 0.35]])
    dig.add(("arm", "run_pipeline"), [_attempt(lambda: _root_system(tree, q, params))
                                      for q in Q])
    dig.add(("arm", "run_stacked"), _attempt(lambda: _stacked_root_systems(tree, Q, params)))
    for seed, tree, params, _, _ in _random_tree_cases():
        Q = np.random.default_rng(3000 + seed).uniform(-0.6, 0.6, (5, tree.root_dim))
        dig.add(("random_tree", seed, "run_pipeline"),
                [_attempt(lambda: _root_system(tree, q, params)) for q in Q])
        dig.add(("random_tree", seed, "run_stacked"),
                _attempt(lambda: _stacked_root_systems(tree, Q, params)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not (Path(argv[0]) / "treemotion").is_dir():
        print("usage: python tools/output_digest.py <src-dir containing treemotion/>",
              file=sys.stderr)
        return 1
    src_dir = Path(argv[0]).resolve()
    sys.path.insert(0, str(src_dir))
    import treemotion as tm

    if Path(tm.__file__).resolve().parent != src_dir / "treemotion":
        print(f"imported treemotion from {tm.__file__}, not {src_dir}", file=sys.stderr)
        return 1
    dig = Digest()
    library_outputs(tm, dig)
    cli_outputs(src_dir, dig)
    regularized_outputs(dig)
    policy_jacobian_outputs(dig)
    minibatch_outputs(tm, dig)
    check_outputs(tm, src_dir, dig)
    kernel_outputs(tm, dig)
    failure_outputs(tm, dig)
    stacked_loss_outputs(tm, dig)
    root_system_outputs(tm, dig)
    dig.finish()
    print(dig.total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
