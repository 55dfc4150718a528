"""Reusable test and demo fixtures.

Three families: seeded random trees (to sweep the tree-vs-flat oracle
and the closure property over many shapes), a three-link arm with
attractor/damper/barrier leaves (the stability testbed), and a
conflicting-demonstration setup on the same arm where four
demonstrations share one end-effector motion but resolve its redundancy
differently (which is what separates subtask-space training from plain
joint-space regression).
"""

from __future__ import annotations

import math

import numpy as np

from .learning import suggest_length_scale
from .losses import DemoSet, Trajectory
from .maps import (
    DiffeoChain,
    DistanceToPoint,
    IdentityMap,
    LinearMap,
    PlanarArmFK,
)
from .policies import (
    CholeskyMetricNet,
    ConstantMetric,
    LatentQuadraticPotential,
    NaturalGradientLeaf,
    QuadraticPotential,
    RawVMLeaf,
    ZeroPotential,
    handcrafted_attractor,
    handcrafted_barrier,
    handcrafted_damper,
)
from .tree import Edge, TransformTree, run_pipeline


# ---------------------------------------------------------------------------
# Random trees
# ---------------------------------------------------------------------------


def _random_spd(rng, n, scale=1.0):
    B = rng.normal(0.0, 1.0, size=(n, n))
    M = B @ B.T / n + 0.3 * np.eye(n)
    return scale * M


def _random_metric(rng, n, allow_net):
    if allow_net and rng.random() < 0.4:
        return CholeskyMetricNet(n, hidden=(6,), eps=1e-3,
                                 seed=int(rng.integers(1 << 30)))
    return ConstantMetric(_random_spd(rng, n, scale=float(rng.uniform(0.5, 1.5))))


def _random_leaf(rng, dim, parent_chain, natural_gradient_only):
    metric = _random_metric(rng, dim, allow_net=True)
    if parent_chain is not None:
        goal = rng.uniform(-1.0, 1.0, size=dim)
        return NaturalGradientLeaf(
            dim, LatentQuadraticPotential(goal, parent_chain), metric
        )
    choices = ["quadratic", "zero"]
    if not natural_gradient_only:
        choices += ["raw", "raw_learnable"]
    kind = choices[int(rng.integers(len(choices)))]
    if kind == "quadratic":
        return NaturalGradientLeaf(
            dim,
            QuadraticPotential(rng.uniform(-1.0, 1.0, size=dim),
                               gain=float(rng.uniform(0.5, 2.0))),
            metric,
        )
    if kind == "zero":
        return NaturalGradientLeaf(dim, ZeroPotential(), metric)
    learnable = kind == "raw_learnable"
    return RawVMLeaf(rng.uniform(-1.0, 1.0, size=dim), metric, learnable=learnable)


def random_tree(seed, max_depth=4, max_dim=6, natural_gradient_only=False):
    """Seeded random transform tree plus its initial parameters.

    Shapes vary over depth 1..max_depth and node dimensions 1..max_dim,
    edge kinds mix identity/linear/kinematics/distance and learnable
    coupling chains, and every tree keeps a damping leaf at the root so
    the root metric stays positive definite.
    """
    rng = np.random.default_rng(seed)
    root_dim = int(rng.integers(1, max_dim + 1))
    node_dims = [root_dim]
    edges = []
    policies = {}

    def new_node(dim):
        node_dims.append(int(dim))
        return len(node_dims) - 1

    def grow(parent, parent_dim, depth):
        if depth >= max_depth or rng.random() < 0.35:
            return  # parent stays childless here; caller attaches a policy
        n_children = 1 + int(rng.random() < 0.35)
        for _ in range(n_children):
            kinds = ["identity", "linear"]
            if parent_dim >= 2:
                kinds += ["fk", "distance", "chain"]
            kind = kinds[int(rng.integers(len(kinds)))]
            if kind == "identity":
                child_dim = parent_dim
                m = IdentityMap(parent_dim)
            elif kind == "linear":
                child_dim = int(rng.integers(1, max_dim + 1))
                A = rng.uniform(-1.0, 1.0, size=(child_dim, parent_dim))
                norms = np.maximum(np.linalg.norm(A, axis=1, keepdims=True), 1e-6)
                m = LinearMap(A / norms)
            elif kind == "fk":
                child_dim = 2
                m = PlanarArmFK(rng.uniform(0.5, 1.5, size=parent_dim), "ee")
            elif kind == "distance":
                child_dim = 1
                direction = rng.normal(0.0, 1.0, size=parent_dim)
                direction /= np.linalg.norm(direction)
                m = DistanceToPoint(40.0 * direction)
            else:  # chain
                child_dim = parent_dim
                m = DiffeoChain(parent_dim, n_layers=int(rng.integers(2, 4)),
                                n_features=int(rng.integers(4, 9)),
                                length_scale=float(rng.uniform(2.0, 4.0)),
                                seed=int(rng.integers(1 << 30)),
                                init_scale=0.15)
            child = new_node(child_dim)
            edges.append(Edge(parent, child, m))
            if kind == "chain":
                # latent nodes stay leaves: learnable maps terminate there
                policies[child] = _random_leaf(rng, child_dim, m,
                                               natural_gradient_only)
            else:
                grow(child, child_dim, depth + 1)

    grow(0, root_dim, 0)

    # root damping leaf guarantees M_root > 0 whatever else happened
    damp = new_node(root_dim)
    edges.append(Edge(0, damp, IdentityMap(root_dim)))
    if natural_gradient_only:
        policies[damp] = NaturalGradientLeaf(
            root_dim, ZeroPotential(),
            ConstantMetric.scaled_identity(float(rng.uniform(0.3, 1.0)), root_dim),
        )
    else:
        policies[damp] = handcrafted_damper(float(rng.uniform(0.3, 1.0)), root_dim)

    # attach policies to remaining childless nodes
    children = {e.parent for e in edges}
    for node in range(len(node_dims)):
        if node not in children and node not in policies:
            policies[node] = _random_leaf(rng, node_dims[node], None,
                                          natural_gradient_only)

    tree = TransformTree(node_dims, edges, policies)
    return tree, tree.init_params()


# ---------------------------------------------------------------------------
# Three-link stability fixture
# ---------------------------------------------------------------------------


def three_link_stability_fixture():
    """Three-link planar arm with goal attraction, damping and an obstacle
    barrier on the end-effector distance field.

    The testbed is fixed: unit links; an end-effector attractor to
    (1.5, 0.8) with gain 4 and weight 1; a barrier on the distance to
    the obstacle at (1.75, 1.45) with margin 0.35, gain 1 and weight
    0.3; and a joint-space damper of 0.3. All leaves carry potentials,
    so rollouts expose the full Lyapunov trace. Returns
    ``(tree, params, info)``.
    """
    lengths = [1.0, 1.0, 1.0]
    goal = np.array([1.5, 0.8])
    obstacle = np.array([1.75, 1.45])
    margin = 0.35
    tree = TransformTree(
        [3, 2, 2, 1, 3],
        [
            Edge(0, 1, PlanarArmFK(lengths, "ee")),
            Edge(1, 2, IdentityMap(2)),
            Edge(1, 3, DistanceToPoint(obstacle)),
            Edge(0, 4, IdentityMap(3)),
        ],
        {
            2: handcrafted_attractor(goal, gain=4.0, weight=1.0),
            3: handcrafted_barrier(margin, gain=1.0, weight=0.3),
            4: handcrafted_damper(0.3, 3),
        },
    )
    info = {"lengths": lengths, "goal": goal, "obstacle": obstacle, "margin": margin}
    return tree, tree.init_params(), info


def stability_seed_states(n=10, seed=0):
    """Start configurations scattered around a bent pose facing the goal:
    the base pose (0.35, 0.55, 0.35) plus a uniform offset in
    [-0.45, 0.45] per joint."""
    rng = np.random.default_rng(seed)
    base = np.array([0.35, 0.55, 0.35])
    return [base + rng.uniform(-0.45, 0.45, size=3) for _ in range(n)]


# ---------------------------------------------------------------------------
# Conflicting demonstrations on the redundant arm
# ---------------------------------------------------------------------------


def _three_link_ik(x, q1_candidates):
    """Closed-form postures of the unit 3-link arm reaching ``x``: for
    each free base angle, the remaining two links form a standard 2-link
    problem with an elbow-up and an elbow-down branch."""
    l1 = l2 = l3 = 1.0
    solutions = []
    for q1 in q1_candidates:
        base = np.array([l1 * np.cos(q1), l1 * np.sin(q1)])
        delta = np.asarray(x, dtype=float) - base
        r2 = float(delta @ delta)
        c_elbow = (r2 - l2 * l2 - l3 * l3) / (2.0 * l2 * l3)
        if abs(c_elbow) > 0.999:
            continue
        for sign in (+1.0, -1.0):
            q3 = sign * np.arccos(c_elbow)
            psi = np.arctan2(delta[1], delta[0])
            q2 = psi - np.arctan2(l3 * np.sin(q3), l2 + l3 * np.cos(q3)) - q1
            solutions.append(np.array([q1, q2, q3]))
    return solutions


def _null_direction(J, previous=None):
    # np.cross(J[0], J[1]) and np.linalg.norm: their very expressions.
    (a0, a1, a2), (b0, b1, b2) = J.tolist()
    n = np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    norm = math.sqrt(n.dot(n))
    if norm < 1e-12:
        return np.zeros(3) if previous is None else previous
    n = n / norm
    if previous is not None and float(n @ previous) < 0.0:
        n = -n
    return n


def synthesize_conflicting_demos(goal, start_ee, null_gains, duration=3.0,
                                 subsample=10):
    """Demonstrations that share one end-effector velocity field but move
    the arm through different self-motions.

    Every demo starts at a different closed-form posture of the unit
    3-link arm for the same end-effector point and tracks
    ``xdot = goal - x`` exactly (Euler steps of 0.01, every
    ``subsample``-th one kept), while ``null_gains[i]`` drives a per-demo
    motion in the Jacobian null space. Joint velocities therefore
    disagree strongly across demos even though every sample satisfies
    the same task-space velocity field.
    """
    dt = 0.01
    fk = PlanarArmFK([1.0, 1.0, 1.0], "ee")
    goal = np.asarray(goal, dtype=float)
    postures = _three_link_ik(start_ee, q1_candidates=(0.25, 0.8, 1.35, 1.9))
    if len(postures) < len(null_gains):
        raise ValueError("not enough closed-form postures for the requested demos")
    # spread selections over distinct base angles / elbow branches
    picks = postures[:: max(1, len(postures) // len(null_gains))][: len(null_gains)]
    steps = int(round(duration / dt))
    trajectories = []
    for (amp, freq, phase, bias), q0 in zip(null_gains, picks):
        q = np.asarray(q0, dtype=float).copy()
        prev_n = None
        ts, qs, qds = [], [], []
        for k in range(steps + 1):
            t = k * dt
            x, J = fk.value_and_jacobian(q)
            xdot = goal - x
            JJt = J @ J.T
            qdot_task = J.T @ np.linalg.solve(JJt, xdot)
            n = _null_direction(J, prev_n)
            prev_n = n
            alpha = amp * np.sin(freq * t + phase) + bias
            qdot = qdot_task + alpha * n
            if k % subsample == 0:
                ts.append(t)
                qs.append(q.copy())
                qds.append(qdot.copy())
            q = q + dt * qdot
        trajectories.append(Trajectory(np.asarray(ts), np.asarray(qs),
                                       np.asarray(qds)))
    return DemoSet(trajectories)


def conflicting_demo_fixture(seed=0):
    """Redundant-arm learning fixture: the policy must explain demos that
    agree in end-effector space and clash in joint space.

    The tree has a learnable end-effector leaf (latent coupling chain +
    Cholesky metric), a learnable configuration-space leaf of the same
    construction (which joint-space regression is free to misuse), and a
    fixed damper. Subtask weights put all mass on the end-effector leaf.
    The testbed is fixed but for ``seed``: each chain has 4 coupling
    layers of 48 random features, each metric net hidden layers
    (16, 16), and the damper gain is 0.5.

    Returns ``(tree, params, demos, lam, info)``.
    """
    goal = np.array([1.6, 0.6])
    start_ee = np.array([-0.4, 1.7])
    null_gains = [
        (2.2, 3.0, 0.0, 1.0),
        (-2.2, 4.0, 1.0, 1.0),
        (1.6, 5.0, 2.0, -1.0),
        (-1.6, 6.0, 3.0, -1.0),
    ]
    demos = synthesize_conflicting_demos(goal, start_ee, null_gains)

    ee_points = np.concatenate([
        np.stack([PlanarArmFK([1, 1, 1], "ee").value(qr) for qr in tr.q])
        for tr in demos.trajectories
    ])
    q_points = np.concatenate([tr.q for tr in demos.trajectories])
    q_ref = np.mean([tr.q[-1] for tr in demos.trajectories], axis=0)

    chain_ee = DiffeoChain(2, n_layers=4, n_features=48,
                           length_scale=suggest_length_scale(ee_points),
                           seed=seed + 1)
    chain_cfg = DiffeoChain(3, n_layers=4, n_features=48,
                            length_scale=suggest_length_scale(q_points),
                            seed=seed + 2)
    tree = TransformTree(
        [3, 2, 2, 3, 3],
        [
            Edge(0, 1, PlanarArmFK([1.0, 1.0, 1.0], "ee")),
            Edge(1, 2, chain_ee),
            Edge(0, 3, chain_cfg),
            Edge(0, 4, IdentityMap(3)),
        ],
        {
            2: NaturalGradientLeaf(
                2, LatentQuadraticPotential(goal, chain_ee),
                CholeskyMetricNet(2, hidden=(16, 16), seed=seed + 3),
            ),
            3: NaturalGradientLeaf(
                3, LatentQuadraticPotential(q_ref, chain_cfg),
                CholeskyMetricNet(3, hidden=(16, 16), seed=seed + 4),
            ),
            4: handcrafted_damper(0.5, 3),
        },
    )
    lam = np.array([1.0, 0.0, 0.0])  # leaves sorted: [2 (ee), 3 (cfg), 4 (damper)]
    info = {"goal": goal, "start_ee": start_ee, "q_ref": q_ref}
    return tree, tree.init_params(), demos, lam, info


# ---------------------------------------------------------------------------
# Gradient-check cases
# ---------------------------------------------------------------------------


def _kink_distance(tree, params, qs):
    """Smallest |pre-activation| over every Cholesky net and demo point.

    Central differences are only trustworthy away from the ReLU and
    |.| kinks; cases too close to one are rejected and reseeded. A
    leaf's record ends with its metric's, for a net the ``decompose``
    record ``(weights, acts, pres, d_raw, L)``.
    """
    dist = np.inf
    for q in qs:
        states = run_pipeline(tree, q, params).states
        for leaf, pol, *_ in tree.leaf_table.values():
            if isinstance(getattr(pol, "metric", None), CholeskyMetricNet):
                _, _, pres, d_raw, _ = states[leaf].record[-1]
                for pre in [*pres, d_raw]:
                    dist = min(dist, float(np.abs(pre).min()))
    return dist


def gradcheck_cases(n_cases=20):
    """Small learnable trees plus demo samples for finite-difference
    validation of the analytic gradients.

    Cases rotate through chain-only, metric-only, chain+metric and
    mixed frozen/learnable constructions, under both loss kinds, and
    skip any whose Cholesky nets come within 1e-3 of a kink.
    """
    from .losses import LossSpec

    cases = []
    seed = 0
    while len(cases) < n_cases:
        seed += 1
        rng = np.random.default_rng(seed)
        style = len(cases) % 4
        d = 2 if len(cases) % 2 == 0 else 3
        chain = DiffeoChain(d, n_layers=2, n_features=5,
                            length_scale=2.0, seed=seed,
                            learnable=style != 1, init_scale=0.2)
        if style == 0:
            metric = ConstantMetric(_random_spd(rng, d))
        else:
            metric = CholeskyMetricNet(d, hidden=(5,), eps=1e-3, seed=seed + 1)
        goal = rng.uniform(-0.8, 0.8, size=d)
        policies = {
            2: NaturalGradientLeaf(d, LatentQuadraticPotential(goal, chain), metric),
            3: handcrafted_damper(0.6, d),
        }
        node_dims = [d, d, d, d]
        edges = [
            Edge(0, 1, IdentityMap(d)),
            Edge(1, 2, chain),
            Edge(0, 3, IdentityMap(d)),
        ]
        if style == 3:
            node_dims.append(d)
            edges.append(Edge(0, 4, IdentityMap(d)))
            policies[4] = RawVMLeaf(rng.uniform(-0.5, 0.5, size=d),
                                    ConstantMetric(_random_spd(rng, d)),
                                    learnable=True)
        tree = TransformTree(node_dims, edges, policies)
        params = tree.init_params()
        if chain.is_learnable:
            params.values[chain.param_slice] = rng.normal(0.0, 0.2, chain.n_params)
        if params.size == 0:
            continue
        qs = [rng.uniform(-0.9, 0.9, size=d) for _ in range(2)]
        qdots = [rng.uniform(-1.0, 1.0, size=d) for _ in range(2)]
        if _kink_distance(tree, params, qs) < 1e-3:
            continue
        if len(cases) % 2 == 0:
            lam = np.zeros(len(tree.leaves))
            lam[0] = 1.0
            loss = LossSpec("subtask_space", lam)
        else:
            loss = LossSpec("joint_space")
        demos = DemoSet([Trajectory(np.arange(len(qs), dtype=float),
                                    np.stack(qs), np.stack(qdots))])
        cases.append((tree, params, demos, loss))
    return cases
