"""Training: end-to-end gradient descent and the per-leaf baseline.

``train`` runs plain full-batch gradient descent on a demo loss,
differentiating through the whole composition (so learnable importance
weights pick up the trade-offs against dampers and other fixed leaves).
``train_independent_baseline`` instead fits every learnable
natural-gradient leaf to the demonstrations mapped into its own space,
one leaf at a time, with no coupling between leaves; the composition
then only happens at execution time. Keeping both makes the difference
between the two strategies directly measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StructureError
from .gradients import pipeline_vjp, run_pipeline
from .losses import DemoSet, LossSpec, loss_samples, loss_value, sample_loss
from .maps import DiffeoChain
from .params import ParamVector
from .policies import NaturalGradientLeaf
from .tree import TransformTree


def suggest_length_scale(points, factor: float = 0.45) -> float:
    """Kernel length scale from the data spread (factor times the
    bounding-box diagonal of the supplied points)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    diameter = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    if diameter <= 0.0:
        return 1.0
    return factor * diameter


@dataclass
class TrainOptions:
    """Plain gradient-descent settings.

    ``alpha=None`` picks the step by backtracking line search on the
    first iteration and keeps it fixed afterwards. ``momentum`` adds a
    classical momentum term and is off by default. ``minibatch`` turns
    on seeded without-replacement minibatching; the default is full
    batch, which is what makes runs bit-reproducible regardless of seed.
    """

    alpha: float | None = None
    iterations: int = 100
    seed: int = 0
    minibatch: int | None = None
    momentum: float = 0.0

    def validate(self) -> None:
        """Reject settings that would train silently wrong (a negative
        step climbs the loss, an empty minibatch trains on nothing)."""
        if self.alpha is not None and not (np.isfinite(self.alpha) and self.alpha > 0):
            raise StructureError(f"alpha must be None or finite > 0, got {self.alpha}")
        if self.iterations < 0:
            raise StructureError(f"iterations must be >= 0, got {self.iterations}")
        if self.minibatch is not None and self.minibatch < 1:
            raise StructureError(f"minibatch must be None or >= 1, got {self.minibatch}")
        if not 0.0 <= self.momentum < 1.0:
            raise StructureError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass
class TrainResult:
    params: ParamVector
    history: np.ndarray
    status: str = "completed"  # or "aborted_nonfinite"


# ---------------------------------------------------------------------------
# Loss + gradient: evaluated pass, per-sample loss, reverse pass
# ---------------------------------------------------------------------------


def loss_and_gradient(tree: TransformTree, params: ParamVector, demos_or_samples,
                      loss: LossSpec):
    """Loss value and weight gradient in one pass over the samples: the
    gradient ``train`` descends and ``gradcheck`` checks."""
    samples, lam = loss_samples(loss, tree, demos_or_samples)
    total = 0.0
    grad = params.zeros_like()
    for q, qdot in samples:
        cache = run_pipeline(tree, q, params)
        value, g = sample_loss(tree, loss, lam, cache, qdot)
        # A per-sample buffer fixes the order of the sum; joint-loss
        # training amplifies any reordering within two steps.
        g_theta = params.zeros_like()
        pipeline_vjp(tree, cache, params, g, g_theta)
        total += value
        grad += g_theta
    return total, grad


def _backtracking_alpha(eval_loss, theta0, loss0, grad, alpha0=1.0,
                        shrink=0.5, c_armijo=1e-4, max_halvings=60,
                        safety=0.25):
    """Largest halved step satisfying the Armijo condition, shrunk by a
    safety factor because the accepted step stays fixed for the rest of
    the run. Trial steps that blow up numerically count as failures."""
    gnorm2 = float(grad @ grad)
    alpha = alpha0
    for _ in range(max_halvings):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            try:
                trial = eval_loss(theta0 - alpha * grad)
            except NumericError:
                trial = np.inf
        if np.isfinite(trial) and trial <= loss0 - c_armijo * alpha * gnorm2:
            return safety * alpha
        alpha *= shrink
    return safety * alpha


# ---------------------------------------------------------------------------
# End-to-end training
# ---------------------------------------------------------------------------


def train(tree: TransformTree, params: ParamVector, demos: DemoSet,
          loss: LossSpec, opts: TrainOptions | None = None) -> TrainResult:
    """Gradient descent ``theta <- theta - alpha * grad`` on a demo loss.

    Records the loss at every iterate (plus the final one) and aborts,
    keeping the last finite iterate, if the loss ever leaves the finite
    range. Deterministic for fixed options and demos.
    """
    if opts is None:
        opts = TrainOptions()
    opts.validate()
    all_samples, _ = loss_samples(loss, tree, demos)
    loss.validate_for_training(tree)
    rng = np.random.default_rng(opts.seed)
    theta = params.copy()
    last_finite = theta
    history = []
    alpha = opts.alpha
    velocity = np.zeros(params.size)
    status = "completed"

    for it in range(opts.iterations):
        if opts.minibatch is not None and opts.minibatch < len(all_samples):
            idx = rng.permutation(len(all_samples))[: opts.minibatch]
            samples = [all_samples[i] for i in sorted(idx)]
        else:
            samples = all_samples
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                value, grad = loss_and_gradient(tree, theta, samples, loss)
            except NumericError:
                value = np.inf
        if not np.isfinite(value):
            theta = last_finite
            status = "aborted_nonfinite"
            break
        last_finite = theta
        history.append(value)
        if alpha is None:
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-15:
                alpha = 0.0
            else:
                alpha = _backtracking_alpha(
                    lambda v: loss_value(loss, tree, theta.with_values(v), samples),
                    theta.values, value, grad,
                )
        if opts.momentum > 0.0:
            velocity = opts.momentum * velocity + grad
            theta = theta.with_values(theta.values - alpha * velocity)
        else:
            theta = theta.with_values(theta.values - alpha * grad)
        if not np.all(np.isfinite(theta.values)):
            theta = last_finite
            status = "aborted_nonfinite"
            break

    if status == "completed":
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                final = loss_value(loss, tree, theta, all_samples)
            except NumericError:
                final = np.inf
        if np.isfinite(final):
            history.append(final)
        else:
            theta = last_finite
            status = "aborted_nonfinite"
    return TrainResult(params=theta, history=np.asarray(history), status=status)


# ---------------------------------------------------------------------------
# Independent per-leaf baseline
# ---------------------------------------------------------------------------


def _leaf_fixed_prefix(tree, leaf):
    """Split a root-to-leaf path into the fixed prefix and an optional
    trailing latent chain edge."""
    path = tree.path_to(leaf)
    if path and isinstance(path[-1].map, DiffeoChain):
        return path[:-1], path[-1]
    return path, None


def _baseline_leaf_loss_grad(tree, params, leaf, samples, want_grad=True):
    """Objective for one leaf: match the leaf-mapped demo velocity with
    the leaf's own flow ``v = -M^{-1} grad(Phi)``, ignoring every other
    leaf. The leaf is evaluated and differentiated through its own
    ``evaluate`` and ``vjp``. Returns ``(loss, grad)``; the gradient only
    touches this leaf's slices."""
    policy = tree.leaf_policies[leaf]
    prefix, chain_edge = _leaf_fixed_prefix(tree, leaf)
    chain = chain_edge.map if chain_edge is not None else None
    if chain is None and getattr(policy, "metric_input", None) == "subtask":
        raise StructureError(
            "subtask metric input without a latent edge is ambiguous "
            "for the baseline objective"
        )
    total = 0.0
    grad = params.zeros_like() if want_grad else None
    for q, qdot in samples:
        x = np.asarray(q, dtype=float)
        J_fix = np.eye(tree.root_dim)
        for edge in prefix:
            x, J_edge = edge.map.value_and_jacobian(x, params)
            J_fix = J_edge @ J_fix
        zdot = J_fix @ qdot
        if chain is not None:
            w, J_chain = chain.value_and_jacobian(x, params)
            y = J_chain @ zdot
        else:
            w = x
            y = zdot
        # x is the subtask coordinate just below the latent edge.
        p, M = policy.evaluate(w, params, parent_coord=x)
        v = np.linalg.solve(M, p)
        r = y - v
        total += float(r @ r)
        if not want_grad:
            continue
        rho = np.linalg.solve(M, r)
        # v = M^{-1} p: d loss = 2 r.(dJ zdot) - 2 rho.dp + 2 rho.dM v
        c_w = policy.vjp(w, params, -2.0 * rho, 2.0 * np.outer(rho, v), grad,
                         parent_coord=x)
        if chain is not None and chain.is_learnable:
            chain.pullback_vjp(x, params, c_w, zdot[:, None],
                               (2.0 * r)[:, None], grad)
    return total, grad


def train_independent_baseline(tree: TransformTree, params: ParamVector,
                               demos: DemoSet,
                               opts: TrainOptions | None = None) -> ParamVector:
    """Fit each learnable natural-gradient leaf to the demos on its own.

    Every learnable leaf must be a natural-gradient leaf. Leaves are
    trained one at a time on ``sum || J_leaf qdot - v_leaf ||^2`` with
    the same budget each; frozen leaves and non-leaf weights are left
    untouched. Any trade-off between leaves is deferred to execution.
    """
    if opts is None:
        opts = TrainOptions()
    opts.validate()
    samples = list(demos.samples())
    theta = params.copy()
    for leaf in tree.leaves:
        policy = tree.leaf_policies[leaf]
        _, chain_edge = _leaf_fixed_prefix(tree, leaf)
        parts = [c for _, c in policy.components()]
        parts += [chain_edge.map] if chain_edge is not None else []
        if not any(c.is_learnable for c in parts):
            continue
        if not isinstance(policy, NaturalGradientLeaf):
            raise StructureError(
                f"leaf {leaf} is learnable but not a natural-gradient leaf; "
                "the independent baseline is only defined for those"
            )
        alpha = opts.alpha
        for it in range(opts.iterations + 1):
            # The final iterate is checked like every earlier one.
            last = it == opts.iterations
            value, grad = _baseline_leaf_loss_grad(tree, theta, leaf, samples,
                                                   want_grad=not last)
            if not np.isfinite(value):
                raise NumericError(f"baseline loss for leaf {leaf} is not finite")
            if last:
                break
            if alpha is None:
                gnorm = float(np.linalg.norm(grad))
                if gnorm < 1e-15:
                    break
                alpha = _backtracking_alpha(
                    lambda v: _baseline_leaf_loss_grad(
                        tree, theta.with_values(v), leaf, samples, want_grad=False
                    )[0],
                    theta.values, value, grad,
                )
            new_values = theta.values - alpha * grad
            if not np.all(np.isfinite(new_values)):
                break
            theta = theta.with_values(new_values)
    return theta
