"""Training: end-to-end gradient descent and the per-leaf baseline.

``train`` runs plain gradient descent on a demo loss,
differentiating through the whole composition (so learnable importance
weights pick up the trade-offs against dampers and other fixed leaves).
``train_independent_baseline`` instead fits every learnable
natural-gradient leaf to the demonstrations mapped into its own space,
one leaf at a time, with no coupling between leaves; the composition
then only happens at execution time. Both share one descent loop, so
the difference between the two strategies is directly measurable.

With ``alpha=None`` the loop fixes its step by a backtracking Armijo
search on the first iteration. A trial step is rejected as soon as the
running total of its per-sample losses is not ``<= bound``, where
``bound = loss0 - c * alpha * |g|^2``. The terms come from stacked
chunks of samples (``losses.STACK_CHUNKS``, small first), and the chunks
after the deciding sample are never evaluated. This is exact, not a
heuristic: the terms are still added one at a time in sample order,
every per-sample term is ``>= 0`` (a squared norm, weighted by
``lam >= 0``) or non-finite, and adding a term ``>= 0`` in
round-to-nearest never lowers a total (inf and NaN stay put), so a
partial total above the bound means the full total is above it too.
Trial totals are never recorded, so the accepted step, the histories
and the weights are the same bits as a full sum gives. Any new loss
kind must keep every per-sample term ``>= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, SingularMetricError, StructureError, as_integer, as_real
from .gradients import pipeline_vjp
from .losses import (
    DemoSet,
    LossSpec,
    anchor_jacobian,
    loss_samples,
    naming_sample,
    sample_loss,
    sample_losses,
    stacked_terms,
)
from .maps import squared_norms, stacked_mv
from .params import ParamVector
from .policies import NaturalGradientLeaf
from .tree import TransformTree, one_state, run_pipeline


def suggest_length_scale(points) -> float:
    """Kernel length scale from the data spread (0.45 times the
    bounding-box diagonal of the supplied points)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    diameter = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    if diameter <= 0.0:
        return 1.0
    return 0.45 * diameter


@dataclass
class TrainOptions:
    """Plain gradient-descent settings, shared by both trainers.

    ``alpha=None`` picks the step by backtracking line search on the
    first iteration and keeps it fixed afterwards (a trial stops at the
    first sample whose running loss total exceeds the Armijo bound; see
    the module docstring for why that is exact); a first gradient of
    norm below 1e-15 ends the run there, with the weights unchanged and
    a two-entry history. ``momentum`` adds a classical momentum term and
    is off by default. ``minibatch`` turns
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
        step climbs the loss, an empty minibatch trains on nothing, a
        fractional count is not a count), and store the values
        ``errors.as_integer`` and ``errors.as_real`` make of them (7.0
        trains as 7)."""
        self.iterations = as_integer(self.iterations, "iterations", minimum=0)
        self.seed = as_integer(self.seed, "seed", minimum=0)
        if self.minibatch is not None:
            self.minibatch = as_integer(self.minibatch, "minibatch", minimum=1)
        if self.alpha is not None:
            self.alpha = as_real(self.alpha, "alpha", "> 0")
        self.momentum = as_real(self.momentum, "momentum", "in [0, 1)")


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
    gradient ``train`` descends and ``gradcheck`` checks. A failing
    sample raises as in ``loss_value``: ``sample k: <message>``."""
    samples, lam = loss_samples(loss, tree, demos_or_samples)
    total = 0.0
    grad = params.zeros_like()
    for k, (q, qdot) in enumerate(samples):
        with naming_sample(k):
            cache = run_pipeline(tree, q, params)
            value, g = sample_loss(tree, loss, lam, cache, one_state(tree, qdot, "qdot"))
            # A per-sample buffer fixes the order of the sum; joint-loss
            # training amplifies any reordering within two steps.
            g_theta = params.zeros_like()
            pipeline_vjp(tree, cache, params, g, g_theta)
        total += value
        grad += g_theta
    return total, grad


# Backtracking line search: first trial step, shrink factor per trial,
# Armijo constant, trial budget, and the safety factor on the accepted step.
_ALPHA0, _SHRINK, _C_ARMIJO, _MAX_HALVINGS, _SAFETY = 1.0, 0.5, 1e-4, 60, 0.25
# A first gradient below this norm stops the descent: no step would move.
_ZERO_GRAD = 1e-15


def _or_inf(fn, *args, failed=np.inf):
    """``fn(*args)`` with overflow and invalid-value warnings silenced, or
    ``failed`` if it raises ``NumericError``; callers test finiteness."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return fn(*args)
        except NumericError:
            return failed


def _total_within(terms, bound=np.inf):
    """``terms`` summed in order as ``total += v``, or ``inf`` as soon as a
    partial total is not ``<= bound`` (a NaN partial total included).

    For terms that are ``>= 0`` or non-finite the early return is exact:
    a partial total above ``bound`` can only grow or turn NaN, so the
    full total would not be ``<= bound`` either. A total that stays
    within ``bound`` is the full sum, bit for bit. With the default
    bound only a NaN stops the sum, whose result is non-finite either way.
    """
    total = 0.0
    for v in terms:
        total += v
        if not total <= bound:
            return np.inf
    return total


def _backtracking_alpha(eval_terms, theta0, loss0, grad):
    """Largest halved step satisfying the Armijo condition, shrunk by a
    safety factor because the accepted step stays fixed for the rest of
    the run. ``eval_terms(values)`` yields the per-sample losses at the
    trial weights; a trial stops at the first sample that decides its
    rejection (``_total_within``). Trial steps that blow up numerically
    count as failures."""
    gnorm2 = float(grad @ grad)
    alpha = _ALPHA0
    for _ in range(_MAX_HALVINGS):
        bound = loss0 - _C_ARMIJO * alpha * gnorm2
        trial = _or_inf(_total_within, eval_terms(theta0 - alpha * grad), bound)
        if np.isfinite(trial) and trial <= bound:
            return _SAFETY * alpha
        alpha *= _SHRINK
    return _SAFETY * alpha


# ---------------------------------------------------------------------------
# End-to-end training
# ---------------------------------------------------------------------------


def _descend(loss_grad, loss_terms, params: ParamVector, samples,
             opts: TrainOptions) -> TrainResult:
    """The descent loop of both trainers, on the objective given by
    ``loss_grad(theta, batch) -> (loss, grad)`` and by ``loss_terms``,
    which yields the same loss per sample (each term ``>= 0``)."""
    rng = np.random.default_rng(opts.seed)
    theta = params.copy()
    last_finite = theta
    history = []
    alpha = opts.alpha
    velocity = np.zeros(params.size)
    status = "completed"

    for it in range(opts.iterations):
        if opts.minibatch is not None and opts.minibatch < len(samples):
            idx = rng.permutation(len(samples))[: opts.minibatch]
            batch = [samples[i] for i in sorted(idx)]
        else:
            batch = samples
        value, grad = _or_inf(loss_grad, theta, batch, failed=(np.inf, None))
        if not np.isfinite(value):
            theta = last_finite
            status = "aborted_nonfinite"
            break
        last_finite = theta
        history.append(value)
        if alpha is None:
            if float(np.linalg.norm(grad)) < _ZERO_GRAD:
                break  # the line search would fix alpha = 0: nothing moves
            alpha = _backtracking_alpha(
                lambda v: loss_terms(theta.with_values(v), batch),
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
        final = _or_inf(_total_within, loss_terms(theta, samples))
        if np.isfinite(final):
            history.append(final)
        else:
            theta = last_finite
            status = "aborted_nonfinite"
    return TrainResult(params=theta, history=np.asarray(history), status=status)


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
    samples, _ = loss_samples(loss, tree, demos)
    loss.validate_for_training(tree)
    return _descend(
        lambda th, batch: loss_and_gradient(tree, th, batch, loss),
        lambda th, batch: sample_losses(loss, tree, th, batch),
        params, samples, opts,
    )


# ---------------------------------------------------------------------------
# Independent per-leaf baseline
# ---------------------------------------------------------------------------


def _leaf_samples(tree, params, leaf, samples):
    """``(x, zdot)``: each ``(q, qdot)`` mapped through the leaf's anchor,
    all as one stack."""
    if not samples:
        return []
    x = np.array([q for q, _ in samples], dtype=float)

    def edge_jacobian(edge):
        nonlocal x
        x, J = edge.map.stacked_value_and_jacobian(x, params)
        return J

    J = anchor_jacobian(tree, tree.leaf_table[leaf], edge_jacobian)
    return list(zip(x, stacked_mv(J, np.array([qdot for _, qdot in samples], dtype=float))))


def _baseline_leaf_terms(tree, params, leaf, samples, grad=None):
    """Objective for one leaf: match the leaf-mapped demo velocity with
    the leaf's own flow ``v = -M^{-1} grad(Phi)``, ignoring every other
    leaf. ``samples`` are ``_leaf_samples``' ``(x, zdot)`` pairs. Yields
    each sample's ``|r|^2`` in sample order through ``stacked_terms``.
    With ``grad`` given, sample ``k``'s weight rows are added into it just
    before its term is yielded, in the per-sample order (goal reverse,
    metric, edge pullback): the bits of adding each sample's gradient in
    turn, in this leaf's slices only. A failing sample adds nothing."""
    _, policy, _, _, _, latent = tree.leaf_table[leaf]
    chain = latent.map if latent is not None else None
    if chain is None and getattr(policy, "metric_input", None) == "subtask":
        raise StructureError(
            "subtask metric input without a latent edge is ambiguous "
            "for the baseline objective"
        )
    yield from stacked_terms(
        lambda chunk: _baseline_stacked_terms(leaf, policy, chain, params, chunk, grad),
        samples)


def _baseline_stacked_terms(leaf, policy, chain, params, samples, grad):
    """The terms of ``samples`` on stacked arrays; with ``grad``, as an
    iterator that adds each sample's rows (of the stacked reverse rules,
    run here) into ``grad`` just before yielding its term."""
    x = np.array([x for x, _ in samples])
    zdot = np.array([zdot for _, zdot in samples])
    w, y = x, zdot
    if chain is not None:
        w, J_chain, tape = chain.stacked_value_jacobian_tape(x, params)
        y = stacked_mv(J_chain, zdot)
    # x is the subtask coordinate just below the latent edge.
    p, M, record = policy.stacked_evaluate(w, params, parent_coords=x)
    try:
        v = np.linalg.solve(M, p[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularMetricError(f"leaf {leaf} metric is singular ({exc})") from exc
    r = y - v
    if grad is None:
        return squared_norms(r).tolist()
    rho = np.linalg.solve(M, r[..., None])[..., 0]
    # v = M^{-1} p: d loss = 2 r.(dJ zdot) - 2 rho.dp + 2 rho.dM v
    c_w, rows = policy.stacked_vjp(w, params, -2.0 * rho,
                                   2.0 * (rho[:, :, None] * v[:, None, :]), record,
                                   parent_coords=x)
    if chain is not None and chain.is_learnable:
        rows = rows + chain.stacked_pullback_vjp(x, params, c_w, zdot[:, :, None],
                                                 (2.0 * r)[:, :, None], tape)
    return _rows_added(squared_norms(r).tolist(), rows, grad)


def _rows_added(values, rows, grad):
    for k, value in enumerate(values):
        for where, R in rows:
            grad[where] += R[k]
        yield value


def _baseline_leaf_loss_grad(tree, params, leaf, samples):
    """``(loss, grad)`` of one leaf's objective summed over ``samples`` in
    order."""
    grad = params.zeros_like()
    terms = _baseline_leaf_terms(tree, params, leaf, samples, grad)
    return _total_within(terms), grad


def train_independent_baseline(tree: TransformTree, params: ParamVector,
                               demos: DemoSet,
                               opts: TrainOptions | None = None) -> ParamVector:
    """Fit each learnable natural-gradient leaf to the demos on its own.

    The leaves trained are the ones the reverse pass visits
    (``tree._reverse_leaves``: a learnable parent edge or a learnable
    component, a latent goal's chain included), and each must be a
    natural-gradient leaf. They are trained one at a time on
    ``sum || J_leaf qdot - v_leaf ||^2`` by ``train``'s loop and options;
    weights that no trained leaf reads are left untouched. Any trade-off
    between leaves is deferred to execution. A non-finite leaf loss or
    step, or a singular leaf metric, raises ``NumericError``. Each leaf
    maps the demos through its prefix once, as one stack, before its
    descent: exact, as a prefix edge that shares weights with the leaf
    raises ``StructureError``.
    """
    if opts is None:
        opts = TrainOptions()
    opts.validate()
    samples = list(demos.samples())
    theta = params.copy()
    for leaf, policy, _, _, prefix, latent in tree._reverse_leaves:
        if not isinstance(policy, NaturalGradientLeaf):
            raise StructureError(
                f"leaf {leaf} is learnable but not a natural-gradient leaf; "
                "the independent baseline is only defined for those"
            )
        parts = [c for _, c in policy.components()]
        parts += [latent.map] if latent is not None else []
        for e in prefix:
            if e.map.is_learnable and any(e.map is c for c in parts):
                raise StructureError(f"{e.name()} above leaf {leaf} shares weights "
                                     "with the leaf; the baseline needs a fixed prefix")
        leaf_samples = _leaf_samples(tree, theta, leaf, samples)
        result = _descend(
            lambda th, batch: _baseline_leaf_loss_grad(tree, th, leaf, batch),
            lambda th, batch: _baseline_leaf_terms(tree, th, leaf, batch),
            theta, leaf_samples, opts,
        )
        if result.status != "completed":
            raise NumericError(f"baseline loss for leaf {leaf} is not finite")
        theta = result.params
    return theta
