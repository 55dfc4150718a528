"""Demonstration data and imitation losses.

Two ways to score a policy against demonstrated velocities: regress the
joint velocity directly, or penalize only the velocity deviation seen in
each subtask space (the image under that subtask's Jacobian), weighted
per subtask. Demonstrations recorded by a human are typically
contradictory in joint space while agreeing in the spaces that matter,
which is the whole reason the subtask-space loss exists.

For a leaf reached through a latent map (a diffeo chain on its parent
edge), the subtask loss projects residuals with the Jacobian of the
leaf's anchor only: the rest of its path, up to the node the user
actually specified, as recorded in ``TransformTree.leaf_table``. Every
other edge, a frozen chain higher up included, belongs to the anchor.
Projecting through the learnable map itself would let training shrink
the loss by shrinking the map instead of fitting the motion.
``anchor_jacobian`` writes that Jacobian once, for a sample or a stack.
``stacked_terms`` is the one route of every loss-only pass.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import StructureError, TreeMotionError
from .maps import products, squared_norms
from .params import ParamVector
from .tree import LeafRow, PipelineCache, TransformTree, run_stacked

# Sizes of the stacked chunks ``stacked_terms`` evaluates, in sample
# order; the last size repeats. A line-search trial usually stops within
# its first samples (a baseline trial mostly at the first, a subtask
# trial within the first 3 to 73), so the chunks start small.
STACK_CHUNKS = (8, 32, 128)


@dataclass
class Trajectory:
    """Time-stamped configuration positions and velocities."""

    t: np.ndarray
    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        self.qdot = np.asarray(self.qdot, dtype=float)
        if self.q.ndim != 2:
            raise StructureError("trajectory q must be (T, d)")
        T, _ = self.q.shape
        if self.t.shape != (T,) or self.qdot.shape != self.q.shape:
            raise StructureError("trajectory arrays have inconsistent shapes")
        if T > 1 and not np.all(np.diff(self.t) > 0):
            raise StructureError("trajectory timestamps must strictly increase")

    def __len__(self):
        return self.q.shape[0]

    @property
    def dim(self):
        return self.q.shape[1]


def velocities_by_central_difference(t, q):
    """Estimate velocities from positions (central differences inside,
    one-sided at the ends)."""
    t = np.asarray(t, dtype=float)
    q = np.asarray(q, dtype=float)
    T = q.shape[0]
    if T < 2:
        raise StructureError("need at least two samples to estimate velocities")
    qdot = np.empty_like(q)
    qdot[0] = (q[1] - q[0]) / (t[1] - t[0])
    qdot[-1] = (q[-1] - q[-2]) / (t[-1] - t[-2])
    if T > 2:
        dt = (t[2:] - t[:-2])[:, None]
        qdot[1:-1] = (q[2:] - q[:-2]) / dt
    return qdot


@dataclass
class DemoSet:
    """A set of demonstration trajectories with a common dimension."""

    trajectories: list[Trajectory]

    def __post_init__(self):
        if not self.trajectories:
            raise StructureError("demo set is empty")
        d = self.trajectories[0].dim
        if any(tr.dim != d for tr in self.trajectories):
            raise StructureError("demo trajectories have inconsistent dimensions")

    @property
    def dim(self):
        return self.trajectories[0].dim

    @property
    def n_samples(self):
        return sum(len(tr) for tr in self.trajectories)

    def samples(self):
        """All ``(q, qdot)`` pairs in trajectory order."""
        for tr in self.trajectories:
            for i in range(len(tr)):
                yield tr.q[i], tr.qdot[i]


@dataclass
class LossSpec:
    """Which imitation loss to optimize.

    ``lam`` weights the subtask-space loss per leaf (ordered by leaf
    node id) and is ignored by the other kinds. Construction is
    permissive (an all-zero ``lam`` is a valid, identically-zero loss);
    ``validate_for_training`` enforces the stricter contract used by the
    trainer.
    """

    kind: str
    lam: np.ndarray | None = None

    KINDS = ("subtask_space", "joint_space", "independent_baseline")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise StructureError(f"unknown loss kind {self.kind!r}; one of {self.KINDS}")
        if self.lam is not None:
            self.lam = np.asarray(self.lam, dtype=float)

    def lam_for(self, tree: TransformTree) -> np.ndarray:
        if self.lam is None:
            raise StructureError("subtask-space loss needs per-leaf weights")
        if self.lam.shape != (len(tree.leaves),):
            raise StructureError(
                f"lam has {self.lam.size} entries, tree has {len(tree.leaves)} leaves"
            )
        if not np.all(np.isfinite(self.lam)) or np.any(self.lam < 0):
            raise StructureError("lam entries must be finite and nonnegative")
        return self.lam

    def validate_for_training(self, tree: TransformTree) -> None:
        if self.kind == "subtask_space":
            lam = self.lam_for(tree)
            if not np.any(lam > 0):
                raise StructureError("subtask-space training needs some lam > 0")


# ---------------------------------------------------------------------------
# Per-sample loss
# ---------------------------------------------------------------------------


def anchor_jacobian(tree: TransformTree, row: LeafRow, edge_jacobian) -> np.ndarray:
    """Jacobian of ``row``'s anchor: ``edge_jacobian(edge)`` (a matrix or a
    stack) of each anchor edge, root to leaf, as ``np.matmul(J_edge, J)``;
    a stack's rows are the per-sample product's bits."""
    J = np.eye(tree.root_dim)
    for edge in row.anchor:
        J = np.matmul(edge_jacobian(edge), J)
    return J


def sample_loss(tree: TransformTree, loss: LossSpec, lam, cache: PipelineCache,
                qdot) -> tuple:
    """The loss and its cotangent on ``pi`` of one sample, from its
    ``run_pipeline`` pass, or of each row of ``run_stacked``'s pass (with
    ``(N, root_dim)`` ``qdot``; each row the per-sample bits), for
    validated ``lam`` (``None`` for the joint loss)."""
    r = qdot - cache.pi
    if loss.kind == "joint_space":
        return squared_norms(r), -2.0 * r
    mv, _ = products(r.ndim > 1)
    value = np.zeros(r.shape[:-1])
    g = np.zeros_like(cache.pi)
    for lk, row in zip(lam, tree.leaf_table.values()):
        if lk == 0.0:
            continue
        J = anchor_jacobian(tree, row, lambda edge: cache.states[edge.child].jac_to_parent)
        Jr = mv(J, r)
        value += lk * squared_norms(Jr)
        g -= 2.0 * lk * mv(J.swapaxes(-1, -2), Jr)
    return value[()], g  # [()]: one sample's loss as a scalar


def stacked_terms(evaluate, samples):
    """The items ``evaluate(chunk)`` returns, one per sample, in sample
    order: the one route of the loss-only passes and of the baseline.

    The chunks are ``STACK_CHUNKS`` (8, 32, then 128 samples), each
    evaluated when its first item is asked for. A chunk that raises a
    ``TreeMotionError`` is evaluated again as stacks of one through the
    same ``evaluate``: the items before its first failing sample ``k``
    come from those stacks, nothing of ``k`` or after it is yielded or
    evaluated, and ``k``'s error is raised with its class as ``"sample
    k: <message>"``. Other exceptions leave as raised."""
    lo = 0
    for size in itertools.chain(STACK_CHUNKS, itertools.repeat(STACK_CHUNKS[-1])):
        chunk = samples[lo:lo + size]
        if not chunk:
            return
        try:
            items = evaluate(chunk)
        except TreeMotionError:
            items = _stacks_of_one(evaluate, chunk, lo)
        yield from items
        lo += size


@contextlib.contextmanager
def naming_sample(k):
    """Re-raise the block's ``TreeMotionError``, of its class, as ``sample k: ...``."""
    try:
        yield
    except TreeMotionError as exc:
        raise type(exc)(f"sample {k}: {exc}") from exc


def _stacks_of_one(evaluate, chunk, lo):
    for k, sample in enumerate(chunk, lo):
        with naming_sample(k):
            items = evaluate([sample])
        yield from items


def _stack(samples, i, name, dim):
    """Entry ``i`` of every sample as one ``(N, dim)`` array, or the
    ``StructureError`` a per-sample check of a stack of one raises."""
    try:
        X = np.array([sample[i] for sample in samples], dtype=float)
    except (TypeError, ValueError) as exc:  # entries of different lengths, or not numbers
        raise StructureError(f"{name} entries do not form one array: {exc}") from exc
    if X.shape[1:] != (dim,):
        raise StructureError(f"{name} has shape {X.shape[1:]}, root dimension is {dim}")
    return X


def loss_samples(loss: LossSpec, tree: TransformTree, demos_or_samples):
    """``(samples, lam)`` of a summed demo loss; ``lam`` is ``None`` for the
    joint loss, and the per-leaf baseline kind is rejected."""
    if loss.kind == "independent_baseline":
        raise StructureError(
            "independent_baseline is trained per leaf; see train_independent_baseline"
        )
    lam = loss.lam_for(tree) if loss.kind == "subtask_space" else None
    if isinstance(demos_or_samples, DemoSet):
        return list(demos_or_samples.samples()), lam
    return list(demos_or_samples), lam


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def sample_losses(loss: LossSpec, tree: TransformTree, params: ParamVector | None,
                  demos):
    """Each sample's loss, in sample order, the same bits as
    ``sample_loss`` on the sample's ``run_pipeline`` pass, from
    ``sample_loss`` on ``run_stacked`` passes over ``stacked_terms``'
    chunks; a failing sample raises as ``stacked_terms`` states. Every
    term is ``>= 0`` (a squared norm, weighted by ``lam >= 0``) or
    non-finite; the trainers' line search relies on that to stop summing
    a trial early."""
    samples, lam = loss_samples(loss, tree, demos)

    def chunk_losses(chunk):
        states, pi = run_stacked(tree, _stack(chunk, 0, "q", tree.root_dim), params)
        qdot = _stack(chunk, 1, "qdot", tree.root_dim)
        cache = PipelineCache(states, pi, None)
        return sample_loss(tree, loss, lam, cache, qdot)[0].tolist()

    yield from stacked_terms(chunk_losses, samples)


def loss_value(loss: LossSpec, tree: TransformTree, params: ParamVector | None,
               demos) -> float:
    """Demo loss summed over the samples of ``demos`` (a ``DemoSet`` or a
    list of ``(q, qdot)`` pairs)."""
    total = 0.0
    for value in sample_losses(loss, tree, params, demos):
        total += value
    return total


def subtask_loss(tree: TransformTree, params: ParamVector | None, demos: DemoSet,
                 lam) -> float:
    """Velocity deviation summed over subtask spaces, weighted by ``lam``."""
    return loss_value(LossSpec("subtask_space", lam), tree, params, demos)


def joint_loss(tree: TransformTree, params: ParamVector | None,
               demos: DemoSet) -> float:
    """Plain joint-space velocity regression error."""
    return loss_value(LossSpec("joint_space"), tree, params, demos)
