"""Leaf policies: desired velocities paired with importance-weight matrices.

A leaf reports the pair ``(p, M)`` where ``p = M v`` is the weighted
force and ``M`` the SPD importance weight. Natural-gradient leaves are
defined by a potential and a metric and report ``p = -grad(Phi)``
directly (no inverse is ever formed), which is what makes the composed
root policy a natural gradient flow. Raw leaves carry an explicit
velocity and metric; the handcrafted damper/attractor/barrier are thin
constructors over these two classes.

Every leaf also exposes the reverse-mode hook used by the gradient
engine, the per-leaf baseline and ``gradcheck``: ``vjp`` accumulates
weight gradients given cotangents on ``(p, M)`` and returns the
cotangent with respect to the leaf's input coordinate (needed when the
leaf hangs below a learnable edge map). It is built from one reverse
rule per component: ``Potential.grad_param_vjp`` and
``Metric.param_vjp`` each add their weight gradient into ``grad_out``
and return the cotangent on their own input.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, StructureError
from .maps import DiffeoChain
from .params import Learnable


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


class Potential:
    """Scalar potential on a leaf space; forces are its negated gradient.

    A subclass implements ``value``, ``grad`` and ``grad_param_vjp``.
    """

    def value(self, z, params) -> float:
        raise NotImplementedError

    def grad(self, z, params) -> np.ndarray:
        raise NotImplementedError

    def grad_param_vjp(self, z, params, cot, grad_out) -> np.ndarray:
        """Add ``(d grad / d theta)^T cot`` into ``grad_out`` and return
        the Hessian-vector product ``(d grad / d z)^T cot``."""
        raise NotImplementedError


class ZeroPotential(Potential):
    def value(self, z, params):
        return 0.0

    def grad(self, z, params):
        return np.zeros_like(np.asarray(z, dtype=float))

    def grad_param_vjp(self, z, params, cot, grad_out):
        return np.zeros_like(np.asarray(cot, dtype=float))


class QuadraticPotential(Potential):
    """``0.5 * gain * ||z - goal||^2``."""

    def __init__(self, goal, gain=1.0):
        self.goal = np.asarray(goal, dtype=float)
        if gain <= 0:
            raise StructureError("quadratic potential gain must be positive")
        self.gain = float(gain)

    def value(self, z, params):
        d = z - self.goal
        return 0.5 * self.gain * float(d @ d)

    def grad(self, z, params):
        return self.gain * (z - self.goal)

    def grad_param_vjp(self, z, params, cot, grad_out):
        return self.gain * cot


class LatentQuadraticPotential(Potential):
    """Quadratic potential in a latent space reached through a diffeo chain.

    The goal is pinned in the parent (subtask) coordinates; its latent
    image moves with the chain weights, so the potential stays minimized
    exactly at the task goal however the chain deforms.
    """

    def __init__(self, goal, chain: DiffeoChain):
        self.goal = np.asarray(goal, dtype=float)
        if not isinstance(chain, DiffeoChain):
            raise StructureError("latent quadratic potential needs a diffeo chain")
        if chain.in_dim != self.goal.size:
            raise StructureError("latent potential goal dimension != chain dimension")
        self.chain = chain
        # (chain weights, goal image) of the last evaluation
        self._image_memo = None

    def goal_image(self, params):
        """``chain(goal)``, recomputed only when the chain weights change.

        The weights are compared by value, not identity, because callers
        may write ``params.values`` in place. The returned array is
        read-only since every caller shares it.
        """
        block = self.chain.weights(params)
        memo = self._image_memo
        if memo is not None and np.array_equal(memo[0], block):
            return memo[1]
        image = self.chain.value(self.goal, params)
        image.flags.writeable = False
        self._image_memo = (block.copy(), image)
        return image

    def value(self, z, params):
        d = z - self.goal_image(params)
        return 0.5 * float(d @ d)

    def grad(self, z, params):
        return z - self.goal_image(params)

    def grad_param_vjp(self, z, params, cot, grad_out):
        # grad Phi = z - chain(goal): only the goal image carries weights.
        cot = np.asarray(cot, dtype=float)
        self.chain.value_vjp(self.goal, params, -cot, grad_out)
        return cot


class BarrierPotential(Potential):
    """Repulsive potential ``gain * max(0, d0 - z)^2 / z`` on a 1-D distance.

    Smoothly zero for ``z >= d0``, grows without bound as ``z -> 0+``.
    Evaluation at ``z <= 0`` is outside the domain. This functional form
    is a pragmatic choice, not a standard one; it is continuously
    differentiable, which is what the stability argument needs.
    """

    def __init__(self, margin, gain=1.0):
        if margin <= 0 or gain <= 0:
            raise StructureError("barrier margin and gain must be positive")
        self.margin = float(margin)
        self.gain = float(gain)

    def _z(self, z) -> float:
        z0 = float(np.asarray(z).reshape(-1)[0])
        if z0 <= 0.0:
            raise DomainError(f"barrier potential evaluated at z={z0} <= 0")
        return z0

    def value(self, z, params):
        z0 = self._z(z)
        if z0 >= self.margin:
            return 0.0
        gap = self.margin - z0
        return self.gain * gap * gap / z0

    def grad(self, z, params):
        z0 = self._z(z)
        if z0 >= self.margin:
            return np.zeros(1)
        return np.array([-self.gain * (self.margin**2 - z0**2) / z0**2])

    def grad_param_vjp(self, z, params, cot, grad_out):
        z0 = self._z(z)
        if z0 >= self.margin:
            return np.zeros(1)
        return np.array([2.0 * self.gain * self.margin**2 / z0**3]) * cot


# ---------------------------------------------------------------------------
# Metrics (importance-weight matrices)
# ---------------------------------------------------------------------------


class Metric(Learnable):
    """State-dependent SPD importance weight.

    A subclass implements ``value``, and ``param_vjp`` when the matrix
    depends on its input or has weights.
    """

    def value(self, x, params) -> np.ndarray:
        raise NotImplementedError

    def param_vjp(self, x, params, S, grad_out) -> np.ndarray:
        """Add the weight gradient of ``<S, M(x)>`` into ``grad_out`` (if
        the metric is learnable and ``grad_out`` is not None) and return
        its gradient with respect to ``x``."""
        return np.zeros_like(np.asarray(x, dtype=float))


class ConstantMetric(Metric):
    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim == 0:
            raise StructureError("constant metric needs a matrix; use scale*I")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise StructureError("constant metric must be square")
        if not np.allclose(matrix, matrix.T, atol=1e-12):
            raise StructureError("constant metric must be symmetric")
        if np.linalg.eigvalsh(matrix).min() <= 0:
            raise StructureError("constant metric must be positive definite")
        self.matrix = matrix

    @classmethod
    def scaled_identity(cls, scale, dim):
        if scale <= 0:
            raise StructureError("metric scale must be positive")
        return cls(float(scale) * np.eye(int(dim)))

    def value(self, x, params):
        return self.matrix


class InverseSquareMetric(Metric):
    """1-D weight ``w * (d0 / z)^2``: vanishingly small far away, large near 0."""

    def __init__(self, weight, margin):
        if weight <= 0 or margin <= 0:
            raise StructureError("inverse-square metric needs positive weight/margin")
        self.weight = float(weight)
        self.margin = float(margin)

    def _z(self, x) -> float:
        z0 = float(np.asarray(x).reshape(-1)[0])
        if z0 <= 0.0:
            raise DomainError(f"inverse-square metric evaluated at z={z0} <= 0")
        return z0

    def value(self, x, params):
        z0 = self._z(x)
        return np.array([[self.weight * (self.margin / z0) ** 2]])

    def param_vjp(self, x, params, S, grad_out):
        z0 = self._z(x)
        dm = -2.0 * self.weight * self.margin**2 / z0**3
        return np.array([float(S[0, 0]) * dm])


class CholeskyMetricNet(Metric):
    """SPD matrix ``M = L L^T`` with ``L`` produced by a small ReLU network.

    A shared trunk feeds two linear heads: one for the ``n`` diagonal
    entries (passed through ``|.| + eps`` so they stay strictly
    positive) and one for the ``n(n-1)/2`` strictly-lower entries. The
    construction guarantees ``min eig(M) > 0`` for any weights.
    """

    def __init__(self, dim, in_dim=None, hidden=(64, 64), eps=1e-4, seed=0,
                 learnable=True, head_scale=0.1):
        self.dim = int(dim)
        self.in_dim = self.dim if in_dim is None else int(in_dim)
        if eps <= 0:
            raise StructureError("Cholesky diagonal bias eps must be positive")
        self.eps = float(eps)
        self.hidden = tuple(int(h) for h in hidden)
        if any(h < 1 for h in self.hidden):
            raise StructureError("hidden layer sizes must be positive")
        self.n_off = self.dim * (self.dim - 1) // 2
        self._tril = np.tril_indices(self.dim, -1)
        self._seed = int(seed)
        self._head_scale = float(head_scale)
        self._shapes = []
        fan_in = self.in_dim
        for h in self.hidden:
            self._shapes += [(h, fan_in), (h,)]
            fan_in = h
        self._shapes += [(self.dim, fan_in), (self.dim,)]
        self._shapes += [(self.n_off, fan_in), (self.n_off,)] if self.n_off else []
        # (start, stop, shape) of each weight array within the block
        self._views = []
        off = 0
        for shape in self._shapes:
            size = int(np.prod(shape))
            self._views.append((off, off + size, shape))
            off += size
        self.n_params = off
        if not learnable:
            self.freeze()

    def init_values(self) -> np.ndarray:
        """Seeded init: He-scaled trunk, small heads, diagonal bias at 1.

        Zero init would be useless here: the ReLU trunk and the
        absolute-value head both have zero (sub)gradient at 0, so the
        network could never move. Diagonal bias 1 starts the metric
        near the identity.
        """
        rng = np.random.default_rng(self._seed)
        chunks = []
        n_layers = len(self.hidden)
        for i, shape in enumerate(self._shapes):
            if len(shape) == 1:  # bias
                if i == 2 * n_layers + 1:  # diagonal head bias
                    chunks.append(np.ones(shape[0]))
                else:
                    chunks.append(np.zeros(shape[0]))
            elif i < 2 * n_layers:  # trunk weight
                chunks.append(rng.normal(0.0, np.sqrt(2.0 / shape[1]), size=shape).ravel())
            else:  # head weight
                chunks.append(
                    rng.normal(0.0, self._head_scale / np.sqrt(shape[1]), size=shape).ravel()
                )
        return np.concatenate(chunks)

    def _weights(self, params):
        block = self.weights(params)
        return [block[start:stop].reshape(shape) for start, stop, shape in self._views]

    def _forward(self, x, weights):
        acts = [np.asarray(x, dtype=float)]
        pres = []
        h = acts[0]
        for i in range(len(self.hidden)):
            pre = weights[2 * i] @ h + weights[2 * i + 1]
            pres.append(pre)
            h = np.maximum(pre, 0.0)
            acts.append(h)
        k = 2 * len(self.hidden)
        d_raw = weights[k] @ h + weights[k + 1]
        o_raw = weights[k + 2] @ h + weights[k + 3] if self.n_off else np.zeros(0)
        return acts, pres, d_raw, o_raw

    def decompose(self, x, params):
        """Return ``(L, M)`` with ``L`` lower-triangular, ``M = L L^T``."""
        weights = self._weights(params)
        _, _, d_raw, o_raw = self._forward(x, weights)
        L = np.zeros((self.dim, self.dim))
        L[np.diag_indices(self.dim)] = np.abs(d_raw) + self.eps
        if self.n_off:
            L[self._tril] = o_raw
        M = L @ L.T
        return L, 0.5 * (M + M.T)

    def value(self, x, params):
        return self.decompose(x, params)[1]

    def param_vjp(self, x, params, S, grad_out):
        weights = self._weights(params)
        learn = grad_out is not None and self.is_learnable
        grad_block = grad_out[self.param_slice] if learn else None
        acts, pres, d_raw, o_raw = self._forward(x, weights)
        L = np.zeros((self.dim, self.dim))
        L[np.diag_indices(self.dim)] = np.abs(d_raw) + self.eps
        if self.n_off:
            L[self._tril] = o_raw
        # M = L L^T: cotangent on L is (S + S^T) L for any (possibly
        # asymmetric) cotangent S on M.
        GL = (S + S.T) @ L
        cd = np.sign(d_raw) * GL[np.diag_indices(self.dim)]
        co = GL[self._tril] if self.n_off else np.zeros(0)

        grads = [None] * len(self._shapes) if grad_block is not None else None
        k = 2 * len(self.hidden)
        h_last = acts[-1]
        if grads is not None:
            grads[k] = np.outer(cd, h_last)
            grads[k + 1] = cd
            if self.n_off:
                grads[k + 2] = np.outer(co, h_last)
                grads[k + 3] = co
        ch = weights[k].T @ cd
        if self.n_off:
            ch = ch + weights[k + 2].T @ co
        for i in range(len(self.hidden) - 1, -1, -1):
            cpre = ch * (pres[i] > 0)
            if grads is not None:
                grads[2 * i] = np.outer(cpre, acts[i])
                grads[2 * i + 1] = cpre
            ch = weights[2 * i].T @ cpre
        if grads is not None:
            for g, (start, stop, _) in zip(grads, self._views):
                grad_block[start:stop] += g.ravel()
        return ch  # cotangent on the network input

    def input_vjp(self, x, params, S):
        # Kept only as a target of the perfbench per-layer tracer.
        return self.param_vjp(x, params, S, None)


# ---------------------------------------------------------------------------
# Leaf policies
# ---------------------------------------------------------------------------


class LeafPolicy:
    """Base leaf policy: reports ``(p, M)`` at a leaf node."""

    kind: str
    dim: int

    def evaluate(self, z, params, parent_coord=None):
        raise NotImplementedError

    def potential(self, z, params):
        """Potential value, or None for leaves without one."""
        return None

    def vjp(self, z, params, cot_p, cot_M, grad_out, parent_coord=None):
        """Accumulate weight gradients; return the cotangent on ``z``."""
        raise NotImplementedError

    def components(self):
        """Weight-carrying sub-components as ``(suffix, component)``
        pairs; a tree binds the learnable ones."""
        return []


class RawVMLeaf(LeafPolicy, Learnable):
    """Explicit ``(v, M)`` leaf; the velocity may be a learnable constant.

    With ``zero_potential=True`` (the damper) the leaf declares the
    constant potential 0, which keeps it inside the natural-gradient
    class: ``M v = 0 = -grad(0)``.
    """

    kind = "raw_vm"

    def __init__(self, velocity, metric: Metric, learnable=False, zero_potential=False):
        self.velocity = np.asarray(velocity, dtype=float)
        self.dim = self.velocity.size
        self.metric = metric
        if zero_potential and np.any(self.velocity != 0.0):
            raise StructureError("a zero-potential raw leaf must have v = 0")
        if zero_potential and learnable:
            raise StructureError("a zero-potential raw leaf cannot be learnable")
        self._zero_potential = bool(zero_potential)
        self.n_params = self.dim
        if not learnable:
            self.freeze()

    def init_values(self):
        return self.velocity.copy()

    def evaluate(self, z, params, parent_coord=None):
        v = self.weights(params)
        M = self.metric.value(z, params)
        return M @ v, M

    def potential(self, z, params):
        return 0.0 if self._zero_potential else None

    def vjp(self, z, params, cot_p, cot_M, grad_out, parent_coord=None):
        v = self.weights(params)
        M = self.metric.value(z, params)
        # p = M v couples the force cotangent into the metric cotangent.
        S = cot_M + np.outer(cot_p, v)
        c_z = self.metric.param_vjp(z, params, S, grad_out)
        if self.is_learnable:
            grad_out[self.param_slice] += M @ cot_p
        return c_z

    def components(self):
        return [("velocity", self), ("metric", self.metric)]


class NaturalGradientLeaf(LeafPolicy):
    """Leaf driven by a potential: ``p = -grad(Phi)``, ``M`` from a metric.

    The force never goes through ``M^{-1}``; the pair ``(p, M)`` already
    encodes ``v = -M^{-1} grad(Phi)`` implicitly. ``metric_input``
    selects whether the metric network sees the leaf coordinate
    ("latent") or the parent node coordinate ("subtask").
    """

    kind = "natural_gradient"

    def __init__(self, dim, potential: Potential, metric: Metric,
                 metric_input: str = "latent"):
        self.dim = int(dim)
        self.pot = potential
        self.metric = metric
        if metric_input not in ("latent", "subtask"):
            raise StructureError("metric_input must be 'latent' or 'subtask'")
        self.metric_input = metric_input

    def _metric_coord(self, z, parent_coord):
        if self.metric_input == "subtask":
            if parent_coord is None:
                raise StructureError(
                    "metric_input='subtask' needs the parent coordinate"
                )
            return parent_coord
        return z

    def evaluate(self, z, params, parent_coord=None):
        p = -self.pot.grad(z, params)
        M = self.metric.value(self._metric_coord(z, parent_coord), params)
        return p, M

    def potential(self, z, params):
        return self.pot.value(z, params)

    def vjp(self, z, params, cot_p, cot_M, grad_out, parent_coord=None):
        x_m = self._metric_coord(z, parent_coord)
        c_z = self.pot.grad_param_vjp(z, params, -cot_p, grad_out)
        c_m = self.metric.param_vjp(x_m, params, cot_M, grad_out)
        if self.metric_input == "latent":
            c_z = c_z + c_m
        return c_z

    def components(self):
        return [("metric", self.metric)]


# ---------------------------------------------------------------------------
# Handcrafted leaves
# ---------------------------------------------------------------------------


def handcrafted_damper(gain, dim) -> RawVMLeaf:
    """Zero-velocity leaf with weight ``gain * I``; pulls the composed
    policy toward rest. Carries the constant potential 0."""
    if gain <= 0:
        raise StructureError("damper gain must be positive")
    return RawVMLeaf(np.zeros(int(dim)), ConstantMetric.scaled_identity(gain, dim),
                     zero_potential=True)


def handcrafted_attractor(goal, gain=1.0, weight=1.0) -> NaturalGradientLeaf:
    """Quadratic pull toward ``goal`` with constant weight ``weight * I``."""
    goal = np.asarray(goal, dtype=float)
    return NaturalGradientLeaf(
        goal.size,
        QuadraticPotential(goal, gain),
        ConstantMetric.scaled_identity(weight, goal.size),
    )


def handcrafted_barrier(margin, gain=1.0, weight=1.0) -> NaturalGradientLeaf:
    """Repulsive leaf for a 1-D distance coordinate.

    Inert beyond ``margin``; force and weight both grow as the distance
    shrinks. The exact potential is ``gain * max(0, margin - z)^2 / z``
    and the weight ``weight * (margin / z)^2``.
    """
    return NaturalGradientLeaf(
        1, BarrierPotential(margin, gain), InverseSquareMetric(weight, margin)
    )
