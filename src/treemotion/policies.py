"""Leaf policies: desired velocities paired with importance-weight matrices.

A leaf reports the pair ``(p, M)`` where ``p = M v`` is the weighted
force and ``M`` the SPD importance weight. Natural-gradient leaves are
defined by a potential and a metric and report ``p = -grad(Phi)``
directly (no inverse is ever formed), which is what makes the composed
root policy a natural gradient flow. Raw leaves carry an explicit
velocity and metric; the handcrafted damper/attractor/barrier are thin
constructors over these two classes.

Every leaf also exposes the reverse-mode hook used by the gradient
engine, the per-leaf baseline and ``gradcheck``: given cotangents on
``(p, M)``, ``vjp`` returns ``(c_z, rows)``, the cotangent on the leaf's
input (needed below a learnable edge map) and the weight gradient as
``(slice, R)`` pairs to add, in order, into ``grad[slice]``. It is built
from one reverse rule per component, ``Potential.grad_param_vjp`` and
``Metric.param_vjp``, each returning its input's cotangent and its rows.

Every forward returns its record, which may be ``None``, and the
matching reverse rule receives it as ``tape``: ``Potential.grad_tape``
feeds ``grad_param_vjp``, ``Metric.value_tape`` feeds ``param_vjp``, and
``LeafPolicy.evaluate`` -> ``(p, M, record)`` feeds ``LeafPolicy.vjp``,
which hands each component its own part. No reverse rule evaluates its
forward again.

Each rule has a ``stacked_*`` twin on ``(N, d)`` inputs with a leading
sample axis, whose rows ``R`` are ``(N, n)``: row ``k`` is sample ``k``'s.
The inherited twins loop the per-sample method (their records are lists
of per-sample records, their rows full-width), so a custom component
implements only the per-sample contract. The built-ins write each
reverse rule once, a leaf's calling its components' rules by rank, with
the bits of that loop. A class that overrides a stacked forward
overrides its stacked reverse too, as the two share the record's layout.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, StructureError, as_integer
from .maps import AS_COLUMN, AS_ROW, DiffeoChain, stacked_mv
from .params import Learnable


def _looped_rows(params, n, vjp):
    """A stacked reverse rule from a per-sample one, ``vjp(k)`` -> sample
    ``k``'s ``(cotangent, rows)``: the stacked cotangents, and each sample's
    rows added in order into row ``k`` of a zeroed ``(n, params.size)``
    buffer, returned as full-width rows. That gives each sample's bits when
    the rule adds into each weight at most once, as every rule here does."""
    G = np.zeros((n, params.size))
    cots = []
    for k in range(n):
        c, rows = vjp(k)
        for where, R in rows:
            G[k, where] += R
        cots.append(c)
    return np.stack(cots), [(slice(None), G)]


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

    def grad_tape(self, z, params):
        """``(grad(z), tape)`` for ``grad_param_vjp`` at the same weights."""
        return self.grad(z, params), None

    def stacked_grad_tape(self, Z, params):
        """``grad_tape`` of each row of ``Z``: the stacked gradients and
        the list of tapes."""
        pairs = [self.grad_tape(z, params) for z in Z]
        return np.stack([g for g, _ in pairs]), [t for _, t in pairs]

    def grad_param_vjp(self, z, params, cot, tape):
        """``((d grad / d z)^T cot, rows of (d grad / d theta)^T cot)``, on
        the tape ``grad_tape`` recorded at ``z`` and the same weights."""
        raise NotImplementedError

    def stacked_grad_param_vjp(self, Z, params, cot, tape):
        """``grad_param_vjp`` of each row, on ``stacked_grad_tape``'s tape."""
        return _looped_rows(params, len(Z), lambda k: self.grad_param_vjp(
            Z[k], params, cot[k], tape[k]))


class ZeroPotential(Potential):
    def value(self, z, params):
        return 0.0

    def grad(self, z, params):
        return np.zeros_like(np.asarray(z, dtype=float))

    stacked_grad_tape = Potential.grad_tape  # grad takes a stack too

    def grad_param_vjp(self, z, params, cot, tape):
        return np.zeros_like(np.asarray(cot, dtype=float)), []

    stacked_grad_param_vjp = grad_param_vjp


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

    stacked_grad_tape = Potential.grad_tape  # grad takes a stack too

    def grad_param_vjp(self, z, params, cot, tape):
        return self.gain * cot, []

    stacked_grad_param_vjp = grad_param_vjp


class LatentQuadraticPotential(Potential):
    """Quadratic potential in a latent space reached through a diffeo chain.

    The goal is pinned in the parent (subtask) coordinates; its latent
    image moves with the chain weights, so the potential stays minimized
    exactly at the task goal however the chain deforms. The image and
    its weight gradient read one forward tape, ``chain.value_tape``,
    which the potential keeps for its own goal: several potentials can
    share one chain without rebuilding each other's tapes.
    """

    def __init__(self, goal, chain: DiffeoChain):
        self.goal = np.asarray(goal, dtype=float)
        if not isinstance(chain, DiffeoChain):
            raise StructureError("latent quadratic potential needs a diffeo chain")
        if chain.in_dim != self.goal.size:
            raise StructureError("latent potential goal dimension != chain dimension")
        self.chain = chain
        # (weight and goal bytes, image, tape) of the last goal tape
        self._tape = None

    def _goal_tape(self, params):
        """``(image, tape)`` of the chain at the goal, rebuilt only when
        the bytes of the chain weights or of the goal change. Callers may
        write ``params.values`` in place, so the memo compares one byte
        string: it tells -0.0 from 0.0 and keeps a tape with NaN weights,
        as an uncached evaluation would give the same bits."""
        key = self.chain.weights(params).tobytes() + self.goal.tobytes()
        memo = self._tape
        if memo is None or memo[0] != key:
            memo = self._tape = (key, *self.chain.value_tape(self.goal, params))
        return memo[1], memo[2]

    def goal_image(self, params):
        """``chain(goal)``, read-only, recomputed only when the chain
        weights or the goal change."""
        return self._goal_tape(params)[0]

    def value(self, z, params):
        d = z - self.goal_image(params)
        return 0.5 * float(d @ d)

    def grad(self, z, params):
        return z - self.goal_image(params)

    def grad_tape(self, z, params):
        # One input or a stack: every row reads the one goal tape.
        image, tape = self._goal_tape(params)
        return z - image, tape

    stacked_grad_tape = grad_tape

    def grad_param_vjp(self, z, params, cot, tape):
        # grad Phi = z - chain(goal): only the goal image carries weights,
        # and every row of a stack reverses the one goal tape.
        cot = np.asarray(cot, dtype=float)
        chain = self.chain
        value_vjp = chain.stacked_value_vjp if cot.ndim > 1 else chain.value_vjp
        return cot, value_vjp(self.goal, params, -cot, tape)

    stacked_grad_param_vjp = grad_param_vjp


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

    def grad_param_vjp(self, z, params, cot, tape):
        z0 = self._z(z)
        if z0 >= self.margin:
            return np.zeros(1), []
        return np.array([2.0 * self.gain * self.margin**2 / z0**3]) * cot, []


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

    def value_tape(self, x, params):
        """``(value(x), tape)`` for ``param_vjp`` at the same weights."""
        return self.value(x, params), None

    def stacked_value_tape(self, X, params):
        """``value_tape`` of each row of ``X``: the stacked matrices and
        the list of tapes."""
        pairs = [self.value_tape(x, params) for x in X]
        return np.stack([M for M, _ in pairs]), [t for _, t in pairs]

    def param_vjp(self, x, params, S, tape):
        """The gradient of ``<S, M(x)>`` with respect to ``x`` and the rows
        of its weight gradient, on the tape ``value_tape`` recorded at
        ``x`` and the same weights; here zeros and no rows."""
        return np.zeros_like(np.asarray(x, dtype=float)), []

    def stacked_param_vjp(self, X, params, S, tape):
        """``param_vjp`` of each row, on ``stacked_value_tape``'s tape."""
        return _looped_rows(params, len(X), lambda k: self.param_vjp(
            X[k], params, S[k], tape[k]))


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
        return cls(float(scale) * np.eye(as_integer(dim, "dim")))

    def value(self, x, params):
        return self.matrix

    def stacked_value_tape(self, X, params):
        return np.broadcast_to(self.matrix, (len(X), *self.matrix.shape)), None

    stacked_param_vjp = Metric.param_vjp


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

    def param_vjp(self, x, params, S, tape):
        z0 = self._z(x)
        dm = -2.0 * self.weight * self.margin**2 / z0**3
        return np.array([float(S[0, 0]) * dm]), []


class CholeskyMetricNet(Metric):
    """SPD matrix ``M = L L^T`` with ``L`` produced by a small ReLU network.

    A shared trunk feeds two linear heads: one for the ``n`` diagonal
    entries (passed through ``|.| + eps`` so they stay strictly
    positive) and one for the ``n(n-1)/2`` strictly-lower entries. The
    construction guarantees ``min eig(M) > 0`` for any weights.
    """

    def __init__(self, dim, in_dim=None, hidden=(64, 64), eps=1e-4, seed=0,
                 learnable=True):
        self.dim = as_integer(dim, "dim")
        self.in_dim = self.dim if in_dim is None else as_integer(in_dim, "in_dim")
        if eps <= 0:
            raise StructureError("Cholesky diagonal bias eps must be positive")
        self.eps = float(eps)
        self.hidden = tuple(as_integer(h, "hidden") for h in hidden)
        if any(h < 1 for h in self.hidden):
            raise StructureError("hidden layer sizes must be positive")
        self.n_off = self.dim * (self.dim - 1) // 2
        # the strictly-lower and the diagonal entries of (..., dim, dim)
        self._tril = (Ellipsis, *np.tril_indices(self.dim, -1))
        self._diag = (Ellipsis, *np.diag_indices(self.dim))
        self._seed = as_integer(seed, "seed", minimum=0)
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
        """Seeded init: He-scaled trunk (std ``sqrt(2 / fan_in)``), small
        heads (std ``0.1 / sqrt(fan_in)``), diagonal bias at 1.

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
                    rng.normal(0.0, 0.1 / np.sqrt(shape[1]), size=shape).ravel()
                )
        return np.concatenate(chunks)

    def _weights(self, params):
        """The weight arrays, views built once per weight vector."""
        return self.weight_views(params, self._split)

    def _split(self, block):
        return tuple(block[start:stop].reshape(shape) for start, stop, shape in self._views)

    def decompose(self, x, params):
        """``(L, M, record)`` at one input, or at a stack ``(N, in_dim)``
        with a leading sample axis on every array: ``L`` lower-triangular,
        ``M = L L^T``, and ``param_vjp``'s record
        ``(weights, acts, pres, d_raw, L)``."""
        weights = self._weights(params)
        h = np.asarray(x, dtype=float)
        mv = stacked_mv if h.ndim > 1 else np.matmul  # one input: the plain A @ x
        acts, pres = [h], []
        for i in range(len(self.hidden)):
            pre = mv(weights[2 * i], h) + weights[2 * i + 1]
            pres.append(pre)
            h = np.maximum(pre, 0.0)
            acts.append(h)
        k = 2 * len(self.hidden)
        d_raw = mv(weights[k], h) + weights[k + 1]
        L = np.zeros(h.shape[:-1] + (self.dim, self.dim))
        L[self._diag] = np.abs(d_raw) + self.eps
        if self.n_off:
            L[self._tril] = mv(weights[k + 2], h) + weights[k + 3]
        M = L @ L.swapaxes(-1, -2)
        return L, 0.5 * (M + M.swapaxes(-1, -2)), (weights, acts, pres, d_raw, L)

    def value(self, x, params):
        return self.decompose(x, params)[1]

    def value_tape(self, x, params):
        return self.decompose(x, params)[1:]

    stacked_value_tape = value_tape

    def param_vjp(self, x, params, S, tape):
        """:meth:`Metric.param_vjp` on ``decompose``'s record at ``x``."""
        return self.stacked_param_vjp(x, params, S, tape)

    def stacked_param_vjp(self, X, params, S, tape):
        """``param_vjp`` on ``decompose``'s record, for one input or a
        stack: ``(input cotangents, rows)``, the net's one reverse body."""
        weights, acts, pres, d_raw, L = tape
        lead, k = d_raw.shape[:-1], 2 * len(self.hidden)
        mv = stacked_mv if lead else np.matmul  # one input: the plain A @ x
        # M = L L^T: cotangent on L is (S + S^T) L for any (possibly
        # asymmetric) cotangent S on M.
        GL = np.matmul(S + S.swapaxes(-1, -2), L)
        cd = np.sign(d_raw) * GL[self._diag]
        grads = [None] * len(self._shapes)
        grads[k] = cd[AS_COLUMN] * acts[-1][AS_ROW]
        grads[k + 1] = cd
        ch = mv(weights[k].T, cd)
        if self.n_off:
            co = GL[self._tril]
            grads[k + 2] = co[AS_COLUMN] * acts[-1][AS_ROW]
            grads[k + 3] = co
            ch = ch + mv(weights[k + 2].T, co)
        for i in range(len(self.hidden) - 1, -1, -1):
            cpre = ch * (pres[i] > 0)
            grads[2 * i] = cpre[AS_COLUMN] * acts[i][AS_ROW]
            grads[2 * i + 1] = cpre
            ch = mv(weights[2 * i].T, cpre)
        if not self.is_learnable:
            return ch, []
        rows = np.empty(lead + (self.n_params,))
        for g, (start, stop, _) in zip(grads, self._views):
            rows[..., start:stop] = g.reshape(lead + (-1,))
        return ch, [(self.param_slice, rows)]

    def input_vjp(self, x, params, S):
        # Kept only as a target of the perfbench per-layer tracer.
        return self.param_vjp(x, params, S, self.decompose(x, params)[2])[0]


# ---------------------------------------------------------------------------
# Leaf policies
# ---------------------------------------------------------------------------


class LeafPolicy:
    """Base leaf policy: reports ``(p, M)`` at a leaf node."""

    kind: str
    dim: int

    def evaluate(self, z, params, parent_coord=None):
        """``(p, M, record)``; ``record`` (possibly ``None``) is ``vjp``'s
        ``tape``."""
        raise NotImplementedError

    def stacked_evaluate(self, Z, params, parent_coords=None):
        """``(P, M, record)``: ``evaluate`` of each row of ``Z`` (and of
        ``parent_coords``, if given); ``record`` is ``stacked_vjp``'s
        ``tape``, here the list of per-sample records."""
        parents = [None] * len(Z) if parent_coords is None else parent_coords
        out = [self.evaluate(z, params, parent_coord=x) for z, x in zip(Z, parents)]
        return (np.stack([p for p, _, _ in out]), np.stack([M for _, M, _ in out]),
                [r for _, _, r in out])

    def potential(self, z, params):
        """Potential value, or None for leaves without one."""
        return None

    def vjp(self, z, params, cot_p, cot_M, tape, parent_coord=None):
        """``(cotangent on z, rows)``: the leaf's weight gradient as rows,
        on the record ``tape`` that ``evaluate`` returned at ``z``."""
        raise NotImplementedError

    def stacked_vjp(self, Z, params, cot_p, cot_M, tape, parent_coords=None):
        """``vjp`` of each row on ``stacked_evaluate``'s record."""
        parents = [None] * len(Z) if parent_coords is None else parent_coords
        return _looped_rows(params, len(Z), lambda k: self.vjp(
            Z[k], params, cot_p[k], cot_M[k], tape=tape[k], parent_coord=parents[k]))

    def components(self):
        """Every weight-carrying part ``(p, M)`` reads, as ``(suffix,
        component)`` pairs (a latent goal's chain included); a tree binds
        the learnable ones, each once."""
        return []

    def reads_weights(self) -> bool:
        """Whether ``(p, M)`` depends on learnable weights; ``vjp`` returns
        no rows when it does not."""
        return any(comp.is_learnable for _, comp in self.components())


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
        """``(p, M, (M, metric tape))``."""
        v = self.weights(params)
        M, metric_tape = self.metric.value_tape(z, params)
        return M @ v, M, (M, metric_tape)

    def stacked_evaluate(self, Z, params, parent_coords=None):
        M, metric_tape = self.metric.stacked_value_tape(Z, params)
        return stacked_mv(M, self.weights(params)), M, (M, metric_tape)

    def potential(self, z, params):
        return 0.0 if self._zero_potential else None

    def vjp(self, z, params, cot_p, cot_M, tape, parent_coord=None):
        return self.stacked_vjp(z, params, cot_p, cot_M, tape)

    def stacked_vjp(self, Z, params, cot_p, cot_M, tape, parent_coords=None):
        """The one reverse body of ``vjp``, for one input or a stack."""
        M, metric_tape = tape
        metric, stacked = self.metric, cot_p.ndim > 1
        # p = M v couples the force cotangent into the metric cotangent.
        S = cot_M + cot_p[AS_COLUMN] * self.weights(params)
        param_vjp = metric.stacked_param_vjp if stacked else metric.param_vjp
        c_z, rows = param_vjp(Z, params, S, metric_tape)
        if self.is_learnable:
            mv = stacked_mv if stacked else np.matmul
            rows = rows + [(self.param_slice, mv(M, cot_p))]
        return c_z, rows

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
        self.dim = as_integer(dim, "dim")
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
        """``(p, M, (potential tape, metric tape))``."""
        grad, pot_tape = self.pot.grad_tape(z, params)
        x_m = self._metric_coord(z, parent_coord)
        M, metric_tape = self.metric.value_tape(x_m, params)
        return -grad, M, (pot_tape, metric_tape)

    def stacked_evaluate(self, Z, params, parent_coords=None):
        grad, pot_tape = self.pot.stacked_grad_tape(Z, params)
        X_m = self._metric_coord(Z, parent_coords)
        M, metric_tape = self.metric.stacked_value_tape(X_m, params)
        return -grad, M, (pot_tape, metric_tape)

    def potential(self, z, params):
        return self.pot.value(z, params)

    def vjp(self, z, params, cot_p, cot_M, tape, parent_coord=None):
        return self.stacked_vjp(z, params, cot_p, cot_M, tape, parent_coord)

    def stacked_vjp(self, Z, params, cot_p, cot_M, tape, parent_coords=None):
        """The one reverse body of ``vjp``, for one input or a stack."""
        pot_tape, metric_tape = tape
        X_m = self._metric_coord(Z, parent_coords)
        pot, metric, stacked = self.pot, self.metric, cot_p.ndim > 1
        grad_param_vjp = pot.stacked_grad_param_vjp if stacked else pot.grad_param_vjp
        param_vjp = metric.stacked_param_vjp if stacked else metric.param_vjp
        c_z, rows = grad_param_vjp(Z, params, -cot_p, pot_tape)
        c_m, metric_rows = param_vjp(X_m, params, cot_M, metric_tape)
        if self.metric_input == "latent":
            c_z = c_z + c_m
        return c_z, rows + metric_rows

    def components(self):
        if isinstance(self.pot, LatentQuadraticPotential):
            return [("metric", self.metric), ("goal_chain", self.pot.chain)]
        return [("metric", self.metric)]


# ---------------------------------------------------------------------------
# Handcrafted leaves
# ---------------------------------------------------------------------------


def handcrafted_damper(gain, dim) -> RawVMLeaf:
    """Zero-velocity leaf with weight ``gain * I``; pulls the composed
    policy toward rest. Carries the constant potential 0."""
    if gain <= 0:
        raise StructureError("damper gain must be positive")
    dim = as_integer(dim, "dim")
    return RawVMLeaf(np.zeros(dim), ConstantMetric.scaled_identity(gain, dim),
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
