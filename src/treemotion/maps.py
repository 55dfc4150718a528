"""Differentiable maps used as transform-tree edges.

A map takes coordinates on its parent node to coordinates on its child
node and supplies an analytic Jacobian. Fixed maps (kinematics, distance
fields, linear maps) carry no parameters. The coupling-layer chain is a
parameterized diffeomorphism whose weights live in the shared flat
parameter vector; it additionally provides hand-written reverse-mode
rules for its value and for directional derivatives of its Jacobian,
which the gradient engine relies on.

Conventions
-----------
* ``value_and_jacobian(x, params)`` -> ``(y, J)``: child coordinates,
  shape ``(out_dim,)``, and the Jacobian, shape ``(out_dim, in_dim)``.
  It is the one method a map implements; ``value`` and ``jacobian``
  take its two halves, so the Jacobian ``check`` verifies is the one the
  forward pass uses.
* ``value_jacobian_tape(x, params)`` -> ``(y, J, tape)`` is what the
  forward stage calls on every edge; ``tape`` is the map's forward
  record, ``None`` unless the map overrides it (``DiffeoChain`` does).
  ``pullback_vjp`` receives that tape and reads nothing else recorded.
* ``stacked_value_and_jacobian(X, params)`` -> ``(Y, J)`` evaluates a
  stack of inputs ``(N, in_dim)`` into ``(N, out_dim)`` and
  ``(N, out_dim, in_dim)``. The inherited one loops
  ``value_and_jacobian``; the identity, arm kinematics, distance and
  chains override it with stacked arrays whose every entry is the same
  bits as the per-sample call: products are stacked ``np.matmul`` calls
  with a per-sample or a broadcast operand (on one input ``ndarray.dot``,
  ``products``), and sums run along the last axis. The forward stage
  calls ``stacked_value_jacobian_tape`` on a stack; the inherited one has
  tape ``None``. A custom map implements only the per-sample contract.
* A reverse rule returns its weight gradient as rows, ``(slice, R)``
  pairs to add into ``grad[slice]``, ``R`` being ``(N, n)`` on a stack.
  The chain's ``value_vjp`` and ``pullback_vjp`` call their ``stacked_*``
  twins: one body serves one input and a stack.
* Parameterized maps read their weights through
  :meth:`~treemotion.params.Learnable.weights`: the slice assigned at
  tree construction, or frozen values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, StructureError, as_integer, as_real
from .params import Learnable, ParamVector


# Index tuples of a matrix's columns and rows over any leading axes:
# ``v[AS_COLUMN] * w[AS_ROW]`` is the outer product of the last axes of ``v`` and ``w``.
AS_COLUMN = (Ellipsis, slice(None), None)
AS_ROW = (Ellipsis, None, slice(None))


def stacked_mv(A, X):
    """``A @ x`` for each row ``x`` of ``X``: one stacked matrix-vector
    product per row, the same bits as the per-sample ``A.dot(x)``.

    The promise holds for a C-contiguous stack only, because the product
    kernel numpy picks depends on the strides of the rows: a column-major
    ``(N, 3)`` stack, as fancy indexing returns, gave other last bits. So
    ``X`` is made C-contiguous here, which copies nothing when it is."""
    return np.matmul(A, np.ascontiguousarray(X)[..., None])[..., 0]


def products(stacked):
    """A kernel's ``(mv, mm)`` by rank: ``stacked_mv`` and ``np.matmul`` for a
    stack, ``np.ndarray.dot`` (``@``'s bits without its ufunc dispatch) for one input."""
    return (stacked_mv, np.matmul) if stacked else (np.ndarray.dot, np.ndarray.dot)


def squared_norms(R: np.ndarray) -> np.ndarray:
    """``r @ r`` for each row ``r`` of ``R`` along its last axis, the same
    bits as per row; a scalar for one vector."""
    return np.matmul(R[AS_ROW], R[AS_COLUMN])[..., 0, 0]


class DifferentiableMap(Learnable):
    """Smooth map between node coordinate spaces.

    Subclasses set ``in_dim``/``out_dim`` and implement
    ``value_and_jacobian`` only. Maps are immutable after construction;
    all state mutation goes through the external parameter vector.
    """

    in_dim: int
    out_dim: int

    def value_and_jacobian(self, x: np.ndarray, params: ParamVector | None = None):
        raise NotImplementedError

    def value(self, x: np.ndarray, params: ParamVector | None = None) -> np.ndarray:
        return self.value_and_jacobian(x, params)[0]

    def jacobian(self, x: np.ndarray, params: ParamVector | None = None) -> np.ndarray:
        return self.value_and_jacobian(x, params)[1]

    def value_jacobian_tape(self, x: np.ndarray, params: ParamVector | None = None):
        """``(y, J, tape)``: ``value_and_jacobian`` and the forward record
        ``pullback_vjp`` reads, ``None`` here."""
        return (*self.value_and_jacobian(x, params), None)

    def stacked_value_and_jacobian(self, X: np.ndarray,
                                   params: ParamVector | None = None):
        """``value_and_jacobian`` of each row of ``X``, stacked."""
        pairs = [self.value_and_jacobian(x, params) for x in X]
        return np.stack([y for y, _ in pairs]), np.stack([J for _, J in pairs])

    def stacked_value_jacobian_tape(self, X: np.ndarray,
                                    params: ParamVector | None = None):
        """``(Y, J, tape)`` of the stack ``X``, as ``value_jacobian_tape``:
        ``stacked_value_and_jacobian`` and no tape here."""
        return (*self.stacked_value_and_jacobian(X, params), None)

    # -- gradient support, overridden by parameterized maps ----------------

    def pullback_vjp(self, x, params, cot_value, tangents, cot_tangents, tape):
        """The weight gradient of a pulled-back contraction, as rows.

        Computes ``d/d theta [cot_value . psi(x) + sum_k cot_tangents[:, k]
        . J(x) tangents[:, k]]``. ``x`` is treated as a constant;
        ``tangents`` is ``(in_dim, K)`` and ``cot_tangents`` is
        ``(out_dim, K)``. ``tape`` is the one ``value_jacobian_tape``
        recorded at ``x`` and these weights.
        """
        if self.is_learnable:
            raise NotImplementedError
        return []


class IdentityMap(DifferentiableMap):
    def __init__(self, dim: int):
        self.in_dim = self.out_dim = as_integer(dim, "dim", minimum=1)
        self._eye = np.eye(self.in_dim)

    def value_and_jacobian(self, x, params=None):
        return np.asarray(x, dtype=float), self._eye

    def stacked_value_and_jacobian(self, X, params=None):
        return X, np.broadcast_to(self._eye, (len(X), self.in_dim, self.in_dim))


class LinearMap(DifferentiableMap):
    """``x -> A x + b`` with constant ``A`` (and optional offset ``b``)."""

    def __init__(self, matrix: np.ndarray, offset: np.ndarray | None = None):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise StructureError("linear map matrix must be 2-D")
        self.out_dim, self.in_dim = self.matrix.shape
        self.offset = (
            np.zeros(self.out_dim) if offset is None else np.asarray(offset, dtype=float)
        )
        if self.offset.shape != (self.out_dim,):
            raise StructureError("linear map offset has the wrong length")

    def value_and_jacobian(self, x, params=None):
        return self.matrix @ x + self.offset, self.matrix


class PlanarArmFK(DifferentiableMap):
    """Forward kinematics of a planar revolute chain.

    Maps joint angles to the 2-D position of the end of link ``point``
    (1-based index, or ``"ee"`` for the last link). Input keeps the full
    joint vector; columns for joints past ``point`` are zero.
    """

    def __init__(self, lengths, point="ee"):
        lengths = np.asarray(lengths, dtype=float)
        if lengths.ndim != 1 or lengths.size == 0 or np.any(lengths <= 0):
            raise StructureError("link lengths must be a nonempty positive vector")
        self.lengths = lengths
        n = lengths.size
        point = n if point == "ee" else as_integer(point, "point")
        if not 1 <= point <= n:
            raise StructureError(f"point must be in 1..{n} or 'ee', got {point}")
        self.point = point
        self.in_dim = n
        self.out_dim = 2

    def value_and_jacobian(self, x, params=None):
        c = np.add.accumulate(np.asarray(x, dtype=float)[: self.point])
        # Rows L_i cos c_i and L_i sin c_i; the position sums them, and
        # d x / d q_j = -sum_{i >= j} L_i sin c_i  (and +cos for the y row).
        T = self.lengths[: self.point] * np.array((np.cos(c), np.sin(c)))
        tails = np.add.accumulate(T[:, ::-1], axis=1)[:, ::-1]
        J = np.zeros((2, self.in_dim))
        J[0, : self.point] = -tails[1]
        J[1, : self.point] = tails[0]
        return np.add.reduce(T, axis=1), J

    def stacked_value_and_jacobian(self, X, params=None):
        c = np.cumsum(X[:, : self.point], axis=-1)
        L = self.lengths[: self.point]
        sx = L * np.sin(c)
        cx = L * np.cos(c)
        J = np.zeros((len(X), 2, self.in_dim))
        J[:, 0, : self.point] = -np.cumsum(sx[:, ::-1], axis=-1)[:, ::-1]
        J[:, 1, : self.point] = np.cumsum(cx[:, ::-1], axis=-1)[:, ::-1]
        return np.stack([cx.sum(axis=-1), sx.sum(axis=-1)], axis=-1), J


class DistanceToPoint(DifferentiableMap):
    """Euclidean distance to a fixed point; 1-D output.

    The Jacobian is undefined at the center, so evaluation within
    ``1e-9`` of it raises ``DomainError`` instead of returning garbage.
    """

    DEGENERATE_RADIUS = 1e-9

    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)
        self.in_dim = self.center.size
        self.out_dim = 1

    def value_and_jacobian(self, x, params=None):
        delta = np.asarray(x, dtype=float) - self.center
        r = math.sqrt(delta.dot(delta))  # np.linalg.norm(delta)'s expression
        if r < self.DEGENERATE_RADIUS:
            raise self._degenerate()
        return np.array([r]), (delta / r)[None, :]

    def stacked_value_and_jacobian(self, X, params=None):
        delta = X - self.center
        r = np.sqrt(squared_norms(delta))
        if (r < self.DEGENERATE_RADIUS).any():
            raise self._degenerate()
        return r[:, None], (delta / r[:, None])[:, None, :]

    def _degenerate(self) -> DomainError:
        return DomainError(
            f"distance map evaluated within {self.DEGENERATE_RADIUS} of its center"
        )


# ---------------------------------------------------------------------------
# Random Fourier features
# ---------------------------------------------------------------------------


class RFFNet:
    """Linear function over random Fourier features of a Gaussian kernel.

    Features are ``sqrt(2/D) cos(alpha_i . x + beta_i)`` with
    ``alpha_i ~ N(0, l^-2 I)`` and ``beta_i ~ U[0, 2pi)``, drawn once at
    construction and frozen; only the linear weights ``theta`` (shape
    ``(D, out_dim)``) are learnable. The vector-valued function is
    ``theta^T f(x)``, equivalently ``(f(x) kron I)^T vec(theta)``.
    """

    def __init__(self, in_dim, out_dim, n_features, length_scale=1.0, seed=0,
                 frequencies=None, phases=None):
        self.in_dim = as_integer(in_dim, "in_dim", minimum=1)
        self.out_dim = as_integer(out_dim, "out_dim", minimum=1)
        self.n_features = as_integer(n_features, "n_features", minimum=1)
        self.length_scale = as_real(length_scale, "length_scale", "> 0")
        rng = np.random.default_rng(as_integer(seed, "seed", minimum=0))
        if frequencies is None:
            frequencies = rng.normal(0.0, 1.0 / self.length_scale,
                                     size=(self.n_features, self.in_dim))
        if phases is None:
            phases = rng.uniform(0.0, 2.0 * np.pi, size=self.n_features)
        self.frequencies = np.asarray(frequencies, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        if self.frequencies.shape != (self.n_features, self.in_dim):
            raise StructureError("frequency matrix has the wrong shape")
        if self.phases.shape != (self.n_features,):
            raise StructureError("phase vector has the wrong length")
        self._scale = np.sqrt(2.0 / self.n_features)

    @property
    def n_weights(self) -> int:
        return self.n_features * self.out_dim

    def features(self, x) -> np.ndarray:
        """Feature vector ``sqrt(2/D) cos(A x + beta)``, shape ``(D,)``."""
        return self._scale * np.cos(self.frequencies @ x + self.phases)

    def features_and_slope(self, x):
        """Features plus ``g = -sqrt(2/D) sin(A x + beta)`` (``df = g * A dx``)."""
        h = self.frequencies @ x + self.phases
        return self._scale * np.cos(h), -self._scale * np.sin(h)

    def value(self, x, theta) -> np.ndarray:
        """``theta^T features(x)`` for weights ``theta`` of shape ``(D, out_dim)``."""
        return theta.T @ self.features(x)


# ---------------------------------------------------------------------------
# Coupling layers and diffeomorphism chains
# ---------------------------------------------------------------------------


class CouplingLayer:
    """One invertible scale-and-shift block of a coupling chain.

    The passive half ``a`` (floor(n/2) coordinates) passes through; the
    active half ``b`` becomes ``b * exp(s(a)) + t(a)``. ``flip`` selects
    whether ``a`` is the leading or the trailing block, so stacking
    layers with alternating ``flip`` transforms every coordinate.
    Bijective for any weights since ``exp`` never vanishes.

    The s-net and the t-net read the same ``a``, so the layer owns one
    bank of both nets' frequencies ``[A_s; A_t]`` and phases
    ``[beta_s; beta_t]``, and the nets hold views of its two halves. The
    kernels evaluate the bank with one product, one ``cos`` and one
    ``sin``; each net's half of the result is the same bits as its own
    ``features_and_slope`` (for ``D >= 2``: with one feature numpy takes
    a dot product instead, which may differ in the last bit).
    """

    def __init__(self, dim, flip, n_features, length_scale, seed):
        dim = as_integer(dim, "dim")
        if dim < 2:
            raise StructureError("coupling layers need dimension >= 2")
        self.dim = dim
        na = dim // 2
        idx = np.arange(dim)
        if flip:
            self._sa, self._sb = slice(dim - na, dim), slice(0, dim - na)
        else:
            self._sa, self._sb = slice(0, na), slice(na, dim)
        self.ia, self.ib = idx[self._sa], idx[self._sb]
        self.flip = bool(flip)
        nets = [RFFNet(na, dim - na, n_features, length_scale, seed=seed + k)
                for k in (0, 1)]
        self._bank = np.concatenate([net.frequencies for net in nets])
        self._phases = np.concatenate([net.phases for net in nets])
        D = self._D = nets[0].n_features
        halves = (slice(0, D), slice(D, 2 * D))  # the s-net's and the t-net's
        for net, half in zip(nets, halves):
            net.frequencies, net.phases = self._bank[half], self._phases[half]
        self.s_net, self.t_net = nets
        self._scale = nets[0]._scale
        self.n_weights = 2 * self.s_net.n_weights
        self._eye = np.eye(dim)
        # The halves a, b, s and t of (..., dim) and (..., 2D) vectors and
        # the same rows of (..., dim, T) and (..., 2D, T) tangent matrices.
        parts = (self._sa, self._sb, *halves)
        self._at_a, self._at_b, self._at_s, self._at_t = ((Ellipsis, p) for p in parts)
        self._rows_a, self._rows_b, self._rows_s, self._rows_t = (
            (Ellipsis, p, slice(None)) for p in parts)

    def forward(self, y, theta_s, theta_t):
        a, out = y[self._sa], y.copy()
        s, t = self.s_net.value(a, theta_s), self.t_net.value(a, theta_t)
        out[self._sb] = y[self._sb] * np.exp(s) + t
        return out

    def inverse(self, y, theta_s, theta_t):
        a, out = y[self._sa], y.copy()
        s, t = self.s_net.value(a, theta_s), self.t_net.value(a, theta_t)
        out[self._sb] = (y[self._sb] - t) * np.exp(-s)
        return out

    def _features(self, bank_a):
        """The bank's features and slopes from ``[A_s; A_t] a``."""
        h = bank_a + self._phases
        return self._scale * np.cos(h), -self._scale * np.sin(h)

    def value_jacobian_tape(self, y, theta_s, theta_t):
        """``(forward(y), jacobian(y), entry)`` from one bank evaluation.

        Every entry is computed by the same expressions, in the same
        order, as the separate evaluations, so both results are
        bit-identical to them. ``entry``, the layer's tape for the reverse
        pass, is ``(b, bE, f, g, E, theta_s, theta_t)`` with ``bE = b * E``
        and the bank's features ``f = [f_s; f_t]`` and slopes
        ``g = [g_s; g_t]`` (length ``2D``).
        """
        D = self._D
        a = y[self._sa]
        b = y[self._sb]
        f, g = self._features(self._bank.dot(a))
        E = np.exp(theta_s.T.dot(f[:D]))
        bE = b * E
        out = y.copy()
        out[self._sb] = bE + theta_t.T.dot(f[D:])
        J = self._eye.copy()
        J[self.ib, self.ib] = E
        G = g[:, None] * self._bank
        dba = bE[:, None] * theta_s.T.dot(G[:D])
        dba += theta_t.T.dot(G[D:])
        J[self._sb, self._sa] = dba
        return out, J, (b, bE, f, g, E, theta_s, theta_t)

    def jacobian(self, y, theta_s, theta_t):
        return self.value_jacobian_tape(y, theta_s, theta_t)[1]

    def stacked_value_jacobian_tape(self, Y, theta_s, theta_t):
        """``value_jacobian_tape`` of each row of ``Y``, by the same
        expressions on stacked arrays; the entry's arrays gain a leading
        sample axis, the weights stay shared."""
        D = self._D
        a = Y[:, self._sa]
        b = Y[:, self._sb]
        f, g = self._features(stacked_mv(self._bank, a))
        E = np.exp(stacked_mv(theta_s.T, f[:, :D]))
        bE = b * E
        out = Y.copy()
        out[:, self._sb] = bE + stacked_mv(theta_t.T, f[:, D:])
        J = np.tile(self._eye, (len(Y), 1, 1))
        J[:, self.ib, self.ib] = E
        G = g[:, :, None] * self._bank
        dba = bE[:, :, None] * np.matmul(theta_s.T, G[:, :D])
        dba += np.matmul(theta_t.T, G[:, D:])
        J[:, self._sb, self._sa] = dba
        return out, J, (b, bE, f, g, E, theta_s, theta_t)


class DiffeoChain(DifferentiableMap):
    """Diffeomorphism built from stacked coupling layers.

    Layers alternate their passive/active split; weights start at zero
    so a fresh chain is exactly the identity. Besides value/Jacobian/
    inverse, the chain implements the two reverse-mode entry points the
    gradient engine needs: the weight gradient of its value at a fixed
    input, and the weight gradient of ``J(x) v`` contracted against
    cotangent directions. Both reverse a tape that ``value_jacobian_tape``
    records from the layers' fused kernels, one entry
    ``(b, bE, f, g, E, theta_s, theta_t)`` per layer (see
    :meth:`CouplingLayer.value_jacobian_tape`), which the forward stage keeps
    for a chain edge; ``pullback_vjp`` first pushes its tangents through
    the taped layers, which captures how the layer Jacobians move with
    their inputs. A latent goal keeps the ``value_tape`` of its own goal,
    so its image and its ``value_vjp`` read the same one. One input and a
    stack run the same layer loop and the same reverse body, indexed over
    an optional leading sample axis; only the layers keep a per-sample
    kernel beside the stacked one. The layer weight views are built once
    per parameter vector (``Learnable.weight_views``).
    """

    def __init__(self, dim, n_layers=4, n_features=128, length_scale=1.0,
                 seed=0, learnable=True, init_scale=0.0):
        dim = as_integer(dim, "dim")
        if dim < 2:
            raise StructureError(
                "diffeo chains need dimension >= 2 (the coupling split is "
                "impossible in 1-D)"
            )
        n_layers = as_integer(n_layers, "n_layers", minimum=1)
        n_features = as_integer(n_features, "n_features")
        seed = as_integer(seed, "seed", minimum=0)
        self._init_scale = as_real(init_scale, "init_scale", ">= 0")
        self.in_dim = self.out_dim = dim
        self.layers = [
            CouplingLayer(dim, flip=bool(m % 2), n_features=n_features,
                          length_scale=length_scale, seed=1000 * seed + 2 * m)
            for m in range(n_layers)
        ]
        # per layer (lo, mid, hi, shape): theta_s = block[lo:mid], theta_t = block[mid:hi]
        self._spans, hi = [], 0
        for ly in self.layers:
            lo, mid, hi = hi, hi + ly.s_net.n_weights, hi + ly.n_weights
            self._spans.append((lo, mid, hi, (ly.s_net.n_features, ly.s_net.out_dim)))
        self.n_params = hi
        self._seed = seed
        if not learnable:
            self.freeze()
        self._eye = np.eye(dim)

    def init_values(self) -> np.ndarray:
        size = self._spans[-1][2]
        if self._init_scale == 0.0:
            return np.zeros(size)
        rng = np.random.default_rng(self._seed + 17)
        return rng.normal(0.0, self._init_scale, size=size)

    def _layer_thetas(self, block):
        """Each layer's ``(theta_s, theta_t)``: two views of ``block``."""
        return tuple((block[lo: mid].reshape(shape), block[mid: hi].reshape(shape))
                     for lo, mid, hi, shape in self._spans)

    def _thetas(self, params):
        """``_layer_thetas`` of the weights, built once per weight vector."""
        return self.weight_views(params, self._layer_thetas)

    def value(self, x, params=None):
        # Cheaper than value_and_jacobian: no layer Jacobians.
        y = np.asarray(x, dtype=float)
        for ly, thetas in zip(self.layers, self._thetas(params)):
            y = ly.forward(y, *thetas)
        return y

    def inverse(self, y, params=None):
        x = np.asarray(y, dtype=float)
        for ly, thetas in reversed(list(zip(self.layers, self._thetas(params)))):
            x = ly.inverse(x, *thetas)
        return x

    def value_and_jacobian(self, x, params=None):
        return self.value_jacobian_tape(x, params)[:2]

    def value_jacobian_tape(self, x, params=None):
        """For one input, or for a stack ``(N, d)`` with stacked layer
        entries. The tape holds views of ``x`` and the weights: write
        neither while it is in use."""
        return self._taped_forward(self._thetas(params), np.asarray(x, dtype=float))

    stacked_value_jacobian_tape = value_jacobian_tape

    def stacked_value_and_jacobian(self, X, params=None):
        return self.stacked_value_jacobian_tape(X, params)[:2]

    # -- reverse-mode support ----------------------------------------------

    def _taped_forward(self, thetas, y):
        """``(y, J, tape)`` through each layer's fused kernel, its stacked
        one for a stack ``(N, d)``, with each layer's ``(theta_s,
        theta_t)`` from ``thetas``."""
        stacked = y.ndim > 1
        _, mm = products(stacked)
        J = self._eye
        tape = []
        for ly, (ts, tt) in zip(self.layers, thetas):
            kernel = ly.stacked_value_jacobian_tape if stacked else ly.value_jacobian_tape
            y, J_layer, entry = kernel(y, ts, tt)
            J = mm(J_layer, J)
            tape.append(entry)
        return y, J, tape

    def _pushed_tangents(self, tape, V):
        """Push tangent columns ``V`` (``(..., d, T)``) through the taped
        layers; returns each layer's ``(Vb, U, W, P, Q)`` for ``_reverse_rows``,
        with the bank's ``U = [A_s; A_t] Va`` and ``W = g * U``."""
        V = np.asarray(V, dtype=float)
        _, mm = products(V.ndim > 2)
        pushed = []
        for ly, (b, bE, f, g, E, ts, tt) in zip(self.layers, tape):
            Vb = V[ly._rows_b]
            U = mm(ly._bank, V[ly._rows_a])
            W = g[AS_COLUMN] * U
            P = mm(ts.T, W[ly._rows_s])                  # (..., nb, T)
            Q = mm(tt.T, W[ly._rows_t])
            pushed.append((Vb, U, W, P, Q))
            if len(pushed) < len(tape):
                V = V.copy()
                V[ly._rows_b] = Vb * E[AS_COLUMN] + bE[AS_COLUMN] * P + Q
        return pushed

    def _reverse_rows(self, tape, cot_y, pushed=None, cot_V=None):
        """The chain's one reverse body: cotangents on the output
        (``(..., d)``) and on the pushed tangents (``(..., d, T)``) back to
        the weight gradient, one ``(n_params,)`` row per sample.

        The chain input is a constant of both entry points, so layer 0
        stops at its weight gradient: no input cotangent is formed.
        Without tangents (``pushed=None``, as ``value_vjp`` runs it) the
        tangent half of each layer would only add zeros, so it is skipped,
        and the tape may be one unbatched tape (a latent goal's), broadcast
        against stacked cotangents. Nothing read here is written.
        """
        cy, cV = np.asarray(cot_y, dtype=float), cot_V
        width = 0 if pushed is None else cV.shape[-1]
        lead = cy.shape[:-1]
        mv, mm = products(cy.ndim > 1)
        rows = np.empty(lead + (self.n_params,))
        for m in range(len(self.layers) - 1, -1, -1):
            ly = self.layers[m]
            b, bE, f, g, E, ts, tt = tape[m]
            fs, ft, gs, gt = f[ly._at_s], f[ly._at_t], g[ly._at_s], g[ly._at_t]
            cb_out = cy[ly._at_b]

            # b' = b * E + t
            cE = cb_out * b
            if width:
                Vb, U, W, P, Q = pushed[m]
                Cb_out = cV[ly._rows_b]
                # Vb' = Vb * E + (b * E) * P + Q, with Q's cotangent Cb_out
                rowsum_P = np.einsum("...it,...it->...i", Cb_out, P)
                rowsum_Vb = np.einsum("...it,...it->...i", Cb_out, Vb)
                cE += rowsum_Vb + b * rowsum_P
                CP = Cb_out * bE[AS_COLUMN]
            # E = exp(s)
            cs = cE * E
            # s = ts^T fs, t = tt^T ft
            gtheta_s = fs[AS_COLUMN] * cs[AS_ROW]
            gtheta_t = ft[AS_COLUMN] * cb_out[AS_ROW]
            if width:
                # P = ts^T (gs * (As Va)),  Q likewise for the t-net
                gtheta_s += mm(W[ly._rows_s], CP.swapaxes(-1, -2))
                gtheta_t += mm(W[ly._rows_t], Cb_out.swapaxes(-1, -2))
            lo, mid, hi, _ = self._spans[m]
            rows[..., lo: mid] = gtheta_s.reshape(lead + (-1,))
            rows[..., mid: hi] = gtheta_t.reshape(lead + (-1,))
            if m == 0:
                return rows

            cb = cb_out * E
            # feature/slope input paths: dfs = gs*(As da), dgs = -fs*(As da)
            dfs = gs * mv(ts, cs)
            dft = gt * mv(tt, cb_out)
            if width:
                CVb = Cb_out * E[AS_COLUMN]
                cb += E * rowsum_P
                CWs = mm(ts, CP)                             # (..., D, T)
                dfs -= fs * np.einsum("...it,...it->...i", CWs, U[ly._rows_s])
                CVa = cV[ly._rows_a] + mm(ly.s_net.frequencies.T, gs[AS_COLUMN] * CWs)
                CWt = mm(tt, Cb_out)
                dft -= ft * np.einsum("...it,...it->...i", CWt, U[ly._rows_t])
                CVa += mm(ly.t_net.frequencies.T, gt[AS_COLUMN] * CWt)
            ca = cy[ly._at_a] + mv(ly.s_net.frequencies.T, dfs)
            ca += mv(ly.t_net.frequencies.T, dft)

            cy = np.empty_like(cy)
            cy[ly._at_a] = ca
            cy[ly._at_b] = cb
            if width:
                cV = np.empty_like(cV)
                cV[ly._rows_a] = CVa
                cV[ly._rows_b] = CVb

    def value_tape(self, x, params=None):
        """``(value, tape)`` at ``x``, built from private copies of ``x``
        and the weights, so nothing else can write the tape. The value
        equals ``value(x, params)`` bit for bit and is read-only, so a
        caller that keeps the pair can share it.
        """
        y, _, tape = self._taped_forward(self._layer_thetas(self.weights(params).copy()),
                                         np.array(x, dtype=float))
        y.flags.writeable = False
        return y, tape

    def value_vjp(self, x, params, cotangent, tape):
        """The rows of ``(d value / d theta)^T cotangent``, on a tape of this
        chain at ``x`` and the same weights."""
        return self.stacked_value_vjp(x, params, cotangent, tape)

    def pullback_vjp(self, x, params, cot_value, tangents, cot_tangents, tape):
        """``pullback_vjp`` of :class:`DifferentiableMap`, on a tape as
        ``value_vjp``."""
        return self.stacked_pullback_vjp(x, params, cot_value, tangents, cot_tangents, tape)

    def stacked_value_vjp(self, X, params, cotangents, tape):
        """``value_vjp`` for one cotangent or for each row of ``(N, d)``
        ``cotangents``: ``[(param_slice, rows)]``, or ``[]`` for a frozen
        chain. ``tape`` is one at ``X``, one input or a stack, or the one
        tape of a single point ``X`` shared by every row."""
        if not self.is_learnable:
            return []
        return [(self.param_slice, self._reverse_rows(tape, cotangents))]

    def stacked_pullback_vjp(self, X, params, cot_value, tangents, cot_tangents,
                             tape):
        """``pullback_vjp`` at one input or each row of a stack ``X``, on
        its ``value_jacobian_tape``, with ``(..., d)`` value and
        ``(..., d, T)`` tangent cotangents; rows as ``stacked_value_vjp``."""
        if not self.is_learnable:
            return []
        pushed = self._pushed_tangents(tape, tangents)
        return [(self.param_slice,
                 self._reverse_rows(tape, cot_value, pushed, cot_tangents))]
