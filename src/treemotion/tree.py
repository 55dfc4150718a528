"""Transform tree and the four-stage velocity-policy composition.

The tree maps a configuration-space root through differentiable edges to
leaf spaces where policies live. The one policy evaluation,
``run_pipeline``, runs four stages and keeps their node states:

1. forward pass: push coordinates root-to-leaves, keeping each edge's
   Jacobian and forward tape (``value_jacobian_tape``), the value's and
   the Jacobian's shapes checked;
2. leaf evaluation: each leaf reports its weighted force ``p = M v``,
   weight ``M`` and forward record, ``(p, M)`` checked finite and of the
   leaf's shape (stage 3 may pass them on without a product);
3. backward pass: pull ``(p, M)`` to the root through ``J^T p`` and
   ``J^T M J``, reusing shared subpaths once. An ``IdentityMap`` edge
   passes its child's ``(p, M)`` through without products, and each
   parent starts from its first child's terms ``+ 0.0``, not a zero
   array. The bits are the same: on finite entries ``I^T x`` differs
   from ``x`` only where ``-0.0`` becomes ``+0.0``, and a sum that starts
   at ``+0.0`` never holds ``-0.0``, so both add alike;
4. resolve: solve ``(M_root + reg I) u = p_root`` for the configuration
   velocity (``solve_root``, the one SPD solve and singularity check,
   with or without the regularization ``reg``; its Cholesky factor also
   serves the reverse pass). It calls LAPACK ``dpotrf``/``dpotrs`` from
   scipy's ``_flapack`` extension, loaded from its file in the folder
   ``importlib.util.find_spec`` reports for scipy, so importing this
   module runs neither scipy's package init nor ``scipy.linalg``'s: the
   routines ``cho_factor``/``cho_solve`` wrap, minus their per-call
   validation, so the results are the same bits.

Each leaf's place in the tree is decided once, in ``TransformTree``'s
``leaf_table`` of ``LeafRow``s; leaf evaluation, the flat solver, the
summed potential, the reverse pass, the subtask loss and the per-leaf
baseline all read it. Whether the reverse pass covers the tree (every
learnable edge map ends at a leaf) is decided at construction too. The
reverse pass reads the tapes and records these stages kept and runs no
forward kernel again.

The first three stages take one state or a stack ``(N, root_dim)`` and
pick their kernels once per call from its rank: per-sample, or the maps'
and leaves' ``stacked_*`` methods and stacked products. ``run_stacked``
runs them on a stack for the passes that need only ``pi`` (losses, line
searches): every array gains a leading sample axis, tapes and records
are kept as in ``run_pipeline``, and each row is the same bits as
``run_pipeline``'s at that state. The entry points that take one state
reject a stack with the per-sample shape error (``one_state``).

``flat_solve`` answers the same weighted least-squares problem without
the tree recursion (explicit root-to-leaf compositions and stacked
normal equations) and is kept deliberately separate so the two routes
can be checked against each other.

Evaluation is a pure function of ``(tree, q, params)``: node states are
freshly allocated scratch owned by the caller, and concurrent
evaluations may share the read-only tree and parameters.

One state through the four stages works on arrays of a few entries,
where numpy's Python-level wrappers (``np.cumsum``, ``ndarray.sum`` and
``.all``, ``np.linalg.norm``, ``np.outer``, ``np.column_stack``) cost
more than their arithmetic. So the per-sample kernels call ufunc methods
(``np.add.accumulate``, ``np.add.reduce``, ``np.minimum.reduce``), dot
products and broadcast products directly, and only where the result is
provably the same bits: the wrapper computes that very expression (the
norm of a vector ``v`` is ``sqrt(v.dot(v))``, an outer product is
``a[:, None] * b``), or the result is exact whatever the order (a
minimum), or it only decides a check (``_all_finite``). ``einsum`` and
products (``maps.products``) keep operands and order: reassociating moves bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import operator
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericError, SingularMetricError, StructureError, as_integer, as_real
from .maps import DiffeoChain, DifferentiableMap, IdentityMap, products
from .params import Learnable, ParamRegistryBuilder, ParamVector
from .policies import LeafPolicy

#: absolute eigenvalue floor below which the root metric counts as singular
SINGULAR_EIG_TOL = 1e-12


def _load_flapack():
    """scipy's ``linalg/_flapack`` extension, without importing scipy.

    ``find_spec`` locates a top-level package without running its
    ``__init__``; the extension is then loaded from its file in the
    package's ``linalg`` folder. ``ImportError`` names the folder searched.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy's LAPACK extension _flapack not found: no scipy package")
    folder = os.path.join(spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's LAPACK extension _flapack not found in {folder}")


# The float64 Cholesky factorization and solve behind scipy's
# ``cho_factor``/``cho_solve``, the objects ``get_lapack_funcs`` returns.
# CPython registers a single-phase extension module under its spec name,
# so a later ``import scipy.linalg`` reuses this module.
_FLAPACK = _load_flapack()
_POTRF, _POTRS = _FLAPACK.dpotrf, _FLAPACK.dpotrs


def _all_finite(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether every entry of the arrays ``a`` and ``b`` is finite.

    An inf or NaN entry makes the sum of squares ``a . a + b . b``
    inf or NaN, so a finite sum settles it with two dot products. A sum
    that is not finite is settled entrywise, because finite entries
    beyond about 1e154 overflow it too (with numpy's overflow warning)
    and are not an error.
    """
    a, b = a.ravel(), b.ravel()
    if math.isfinite(a.dot(a) + b.dot(b)):
        return True
    return bool(np.isfinite(a).all() and np.isfinite(b).all())


def factor_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``M x = b`` given ``solve_root``'s lower Cholesky factor of ``M``."""
    return _POTRS(factor, b, lower=1)[0]


@dataclass
class Edge:
    """Directed edge: ``map`` takes parent coordinates to child coordinates."""

    parent: int
    child: int
    map: DifferentiableMap

    def name(self) -> str:
        return f"edge {self.parent}->{self.child}"


class LeafRow(NamedTuple):
    """One leaf's place in the tree, read by every pass that visits leaves.

    ``path`` lists the root-to-leaf edges. ``latent`` is the leaf's
    parent edge when its map is a diffeo chain (the leaf's latent map),
    else ``None``; ``anchor`` is the rest of the path, up to the space
    the user named.
    """

    node: int
    policy: LeafPolicy
    edge: Edge | None  # parent edge; None for a leaf at the root
    path: list[Edge]
    anchor: list[Edge]
    latent: Edge | None


@dataclass(slots=True)
class NodeState:
    """Per-node scratch filled in by the evaluation stages. ``tape`` (the
    parent edge map's) and ``record`` (a leaf policy's) are the forward
    records the reverse pass reads, each possibly ``None``; they hold
    views of the weights and are read-only."""

    coord: np.ndarray | None = None
    jac_to_parent: np.ndarray | None = None
    tape: list | None = None
    pulled_force: np.ndarray | None = None
    pulled_metric: np.ndarray | None = None
    record: tuple | None = None


@dataclass(slots=True)
class PipelineCache:
    """One evaluated composition pass, reusable across several cotangents."""

    states: list[NodeState]
    pi: np.ndarray
    factor: np.ndarray  # lower Cholesky factor of M_root + reg I


class TransformTree:
    """Rooted tree of coordinate spaces connected by differentiable maps.

    ``node_dims[i]`` is the dimension of node ``i``; node 0 is the root
    (configuration space). Edges must point from lower to higher index,
    which makes ascending index order a topological order and lets the
    passes run as single array sweeps. Every childless node carries
    exactly one leaf policy.

    Construction validates the wiring, builds ``leaf_table`` (one
    ``LeafRow`` per leaf, in ``leaves`` order) and assigns parameter
    slices to every learnable component (edge maps in child order, then
    leaf components in leaf order, a latent goal's chain included), so
    ``init_params()`` yields the matching flat vector. A component that
    occurs several times (one metric net shared by two leaves, or a
    chain that is both an edge map and a goal's chain) is bound once,
    under the name of its first occurrence, and the gradients of all its
    uses add into that slice. A component another tree bound to a
    different slice raises ``StructureError``; reuse at the same slice
    is allowed. ``_reverse_leaves`` lists the rows the reverse pass
    visits: those whose parent edge is learnable or whose policy has a
    learnable component. ``_gradient_error`` is ``None``, or the message
    the reverse pass raises because a learnable edge map does not end at
    a leaf.
    """

    def __init__(self, node_dims, edges, leaf_policies):
        self.node_dims = [as_integer(d, "node dimension", minimum=1) for d in node_dims]
        self.n_nodes = len(self.node_dims)
        if self.n_nodes == 0:
            raise StructureError("tree needs at least a root node")
        self.root_dim = self.node_dims[0]

        self.edges: list[Edge] = sorted(edges, key=lambda e: e.child)
        seen_children = set()
        for e in self.edges:
            if not (0 <= e.parent < self.n_nodes and 0 <= e.child < self.n_nodes):
                raise StructureError(f"{e.name()} references unknown nodes")
            if e.parent >= e.child:
                raise StructureError(
                    f"{e.name()} violates topological order (parent < child)"
                )
            if e.child in seen_children:
                raise StructureError(f"node {e.child} has more than one parent")
            seen_children.add(e.child)
            if e.map.in_dim != self.node_dims[e.parent]:
                raise StructureError(
                    f"{e.name()}: map input dim {e.map.in_dim} != parent dim "
                    f"{self.node_dims[e.parent]}"
                )
            if e.map.out_dim != self.node_dims[e.child]:
                raise StructureError(
                    f"{e.name()}: map output dim {e.map.out_dim} != child dim "
                    f"{self.node_dims[e.child]}"
                )
        missing = set(range(1, self.n_nodes)) - seen_children
        if missing:
            raise StructureError(f"nodes {sorted(missing)} are not connected to the root")

        self._children: list[list[int]] = [[] for _ in range(self.n_nodes)]
        parent_edge: list[Edge | None] = [None] * self.n_nodes
        for e in self.edges:
            self._children[e.parent].append(e.child)
            parent_edge[e.child] = e

        self.leaves = sorted(
            i for i in range(self.n_nodes) if not self._children[i]
        )
        self.leaf_policies: dict[int, LeafPolicy] = dict(leaf_policies)
        for node in self.leaves:
            if node not in self.leaf_policies:
                raise StructureError(f"leaf node {node} has no policy")
        for node, pol in self.leaf_policies.items():
            if node not in self.leaves:
                raise StructureError(f"node {node} has a policy but is not a leaf")
            if pol.dim != self.node_dims[node]:
                raise StructureError(
                    f"leaf node {node}: policy dim {pol.dim} != node dim "
                    f"{self.node_dims[node]}"
                )

        # The one rule: a chain on the parent edge is the latent map.
        self.leaf_table: dict[int, LeafRow] = {}
        for leaf in self.leaves:
            path = []
            node = leaf
            while node != 0:
                path.append(parent_edge[node])
                node = path[-1].parent
            path.reverse()
            edge = path[-1] if path else None
            latent = edge if edge is not None and isinstance(edge.map, DiffeoChain) else None
            self.leaf_table[leaf] = LeafRow(leaf, self.leaf_policies[leaf], edge, path,
                                            path[:-1] if latent else path, latent)
        # The forward stage's order: (edge, value shape, Jacobian shape) per edge.
        dims = self.node_dims
        self._forward_order = [(e, (dims[e.child],), (dims[e.child], dims[e.parent]))
                               for e in self.edges]
        # The backward stage's order: (parent, child, identity, first) per edge,
        # last child first; ``first`` marks a parent's first child in it.
        self._backward_order, started = [], set()
        for e in reversed(self.edges):
            self._backward_order.append((e.parent, e.child, type(e.map) is IdentityMap,
                                         e.parent not in started))
            started.add(e.parent)

        # Parameter slice assignment (deterministic order), one slice per
        # component object. Components read their weights through their
        # slice, so one that another tree bound to a different slice is
        # rejected before anything is rebound.
        uses = [(f"edge[{e.parent}->{e.child}].map", e.map) for e in self.edges]
        uses += [(f"leaf[{row.node}].{suffix}", comp) for row in self.leaf_table.values()
                 for suffix, comp in row.policy.components()]
        self._components: list[tuple[str, Learnable]] = []
        for name, comp in uses:
            if comp.is_learnable and all(comp is not c for _, c in self._components):
                self._components.append((name, comp))
        slices, offset = [], 0
        for name, comp in self._components:
            slices.append(slice(offset, offset + comp.n_params))
            offset += comp.n_params
            if comp.param_slice not in (None, slices[-1]):
                raise StructureError(
                    f"component {name} is bound to weights {comp.param_slice.start}:"
                    f"{comp.param_slice.stop} of another tree; build a new one"
                )
        for (_, comp), sl in zip(self._components, slices):
            comp.param_slice = sl
        self.n_params = offset

        # The reverse pass treats an edge map's input as constant, so a
        # learnable edge must end at a leaf; pipeline_vjp raises this.
        self._gradient_error = next(
            (f"{e.name()}: learnable edge maps must terminate at a leaf"
             for e in self.edges if e.map.is_learnable and self._children[e.child]),
            None)
        # Any other leaf adds nothing to a weight gradient.
        self._reverse_leaves = [
            row for row in self.leaf_table.values()
            if (row.edge is not None and row.edge.map.is_learnable)
            or row.policy.reads_weights()
        ]

    def init_params(self) -> ParamVector:
        builder = ParamRegistryBuilder()
        for name, comp in self._components:
            init = comp.init_values()
            if init.size != (comp.param_slice.stop - comp.param_slice.start):
                raise StructureError(f"component {name} init size mismatch")
            builder.register(name, init)
        return builder.build()


# ---------------------------------------------------------------------------
# The four stages
# ---------------------------------------------------------------------------


def one_state(tree: TransformTree, q, name: str = "q", stack: bool = False) -> np.ndarray:
    """``q`` as a float array of shape ``(root_dim,)`` (or, if ``stack``,
    ``(N, root_dim)``), else ``StructureError`` naming it ``name``: the
    check of every entry point that takes one state (or velocity), so a
    stack is rejected there too."""
    try:
        q = np.asarray(q, dtype=float)
    except (TypeError, ValueError) as exc:  # not numbers, or ragged rows
        raise StructureError(f"{name} is not an array of real numbers: {exc}") from None
    if q.shape != (tree.root_dim,) and not (
            stack and q.ndim == 2 and q.shape[1] == tree.root_dim):
        raise StructureError(
            f"{name} has shape {q.shape}, root dimension is {tree.root_dim}")
    return q


def forward_pass(tree: TransformTree, q, params: ParamVector | None = None,
                 *, stack: bool = True) -> list[NodeState]:
    """Push coordinates root to leaves; keep each edge's Jacobian and tape.
    ``q`` is a stack ``(N, root_dim)``, every array then gaining its
    leading axis, or else (always, if ``stack`` is false) one state
    (``one_state``)."""
    q = one_state(tree, q, stack=stack)
    kernel = "stacked_value_jacobian_tape" if q.ndim == 2 else "value_jacobian_tape"
    lead = q.shape[:-1]
    # Edges are sorted by child and every node past the root has exactly
    # one, so edge k ends at node k + 1 and the states fill in order.
    order = tree._forward_order
    if lead:  # every shape gains the leading axis
        order = [(e, lead + y_shape, lead + J_shape) for e, y_shape, J_shape in order]
    states = [NodeState(coord=q)]
    for e, y_shape, J_shape in order:
        y, J, tape = getattr(e.map, kernel)(states[e.parent].coord, params)
        if y.shape != y_shape or J.shape != J_shape:
            k = len(lead)
            raise StructureError(f"{e.name()}: map produced shapes {y.shape[k:]} and "
                                 f"{J.shape[k:]}, expected {y_shape[k:]} and {J_shape[k:]}")
        states.append(NodeState(y, J, tape))
    return states


def leaf_evaluate(tree: TransformTree, states: list[NodeState],
                  params: ParamVector | None = None) -> list[NodeState]:
    """Evaluate every leaf policy into ``(pulled_force, pulled_metric,
    record)``, through ``evaluate`` or, on a stack, ``stacked_evaluate``."""
    kernel = "stacked_evaluate" if states[0].coord.ndim == 2 else "evaluate"
    for node, policy, edge, _, _, _ in tree.leaf_table.values():
        parent_coord = states[edge.parent].coord if edge is not None else None
        state = states[node]
        p, M, state.record = getattr(policy, kernel)(state.coord, params, parent_coord)
        if not _all_finite(p, M):
            raise NumericError(f"leaf {node} produced a non-finite policy output")
        if p.shape != state.coord.shape or M.shape != p.shape + p.shape[-1:]:
            raise StructureError(f"leaf {node}: policy output shapes {p.shape} and "
                                 f"{M.shape} at a coordinate of shape {state.coord.shape}")
        state.pulled_force = p
        state.pulled_metric = M
    return states


# ``A^T`` of one matrix or of each matrix of a stack, as C-level calls.
_TRANSPOSED = operator.attrgetter("T")
_STACKED_TRANSPOSED = operator.methodcaller("transpose", 0, 2, 1)


def backward_pass(tree: TransformTree, states: list[NodeState]) -> list[NodeState]:
    """Pull forces/metrics to the root: ``p += J^T p_c``, ``M += J^T M_c J``,
    with ``maps.products`` and the transposes of one state or of a stack,
    so each row of a stack is the per-sample bits. Identity edges and first
    children: see stage 3 of the module docstring."""
    stacked = states[0].coord.ndim == 2
    mv, mm = products(stacked)
    transposed = _STACKED_TRANSPOSED if stacked else _TRANSPOSED
    for i, c, identity, first in tree._backward_order:
        child, parent = states[c], states[i]
        p, M = child.pulled_force, child.pulled_metric
        if not identity:
            J = child.jac_to_parent
            JT = transposed(J)
            p, M = mv(JT, p), mm(mm(JT, M), J)
        if first:
            parent.pulled_force = p + 0.0
            M = M + 0.0
        else:
            parent.pulled_force = parent.pulled_force + p
            M = parent.pulled_metric + M
        parent.pulled_metric = 0.5 * (M + transposed(M))
    return states


def _singular_hint(regularization: float) -> str:
    if regularization > 0.0:
        return f"regularization {regularization:.3e} is too small to make it definite"
    return "pass a positive regularization to proceed"


def solve_root(M: np.ndarray, p: np.ndarray,
               regularization: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``(M + reg I) u = p``; returns ``(u, factor)``.

    ``regularization`` must be a real number, finite and >= 0
    (``errors.as_real``), else ``StructureError``. It shifts the diagonal
    of the one Cholesky solve; the shifted matrix must be positive
    definite, else ``SingularMetricError``. The solve calls LAPACK
    ``potrf``/``potrs`` from scipy's ``_flapack`` extension, loaded
    without the init of scipy or ``scipy.linalg``: the routines
    ``cho_factor``/``cho_solve`` wrap, with the same arguments, minus the
    wrappers' per-call validation.
    ``factor`` is ``potrf``'s lower Cholesky factor of ``M + reg I`` (its
    upper triangle is left unused), kept for the reverse pass.
    """
    regularization = as_real(regularization, "regularization", ">= 0")
    if not _all_finite(M, p):
        raise NumericError("root system contains non-finite entries")
    if regularization > 0.0:
        M = M + regularization * np.eye(len(M))
    factor, info = _POTRF(M, lower=1, clean=0)
    if info > 0:
        min_eig = float(np.linalg.eigvalsh(M).min())
        raise SingularMetricError(
            f"root metric is singular (Cholesky failed, min eigenvalue "
            f"{min_eig:.3e}); {_singular_hint(regularization)}"
        )
    if float(np.minimum.reduce(factor.diagonal())) ** 2 < SINGULAR_EIG_TOL:
        min_eig = float(np.linalg.eigvalsh(M).min())
        if min_eig < SINGULAR_EIG_TOL:
            raise SingularMetricError(
                f"root metric min eigenvalue {min_eig:.3e} is below "
                f"{SINGULAR_EIG_TOL}; {_singular_hint(regularization)}"
            )
    return factor_solve(factor, p), factor


def resolve(states: list[NodeState], regularization: float = 0.0) -> tuple:
    """Solve ``(M_root + reg I) u = p_root``; ``(u, factor)`` as ``solve_root``."""
    return solve_root(states[0].pulled_metric, states[0].pulled_force,
                      regularization)


def run_pipeline(tree: TransformTree, q, params: ParamVector | None = None,
                 regularization: float = 0.0) -> PipelineCache:
    """Run the four stages once on one state and keep everything the
    reverse pass needs (coordinates, edge Jacobians, tapes, leaf outputs
    and records, root factor)."""
    states = forward_pass(tree, q, params, stack=False)
    leaf_evaluate(tree, states, params)
    backward_pass(tree, states)
    pi, factor = resolve(states, regularization)
    return PipelineCache(states, pi, factor)


def evaluate_policy(tree: TransformTree, q, params: ParamVector | None = None,
                    regularization: float = 0.0) -> np.ndarray:
    """Configuration-space velocity produced by the composed subtask policies."""
    return run_pipeline(tree, q, params, regularization).pi


def run_stacked(tree: TransformTree, Q,
                params: ParamVector | None = None) -> tuple[list[NodeState], np.ndarray]:
    """The four stages on the states ``Q``, ``(N, root_dim)`` with
    ``N >= 1``, at once.

    Returns ``(states, pi)``: per node, a ``NodeState`` whose arrays
    carry a leading axis of length ``N``, tapes and records included,
    and ``pi`` of shape ``(N, root_dim)``. The stages are
    ``run_pipeline``'s, on the stack, and the root solve is
    ``solve_root`` on each row, so row ``k`` of every array is the same
    bits as ``run_pipeline(tree, Q[k], params)`` gives. A failing row
    raises the error the per-sample route raises, though not necessarily
    for the first failing row (``losses.stacked_terms`` finds that row
    with stacks of one).
    """
    try:
        Q = np.asarray(Q, dtype=float)
    except (TypeError, ValueError) as exc:  # not numbers, or rows of different lengths
        raise StructureError(f"stacked states do not form one array: {exc}") from exc
    if Q.ndim != 2 or Q.shape[1] != tree.root_dim or not len(Q):
        raise StructureError(
            f"stacked states have shape {Q.shape}, expected (N, {tree.root_dim}) "
            "with N >= 1"
        )
    states = forward_pass(tree, Q, params)
    leaf_evaluate(tree, states, params)
    backward_pass(tree, states)
    root = states[0]
    return states, np.array([solve_root(M, p)[0] for M, p in
                             zip(root.pulled_metric, root.pulled_force)])


# ---------------------------------------------------------------------------
# Independent flat solver
# ---------------------------------------------------------------------------


def flat_solve(tree: TransformTree, q, params: ParamVector | None = None,
               regularization: float = 0.0) -> np.ndarray:
    """Solve the same weighted least squares without the tree recursion.

    Each root-to-leaf map is composed directly and its Jacobian chained
    by hand; the normal equations ``sum(J^T M J) u = sum(J^T M v)`` are
    assembled and solved with a plain dense solve. No propagation code
    from the staged algorithm is reused, so agreement between the two
    routes is a meaningful check.
    """
    regularization = as_real(regularization, "regularization", ">= 0")
    q = one_state(tree, q)
    d = tree.root_dim
    A = np.zeros((d, d))
    b = np.zeros(d)
    for row in tree.leaf_table.values():
        x = q
        prev = None
        J = np.eye(d)
        for edge in row.path:
            prev = x
            x, J_edge = edge.map.value_and_jacobian(x, params)
            J = J_edge @ J
        p, M, _ = row.policy.evaluate(x, params, parent_coord=prev)
        A += J.T @ (M @ J)
        b += J.T @ p
    if regularization > 0.0:
        return np.linalg.solve(A + regularization * np.eye(d), b)
    min_eig = float(np.linalg.eigvalsh(0.5 * (A + A.T)).min())
    if min_eig < SINGULAR_EIG_TOL:
        raise SingularMetricError(
            f"stacked normal equations are singular (min eigenvalue {min_eig:.3e})"
        )
    return np.linalg.solve(A, b)


# ---------------------------------------------------------------------------
# Summed potential at the root
# ---------------------------------------------------------------------------


def leaf_potential_sum(tree: TransformTree, states: list[NodeState],
                       params: ParamVector | None = None) -> float:
    """Sum of leaf potentials over already-computed forward coordinates."""
    total = 0.0
    for node, policy, _, _, _, _ in tree.leaf_table.values():
        phi = policy.potential(states[node].coord, params)
        if phi is None:
            raise StructureError(
                f"leaf {node} has no potential; the summed root potential is "
                "only defined when every leaf carries one"
            )
        total += float(phi)
    return total


def root_potential(tree: TransformTree, q, params: ParamVector | None = None) -> float:
    """Summed pulled-back potential ``sum_k Phi_k(psi_k(q))``.

    When every leaf is a natural-gradient leaf this is the Lyapunov
    function of the composed flow, with gradient ``-p_root``.
    """
    states = forward_pass(tree, q, params, stack=False)
    return leaf_potential_sum(tree, states, params)
