"""Analytic weight gradients of the composed policy: the reverse pass.

The gradients are reverse-accumulated by hand through the four
composition stages, reading the node states and root factor kept by
``tree.run_pipeline``, the one evaluation. With ``A = M_root + reg I``
(``reg`` is the evaluation's regularization, 0 by default) and
``u = A^{-1} g`` for a cotangent ``g`` on the policy output,

    g . d(pi) = u . d(p_root) - u . d(M_root) pi,

since the shift ``reg I`` does not depend on the weights. Both
differentials decompose over the tree: pushing ``u`` and ``pi`` down
through the edge Jacobians turns the root expression into per-leaf
cotangents on ``(p_k, M_k)`` plus, for learnable edges, a rank-two
cotangent on the edge Jacobian itself. The directional term
``d(M_root) pi`` is therefore never materialized as a 3-tensor.

Learnable edge maps must end at a leaf (so their own inputs carry no
weight dependence). The tree decides this when it is built, and
``pipeline_vjp`` on a tree that breaks the rule raises ``StructureError``.
A finite-difference oracle for all of this lives in the verification
helpers and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .params import ParamVector
from .tree import (
    PipelineCache,
    TransformTree,
    factor_solve,
    forward_pass,  # noqa: F401  (unused; perfbench's tracer test reads it)
    run_pipeline,
)


@dataclass
class PolicyGradient:
    """Jacobian of the policy output with respect to all learnable weights."""

    jacobian: np.ndarray  # (root_dim, n_params)


def pipeline_vjp(tree: TransformTree, cache: PipelineCache, params: ParamVector,
                 cotangent: np.ndarray, grad_out: np.ndarray) -> None:
    """Add ``(d pi / d theta)^T cotangent`` into ``grad_out``: the rows of
    each leaf in ``tree._reverse_leaves``, then of its edge. The cache may
    come from a regularized ``run_pipeline`` at these ``params``. A leaf's
    ``vjp`` reads its forward record and the edge's ``pullback_vjp`` the
    edge's tape, both kept by the cache: no forward runs again."""
    if tree._gradient_error:
        raise StructureError(tree._gradient_error)
    states = cache.states
    pi = cache.pi
    u = factor_solve(cache.factor, np.asarray(cotangent, dtype=float))

    u_at = [None] * tree.n_nodes
    pi_at = [None] * tree.n_nodes
    u_at[0] = u
    pi_at[0] = pi
    for e in tree.edges:
        J = states[e.child].jac_to_parent
        u_at[e.child] = J.dot(u_at[e.parent])
        pi_at[e.child] = J.dot(pi_at[e.parent])

    for leaf, policy, edge, _, _, _ in tree._reverse_leaves:
        u_k = u_at[leaf]
        pi_k = pi_at[leaf]
        cot_p = u_k
        cot_M = -(u_k[:, None] * pi_k)
        parent_coord = states[edge.parent].coord if edge is not None else None
        c_z, rows = policy.vjp(states[leaf].coord, params, cot_p, cot_M,
                               parent_coord=parent_coord, tape=states[leaf].record)
        if edge is not None and edge.map.is_learnable:
            p_k = states[leaf].pulled_force
            M_k = states[leaf].pulled_metric
            # Cotangent on the edge Jacobian J: (p_k - M_k pi_k) u_x^T
            # - (M_k u_k) pi_x^T, applied as two tangent/cotangent pairs.
            tangents = np.concatenate(
                (u_at[edge.parent][:, None], pi_at[edge.parent][:, None]), axis=1)
            cot_tangents = np.concatenate(
                ((p_k - M_k.dot(pi_k))[:, None], -M_k.dot(u_k)[:, None]), axis=1)
            rows = rows + edge.map.pullback_vjp(states[edge.parent].coord, params, c_z,
                                                tangents, cot_tangents,
                                                tape=states[leaf].tape)
        for where, R in rows:
            grad_out[where] += R


def policy_vjp(tree: TransformTree, q, params: ParamVector,
               cotangent: np.ndarray) -> np.ndarray:
    """One-shot ``(d pi / d theta)^T cotangent``."""
    cache = run_pipeline(tree, q, params)
    grad = params.zeros_like()
    pipeline_vjp(tree, cache, params, cotangent, grad)
    return grad


def policy_param_jacobian(tree: TransformTree, q,
                          params: ParamVector) -> PolicyGradient:
    """Full ``d pi / d theta`` (root_dim x n_params), one reverse pass per row."""
    cache = run_pipeline(tree, q, params)
    d = tree.root_dim
    jac = np.zeros((d, params.size))
    basis = np.eye(d)
    for i in range(d):
        pipeline_vjp(tree, cache, params, basis[i], jac[i])
    return PolicyGradient(jacobian=jac)
