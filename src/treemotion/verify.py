"""Self-checks: finite-difference oracles and whole-tree consistency.

These back the ``check`` and ``gradcheck`` commands. Everything here is
diagnostic: analytic values are recomputed by an independent route
(finite differences, or the flat least-squares solver) and compared.
"""

from __future__ import annotations

import numpy as np

from .errors import TreeMotionError, as_integer, as_real
from .learning import loss_and_gradient
from .losses import DemoSet, LossSpec, loss_value
from .params import ParamVector
from .tree import TransformTree, flat_solve, root_potential, run_pipeline

FD_STEP = 1e-6
FLAT_TOL = 1e-10
JAC_TOL = 1e-5


def fd_jacobian(f, x) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at ``x``, step ``FD_STEP``."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = FD_STEP
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * FD_STEP))
    return np.stack(cols, axis=-1)


def check_tree(tree: TransformTree, params: ParamVector | None = None,
               n_points: int = 10, seed: int = 0) -> dict:
    """Probe a tree at the origin and ``n_points`` seeded points with one
    ``run_pipeline`` each: staged-vs-flat agreement of ``pi`` (bound
    ``FLAT_TOL``, absolute), and the edge Jacobians held in that pass's
    node states against finite differences (bound ``JAC_TOL``, relative
    to ``max(1, max |J_fd|)``).

    Returns a JSON-ready report with per-failure detail; ``"status"`` is
    ``"pass"`` or ``"numeric_failure"``. A negative or fractional
    ``seed`` or ``n_points`` raises ``StructureError``.
    """
    seed = as_integer(seed, "seed", minimum=0)
    n_points = as_integer(n_points, "n_points", minimum=0)
    rng = np.random.default_rng(seed)
    points = [np.zeros(tree.root_dim)]
    points += [0.5 * rng.standard_normal(tree.root_dim) for _ in range(n_points)]
    failures = []
    flat_max = 0.0
    jac_max = 0.0
    for idx, q in enumerate(points):
        try:
            cache = run_pipeline(tree, q, params)
            pi_flat = flat_solve(tree, q, params)
        except TreeMotionError as exc:
            failures.append({
                "kind": "policy_evaluation",
                "point_index": idx,
                "q": q.tolist(),
                "error": f"{type(exc).__name__}: {exc}",
            })
            continue
        dev = float(np.abs(cache.pi - pi_flat).max())
        flat_max = max(flat_max, dev)
        if dev > FLAT_TOL:
            failures.append({
                "kind": "tree_vs_flat",
                "point_index": idx,
                "deviation": dev,
                "tolerance": FLAT_TOL,
            })
        for e in tree.edges:
            x = cache.states[e.parent].coord
            J = cache.states[e.child].jac_to_parent  # the Jacobian the pass used
            try:
                J_fd = fd_jacobian(lambda z: e.map.value(z, params), x)
            except TreeMotionError as exc:
                failures.append({
                    "kind": "jacobian_evaluation",
                    "edge": e.name(),
                    "point_index": idx,
                    "error": f"{type(exc).__name__}: {exc}",
                })
                continue
            scale = max(1.0, float(np.abs(J_fd).max()))
            rel = float(np.abs(J - J_fd).max()) / scale
            jac_max = max(jac_max, rel)
            if rel > JAC_TOL:
                failures.append({
                    "kind": "jacobian_mismatch",
                    "edge": e.name(),
                    "point_index": idx,
                    "relative_error": rel,
                    "tolerance": JAC_TOL,
                })
    return {
        "status": "pass" if not failures else "numeric_failure",
        "n_points": len(points),
        "tree_vs_flat_max": flat_max,
        "jacobian_max_rel": jac_max,
        "failures": failures,
    }


def gradcheck_report(tree: TransformTree, params: ParamVector, demos: DemoSet,
                     loss: LossSpec, h: float = 1e-5, tol: float = 1e-4) -> dict:
    """The trainer's analytic loss gradient (``loss_and_gradient``)
    against central differences of step ``h``, passing below relative
    error ``tol``; both must be real numbers > 0 (``errors.as_real``), or
    ``StructureError``."""
    h = as_real(h, "fd_step", "> 0")
    tol = as_real(tol, "tol", "> 0")
    analytic = loss_and_gradient(tree, params, demos, loss)[1]
    fd = np.zeros_like(analytic)
    for i in range(params.size):
        up = params.copy()
        up.values[i] += h
        dn = params.copy()
        dn.values[i] -= h
        fd[i] = (loss_value(loss, tree, up, demos)
                 - loss_value(loss, tree, dn, demos)) / (2.0 * h)
    if params.size:
        denom = np.maximum(np.abs(fd), 1e-3)
        rel = np.abs(analytic - fd) / denom
        max_rel = float(rel.max())
        max_abs = float(np.abs(analytic - fd).max())
        worst = int(np.argmax(rel))
    else:
        max_rel = 0.0
        max_abs = 0.0
        worst = -1
    return {
        "status": "pass" if max_rel < tol else "numeric_failure",
        "n_params": int(params.size),
        "fd_step": h,
        "tolerance": tol,
        "max_relative_error": max_rel,
        "max_absolute_error": max_abs,
        "worst_index": worst,
    }


def potential_gradient_fd(tree: TransformTree, q,
                          params: ParamVector | None = None) -> np.ndarray:
    """Finite-difference gradient of the summed root potential."""
    return fd_jacobian(lambda x: root_potential(tree, x, params), q)
