"""Rollouts of ``qdot = pi(q)`` with stability monitoring.

When every leaf carries a potential, the summed pulled-back potential is
a Lyapunov function of the flow and its gradient is the negated root
force, so convergence can be watched without extra differentiation. The
integrator is fixed-step RK4: adaptive stepping would be faster but the
traces would stop being byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, as_integer, as_real
from .losses import Trajectory
from .params import ParamVector
from .tree import TransformTree, evaluate_policy, leaf_potential_sum, one_state, run_pipeline


@dataclass
class RolloutResult:
    """Integrated trajectory plus the convergence bookkeeping."""

    trajectory: Trajectory
    potential_trace: np.ndarray | None
    terminal_grad_norm: float
    status: str  # "converged" | "max_steps" | "error"
    message: str = ""


@dataclass
class LyapunovReport:
    """Outcome of the step-to-step descent check on a potential trace."""

    max_increase: float
    slack: float
    n_violations: int

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


def integrate(tree: TransformTree, params: ParamVector | None, q0,
              dt: float = 1e-3, max_steps: int = 100_000,
              grad_tol: float = 1e-6, record_potential: bool = True) -> RolloutResult:
    """Fixed-step RK4 on ``qdot = pi(q)`` until the potential gradient
    vanishes (``||grad Phi_root|| = ||p_root|| <= grad_tol``) or the step
    budget runs out.

    ``q0`` must be one state (``one_state``), ``dt`` a real number > 0,
    ``max_steps`` an integer >= 0 and ``grad_tol`` a real number >= 0
    (``errors.as_real``, ``errors.as_integer``); anything else raises
    ``StructureError`` before the first step. ``record_potential``
    requires every leaf to carry a potential; a policy failure
    mid-rollout returns the partial trajectory with status ``"error"``.
    """
    q = one_state(tree, q0, "q0")
    dt = as_real(dt, "dt", "> 0")
    max_steps = as_integer(max_steps, "max_steps", minimum=0)
    grad_tol = as_real(grad_tol, "grad_tol", ">= 0")
    ts, qs, qds, phis = [], [], [], []
    status = "max_steps"
    message = ""
    terminal = np.nan
    t = 0.0
    try:
        for _ in range(max_steps + 1):
            cache = run_pipeline(tree, q, params)
            pi1 = cache.pi
            if record_potential:
                phis.append(leaf_potential_sum(tree, cache.states, params))
            ts.append(t)
            qs.append(q.copy())
            qds.append(pi1)
            force = cache.states[0].pulled_force
            terminal = math.sqrt(force.dot(force))  # np.linalg.norm's expression
            if terminal <= grad_tol:
                status = "converged"
                break
            if len(ts) == max_steps + 1:
                break
            k2 = evaluate_policy(tree, q + 0.5 * dt * pi1, params)
            k3 = evaluate_policy(tree, q + 0.5 * dt * k2, params)
            k4 = evaluate_policy(tree, q + dt * k3, params)
            q = q + (dt / 6.0) * (pi1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += dt
    except NumericError as exc:
        status = "error"
        message = str(exc)

    if not ts:  # failed on the very first evaluation
        trajectory = Trajectory(np.zeros(0), np.zeros((0, tree.root_dim)),
                                np.zeros((0, tree.root_dim)))
        trace = np.zeros(0) if record_potential else None
        return RolloutResult(trajectory, trace, float("nan"), status, message)

    trajectory = Trajectory(np.asarray(ts), np.asarray(qs), np.asarray(qds))
    trace = np.asarray(phis) if record_potential else None
    return RolloutResult(trajectory, trace, terminal, status, message)


def lyapunov_check(result: RolloutResult, slack_coeff: float = 1.0) -> LyapunovReport:
    """Check ``Phi_{t+1} <= Phi_t + slack`` along a recorded trace.

    ``slack = slack_coeff * dt**2`` absorbs the integrator's local error;
    the continuous flow itself never increases the potential.
    ``slack_coeff`` must be a real number >= 0 (``errors.as_real``): a NaN
    slack would pass every step unchecked.
    """
    slack_coeff = as_real(slack_coeff, "slack_coeff", ">= 0")
    if result.potential_trace is None:
        raise NumericError("rollout was run without a potential trace")
    trace = result.potential_trace
    t = result.trajectory.t
    if len(trace) < 2:
        return LyapunovReport(max_increase=0.0, slack=0.0, n_violations=0)
    dt = float(np.min(np.diff(t)))
    slack = slack_coeff * dt * dt
    increases = np.diff(trace)
    max_increase = float(max(increases.max(), 0.0))
    n_violations = int(np.sum(increases > slack))
    return LyapunovReport(max_increase=max_increase, slack=slack,
                          n_violations=n_violations)


def descent_rate(tree: TransformTree, params: ParamVector | None, q) -> float:
    """Pointwise ``grad(Phi_root) . pi = -p_root . M_root^{-1} p_root``.

    Nonpositive (up to solver roundoff) whenever the root metric is
    positive definite; useful as a state-by-state stability probe.
    """
    cache = run_pipeline(tree, q, params)
    return float(-cache.states[0].pulled_force @ cache.pi)
