"""Per-layer metrics: which treemotion functions the traced run wraps and
how the trace turns into named metrics.

Layer names are the package's module names.  Every wrapped function
yields ``<module>.<Class.>fn.calls`` and, unless listed in
``CALLS_ONLY``, ``.self_s`` (span time minus the time of wrapped
callees).  ``EXTRAS`` are ratios and distributions over the same spans.
"""

from __future__ import annotations

import numpy as np

import treemotion as tm
from tracer import Tracer

TARGETS = [
    "tree.forward_pass",
    "tree.leaf_evaluate",
    "tree.backward_pass",
    "tree.resolve",
    "tree.evaluate_policy",
    "tree.leaf_potential_sum",
    "gradients.run_pipeline",
    "gradients.pipeline_vjp",
    "learning.train",
    "learning.train_independent_baseline",
    "learning.loss_and_gradient",
    "maps.DiffeoChain.value_and_jacobian",
    "maps.DiffeoChain.value",
    "maps.DiffeoChain.value_vjp",
    "maps.DiffeoChain.pullback_vjp",
    "maps.PlanarArmFK.value_and_jacobian",
    "maps.DistanceToPoint.value_and_jacobian",
    "maps.RFFNet.features_and_slope",
    "maps.CouplingLayer.forward",
    "maps.CouplingLayer.jacobian",
    "policies.CholeskyMetricNet.decompose",
    "policies.CholeskyMetricNet.param_vjp",
    "policies.CholeskyMetricNet.input_vjp",
    "policies.NaturalGradientLeaf.evaluate",
    "policies.NaturalGradientLeaf.vjp",
    "policies.RawVMLeaf.evaluate",
    "rollout.integrate",
    "rollout.lyapunov_check",
    "io.load_tree",
    "io.write_rollout",
    "cli.main",
]

# Small, very frequent kernels: their spans are mostly wrapper cost, so
# only their call counts are reported.
CALLS_ONLY = {
    "maps.RFFNet.features_and_slope",
    "maps.CouplingLayer.forward",
    "maps.CouplingLayer.jacobian",
}

EXTRAS = {
    "tree.forward_pass.us_p50": "us",
    "tree.forward_pass.us_p99": "us",
    "gradients.vjp_per_pipeline": "ratio",
    "learning.loss_and_gradient.ms_p50": "ms",
    "maps.DiffeoChain.value_vjp.repeat_input_frac": "frac",
    "maps.RFFNet.features_and_slope.per_lossgrad": "count",
    "rollout.evals_per_step": "ratio",
    "cli.import_s": "s",
    "trace.overhead_frac": "frac",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for target in TARGETS:
        units[f"{target}.calls"] = "count"
        if target not in CALLS_ONLY:
            units[f"{target}.self_s"] = "s"
    units.update(EXTRAS)
    return units


def new_tracer():
    return Tracer(TARGETS,
                  durations=["tree.forward_pass", "learning.loss_and_gradient"],
                  scopes=["learning.loss_and_gradient", "rollout.integrate"])


def trace_one_loss_and_gradient(tree, params, demos, loss):
    """One traced ``loss_and_gradient`` call.

    Returns the tracer (for call counts) and the share of
    ``DiffeoChain.value_vjp`` calls whose chain and input repeat an
    earlier call within it.
    """
    seen = set()
    repeats = [0]

    def observe(chain, x, *args, **kwargs):
        key = (id(chain), np.asarray(x, dtype=float).tobytes())
        repeats[0] += key in seen
        seen.add(key)

    tracer = Tracer(TARGETS, observers={"maps.DiffeoChain.value_vjp": observe})
    with tracer:
        tm.loss_and_gradient(tree, params, demos, loss)
    n = tracer.count("maps.DiffeoChain.value_vjp")
    return tracer, (repeats[0] / n if n else None)


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def layer_metrics(tracer, steps, extras):
    """Per-layer metric values and the reasons some are absent.

    ``steps`` is the number of RK4 steps the traced integrate calls
    took; ``extras`` carries values measured outside the tracer.
    """
    values, absent = {}, {}
    for target in TARGETS:
        calls = tracer.count(target)
        values[f"{target}.calls"] = calls
        if target not in CALLS_ONLY:
            values[f"{target}.self_s"] = tracer.self_time(target)
        if calls == 0:
            absent[f"{target}.*"] = "not called on this workload"

    fwd = tracer.durations["tree.forward_pass"]
    values["tree.forward_pass.us_p50"] = percentile(fwd, 50) * 1e6 if fwd else 0.0
    values["tree.forward_pass.us_p99"] = percentile(fwd, 99) * 1e6 if fwd else 0.0
    if len(fwd) < 1000:
        absent["tree.forward_pass.us_p99"] = (
            f"{len(fwd)} forward passes; p99 needs 1000 for ten beyond it")

    pipelines = tracer.count("gradients.run_pipeline")
    values["gradients.vjp_per_pipeline"] = (
        tracer.count("gradients.pipeline_vjp") / pipelines if pipelines else 0.0)
    if not pipelines:
        absent["gradients.vjp_per_pipeline"] = "no pipelines on this workload"

    lag = tracer.durations["learning.loss_and_gradient"]
    values["learning.loss_and_gradient.ms_p50"] = percentile(lag, 50) * 1e3 if lag else 0.0
    if not lag:
        absent["learning.loss_and_gradient.ms_p50"] = "not called on this workload"

    per_lag = tracer.scoped_counts("learning.loss_and_gradient",
                                   "maps.RFFNet.features_and_slope")
    values["maps.RFFNet.features_and_slope.per_lossgrad"] = per_lag[0] if per_lag else 0
    if not per_lag:
        absent["maps.RFFNet.features_and_slope.per_lossgrad"] = "no loss_and_gradient"
    elif len(set(per_lag)) > 1:
        absent["maps.RFFNet.features_and_slope.per_lossgrad"] = (
            f"differs between calls: {sorted(set(per_lag))}")

    in_integrate = sum(tracer.scoped_counts("rollout.integrate", "tree.forward_pass"))
    values["rollout.evals_per_step"] = in_integrate / steps if steps else 0.0
    if not steps:
        absent["rollout.evals_per_step"] = "no rollouts on this workload"

    for name in ("maps.DiffeoChain.value_vjp.repeat_input_frac", "cli.import_s",
                 "trace.overhead_frac"):
        value = extras.get(name)
        values[name] = 0.0 if value is None else value
        if value is None:
            absent[name] = "not measured on this workload"
    return values, absent
