"""Self-tests of the benchmark: tracer coverage, exact counts, the
metric catalogue and the output comparison.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import treemotion as tm  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def conflicting():
    tree, params, demos, lam, _ = tm.conflicting_demo_fixture(seed=0)
    return tree, params, demos, tm.LossSpec("subtask_space", lam)


def test_tracer_patches_every_binding_and_counts_one_loss_and_gradient(conflicting):
    tree, params, demos, loss = conflicting
    assert demos.n_samples == 124
    tracer = Tracer(layers.TARGETS)
    with tracer:
        assert tracer.untraced_bindings() == []
        tm.loss_and_gradient(tree, params, demos, loss)
    assert tracer.count("learning.loss_and_gradient") == 1
    assert tracer.count("gradients.run_pipeline") == 124
    assert tracer.count("gradients.pipeline_vjp") == 124
    assert tracer.count("maps.DiffeoChain.value_vjp") == 248
    assert tracer.count("maps.DiffeoChain.pullback_vjp") == 248
    assert tracer.count("policies.CholeskyMetricNet.param_vjp") == 248
    # forward_pass is reached through its binding in gradients.
    assert tracer.count("tree.forward_pass") == 124
    # Uninstalling restores the original objects everywhere.
    from treemotion import gradients, learning, maps, tree as tm_tree
    assert learning.run_pipeline is gradients.run_pipeline
    assert gradients.forward_pass is tm_tree.forward_pass
    assert not getattr(tm_tree.forward_pass, "_traced", False)
    assert not getattr(maps.DiffeoChain.value_vjp, "_traced", False)


def test_a_missed_binding_is_reported():
    from treemotion import gradients, learning

    with Tracer(["gradients.run_pipeline"]) as tracer:
        learning.run_pipeline = gradients.run_pipeline.__wrapped__
        try:
            assert tracer.untraced_bindings() == [
                "treemotion.learning.run_pipeline -> gradients.run_pipeline"]
        finally:
            learning.run_pipeline = gradients.run_pipeline


def test_unknown_target_fails_loudly():
    with pytest.raises((LookupError, AttributeError)):
        Tracer(["maps.DiffeoChain.no_such_method"]).install()


def test_latent_goal_vjp_repeats_and_per_call_counts_are_exact(conflicting):
    tracer, frac = layers.trace_one_loss_and_gradient(*conflicting)
    # Two chains, each with one fixed goal: all but the first call per chain repeat.
    assert frac == pytest.approx(246 / 248)
    again, _ = layers.trace_one_loss_and_gradient(*conflicting)
    assert again.calls == tracer.calls


def test_traced_rollout_counts_repeat_exactly():
    w = wl.RolloutArm(0)
    counts = []
    for _ in range(2):
        tracer = layers.new_tracer()
        with tracer:
            for _, _, thunk in w.ops(0):
                result, _ = thunk()
        counts.append(list(tracer.calls))
        steps = len(result.trajectory) - 1
        values, _ = layers.layer_metrics(tracer, steps, {})
        # Three intermediate RK4 stages plus one full evaluation per step,
        # and one final evaluation at the converged state.
        assert values["rollout.evals_per_step"] == (4 * steps + 1) / steps
    assert counts[0] == counts[1]


def test_catalogue_matches_benchmark_json_and_predictions():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = layers.metric_units()
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == units
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "ops_per_ref_s",
                                                         "peak_rss_mb"}
    predictions = json.loads((HERE / "predictions.json").read_text())
    assert set(predictions["per_layer"]) == set(units)
    assert set(predictions["workloads"]) == set(wl.WORKLOADS)


def test_compare_tolerances():
    ref = {"status": "converged", "steps": 10, "q_end": [1.0, 2.0], "phi": 1e-13}
    assert wl.compare(dict(ref), ref, 1e-12) == []
    near = dict(ref, q_end=[1.0, 2.0 + 1e-12])
    assert wl.compare(near, ref, 1e-12) == []
    far = dict(ref, q_end=[1.0, 2.0 + 1e-9], steps=11, phi=2e-12)
    misses = wl.compare(far, ref, 1e-12)
    assert len(misses) == 3
    assert wl.compare({}, ref, 1e-12)
