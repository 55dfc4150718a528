"""The stacked loss-only route against the per-sample route it replaces:
the same bits for ``pi``, for every loss term and for the baseline's
loss-only leaf terms, and the same errors, naming the failing sample."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemotion.errors import DomainError, NumericError, SingularMetricError, StructureError
from treemotion.fixtures import random_tree
from treemotion.learning import (
    TrainOptions,
    _baseline_leaf_terms,
    _leaf_samples,
    _total_within,
    train,
)
from treemotion.losses import LossSpec, loss_value, sample_loss, sample_losses
from treemotion.maps import DistanceToPoint, IdentityMap, PlanarArmFK
from treemotion.policies import (
    ConstantMetric,
    RawVMLeaf,
    handcrafted_attractor,
    handcrafted_barrier,
    handcrafted_damper,
)
from treemotion.tree import Edge, TransformTree, run_pipeline, run_stacked


def per_sample_losses(loss, tree, params, samples, lam):
    """Reference: the per-sample loop ``sample_losses`` ran before it stacked."""
    for q, qdot in samples:
        yield sample_loss(tree, loss, lam, run_pipeline(tree, q, params), qdot)[0]


def per_sample_baseline_terms(tree, params, leaf, samples):
    """Reference: the baseline's loss-only leaf terms, one sample at a time."""
    policy, latent = tree.leaf_table[leaf].policy, tree.leaf_table[leaf].latent
    for x, zdot in samples:
        if latent is not None:
            w, J_chain, _ = latent.map.value_jacobian_tape(x, params)
            y = J_chain @ zdot
        else:
            w, y = x, zdot
        p, M, _ = policy.evaluate(w, params, parent_coord=x)
        r = y - np.linalg.solve(M, p)
        yield float(r @ r)


def bit_equal(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@settings(derandomize=True, max_examples=16, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([1, 2, 7, 124]))
def test_stacked_route_is_bit_identical_to_the_per_sample_route(seed, n):
    tree, params = random_tree(seed)
    rng = np.random.default_rng(seed)
    qs = rng.uniform(-1.0, 1.0, (n, tree.root_dim))
    samples = list(zip(qs, rng.uniform(-1.0, 1.0, (n, tree.root_dim))))

    _, pi = run_stacked(tree, qs, params)
    assert all(np.array_equal(pi[k], run_pipeline(tree, q, params).pi)
               for k, q in enumerate(qs))

    lam = rng.uniform(0.0, 2.0, len(tree.leaves)) * (rng.random(len(tree.leaves)) < 0.7)
    for loss, lam_k in ((LossSpec("joint_space"), None), (LossSpec("subtask_space", lam), lam)):
        expected = list(per_sample_losses(loss, tree, params, samples, lam_k))
        assert bit_equal(list(sample_losses(loss, tree, params, samples)), expected)
        assert loss_value(loss, tree, params, samples) == _total_within(expected)

    for leaf in tree.leaves:
        leaf_samples = _leaf_samples(tree, params, leaf, samples)
        expected = list(per_sample_baseline_terms(tree, params, leaf, leaf_samples))
        assert bit_equal(list(_baseline_leaf_terms(tree, params, leaf, leaf_samples)),
                         expected)


# ---------------------------------------------------------------------------
# Errors: the per-sample route decides which sample fails, and how
# ---------------------------------------------------------------------------


def attractor_tree():
    leaves = {1: handcrafted_attractor([0.5, -0.5]), 2: handcrafted_damper(0.5, 2)}
    edges = [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))]
    return TransformTree([2, 2, 2], edges, leaves)


def arm_tree():
    # No damper: the root metric is singular where the two-link arm is straight.
    return TransformTree([2, 2], [Edge(0, 1, PlanarArmFK([1.0, 1.0]))],
                         {1: handcrafted_attractor([1.0, 1.0])})


def obstacle_tree():
    leaves = {1: handcrafted_barrier(0.5), 2: handcrafted_damper(0.5, 2)}
    edges = [Edge(0, 1, DistanceToPoint([0.3, 0.2])), Edge(0, 2, IdentityMap(2))]
    return TransformTree([2, 1, 2], edges, leaves)


BAD_STATES = [
    (attractor_tree, [np.inf, 0.0], NumericError),
    (arm_tree, [0.3, 0.0], SingularMetricError),
    (obstacle_tree, [0.3, 0.2], DomainError),
]


@pytest.mark.parametrize("build, bad, kind", BAD_STATES,
                         ids=["non-finite-leaf", "singular-root", "domain"])
@pytest.mark.parametrize("k", [0, 4, 8])
def test_a_failing_sample_raises_the_per_sample_error_naming_it(build, bad, kind, k):
    tree = build()
    rng = np.random.default_rng(k)
    qs = list(rng.uniform(0.6, 1.0, (12, 2)))
    qs[k] = np.array(bad)
    samples = [(q, np.zeros(2)) for q in qs]
    with pytest.raises(kind) as per_sample:
        run_pipeline(tree, qs[k])
    for loss in (LossSpec("joint_space"), LossSpec("subtask_space", np.ones(len(tree.leaves)))):
        with pytest.raises(kind) as stacked:
            loss_value(loss, tree, None, samples)
        assert type(stacked.value) is type(per_sample.value)
        assert str(stacked.value) == f"sample {k}: {per_sample.value}"
        # The terms before the failing sample are yielded as before.
        terms = sample_losses(loss, tree, None, samples)
        assert [next(terms) for _ in range(k)] == list(
            per_sample_losses(loss, tree, None, samples[:k], loss.lam))


def test_the_first_failing_sample_wins_whatever_stage_fails():
    # Sample 5 fails in the forward stage, sample 3 only at the leaves:
    # a stacked pass meets sample 5's error first, the per-sample route
    # sample 3's, and the per-sample route decides.
    tree = obstacle_tree()
    qs = [np.array([1.0, 1.0])] * 8
    qs[3] = np.array([np.nan, 1.0])
    qs[5] = np.array([0.3, 0.2])
    with pytest.raises(NumericError) as info:
        loss_value(LossSpec("joint_space"), tree, None, [(q, np.zeros(2)) for q in qs])
    assert type(info.value) is NumericError
    assert str(info.value) == "sample 3: leaf 1 produced a non-finite policy output"


@pytest.mark.parametrize("Q", [np.zeros((3, 3)), np.zeros(2), np.zeros((0, 2)),
                               np.zeros((2, 2, 1))])
def test_a_wrongly_shaped_stack_is_a_structure_error(Q):
    with pytest.raises(StructureError, match="stacked states have shape"):
        run_stacked(attractor_tree(), Q)


def test_ragged_states_are_a_structure_error_naming_the_sample():
    tree = attractor_tree()
    with pytest.raises(StructureError, match="do not form one array"):
        run_stacked(tree, [np.zeros(2), np.zeros(3)])
    samples = [(np.zeros(2), np.zeros(2)), (np.zeros(3), np.zeros(2))]
    with pytest.raises(StructureError, match=r"^sample 1: q has shape \(3,\)"):
        loss_value(LossSpec("joint_space"), tree, None, samples)


def test_an_empty_stack_sums_to_zero():
    tree = attractor_tree()
    assert loss_value(LossSpec("joint_space"), tree, None, []) == 0.0
    assert loss_value(LossSpec("subtask_space", np.ones(2)), tree, None, []) == 0.0
    assert _total_within(_baseline_leaf_terms(tree, None, 1, [])) == 0.0


def test_train_aborts_when_the_final_stacked_loss_fails():
    # One step lands the learnable velocity at 1e308, where the leaf force
    # M v overflows: the final loss raises NumericError and train keeps the
    # last finite iterate, as the per-sample route did.
    leaf = RawVMLeaf(np.zeros(2), ConstantMetric(4.0 * np.eye(2)), learnable=True)
    tree = TransformTree([2, 2], [Edge(0, 1, IdentityMap(2))], {1: leaf})
    params = tree.init_params()
    samples = [(np.zeros(2), np.ones(2))]
    result = train(tree, params, samples, LossSpec("joint_space"),
                   TrainOptions(alpha=0.5e308, iterations=1))
    assert result.status == "aborted_nonfinite"
    assert np.array_equal(result.params.values, params.values)
    assert result.history.tolist() == [2.0]
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match="^sample 0: leaf 1 produced a non-finite"):
        loss_value(LossSpec("joint_space"), tree, params.with_values(np.full(2, 1e308)),
                   samples)
