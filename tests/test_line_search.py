"""The early-rejecting Armijo search: its summing helper against a full-sum
oracle, and whole training runs against runs whose search sums in full."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemotion import learning, losses
from treemotion.fixtures import conflicting_demo_fixture
from treemotion.learning import (
    TrainOptions,
    _total_within,
    train,
    train_independent_baseline,
)
from treemotion.losses import LossSpec
from treemotion.maps import DiffeoChain


def full_sum(terms, bound=np.inf):
    """Oracle: every term summed in order, whatever the bound."""
    total = 0.0
    for v in terms:
        total += v
    return total


def accepts(total, bound):
    return bool(np.isfinite(total) and total <= bound)


SPECIAL = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, math.inf, math.nan]
TERM = st.one_of(
    st.sampled_from(SPECIAL),  # zeros, subnormal, smallest normal, near overflow
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def terms_and_bound(draw):
    terms = draw(st.lists(TERM, max_size=12))
    partials = [0.0]
    for v in terms:
        partials.append(partials[-1] + v)
    tie = draw(st.sampled_from(partials))
    bound = draw(st.one_of(
        st.just(tie),  # an exact tie with a partial or the full total
        st.sampled_from([math.nextafter(tie, -math.inf),
                         math.nextafter(tie, math.inf)]),
        st.sampled_from([-math.inf, math.inf, math.nan, 0.0, -0.0]),
        st.floats(),
    ))
    return terms, bound


@settings(derandomize=True, max_examples=250, deadline=None)
@given(terms_and_bound())
def test_early_exit_decides_like_the_full_sum(case):
    terms, bound = case
    oracle = full_sum(terms)
    consumed = []

    def feed():
        for v in terms:
            consumed.append(v)
            yield v

    total = _total_within(feed(), bound)
    assert accepts(total, bound) == accepts(oracle, bound)
    if accepts(oracle, bound):
        assert total == oracle and len(consumed) == len(terms)
    elif consumed != terms:
        # It stopped early: only at a partial total that fails the bound.
        assert not full_sum(consumed) <= bound


@pytest.fixture(scope="module")
def fixture_one():
    tree, params, demos, lam, _ = conflicting_demo_fixture(seed=1)
    return tree, params, demos, lam


def _counted_runs(monkeypatch, fixture, oracle):
    """Train the subtask, joint and baseline runs; count the demo states the
    subtask run evaluates and the chain inputs the baseline maps, each
    per-sample pass and each row of a stacked one."""
    tree, params, demos, lam = fixture
    counts = {"pipeline": 0, "chain": 0}
    run_pipeline, run_stacked = learning.run_pipeline, losses.run_stacked
    stacked_value_jacobian_tape = DiffeoChain.stacked_value_jacobian_tape

    def pipeline(*args):
        counts["pipeline"] += 1
        return run_pipeline(*args)

    def stacked(tree, Q, params):
        counts["pipeline"] += len(Q)
        return run_stacked(tree, Q, params)

    def stacked_chain(self, X, params):
        counts["chain"] += len(X)
        return stacked_value_jacobian_tape(self, X, params)

    with monkeypatch.context() as m:
        if oracle:
            m.setattr(learning, "_total_within", full_sum)
        m.setattr(losses, "run_stacked", stacked)
        m.setattr(learning, "run_pipeline", pipeline)
        opts = TrainOptions(alpha=None, iterations=2)
        subtask = train(tree, params, demos, LossSpec("subtask_space", lam), opts)
        subtask_passes = counts["pipeline"]
        joint = train(tree, params, demos, LossSpec("joint_space"), opts)
        m.setattr(DiffeoChain, "stacked_value_jacobian_tape", stacked_chain)
        baseline = train_independent_baseline(tree, params, demos, opts)
    return (subtask, joint, baseline), subtask_passes, counts["chain"]


def test_training_is_bit_identical_to_a_full_sum_search_and_does_less(
        monkeypatch, fixture_one):
    runs, passes, chain_passes = _counted_runs(monkeypatch, fixture_one, oracle=False)
    oracle, oracle_passes, oracle_chain_passes = _counted_runs(
        monkeypatch, fixture_one, oracle=True)
    for result, expected in zip(runs[:2], oracle[:2]):
        assert result.status == expected.status == "completed"
        assert np.array_equal(result.params.values, expected.params.values)
        assert np.array_equal(result.history, expected.history)
    assert np.array_equal(runs[2].values, oracle[2].values)
    # The stacked chunks start small, so a trial that rejects early still
    # evaluates fewer states than the full sum.
    assert passes < oracle_passes
    assert 0 < chain_passes < oracle_chain_passes
