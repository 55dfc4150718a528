"""The stacked routes against the per-sample routes they replace: the
same bits for ``pi``, for every loss term, for the baseline's leaf terms
and gradients and for each stacked reverse kernel, and the same errors,
naming the failing sample."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemotion import learning, losses
from treemotion.errors import (
    DomainError,
    NumericError,
    SingularMetricError,
    StructureError,
    TreeMotionError,
)
from treemotion.fixtures import conflicting_demo_fixture, random_tree
from treemotion.learning import (
    TrainOptions,
    _baseline_leaf_terms,
    _leaf_samples,
    _total_within,
    loss_and_gradient,
    train,
    train_independent_baseline,
)
from treemotion.losses import LossSpec, loss_value, sample_loss, sample_losses
from treemotion.maps import DiffeoChain, DistanceToPoint, IdentityMap, PlanarArmFK, stacked_mv
from treemotion.params import Learnable
from treemotion.policies import (
    CholeskyMetricNet,
    ConstantMetric,
    LeafPolicy,
    Metric,
    NaturalGradientLeaf,
    Potential,
    QuadraticPotential,
    RawVMLeaf,
    handcrafted_attractor,
    handcrafted_barrier,
    handcrafted_damper,
)
from treemotion.tree import Edge, TransformTree, run_pipeline, run_stacked
from treemotion.verify import gradcheck_report

from conftest import add_rows


def per_sample_losses(loss, tree, params, samples, lam):
    """Reference: the per-sample loop ``sample_losses`` ran before it stacked."""
    for q, qdot in samples:
        yield sample_loss(tree, loss, lam, run_pipeline(tree, q, params), qdot)[0]


def per_sample_baseline_terms(tree, params, leaf, samples, grad=None):
    """Reference: the baseline's leaf terms one sample at a time, with
    each sample's gradient added into ``grad`` (if given) before its term
    is yielded."""
    policy, latent = tree.leaf_table[leaf].policy, tree.leaf_table[leaf].latent
    chain = latent.map if latent is not None else None
    for x, zdot in samples:
        if chain is not None:
            w, J_chain, tape = chain.value_jacobian_tape(x, params)
            y = J_chain @ zdot
        else:
            w, y = x, zdot
        p, M, record = policy.evaluate(w, params, parent_coord=x)
        v = np.linalg.solve(M, p)
        r = y - v
        if grad is not None:
            rho = np.linalg.solve(M, r)
            c_w, rows = policy.vjp(w, params, -2.0 * rho, 2.0 * np.outer(rho, v),
                                   parent_coord=x, tape=record)
            if chain is not None and chain.is_learnable:
                rows = rows + chain.pullback_vjp(x, params, c_w, zdot[:, None],
                                                 (2.0 * r)[:, None], tape=tape)
            add_rows(grad, rows)
        yield float(r @ r)


def per_sample_leaf_samples(tree, params, leaf, samples):
    """Reference: each ``(q, qdot)`` mapped through the leaf's anchor alone."""
    mapped = []
    for q, qdot in samples:
        x, J = np.asarray(q, dtype=float), np.eye(tree.root_dim)
        for edge in tree.leaf_table[leaf].anchor:
            x, J_edge = edge.map.value_and_jacobian(x, params)
            J = J_edge @ J
        mapped.append((x, J @ qdot))
    return mapped


def chunks_through(n, k):
    """Sizes of the stacked chunks (8, 32, then 128 samples) of ``n``
    samples, up to and including the one that holds sample ``k``."""
    sizes, lo = [], 0
    for size in itertools.chain((8, 32), itertools.repeat(128)):
        sizes.append(min(size, n - lo))
        lo += sizes[-1]
        if k < lo:
            return sizes


def rows_up_to_failure(n, k):
    """Rows evaluated when sample ``k`` of ``n`` fails: each chunk up to
    ``k``'s once, then stacks of one from that chunk's start through ``k``."""
    sizes = chunks_through(n, k)
    return sizes + [1] * (k - sum(sizes[:-1]) + 1)


def counting(module, name, stack_of):
    """A wrapper of ``module.name`` that appends the number of rows of each
    call, ``len(stack_of(args))``, to the list it returns with it."""
    rows, evaluate = [], getattr(module, name)

    def counted(*args):
        rows.append(len(stack_of(args)))
        return evaluate(*args)

    return counted, rows


def bit_equal(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@settings(derandomize=True, max_examples=16, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([1, 2, 7, 124]))
def test_stacked_route_is_bit_identical_to_the_per_sample_route(seed, n):
    tree, params = random_tree(seed)
    rng = np.random.default_rng(seed)
    qs = rng.uniform(-1.0, 1.0, (n, tree.root_dim))
    samples = list(zip(qs, rng.uniform(-1.0, 1.0, (n, tree.root_dim))))

    # Every row of every node state of the stacked sweep, and each tape
    # and record the per-sample sweep keeps, the stacked one keeps too.
    states, pi = run_stacked(tree, qs, params)
    for k, q in enumerate(qs):
        cache = run_pipeline(tree, q, params)
        assert np.array_equal(pi[k], cache.pi)
        for stacked, single in zip(states, cache.states, strict=True):
            for field in ("coord", "jac_to_parent", "pulled_force", "pulled_metric"):
                expected = getattr(single, field)
                assert (getattr(stacked, field) is None if expected is None
                        else np.array_equal(getattr(stacked, field)[k], expected))
            assert single.tape is None or stacked.tape is not None
            assert single.record is None or stacked.record is not None

    lam = rng.uniform(0.0, 2.0, len(tree.leaves)) * (rng.random(len(tree.leaves)) < 0.7)
    for loss, lam_k in ((LossSpec("joint_space"), None), (LossSpec("subtask_space", lam), lam)):
        expected = list(per_sample_losses(loss, tree, params, samples, lam_k))
        assert bit_equal(list(sample_losses(loss, tree, params, samples)), expected)
        assert loss_value(loss, tree, params, samples) == _total_within(expected)

    for leaf in tree.leaves:
        leaf_samples = _leaf_samples(tree, params, leaf, samples)
        assert all(bit_equal(got, expected) for got, expected in zip(
            leaf_samples, per_sample_leaf_samples(tree, params, leaf, samples)))
        expected = list(per_sample_baseline_terms(tree, params, leaf, leaf_samples))
        assert bit_equal(list(_baseline_leaf_terms(tree, params, leaf, leaf_samples)),
                         expected)


# ---------------------------------------------------------------------------
# Errors: stacks of one decide which sample fails, and how
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
def test_a_failing_sample_raises_the_per_sample_error_naming_it(monkeypatch, build, bad,
                                                                kind, k):
    tree = build()
    rng = np.random.default_rng(k)
    qs = list(rng.uniform(0.6, 1.0, (12, 2)))
    qs[k] = np.array(bad)
    samples = [(q, np.zeros(2)) for q in qs]
    with pytest.raises(kind) as per_sample:
        run_pipeline(tree, qs[k])
    counted, rows = counting(losses, "run_stacked", lambda args: args[1])
    monkeypatch.setattr(losses, "run_stacked", counted)
    for loss in (LossSpec("joint_space"), LossSpec("subtask_space", np.ones(len(tree.leaves)))):
        rows.clear()
        with pytest.raises(kind) as stacked:
            loss_value(loss, tree, None, samples)
        assert type(stacked.value) is type(per_sample.value)
        assert str(stacked.value) == f"sample {k}: {per_sample.value}"
        # The failing chunk once, then stacks of one up to k; nothing after k.
        assert rows == rows_up_to_failure(len(samples), k)
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


def test_the_training_gradient_names_the_failing_sample_as_the_loss_does():
    # A ragged state at sample 1, and a singular root metric at sample 4.
    ragged = [(np.zeros(2), np.zeros(2)), (np.zeros(3), np.zeros(2))]
    build, bad, _ = BAD_STATES[1]
    qs = list(np.random.default_rng(4).uniform(0.6, 1.0, (12, 2)))
    qs[4] = np.array(bad)
    singular = [(q, np.zeros(2)) for q in qs]
    for tree, samples, k in ((attractor_tree(), ragged, 1), (build(), singular, 4)):
        params = tree.init_params()
        for loss in (LossSpec("joint_space"),
                     LossSpec("subtask_space", np.ones(len(tree.leaves)))):
            with pytest.raises(TreeMotionError) as summed:
                loss_value(loss, tree, params, samples)
            with pytest.raises(TreeMotionError) as graded:
                loss_and_gradient(tree, params, samples, loss)
            assert type(graded.value) is type(summed.value)
            assert str(graded.value) == str(summed.value)
            assert str(graded.value).startswith(f"sample {k}: ")


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
    # A qdot of the wrong length, on every route that takes samples.
    samples = [(np.zeros(2), np.zeros(2)), (np.zeros(2), np.zeros(3))]
    message = r"^sample 1: qdot has shape \(3,\), root dimension is 2$"
    leaf = RawVMLeaf(np.zeros(2), ConstantMetric(np.eye(2)), learnable=True)
    learnable = TransformTree([2, 2], [Edge(0, 1, IdentityMap(2))], {1: leaf})
    params = learnable.init_params()
    for loss in (LossSpec("joint_space"), LossSpec("subtask_space", np.ones(1))):
        for run in (lambda: loss_value(loss, learnable, params, samples),
                    lambda: loss_and_gradient(learnable, params, samples, loss),
                    lambda: train(learnable, params, samples, loss,
                                  TrainOptions(alpha=0.1, iterations=1)),
                    lambda: gradcheck_report(learnable, params, samples, loss)):
            with pytest.raises(StructureError, match=message):
                run()


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


# ---------------------------------------------------------------------------
# Stacked reverse kernels: each row is the per-sample kernel's bits
# ---------------------------------------------------------------------------


def test_stacked_mv_is_bit_identical_on_a_column_major_stack():
    # A column-major stack, as ``GL[:, tril]`` is in the metric's reverse
    # rule, against a transposed weight matrix, as there; the per-sample
    # vector, ``GL[tril]`` there, is contiguous.
    rng = np.random.default_rng(3)
    A = rng.normal(0.0, 1.0, (3, 16)).T
    X = np.asfortranarray(rng.normal(0.0, 1.0, (124, 3)))
    Y = stacked_mv(A, X)
    assert all(np.array_equal(Y[k], A @ X[k].copy()) for k in range(len(X)))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 7, 124])
def test_stacked_distance_rows_are_the_per_sample_bits(dim, n):
    rng = np.random.default_rng(10 * n + dim)
    d = DistanceToPoint(rng.normal(0.0, 1.0, dim))
    X = rng.normal(0.0, 2.0, (n, dim))
    Y, J = d.stacked_value_and_jacobian(X)
    assert Y.shape == (n, 1) and J.shape == (n, 1, dim)
    for k, x in enumerate(X):
        y_k, J_k = d.value_and_jacobian(x)
        assert np.array_equal(Y[k], y_k) and np.array_equal(J[k], J_k)
    # A row inside the degenerate radius fails as the per-sample call does.
    X[n // 2] = d.center + 1e-10
    with pytest.raises(DomainError) as per_sample:
        d.value_and_jacobian(X[n // 2])
    with pytest.raises(DomainError) as stacked:
        d.stacked_value_and_jacobian(X)
    assert str(stacked.value) == str(per_sample.value)


@pytest.fixture(scope="module")
def perturbed_fixture():
    tree, params, demos, _, _ = conflicting_demo_fixture(seed=0)
    rng = np.random.default_rng(5)
    return tree, params.with_values(params.values + 0.05 * rng.normal(0.0, 1.0, params.size)), demos


def added(params, rows, k):
    """Row ``k`` of each ``(slice, R)`` pair added, in order, into zeros."""
    grad = params.zeros_like()
    for where, R in rows:
        grad[where] += R[k]
    return grad


@pytest.mark.parametrize("leaf", [2, 3], ids=["chain-d2", "chain-d3"])
@pytest.mark.parametrize("n", [1, 2, 7, 124])
def test_stacked_reverse_kernels_match_the_per_sample_ones(perturbed_fixture, leaf, n):
    tree, params, _ = perturbed_fixture
    policy, latent = tree.leaf_table[leaf].policy, tree.leaf_table[leaf].latent
    chain, metric, goal = latent.map, policy.metric, policy.pot.goal
    d = chain.in_dim
    rng = np.random.default_rng(10 * leaf + n)
    X = rng.uniform(-1.0, 1.0, (n, d))
    cot_y, cot_p = rng.normal(0.0, 1.0, (2, n, d))
    V, cot_V = rng.normal(0.0, 1.0, (2, n, d, 1))
    S = rng.normal(0.0, 1.0, (n, d, d))  # not symmetric

    Y, J, tape = chain.stacked_value_jacobian_tape(X, params)
    pulled = chain.stacked_pullback_vjp(X, params, cot_y, V, cot_V, tape)
    goal_tape = chain.value_tape(goal, params)[1]
    goal_rows = chain.stacked_value_vjp(goal, params, cot_y, goal_tape)
    P, M, record = policy.stacked_evaluate(Y, params, parent_coords=X)
    c_metric, metric_rows = metric.stacked_param_vjp(Y, params, S, record[1])
    c_leaf, leaf_rows = policy.stacked_vjp(Y, params, cot_p, S, record, parent_coords=X)
    assert [len(rows) for rows in (pulled, goal_rows, metric_rows, leaf_rows)] == [1, 1, 1, 2]

    for k in range(n):
        y, J_k, tape_k = chain.value_jacobian_tape(X[k], params)
        assert np.array_equal(Y[k], y) and np.array_equal(J[k], J_k)
        for stacked_entry, entry in zip(tape, tape_k):
            assert all(np.array_equal(a[k], b) for a, b in zip(stacked_entry[:5], entry[:5]))
            assert all(np.array_equal(a, b) for a, b in zip(stacked_entry[5:], entry[5:]))

        grad = add_rows(params.zeros_like(),
                        chain.pullback_vjp(X[k], params, cot_y[k], V[k], cot_V[k], tape_k))
        assert np.abs(grad).max() > 0.0
        assert np.array_equal(added(params, pulled, k), grad)

        grad = add_rows(params.zeros_like(),
                        chain.value_vjp(goal, params, cot_y[k], goal_tape))
        assert np.array_equal(added(params, goal_rows, k), grad)

        p, M_k, record_k = policy.evaluate(y, params, parent_coord=X[k])
        assert np.array_equal(P[k], p) and np.array_equal(M[k], M_k)
        c, rows = metric.param_vjp(y, params, S[k], record_k[1])
        assert np.array_equal(c_metric[k], c)
        assert np.array_equal(added(params, metric_rows, k),
                              add_rows(params.zeros_like(), rows))

        c, rows = policy.vjp(y, params, cot_p[k], S[k], parent_coord=X[k], tape=record_k)
        assert np.array_equal(c_leaf[k], c)
        assert np.array_equal(added(params, leaf_rows, k), add_rows(params.zeros_like(), rows))


def assert_leaf_reverse_matches(policy, params, Z, X, rng):
    """``policy.stacked_vjp`` on its stacked record at the rows ``Z``
    (parent coordinates ``X``, or ``None``) against ``vjp`` of each row on
    its own record: the same cotangents, and the same rows added into
    zeros."""
    n = len(Z)
    _, _, record = policy.stacked_evaluate(Z, params, parent_coords=X)
    cot_p = rng.normal(0.0, 1.0, Z.shape)
    S = rng.normal(0.0, 1.0, (n, policy.dim, policy.dim))
    C, rows = policy.stacked_vjp(Z, params, cot_p, S, record, parent_coords=X)
    for k in range(n):
        x = None if X is None else X[k]
        record_k = policy.evaluate(Z[k], params, parent_coord=x)[2]
        c, rows_k = policy.vjp(Z[k], params, cot_p[k], S[k], tape=record_k, parent_coord=x)
        assert np.array_equal(C[k], c)
        assert np.array_equal(added(params, rows, k), add_rows(params.zeros_like(), rows_k))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([1, 2, 7]))
def test_stacked_leaf_reverse_and_baseline_gradient_match_on_random_trees(seed, n):
    # Every leaf kind, the inherited per-sample loops included, and the
    # baseline's gradient on trees of natural-gradient leaves.
    rng = np.random.default_rng(seed)
    for natural_gradient_only in (False, True):
        tree, params = random_tree(seed, natural_gradient_only=natural_gradient_only)
        qs = rng.uniform(-1.0, 1.0, (n, tree.root_dim))
        states, _ = run_stacked(tree, qs, params)
        for node, policy, edge, _, _, _ in tree.leaf_table.values():
            Z = states[node].coord
            X = states[edge.parent].coord if edge is not None else None
            assert_leaf_reverse_matches(policy, params, Z, X, rng)

    samples = list(zip(qs, rng.uniform(-1.0, 1.0, (n, tree.root_dim))))
    for leaf, _, _, _, _, _ in tree._reverse_leaves:
        leaf_samples = _leaf_samples(tree, params, leaf, samples)
        grad, expected_grad = params.zeros_like(), params.zeros_like()
        terms = list(_baseline_leaf_terms(tree, params, leaf, leaf_samples, grad))
        expected = list(per_sample_baseline_terms(tree, params, leaf, leaf_samples,
                                                  expected_grad))
        assert bit_equal(terms, expected)
        assert np.array_equal(grad, expected_grad)


class GainLeaf(LeafPolicy, Learnable):
    """A custom leaf with only the per-sample contract, ``evaluate`` and
    ``vjp``: ``p = -w * z`` with learnable gains ``w``, ``M = diag(1 + z^2)``."""

    kind = "gain"

    def __init__(self, dim):
        self.dim = self.n_params = dim

    def init_values(self):
        return np.linspace(0.5, 1.5, self.dim)

    def evaluate(self, z, params, parent_coord=None):
        return -self.weights(params) * z, np.diag(1.0 + z * z), z

    def vjp(self, z, params, cot_p, cot_M, tape, parent_coord=None):
        c_z = -self.weights(params) * cot_p + 2.0 * tape * np.diag(cot_M)
        return c_z, [(self.param_slice, -tape * cot_p)]

    def components(self):
        return [("gain", self)]


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("case", ["barrier-inert", "barrier-active", "custom-leaf"])
def test_inherited_stacked_reverse_loops_match_the_per_sample_rules(case, n):
    # The base-class loops: Potential.stacked_grad_param_vjp (the barrier
    # potential), Metric.stacked_param_vjp (the inverse-square metric) and
    # LeafPolicy.stacked_vjp (a custom leaf, the second of two, so its
    # rows start past 0).
    tree = TransformTree([2, 2, 2], [Edge(0, 1, IdentityMap(2)), Edge(0, 2, IdentityMap(2))],
                         {1: GainLeaf(2), 2: GainLeaf(2)})
    params = tree.init_params()
    rng = np.random.default_rng(n)
    if case == "custom-leaf":
        policy = tree.leaf_policies[2]
        assert type(policy).stacked_vjp is LeafPolicy.stacked_vjp
        assert_leaf_reverse_matches(policy, params, rng.uniform(-1.0, 1.0, (n, 2)), None, rng)
        return
    policy = handcrafted_barrier(0.5, gain=1.3, weight=0.7)
    pot, metric = policy.pot, policy.metric
    assert type(pot).stacked_grad_param_vjp is Potential.stacked_grad_param_vjp
    assert type(metric).stacked_param_vjp is Metric.stacked_param_vjp
    Z = rng.uniform(0.6, 2.0, (n, 1)) if case == "barrier-inert" else rng.uniform(0.05, 0.45, (n, 1))
    assert_leaf_reverse_matches(policy, params, Z, None, rng)
    cot, S = rng.normal(0.0, 1.0, (n, 1)), rng.normal(0.0, 1.0, (n, 1, 1))
    C, rows = pot.stacked_grad_param_vjp(Z, params, cot, pot.stacked_grad_tape(Z, params)[1])
    D, metric_rows = metric.stacked_param_vjp(Z, params, S,
                                              metric.stacked_value_tape(Z, params)[1])
    for k in range(n):
        c, rows_k = pot.grad_param_vjp(Z[k], params, cot[k], pot.grad_tape(Z[k], params)[1])
        d, metric_rows_k = metric.param_vjp(Z[k], params, S[k],
                                            metric.value_tape(Z[k], params)[1])
        assert np.array_equal(C[k], c) and np.array_equal(D[k], d)
        assert (c.any() and d.any()) == (case == "barrier-active")
        assert np.array_equal(added(params, rows, k), add_rows(params.zeros_like(), rows_k))
        assert np.array_equal(added(params, metric_rows, k),
                              add_rows(params.zeros_like(), metric_rows_k))


def test_the_baseline_gradient_of_the_fixture_matches_the_per_sample_route(perturbed_fixture):
    tree, params, demos = perturbed_fixture
    for leaf, _, _, _, _, _ in tree._reverse_leaves:
        leaf_samples = _leaf_samples(tree, params, leaf, list(demos.samples()))
        grad, expected_grad = params.zeros_like(), params.zeros_like()
        terms = list(_baseline_leaf_terms(tree, params, leaf, leaf_samples, grad))
        expected = list(per_sample_baseline_terms(tree, params, leaf, leaf_samples,
                                                  expected_grad))
        assert len(terms) == 124 and bit_equal(terms, expected)
        assert np.abs(grad).max() > 0.0 and np.array_equal(grad, expected_grad)
        # Sample k's rows are added as its term is yielded, not before.
        grad, expected_grad = params.zeros_like(), params.zeros_like()
        terms = _baseline_leaf_terms(tree, params, leaf, leaf_samples, grad)
        assert [next(terms) for _ in range(5)] == expected[:5]
        list(per_sample_baseline_terms(tree, params, leaf, leaf_samples[:5], expected_grad))
        assert np.array_equal(grad, expected_grad)


def fail_at(bad, error):
    """A stacked pullback rule that raises ``error`` in any stack holding
    the input ``bad``."""
    stacked = DiffeoChain.stacked_pullback_vjp

    def stacked_pullback_vjp(self, X, *args):
        if any(np.array_equal(x, bad) for x in X):
            raise error("bad sample")
        return stacked(self, X, *args)

    return stacked_pullback_vjp


def consume(terms, error):
    """The terms yielded before ``error`` is raised, and its message."""
    got = []
    with pytest.raises(error) as info:
        for v in terms:
            got.append(v)
    return got, str(info.value)


@pytest.mark.parametrize("error", [NumericError, np.linalg.LinAlgError])
@pytest.mark.parametrize("k", [3, 20, 45, None])
def test_a_failing_stacked_gradient_is_redone_sample_by_sample(monkeypatch, perturbed_fixture,
                                                              error, k):
    # Sample k's pullback fails, after its goal and metric rows; k = None:
    # every pullback fails, so sample 0's does. A library error is redone
    # as stacks of one: it names sample k, and grad holds the rows of
    # samples[:k] only. Any other error leaves its chunk as raised, with
    # the rows of the chunks before.
    tree, params, demos = perturbed_fixture
    samples = _leaf_samples(tree, params, 2, list(demos.samples()))
    if k is None:
        def stacked(self, *args):
            raise error("bad stack")
    else:
        stacked = fail_at(samples[k][0], error)
    monkeypatch.setattr(DiffeoChain, "stacked_pullback_vjp", stacked)
    counted, rows = counting(learning, "_baseline_stacked_terms", lambda args: args[4])
    monkeypatch.setattr(learning, "_baseline_stacked_terms", counted)

    first = 0 if k is None else k
    grad = params.zeros_like()
    got, message = consume(_baseline_leaf_terms(tree, params, 2, samples, grad), error)
    if error is NumericError:
        done = first
        assert message == f"sample {first}: " + ("bad stack" if k is None else "bad sample")
        assert rows == rows_up_to_failure(len(samples), first)
    else:
        done = sum(chunks_through(len(samples), first)[:-1])
        assert message == ("bad stack" if k is None else "bad sample")
        assert rows == chunks_through(len(samples), first)
    expected_grad = params.zeros_like()
    expected = list(per_sample_baseline_terms(tree, params, 2, samples[:done], expected_grad))
    assert len(got) == done and bit_equal(got, expected)
    assert np.array_equal(grad, expected_grad)
    assert (np.abs(grad).max() > 0.0) == (done > 0)


class SingularAt(Metric):
    """The identity, except the zero matrix at the input ``bad``."""

    def __init__(self, bad):
        self.bad = np.asarray(bad, dtype=float)

    def value(self, x, params):
        return np.zeros((2, 2)) if np.array_equal(x, self.bad) else np.eye(2)


def test_a_singular_baseline_metric_is_a_singular_metric_error_naming_the_sample():
    # The metric sees the subtask coordinate x, which training never moves.
    rng = np.random.default_rng(0)
    qs = rng.uniform(-1.0, 1.0, (12, 2))
    demos = [(q, rng.uniform(-1.0, 1.0, 2)) for q in qs]
    leaf = NaturalGradientLeaf(2, QuadraticPotential(np.zeros(2)), SingularAt(qs[5]),
                               metric_input="subtask")
    chain = DiffeoChain(2, n_layers=1, n_features=4, init_scale=0.1)
    tree = TransformTree([2, 2], [Edge(0, 1, chain)], {1: leaf})
    params = tree.init_params()
    samples = _leaf_samples(tree, params, 1, demos)
    for grad in (None, params.zeros_like()):
        got, message = consume(_baseline_leaf_terms(tree, params, 1, samples, grad),
                               SingularMetricError)
        assert message == "sample 5: leaf 1 metric is singular (Singular matrix)"
        assert bit_equal(got, list(per_sample_baseline_terms(tree, params, 1, samples[:5])))
    with pytest.raises(NumericError) as info:
        train_independent_baseline(tree, params, losses.DemoSet([losses.Trajectory(
            np.arange(12.0), qs, np.array([qdot for _, qdot in demos]))]),
            TrainOptions(alpha=0.1, iterations=1))
    assert type(info.value) is NumericError
    assert str(info.value) == "baseline loss for leaf 1 is not finite"
