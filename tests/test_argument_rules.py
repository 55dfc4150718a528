"""One table of values against every public scalar argument and spec key.

Each call either succeeds or raises a ``TreeMotionError`` subclass (a
``SpecFormatError`` through a spec or a training config), and it
succeeds exactly when the argument's rule admits the value: the real
rule of ``errors.as_real``, the integer rule of ``errors.as_integer``, a
JSON bool for a spec's ``"learnable"``, or none of the values for a
state argument, which takes an array of the root's dimension.
"""

import copy
import json
import math

import numpy as np
import pytest

from treemotion import io as tmio
from treemotion.errors import SpecFormatError, TreeMotionError
from treemotion.learning import TrainOptions
from treemotion.losses import DemoSet, LossSpec, Trajectory
from treemotion.maps import DiffeoChain, IdentityMap, RFFNet
from treemotion.policies import (
    BarrierPotential,
    CholeskyMetricNet,
    ConstantMetric,
    InverseSquareMetric,
    QuadraticPotential,
    RawVMLeaf,
    handcrafted_attractor,
    handcrafted_barrier,
    handcrafted_damper,
)
from treemotion.rollout import integrate, lyapunov_check
from treemotion.tree import (
    Edge,
    TransformTree,
    evaluate_policy,
    flat_solve,
    forward_pass,
    run_pipeline,
    run_stacked,
)
from treemotion.verify import check_tree, gradcheck_report

from test_io_cli import ARM_SPEC, VALID_SPEC

# [[0.0], [0.0, 1.0]] is a ragged array: no rule admits it.
VALUES = [None, True, False, "x", "3", 2.5, -1, 0, math.nan, math.inf, -math.inf, [], {},
          [[0.0], [0.0, 1.0]]]


def real(bound):
    """The values ``as_real`` admits: an int or a float (never a bool or
    a string), finite, within ``bound``."""
    return lambda v: type(v) in (int, float) and math.isfinite(v) and bound(v)


def integer(minimum):
    """The values ``as_integer`` admits: an int or a whole float (never a
    bool or a string), at least ``minimum``."""
    return lambda v: ((type(v) is int or (type(v) is float and v.is_integer()))
                      and v >= minimum)


def or_none(rule):
    return lambda v: v is None or rule(v)


FLAG = lambda v: type(v) is bool  # a JSON true or false
NEVER = lambda v: False  # a state argument: no value of the table is a state
POSITIVE = real(lambda v: v > 0)
NONNEGATIVE = real(lambda v: v >= 0)
COUNT, SEED = integer(1), integer(0)


@pytest.fixture(scope="module")
def arm():
    return tmio.load_tree(ARM_SPEC)


@pytest.fixture(scope="module")
def learnable():
    """Two weights, one demo sample: a gradient check in microseconds."""
    leaf = RawVMLeaf(np.zeros(2), ConstantMetric(np.eye(2)), learnable=True)
    tree = TransformTree([2, 2], [Edge(0, 1, IdentityMap(2))], {1: leaf})
    demos = DemoSet([Trajectory(np.arange(2.0), np.zeros((2, 2)), np.ones((2, 2)))])
    return tree, tree.init_params(), demos


Q = np.array([0.35, 0.55, 0.35])

# (entry point.argument, call of a value, rule); a call takes the arm
# tree, the learnable tree and the value.
CALLS = [
    ("QuadraticPotential.gain", lambda a, l, v: QuadraticPotential([0.0], v), POSITIVE),
    ("BarrierPotential.margin", lambda a, l, v: BarrierPotential(v), POSITIVE),
    ("BarrierPotential.gain", lambda a, l, v: BarrierPotential(0.3, v), POSITIVE),
    ("ConstantMetric.scaled_identity.scale",
     lambda a, l, v: ConstantMetric.scaled_identity(v, 2), POSITIVE),
    ("ConstantMetric.scaled_identity.dim",
     lambda a, l, v: ConstantMetric.scaled_identity(1.0, v), COUNT),
    ("InverseSquareMetric.weight", lambda a, l, v: InverseSquareMetric(v, 1.0), POSITIVE),
    ("InverseSquareMetric.margin", lambda a, l, v: InverseSquareMetric(1.0, v), POSITIVE),
    ("CholeskyMetricNet.eps", lambda a, l, v: CholeskyMetricNet(2, hidden=(4,), eps=v),
     POSITIVE),
    ("CholeskyMetricNet.dim", lambda a, l, v: CholeskyMetricNet(v, hidden=(4,)), COUNT),
    ("CholeskyMetricNet.in_dim",
     lambda a, l, v: CholeskyMetricNet(2, in_dim=v, hidden=(4,)), or_none(COUNT)),
    ("CholeskyMetricNet.hidden", lambda a, l, v: CholeskyMetricNet(2, hidden=(v,)), COUNT),
    ("CholeskyMetricNet.seed", lambda a, l, v: CholeskyMetricNet(2, hidden=(4,), seed=v),
     SEED),
    ("handcrafted_damper.gain", lambda a, l, v: handcrafted_damper(v, 2), POSITIVE),
    ("handcrafted_damper.dim", lambda a, l, v: handcrafted_damper(1.0, v), COUNT),
    ("handcrafted_attractor.gain",
     lambda a, l, v: handcrafted_attractor([0.0, 0.0], gain=v), POSITIVE),
    ("handcrafted_attractor.weight",
     lambda a, l, v: handcrafted_attractor([0.0, 0.0], weight=v), POSITIVE),
    ("handcrafted_barrier.margin", lambda a, l, v: handcrafted_barrier(v), POSITIVE),
    ("handcrafted_barrier.gain", lambda a, l, v: handcrafted_barrier(0.3, gain=v), POSITIVE),
    ("handcrafted_barrier.weight",
     lambda a, l, v: handcrafted_barrier(0.3, weight=v), POSITIVE),
    ("RFFNet.length_scale", lambda a, l, v: RFFNet(2, 1, 4, length_scale=v), POSITIVE),
    ("RFFNet.in_dim", lambda a, l, v: RFFNet(v, 1, 4), COUNT),
    ("RFFNet.out_dim", lambda a, l, v: RFFNet(2, v, 4), COUNT),
    ("RFFNet.n_features", lambda a, l, v: RFFNet(2, 1, v), COUNT),
    ("RFFNet.seed", lambda a, l, v: RFFNet(2, 1, 4, seed=v), SEED),
    ("DiffeoChain.length_scale",
     lambda a, l, v: DiffeoChain(2, n_layers=1, n_features=4, length_scale=v), POSITIVE),
    ("DiffeoChain.init_scale",
     lambda a, l, v: DiffeoChain(2, n_layers=1, n_features=4, init_scale=v).init_values(),
     NONNEGATIVE),
    ("DiffeoChain.n_layers", lambda a, l, v: DiffeoChain(2, n_layers=v, n_features=4), COUNT),
    ("DiffeoChain.n_features", lambda a, l, v: DiffeoChain(2, n_layers=1, n_features=v),
     COUNT),
    ("DiffeoChain.seed", lambda a, l, v: DiffeoChain(2, n_layers=1, n_features=4, seed=v),
     SEED),
    ("IdentityMap.dim", lambda a, l, v: IdentityMap(v), COUNT),
    ("integrate.dt", lambda a, l, v: integrate(a, None, Q, dt=v, max_steps=2), POSITIVE),
    ("integrate.max_steps", lambda a, l, v: integrate(a, None, Q, max_steps=v), SEED),
    ("integrate.grad_tol",
     lambda a, l, v: integrate(a, None, Q, max_steps=2, grad_tol=v), NONNEGATIVE),
    ("lyapunov_check.slack_coeff",
     lambda a, l, v: lyapunov_check(integrate(a, None, Q, dt=0.01, max_steps=3),
                                    slack_coeff=v), NONNEGATIVE),
    ("evaluate_policy.regularization",
     lambda a, l, v: evaluate_policy(a, Q, regularization=v), NONNEGATIVE),
    ("run_pipeline.regularization", lambda a, l, v: run_pipeline(a, Q, None, v), NONNEGATIVE),
    ("forward_pass.q", lambda a, l, v: forward_pass(a, v), NEVER),
    ("forward_pass.q.one_state", lambda a, l, v: forward_pass(a, v, stack=False), NEVER),
    ("run_stacked.Q", lambda a, l, v: run_stacked(a, v), NEVER),
    ("flat_solve.regularization",
     lambda a, l, v: flat_solve(a, Q, regularization=v), NONNEGATIVE),
    ("TrainOptions.alpha", lambda a, l, v: TrainOptions(alpha=v).validate(),
     or_none(POSITIVE)),
    ("TrainOptions.momentum", lambda a, l, v: TrainOptions(momentum=v).validate(),
     real(lambda v: 0 <= v < 1)),
    ("TrainOptions.iterations", lambda a, l, v: TrainOptions(iterations=v).validate(), SEED),
    ("TrainOptions.seed", lambda a, l, v: TrainOptions(seed=v).validate(), SEED),
    ("TrainOptions.minibatch", lambda a, l, v: TrainOptions(minibatch=v).validate(),
     or_none(COUNT)),
    ("gradcheck_report.h",
     lambda a, l, v: gradcheck_report(*l, LossSpec("joint_space"), h=v), POSITIVE),
    ("gradcheck_report.tol",
     lambda a, l, v: gradcheck_report(*l, LossSpec("joint_space"), tol=v), POSITIVE),
    ("check_tree.n_points", lambda a, l, v: check_tree(a, n_points=v), SEED),
    ("check_tree.seed", lambda a, l, v: check_tree(a, n_points=1, seed=v), SEED),
]


def outcomes(call, error):
    """Per value, ``True`` for a success and ``False`` for an ``error``;
    any other exception propagates and fails the test."""
    result = {}
    for value in VALUES:
        try:
            call(value)
            result[repr(value)] = True
        except error:
            result[repr(value)] = False
    return result


def expected(rule):
    return {repr(value): bool(rule(value)) for value in VALUES}


@pytest.mark.parametrize("call, rule", [c[1:] for c in CALLS], ids=[c[0] for c in CALLS])
def test_every_scalar_argument_follows_its_rule(arm, learnable, call, rule):
    assert outcomes(lambda v: call(arm, learnable, v), TreeMotionError) == expected(rule)


def test_a_real_argument_never_takes_nan_inf_or_a_string():
    for _, _, rule in CALLS:
        assert not any(rule(v) for v in (math.nan, math.inf, -math.inf, "x", "3"))


def _arm_spec():
    with open(ARM_SPEC) as fh:
        return json.load(fh)


# A raw leaf behind an identity edge: the one spec here with a raw_vm policy.
RAW_SPEC = {
    "nodes": [{"id": 0, "dim": 2}, {"id": 1, "dim": 2}],
    "edges": [{"parent": 0, "child": 1, "map": {"kind": "identity"}}],
    "leaves": [{"node": 1, "policy": {"kind": "raw_vm", "velocity": [0.1, 0.2],
                                      "metric": {"kind": "constant", "scale": 2.0}}}],
}

# (spec name, spec, path to one scalar key, rule); the spec is built
# from its JSON text, so NaN and infinity arrive as JSON reads them.
SPEC_KEYS = [
    ("arm", _arm_spec(), ("leaves", 0, "policy", "gain"), POSITIVE),
    ("arm", _arm_spec(), ("leaves", 0, "policy", "weight"), POSITIVE),
    ("arm", _arm_spec(), ("leaves", 1, "policy", "margin"), POSITIVE),
    ("arm", _arm_spec(), ("leaves", 1, "policy", "gain"), POSITIVE),
    ("arm", _arm_spec(), ("leaves", 1, "policy", "weight"), POSITIVE),
    ("arm", _arm_spec(), ("leaves", 2, "policy", "gain"), POSITIVE),
    ("learned", VALID_SPEC, ("edges", 1, "map", "length_scale"), POSITIVE),
    ("learned", VALID_SPEC, ("edges", 1, "map", "layers"), COUNT),
    ("learned", VALID_SPEC, ("edges", 1, "map", "features_D"), COUNT),
    ("learned", VALID_SPEC, ("edges", 1, "map", "seed"), SEED),
    ("learned", VALID_SPEC, ("leaves", 0, "policy", "metric", "eps"), POSITIVE),
    ("learned", VALID_SPEC, ("leaves", 0, "policy", "metric", "seed"), SEED),
    ("learned", VALID_SPEC, ("leaves", 0, "policy", "metric", "hidden", 0), COUNT),
    ("learned", VALID_SPEC, ("leaves", 1, "policy", "gain"), POSITIVE),
    ("learned", VALID_SPEC, ("edges", 1, "map", "learnable"), FLAG),
    ("learned", VALID_SPEC, ("leaves", 0, "policy", "learnable"), FLAG),
    ("learned", VALID_SPEC, ("leaves", 0, "policy", "metric", "learnable"), FLAG),
    ("raw", RAW_SPEC, ("leaves", 0, "policy", "learnable"), FLAG),
]


def _with_value(spec, path, value):
    spec = copy.deepcopy(spec)
    entry = spec
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    return json.loads(json.dumps(spec))


@pytest.mark.parametrize("spec, path, rule", [k[1:] for k in SPEC_KEYS],
                         ids=[f"{k[0]}-{'.'.join(map(str, k[2]))}" for k in SPEC_KEYS])
def test_every_scalar_spec_key_follows_its_rule(spec, path, rule):
    build = lambda v: tmio.tree_from_dict(_with_value(spec, path, v))
    assert outcomes(build, SpecFormatError) == expected(rule)


@pytest.mark.parametrize("key, rule", [
    ("alpha", or_none(POSITIVE)), ("momentum", real(lambda v: 0 <= v < 1)),
    ("iterations", SEED), ("seed", SEED), ("minibatch", or_none(COUNT)),
])
def test_every_training_config_key_follows_its_rule(key, rule):
    parse = lambda v: tmio.parse_training_config(json.loads(json.dumps({key: v})))
    assert outcomes(parse, SpecFormatError) == expected(rule)
