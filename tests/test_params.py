import numpy as np
import pytest

from treemotion.errors import SpecFormatError, StructureError
from treemotion.maps import DiffeoChain
from treemotion.params import Learnable, ParamRegistryBuilder, ParamVector
from treemotion.policies import CholeskyMetricNet


def test_registry_must_be_contiguous_and_cover_values():
    ParamVector(np.zeros(5), [("a", 0, 2), ("b", 2, 3)])
    with pytest.raises(StructureError):
        ParamVector(np.zeros(5), [("a", 0, 2), ("b", 3, 2)])  # gap
    with pytest.raises(StructureError):
        ParamVector(np.zeros(5), [("a", 0, 2)])  # short


def test_builder_assigns_disjoint_slices_in_order():
    b = ParamRegistryBuilder()
    sa = b.register("a", np.array([1.0, 2.0]))
    sb = b.register("b", np.array([3.0]))
    params = b.build()
    assert (sa.start, sa.stop, sb.start, sb.stop) == (0, 2, 2, 3)
    np.testing.assert_array_equal(params.values, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(params.get("b"), [3.0])
    with pytest.raises(StructureError):
        b.register("a", np.zeros(1))


def test_json_round_trip(tmp_path):
    params = ParamVector(np.array([0.5, -1.5, 2.0]), [("x", 0, 1), ("y", 1, 2)])
    path = tmp_path / "p.json"
    params.save(str(path))
    back = ParamVector.load(str(path))
    assert back.registry == params.registry
    np.testing.assert_array_equal(back.values, params.values)


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SpecFormatError):
        ParamVector.load(str(path))
    path.write_text('{"values": [1.0]}')
    with pytest.raises(SpecFormatError):
        ParamVector.load(str(path))


def test_with_values_checks_shape():
    params = ParamVector(np.zeros(2), [("a", 0, 2)])
    fresh = params.with_values(np.array([1.0, 2.0]))
    np.testing.assert_array_equal(fresh.values, [1.0, 2.0])
    assert fresh.registry == params.registry
    with pytest.raises(StructureError):
        params.with_values(np.zeros(3))


def test_learnable_weights_come_from_frozen_copy_or_bound_slice():
    class Velocity(Learnable):
        n_params = 2

        def init_values(self):
            return np.array([0.5, -0.5])

    bound, frozen = Velocity(), Velocity()
    frozen.freeze()
    assert bound.is_learnable and not frozen.is_learnable
    np.testing.assert_array_equal(frozen.weights(None), [0.5, -0.5])
    with pytest.raises(StructureError, match="no assigned parameter slice"):
        bound.weights(None)
    builder = ParamRegistryBuilder()
    bound.param_slice = builder.register("v", np.array([1.0, 2.0]))
    np.testing.assert_array_equal(bound.weights(builder.build()), [1.0, 2.0])


def test_unbound_learnable_components_raise_in_their_recording_forwards():
    # A learnable chain or net that no tree bound has no weights to
    # differentiate: a silent zero gradient would hide the mistake. Its
    # reverse rules need the tape of a forward, and that forward raises.
    chain = DiffeoChain(2, n_layers=1, n_features=3)
    with pytest.raises(StructureError):
        chain.value_jacobian_tape(np.zeros(2), None)
    with pytest.raises(StructureError):
        chain.value_tape(np.zeros(2), None)
    net = CholeskyMetricNet(2, hidden=(3,))
    with pytest.raises(StructureError):
        net.decompose(np.zeros(2), None)
    # Frozen components have nothing to differentiate and stay silent.
    frozen_chain = DiffeoChain(2, n_layers=1, n_features=3, learnable=False)
    _, tape = frozen_chain.value_tape(np.zeros(2), None)
    assert frozen_chain.value_vjp(np.zeros(2), None, np.ones(2), tape) == []
    frozen_net = CholeskyMetricNet(2, hidden=(3,), learnable=False)
    _, tape = frozen_net.value_tape(np.zeros(2), None)
    assert frozen_net.param_vjp(np.zeros(2), None, np.eye(2), tape)[1] == []
