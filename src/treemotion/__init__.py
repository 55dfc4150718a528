"""Velocity-based motion policies composed on transform trees.

Subtask behaviors live on leaf spaces of a tree of differentiable maps;
the configuration-space velocity is the weighted least-squares blend of
all of them, computed by a forward/backward sweep over the tree. Leaves
built from potentials and SPD importance weights make the closed loop a
natural gradient flow with a summed Lyapunov function, and every weight
in the construction (coupling-layer chains, Cholesky metric networks,
learnable velocities) can be trained end-to-end from demonstrations by
back-propagating through the composition.

Importing the package loads what evaluating and rolling out a policy
needs. The names of ``fixtures``, ``gradients`` and ``learning`` (the
testbeds, the reverse pass and the trainers) are in ``__all__`` and
``dir()`` but load on first use, through the module ``__getattr__``
(PEP 562). A lazy name is looked up in its module on every access and
never stored here, so patching the defining module's binding (as a
tracer does) patches what the package returns, and undoing the patch
undoes it here too.
"""

import importlib

from .errors import (
    DomainError,
    NumericError,
    SingularMetricError,
    SpecFormatError,
    StructureError,
    TreeMotionError,
)
from .losses import (
    DemoSet,
    LossSpec,
    Trajectory,
    joint_loss,
    loss_value,
    subtask_loss,
    velocities_by_central_difference,
)
from .maps import (
    CouplingLayer,
    DiffeoChain,
    DifferentiableMap,
    DistanceToPoint,
    IdentityMap,
    LinearMap,
    PlanarArmFK,
    RFFNet,
)
from .params import ParamVector
from .policies import (
    BarrierPotential,
    CholeskyMetricNet,
    ConstantMetric,
    InverseSquareMetric,
    LatentQuadraticPotential,
    LeafPolicy,
    NaturalGradientLeaf,
    QuadraticPotential,
    RawVMLeaf,
    ZeroPotential,
    handcrafted_attractor,
    handcrafted_barrier,
    handcrafted_damper,
)
from .rollout import (
    LyapunovReport,
    RolloutResult,
    descent_rate,
    integrate,
    lyapunov_check,
)
from .tree import (
    Edge,
    NodeState,
    TransformTree,
    backward_pass,
    evaluate_policy,
    flat_solve,
    forward_pass,
    leaf_evaluate,
    resolve,
    root_potential,
)

__version__ = "0.1.0"

#: names that load on first use, and the module that defines each
_LAZY = {
    **dict.fromkeys(["conflicting_demo_fixture", "gradcheck_cases", "random_tree",
                     "stability_seed_states", "synthesize_conflicting_demos",
                     "three_link_stability_fixture"], "fixtures"),
    **dict.fromkeys(["PolicyGradient", "policy_param_jacobian", "policy_vjp"],
                    "gradients"),
    **dict.fromkeys(["TrainOptions", "TrainResult", "loss_and_gradient",
                     "suggest_length_scale", "train", "train_independent_baseline"],
                    "learning"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "BarrierPotential",
    "CholeskyMetricNet",
    "ConstantMetric",
    "CouplingLayer",
    "DemoSet",
    "DiffeoChain",
    "DifferentiableMap",
    "DistanceToPoint",
    "DomainError",
    "Edge",
    "IdentityMap",
    "InverseSquareMetric",
    "LatentQuadraticPotential",
    "LeafPolicy",
    "LinearMap",
    "LossSpec",
    "LyapunovReport",
    "NaturalGradientLeaf",
    "NodeState",
    "NumericError",
    "ParamVector",
    "PlanarArmFK",
    "PolicyGradient",
    "QuadraticPotential",
    "RFFNet",
    "RawVMLeaf",
    "RolloutResult",
    "SingularMetricError",
    "SpecFormatError",
    "StructureError",
    "Trajectory",
    "TrainOptions",
    "TrainResult",
    "TransformTree",
    "TreeMotionError",
    "ZeroPotential",
    "backward_pass",
    "conflicting_demo_fixture",
    "descent_rate",
    "evaluate_policy",
    "flat_solve",
    "forward_pass",
    "gradcheck_cases",
    "handcrafted_attractor",
    "handcrafted_barrier",
    "handcrafted_damper",
    "integrate",
    "joint_loss",
    "leaf_evaluate",
    "loss_and_gradient",
    "loss_value",
    "lyapunov_check",
    "policy_param_jacobian",
    "policy_vjp",
    "random_tree",
    "resolve",
    "root_potential",
    "stability_seed_states",
    "subtask_loss",
    "suggest_length_scale",
    "synthesize_conflicting_demos",
    "three_link_stability_fixture",
    "train",
    "train_independent_baseline",
    "velocities_by_central_difference",
]
