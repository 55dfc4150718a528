"""File formats: tree specs (JSON), demos and trajectories (CSV),
training configs and parameters (JSON).

Everything is plain text and diff-able. Floats are written with
``repr`` (shortest round-trip form), so identical runs produce
byte-identical files.

Tree spec layout::

    {"nodes": [{"id": 0, "dim": 3}, ...],
     "edges": [{"parent": 0, "child": 1, "map": {"kind": ..., ...}}, ...],
     "leaves": [{"node": 2, "policy": {"kind": ..., ...}}, ...]}

Demo files carry one trajectory each with header
``t,q0..q{d-1},qd0..qd{d-1}``; the velocity columns may be omitted, in
which case velocities are estimated by central differences over the
timestamps. Trajectory output uses the same layout plus a ``phi``
column when a potential trace is available.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .errors import SpecFormatError, StructureError, as_integer
from .losses import DemoSet, LossSpec, Trajectory, velocities_by_central_difference
from .maps import (
    DiffeoChain,
    DistanceToPoint,
    IdentityMap,
    LinearMap,
    PlanarArmFK,
)
from .params import ParamVector
from .policies import (
    BarrierPotential,
    CholeskyMetricNet,
    ConstantMetric,
    InverseSquareMetric,
    LatentQuadraticPotential,
    NaturalGradientLeaf,
    QuadraticPotential,
    RawVMLeaf,
    ZeroPotential,
    handcrafted_attractor,
    handcrafted_barrier,
    handcrafted_damper,
)
from .rollout import RolloutResult
from .tree import Edge, TransformTree

# The keys a tree spec and its entries may hold; any other key is a
# SpecFormatError.
TREE_KEYS = ("nodes", "edges", "leaves")
NODE_KEYS = ("id", "dim")
EDGE_KEYS = ("parent", "child", "map")
LEAF_KEYS = ("node", "policy")


def _floats(value):
    return np.asarray(value, dtype=float)


def _learnable(value):
    """A spec's ``"learnable"``: a JSON bool (``bool`` reads ``"no"`` as true)."""
    if type(value) is not bool:
        raise SpecFormatError(f"'learnable' must be true or false, not {value!r}")
    return value


# One table per component kind: spec key -> (constructor keyword, converter
# or None to pass the value as given, required; the constructors check their
# numbers with ``as_integer`` and ``as_real``). Only the keys a spec holds
# are passed, so the constructors' defaults are the only defaults; a key
# outside "kind" and its kind's table is a SpecFormatError. A keyword of None
# marks a key the builder reads itself: a nested spec, or a policy's
# "learnable", the default of its cholesky_net metric's "learnable". Other
# deliberate differences from the constructors: "features" is an alias of
# "features_D" (which wins when both are given), "metric_space" names the
# keyword metric_input, and a damper's gain and a constant metric's scale
# default to 1.0 where the library requires them.
MAP_FIELDS = {
    "identity": {},
    "linear": {"matrix": ("matrix", _floats, True), "offset": ("offset", _floats, False)},
    "planar_arm_fk": {"lengths": ("lengths", None, True),
                      "point": ("point", None, False)},
    "distance_to_point": {"center": ("center", _floats, True)},
    "diffeo_chain": {"features": ("n_features", None, False),
                     "features_D": ("n_features", None, False),
                     "layers": ("n_layers", None, False),
                     "length_scale": ("length_scale", None, False),
                     "seed": ("seed", None, False), "learnable": ("learnable", _learnable, False),
                     "init_scale": ("init_scale", None, False)},
}
POLICY_FIELDS = {
    "natural_gradient": {"potential": (None, None, True), "metric": (None, None, True),
                         "learnable": (None, None, False),
                         "metric_space": ("metric_input", None, False)},
    "raw_vm": {"velocity": ("velocity", _floats, True), "metric": (None, None, True),
               "learnable": ("learnable", _learnable, False)},
    "damper": {"gain": ("gain", None, False)},
    "attractor": {"goal": ("goal", _floats, True), "gain": ("gain", None, False),
                  "weight": ("weight", None, False)},
    "barrier": {"margin": ("margin", None, True), "gain": ("gain", None, False),
                "weight": ("weight", None, False)},
}
METRIC_FIELDS = {
    "constant": {"matrix": ("matrix", _floats, False), "scale": ("scale", None, False)},
    "cholesky_net": {"in_dim": ("in_dim", None, False), "hidden": ("hidden", None, False),
                     "eps": ("eps", None, False), "seed": ("seed", None, False),
                     "learnable": ("learnable", _learnable, False)},
    "inverse_square": {"weight": ("weight", None, True),
                       "margin": ("margin", None, True)},
}
POTENTIAL_FIELDS = {
    "zero": {},
    "quadratic": {"goal": ("goal", _floats, True), "gain": ("gain", None, False)},
    "latent_quadratic": {"goal": ("goal", _floats, True)},
    "barrier": {"margin": ("margin", None, True), "gain": ("gain", None, False)},
}
# Short loss names accepted by training configs and ``tree-motion train --loss``.
LOSS_KIND_ALIASES = {"subtask": "subtask_space", "joint": "joint_space",
                     "independent": "independent_baseline"}
# A training config's table, as above ("loss" is read by the parser, whose
# default kind is subtask_space; ``TrainOptions.validate`` checks the rest),
# and the keys its "loss" object may hold.
TRAINING_CONFIG_FIELDS = {
    "loss": (None, None, False), "alpha": ("alpha", None, False),
    "iterations": ("iterations", None, False), "seed": ("seed", None, False),
    "minibatch": ("minibatch", None, False), "momentum": ("momentum", None, False),
}
TRAINING_LOSS_KEYS = ("kind", "lambda")


@contextlib.contextmanager
def _field_types(context: str):
    """Report a field of the wrong type or shape (``as_integer(2.5, ...)``,
    ``as_real("4", ...)``, a ragged matrix) as a ``SpecFormatError``."""
    try:
        yield
    except SpecFormatError:
        raise
    except (ValueError, TypeError, StructureError) as exc:
        raise SpecFormatError(f"{context}: {exc}") from exc


def _require(spec: dict, key: str, context: str):
    if key not in spec:
        raise SpecFormatError(f"{context}: missing required field {key!r}")
    return spec[key]


def _reject_unknown_keys(spec, accepted, context: str) -> None:
    """A JSON object with a key outside ``accepted`` (a misspelt option
    would otherwise be ignored) raises ``SpecFormatError`` naming it."""
    if not isinstance(spec, dict):
        raise SpecFormatError(f"{context} must be a JSON object")
    unknown = [key for key in spec if key not in accepted]
    if unknown:
        raise SpecFormatError(
            f"{context}: unknown key {', '.join(map(repr, unknown))}; accepted keys: "
            f"{', '.join(accepted)}"
        )


def _keywords(spec: dict, fields: dict, context: str) -> dict:
    """The constructor keywords of the keys ``spec`` holds, by ``fields``
    (spec key -> ``(keyword, converter, required)``), once every required
    key is present."""
    for key, (_, _, required) in fields.items():
        if required:
            _require(spec, key, context)
    return {keyword: convert(spec[key]) if convert else spec[key]
            for key, (keyword, convert, _) in fields.items()
            if keyword is not None and key in spec}


def _spec_fields(spec, table: dict, what: str):
    """``(kind, keywords)``: ``spec``'s kind, once it is one of ``table``
    and ``spec`` holds no key outside ``"kind"`` and that kind's fields,
    and the constructor keywords of the fields it holds."""
    kind = _require(spec, "kind", f"{what} spec")
    if kind not in table:
        raise SpecFormatError(
            f"unknown {what} kind {kind!r}; registered kinds: {', '.join(table)}"
        )
    _reject_unknown_keys(spec, ("kind", *table[kind]), f"{what} {kind!r}")
    return kind, _keywords(spec, table[kind], f"{what} {kind!r}")


def build_map(spec: dict, in_dim: int):
    """Instantiate an edge map from its JSON spec; ``TransformTree`` checks
    its dimensions against the edge's nodes."""
    kind, kw = _spec_fields(spec, MAP_FIELDS, "map")
    if kind in ("identity", "diffeo_chain"):
        return (IdentityMap if kind == "identity" else DiffeoChain)(in_dim, **kw)
    return {"linear": LinearMap, "planar_arm_fk": PlanarArmFK,
            "distance_to_point": DistanceToPoint}[kind](**kw)


def build_metric(spec: dict, dim: int, default_learnable: bool = True):
    kind, kw = _spec_fields(spec, METRIC_FIELDS, "metric")
    if kind == "constant":
        if "matrix" in kw:
            return ConstantMetric(kw["matrix"])
        return ConstantMetric.scaled_identity(kw.get("scale", 1.0), dim)
    if kind == "cholesky_net":
        return CholeskyMetricNet(dim, **{"learnable": default_learnable, **kw})
    return InverseSquareMetric(**kw)


def build_potential(spec: dict, parent_map):
    """Instantiate a potential; ``parent_map`` supplies the latent chain
    of a latent-quadratic potential."""
    kind, kw = _spec_fields(spec, POTENTIAL_FIELDS, "potential")
    if kind == "latent_quadratic":
        if not isinstance(parent_map, DiffeoChain):
            raise SpecFormatError(
                "latent_quadratic potential requires the leaf's parent edge "
                "to be a diffeo_chain"
            )
        return LatentQuadraticPotential(chain=parent_map, **kw)
    return {"zero": ZeroPotential, "quadratic": QuadraticPotential,
            "barrier": BarrierPotential}[kind](**kw)


def build_policy(spec: dict, dim: int, parent_map):
    """Instantiate a leaf policy; ``parent_map`` is its parent edge's map."""
    kind, kw = _spec_fields(spec, POLICY_FIELDS, "policy")
    if kind == "damper":
        return handcrafted_damper(kw.get("gain", 1.0), dim)
    if kind in ("attractor", "barrier"):
        return (handcrafted_attractor if kind == "attractor" else handcrafted_barrier)(**kw)
    if kind == "raw_vm":
        return RawVMLeaf(metric=build_metric(spec["metric"], dim), **kw)
    potential = build_potential(spec["potential"], parent_map)
    metric = build_metric(spec["metric"], dim,
                          default_learnable=_learnable(spec.get("learnable", True)))
    return NaturalGradientLeaf(dim, potential, metric, **kw)


def tree_from_dict(data: dict) -> TransformTree:
    _reject_unknown_keys(data, TREE_KEYS, "tree spec")
    with _field_types("tree spec"):
        nodes = _require(data, "nodes", "tree spec")
        dims = {}
        for entry in nodes:
            _reject_unknown_keys(entry, NODE_KEYS, "node entry")
            dims[as_integer(_require(entry, "id", "node entry"), "node id")] = as_integer(
                _require(entry, "dim", "node entry"), "node dim")
        if sorted(dims) != list(range(len(dims))):
            raise SpecFormatError("node ids must be contiguous starting at 0")
        node_dims = [dims[i] for i in range(len(dims))]

        edges = []
        edge_maps = {}
        for entry in _require(data, "edges", "tree spec"):
            _reject_unknown_keys(entry, EDGE_KEYS, "edge entry")
            parent = as_integer(_require(entry, "parent", "edge entry"), "edge parent")
            child = as_integer(_require(entry, "child", "edge entry"), "edge child")
            if parent not in dims or child not in dims:
                raise SpecFormatError(f"edge {parent}->{child} references unknown nodes")
            try:
                m = build_map(_require(entry, "map", "edge entry"), node_dims[parent])
            except (SpecFormatError, StructureError) as exc:
                raise SpecFormatError(f"edge {parent}->{child}: {exc}") from exc
            edges.append(Edge(parent, child, m))
            edge_maps[child] = m

        policies = {}
        for entry in _require(data, "leaves", "tree spec"):
            _reject_unknown_keys(entry, LEAF_KEYS, "leaf entry")
            node = as_integer(_require(entry, "node", "leaf entry"), "leaf node")
            if node not in dims:
                raise SpecFormatError(f"leaf entry references unknown node {node}")
            try:
                policies[node] = build_policy(_require(entry, "policy", "leaf entry"),
                                              node_dims[node], edge_maps.get(node))
            except (SpecFormatError, StructureError) as exc:
                raise SpecFormatError(f"leaf {node}: {exc}") from exc

        try:
            return TransformTree(node_dims, edges, policies)
        except StructureError as exc:
            raise SpecFormatError(f"tree spec invalid: {exc}") from exc


def load_tree(path) -> TransformTree:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"tree spec is not valid JSON: {exc}")
    return tree_from_dict(data)


# ---------------------------------------------------------------------------
# Demo / trajectory CSV (each reader and writer imports ``csv`` for itself)
# ---------------------------------------------------------------------------


def _parse_demo_header(header):
    if not header or header[0] != "t":
        raise SpecFormatError("demo CSV must start with a 't' column")
    q_cols = [c for c in header if c.startswith("q") and not c.startswith("qd")]
    qd_cols = [c for c in header if c.startswith("qd")]
    d = len(q_cols)
    if d == 0 or q_cols != [f"q{i}" for i in range(d)]:
        raise SpecFormatError("demo CSV needs columns q0..q{d-1} in order")
    if qd_cols and qd_cols != [f"qd{i}" for i in range(d)]:
        raise SpecFormatError("demo CSV velocity columns must be qd0..qd{d-1}")
    return d, bool(qd_cols)


def load_trajectory_csv(path) -> Trajectory:
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise SpecFormatError(f"{path}: empty demo file")
    header = [c.strip() for c in rows[0]]
    has_phi = header and header[-1] == "phi"
    if has_phi:
        header = header[:-1]
    d, has_qd = _parse_demo_header(header)
    with _field_types(str(path)):
        data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    expected = 1 + d + (d if has_qd else 0) + (1 if has_phi else 0)
    if data.ndim != 2 or data.shape[1] != expected:
        raise SpecFormatError(f"{path}: rows do not match the header")
    t = data[:, 0]
    q = data[:, 1: 1 + d]
    if has_qd:
        qd = data[:, 1 + d: 1 + 2 * d]
    else:
        qd = velocities_by_central_difference(t, q)
    try:
        return Trajectory(t, q, qd)
    except StructureError as exc:
        raise SpecFormatError(f"{path}: {exc}") from exc


def load_demos(path) -> DemoSet:
    """Load one trajectory file, or every ``*.csv`` in a directory
    (sorted by name), or a comma-separated list of files."""
    if isinstance(path, str) and "," in path:
        files = path.split(",")
    elif os.path.isdir(path):
        files = sorted(
            os.path.join(path, f) for f in os.listdir(path) if f.endswith(".csv")
        )
        if not files:
            raise SpecFormatError(f"{path}: no .csv demo files found")
    else:
        files = [path]
    return DemoSet([load_trajectory_csv(f) for f in files])


def write_trajectory_csv(path, trajectory: Trajectory, phi=None) -> None:
    import csv

    d = trajectory.dim
    header = ["t"] + [f"q{i}" for i in range(d)] + [f"qd{i}" for i in range(d)]
    if phi is not None:
        header.append("phi")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(trajectory)):
            row = [repr(float(trajectory.t[k]))]
            row += [repr(float(v)) for v in trajectory.q[k]]
            row += [repr(float(v)) for v in trajectory.qdot[k]]
            if phi is not None:
                row.append(repr(float(phi[k])))
            writer.writerow(row)


def write_rollout(path_csv, result: RolloutResult) -> None:
    write_trajectory_csv(path_csv, result.trajectory, phi=result.potential_trace)


# ---------------------------------------------------------------------------
# Training config
# ---------------------------------------------------------------------------


def parse_training_config(data: dict):
    """``{"loss": {"kind": ..., "lambda": [...]}, "alpha": ..., ...}`` ->
    ``(LossSpec, TrainOptions)``. A key outside ``TRAINING_CONFIG_FIELDS``
    (or, in ``"loss"``, ``TRAINING_LOSS_KEYS``) raises ``SpecFormatError``.
    It imports the training stack itself, which reading a tree never needs."""
    from .learning import TrainOptions

    _reject_unknown_keys(data, tuple(TRAINING_CONFIG_FIELDS), "training config")
    loss_spec = data.get("loss", {"kind": "subtask_space"})
    _reject_unknown_keys(loss_spec, TRAINING_LOSS_KEYS, "training config loss")
    with _field_types("training config"):
        kind = _require(loss_spec, "kind", "training config loss")
        kind = LOSS_KIND_ALIASES.get(kind, kind)
        lam = loss_spec.get("lambda")
        try:
            loss = LossSpec(kind, None if lam is None else np.asarray(lam, dtype=float))
        except StructureError as exc:
            raise SpecFormatError(str(exc)) from exc
        opts = TrainOptions(**_keywords(data, TRAINING_CONFIG_FIELDS, "training config"))
        opts.validate()
    return loss, opts


def load_training_config(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"training config is not valid JSON: {exc}")
    return parse_training_config(data)


def write_history_csv(path, history) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "loss"])
        for i, value in enumerate(history):
            writer.writerow([i, repr(float(value))])


def load_params(path, tree: TransformTree | None = None) -> ParamVector:
    params = ParamVector.load(path)
    if tree is not None:
        expected = tree.init_params()
        if params.registry != expected.registry:
            raise SpecFormatError(
                "parameter registry does not match the tree's learnable components"
            )
    return params
