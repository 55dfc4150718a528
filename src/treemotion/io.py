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

import csv
import json
import os

import numpy as np

from .errors import SpecFormatError, StructureError
from .learning import TrainOptions
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

MAP_KINDS = ("identity", "linear", "planar_arm_fk", "distance_to_point",
             "diffeo_chain")
POLICY_KINDS = ("natural_gradient", "raw_vm", "damper", "attractor", "barrier")
METRIC_KINDS = ("constant", "cholesky_net", "inverse_square")
POTENTIAL_KINDS = ("zero", "quadratic", "latent_quadratic", "barrier")
# Short loss names accepted by training configs and ``tree-motion train --loss``.
LOSS_KIND_ALIASES = {"subtask": "subtask_space", "joint": "joint_space",
                     "independent": "independent_baseline"}


def _require(spec: dict, key: str, context: str):
    if key not in spec:
        raise SpecFormatError(f"{context}: missing required field {key!r}")
    return spec[key]


def build_map(spec: dict, in_dim: int, out_dim: int):
    """Instantiate an edge map from its JSON spec, checking dimensions."""
    kind = _require(spec, "kind", "map spec")
    if kind == "identity":
        if in_dim != out_dim:
            raise SpecFormatError("identity map needs equal parent/child dims")
        return IdentityMap(in_dim)
    if kind == "linear":
        m = LinearMap(np.asarray(_require(spec, "matrix", "linear map"), dtype=float),
                      None if "offset" not in spec
                      else np.asarray(spec["offset"], dtype=float))
        if (m.in_dim, m.out_dim) != (in_dim, out_dim):
            raise SpecFormatError(
                f"linear map is {m.out_dim}x{m.in_dim}, edge needs {out_dim}x{in_dim}"
            )
        return m
    if kind == "planar_arm_fk":
        m = PlanarArmFK(_require(spec, "lengths", "planar_arm_fk"),
                        spec.get("point", "ee"))
        if m.in_dim != in_dim or out_dim != 2:
            raise SpecFormatError("planar_arm_fk dims do not match the edge")
        return m
    if kind == "distance_to_point":
        m = DistanceToPoint(np.asarray(_require(spec, "center", "distance map"),
                                       dtype=float))
        if m.in_dim != in_dim or out_dim != 1:
            raise SpecFormatError("distance_to_point dims do not match the edge")
        return m
    if kind == "diffeo_chain":
        if in_dim != out_dim:
            raise SpecFormatError("diffeo_chain needs equal parent/child dims")
        n_features = spec.get("features_D", spec.get("features", 128))
        return DiffeoChain(
            in_dim,
            n_layers=int(spec.get("layers", 4)),
            n_features=int(n_features),
            length_scale=float(spec.get("length_scale", 1.0)),
            seed=int(spec.get("seed", 0)),
            learnable=bool(spec.get("learnable", True)),
            init_scale=float(spec.get("init_scale", 0.0)),
        )
    raise SpecFormatError(
        f"unknown map kind {kind!r}; registered kinds: {', '.join(MAP_KINDS)}"
    )


def build_metric(spec: dict, dim: int, default_learnable: bool = True):
    kind = _require(spec, "kind", "metric spec")
    if kind == "constant":
        if "matrix" in spec:
            return ConstantMetric(np.asarray(spec["matrix"], dtype=float))
        return ConstantMetric.scaled_identity(float(spec.get("scale", 1.0)), dim)
    if kind == "cholesky_net":
        return CholeskyMetricNet(
            dim,
            in_dim=int(spec["in_dim"]) if "in_dim" in spec else None,
            hidden=tuple(spec.get("hidden", (64, 64))),
            eps=float(spec.get("eps", 1e-4)),
            seed=int(spec.get("seed", 0)),
            learnable=bool(spec.get("learnable", default_learnable)),
        )
    if kind == "inverse_square":
        return InverseSquareMetric(float(_require(spec, "weight", "inverse_square")),
                                   float(_require(spec, "margin", "inverse_square")))
    raise SpecFormatError(
        f"unknown metric kind {kind!r}; registered kinds: {', '.join(METRIC_KINDS)}"
    )


def build_policy(spec: dict, dim: int, parent_map):
    """Instantiate a leaf policy; ``parent_map`` supplies the latent chain
    for latent-quadratic potentials."""
    kind = _require(spec, "kind", "policy spec")
    if kind == "damper":
        return handcrafted_damper(float(spec.get("gain", 1.0)), dim)
    if kind == "attractor":
        return handcrafted_attractor(
            np.asarray(_require(spec, "goal", "attractor"), dtype=float),
            gain=float(spec.get("gain", 1.0)),
            weight=float(spec.get("weight", 1.0)),
        )
    if kind == "barrier":
        return handcrafted_barrier(
            float(_require(spec, "margin", "barrier")),
            gain=float(spec.get("gain", 1.0)),
            weight=float(spec.get("weight", 1.0)),
        )
    if kind == "raw_vm":
        metric = build_metric(_require(spec, "metric", "raw_vm"), dim)
        return RawVMLeaf(
            np.asarray(_require(spec, "velocity", "raw_vm"), dtype=float),
            metric,
            learnable=bool(spec.get("learnable", False)),
        )
    if kind == "natural_gradient":
        pot_spec = _require(spec, "potential", "natural_gradient")
        pot_kind = _require(pot_spec, "kind", "potential spec")
        if pot_kind == "zero":
            potential = ZeroPotential()
        elif pot_kind == "quadratic":
            potential = QuadraticPotential(
                np.asarray(_require(pot_spec, "goal", "quadratic"), dtype=float),
                gain=float(pot_spec.get("gain", 1.0)),
            )
        elif pot_kind == "latent_quadratic":
            if not isinstance(parent_map, DiffeoChain):
                raise SpecFormatError(
                    "latent_quadratic potential requires the leaf's parent edge "
                    "to be a diffeo_chain"
                )
            potential = LatentQuadraticPotential(
                np.asarray(_require(pot_spec, "goal", "latent_quadratic"),
                           dtype=float),
                parent_map,
            )
        elif pot_kind == "barrier":
            from .policies import BarrierPotential

            potential = BarrierPotential(
                float(_require(pot_spec, "margin", "barrier potential")),
                gain=float(pot_spec.get("gain", 1.0)),
            )
        else:
            raise SpecFormatError(
                f"unknown potential kind {pot_kind!r}; registered kinds: "
                f"{', '.join(POTENTIAL_KINDS)}"
            )
        # policy-level "learnable" is the default for the metric network;
        # the chain's own flag lives on its edge-map spec
        metric = build_metric(_require(spec, "metric", "natural_gradient"), dim,
                              default_learnable=bool(spec.get("learnable", True)))
        return NaturalGradientLeaf(
            dim, potential, metric,
            metric_input=spec.get("metric_space", "latent"),
        )
    raise SpecFormatError(
        f"unknown policy kind {kind!r}; registered kinds: {', '.join(POLICY_KINDS)}"
    )


def tree_from_dict(data: dict) -> TransformTree:
    nodes = _require(data, "nodes", "tree spec")
    dims = {}
    for entry in nodes:
        dims[int(_require(entry, "id", "node entry"))] = int(
            _require(entry, "dim", "node entry")
        )
    if sorted(dims) != list(range(len(dims))):
        raise SpecFormatError("node ids must be contiguous starting at 0")
    node_dims = [dims[i] for i in range(len(dims))]

    edges = []
    edge_maps = {}
    for entry in _require(data, "edges", "tree spec"):
        parent = int(_require(entry, "parent", "edge entry"))
        child = int(_require(entry, "child", "edge entry"))
        if parent not in dims or child not in dims:
            raise SpecFormatError(f"edge {parent}->{child} references unknown nodes")
        try:
            m = build_map(_require(entry, "map", "edge entry"),
                          node_dims[parent], node_dims[child])
        except SpecFormatError as exc:
            raise SpecFormatError(f"edge {parent}->{child}: {exc}") from exc
        edges.append(Edge(parent, child, m))
        edge_maps[child] = m

    policies = {}
    for entry in _require(data, "leaves", "tree spec"):
        node = int(_require(entry, "node", "leaf entry"))
        if node not in dims:
            raise SpecFormatError(f"leaf entry references unknown node {node}")
        policies[node] = build_policy(_require(entry, "policy", "leaf entry"),
                                      node_dims[node], edge_maps.get(node))

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
# Demo / trajectory CSV
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
    ``(LossSpec, TrainOptions)``."""
    loss_spec = data.get("loss", {"kind": "subtask_space"})
    kind = _require(loss_spec, "kind", "training config loss")
    kind = LOSS_KIND_ALIASES.get(kind, kind)
    lam = loss_spec.get("lambda")
    try:
        loss = LossSpec(kind, None if lam is None else np.asarray(lam, dtype=float))
    except StructureError as exc:
        raise SpecFormatError(str(exc)) from exc
    opts = TrainOptions(
        alpha=None if data.get("alpha") is None else float(data["alpha"]),
        iterations=int(data.get("iterations", 100)),
        seed=int(data.get("seed", 0)),
        minibatch=None if data.get("minibatch") is None else int(data["minibatch"]),
        momentum=float(data.get("momentum", 0.0)),
    )
    return loss, opts


def load_training_config(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"training config is not valid JSON: {exc}")
    return parse_training_config(data)


def write_history_csv(path, history) -> None:
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
