import json
import subprocess
import sys

import numpy as np
import pytest

from treemotion import io as tmio
from treemotion.errors import SpecFormatError
from treemotion.losses import Trajectory
from treemotion.params import ParamVector
from treemotion.rollout import integrate
from treemotion.fixtures import three_link_stability_fixture, stability_seed_states


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "treemotion.cli", *args],
                          capture_output=True, text=True)
    return proc


VALID_SPEC = {
    "nodes": [{"id": 0, "dim": 2}, {"id": 1, "dim": 2},
              {"id": 2, "dim": 2}, {"id": 3, "dim": 2}],
    "edges": [
        {"parent": 0, "child": 1, "map": {"kind": "identity"}},
        {"parent": 1, "child": 2,
         "map": {"kind": "diffeo_chain", "layers": 2, "features_D": 6,
                 "length_scale": 2.0, "seed": 3}},
        {"parent": 0, "child": 3, "map": {"kind": "identity"}},
    ],
    "leaves": [
        {"node": 2, "policy": {
            "kind": "natural_gradient",
            "potential": {"kind": "latent_quadratic", "goal": [0.5, -0.2]},
            "metric": {"kind": "cholesky_net", "hidden": [6], "eps": 1e-3,
                       "seed": 5},
            "learnable": True}},
        {"node": 3, "policy": {"kind": "damper", "gain": 0.5}},
    ],
}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(VALID_SPEC))
    return str(path)


@pytest.fixture
def demo_path(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["t,q0,q1,qd0,qd1"]
    for k in range(6):
        vals = [0.1 * k, *rng.uniform(-0.5, 0.5, 4)]
        lines.append(",".join(repr(float(v)) for v in vals))
    path = tmp_path / "demo.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------


def test_tree_spec_round_trip(spec_path):
    tree = tmio.load_tree(spec_path)
    assert tree.root_dim == 2
    assert tree.leaves == [2, 3]
    params = tree.init_params()
    assert params.size > 0


def test_unknown_map_kind_lists_registry(tmp_path):
    bad = dict(VALID_SPEC)
    bad["edges"] = [{"parent": 0, "child": 1, "map": {"kind": "teleport"}}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SpecFormatError, match="registered kinds"):
        tmio.load_tree(str(path))


def test_unknown_policy_kind_lists_registry(tmp_path):
    bad = json.loads(json.dumps(VALID_SPEC))
    bad["leaves"][1]["policy"] = {"kind": "wishful"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SpecFormatError, match="registered kinds"):
        tmio.load_tree(str(path))


def test_dimension_mismatch_names_edge(tmp_path):
    bad = json.loads(json.dumps(VALID_SPEC))
    bad["edges"][0]["map"] = {"kind": "linear", "matrix": [[1.0, 0.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SpecFormatError, match="edge 0->1"):
        tmio.load_tree(str(path))


def test_demo_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    tr = Trajectory(np.linspace(0, 1, 7), rng.uniform(-1, 1, (7, 3)),
                    rng.uniform(-1, 1, (7, 3)))
    path = tmp_path / "demo.csv"
    tmio.write_trajectory_csv(str(path), tr)
    back = tmio.load_trajectory_csv(str(path))
    np.testing.assert_array_equal(back.t, tr.t)
    np.testing.assert_array_equal(back.q, tr.q)
    np.testing.assert_array_equal(back.qdot, tr.qdot)


def test_demo_csv_without_velocities_uses_central_differences(tmp_path):
    t = np.linspace(0, 1, 9)
    q = np.outer(t, [1.5, -0.5])
    lines = ["t,q0,q1"] + [
        ",".join(repr(float(v)) for v in [t[k], *q[k]]) for k in range(9)
    ]
    path = tmp_path / "pos_only.csv"
    path.write_text("\n".join(lines) + "\n")
    tr = tmio.load_trajectory_csv(str(path))
    np.testing.assert_allclose(tr.qdot, np.tile([1.5, -0.5], (9, 1)), atol=1e-12)


def test_demo_dir_loads_sorted_files(tmp_path):
    for name, v in [("a.csv", 1.0), ("b.csv", 2.0)]:
        (tmp_path / name).write_text(
            "t,q0\n0.0,%r\n1.0,%r\n" % (v, v + 1.0))
    demos = tmio.load_demos(str(tmp_path))
    assert len(demos.trajectories) == 2
    assert demos.trajectories[0].q[0, 0] == 1.0


def test_params_round_trip_and_registry_mismatch(tmp_path, spec_path):
    tree = tmio.load_tree(spec_path)
    params = tree.init_params()
    path = tmp_path / "params.json"
    params.save(str(path))
    back = tmio.load_params(str(path), tree)
    np.testing.assert_array_equal(back.values, params.values)
    other = ParamVector(np.zeros(3), [("stray", 0, 3)])
    other.save(str(path))
    with pytest.raises(SpecFormatError, match="registry"):
        tmio.load_params(str(path), tree)


def test_rollout_csv_contains_phi(tmp_path):
    tree, params, _ = three_link_stability_fixture()
    res = integrate(tree, params, stability_seed_states(1)[0], dt=1e-3,
                    max_steps=50, grad_tol=0.0)
    path = tmp_path / "traj.csv"
    tmio.write_rollout(str(path), res)
    header = path.read_text().splitlines()[0]
    assert header == "t,q0,q1,q2,qd0,qd1,qd2,phi"
    back = tmio.load_trajectory_csv(str(path))
    assert len(back) == len(res.trajectory)


def test_training_config_parse():
    loss, opts = tmio.parse_training_config(
        {"loss": {"kind": "subtask", "lambda": [1.0, 0.0]},
         "alpha": 0.05, "iterations": 7, "seed": 3})
    assert loss.kind == "subtask_space"
    np.testing.assert_array_equal(loss.lam, [1.0, 0.0])
    assert opts.alpha == 0.05 and opts.iterations == 7 and opts.seed == 3


# ---------------------------------------------------------------------------
# CLI behavior
# ---------------------------------------------------------------------------


def test_cli_check_passes_on_valid_fixture(spec_path):
    proc = run_cli("check", spec_path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["status"] == "pass"
    assert report["tree_vs_flat_max"] <= 1e-10


def test_cli_check_rejects_bad_spec(tmp_path):
    bad = json.loads(json.dumps(VALID_SPEC))
    bad["edges"][0]["map"] = {"kind": "linear", "matrix": [[1.0, 0.0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert "edge 0->1" in proc.stderr


def test_cli_check_flags_singular_root_metric(tmp_path):
    spec = {
        "nodes": [{"id": 0, "dim": 2}, {"id": 1, "dim": 1}],
        "edges": [{"parent": 0, "child": 1,
                   "map": {"kind": "linear", "matrix": [[1.0, 1.0]]}}],
        "leaves": [{"node": 1, "policy": {
            "kind": "raw_vm", "velocity": [6.0],
            "metric": {"kind": "constant", "scale": 3.0}}}],
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("check", str(path))
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["status"] == "numeric_failure"
    assert any("Singular" in f.get("error", "") for f in report["failures"])


def test_cli_usage_error_exits_one():
    proc = run_cli("train")  # missing required arguments
    assert proc.returncode == 1


def test_cli_missing_file_exits_two():
    proc = run_cli("check", "/nonexistent/tree.json")
    assert proc.returncode == 2


def test_cli_eval_prints_policy(spec_path):
    proc = run_cli("eval", spec_path, "--q", "0.3,-0.1")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert len(out["pi"]) == 2


def test_cli_train_zero_iterations_preserves_params(tmp_path, spec_path, demo_path):
    out = tmp_path / "params.json"
    proc = run_cli("train", spec_path, "--demos", demo_path,
                   "--iterations", "0", "--out", str(out))
    assert proc.returncode == 0
    tree = tmio.load_tree(spec_path)
    trained = tmio.load_params(str(out), tree)
    np.testing.assert_array_equal(trained.values, tree.init_params().values)
    history = (tmp_path / "params.json.history.csv").read_text().splitlines()
    assert history[0] == "iteration,loss"
    assert len(history) == 2  # just the initial loss


def test_cli_train_reruns_are_byte_identical(tmp_path, spec_path, demo_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"params_{tag}.json"
        hist = tmp_path / f"history_{tag}.csv"
        proc = run_cli("train", spec_path, "--demos", demo_path,
                       "--iterations", "3", "--seed", "7",
                       "--out", str(out), "--history", str(hist))
        assert proc.returncode == 0
        outs.append((out.read_bytes(), hist.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_train_rejects_out_of_range_options(tmp_path, spec_path, demo_path):
    out = tmp_path / "params.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"loss": {"kind": "joint"}, "alpha": -0.05}))
    proc = run_cli("train", spec_path, "--demos", demo_path,
                   "--config", str(config), "--out", str(out))
    assert proc.returncode == 2 and "alpha" in proc.stderr
    proc = run_cli("train", spec_path, "--demos", demo_path,
                   "--iterations", "-4", "--out", str(out))
    assert proc.returncode == 2 and "iterations" in proc.stderr
    assert not out.exists()


def test_cli_train_abort_writes_partial(tmp_path, spec_path, demo_path):
    out = tmp_path / "params.json"
    proc = run_cli("train", spec_path, "--demos", demo_path,
                   "--alpha", "1e9", "--iterations", "50", "--out", str(out))
    assert proc.returncode == 3
    assert (tmp_path / "params.json.partial").exists()
    assert not out.exists()


def test_cli_gradcheck_passes_and_corrupt_hook_fails(spec_path, demo_path,
                                                    monkeypatch):
    ok = run_cli("gradcheck", spec_path, "--demos", demo_path)
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["status"] == "pass"
    # Negative control: a gradient off by 0.05 must fail the check.
    from treemotion import cli, verify

    exact = verify.loss_and_gradient

    def off_by_005(*args):
        value, grad = exact(*args)
        return value, grad + 0.05

    monkeypatch.setattr(verify, "loss_and_gradient", off_by_005)
    assert cli.main(["gradcheck", spec_path, "--demos", demo_path]) == 3


def test_cli_rollout_equilibrium_and_domain_error(tmp_path):
    # equilibrium: a quadratic attractor at the start point converges in 0 steps
    spec = {
        "nodes": [{"id": 0, "dim": 2}, {"id": 1, "dim": 2}, {"id": 2, "dim": 2}],
        "edges": [{"parent": 0, "child": 1, "map": {"kind": "identity"}},
                  {"parent": 0, "child": 2, "map": {"kind": "identity"}}],
        "leaves": [
            {"node": 1, "policy": {"kind": "attractor", "goal": [0.2, 0.4]}},
            {"node": 2, "policy": {"kind": "damper", "gain": 0.5}},
        ],
    }
    path = tmp_path / "attr.json"
    path.write_text(json.dumps(spec))
    out_csv = tmp_path / "traj.csv"
    summary = tmp_path / "summary.json"
    proc = run_cli("rollout", str(path), "--q0", "0.2,0.4",
                   "--out", str(out_csv), "--summary", str(summary))
    assert proc.returncode == 0
    rep = json.loads(summary.read_text())
    assert rep["status"] == "converged"
    assert rep["steps"] == 0

    # barrier on a raw coordinate: starting at z <= 0 violates the domain
    spec_bad = {
        "nodes": [{"id": 0, "dim": 1}, {"id": 1, "dim": 1}],
        "edges": [{"parent": 0, "child": 1, "map": {"kind": "identity"}}],
        "leaves": [{"node": 1, "policy": {"kind": "barrier", "margin": 0.5}}],
    }
    path_bad = tmp_path / "barrier.json"
    path_bad.write_text(json.dumps(spec_bad))
    proc_bad = run_cli("rollout", str(path_bad), "--q0", "-0.3")
    assert proc_bad.returncode == 3
    assert json.loads(proc_bad.stdout)["status"] == "error"


def test_cli_rollout_seeded_fixture_converges_monotone(tmp_path, spec_path):
    # small attractor tree: converged status with a monotone phi column
    spec = {
        "nodes": [{"id": 0, "dim": 2}, {"id": 1, "dim": 2}, {"id": 2, "dim": 2}],
        "edges": [{"parent": 0, "child": 1, "map": {"kind": "identity"}},
                  {"parent": 0, "child": 2, "map": {"kind": "identity"}}],
        "leaves": [
            {"node": 1, "policy": {"kind": "attractor", "goal": [0.5, -0.5],
                                   "gain": 2.0}},
            {"node": 2, "policy": {"kind": "damper", "gain": 0.3}},
        ],
    }
    path = tmp_path / "attr2.json"
    path.write_text(json.dumps(spec))
    out_csv = tmp_path / "traj.csv"
    proc = run_cli("rollout", str(path), "--q0", "1.0,1.0", "--out", str(out_csv),
                   "--max-steps", "30000")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "converged"
    rows = out_csv.read_text().splitlines()
    phi = [float(r.split(",")[-1]) for r in rows[1:]]
    assert all(b <= a + 1e-6 for a, b in zip(phi, phi[1:]))
