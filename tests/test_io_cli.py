import json
import subprocess
import sys
from pathlib import Path

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


def _chain_on_3d_parent(spec):
    for i in (0, 1, 3):
        spec["nodes"][i]["dim"] = 3


def _chain_on_1d_nodes(spec):
    spec["nodes"] = spec["nodes"][:2]
    for node in spec["nodes"]:
        node["dim"] = 1
    spec["edges"] = [{"parent": 0, "child": 1, "map": {"kind": "diffeo_chain"}}]
    spec["leaves"] = [{"node": 1, "policy": {"kind": "damper"}}]


@pytest.mark.parametrize("edit, where", [
    (_chain_on_3d_parent, r"leaf 2: latent potential goal dimension"),
    (_chain_on_1d_nodes, r"edge 0->1: diffeo chains need dimension >= 2"),
], ids=["latent_goal", "chain_dim"])
def test_construction_errors_name_their_edge_or_leaf(tmp_path, edit, where):
    bad = json.loads(json.dumps(VALID_SPEC))
    edit(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SpecFormatError, match=where):
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
    # A whole float (JSON 7.0) is the integer it names.
    opts = tmio.parse_training_config({"iterations": 7.0, "minibatch": 3.0})[1]
    assert (opts.iterations, opts.minibatch) == (7, 3) and type(opts.iterations) is int


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


def _cli_exit_and_stderr(capsys, *argv):
    from treemotion import cli

    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda s: s["nodes"][0].update(dim="three"),
    lambda s: s["edges"][1]["map"].update(layers="four"),
    lambda s: s["edges"][0].update(
        map={"kind": "linear", "matrix": [[1.0, 0.0], [1.0]]}),
    lambda s: s.update(nodes=5),
    # A fractional count is not truncated (to a 2-D node, a chain of 2 layers).
    lambda s: s["nodes"][2].update(dim=2.7),
    lambda s: s["edges"][1]["map"].update(layers=2.9, features=3.5),
    lambda s: s["leaves"][0]["policy"]["metric"].update(hidden=[6.5]),
], ids=["dim", "layers", "ragged_matrix", "nodes", "fractional_dim", "fractional_layers",
        "fractional_hidden"])
def test_cli_malformed_spec_is_a_validation_error(tmp_path, capsys, edit):
    spec = json.loads(json.dumps(VALID_SPEC))
    edit(spec)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, err = _cli_exit_and_stderr(capsys, "eval", path, "--q", "0.1,0.2")
    assert code == 2 and err.startswith("validation error:")
    with pytest.raises(SpecFormatError):
        tmio.tree_from_dict(spec)


def test_cli_malformed_demo_csv_is_a_validation_error(tmp_path, capsys, spec_path):
    demo = tmp_path / "demo.csv"
    demo.write_text("t,q0,q1,qd0,qd1\n0.0,abc,0.1,0.2,0.3\n0.1,0.1,0.1,0.2,0.3\n")
    code, err = _cli_exit_and_stderr(capsys, "train", spec_path, "--demos", demo,
                                     "--out", tmp_path / "p.json")
    assert code == 2 and err.startswith("validation error:") and "abc" in err


@pytest.mark.parametrize("config", [{"alpha": "fast"}, {"iterations": [1]}, [1],
                                    {"iterations": 2.5}, {"minibatch": 7.5}, {"seed": 1.5}])
def test_cli_malformed_training_config_is_a_validation_error(
        tmp_path, capsys, spec_path, demo_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, err = _cli_exit_and_stderr(capsys, "train", spec_path, "--demos", demo_path,
                                     "--config", path, "--out", tmp_path / "p.json")
    assert code == 2 and err.startswith("validation error: training config")


@pytest.mark.parametrize("config, key, accepted", [
    ({"iteration": 5, "loss": {"kind": "joint"}}, "'iteration'",
     "loss, alpha, iterations, seed, minibatch, momentum"),
    ({"iterations": 5, "loss": {"kind": "joint", "lamda": [1]}}, "'lamda'", "kind, lambda"),
])
def test_cli_training_config_rejects_an_unknown_key(tmp_path, capsys, spec_path, demo_path,
                                                    config, key, accepted):
    with pytest.raises(SpecFormatError, match=key):
        tmio.parse_training_config(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "p.json"
    code, err = _cli_exit_and_stderr(capsys, "train", spec_path, "--demos", demo_path,
                                     "--config", path, "--out", out)
    assert code == 2 and err.startswith("validation error: training config")
    assert f"unknown key {key}; accepted keys: {accepted}" in err
    assert not out.exists()


def test_cli_malformed_params_file_is_a_validation_error(tmp_path, capsys, spec_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"registry": [], "values": ["a"]}))
    code, err = _cli_exit_and_stderr(capsys, "eval", spec_path, "--params", path,
                                     "--q", "0.1,0.2")
    assert code == 2 and err.startswith("validation error: malformed parameter file")


@pytest.mark.parametrize("reg", ["-5", "nan", "inf"])
def test_cli_eval_rejects_bad_regularization(capsys, spec_path, reg):
    code, err = _cli_exit_and_stderr(capsys, "eval", spec_path, "--q", "0.3,-0.1",
                                     "--regularization=" + reg)
    assert code == 2 and "regularization must be finite and >= 0" in err

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


@pytest.mark.parametrize("command, arg, message", [
    ("train", "--seed=-1", "seed must be >= 0"),
    ("check", "--seed=-1", "seed must be >= 0"),
    ("check", "--points=-3", "n_points must be >= 0"),
    ("gradcheck", "--fd-step=0", "fd_step must be finite and > 0"),
    ("gradcheck", "--fd-step=nan", "fd_step must be finite and > 0"),
    ("gradcheck", "--tol=-1", "tol must be finite and > 0"),
    ("gradcheck", "--tol=inf", "tol must be finite and > 0"),
    ("eval", "--q=nan,0", "--q must be finite"),
    ("eval", "--q=0,-inf", "--q must be finite"),
    ("rollout", "--q0=inf,0", "--q0 must be finite"),
    ("rollout", "--q0=0,nan", "--q0 must be finite"),
])
def test_cli_rejects_out_of_range_numbers(tmp_path, capsys, spec_path, demo_path,
                                          command, arg, message):
    # A validation error (exit 2, no report), not a traceback or a verdict.
    from treemotion import cli

    out = tmp_path / "params.json"
    extra = {"train": ["--demos", demo_path, "--out", str(out)],
             "check": [],
             "gradcheck": ["--demos", demo_path],
             "eval": [],
             "rollout": ["--out", str(out)]}[command]
    code = cli.main([command, spec_path, arg, *extra])
    printed, err = capsys.readouterr()
    assert code == 2 and err.startswith(f"validation error: {message}")
    assert printed == "" and not out.exists()


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

    def strict(constant):
        raise ValueError(f"summary is not strict JSON: {constant}")

    rep_bad = json.loads(proc_bad.stdout, parse_constant=strict)
    assert rep_bad["status"] == "error"
    assert rep_bad["terminal_grad_norm"] is None


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


ARM_SPEC = Path(__file__).resolve().parent.parent / "demos" / "arm_fixture.json"


@pytest.mark.parametrize("arg, message", [
    ("--dt=-0.01", "dt must be finite and > 0"),
    ("--dt=0", "dt must be finite and > 0"),
    ("--dt=nan", "dt must be finite and > 0"),
    ("--max-steps=-3", "max_steps must be >= 0"),
    ("--grad-tol=-1", "grad_tol must be finite and >= 0"),
])
def test_cli_rollout_rejects_bad_step_arguments(tmp_path, capsys, arg, message):
    out = tmp_path / "traj.csv"
    code, err = _cli_exit_and_stderr(capsys, "rollout", ARM_SPEC, "--q0=0.3,0.5,0.3",
                                     arg, "--out", out)
    assert code == 2
    assert err.startswith(f"validation error: {message}")
    assert not out.exists()


def _edit_arm(path, edit):
    spec = json.loads(ARM_SPEC.read_text())
    edit(spec)
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("edit, message", [
    (lambda s: s["edges"][0]["map"].update(lenghts_typo=[1.0]),
     "edge 0->1: map 'planar_arm_fk': unknown key 'lenghts_typo'; "
     "accepted keys: kind, lengths, point"),
    (lambda s: s.update(bogus_top=1),
     "tree spec: unknown key 'bogus_top'; accepted keys: nodes, edges, leaves"),
    (lambda s: s["nodes"][0].update(name="root"), "node entry: unknown key 'name'"),
    (lambda s: s["edges"][1].update(weight=1.0), "edge entry: unknown key 'weight'"),
    (lambda s: s["leaves"][0].update(gain=2.0), "leaf entry: unknown key 'gain'"),
    (lambda s: s["leaves"][1]["policy"].update(margn=0.3),
     "leaf 3: policy 'barrier': unknown key 'margn'"),
], ids=["map", "top", "node", "edge", "leaf", "policy"])
def test_tree_spec_rejects_an_unknown_key(tmp_path, edit, message):
    with pytest.raises(SpecFormatError) as info:
        tmio.load_tree(_edit_arm(tmp_path / "arm.json", edit))
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("where, message", [
    ("potential", "leaf 2: potential 'latent_quadratic': unknown key 'gain'"),
    ("metric", "leaf 2: metric 'cholesky_net': unknown key 'gain'"),
])
def test_tree_spec_rejects_an_unknown_component_key(tmp_path, where, message):
    spec = json.loads(json.dumps(VALID_SPEC))
    spec["leaves"][0]["policy"][where]["gain"] = 2.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SpecFormatError, match=f"^{message}"):
        tmio.load_tree(str(path))


def test_features_is_an_alias_of_features_d(tmp_path):
    spec = json.loads(json.dumps(VALID_SPEC))
    spec["edges"][1]["map"]["features"] = spec["edges"][1]["map"].pop("features_D")
    path = tmp_path / "alias.json"
    path.write_text(json.dumps(spec))
    chain = tmio.load_tree(str(path)).leaf_table[2].latent.map
    assert chain.layers[0].s_net.n_features == 6


def test_absent_spec_keys_take_the_constructors_defaults(monkeypatch):
    # The reader passes only the keys a spec holds, so a changed library
    # default reaches every spec and config that leaves the key out.
    from treemotion.learning import TrainOptions
    from treemotion.maps import DiffeoChain
    from treemotion.policies import CholeskyMetricNet, handcrafted_attractor

    monkeypatch.setattr(DiffeoChain.__init__, "__defaults__", (2, 6, 2.0, 3, True, 0.0))
    monkeypatch.setattr(CholeskyMetricNet.__init__, "__defaults__",
                        (None, (5,), 1e-3, 2, True))
    monkeypatch.setattr(handcrafted_attractor, "__defaults__", (2.0, 3.0))
    monkeypatch.setattr(TrainOptions.__init__, "__defaults__", (0.5, 7, 4, None, 0.25))

    chain = tmio.build_map({"kind": "diffeo_chain"}, 2)
    assert (len(chain.layers), chain.layers[0].s_net.n_features) == (2, 6)
    net = tmio.build_metric({"kind": "cholesky_net"}, 2)
    assert (net.hidden, net.eps) == ((5,), 1e-3)
    leaf = tmio.build_policy({"kind": "attractor", "goal": [0.1, 0.2]}, 2, None)
    assert (leaf.pot.gain, leaf.metric.matrix[0, 0]) == (2.0, 3.0)
    _, opts = tmio.parse_training_config({"loss": {"kind": "joint"}})
    assert (opts.alpha, opts.iterations, opts.seed, opts.momentum) == (0.5, 7, 4, 0.25)
