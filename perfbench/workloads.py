"""The four benchmark workloads.

Each workload is a closed loop with one caller: it builds its inputs
from a seed, then runs *repeats*, each a short list of operations whose
calls wait for one another.  An operation returns its raw result; the
benchmark times the call, and only afterwards turns the result into an
*outcome* (plain JSON data) and compares it with the outcome recorded
in ``reference.json``.

A workload seed selects one of the fixture seeds in ``POOL`` (by its
remainder modulo the pool size), so every seed maps onto inputs whose
reference outputs are recorded.  The pool holds fixture seeds of
``conflicting_demo_fixture`` whose training trio takes the same number
of line-search trials: with a two-iteration budget the first-iteration
line search is about half of the trio's time, and seeds that need more
trials would otherwise read as a slower machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from io import StringIO
from pathlib import Path

import numpy as np

import treemotion as tm

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ARM_SPEC = str(ROOT / "demos" / "arm_fixture.json")
POOL = (1, 9, 55, 70, 79, 93)
CLI_BOOT = "import sys; from treemotion.cli import main; sys.exit(main())"
# Seconds ``calibration_s`` and ``cold_import_s`` take at the reference
# machine speed; timings in reference seconds are rescaled to them.
CALIBRATION_REF_S = 0.03
COLD_IMPORT_REF_S = 0.5


def pool_seed(seed):
    return POOL[int(seed) % len(POOL)]


def child_env():
    """Environment for child interpreters: this checkout's sources and the
    library's default thread count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("TREE_MOTION_THREADS", None)
    return env


def _vector_arg(q):
    return ",".join(repr(float(v)) for v in q)


def stats(values, unit, slow="high"):
    """Median with its sample count and, when there are at least 20
    samples, the highest percentile ``p`` with ten samples beyond it,
    taken on the slow side (``slow="low"`` for rates)."""
    out = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    if len(values) >= 20:
        p = math.floor(100 * (1 - 10 / len(values)))
        q = p if slow == "high" else 100 - p
        out[f"p{p}"] = float(np.percentile(values, q))
    return out


def _rollout_outcome(result, report):
    return {
        "status": result.status,
        "steps": len(result.trajectory) - 1,
        "q_end": result.trajectory.q[-1].tolist(),
        "phi_end": float(result.potential_trace[-1]),
        "grad_norm": result.terminal_grad_norm,
        "max_increase": report.max_increase,
        "slack": report.slack,
        "violations": report.n_violations,
    }


class Workload:
    """Base: subclasses set the class attributes and the op builders.

    ``traced`` is true for the per-layer run; only ``cli-cold`` acts on it.
    """

    name = ""
    unit = ""           # one unit of work, as counted by ``work``
    rtol = 1e-12        # relative tolerance on float outcomes
    traced_repeats = 1     # repeats in one traced unit of work
    reference_repeats = 1  # repeats that cover every reference key
    calibration_ref_s = CALIBRATION_REF_S

    def calibration(self):
        """Seconds of this workload's calibration kernel, run now."""
        return calibration_s()

    def __init__(self, seed, traced=False):
        self.seed = pool_seed(seed)

    def warm_up(self):
        raise NotImplementedError

    def ops(self, i):
        """Operations of repeat ``i``: ``(label, reference key, thunk)``."""
        raise NotImplementedError

    def work(self, label, raw):
        raise NotImplementedError

    def outcome(self, label, raw):
        raise NotImplementedError

    def summarize(self, samples):
        """Named end-to-end metrics and the workload's ``ops_per_ref_s`` from
        ``(label, seconds, work)`` samples."""
        raise NotImplementedError

    def steps(self, label, raw):
        """RK4 steps an operation took (for ``rollout.evals_per_step``)."""
        return 0

    def trace_extras(self, layers):
        """Per-layer values measured outside the traced unit."""
        return {}

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self):
        pass


class _Rollouts(Workload):
    """Shared by both rollout workloads: one ``integrate`` per repeat."""

    unit = "step"

    def work(self, label, raw):
        return len(raw[0].trajectory) - 1

    steps = work

    def outcome(self, label, raw):
        result, report = raw
        if report is None:
            report = tm.lyapunov_check(result)
        return _rollout_outcome(result, report)

    def summarize(self, samples):
        rates = [work / dt for _, dt, work in samples if work]
        return {"rollout.steps_per_s": stats(rates, "1/s", slow="low")}, \
            statistics.median(rates)


class TrainConflicting(Workload):
    """The acceptance training trio on the conflicting-demo fixture."""

    name = "train-conflicting"
    unit = "iteration"
    rtol = 1e-10
    ITERATIONS = 2

    def __init__(self, seed, traced=False):
        super().__init__(seed)
        tree, params, demos, lam, _ = tm.conflicting_demo_fixture(seed=self.seed)
        self.tree, self.params, self.demos, self.lam = tree, params, demos, lam
        self.subtask = tm.LossSpec("subtask_space", lam)
        self.joint = tm.LossSpec("joint_space")
        self.opts = tm.TrainOptions(alpha=None, iterations=self.ITERATIONS, seed=0)
        self._initial_loss = None

    def warm_up(self):
        tm.loss_and_gradient(self.tree, self.params, self.demos, self.subtask)

    def ops(self, i):
        t, p, d = self.tree, self.params, self.demos
        return [
            ("subtask", "subtask", lambda: tm.train(t, p, d, self.subtask, self.opts)),
            ("joint", "joint", lambda: tm.train(t, p, d, self.joint, self.opts)),
            ("baseline", "baseline",
             lambda: tm.train_independent_baseline(t, p, d, self.opts)),
        ]

    def work(self, label, raw):
        return self.ITERATIONS

    def outcome(self, label, raw):
        if label != "baseline":
            return {"status": raw.status, "history": raw.history.tolist()}
        # The baseline returns parameters only; like `tree-motion train
        # --loss independent`, its history is the subtask loss before and
        # after.
        if self._initial_loss is None:
            self._initial_loss = tm.subtask_loss(self.tree, self.params,
                                                 self.demos, self.lam)
        return {"status": "completed",
                "history": [self._initial_loss,
                            tm.subtask_loss(self.tree, raw, self.demos, self.lam)]}

    def summarize(self, samples):
        # Each trainer's median call time; their sum is one median trio.
        named = {}
        trio = 0.0
        for label in ("subtask", "joint", "baseline"):
            times = [dt for lab, dt, _ in samples if lab == label]
            named[f"train.{label}_s"] = stats(times, "s")
            trio += named[f"train.{label}_s"]["value"]
        rate = 3 * self.ITERATIONS / trio
        named["train.iters_per_s"] = {"value": rate, "unit": "1/s",
                                      "n": named["train.baseline_s"]["n"]}
        return named, rate

    def trace_extras(self, layers):
        _, frac = layers.trace_one_loss_and_gradient(self.tree, self.params,
                                                     self.demos, self.subtask)
        return {"maps.DiffeoChain.value_vjp.repeat_input_frac": frac}


class RolloutArm(_Rollouts):
    """RK4 rollouts to convergence on the handcrafted three-link arm."""

    name = "rollout-arm"
    N_STATES = 10
    DT = 1e-2
    traced_repeats = 5
    reference_repeats = N_STATES

    def __init__(self, seed, traced=False):
        super().__init__(seed)
        self.tree, self.params, _ = tm.three_link_stability_fixture()
        self.states = tm.stability_seed_states(self.N_STATES, seed=self.seed)

    def warm_up(self):
        tm.evaluate_policy(self.tree, self.states[0], self.params)

    def ops(self, i):
        k = i % self.N_STATES
        q0 = self.states[k]
        return [("integrate", k, lambda: self._rollout(q0))]

    def _rollout(self, q0):
        # Every reference rollout converges within 600 steps; the cap only
        # bounds the run time of a change that stops converging.
        result = tm.integrate(self.tree, self.params, q0, dt=self.DT,
                              max_steps=5_000, grad_tol=1e-6)
        return result, tm.lyapunov_check(result)


class RolloutLearned(_Rollouts):
    """Fixed-length rollouts through chains, Cholesky nets and the damper."""

    name = "rollout-learned"
    MAX_STEPS = 100
    traced_repeats = 4
    reference_repeats = 4  # one per demonstration trajectory

    def __init__(self, seed, traced=False):
        super().__init__(seed)
        tree, params, demos, _, _ = tm.conflicting_demo_fixture(seed=self.seed)
        self.tree, self.params = tree, params
        self.starts = [tr.q[0] for tr in demos.trajectories]

    def warm_up(self):
        tm.evaluate_policy(self.tree, self.starts[0], self.params)

    def ops(self, i):
        k = i % len(self.starts)
        q0 = self.starts[k]
        # The Lyapunov check runs when the outcome is checked, untimed.
        return [("integrate", k, lambda: (tm.integrate(
            self.tree, self.params, q0, dt=1e-3, max_steps=self.MAX_STEPS), None))]


class CliCold(Workload):
    """Cold `tree-motion eval` and `tree-motion rollout` subprocesses.

    The traced run passes the same command lines to
    ``treemotion.cli.main`` inside this interpreter instead, so the
    ``cli`` and ``io`` layers show up in the trace.
    """

    name = "cli-cold"
    unit = "invocation"
    N_STATES = 10
    MAX_STEPS = 200
    IMPORT_REPEATS = 3
    traced_repeats = 5
    reference_repeats = N_STATES

    def __init__(self, seed, traced=False):
        super().__init__(seed)
        self.states = tm.stability_seed_states(self.N_STATES, seed=self.seed)
        self.in_process = traced
        # The in-process kernel does not track a child's start-up (rescaling
        # by it widened this workload's spread from 0.06 to 0.19); a cold
        # interpreter importing numpy and scipy, the bulk of a cold CLI
        # call, does.
        self.calibration_ref_s = CALIBRATION_REF_S if traced else COLD_IMPORT_REF_S
        out_root = ROOT / ".bench_build" / "perfbench"
        out_root.mkdir(parents=True, exist_ok=True)
        self.out_dir = Path(tempfile.mkdtemp(dir=out_root))
        self.env = child_env()
        self.child_rss_kb = 0
        self._csv_names = (f"rollout-{n}.csv" for n in itertools.count())

    def warm_up(self):
        from treemotion import io as tm_io

        tree = tm_io.load_tree(ARM_SPEC)
        tm.evaluate_policy(tree, self.states[0], tree.init_params())
        # Fill the page cache the cold processes will read from.
        self._invoke(["eval", ARM_SPEC, "--q=" + _vector_arg(self.states[0])])

    def _invoke(self, argv):
        if self.in_process:
            from treemotion import cli as tm_cli

            buf = StringIO()
            with contextlib.redirect_stdout(buf):
                code = tm_cli.main(argv)
            return code, buf.getvalue()
        with open(self.out_dir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen([sys.executable, "-c", CLI_BOOT, *argv],
                                    cwd=ROOT, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode()

    def ops(self, i):
        k = i % self.N_STATES
        q = _vector_arg(self.states[k])
        csv_path = str(self.out_dir / next(self._csv_names))
        return [
            ("eval", k, lambda: self._invoke(["eval", ARM_SPEC, "--q=" + q])),
            ("rollout", k, lambda: self._invoke(
                ["rollout", ARM_SPEC, "--q0=" + q, "--max-steps", str(self.MAX_STEPS),
                 "--out", csv_path]) + (csv_path,)),
        ]

    def work(self, label, raw):
        return 1

    def steps(self, label, raw):
        code, stdout = raw[0], raw[1]
        return json.loads(stdout)["steps"] if label == "rollout" and code == 0 else 0

    def outcome(self, label, raw):
        code, stdout = raw[0], raw[1]
        out = {"exit": code, "stdout": stdout}
        if label == "rollout":
            out["csv_sha256"] = None
            if os.path.exists(raw[2]):
                with open(raw[2], "rb") as fh:
                    out["csv_sha256"] = hashlib.sha256(fh.read()).hexdigest()
                os.remove(raw[2])
        return out

    def summarize(self, samples):
        named = {
            f"cli.{label}_s": stats([dt for lab, dt, _ in samples if lab == label], "s")
            for label in ("eval", "rollout")
        }
        pair = named["cli.eval_s"]["value"] + named["cli.rollout_s"]["value"]
        return named, 2.0 / pair

    def trace_extras(self, layers):
        code = ("import time; t0 = time.perf_counter(); import treemotion.cli; "
                "print(repr(time.perf_counter() - t0))")
        times = []
        for _ in range(self.IMPORT_REPEATS):
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, check=True)
            times.append(float(proc.stdout))
        return {"cli.import_s": statistics.median(times)}

    def calibration(self):
        return calibration_s() if self.in_process else cold_import_s(self.env)

    def peak_rss_kb(self):
        return self.child_rss_kb

    def close(self):
        for path in self.out_dir.iterdir():
            path.unlink()
        self.out_dir.rmdir()


WORKLOADS = {w.name: w for w in (TrainConflicting, RolloutArm, RolloutLearned, CliCold)}


def compare(outcome, reference, rtol):
    """Mismatches between an outcome and its reference: floats (and lists
    of floats) within ``rtol`` of ``max(1, |reference|)``, all else exact."""
    misses = []
    for key, want in reference.items():
        got = outcome.get(key)
        if isinstance(want, float) or (isinstance(want, list) and want
                                       and isinstance(want[0], float)):
            want_a = np.asarray(want, dtype=float)
            got_a = np.asarray(got, dtype=float) if got is not None else None
            if got_a is None or got_a.shape != want_a.shape:
                misses.append(f"{key}: shape {None if got_a is None else got_a.shape}"
                              f" != {want_a.shape}")
                continue
            scale = max(1.0, float(np.max(np.abs(want_a))))
            err = float(np.max(np.abs(got_a - want_a))) if want_a.size else 0.0
            if not err <= rtol * scale:
                misses.append(f"{key}: off by {err:.3e} (allowed {rtol * scale:.1e})")
        elif got != want:
            misses.append(f"{key}: {got!r} != {want!r}")
    return misses


def calibration_s():
    """Time a fixed mix of small numpy calls and Python work that does
    not touch treemotion.

    This host's speed for such code swings by up to 3x within minutes
    (other tenants share its cores).  Timed next to each operation, the
    kernel's time tracks that speed, so ``seconds * CALIBRATION_REF_S /
    calibration`` is the operation's time at the reference speed.
    """
    a = np.arange(9.0).reshape(3, 3) / 10.0
    v = np.ones(3)
    t0 = time.perf_counter()
    for _ in range(1500):
        c = np.cos(a @ v) + v
        v = np.linalg.solve(a.T @ a + np.eye(3), c)
        v /= 1.0 + abs(sum(float(x) for x in v))
    return time.perf_counter() - t0


def cold_import_s(env):
    """Wall time of a fresh interpreter that imports numpy and scipy: the
    calibration for timings of whole child processes."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"],
                   cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def timed(thunk):
    """Run one operation; returns ``(seconds, raw result, error text)``."""
    t0 = time.perf_counter()
    try:
        raw = thunk()
        error = None
    except Exception as exc:  # an operation that raises counts as failed
        raw = None
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, raw, error
