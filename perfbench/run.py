"""treemotion benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run times the workload for about ``S`` seconds
with nothing wrapped and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed unit of the workload once under the
per-layer tracer (between two untraced runs of the same unit, which
give the tracing overhead) and reports the per-layer metrics.  Either
way every output is compared with ``reference.json``.  Times are in
reference seconds: each is rescaled by a calibration timed around it
(see ``workloads.calibration_s`` and ``workloads.cold_import_s``).

Standard output carries three JSON lines: run metadata, a report with
every named metric, its unit and sample count, and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-conflicting", "rollout-arm", "rollout-learned", "cli-cold")
THREAD_VARS = ("TREE_MOTION_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPEATS = 3

# One timed operation.  ``ref_seconds`` is ``seconds`` rescaled to the
# reference machine speed by the calibration runs on either side of it.
Sample = namedtuple("Sample", "label key seconds ref_seconds raw error")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metadata(args, thread_env, pool_seed):
    import numpy as np
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "pool_seed": pool_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": thread_env,
    }


def probe_setup(workload, seed, env):
    """Seconds one cold interpreter needs to import, build and warm up."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_repeats(w, count=None, seconds=None):
    """Run ``count`` repeats, or as many as start within ``seconds`` (at
    least one), and return their ``Sample``s."""
    from workloads import timed

    samples = []
    start = time.perf_counter()
    before = w.calibration()
    i = 0
    while i < count if count is not None else (
            i == 0 or time.perf_counter() - start < seconds):
        for label, key, thunk in w.ops(i):
            dt, raw, error = timed(thunk)
            after = w.calibration()
            ref = dt * w.calibration_ref_s / (0.5 * (before + after))
            samples.append(Sample(label, key, dt, ref, raw, error))
            before = after
        i += 1
    return samples


def check(w, samples, reference):
    """Failure messages; every sample gets exactly one verdict.  Turning a
    result into its outcome may itself raise (a loss of non-finite
    parameters, say); that is a failure too."""
    import workloads as wl

    failures = []
    for label, key, _, _, raw, error in samples:
        where = f"{label}[{key}]"
        if error is None:
            outcome, error = wl.timed(lambda: w.outcome(label, raw))[1:]
        if error is not None:
            failures.append(f"{where}: raised {error}")
            continue
        misses = wl.compare(outcome, reference[label][str(key)], w.rtol)
        if misses:
            failures.append(f"{where}: " + "; ".join(misses))
    return failures


def measured_run(w, reference, seconds, setup_samples):
    """End-to-end metrics, in reference seconds; the report also carries
    them in plain wall-clock seconds under ``wall``.  ``setup_samples``
    are ``(wall, reference)`` seconds of each set-up probe."""
    samples = run_repeats(w, seconds=seconds)
    failures = check(w, samples, reference)
    work = [0 if s.raw is None else w.work(s.label, s.raw) for s in samples]
    named, ops_per_ref_s = w.summarize(
        [(s.label, s.ref_seconds, n) for s, n in zip(samples, work)])
    wall, _ = w.summarize([(s.label, s.seconds, n) for s, n in zip(samples, work)])
    setup_s = statistics.median(ref for _, ref in setup_samples)
    wall["setup_s"] = {"value": statistics.median(t for t, _ in setup_samples),
                       "unit": "s", "n": len(setup_samples)}
    peak_mb = w.peak_rss_kb() / 1024.0
    named["setup_s"] = {"value": setup_s, "unit": "s", "n": len(setup_samples)}
    named["peak_rss_mb"] = {"value": peak_mb, "unit": "MB", "n": 1}
    named["failed_frac"] = {"value": len(failures) / len(samples), "unit": "frac",
                            "n": len(samples)}
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_ref_s": {"value": ops_per_ref_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    report = {"unit_of_work": w.unit, "metrics": named, "wall": wall,
              "failures": failures[:20]}
    return samples, failures, metrics, report


def traced_run(w, reference):
    import layers

    n = w.traced_repeats

    def unit():
        samples = run_repeats(w, count=n)
        return sum(s.ref_seconds for s in samples), samples

    before, s1 = unit()
    tracer = layers.new_tracer()
    with tracer:
        traced, s2 = unit()
    after, s3 = unit()
    samples = s1 + s2 + s3
    failures = check(w, samples, reference)

    extras = {"trace.overhead_frac": traced / (0.5 * (before + after)) - 1.0}
    extras.update(w.trace_extras(layers))
    steps = sum(w.steps(s.label, s.raw) for s in s2 if s.error is None)
    values, absent = layers.layer_metrics(tracer, steps, extras)
    units = layers.metric_units()
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    report = {"traced_repeats": n, "untraced_ref_s": [before, after],
              "traced_ref_s": traced, "absent": absent, "failures": failures[:20]}
    return samples, failures, metrics, report


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "treemotion" / "__init__.py").is_file():
        print(f"perfbench: no treemotion sources under {SRC}", file=sys.stderr)
        return 2
    # The library's default thread count is part of what is measured.
    thread_env = {var: os.environ.get(var) for var in THREAD_VARS}
    os.environ.pop("TREE_MOTION_THREADS", None)
    sys.path.insert(0, str(SRC))

    import workloads as wl

    w_class = wl.WORKLOADS[args.workload]
    pool_seed = wl.pool_seed(args.seed)
    print(json.dumps({"meta": metadata(args, thread_env, pool_seed)}), flush=True)
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)["seeds"][str(pool_seed)][args.workload]

    setup_samples = []
    if not args.trace:
        # Each probe is a cold interpreter, rescaled like cli-cold's calls.
        env = wl.child_env()
        before = wl.cold_import_s(env)
        for _ in range(SETUP_REPEATS):
            seconds = probe_setup(args.workload, args.seed, env)
            after = wl.cold_import_s(env)
            ref = seconds * wl.COLD_IMPORT_REF_S / (0.5 * (before + after))
            setup_samples.append((seconds, ref))
            before = after
    w = w_class(args.seed, traced=bool(args.trace))
    try:
        w.warm_up()
        if args.trace:
            samples, failures, metrics, report = traced_run(w, reference)
        else:
            samples, failures, metrics, report = measured_run(
                w, reference, args.seconds, setup_samples)
    finally:
        w.close()
    print(json.dumps({"report": report}), flush=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
