"""Benchmark a base revision against the working tree in alternating pairs.

Usage::

    python tools/bench_pairs.py --base <rev> --workload <w> [--workload <w> ...]
        --seeds 2-11 [--trace-seed 0-4] [--label NAME]

Each side is a fresh copy: the base is ``git archive <rev>``, the change is
the working tree's tracked and untracked, not-ignored files. Neither copy
has a bytecode cache, and every run has ``PYTHONDONTWRITEBYTECODE=1``, so
neither side imports from a cache the other lacks. For every seed, one
``perfbench/run.py --seconds S --trace 0`` run per side makes a pair, ``S``
being the ``run_seconds`` of ``BENCHMARK.json``; even seeds run the base
first, odd seeds the change. ``--trace-seed`` (one seed or a range, as
``--seeds``) adds one ``--trace 1`` run per side and traced seed, in the
same alternating order, and records per seed the ``.calls`` counts, the
names of those whose two sides differ on any seed (``calls_differ``) and,
per traced function called on both sides, its self time per call in
microseconds: each seed's, and per side their median.

Writes ``BENCH_<label>.json`` (default label: the first workload) in the
repository root: per workload and end-to-end metric, each side's runs,
median and quartiles, the median change, the base's interquartile range
and the number of pairs the change won.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text):
    """``"2-11"`` -> ``[2, 3, ..., 11]``; ``"0"`` -> ``[0]``."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export_base(rev, dest):
    # The "data" filter (where this Python has it) refuses absolute paths
    # and links out of ``dest``.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    tarfile.open(fileobj=io.BytesIO(git("archive", rev))).extractall(dest, **safe)


def export_working_tree(dest):
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in files.decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run(checkout, workload, seed, seconds, trace):
    """The result line and the metadata line of one ``perfbench/run.py`` run."""
    for cache in checkout.rglob("__pycache__"):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    return lines[-1], lines[0]["meta"]


def summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(parent, change, better):
    p, c = summary(parent), summary(change)
    won = sum((b > a) if better == "higher" else (b < a)
              for a, b in zip(parent, change))
    return {"better": better, "parent": p, "change": c,
            "median_change_frac": c["median"] / p["median"] - 1.0,
            "parent_iqr": p["q3"] - p["q1"],
            "pairs_won_by_change": won, "pairs": len(parent)}


def traced_summary(seeds, traced):
    """Per traced function, each seed's ``.calls`` on both sides and its
    self time per call in microseconds, and per side the median of those
    times over the seeds; ``traced`` holds each side's runs in seed order."""
    metrics = [{side: traced[side][k]["metrics"] for side in SIDES}
               for k in range(len(seeds))]
    calls, differ, self_us = {}, [], {}
    for name in metrics[0]["parent"]:
        if not name.endswith(".calls"):
            continue
        counts = [{side: m[side][name]["value"] for side in SIDES} for m in metrics]
        if any(any(pair.values()) for pair in counts):
            calls[name] = {side: [pair[side] for pair in counts] for side in SIDES}
        if any(pair["parent"] != pair["change"] for pair in counts):
            differ.append(name)
        self_s = name[:-len("calls")] + "self_s"
        if self_s in metrics[0]["parent"] and all(all(pair.values()) for pair in counts):
            per_seed = {side: [1e6 * m[side][self_s]["value"] / pair[side]
                               for m, pair in zip(metrics, counts)] for side in SIDES}
            self_us[self_s[:-2] + "_us_per_call"] = {
                **{side: statistics.median(per_seed[side]) for side in SIDES},
                "per_seed": per_seed}
    return {"seeds": seeds,
            "correct": [all(r["correct"] for r in traced[side]) for side in SIDES],
            "calls": calls, "calls_differ": differ, "self_us_per_call": self_us}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace-seed")
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    label = args.label or args.workload[0]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    base = git("rev-parse", "--short", args.base).decode().strip()

    out = {
        "command": (f"python3 perfbench/run.py --workload <w> --seed <s> "
                    f"--seconds {seconds:g} --trace 0"),
        "pairs": (f"{len(seeds)} alternating parent/change pairs per workload, "
                  f"seeds {args.seeds}; even seeds ran the parent first, odd "
                  "seeds the change first"),
        "parent": base,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for path in checkouts.values():
            path.mkdir()
        export_base(args.base, checkouts["parent"])
        export_working_tree(checkouts["change"])

        for workload in args.workload:
            results = {side: [] for side in SIDES}
            for seed in seeds:
                order = SIDES if seed % 2 == 0 else SIDES[::-1]
                for side in order:
                    result, meta = run(checkouts[side], workload, seed, seconds, 0)
                    results[side].append(result)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(result['metrics'])}", file=sys.stderr)
            entry = {}
            for metric in end_to_end:
                name = metric["name"]
                entry[name] = compare(
                    [r["metrics"][name]["value"] for r in results["parent"]],
                    [r["metrics"][name]["value"] for r in results["change"]],
                    metric["better"])
            entry["all_correct_no_failures"] = all(
                r["correct"] and r["failed"] == 0
                for side in SIDES for r in results[side])
            out["workloads"][workload] = entry

        if args.trace_seed is not None:
            trace_seeds = parse_seeds(args.trace_seed)
            out["trace_1"] = {}
            for workload in args.workload:
                traced = {side: [] for side in SIDES}
                for seed in trace_seeds:
                    for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                        traced[side].append(
                            run(checkouts[side], workload, seed, seconds, 1)[0])
                out["trace_1"][workload] = traced_summary(trace_seeds, traced)

    out["host"] = {"nproc": meta["nproc"], "python": meta["python"],
                   "numpy": meta["numpy"], "scipy": meta["scipy"],
                   "blas": meta["blas"]["name"] + " " + meta["blas"]["version"]}
    out["notes"] = ["Each side ran from a fresh copy of its files with no bytecode "
                    "cache and PYTHONDONTWRITEBYTECODE=1."]
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
