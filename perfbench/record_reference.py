"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload's operations once for every seed in the pool, on the
current sources, and writes ``perfbench/reference.json``.  Re-record
only when a change is meant to alter outputs, and say so.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def record(w_class, seed):
    """Outcomes of every reference operation for workload seed ``seed``."""
    w = w_class(seed)
    entry = {}
    try:
        w.warm_up()
        for i in range(w.reference_repeats):
            for label, key, thunk in w.ops(i):
                _, raw, error = wl.timed(thunk)
                if error is not None:
                    raise RuntimeError(f"{w.name} seed {seed} {label}[{key}]: {error}")
                outcome = w.outcome(label, raw)
                if (outcome.get("status") in ("error", "aborted_nonfinite")
                        or outcome.get("violations", 0) or outcome.get("exit", 0)):
                    raise RuntimeError(f"{w.name} seed {seed} {label}[{key}] "
                                       f"failed: {outcome}")
                entry.setdefault(label, {})[str(key)] = outcome
    finally:
        w.close()
    return entry


def main():
    seeds = {}
    for index, fixture_seed in enumerate(wl.POOL):
        seeds[str(fixture_seed)] = {name: record(cls, index)
                                    for name, cls in wl.WORKLOADS.items()}
        print(f"fixture seed {fixture_seed} recorded", file=sys.stderr)
    with open(HERE / "reference.json", "w") as fh:
        json.dump({"pool": wl.POOL, "seeds": seeds}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
