#!/usr/bin/env python3
"""Record a trajectory point: two sets of ten seeded runs per workload, plus a traced run.

Run from the repository root::

    python3 bench/record.py --out bench/results/BENCH_1.json

For every workload it runs ``run.py`` once per seed, untraced, for each
set of seeds, and stores each end-to-end metric's values with their median
and quartiles (from ``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``. The two sets are then compared: ``agreement`` gives
each metric's medians, the change of the second median against the first
in the metric's worse direction, and whether the spreads and that change
stay within the metric's bound in ``BENCHMARK.json`` (the spread of
``setup_s`` is not bounded). One traced run per workload gives the
per-layer metrics. Machine and version details and the git commit, when
there is one, go alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("library", "cli")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, traced):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if traced else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def agreement(sets, specs):
    """Per metric: both medians and spreads, the worse-direction change, within bounds?"""
    out = {}
    for name, spec in specs.items():
        medians = [s[name]["median"] for s in sets]
        spreads = [s[name]["spread"] for s in sets]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        change = sign * (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
        spread_ok = name == "setup_s" or max(spreads) <= spec["bound"]
        out[name] = {
            "unit": spec["unit"],
            "bound": spec["bound"],
            "medians": medians,
            "spreads": spreads,
            "worse_change": change,
            "within_bound": bool(spread_ok and change <= spec["bound"]),
        }
    return out


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def git_sha():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10/11,12,13,14,15,16,17,18,19,20",
                        help="comma-separated seeds; two sets separated by '/'")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    seed_sets = [[int(s) for s in part.split(",")] for part in args.seeds.split("/")]
    specs = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    import numpy
    import scipy

    record = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "run_seconds": args.seconds,
        "workloads": {w: {"sets": []} for w in args.workloads.split(",")},
    }
    # Set by set, each set over every workload, the way a second evaluation
    # of the same commit would come later.
    for seeds in seed_sets:
        for workload, entry in record["workloads"].items():
            results = []
            for seed in seeds:
                results.append(run_once(workload, seed, args.seconds, False))
                print(workload, seed, {k: round(v["value"], 4) for k, v in results[-1]["metrics"].items()}, flush=True)
            entry["sets"].append({
                "seeds": seeds,
                "attempted": [r["attempted"] for r in results],
                "failed": [r["failed"] for r in results],
                "end_to_end": summarize(results),
            })
            for name, s in entry["sets"][-1]["end_to_end"].items():
                print(f"  {workload:8s} {name:16s} median {s['median']:.5g} {s['unit']:6s} spread {s['spread']:.3f}", flush=True)
    for workload, entry in record["workloads"].items():
        if len(entry["sets"]) == 2:
            entry["agreement"] = agreement([s["end_to_end"] for s in entry["sets"]], specs)
            for name, a in entry["agreement"].items():
                print(f"  {workload:8s} {name:16s} medians {a['medians'][0]:.5g} {a['medians'][1]:.5g} "
                      f"worse by {a['worse_change']:+.3f}, bound {a['bound']}: "
                      f"{'ok' if a['within_bound'] else 'OUT OF BOUND'}", flush=True)
        traced = run_once(workload, seed_sets[0][0], args.seconds, True)
        entry["per_layer_seed"] = seed_sets[0][0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
