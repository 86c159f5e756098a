#!/usr/bin/env python3
"""switchcert benchmark: library and cli workloads with oracle checks.

Usage (from the repository root)::

    python3 bench/run.py --workload library --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload is one closed-loop client: the next job starts when the
previous one has finished and been checked. Inputs come from ``--seed``
alone (see ``gen.py`` and ``docs.py``); the library only sees the generated
matrices and documents. Every job's verdict is checked against an
independent oracle (``oracle.py``) after the job's clock stops.

A run is made of whole passes over the workload's job list: at least the
workload's ``min_passes``, and more until ``--seconds`` of job time have
been measured.
So every run covers every job equally often, on any commit; a faster
program only adds passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one full
pass of the job list with spans around every library call and prints the
per-layer metrics; every third job is also repeated untraced right after
its traced run, for the tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object. Spans are also written to
``.bench_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP for this process and every child it starts;
# must be set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh-process imports per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Jobs beyond ``job_s_tail`` in the shortest run a workload makes.
TAIL_BEYOND = 10
#: In the traced run, every this-many-th job is repeated untraced.
REPLAY_EVERY = 3
#: Seconds a single child process may take before the run is abandoned.
CHILD_TIMEOUT = 120

IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "t = time.perf_counter()\n"
    "importlib.import_module(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t))\n"
)

SPANS = (
    "certify.make_system",
    "certify.necessary_checks",
    "certify.feasible_interval",
    "certify.certify",
    "certify.loop_budgets",
    "certify.decay_envelope",
    "planar.region_scan",
    "sim.random_signal",
    "sim.propagate",
    "sim.decay_fit",
    "scaling.normalized_system",
    "scaling.fold",
    "scaling.search",
)
COUNTS = (
    "certify.feasible_interval.components",
    "planar.region_scan.cells",
    "sim.propagate.samples",
    "scaling.search.restarts",
)
CLI_COMMANDS = ("validate", "certify_eta", "certify_auto", "loops", "region", "simulate", "decompose", "search")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, cwd=None):
    """Run a child Python process to completion; returns (wall s, result)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT
    )
    return time.perf_counter() - start, proc


def import_time(module):
    """Import time of ``module`` measured inside a fresh interpreter."""
    _, proc = run_child(["-c", IMPORT_PROBE, module])
    if proc.returncode != 0:
        raise RuntimeError(f"importing {module} failed: {proc.stderr.decode(errors='replace')}")
    return float(proc.stdout.decode().strip())


def measure_setup(module):
    """Median fresh-process import time over SETUP_REPEATS (after one warm-up)."""
    import_time(module)
    return statistics.median(import_time(module) for _ in range(SETUP_REPEATS))


def measure_interpreter(module):
    """(bare interpreter start, import of ``module`` on top of it), medians."""
    bare = statistics.median(run_child(["-c", "pass"])[0] for _ in range(SETUP_REPEATS))
    full = statistics.median(run_child(["-c", f"import {module}"])[0] for _ in range(SETUP_REPEATS))
    return bare, full - bare


def tail(times, min_jobs):
    """The highest percentile with >= TAIL_BEYOND samples beyond it.

    The percentile is fixed by ``min_jobs``, the jobs in the shortest run
    the workload makes: TAIL_BEYOND samples beyond it there, proportionally
    more in longer runs. So the tail picks the same jobs however many passes
    a run makes. Returns (value, percentile, samples beyond).
    """
    ordered = sorted(times)
    beyond = len(ordered) * TAIL_BEYOND // min_jobs
    idx = max(len(ordered) - beyond - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - idx - 1


class Record:
    """One job's result as the metrics need it."""

    __slots__ = ("seconds", "problems", "labelled", "certified")

    def __init__(self, seconds, problems, labelled, certified):
        self.seconds = seconds
        self.problems = problems
        self.labelled = labelled
        self.certified = certified


# ---------------------------------------------------------------------------
# workloads: a job list, a module whose import is the set-up, a memory probe


class Library:
    """``library``: decide and rescale jobs, calling the library in this process."""

    #: One pass already holds every system of the seed.
    min_passes = 1

    def __init__(self, seed):
        import gen
        import switchcert

        self.lib = switchcert
        self.seed = seed
        self.module = "switchcert"
        self.pool = gen.library_pool(seed)

    def __len__(self):
        return len(self.pool)

    def run(self, tr, i):
        import jobs

        spec = self.pool[i % len(self.pool)]
        job_seed = self.seed * 1000 + i % len(self.pool)
        # Systems with prescribed bases are decide jobs; bare matrices are
        # rescale jobs.
        job, check = (jobs.decide_job, jobs.check_decide) if spec.prescribed else (jobs.rescale_job, jobs.check_rescale)
        tr.begin_job(i)
        try:
            out = job(self.lib, tr, spec, job_seed)
        except Exception as exc:  # a crash is a failed job, not a failed run
            seconds = tr.end_job()
            return Record(seconds, [f"{spec.name}: crashed: {exc!r}"], spec.label != "obstructed", False)
        seconds = tr.end_job()
        problems, certified = check(self.lib, out)
        return Record(seconds, [f"{spec.name}: {p}" for p in problems], spec.label != "obstructed", certified)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Cli:
    """``cli``: a fresh ``python -m switchcert.cli`` process per command."""

    #: Every command runs at least twice, for the byte-identity check.
    min_passes = 2

    def __init__(self, seed):
        self.module = "switchcert.cli"
        self.workdir = OUT / f"cli-{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)

        def write(name, doc):
            path = self.workdir / f"{name}.json"
            path.write_text(json.dumps(doc, sort_keys=True))
            return str(path)

        import docs

        self.jobs = docs.commands(seed, write)
        # Every command runs once per pass, so at least twice per run; each
        # later report must repeat the first byte for byte.
        self.first_report = {}

    def __len__(self):
        return len(self.jobs)

    def run(self, tr, i):
        import docs

        key = i % len(self.jobs)
        cmd = self.jobs[key]
        tr.begin_job(i)
        start = time.perf_counter()
        _, proc = run_child(["-m", "switchcert.cli", *cmd.argv], cwd=self.workdir)
        tr.add_span(f"cli.{cmd.name}", start, time.perf_counter())
        seconds = tr.end_job()
        label = " ".join(cmd.argv[:1] + [Path(a).name for a in cmd.argv[1:2]])
        self.first_report.setdefault(key, proc.stdout)
        problems = docs.report_problems(cmd, proc.returncode, proc.stdout, proc.stderr, self.first_report[key])
        certified = cmd.certifiable and not problems
        return Record(seconds, [f"{label}: {p}" for p in problems], cmd.certifiable, certified)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def make_workload(name, seed):
    return Cli(seed) if name == "cli" else Library(seed)


# ---------------------------------------------------------------------------
# loops and metrics


def closed_loop(workload, tr, seconds):
    """Run whole passes over the job list, back to back.

    At least ``workload.min_passes``, then more until ``seconds`` of job
    time have been measured. The checks between jobs do not count, so the number of passes
    depends only on how fast the program is.
    """
    records = []
    busy = 0.0
    while len(records) < workload.min_passes * len(workload) or busy < seconds:
        for _ in range(len(workload)):
            records.append(workload.run(tr, len(records)))
            busy += records[-1].seconds
    return records


def end_to_end(records, workload, setup_s):
    times = [r.seconds for r in records]
    labelled = [r for r in records if r.labelled]
    failed = sum(1 for r in records if r.problems)
    pass_size = len(workload)
    tail_s, tail_pct, beyond = tail(times, workload.min_passes * pass_size)
    passes = len(times) // pass_size
    passes = f"{passes} pass{'es' if passes > 1 else ''} of {pass_size} jobs"
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} fresh-process imports"),
        "job_s_p50": (statistics.median(times), "s", f"n={len(times)}, {passes}"),
        "job_s_tail": (tail_s, "s", f"p{tail_pct:.1f}, {beyond} samples beyond, n={len(times)}"),
        "jobs_per_s": (len(times) / sum(times), "1/s", f"{len(times)} jobs in {sum(times):.3f} s of job time"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio", f"{len(records) - failed}/{len(records)}"),
        "certified_ratio": (
            sum(r.certified for r in labelled) / len(labelled) if labelled else 1.0,
            "ratio",
            f"{sum(r.certified for r in labelled)}/{len(labelled)} certifiable or rescalable jobs",
        ),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB", "max resident set size"),
    }
    return metrics


def per_layer(tr, paired, untraced, interpreter):
    metrics = {}
    for name in SPANS:
        s = tr.span_summary(name)
        metrics[f"{name}.calls"] = (s["calls"], "count", "")
        metrics[f"{name}.busy_s"] = (s["busy_s"], "s", "")
        metrics[f"{name}.p50_ms"] = (s["p50_ms"], "ms", "")
    for name in COUNTS:
        metrics[name] = (tr.counts.get(name, 0), "count", "")
    search_s = tr.span_summary("scaling.search")["busy_s"]
    metrics["scaling.search.feasible_s"] = (tr.counts.get("scaling.search.feasible_s", 0.0), "s", "")
    metrics["scaling.search.exhausted_s"] = (tr.counts.get("scaling.search.exhausted_s", 0.0), "s", "")
    rescalable = tr.counts.get("scaling.search.rescalable", 0)
    feasible = tr.counts.get("scaling.search.feasible", 0)
    metrics["scaling.search.success_ratio"] = (
        feasible / rescalable if rescalable else 0.0, "ratio", f"{feasible}/{rescalable} rescalable jobs feasible"
    )
    metrics["scaling.search.trace_flagged_share"] = (
        tr.counts.get("scaling.search.flagged_s", 0.0) / search_s if search_s else 0.0, "ratio", ""
    )
    bare, imported = interpreter
    metrics["cli.interpreter_s"] = (bare, "s", f"median of {SETUP_REPEATS} `python -c pass`")
    metrics["cli.import_s"] = (imported, "s", "import switchcert.cli minus interpreter")
    for cmd in CLI_COMMANDS:
        d = tr.durations(f"cli.{cmd}")
        metrics[f"cli.{cmd}.p50_s"] = (statistics.median(d) if d else 0.0, "s", f"n={len(d)}")
    metrics["unattributed_s"] = (tr.self_times().get("job", 0.0), "s", "job time outside every span")
    traced_rate = len(paired) / sum(r.seconds for r in paired)
    untraced_rate = len(untraced) / sum(r.seconds for r in untraced)
    metrics["trace.jobs_per_s_ratio"] = (
        traced_rate / untraced_rate,
        "ratio",
        f"traced {traced_rate:.4f} / untraced {untraced_rate:.4f} jobs/s over {len(paired)} paired jobs",
    )
    return metrics


def run_workload(name, seed, seconds, traced):
    """Run one workload, print its metrics and return the result for the JSON line."""
    import tracing

    t0 = time.perf_counter()
    workload = make_workload(name, seed)
    inputs_s = time.perf_counter() - t0
    if traced:
        interpreter = measure_interpreter("switchcert.cli")
        tr = tracing.Tracer(True)
        untraced_tr = tracing.Tracer(False)
        records, paired, untraced = [], [], []
        # One full pass traced. Every REPLAY_EVERY-th job is repeated
        # untraced right away, so the overhead ratio compares the same
        # jobs under the same conditions.
        for i in range(len(workload)):
            records.append(workload.run(tr, i))
            if i % REPLAY_EVERY == 0:
                paired.append(records[-1])
                untraced.append(workload.run(untraced_tr, i))
        metrics = per_layer(tr, paired, untraced, interpreter)
        OUT.mkdir(exist_ok=True)
        tr.dump(OUT / f"trace-{name}-{seed}.json", {"workload": name, "seed": seed, "jobs": len(records)})
        # The untraced repeats are checked like every other job.
        records += untraced
    else:
        setup_s = measure_setup(workload.module)
        records = closed_loop(workload, tracing.Tracer(False), seconds)
        metrics = end_to_end(records, workload, setup_s)
    failed = sum(1 for r in records if r.problems)
    print(f"== workload {name}, seed {seed}, {'traced' if traced else 'untraced'}: "
          f"{len(records)} jobs, {failed} failed (failed_ratio {failed}/{len(records)}); "
          f"inputs and labels {inputs_s:.2f} s (not in any metric)")
    for key, (value, unit, note) in metrics.items():
        print(f"  {key:40s} {value:14.6g} {unit:6s} {note}")
    for r in records:
        for p in r.problems:
            print(f"  FAIL {p}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("library", "cli", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "switchcert" / "__init__.py").is_file():
        print(f"bench: no switchcert package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = ("library", "cli") if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
