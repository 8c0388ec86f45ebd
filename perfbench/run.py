"""simpcat benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload probe --seed 1 --seconds 30 --trace 0

One run is a single process with no extra threads.  It sets up the
workload several times (import simpcat afresh, draw the seeded jobs,
write their documents) and reports the median set-up time, then runs passes
over the job list until --seconds would be exceeded, checking every
job's outcome.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and prints the
per-layer metrics of the traced ones.  The last line of standard output
is one JSON object; run records, the job manifest and the spans go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# set up at least 3 and at most 15 times, stopping once 2 s are spent
SETUPS = (3, 15)
SETUP_BUDGET_S = 2.0

from jobs import FAMILIES, check  # noqa: E402
from tracer import LAYERS, Tracer, layer_shares, per_layer_metrics  # noqa
from workloads import WORKLOADS, generate, write_documents  # noqa: E402


class Context:
    """What a job sees: the simpcat modules (looked up at call time, so
    the tracer's patches apply) and the directory of its documents."""

    def __init__(self, modules, workdir):
        self.m = modules
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)


class Modules:
    def __init__(self):
        for layer in LAYERS:
            setattr(self, layer, sys.modules[f"simpcat.{layer}"])


def import_simpcat():
    """Import simpcat from this checkout's src/, dropping any copy
    imported before so each set-up pays the import."""
    for name in [n for n in sys.modules
                 if n == "simpcat" or n.startswith("simpcat.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("simpcat")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != \
            os.path.join(SRC, "simpcat"):
        raise ImportError(f"simpcat imported from {pkg.__file__}, "
                          f"not from {SRC}")
    for layer in LAYERS:
        importlib.import_module(f"simpcat.{layer}")
    return Modules()


def setup(workload, seed, workdir):
    """Import simpcat, draw the jobs, write their documents."""
    t0 = time.perf_counter()
    modules = import_simpcat()
    jobs = generate(workload, random.Random(seed))
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    ctx = Context(modules, workdir)
    write_documents(ctx, jobs)
    return time.perf_counter() - t0, ctx, jobs


def run_job(ctx, job, tracer=None):
    """Time one job around its calls into simpcat and check its outcome.
    Returns (seconds, None) or (seconds, reason it failed)."""
    run = FAMILIES[job.family]
    rec = None
    if tracer is not None:
        tracer.job = job.id
        rec = tracer.begin("bench.job")
    t0 = time.perf_counter()
    try:
        observed = run(ctx, job.params)
        error = None
    except Exception as e:      # a job's exception never ends the run
        error = f"uncaught {type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    if rec is not None:
        tracer.end(rec)
        tracer.job = None
    if error is None:
        try:
            error = check(job, observed)
        except Exception as e:
            error = f"unreadable outcome: {type(e).__name__}: {e}"
    return seconds, error


def run_pass(ctx, jobs, tracer=None):
    t0 = time.perf_counter()
    results = [run_job(ctx, job, tracer) for job in jobs]
    return time.perf_counter() - t0, results


def tail_rank(n):
    """Highest whole percentile with at least ten jobs beyond it, and the
    1-based nearest rank of that percentile among n sorted values."""
    p = min(99, math.floor(100 - 1000 / n)) if n >= 20 else 50
    return p, max(1, math.ceil(p * n / 100))


def latency_stats(jobs, passes):
    """Per-job latency is the median over the run's untraced passes;
    p50 and the tail are taken over jobs, so the sample size is the
    (fixed) job count of the workload, however many passes ran."""
    by_id = {job.id: statistics.median(results[k][0] for results in passes)
             for k, job in enumerate(jobs) if job.defect is None}
    per_job = sorted(by_id.values())
    p, rank = tail_rank(len(per_job))
    return {"by_job_s": by_id,
            "job_p50_s": statistics.median(per_job),
            "job_tail_s": per_job[rank - 1],
            "tail_percentile": p,
            "tail_jobs_beyond": len(per_job) - rank,
            "jobs": len(per_job)}


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "simpcat", "__init__.py")):
        print(f"error: no simpcat sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    try:
        return measure(args, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, tag, workdir):
    setups = []
    while len(setups) < SETUPS[0] or (sum(setups) < SETUP_BUDGET_S
                                      and len(setups) < SETUPS[1]):
        seconds, ctx, jobs = setup(args.workload, args.seed, workdir)
        setups.append(seconds)
    manifest = {"workload": args.workload, "seed": args.seed,
                "jobs": [job.manifest() for job in jobs]}
    with open(os.path.join(OUT, f"manifest-{args.workload}-{args.seed}.json"),
              "w") as fh:
        json.dump(manifest, fh, indent=1)

    tracer = Tracer() if args.trace else None
    plain, traced, layer_runs, span_dump = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(ctx, jobs))
        if tracer is not None:
            tracer.clear()
            tracer.install()
            try:
                traced.append(run_pass(ctx, jobs, tracer))
            finally:
                tracer.uninstall()
            layer_runs.append((per_layer_metrics(tracer.spans),
                               layer_shares(tracer.spans)))
            span_dump = list(tracer.spans)
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step > args.seconds:
            break

    regular = [k for k, job in enumerate(jobs) if job.defect is None]
    attempted = failed = 0
    failures = {}
    for _, results in plain + traced:
        for k in regular:
            attempted += 1
            if results[k][1] is not None:
                failed += 1
                failures[jobs[k].id] = results[k][1]
    defects = [{"id": jobs[k].id, "defect": jobs[k].defect,
                "outcome": plain[-1][1][k][1] or "fixed: exits as documented"}
               for k, job in enumerate(jobs) if job.defect is not None]
    stats = latency_stats(jobs, [results for _, results in plain])
    wall = statistics.median(w for w, _ in plain)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
        "jobs": len(jobs), "passes": len(plain), "traced_passes": len(traced),
        "pass_wall_s": [w for w, _ in plain], "setup_s_each": setups,
        "tail_percentile": stats["tail_percentile"],
        "tail_jobs_beyond": stats["tail_jobs_beyond"],
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": failures,
        "known_defects": defects, "job_latency_s": stats["by_job_s"],
    }
    if tracer is None:
        metrics = {
            "wall_s": (wall, "s"),
            "job_p50_ms": (stats["job_p50_s"] * 1000, "ms"),
            "job_tail_ms": (stats["job_tail_s"] * 1000, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        shown = dict(metrics, failed_frac=(failed / attempted, "1"))
    else:
        metrics = {name: (statistics.median(run[0][name]
                                            for run in layer_runs),
                          layer_unit(name)) for name in layer_runs[0][0]}
        metrics["trace_overhead_frac"] = (
            statistics.median(w for w, _ in traced) / wall - 1, "1")
        shares = layer_runs[-1][1]
        record["layer_shares"] = shares
        shown = metrics
        with gzip.open(os.path.join(OUT, f"spans-{tag}.jsonl.gz"), "wt") as fh:
            for rec in span_dump:
                fh.write(json.dumps(rec) + "\n")
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    with open(os.path.join(OUT, f"run-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"simpcat bench: workload {args.workload}, seed {args.seed}, "
          f"{len(jobs)} jobs, {len(plain)} passes"
          + (f" + {len(traced)} traced" if traced else "")
          + f", python {record['python']}, nproc {record['nproc']}, "
          f"git {record['git_sha'][:12]}")
    print(f"  tail = p{stats['tail_percentile']} of {stats['jobs']} jobs "
          f"({stats['tail_jobs_beyond']} beyond); "
          f"failed {failed} of {attempted} attempted")
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    if tracer is not None:
        print("  layer shares of job time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items()))
    for job_id, reason in sorted(failures.items()):
        print(f"  FAILED {job_id}: {reason}")
    for d in defects:
        print(f"  known defect {d['id']} ({d['defect']}): {d['outcome']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
