"""spaceform benchmark: one workload, one seed, one measured run.

Run from the root of a spaceform checkout:

    python3 bench/run.py --workload cli-sphere-401 --seed 1 --seconds 25 --trace 0

The benchmark is one process and one closed-loop client: it runs the
workload's jobs one after another, pass after pass, until the timed job
time reaches ``--seconds`` (always at least one pass).  Only the jobs are
timed; checking their outputs, comparing repeats byte for byte and
deleting output directories happen between them.  With ``--trace 1`` the
first half of the time runs untraced and the second half traced, and the
run reports the per-layer figures instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See DESIGN.md for
the workloads, the metrics and the failures expected at the seed commit.
"""

import os

# Plain single-threaded baseline: pin BLAS/OpenMP pools before numpy loads.
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3
WORKLOAD_NAMES = ("cli-sphere-401", "api-801", "cli-small")
# subcommands that still write their report when they exit 1
REPORTS_ON_FAIL = ("check", "reconstruct", "group")
MODULES = ("cli", "io", "integrability", "fundamental", "grids", "twistor",
           "reconstruct", "liegroup")


def import_program() -> float:
    """Put the checkout's src/ first on the path and import; returns seconds."""
    if not os.path.isfile(os.path.join(SRC, "spaceform", "__init__.py")):
        raise SystemExit(f"error: no spaceform sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import yaml  # noqa: F401
    import spaceform.cli  # noqa: F401
    return time.perf_counter() - t0


@dataclass
class Record:
    name: str
    kind: str
    seconds: float
    failed: list = field(default_factory=list)
    broken: list = field(default_factory=list)


class Runner:
    """Runs passes over a job list, timing each job and checking its output."""

    def __init__(self, jobs, work):
        self.jobs = jobs
        self.work = work
        self.first = {}        # job name -> (exit code, digest, accuracy failures)
        self.values = {}       # golden figures from the checks
        self.records = []
        self.notes = {}        # job name -> captured output of a failing run

    def run(self, seconds, tracer=None):
        """Passes until the timed job time reaches ``seconds``; returns
        (per-pass job seconds, records of these passes)."""
        start = len(self.records)
        walls = []
        while not walls or sum(walls) < seconds:
            kept = []
            wall = 0.0
            for job in self.jobs:
                rec, out = self._run_job(job, len(walls), tracer)
                wall += rec.seconds
                self.records.append(rec)
                if job.keep:
                    kept.append(out)
                elif job.cli:
                    shutil.rmtree(out, ignore_errors=True)
            for out in kept:
                shutil.rmtree(out, ignore_errors=True)
            walls.append(wall)
        return walls, self.records[start:]

    def _run_job(self, job, pass_no, tracer):
        from workloads import out_dir
        from verify import Verdict, digest_dir, digest_result

        out = out_dir(self.work, job.name)
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.job = f"{pass_no}:{job.name}"
        captured = io.StringIO()
        error = None
        result = None
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            t0 = time.perf_counter()
            try:
                result = job.run(out)
            except Exception as exc:    # a crash is a failed job, not a crashed benchmark
                error = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        v = Verdict()
        if error is not None:
            v.failed.append(error)
        elif job.cli and result != 0 and not (result == 1 and job.kind in REPORTS_ON_FAIL):
            v.failed.append(f"exit {result}")          # no complete output to check
        else:
            code = result if job.cli else None
            digest = digest_dir(out) if job.cli else digest_result(result)
            if job.name not in self.first:
                try:
                    job.check(v, result, out)
                except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                    v.broken.append(f"unreadable output: {type(exc).__name__}: {exc}")
                self.first[job.name] = (code, digest, list(v.failed))
                self.values.update(v.values)
            else:
                first_code, first_digest, first_failed = self.first[job.name]
                v.require((code, digest) == (first_code, first_digest),
                          "outputs are not byte-identical to the first run")
                v.failed.extend(first_failed)
            if job.cli and code != 0:
                v.failed.insert(0, f"exit {code}")
        if v.failed or v.broken:
            self.notes.setdefault(job.name, captured.getvalue().strip())
        return Record(job.name, job.kind, seconds, v.failed, v.broken), out


def median_of(records, kind) -> float:
    times = [r.seconds for r in records if r.kind == kind]
    return statistics.median(times) if times else 0.0


def job_tail(records):
    """(seconds, percentile) of the highest nearest-rank percentile with at
    least ten jobs beyond it, or (0, 0) when there are fewer than 20 jobs."""
    times = sorted(r.seconds for r in records)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(pct / 100.0 * len(times)))
        if len(times) - rank >= 10:
            return times[rank - 1], pct
    return 0.0, 0.0


def job_metrics(records) -> dict:
    """Figures of individual jobs that only some workloads have."""
    tail_s, tail_pct = job_tail(records)
    failed = sum(1 for r in records if r.failed or r.broken)
    return {
        "construct_p50_s": (median_of(records, "construct"), "s"),
        "export_p50_s": (median_of(records, "export"), "s"),
        "group_p50_s": (median_of(records, "group"), "s"),
        "job_tail_s": (tail_s, "s"),
        "job_tail_pct": (tail_pct, "%"),
        "jobs": (len(records), "count"),
        "fail_ratio": (failed / len(records), "1"),
    }


def last_level_cache() -> str:
    """Size of the highest-level CPU cache, as sysfs reports it ("32768K")."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, "unknown")
    try:
        for entry in (e for e in os.listdir(base) if e.startswith("index")):
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as f:
                level = int(f.read())
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as f:
                best = max(best, (level, f.read().strip()))
    except (OSError, ValueError):
        pass
    return best[1]


def environment(workload) -> dict:
    import numpy as np
    import spaceform
    from workloads import API_LARGEST_ARRAY

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_threads": PINNED_THREADS,
        "spaceform": spaceform.__version__,
        "last_level_cache": last_level_cache(),
        "api801_largest_array_mib": API_LARGEST_ARRAY / 2**20,
    }


def end_to_end(walls, records, values, setup_s) -> dict:
    def golden(name):
        return values.get(name, 0.0)

    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "check_p50_s": (median_of(records, "check"), "s"),
        "twistor_p50_s": (median_of(records, "twistor"), "s"),
        "reconstruct_p50_s": (median_of(records, "reconstruct"), "s"),
        "gcr_max": (golden("gcr_max"), "1"),
        "lax_max": (golden("lax_max"), "1"),
        "frame_drift": (golden("frame_drift"), "1"),
    }


def per_layer(spans, passes, job_seconds, untraced_walls, traced_walls, records) -> dict:
    import tracing

    out = {}
    for name, (value, unit) in tracing.layer_metrics(spans).items():
        per_pass = unit in ("s", "count")
        out[name] = (value / passes if per_pass else value, unit)
    own = tracing.module_self_time(spans)
    for module in MODULES:
        out[f"{module}.share"] = (own.get(module, 0.0) / job_seconds, "1")
    out["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0, "1")
    out.update(job_metrics(records))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_s = import_program()
    import tracing
    from workloads import WORKLOADS

    build = WORKLOADS[args.workload]
    env = environment(args.workload)
    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup = []
        jobs = None
        for k in range(SETUP_REPEATS):
            # a fresh directory each time: rewriting a file in place makes
            # ext4 flush it, and a flushed file is slow to delete later
            jobs = None                 # drop the previous inputs before rebuilding
            rep = os.path.join(work, f"setup{k}")
            t0 = time.perf_counter()
            jobs = build(args.seed, rep)
            setup.append(time.perf_counter() - t0)
            if k:
                shutil.rmtree(os.path.join(work, f"setup{k - 1}"), ignore_errors=True)
        setup_s = import_s + statistics.median(setup)

        runner = Runner(jobs, rep)
        if args.trace:
            walls, records = runner.run(args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_walls, _ = runner.run(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer.spans, len(traced_walls), sum(traced_walls),
                                walls, traced_walls, records)
            spans_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans_path, {"environment": env, "seed": args.seed,
                                      "passes": len(traced_walls)})
            print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
            passes = len(walls) + len(traced_walls)
        else:
            walls, records = runner.run(args.seconds)
            metrics = end_to_end(walls, records, runner.values, setup_s)
            passes = len(walls)
            for name, (value, unit) in job_metrics(records).items():
                print(f"  {name:<18} {value:.6g} {unit}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = runner.records
    failed = [r for r in records if r.failed or r.broken]
    broken = [r for r in records if r.broken]
    missing = [k for k in ("gcr_max", "lax_max", "frame_drift") if k not in runner.values]
    print(f"{args.workload} seed {args.seed}: {passes} passes, {len(records)} jobs, "
          f"{len(failed)} failed, {len(broken)} with wrong output")
    for name in sorted({r.name for r in failed}):
        first = next(r for r in failed if r.name == name)
        count = sum(1 for r in failed if r.name == name)
        print(f"  failed x{count} {name}: {'; '.join(first.broken + first.failed)}")
        note = runner.notes.get(name, "")
        for line in note.splitlines()[-3:]:
            print(f"    | {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:.6g} {unit}")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not broken and not missing,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
