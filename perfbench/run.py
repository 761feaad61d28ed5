"""opelab benchmark: seeded CLI job mixes timed end to end, plus a traced
pass for per-layer numbers.

    python3 perfbench/run.py --workload chiral-desk --seed 0 --trace 0

Run it from the repository root (or anywhere: paths are taken relative
to this file).  It imports ``opelab`` from ``src/`` of the same checkout.

One workload is one process with one client in a closed loop: each job
is a call of ``opelab.cli.main(argv)`` with stdout and stderr captured,
and the next job starts when the previous one returns.  Every job builds
its own objects, so the envelope caches start cold as they do for a
command-line user.  The job mix of one pass comes from ``mixes.py``; a
run makes ``round(seconds / PASS_SECONDS[workload])`` passes (at least
one), so a run holds a fixed number of jobs of each kind and lasts about
``--seconds`` on the machine the constants were measured on (2-core x86
container, Python 3.11).

Every job's output is checked (``checks.py``), and reports whose digest
is pinned in ``digests.json`` (the default seed 0) must match byte for
byte.  Hostile inputs in ``chiral-desk`` are timed like every job but
count toward ``refusal_fail_frac`` instead of ``failed_frac``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes that record spans at module boundaries
(``layers.py``), adds one pass under cProfile, and prints the per-layer
metrics, all per pass.  The last line of stdout is the JSON result; the
lines before it give every metric by name with its unit, the failure
shares, and describe the machine and the mix.
"""

import argparse
import collections
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import mixes   # noqa: E402

# measured length of one pass of each mix, in seconds
PASS_SECONDS = {"chiral-desk": 2.7, "brst-reduction": 7.5,
                "equivariant-smith": 2.3}
SETUP_REPEATS = 7
TAIL_BEYOND = 10
TRACE_PAIRS = 2

E2E_UNITS = {"setup_s": "s", "job_p50_s": "s", "job_tail_s": "s",
             "jobs_per_s": "1/s", "peak_rss_mib": "MiB"}
LAYER_UNITS = {"trace.overhead_ratio": "ratio", "trace.job_s": "s",
               "trace.self_sum_s": "s",
               "scalars.calls": "count", "scalars.self_share": "ratio",
               "fractions.calls": "count", "fractions.self_share": "ratio"}
LAYER_UNITS.update({b + "_s": "s" for b in layers.SPANS})
LAYER_UNITS.update({c: "count" for c in layers.COUNTS})


# -- set-up ------------------------------------------------------------------

IMPORT_PROBE = ("import time\n"
                "t = time.perf_counter()\n"
                "import opelab.cli\n"
                "print(time.perf_counter() - t)\n")


def import_seconds():
    """Time of ``import opelab.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=str(ROOT), capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def generate(workload, seed, work):
    """Build the mix and write its input files; returns (seconds, jobs,
    {file name: sha256 of its bytes})."""
    start = perf_counter()
    jobs, files = mixes.build(workload, seed)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    digests = {}
    for name, data in files.items():
        blob = json.dumps(data, sort_keys=True, indent=2).encode()
        (work / name).write_bytes(blob)
        digests[name] = hashlib.sha256(blob).hexdigest()
    return perf_counter() - start, jobs, digests


def setup(workload, seed, work):
    """Median over SETUP_REPEATS of (import time + input generation)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        gen_s, jobs, file_digests = generate(workload, seed, work)
        samples.append(import_seconds() + gen_s)
    return statistics.median(samples), jobs, file_digests


# -- running jobs ------------------------------------------------------------

class Outcome:
    __slots__ = ("seconds", "code", "stdout", "stderr", "raised")


def run_job(job):
    import opelab.cli
    out, err = io.StringIO(), io.StringIO()
    res = Outcome()
    res.raised = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            res.code = opelab.cli.main(job.argv)
    except SystemExit as e:
        res.code = e.code if isinstance(e.code, int) else 1
    except Exception:
        res.code = None
        res.raised = traceback.format_exc()
    res.seconds = perf_counter() - start
    res.stdout, res.stderr = out.getvalue(), err.getvalue()
    return res


def job_key(job, file_digests):
    """The argv, with each input file name followed by its content hash."""
    return " ".join("%s@%s" % (a, file_digests[a][:16])
                    if a in file_digests else a for a in job.argv)


def report_digest(res):
    return hashlib.sha256(b"%d\n" % res.code
                          + res.stdout.encode()).hexdigest()


def judge(job, res, key, pinned):
    """None if the job did what it must, else a reason."""
    if job.hostile:
        if res.raised is not None or "Traceback" in res.stderr:
            return "traceback"
        if res.code != 2:
            return "exit %r, expected 2" % res.code
        return None
    if res.raised is not None:
        return "raised: %s" % res.raised.strip().splitlines()[-1]
    try:
        report = json.loads(res.stdout)
    except ValueError:
        return "stdout is not one JSON report"
    why = job.check(res.code, report)
    if why is None and key in pinned and pinned[key] != report_digest(res):
        why = "report bytes differ from the pinned digest"
    return why


class Tally:
    def __init__(self):
        self.passes = []
        self.attempted = self.failed = 0
        self.hostile = self.refusal_failed = 0
        self.first_failures = []

    @property
    def times(self):
        return [t for one in self.passes for t in one]

    def merge_failures(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.first_failures.extend(other.first_failures)

    def add(self, job, res, why):
        self.passes[-1].append(res.seconds)
        if job.hostile:
            self.hostile += 1
            self.refusal_failed += why is not None
            return
        self.attempted += 1
        if why is not None:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append("%s: %s" % (" ".join(job.argv),
                                                       why))


def run_passes(jobs, file_digests, pinned, passes, work, tally,
               before_job=None, stop_after=None):
    """Run the jobs ``passes`` times, but start no new pass once
    ``stop_after`` seconds have gone by, so a run on a much slower
    machine still ends in time."""
    cwd = os.getcwd()
    os.chdir(str(work))
    loop_start = perf_counter()
    try:
        for p in range(passes):
            if p and stop_after is not None and \
                    perf_counter() - loop_start > stop_after:
                break
            tally.passes.append([])
            for job in jobs:
                if before_job is not None:
                    before_job()
                gc.collect()  # the last job's garbage, outside the timing
                res = run_job(job)
                key = job_key(job, file_digests)
                tally.add(job, res, judge(job, res, key, pinned))
    finally:
        os.chdir(cwd)


def load_pinned():
    return json.loads((HERE / "digests.json").read_text())


# -- metrics -----------------------------------------------------------------

def tail(times):
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tally, setup_s):
    """Every pass runs the same jobs in the same order, so each job has
    one wall time per pass; its time is the median of those.  The metrics
    are taken over these job times, each job counted once per pass.

    The median over passes matters on a shared machine: on the one this
    was tuned on, speed swings by 20-30% in stretches of 5-40 seconds
    (process time swings with it, so it is throughput lost to neighbours,
    not waiting), and a job's median follows the state the machine was
    in for most of the run."""
    per_job = [statistics.median(times) for times in zip(*tally.passes)]
    every = per_job * len(tally.passes)
    value, pct = tail(every)
    metrics = {"setup_s": setup_s,
               "job_p50_s": statistics.median(per_job),
               "job_tail_s": value,
               "jobs_per_s": len(per_job) / sum(per_job),
               "peak_rss_mib": peak_rss_mib()}
    notes = ["job_tail_s is p%.2f over %d jobs (%d passes of %d)"
             % (pct, len(every), len(tally.passes), len(per_job))]
    return metrics, notes


def per_layer(jobs, file_digests, pinned, work, tally):
    """TRACE_PAIRS rounds of one untraced and one traced pass, then one
    pass under cProfile.  The traced passes give the span self times (a
    mean per pass) and the counts, which must repeat exactly from pass to
    pass; the untraced ones give the tracing overhead.  Self times must
    account for the traced job time up to the harness's per-job cost."""
    untraced, profiled = Tally(), Tally()
    tracers = []
    for _ in range(TRACE_PAIRS):
        run_passes(jobs, file_digests, pinned, 1, work, untraced)
        tracer = layers.Tracer()

        def next_job(tracer=tracer):
            tracer.job += 1

        tracer.install()
        try:
            run_passes(jobs, file_digests, pinned, 1, work, tally, next_job)
        finally:
            tracer.remove()
        tracers.append(tracer)
    shares = layers.profile_shares(lambda: run_passes(
        jobs, file_digests, pinned, 1, work, profiled))
    tally.merge_failures(untraced)
    tally.merge_failures(profiled)

    counts = tracers[0].counts
    if any(t.counts != counts for t in tracers):
        tally.failed += 1
        tally.first_failures.append("span counts differ between passes")
    self_times = {b: statistics.mean(t.self_times()[b] for t in tracers)
                  for b in layers.SPANS}
    metrics = {bucket + "_s": s for bucket, s in self_times.items()}
    metrics.update(counts)
    metrics.update(shares)
    metrics["trace.job_s"] = sum(tally.times) / len(tally.passes)
    metrics["trace.self_sum_s"] = sum(self_times.values())
    metrics["trace.overhead_ratio"] = sum(tally.times) / sum(untraced.times)
    covered = metrics["trace.self_sum_s"] / metrics["trace.job_s"]
    if not 0.95 <= covered <= 1.0:
        tally.failed += 1
        tally.first_failures.append(
            "layer self times cover %.4f of traced job time" % covered)
    return metrics, ["layer self times cover %.5f of traced job time"
                     % covered]


# -- machine and mix record --------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(workload, seed, jobs, load):
    verbs = collections.Counter(job.verb for job in jobs)
    shares = " ".join("%s=%.3f" % (v, n / len(jobs))
                      for v, n in sorted(verbs.items()))
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return ["workload %s" % workload, "seed %d" % seed,
            "jobs_per_pass %d" % len(jobs),
            "verb_share %s" % shares,
            "hostile_per_pass %d" % sum(j.hostile for j in jobs),
            "nproc %s" % nproc,
            "python %s" % platform.python_version(),
            "cpu %s" % cpu_model(),
            "loadavg_at_start %.2f %.2f %.2f" % load]


# -- entry -------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=mixes.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "opelab" / "cli.py").is_file():
        print("error: no opelab sources under %s" % SRC, file=sys.stderr)
        return 2
    load = os.getloadavg()
    work = ROOT / ".perfbench_work" / ("%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    try:
        setup_s, jobs, file_digests = setup(args.workload, args.seed, work)
        sys.path.insert(0, str(SRC))
        import opelab.cli  # noqa: F401
        pinned = load_pinned()
        tally = Tally()
        if args.trace:
            metrics, notes = per_layer(jobs, file_digests, pinned, work,
                                       tally)
            units = LAYER_UNITS
        else:
            passes = max(1, round(args.seconds
                                  / PASS_SECONDS[args.workload]))
            run_passes(jobs, file_digests, pinned, passes, work, tally,
                       stop_after=2 * args.seconds)
            metrics, notes = end_to_end(tally, setup_s)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = record(args.workload, args.seed, jobs, load)
    lines.append("failed_frac %.6f ratio (%d of %d checked jobs)" % (
        tally.failed / max(tally.attempted, 1), tally.failed,
        tally.attempted))
    if tally.hostile:
        lines.append("refusal_fail_frac %.6f ratio (%d of %d hostile inputs)"
                     % (tally.refusal_failed / tally.hostile,
                        tally.refusal_failed, tally.hostile))
    else:
        lines.append("refusal_fail_frac n/a (no hostile inputs)")
    lines.extend(notes)
    lines.extend("failure %s" % f for f in tally.first_failures)
    for name in sorted(metrics):
        lines.append("%s %r %s" % (name, metrics[name], units[name]))
    print("\n".join(lines))
    result = {"correct": tally.failed == 0,
              "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in sorted(metrics)}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
