"""Write ``digests.json``: the SHA-256 of exit code and report bytes of
every checked job in one pass of each workload at the default seed 0.

    python3 perfbench/pin_digests.py

The benchmark compares every job whose key is pinned here, so a change
that alters any of these reports by a single byte fails its runs.  Pin
again only when a report is meant to change.  Jobs that fail their
output check are not pinned, and the script exits 1 naming them.
"""

import json
import os
import shutil
import sys

import run

SEED = 0


def main():
    sys.path.insert(0, str(run.SRC))
    pinned, bad = {}, []
    for workload in run.mixes.WORKLOADS:
        work = run.ROOT / ".perfbench_work" / ("pin-%s-%d" % (
            workload, os.getpid()))
        try:
            _, jobs, file_digests = run.generate(workload, SEED, work)
            cwd = os.getcwd()
            os.chdir(str(work))
            try:
                for job in jobs:
                    if job.hostile:
                        continue
                    res = run.run_job(job)
                    key = run.job_key(job, file_digests)
                    why = run.judge(job, res, key, {})
                    if why is not None:
                        bad.append("%s: %s" % (key, why))
                        continue
                    pinned[key] = run.report_digest(res)
            finally:
                os.chdir(cwd)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for line in bad:
        print("not pinned: " + line, file=sys.stderr)
    out = run.HERE / "digests.json"
    out.write_text(json.dumps(pinned, sort_keys=True, indent=1) + "\n")
    print("%d digests written to %s" % (len(pinned), out))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
