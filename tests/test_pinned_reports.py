"""Every job of one pass of each benchmark mix at seed 0 must still pass
its output check, and every report pinned in ``perfbench/digests.json``
must keep its bytes; a hostile job must end with exit 2 and no
traceback.  The jobs run in process, as ``perfbench/run.py`` runs them."""

import importlib.util
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("workload", ["chiral-desk", "brst-reduction",
                                      "equivariant-smith"])
def test_seed_zero_reports_keep_their_bytes(bench, workload, tmp_path,
                                            monkeypatch):
    work = tmp_path / "work"
    _, jobs, file_digests = bench.generate(workload, 0, work)
    pinned = bench.load_pinned()
    monkeypatch.chdir(work)
    failures = []
    for job in jobs:
        res = bench.run_job(job)
        key = bench.job_key(job, file_digests)
        why = bench.judge(job, res, key, pinned)
        if why is not None:
            failures.append("%s: %s" % (key, why))
    assert not failures, failures
