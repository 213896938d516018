"""Record the result-document digests the checks expect for the default seed.

    python3 bench/record_expected.py [WORKLOAD ...]

Generates the default seed's jobs exactly as run.py does (warm-up stream
first, then the main stream), runs each through cli.main, refuses to record
unless every document passes the seed-independent checks, and writes
expected/<workload>.json: the list of the first 16 hex digits of each
document's SHA-256, in job order.  Only rerun it when a change is meant to alter
result documents.
"""

import json
import os
import shutil
import sys

import run
from workloads import WORKLOADS

# More than twice the jobs the seed commit completes in a 30-second run.
RECORD_JOBS = {"uct-ladder": 600, "ring-modules": 600, "small-jobs": 10000}


def record(workload: str) -> None:
    rundir = os.path.join(run.WORK, f"record-{workload}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        run.Jobs(workload, run.DEFAULT_SEED, "warmup", rundir, run.WARMUP_JOBS[workload]).generate()
        jobs = run.Jobs(workload, run.DEFAULT_SEED, "main", rundir, RECORD_JOBS[workload])
        jobs.generate()
        sys.path.insert(0, run.SRC)
        from homkit import cli

        digests = []
        for i in range(jobs.count):
            job = jobs.load(i)
            _, _, ok, raw = run.run_job(cli, job)
            problems = run.check_job(job, raw, [], i) if ok else ["job failed"]
            if problems:
                raise SystemExit(f"{workload} job {i} {job['argv']}: {problems}")
            digests.append(run.checks.document_digest(raw))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    with open(os.path.join(run.BENCH, "expected", f"{workload}.json"), "w",
              encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(d) for d in digests) + "\n]\n")


if __name__ == "__main__":
    import signal
    signal.signal(signal.SIGALRM, run._alarm)
    for name in sys.argv[1:] or WORKLOADS:
        record(name)
