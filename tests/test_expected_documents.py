"""The first seed-0 benchmark documents, byte for byte.

bench/expected/<workload>.json holds the first 16 hex digits of the SHA-256
of each seed-0 result document, in job order.  Here the first jobs of three
workloads are generated as the benchmark generates them (its warm-up stream
first, since the main stream redraws any job that repeats one), run
through `cli.main` in this process, and compared with those digests, so a
document that drifts fails tier-1 and not only the benchmark's smoke run.
Generation runs in its own process without bytecode, and the jobs are
written under pytest's tmp_path: nothing under bench/ is written.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homkit import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Prints the CLI argument lists of the first `count` main-stream jobs,
# generated after the warm-up stream by bench/run.py's own Jobs.
_GENERATE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import run\n"
    "workload, count, rundir = sys.argv[2], int(sys.argv[3]), sys.argv[4]\n"
    "run.Jobs(workload, run.DEFAULT_SEED, 'warmup', rundir, run.WARMUP_JOBS[workload]).generate()\n"
    "jobs = run.Jobs(workload, run.DEFAULT_SEED, 'main', rundir, count)\n"
    "jobs.generate()\n"
    "print(json.dumps([jobs.load(i)['cli_argv'] for i in range(count)]))\n")


@pytest.mark.parametrize("workload, count", [("small-jobs", 45), ("ring-modules", 30),
                                             ("uct-ladder", 30)])
def test_first_seed_zero_documents_match_the_recorded_digests(tmp_path, workload, count):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-B", "-c", _GENERATE, str(BENCH), workload,
                           str(count), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    argvs = json.loads(proc.stdout)
    expected = json.loads((BENCH / "expected" / f"{workload}.json").read_text(encoding="utf-8"))
    assert len(argvs) == count <= len(expected)
    drifted = []
    for index, argv in enumerate(argvs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
        if code != 0 or digest != expected[index]:
            drifted.append((index, argv[0], code))
    assert not drifted, drifted
