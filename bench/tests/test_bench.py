"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import filecmp
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import KINDS, WORKLOADS, write_jobs  # noqa: E402

from homkit import cli, intlinalg  # noqa: E402


def _tree(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_writes_identical_inputs(tmp_path, workload):
    count = len(KINDS[workload])
    for name in ("one", "two", "other"):
        os.makedirs(tmp_path / name)
        write_jobs(workload, 7 if name != "other" else 8, "main", 0, count, str(tmp_path / name))
    one, two = tmp_path / "one", tmp_path / "two"
    assert _tree(one) == _tree(two)
    _, mismatch, errors = filecmp.cmpfiles(one, two, _tree(one), shallow=False)
    assert mismatch == [] and errors == []
    _, mismatch, _ = filecmp.cmpfiles(one, tmp_path / "other", _tree(one), shallow=False)
    assert mismatch, "a different seed should give different inputs"


def _run_small_jobs(tmp_path, count, tracer=None):
    """Generate and run the first `count` small-jobs jobs; return (jobs, documents)."""
    os.makedirs(tmp_path, exist_ok=True)
    write_jobs("small-jobs", 3, "main", 0, count, str(tmp_path))
    jobs = run.Jobs("small-jobs", 3, "main", str(tmp_path), count)
    loaded, docs = [], []
    for i in range(count):
        job = jobs.load(i)
        if tracer:
            tracer.begin_job(i)
            tracer.install()
        try:
            _, _, ok, raw = run.run_job(cli, job)
        finally:
            if tracer:
                tracer.uninstall()
        assert ok, job["argv"]
        docs.append(raw)
        loaded.append(job)
    return loaded, docs


def test_checks_accept_results_and_reject_corruption(tmp_path):
    jobs, docs = _run_small_jobs(tmp_path, len(KINDS["small-jobs"]))
    for i, job in enumerate(jobs):
        assert run.check_job(job, docs[i], [], i) == [], job["argv"]

    def corrupt(i, change):
        doc = json.loads(docs[i])
        change(doc)
        raw = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        return run.check_job(jobs[i], raw, [], i)

    by_command = {job["argv"][0]: i for i, job in enumerate(jobs)}
    assert corrupt(by_command["homology"],
                   lambda d: d["result"]["even"]["torsion"].append("7"))
    assert corrupt(by_command["uct"], lambda d: d["result"]["middle"].update(rank=9))
    assert corrupt(by_command["snf"], lambda d: d["result"]["s"]["data"][0].__setitem__(0, "7"))
    assert corrupt(by_command["kunneth-check"], lambda d: d["result"].update(match=False))
    assert corrupt(by_command["pv"], lambda d: d.update(inputs_digest="0" * 64))
    i = by_command["hoclasses"]
    assert run.check_job(jobs[i], docs[i].replace(b"\n", b" "), [], i) == [
        "document is not in canonical form"]
    assert run.check_job(jobs[i], docs[i], ["0" * 16] * (i + 1), i)
    assert run.check_job(jobs[i], docs[i], [checks.document_digest(docs[i])] * (i + 1), i) == []


def test_tracing_leaves_documents_unchanged(tmp_path):
    count = 2 * len(KINDS["small-jobs"])
    _, plain = _run_small_jobs(tmp_path / "plain", count)
    tracer = Tracer()
    _, traced = _run_small_jobs(tmp_path / "traced", count, tracer)
    assert traced == plain
    assert cli.snf is intlinalg.snf and not hasattr(intlinalg.snf, "__wrapped__")
    assert tracer.missing == []
    metrics = tracer.summarize(count, 1.0, 0, 0)
    assert metrics["intlinalg.snf.calls"][0] > 0
    assert 0 < metrics["cli.main.self_s"][0] < 1.0
    assert set(tracer.job) == set(range(count))


def test_reference_scale_uses_the_samples_around_a_job():
    from calibrate import MIN_SAMPLES, NOMINAL_S, WINDOW_S, Reference

    ref = Reference()
    # A host at full speed for 10 s, then at half speed.
    ref.at = [0.1 * i for i in range(200)]
    ref.cpu = [NOMINAL_S if t < 10 else 2 * NOMINAL_S for t in ref.at]
    assert ref.scale(3.0, 3.5) == 1.0
    assert ref.scale(15.0, 15.2) == 0.5
    # Before the first sample, the nearest MIN_SAMPLES decide.
    assert ref.scale(-10 * WINDOW_S, -10 * WINDOW_S) == 1.0
    ref.at, ref.cpu = ref.at[:MIN_SAMPLES - 2], ref.cpu[:MIN_SAMPLES - 2]
    assert ref.scale(100.0, 100.0) == 1.0
