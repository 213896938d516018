"""Seeded closed-loop benchmark of homkit jobs run through `homkit.cli.main`.

One client, one job at a time, in this process: each job is a CLI argument
list over freshly generated input files, timed from the call into
`cli.main` until it returns with the result document written to stdout
(captured in memory, so the filesystem's latency is not part of the job).
The times reported are CPU times at the reference speed of calibrate.py,
which the host's other tenants do not move; wall times are printed beside.
Each document is checked right after its job, outside the timed region
(see checks.py), and the metrics are printed, the last line being one JSON
object.

    python3 bench/run.py --workload uct-ladder --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, as a table

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced jobs (tracing.py) and reports the per-layer metrics instead,
plus trace.overhead_ratio, the traced over the untraced job rate.
Scratch files go to .bench_work/ under the checkout and are removed at the
end, except the span file of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
from calibrate import MIN_SAMPLES, Reference  # noqa: E402
from workloads import BLOCK, WHY, WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
WARMUP_JOBS = {"uct-ladder": 6, "ring-modules": 10, "small-jobs": 45}
# Jobs per generator call: about a tenth of a run, so a run generates few
# jobs it does not reach.
CHUNK_JOBS = {"uct-ladder": 24, "ring-modules": 30, "small-jobs": 300}
# A job in the resolution run-away regime (ROADMAP item 4) is cut here and
# counted as failed, so it cannot hang the run.
JOB_LIMIT_S = 20.0
# The host's speed drifts over seconds, so the set-up samples are spread
# over the timed loop (between jobs, outside the timed region).
SETUP_REPEATS = 7
# The loop runs until its jobs have taken --seconds of CPU time at the
# reference speed and then to the end of a block (workloads.BLOCK), so a
# run does the same jobs however busy the host is; on a host slowed more
# than this much, it stops at this many times --seconds of wall time
# instead.
WALL_CAP = 2.0


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; not an Exception, so cli.main's
    catch-all cannot turn it into an ordinary error document."""


def _alarm(_signum, _frame):
    raise JobTimeout


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_once(rundir: str) -> tuple[float, float, float]:
    """(start, end, CPU seconds) of a fresh `python -m homkit.cli homology`
    on a tiny complex: interpreter start, import, parser and one emit."""
    tiny = os.path.join(BENCH, "data", "tiny_complex.json")
    out = os.path.join(rundir, "setup.json")
    c0 = _children_cpu()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "homkit.cli", "--out", out, "homology", tiny],
                          env=_child_env(), cwd=ROOT, capture_output=True, timeout=60)
    t1 = time.perf_counter()
    cpu = _children_cpu() - c0
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh).get("result")
    if proc.returncode != 0 or result != {"even": {"rank": 0, "torsion": ["2"]},
                                          "odd": {"rank": 0, "torsion": []}}:
        raise RuntimeError(f"setup job failed: rc={proc.returncode} {proc.stderr[-500:]!r}")
    return t0, t1, cpu


class Jobs:
    """Generated jobs of one stream, written by a separate process in chunks."""

    def __init__(self, workload: str, seed: int, stream: str, rundir: str, chunk: int):
        self.workload, self.seed, self.stream = workload, seed, stream
        self.rundir, self.chunk = rundir, chunk
        self.dir = os.path.join(rundir, stream)
        self.count = 0
        self._manifest: tuple[int, list[str]] = (-1, [])

    def generate(self) -> None:
        subprocess.run([sys.executable, os.path.join(BENCH, "workloads.py"), self.workload,
                        str(self.seed), self.stream, str(self.count), str(self.chunk),
                        self.rundir], env=_child_env(), cwd=ROOT, check=True, timeout=170)
        self.count += self.chunk

    def load(self, index: int) -> dict:
        """Job `index`; only the manifest of its chunk is held in memory."""
        start = index - index % self.chunk
        if self._manifest[0] != start:
            with open(os.path.join(self.dir, f"{start}.jsonl"), encoding="utf-8") as fh:
                self._manifest = (start, fh.read().splitlines())
        job = json.loads(self._manifest[1][index - start])
        paths = {a[1:]: os.path.join(self.dir, f"{index}-{a[1:]}.json")
                 for a in job["argv"] if a.startswith("@")}
        job["paths"] = paths
        job["cli_argv"] = [paths[a[1:]] if a.startswith("@") else a for a in job["argv"]]
        return job


def run_job(cli, job: dict) -> tuple[float, float, bool, bytes]:
    """(wall seconds, CPU seconds, completed, document) for one call into
    cli.main."""
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    out = io.StringIO()
    rc = None
    c0 = time.thread_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(job["cli_argv"])
    except (JobTimeout, Exception):  # noqa: BLE001 - a crash is a failed job
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    t1 = time.perf_counter()
    cpu = time.thread_time() - c0
    return t1 - t0, cpu, rc == 0, out.getvalue().encode() if rc == 0 else b""


def check_job(job: dict, raw: bytes, expected: list[str], index: int) -> list[str]:
    names = [a[1:] for a in job["argv"] if a.startswith("@")]
    file_bytes, files = [], {}
    for name in names:
        with open(job["paths"][name], "rb") as fh:
            file_bytes.append(fh.read())
        files[name] = json.loads(file_bytes[-1])
    return checks.check_document(job["argv"], files, file_bytes, job["facts"], raw,
                                 expected[index] if index < len(expected) else None)


def harrell_davis(s: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of the sorted samples `s`: a
    Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics.  It
    varies less from run to run than a single order statistic, which jumps
    when the quantile falls between two clusters of job times."""
    n = len(s)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    steps = 8  # Simpson's rule on each interval [i/n, (i+1)/n]
    weights = []
    for i in range(n):
        h = 1.0 / (n * steps)
        xs = [(i + k / steps) / n for k in range(steps + 1)]
        ys = [density(x) for x in xs]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, s)) / total


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest of p90, p99 and
    p99.9 with at least ten samples beyond it (nearest rank), estimated by
    Harrell-Davis; the maximum if even p90 has fewer."""
    s = sorted(times)
    n = len(s)
    best = (s[-1], 100.0, 0)
    for p in (0.9, 0.99, 0.999):
        beyond = n - math.ceil(p * n)
        if beyond >= 10:
            best = (harrell_davis(s, p), 100.0 * p, beyond)
    return best


def homology_cache_stats() -> tuple[int, int]:
    """(hits, calls) summed over every lru_cache in homkit.percomplex."""
    from homkit import percomplex

    hits = calls = 0
    for value in vars(percomplex).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            hits += ci.hits
            calls += ci.hits + ci.misses
    return hits, calls


def load_expected(workload: str, seed: int) -> list[str]:
    """Digests of the default seed's result documents, by main-stream index."""
    if seed != DEFAULT_SEED:
        return []
    with open(os.path.join(BENCH, "expected", f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(WORK, exist_ok=True)
    rundir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        return _run(workload, seed, seconds, trace, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _run(workload: str, seed: int, seconds: float, trace: bool, rundir: str) -> dict:
    t_setup = time.perf_counter()
    setups = []  # (start, end, CPU seconds) of each set-up sample
    warm = Jobs(workload, seed, "warmup", rundir, WARMUP_JOBS[workload])
    warm.generate()
    main = Jobs(workload, seed, "main", rundir, CHUNK_JOBS[workload])
    main.generate()
    expected = load_expected(workload, seed)

    sys.path.insert(0, SRC)
    from homkit import cli

    signal.signal(signal.SIGALRM, _alarm)
    for i in range(warm.count):
        run_job(cli, warm.load(i))
    ref = Reference()
    for _ in range(MIN_SAMPLES):
        ref.sample()
    print(f"# set-up done in {time.perf_counter() - t_setup:.1f}s", file=sys.stderr)

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    records = []  # (start, wall seconds, CPU seconds, traced)
    failed = 0
    cache_hits = cache_calls = 0
    timed = 0.0  # wall seconds in jobs
    busy = 0.0  # CPU seconds in jobs at the reference speed, by the samples so far
    wall_end = time.perf_counter() + WALL_CAP * seconds
    index = 0
    while (busy < seconds or index % BLOCK[workload]) and time.perf_counter() < wall_end:
        if len(setups) <= SETUP_REPEATS * busy / seconds:
            setups.append(setup_once(rundir))
        if ref.due(time.perf_counter()):
            ref.sample()
        if index == main.count:
            main.generate()
        job = main.load(index)
        # Half the jobs are traced, picked by a multiplicative hash of the
        # index: plain parity would line up with the strata the generators
        # deal, and give the traced half a different mix.
        traced = tracer is not None and (index * 0x9E3779B1 >> 12) & 1 == 1
        if traced:
            tracer.begin_job(index)
            h0, c0 = homology_cache_stats()
            tracer.install()
        t0 = time.perf_counter()
        dt, cpu, ok, raw = run_job(cli, job)
        timed += time.perf_counter() - t0
        busy += cpu * ref.scale(t0, t0 + dt)
        if traced:
            tracer.uninstall()
            h1, c1 = homology_cache_stats()
            cache_hits += h1 - h0
            cache_calls += c1 - c0
        problems = check_job(job, raw, expected, index) if ok else ["job failed or timed out"]
        if problems:
            failed += 1
            print(f"# job {index} failed: {'; '.join(problems)[:500]}", file=sys.stderr)
        records.append((t0, dt, cpu, traced))
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once(rundir))
        ref.sample()
    for _ in range(MIN_SAMPLES):
        ref.sample()

    attempted = len(records)
    if tracer is None:
        # CPU times at the reference speed (calibrate.py); the wall times
        # are printed beside them.
        times = [cpu * ref.scale(t0, t0 + dt) for t0, dt, cpu, _ in records]
        setup_times = [cpu * ref.scale(t0, t1) for t0, t1, cpu in setups]
        wall = [dt for _, dt, _, _ in records]
        tail_s, pct, beyond = tail(times)
        metrics = {
            "job_p50_s": (harrell_davis(sorted(times), 0.5), "s"),
            "job_tail_s": (tail_s, "s"),
            "jobs_per_s": (attempted / sum(times), "jobs/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes = {"job_tail_s.percentile": pct, "job_tail_s.beyond": beyond,
                 "job_tail_s.samples": attempted, "fail_ratio": failed / attempted,
                 "wall.job_p50_s": harrell_davis(sorted(wall), 0.5),
                 "wall.job_tail_s": tail(wall)[0],
                 "wall.jobs_per_s": attempted / timed,
                 "wall.setup_s": statistics.median(t1 - t0 for t0, t1, _ in setups),
                 "reference.median_s": statistics.median(ref.cpu),
                 "reference.samples": len(ref.cpu)}
    else:
        traced_t = [dt for _, dt, _, tr in records if tr]
        plain_t = [dt for _, dt, _, tr in records if not tr]
        metrics = tracer.summarize(len(traced_t), sum(traced_t), cache_hits, cache_calls)
        rates = [len(t) / sum(t) if t else 0.0 for t in (traced_t, plain_t)]
        metrics["trace.overhead_ratio"] = (rates[0] / rates[1] if rates[1] else 0.0, "ratio")
        spans = os.path.join(WORK, "traces")
        os.makedirs(spans, exist_ok=True)
        tracer.write(os.path.join(spans, f"{workload}-seed{seed}.spans.json.gz"))
        notes = {"traced_jobs": len(traced_t), "spans": len(tracer.name),
                 "fail_ratio": failed / attempted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "notes": notes}


def print_result(workload: str, result: dict) -> None:
    print(f"# {workload}: {WHY[workload]}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, value in result["notes"].items():
        print(f"{name} {value:.6g}")
    out = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(out, sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    status = 0
    summary = {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        summary[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": summary}, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the finally blocks remove the run's scratch files,
    # and subprocess.run kills and reaps a generator still running.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "homkit", "cli.py")):
        print(f"homkit sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
