"""gowersim benchmark: seeded job lists run through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job of the workload (see workloads.py) is one fresh `gowersim` process.
Jobs run one after another -- a closed loop with one client and no
concurrency, as a user runs a command and waits for its JSON.  Whole passes
over the job list repeat until S seconds have been measured (at least one
pass, more for workloads in MIN_PASSES).  Wall time is taken from spawn to
reap and peak RSS from `os.wait4`.  `wall_s` is the sum over jobs of each
job's median wall time across passes, `job_max_s` the largest such median.
Children run with OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1.

After the timed passes, every output of the first pass is checked against a
value the benchmark computes itself; later passes must reproduce its stdout
byte for byte (all jobs run with --deterministic).

--trace 1 adds one pass through perfbench/tracing.py, which records spans at
every module boundary; its per-layer metrics replace the end-to-end ones, and
`trace.overhead_s` is that pass's wall time minus the untraced median.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  `failed` counts job executions that exited non-zero or failed
their check; `correct` is false only when some output was wrong or not
reproduced, so a job refused with exit 3 is failed but not incorrect.  A report with the environment record, per-job times, stdout
digests and check results is written to perfbench-out/.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
}
CLI = (sys.executable, "-c", "from gowersim.cli import run; run()")
TRACED_CLI = (sys.executable, str(Path(__file__).resolve().parent / "tracing.py"))
SETUP_REPEATS = 9
JOB_TIMEOUT_S = 150


@dataclass
class Execution:
    wall_s: float
    peak_rss_mb: float
    exit: int
    stdout: bytes
    stderr: bytes

    @functools.cached_property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def spawn(argv: list[str]) -> Execution:
    """Run one child to completion; time it and read its peak RSS as it is reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    lock, reaped = threading.Lock(), []

    def kill() -> None:  # on timeout; never signals a pid that was already reaped
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

    killer = threading.Timer(JOB_TIMEOUT_S, kill)
    killer.start()
    stderr: list[bytes] = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    reader.start()
    stdout = proc.stdout.read()
    reader.join()
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
    with lock:
        reaped.append(True)
    killer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Execution(wall, usage.ru_maxrss / 1024, proc.returncode, stdout, stderr[0])


def setup_seconds() -> list[float]:
    """Interpreter start plus `import gowersim.cli`, the cost every job pays."""
    argv = [sys.executable, "-c", "import gowersim.cli"]
    if spawn(argv).exit != 0:  # also fills __pycache__ before timing
        raise SystemExit("error: cannot import gowersim.cli from src/")
    return [spawn(argv).wall_s for _ in range(SETUP_REPEATS)]


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    meminfo = Path("/proc/meminfo").read_text().splitlines()
    mem_kb = next(int(line.split()[1]) for line in meminfo if line.startswith("MemTotal:"))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024,
        "workload_seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "src_sha256": digest.hexdigest(),
        "child_threads": {k: CHILD_ENV[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "loop": "closed, one client, jobs never overlap",
    }


def short_args(args: tuple[str, ...]) -> list[str]:
    return [a if len(a) <= 80 else f"<{len(a)} chars sha256:{hashlib.sha256(a.encode()).hexdigest()[:16]}>"
            for a in args]


def timed_passes(argv: list[list[str]], seconds: float, min_passes: int) -> list[list[Execution]]:
    """Whole passes over the job list, one job at a time, until `seconds` have passed."""
    passes: list[list[Execution]] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append([spawn(a) for a in argv])
    return passes


def check_job(job, runs: list[Execution]) -> dict:
    """Check the first run's output; later runs must reproduce it byte for byte."""
    first = runs[0]
    problems = []
    if first.exit == 0:
        try:
            problems = list(job.check(first.stdout.decode()))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"output unreadable: {exc!r}"]
    mismatched = sum(r.digest != first.digest for r in runs)
    if mismatched:
        problems.append(f"stdout differs between passes in {mismatched} run(s)")
    return {
        "name": job.name,
        "args": short_args(job.args),
        "exit": [r.exit for r in runs],
        "wall_s": [r.wall_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "stdout_sha256": first.digest,
        "stderr": first.stderr.decode(errors="replace")[-300:],
        "problems": problems,
        "failed": sum(r.exit != 0 or bool(problems) for r in runs),
        "reference": job.reference,
    }


def traced_pass(jobs, trace_dir: Path) -> tuple[list[Execution], list[dict]]:
    """One pass through the traced launcher; returns its executions and trace files."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    runs, traces = [], []
    for job in jobs:
        path = trace_dir / f"{job.name}.json"
        path.unlink(missing_ok=True)
        runs.append(spawn([*TRACED_CLI, str(path), *job.args, "--deterministic"]))
        traces.append(json.loads(path.read_text()) if path.is_file() else
                      {"spans": [], "counters": {}})
    return runs, traces


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    if not (SRC / "gowersim" / "cli.py").is_file():
        print(f"error: no gowersim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import MIN_PASSES, WORKLOADS
    from tracing import aggregate

    if opts.workload not in WORKLOADS:
        parser.error(f"unknown workload {opts.workload!r}; choose from {sorted(WORKLOADS)}")
    jobs = WORKLOADS[opts.workload](opts.seed)
    argv = [[*CLI, *job.args, "--deterministic"] for job in jobs]

    setup = setup_seconds()
    passes = timed_passes(argv, opts.seconds, MIN_PASSES.get(opts.workload, 1))
    records = [check_job(job, list(runs)) for job, runs in zip(jobs, zip(*passes))]
    for record in records:
        status = "ok" if not record["failed"] else f"FAILED exit={record['exit']} {record['problems']}"
        print(f"{opts.workload} {record['name']}: {statistics.median(record['wall_s']):.3f} s "
              f"{max(record['peak_rss_mb']):.0f} MB {status}", file=sys.stderr)
    attempted = len(passes) * len(jobs)
    failed = sum(r["failed"] for r in records)
    correct = not any(r["problems"] for r in records)

    job_medians = [statistics.median(r["wall_s"]) for r in records]
    end_to_end = {
        "wall_s": sum(job_medians),
        "job_max_s": max(job_medians),
        "peak_rss_mb": max(max(r["peak_rss_mb"]) for r in records),
        "pass_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup),
    }
    report = {
        "workload": opts.workload,
        "environment": environment(opts.seed),
        "passes": len(passes),
        "pass_wall_s": [sum(r.wall_s for r in p) for p in passes],
        "setup_s": setup,
        "jobs": records,
        "end_to_end": end_to_end,
    }

    if opts.trace:
        trace_dir = OUT / "traces" / f"{opts.workload}-seed{opts.seed}"
        runs, traces = traced_pass(jobs, trace_dir)
        for run, record in zip(runs, records):
            same = run.digest == record["stdout_sha256"] and run.exit == record["exit"][0]
            correct = correct and same
            failed += run.exit != 0 or not same
        attempted += len(runs)
        layers = aggregate(traces, [r.wall_s for r in runs])
        layers["trace.overhead_s"] = sum(r.wall_s for r in runs) - end_to_end["wall_s"]
        report["per_layer_all"] = dict(sorted(layers.items()))
        values = {m["name"]: layers.get(m["name"], 0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    report_path.write_text(json.dumps(report, indent=1))
    print(f"report: {report_path.relative_to(ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
