"""Benchmark of the ybe CLI: seeded workloads of real CLI jobs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

One process per run, one client, a closed loop: the jobs of a round run
one after another in this process through ``ybe.cli.main(argv)``, with
no threads, and rounds of the same jobs repeat until the next one would
end more than ``--seconds`` after the process started. Every job's exit
code and output are checked after its round, outside the timed
interval; a job that passes its time limit counts as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
the median over rounds of a round's wall and CPU time, the median set-up
time of several fresh processes, and the peak resident memory. The three
times are given at reference speed, so that the host's changing speed
cancels out: a fixed pure-Python loop (``reference``) runs while they
are measured, and each time is scaled by how long the loop took against
its nominal time REF_S. With ``--trace 1`` each round runs twice,
untraced and then traced, and the line reports the per-layer metrics of
layertrace.py (medians over rounds, in plain seconds). ``--workload
all`` runs every workload, each in its own process, and prints their
end-to-end metrics. DESIGN.md explains the workloads and the scaling.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layertrace import METRICS as LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
WORK = workloads.ROOT / ".perfbench_work"
SETUP_REPEATS = 11
DEADLINE_S = 150  # a run must end within 180 s; no job runs past this
REF_POINTS = 12
REF_S = 0.0015  # the reference loop's time at reference speed
PROBE_EVERY_S = 0.05  # CPU seconds between two reference loops in a round
SETUP_PROBE = 50  # reference loops run between two set-up spawns

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; a BaseException so that the CLI's
    own ``except ValueError`` handlers cannot swallow it."""


def _alarm(signum, frame):
    raise JobTimeout


def _braid(sigma, gamma, x, y):
    return sigma[x][y], gamma[y][x]


_REF_SIGMA = (tuple((y + 1) % REF_POINTS for y in range(REF_POINTS)),) * REF_POINTS
_REF_GAMMA = (tuple((x - 1) % REF_POINTS for x in range(REF_POINTS)),) * REF_POINTS


def reference(repeats=1):
    """Time a fixed pure-Python loop, independent of the program: the
    braid check of the cyclic solution on REF_POINTS points, written the
    way the program's own table checks are, ``repeats`` times. Returns
    its wall time in seconds."""
    s, g, n = _REF_SIGMA, _REF_GAMMA, range(REF_POINTS)
    t0 = time.perf_counter()
    ok = 0
    for _ in range(repeats):
        for x in n:
            for y in n:
                for z in n:
                    a, b = _braid(s, g, x, y)
                    b2, c = _braid(s, g, b, z)
                    a2, b3 = _braid(s, g, a, b2)
                    b4, c2 = _braid(s, g, y, z)
                    a3, b5 = _braid(s, g, x, b4)
                    b6, c3 = _braid(s, g, b5, c2)
                    ok += (a2, b3, c) == (a3, b6, c3)
    wall = time.perf_counter() - t0
    assert ok == repeats * REF_POINTS**3, "the reference loop miscounted"
    return wall


class SpeedProbe:
    """Samples the host's speed through a timed interval. The host's
    speed for this code swings by up to 2x within seconds, so a loop
    timed next to a round would not see the speed the round ran at;
    instead a SIGPROF handler runs the reference loop once every
    PROBE_EVERY_S of CPU time inside the interval and adds up its wall
    time. (While the timer runs, the process CPU clock only advances at
    scheduler ticks, too coarse to time one loop; the loop never waits,
    so its wall time is its CPU time.)"""

    def __enter__(self):
        self.wall = 0.0
        self.count = 0
        self._busy = False
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _probe(self, signum, frame):
        if self._busy:  # a tick that lands inside the loop itself
            return
        self._busy = True
        try:
            self.wall += reference()
            self.count += 1
        finally:
            self._busy = False

    def scale(self, wall, cpu):
        """The interval's (wall, CPU) seconds, less the probes' own time,
        at reference speed."""
        if not self.count:
            raise RuntimeError("interval too short to sample the host's speed")
        factor = self.count * REF_S / self.wall
        return (wall - self.wall) * factor, (cpu - self.wall) * factor


def run_job(job, limit_s):
    """Run one job in process. Returns (exit code, stdout); the exit code
    is None when the job passed ``limit_s`` seconds, and the exception's
    name when the program raised."""
    if limit_s <= 0:
        return None, ""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = workloads.ybe.cli.main(list(job.argv))
    except JobTimeout:
        code = None
    except SystemExit as e:  # argparse rejects its arguments
        code = e.code
    except Exception as e:  # a crash is a failed job, not a failed run
        code = f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue()


def run_round(jobs, deadline, tracer=None, probe=None):
    """Run the jobs in order; return (wall s, CPU s, failure reasons).
    The times span the first job's start to the last job's end; with a
    ``probe`` they are scaled to reference speed."""
    results = []
    for job in jobs:
        for path in job.outputs:
            path.unlink(missing_ok=True)
    traced = tracer.installed(workloads.ybe) if tracer else contextlib.nullcontext()
    t0, c0 = time.perf_counter(), time.process_time()
    with traced, probe or contextlib.nullcontext():
        for job in jobs:
            results.append(run_job(job, min(job.limit_s, deadline - time.monotonic())))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if probe:
        wall, cpu = probe.scale(wall, cpu)
    failures = []
    for job, (code, stdout) in zip(jobs, results):
        reason = "time limit passed" if code is None else job.check(code, stdout)
        if reason is not None:
            failures.append(f"ybe {' '.join(job.argv)}: {reason}")
    return wall, cpu, failures


def time_setup(workload, seed, workdir):
    """Median time, at reference speed, from spawning a fresh process
    until it has imported the program and written the seeded inputs
    (perfbench/prepare.py). The reference loop runs SETUP_PROBE times
    between the spawns; each spawn is scaled by the runs next to it."""
    times = []
    before = reference(SETUP_PROBE)
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), workload, str(seed), str(workdir)],
            check=True, timeout=60, capture_output=True, text=True,
        )
        spawn = float(proc.stdout) - t0
        after = reference(SETUP_PROBE)
        times.append(spawn * SETUP_PROBE * REF_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


def measure(jobs, seconds, trace, deadline, start):
    """Run rounds of ``jobs`` until the next would end more than
    ``seconds`` after ``start``; at least one."""
    walls, cpus, speeds, layers, failures = [], [], [], [], []
    attempted = 0
    spent = []
    tracer = Tracer() if trace else None
    while True:
        t0 = time.perf_counter()
        if trace:
            wall, _, failed = run_round(jobs, deadline)
            tracer.reset()
            traced_wall, _, traced_failed = run_round(jobs, deadline, tracer)
            layers.append(tracer.metrics(traced_wall, wall))
            attempted += len(jobs)
            failed += traced_failed
        else:
            probe = SpeedProbe()
            wall, cpu, failed = run_round(jobs, deadline, probe=probe)
            walls.append(wall)
            cpus.append(cpu)
            speeds.append(probe.wall / probe.count / REF_S)
        attempted += len(jobs)
        failures += failed
        spent.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(spent) > seconds or time.monotonic() > deadline:
            break
    if trace:
        values = {name: statistics.median(s[name] for s in layers) for name in LAYER_METRICS}
        units = LAYER_METRICS
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"reference loop: {statistics.median(speeds):.3f} x its nominal time in a round")
    return len(spent), attempted, failures, values, units


def run_one(args, start):
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = None if args.trace else time_setup(args.workload, args.seed, workdir)
        jobs = workloads.prepare(args.workload, args.seed, workdir)
        n, attempted, failures, values, units = measure(
            jobs, args.seconds, args.trace, deadline, start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if not args.trace:
        values["setup_s"] = setup_s
    for reason in failures:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"workload {args.workload}: seed {args.seed}, {n} rounds, "
          f"failed_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    for name, unit in units.items():
        print(f"  {name}: {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; one table of their metrics."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            capture_output=True, text=True, timeout=200,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None):
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args, start)


if __name__ == "__main__":
    sys.exit(main())
