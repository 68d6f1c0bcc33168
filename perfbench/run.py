"""primopt benchmark: one workload, one fresh process, one JSON result.

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src, never
from site-packages.  The process runs the workload's job list as a closed
loop (each job starts when the previous one has finished, one thread),
pass after pass, for as many whole passes as fit in --seconds, and at
least two.  Every job's result is checked against
perfbench/reference.json.

Every time of an untraced run is scaled to the reference machine speed of
calibrate.py: a fixed calibration probe runs every PROBE_EVERY_S, inside
jobs too, and the job time between two probes is multiplied by the
reference probe time over their mean.  The report line keeps the raw times
and the measured machine speed.

--trace 0 reports the end-to-end metrics.  setup_s is the median of nine
set-ups (this process plus eight fresh processes), each timed from
``import primopt`` to a built job list and scaled by probes run right
after it.  job_p50_ms is the median of all job latencies.  job_p99_ms and
job_max_ms are the nearest-rank p99 and the maximum, over jobs, of each
job's median latency across the passes, so one stall of the machine does
not set them.

--trace 1 reports per-layer metrics instead: half the time runs untraced,
then the span wrappers of spans.py go on and the other half runs traced.
Layer numbers are means per traced pass; trace.overhead_frac compares the
median traced pass with the median untraced one.  Nothing is scaled.

The last stdout line is the result object; the line before it is a report
with failures by kind, sample counts and the machine and code versions.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
from spans import Tracer, layer_metrics
from workloads import OK, PROBE_KIND, WORKLOADS, WRONG, load_reference, make_jobs

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8
SETUP_PROBE_TIMEOUT_S = 60
PROBE_EVERY_S = 0.1  # wall time between two calibration probes
SETUP_CALIBRATION_PROBES = 5


def _source_dir() -> Path:
    src = Path.cwd() / "src"
    if not (src / "primopt" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no src/primopt here; run from the repository root\n")
        raise SystemExit(2)
    return src


def setup(workload: str, seed: int, src: Path):
    """Import primopt from src and build the job list; returns (jobs, raw seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import primopt

    if Path(primopt.__file__).resolve().parent != (src / "primopt").resolve():
        sys.stderr.write(f"perfbench: primopt imported from {primopt.__file__}, not {src}\n")
        raise SystemExit(2)
    jobs = make_jobs(workload, seed, load_reference())
    return jobs, time.perf_counter() - start


def _probe_setup(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class Tally:
    """Outcomes of the passes of a run.

    With a calibration probe, the probe runs at the start and end of each
    pass and, from an interval timer, every PROBE_EVERY_S of wall time in
    between, inside long jobs too.  Each stretch of job time between two
    probes is scaled by the mean of those two probes, and probe time is left
    out.  A job's latency and a pass's wall (the sum of its job latencies)
    are then in seconds at reference speed; the raw walls are kept for the
    report.  Without a probe, latencies are raw.
    """

    def __init__(self, probe: calibrate.Probe | None):
        self.probe = probe
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.probe_samples: list[float] = []
        self.pass_latencies: list[list[float]] = []  # per pass, in job order
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.unexpected = 0  # failures outside the beyond-cap jobs
        self.failures = Counter()
        self._marks: list[tuple[float, float, float]] = []  # (start, end, probe_s) this pass
        self._probing = False

    def _probe(self, *_signal) -> None:
        if self._probing:  # the timer fired during a probe
            return
        self._probing = True
        start = time.perf_counter()
        seconds = self.probe.seconds()
        self._marks.append((start, time.perf_counter(), seconds))
        self.probe_samples.append(seconds)
        self._probing = False

    def run_pass(self, jobs) -> None:
        # Garbage left by the previous pass (build_universe leaves a
        # reference cycle) would otherwise lift peak_rss_mb by chance.
        gc.collect()
        clock = time.perf_counter
        spans: list[tuple[float, float]] = []
        if self.probe:
            self._marks = []
            self._probe()
            previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            for job in jobs:
                t0 = clock()
                try:
                    result = job.call()
                except Exception as exc:  # a failed job is counted; the run goes on
                    spans.append((t0, clock()))
                    status = f"raised {type(exc).__name__}"
                else:
                    spans.append((t0, clock()))
                    try:
                        status = job.check(result)
                    except Exception:  # malformed result
                        status = WRONG
                self.attempted += 1
                if status != OK:
                    self.failed += 1
                    self.wrong += status == WRONG
                    self.unexpected += not job.beyond_cap
                    self.failures[f"{job.kind}: {status}"] += 1
        finally:
            if self.probe:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        if self.probe:
            self._probe()
            raw, scaled = _scaled_latencies(spans, self._marks, self.probe.scale)
        else:
            raw = scaled = [t1 - t0 for t0, t1 in spans]
        self.raw_walls.append(sum(raw))
        self.walls.append(sum(scaled))
        self.pass_latencies.append(scaled)

    def run_for(self, jobs, seconds: float) -> list[float]:
        """At least two passes, then more while the next one, as long as
        the last, still ends in time; returns the scaled walls of these passes."""
        first = len(self.walls)
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            self.run_pass(jobs)
            passes = len(self.walls) - first
            now = time.perf_counter()
            if passes >= 2 and now - start + (now - pass_start) > seconds:
                return self.walls[first:]


def _scaled_latencies(spans, marks, scale) -> tuple[list[float], list[float]]:
    """Raw and scaled latency of each job span (start, end), leaving out probe time.

    ``marks`` are the probes (start, end, probe seconds) in time order; the
    first ends before the first span starts and the last starts after the
    last span ends.  Time between two probes is scaled by their mean.
    """
    gaps = [
        (a_end, b_start, scale((a_s + b_s) / 2))
        for (_, a_end, a_s), (b_start, _, b_s) in zip(marks, marks[1:])
    ]
    raw, scaled = [], []
    first = 0
    for t0, t1 in spans:
        while gaps[first][1] <= t0:
            first += 1
        job_raw = job_scaled = 0.0
        for lo, hi, factor in itertools.islice(gaps, first, None):
            if lo >= t1:
                break
            inside = min(t1, hi) - max(t0, lo)
            if inside > 0:
                job_raw += inside
                job_scaled += inside * factor
        raw.append(job_raw)
        scaled.append(job_scaled)
    return raw, scaled


def _p99_rank(count: int) -> int:
    """1-based nearest rank of the 99th percentile among count samples."""
    return math.ceil(0.99 * count)


def _end_to_end(tally: Tally, jobs_per_pass: int, setups: list[dict]) -> tuple[dict, dict]:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = [x for latencies in tally.pass_latencies for x in latencies]
    # Each job's median over the passes, so that the tail is set by the
    # slowest jobs and not by whichever of them the machine stalled last.
    typical = sorted(statistics.median(job) for job in zip(*tally.pass_latencies))
    values = {
        "setup_s": ("s", statistics.median(s["setup_s"] for s in setups)),
        "wall_s": ("s", statistics.median(tally.walls)),
        "job_p50_ms": ("ms", statistics.median(samples) * 1e3),
        "job_p99_ms": ("ms", typical[_p99_rank(len(typical)) - 1] * 1e3),
        "job_max_ms": ("ms", typical[-1] * 1e3),
        "certified_frac": ("ratio", 1.0 - tally.failed / tally.attempted),
        "peak_rss_mb": ("MB", peak_rss_mb),
    }
    extra = {
        "setup_samples_s": [s["setup_s"] for s in setups],
        "raw_setup_samples_s": [s["raw_setup_s"] for s in setups],
        "raw_wall_s": statistics.median(tally.raw_walls),
        "job_samples": len(samples),
        "job_samples_beyond_p99_per_pass": jobs_per_pass - _p99_rank(jobs_per_pass),
    }
    return {k: {"value": v, "unit": u} for k, (u, v) in values.items()}, extra


def _traced(tally: Tally, jobs, seconds: float) -> dict:
    untraced = tally.run_for(jobs, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = tally.run_for(jobs, seconds / 2)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, len(traced))
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    metrics["trace.covered_frac"] = {"value": tracer.top_level / sum(traced), "unit": "ratio"}
    return metrics


def _commit() -> str | None:
    git = Path.cwd() / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(src: Path) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((src / "primopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = _source_dir()
    jobs, raw_setup_s = setup(args.workload, args.seed, src)
    # Set-up is imports and job building, interpreted code on every workload.
    calibration = calibrate.Probe("interpreted")
    setup_scale = calibration.scale(calibration.median_seconds(SETUP_CALIBRATION_PROBES))
    own_setup = {"setup_s": raw_setup_s * setup_scale, "raw_setup_s": raw_setup_s}
    if args.setup_probe:
        print(json.dumps(own_setup))
        return 0

    if args.trace:
        # Unscaled: a probe inside a span would count as that layer's time.
        calibration = None
    elif PROBE_KIND[args.workload] != calibration.kind:
        calibration = calibrate.Probe(PROBE_KIND[args.workload])
    tally = Tally(calibration)
    # The reference table, the jobs and the probe data live as long as the
    # run.  Frozen, they are left out of the full garbage collections that
    # fall inside jobs; scanning them took about 9 ms on certify-small, more
    # than its slowest job's spread.
    gc.collect()
    gc.freeze()
    extra = {}
    if args.trace:
        metrics = _traced(tally, jobs, args.seconds)
    else:
        setups = [own_setup] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        tally.run_for(jobs, args.seconds)
        metrics, extra = _end_to_end(tally, len(jobs), setups)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_per_pass": len(jobs),
        "passes": len(tally.walls),
        "pass_walls_s": tally.walls,
        "raw_pass_walls_s": tally.raw_walls,
        "probe_kind": calibration and calibration.kind,
        "machine_speed": calibration and statistics.median(map(calibration.scale, tally.probe_samples)),
        "failed_frac": tally.failed / tally.attempted,
        "wrong_results": tally.wrong,
        "failures": dict(tally.failures),
        **extra,
        "environment": _environment(src),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.wrong == 0 and tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
