"""CPU-speed calibration: timings in reference seconds.

On a shared machine the speed of a CPU drifts by tens of percent over
seconds, as other tenants load it, and the drift does not cancel within a
run.  Timings of the benchmark are therefore rescaled to a fixed reference
speed.  A sampler process pinned to each CPU the workload runs on times a
fixed pure-Python loop every few milliseconds, using its own CPU time, so
it is not charged for the benchmark's threads that share its CPU.  An
operation that took ``w`` wall seconds is reported as ``w * REF_LOOP_S /
loop_s``, where ``loop_s`` is the mean loop time of the samples taken on
those CPUs while it ran.  A faster program still reads proportionally
faster; a slower CPU no longer does.  Raw wall times are kept next to the
calibrated ones in the run's output.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import subprocess
import sys
import time

#: CPU seconds of one sampler loop at the reference speed.
REF_LOOP_S = 6e-4

#: Wall seconds between samples; a loop every period costs the CPU ~2%.
PERIOD_S = 0.025

#: Shortest window of samples averaged for one interval.  A CPU's speed
#: holds for seconds, so a short operation borrows samples around it.
MIN_WINDOW_S = 1.0

_SAMPLER = r"""
import os, sys, time
os.sched_setaffinity(0, {int(sys.argv[1])})
out = open(sys.argv[2], "w", buffering=1)
parent = int(sys.argv[3])
while os.getppid() == parent:  # never outlive the benchmark
    start = time.thread_time()
    s = 0
    for k in range(5000):
        s += k * k
    took = time.thread_time() - start
    out.write(f"{time.perf_counter()!r} {took!r}\n")
    time.sleep(%r)
""" % PERIOD_S


class Calibration:
    """Sampler processes on ``cpus``; :meth:`scale` turns wall intervals
    into reference seconds once :meth:`stop` has collected the samples."""

    def __init__(self, cpus, out_dir: str):
        self.cpus = sorted(cpus)
        self._procs = []
        self._paths = []
        for cpu in self.cpus:
            path = os.path.join(out_dir, f"speed-cpu{cpu}.txt")
            self._paths.append(path)
            self._procs.append(
                subprocess.Popen([sys.executable, "-c", _SAMPLER, str(cpu),
                                  path, str(os.getpid())])
            )
        self._series: list[tuple[list, list]] = []
        time.sleep(3 * PERIOD_S)  # a first sample before any timing

    def stop(self) -> None:
        """Stop the samplers and load their series (idempotent)."""
        if self._series:
            return
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.wait(timeout=10)
        for path in self._paths:
            stamps, loops = [], []
            with open(path) as fh:
                for line in fh:
                    parts = line.split()
                    if len(parts) == 2:
                        stamps.append(float(parts[0]))
                        loops.append(float(parts[1]))
            os.remove(path)
            self._series.append((stamps, loops))

    def _loop_s(self, start: float, end: float, cpus) -> float:
        """Mean sampled loop time over ``[start, end]`` on ``cpus`` (the
        nearest sample when none fell inside)."""
        pad = max(0.0, MIN_WINDOW_S - (end - start)) / 2
        start, end = start - pad, end + pad
        means = []
        for cpu, (stamps, loops) in zip(self.cpus, self._series):
            if cpu not in cpus:
                continue
            lo = bisect.bisect_left(stamps, start)
            hi = bisect.bisect_right(stamps, end)
            if hi > lo:
                window = loops[lo:hi]
            else:
                near = min(max(lo, 0), len(loops) - 1)
                window = loops[near:near + 1]
            if window:
                means.append(sum(window) / len(window))
        return sum(means) / len(means) if means else REF_LOOP_S

    def scale(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        return (end - start) * REF_LOOP_S / self._loop_s(start, end,
                                                          self.cpus)

    def scale_serial(self, start: float, end: float) -> float:
        """Reference seconds of an interval run under :func:`serial_cpu`."""
        return (end - start) * REF_LOOP_S / self._loop_s(start, end,
                                                          {max(self.cpus)})

    def speed(self) -> float:
        """Mean sampled CPU speed over the run, relative to reference."""
        loops = [x for _, series in self._series for x in series]
        return REF_LOOP_S * len(loops) / sum(loops) if loops else 1.0


#: Workloads whose program runs work side by side (the process pool, the
#: daemon's unit thread pool): they keep every CPU, with a sampler on each.
PARALLEL_WORKLOADS = ("table6-jobs2", "serve-mixed")


def workload_cpus(workload: str) -> set:
    """Pin the serial workloads to one CPU; the parallel ones use all."""
    cpus = os.sched_getaffinity(0)
    if workload in PARALLEL_WORKLOADS:
        return set(cpus)
    one = {max(cpus)}
    os.sched_setaffinity(0, one)
    return one


@contextlib.contextmanager
def serial_cpu():
    """Run the calling thread on the highest CPU of the workload while
    inside.  On the parallel workloads the benchmark's own serial timings
    (simulations, the serve oracle) otherwise ran on either CPU, and
    ``sim_s`` split into two modes a fifth apart when the two CPUs ran at
    different speeds; on the serial workloads this changes nothing.
    Threads started inside would inherit the pin, so start none."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)
