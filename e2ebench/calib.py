"""Host-speed calibration: a fixed kernel timed in a helper process.

The CPU speed a process sees on a shared virtual machine drifts: a fixed
pure-Python loop runs at two speeds that alternate on a sub-second scale,
independently on each vCPU. Wall time alone therefore mixes the program's
speed with the host's. The benchmark times this kernel, which never
touches ``repro``, between units of work, in a helper process pinned to
the same vCPU as the program, while the program is idle. A change to the
program cannot make the kernel slower, so it cannot flatter itself.

Timed metrics are then reported at a *reference speed*: measured time ×
``REFERENCE_S / mean(calibration samples)``. Set-up times, which are
process start and imports, are scaled instead by a *spawn kernel* timed
before and after each set-up probe: ``SPAWN_REFERENCE_S / mean``.

Run as a script:

* ``python3 e2ebench/calib.py serve`` — the helper loop (reads one line
  per sample request on stdin, answers the kernel time in seconds);
* ``python3 e2ebench/calib.py drift --seconds 40`` — reproduces the drift
  measurement: kernel times over time, and the correlation of adjacent
  samples on the same vCPU versus across vCPUs;
* ``PYTHONPATH=src python3 e2ebench/calib.py setup --workload sweep`` —
  how well each kernel tracks the set-up probe's time.
"""

from __future__ import annotations

import argparse
import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Kernel time at the reference speed; calibrated times are scaled to it.
REFERENCE_S = 0.011

#: Loop length of one kernel call (~11 ms at this machine's fast speed).
KERNEL_ITERATIONS = 60_000


def kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """A mix of dict/integer bytecode and small numpy calls."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(iterations):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += i * i % 7
    vector = np.arange(64, dtype=float)
    for _ in range(iterations // 60):
        vector = np.sqrt(vector * 1.0001 + 1.0)
    return acc + int(vector[0])


def reference_factor(samples: list[float], reference: float = REFERENCE_S) -> float:
    """Scale from measured to reference speed: ``reference / mean``."""
    return reference / statistics.fmean(samples)


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


#: The set-up calibration kernel: a fresh isolated interpreter (``-I``:
#: no ``PYTHONPATH``, so never ``repro``) importing numpy and standard
#: modules the program's start-up also loads. Set-up is process start and
#: imports, which slow down less than the bytecode kernel on a slow host.
SPAWN_KERNEL = "import numpy, json, http.server, email.parser, decimal, asyncio, argparse"

#: Spawn-kernel time at the reference speed; set-up times are scaled to it.
SPAWN_REFERENCE_S = 0.2


def timed_spawn_kernel() -> float:
    """Wall time of one spawn of :data:`SPAWN_KERNEL` to its exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", SPAWN_KERNEL], check=True)
    return time.perf_counter() - start


class Calibrator:
    """A helper process that times :func:`kernel` on request.

    The helper inherits the caller's CPU affinity, so pinning the caller
    first pins both to the same vCPU.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        #: ``(time.perf_counter() when taken, kernel seconds)`` per sample.
        self.log: list[tuple[float, float]] = []
        self.sample()  # the first call pays numpy's import
        self.log.clear()

    def sample(self) -> float:
        """Time one kernel call in the helper; logs and returns seconds."""
        self._proc.stdin.write("1\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        seconds = float(line)
        self.log.append((time.perf_counter(), seconds))
        return seconds

    def scale(self):
        """A function mapping a measurement's end time to its speed factor.

        Work that ended at ``at`` ran between the last sample before it
        and the first sample after it; the factor is
        :func:`reference_factor` of those two.
        """
        times = [at for at, _ in self.log]
        values = [seconds for _, seconds in self.log]

        def factor(at: float) -> float:
            k = bisect.bisect_right(times, at)
            return reference_factor(values[max(k - 1, 0):k + 1])

        return factor

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _serve() -> None:
    for _ in sys.stdin:
        sys.stdout.write(f"{timed_kernel()!r}\n")
        sys.stdout.flush()


def _correlation(xs: list[float], ys: list[float]) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / (sxx * syy) ** 0.5 if sxx and syy else 0.0


def _drift(seconds: float) -> None:
    """Print kernel-time drift on one vCPU and its cross-vCPU correlation."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    times, started = [], time.perf_counter()
    while time.perf_counter() - started < seconds / 2:
        times.append(timed_kernel())
    window = max(1, len(times) // 20)
    medians = [
        statistics.median(times[i:i + window]) * 1e3
        for i in range(0, len(times) - window + 1, window)
    ]
    print(f"one vCPU, {len(times)} kernels over {seconds / 2:g} s: "
          f"min {min(times) * 1e3:.1f} ms, max {max(times) * 1e3:.1f} ms")
    print("windowed medians (ms): " + " ".join(f"{m:.1f}" for m in medians))
    if len(cpus) < 2:
        return
    rows, started = [], time.perf_counter()
    while time.perf_counter() - started < seconds / 2:
        os.sched_setaffinity(0, {cpus[0]})
        a1, a2 = timed_kernel(), timed_kernel()
        os.sched_setaffinity(0, {cpus[-1]})
        rows.append((a1, a2, timed_kernel()))
    first, second, other = (list(column) for column in zip(*rows))
    print(f"correlation of adjacent kernels, same vCPU: "
          f"{_correlation(first, second):.2f}; across vCPUs: "
          f"{_correlation(second, other):.2f}")


def _setup_tracking(workload: str, seconds: float) -> None:
    """Print how well each kernel tracks the set-up probe's time.

    Alternates kernel sample, spawn kernel, set-up probe, spawn kernel,
    kernel sample on one vCPU, then prints the spread (standard deviation
    of the log) of the raw probe times and of the probe times divided by
    each kernel (mean of the samples around the probe).
    """
    import workloads

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = workloads.WORKLOADS[workload](1)
    rows, started = [], time.perf_counter()
    try:
        while time.perf_counter() - started < seconds:
            before = timed_kernel(), timed_spawn_kernel()
            probe_s, _ = probe.setup_once()
            after = timed_spawn_kernel(), timed_kernel()
            rows.append((probe_s, (before[0] + after[1]) / 2, (before[1] + after[0]) / 2))
    finally:
        probe.stop()
    probes, kernels, spawns = (np.log(column) for column in zip(*rows))
    print(f"{workload}: {len(rows)} set-up probes, median "
          f"{np.exp(np.median(probes)):.3f} s; sd of log time: raw {np.std(probes):.3f}, "
          f"/ kernel {np.std(probes - kernels):.3f}, / spawn kernel {np.std(probes - spawns):.3f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("serve", help="helper loop: one kernel time per input line")
    drift = sub.add_parser("drift", help="measure host-speed drift")
    drift.add_argument("--seconds", type=float, default=40.0)
    setup = sub.add_parser("setup", help="compare the kernels as set-up calibration")
    setup.add_argument("--workload", default="sweep")
    setup.add_argument("--seconds", type=float, default=90.0)
    args = parser.parse_args(argv)
    if args.command == "serve":
        _serve()
    elif args.command == "drift":
        _drift(args.seconds)
    else:
        _setup_tracking(args.workload, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
