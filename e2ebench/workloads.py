"""The three workloads, each driven through the program's public API.

A workload turns seeded inputs (:mod:`inputs`) into *units* of work. One
unit computes some ops, replays them as hits, and checks every answer
(:mod:`checks`) outside the timed regions. ``run_unit`` returns a
:class:`UnitRecord` of raw wall times and calls ``calibrate`` between its
computing calls; calibration and statistics live in :mod:`worker`.

* ``sweep`` — one unit is one fig13/14 grid through ``run_sweep`` with a
  fresh in-memory ``ResultCache`` and a long-lived ``LibraService``,
  then one replay of the grid from that cache. An op is a grid cell.
* ``costrategy`` — one unit is one ``CostrategyRequest`` per preset
  through ``LibraService.submit``, then the same requests again (every
  cell a cache hit). An op is a grid cell.
* ``serve`` — one unit is one block of the closed-loop mix sent by one
  ``ServeClient`` to a ``repro serve`` process. An op is a request.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Scratch space inside the checkout (state dirs of spawned servers).
WORK_DIR = ROOT / ".bench_work"

#: Seconds to wait for a spawned process before declaring it stuck.
SPAWN_TIMEOUT_S = 60.0


@dataclass
class UnitRecord:
    """Raw measurements and check outcomes of one unit.

    Timed values are ``(at, seconds)`` pairs, ``at`` being the
    ``time.perf_counter()`` reading when the measured call returned, so
    the worker can scale each by the calibration samples around it.

    Attributes:
        computed: Wall time of each computing (non-hit) call.
        latencies: Wall time of each computed op.
        latency_kinds: Kind of each computed op, where a workload mixes
            kinds (serve: ``fresh <preset>`` or ``analyze``).
        hits: Wall time of each hit sample.
        attempted: Ops attempted (computed and hits).
        failed: Ops whose answer failed a check.
        problems: What the failed checks found.
        counts: Deterministic counters summed over the unit.
        layer_times: Per-layer times measured outside spans (name -> list).
    """

    computed: list[tuple[float, float]] = field(default_factory=list)
    latencies: list[tuple[float, float]] = field(default_factory=list)
    latency_kinds: list[str] = field(default_factory=list)
    hits: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    layer_times: dict[str, list[float]] = field(default_factory=dict)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def layer_time(self, name: str, value: float) -> None:
        self.layer_times.setdefault(name, []).append(value)

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def timed(call, *args, **kwargs):
    """``(result, (at, seconds))`` of one call."""
    start = time.perf_counter()
    result = call(*args, **kwargs)
    end = time.perf_counter()
    return result, (end, end - start)


class Stopwatch:
    """Times one computing call through its progress events.

    Cell latencies run from the previous event of any type (plan, chain
    or strategy start) to the cell's own event, so set-up between chains
    is not charged to the next cell. At each event ``pause_at`` accepts,
    the call is paused — the program waits in its event callback — for a
    calibration sample; the computing wall is recorded in segments
    between those pauses, each scaled later by the samples around it.
    """

    def __init__(self, record: UnitRecord, calibrate, pause_at=lambda event: False):
        self.record = record
        self.calibrate = calibrate
        self.pause_at = pause_at
        self.previous = self.segment = time.perf_counter()

    def on_event(self, event: dict) -> None:
        now = time.perf_counter()
        if event["type"] == "cell":
            self.record.latencies.append((now, now - self.previous))
        self.previous = now
        if self.pause_at(event):
            self.record.computed.append((now, now - self.segment))
            self.calibrate()
            self.previous = self.segment = time.perf_counter()

    def stop(self) -> None:
        now = time.perf_counter()
        self.record.computed.append((now, now - self.segment))


def count_rows(record: UnitRecord, rows) -> None:
    for row in rows:
        record.count("solves")
        record.count("starts", row.solver_starts)
        record.count("warm_accepted", row.warm_start == "accepted")


def spawn_probe(workload: str, seed: int) -> tuple[float, dict]:
    """Spawn a fresh interpreter that answers its first op; (seconds, report)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=SPAWN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if not line:
        raise RuntimeError(f"setup probe for {workload} printed nothing")
    return elapsed, json.loads(line)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not found in /proc status")


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    #: Units a run of ``--seconds 1`` performs (scaled linearly).
    units_per_second = 1.0

    def __init__(self, seed: int, trace: bool = False):
        self.seed = seed
        self.trace = trace
        #: Context-manager factory the traced run sets to open an op span.
        self.op_span = None
        #: Pair each computed op with a direct in-process call (serve).
        self.paired = False

    def inputs(self, count: int) -> list:
        raise NotImplementedError

    def setup_once(self) -> tuple[float, list[str]]:
        """Fresh interpreter → first answer: (seconds, problems)."""
        elapsed, report = spawn_probe(self.name, self.seed)
        return elapsed, report.get("problems", [])

    def start(self) -> None:
        """Construct the in-process program (after the set-up probes)."""

    def stop(self) -> None:
        """Release everything :meth:`start` acquired."""

    def run_unit(self, unit, calibrate=lambda: None) -> UnitRecord:
        """Run one unit; ``calibrate`` samples host speed between its calls."""
        raise NotImplementedError

    def reference_objectives(self) -> dict[str, float]:
        """Objectives of the seed-independent reference unit, by label."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process hosting the program."""
        return peak_rss_mb()


class SweepWorkload(Workload):
    name = "sweep"
    units_per_second = 2.2

    def inputs(self, count: int) -> list[inputs.Grid]:
        return inputs.sweep_grids(self.seed, count)

    def start(self) -> None:
        from repro.api import LibraService

        self.service = LibraService()

    def _spec(self, grid: inputs.Grid):
        from repro.explore import SweepSpec

        return SweepSpec(
            workloads=grid.workloads,
            topologies=(grid.topology,),
            bandwidths_gbps=grid.budgets_gbps,
            schemes=grid.schemes,
        )

    def run_unit(self, grid: inputs.Grid, calibrate=lambda: None) -> UnitRecord:
        from repro.explore import ResultCache, run_sweep

        spec = self._spec(grid)
        cache = ResultCache()
        record = UnitRecord()
        watch = Stopwatch(
            record, calibrate,
            lambda event: event["type"] == "chain" and event["status"] == "done",
        )
        sweep = run_sweep(spec, cache=cache, service=self.service, on_event=watch.on_event)
        watch.stop()
        calibrate()
        replay, (at, seconds) = timed(run_sweep, spec, cache=cache, service=self.service)
        record.hits.append((at, seconds / len(replay.results)))
        record.attempted = len(sweep.results) + len(replay.results)
        count_rows(record, sweep.results)
        stats = cache.stats()
        record.count("cache_gets", stats["memory_hits"] + stats["memory_misses"])
        record.count("cache_hits", stats["memory_hits"] + stats["disk_hits"])
        for row in sweep.results:
            record.fail(checks.check_row(row))
        for first, again in zip(sweep.results, replay.results):
            if not again.from_cache or checks.row_answer(again) != checks.row_answer(first):
                record.fail([f"{first.point.label()}: replay differs from first answer"])
        return record

    def reference_objectives(self) -> dict[str, float]:
        from repro.explore import ResultCache, run_sweep

        sweep = run_sweep(
            self._spec(inputs.sweep_reference()), cache=ResultCache(), service=self.service
        )
        return {row.point.label(): checks.row_objective(row) for row in sweep.results}


class CostrategyWorkload(Workload):
    name = "costrategy"
    # A unit takes ~2 s, so at this rate a costrategy run measures for
    # about twice ``--seconds``: enough units for a steady hit median.
    units_per_second = 1.0
    #: Strategies solved between two calibration samples.
    strategies_per_pause = 3

    def inputs(self, count: int) -> list[tuple[inputs.Costrategy, ...]]:
        return inputs.costrategy_requests(self.seed, count)

    def start(self) -> None:
        from repro.api import LibraService

        self.service = LibraService()

    @staticmethod
    def _request(unit: inputs.Costrategy):
        from repro.api.requests import CostrategyRequest

        return CostrategyRequest(
            workload=unit.workload, topology=unit.topology, budgets_gbps=unit.budgets_gbps
        )

    def run_unit(
        self, unit: tuple[inputs.Costrategy, ...], calibrate=lambda: None
    ) -> UnitRecord:
        requests = [self._request(part) for part in unit]
        record = UnitRecord()
        firsts = []
        for request in requests:
            watch = Stopwatch(
                record, calibrate,
                lambda event: event["type"] == "strategy" and event["status"] == "done"
                and event["index"] % self.strategies_per_pause == self.strategies_per_pause - 1,
            )
            firsts.append(self.service.submit(request, on_event=watch.on_event))
            watch.stop()
            calibrate()
        start = time.perf_counter()
        agains = [self.service.submit(request) for request in requests]
        end = time.perf_counter()
        rows = [row for first in firsts for row in first.frontier.rows()]
        replayed = [row for again in agains for row in again.frontier.rows()]
        record.hits.append((end, (end - start) / len(replayed)))
        record.attempted = len(rows) + len(replayed)
        count_rows(record, rows)
        for response in firsts + agains:
            record.count("cache_gets", response.frontier.diagnostics["cells"])
            record.count("cache_hits", response.frontier.diagnostics["cached"])
        for part, first in zip(unit, firsts):
            diagnostics = first.frontier.diagnostics
            record.count("cross_warm_accepted", diagnostics["cross_warm_accepted"])
            # Each strategy after the first seeds its lowest budget from its
            # neighbor's optimum: one cross-warm attempt per strategy but one.
            record.count("cross_warm_attempts", diagnostics["strategies"] - 1)
            cells = len(first.frontier.rows())
            if cells != len(part.budgets_gbps) * diagnostics["strategies"]:
                record.fail([f"{part.workload}: frontier has {cells} rows"])
        for row in rows:
            record.fail(checks.check_row(row))
        for row, hit in zip(rows, replayed):
            if not hit.from_cache or checks.row_answer(hit) != checks.row_answer(row):
                record.fail([f"{row.point.label()}: replay differs from first answer"])
        return record

    def reference_objectives(self) -> dict[str, float]:
        objectives = {}
        for unit in inputs.costrategy_reference():
            response = self.service.submit(self._request(unit))
            for row in response.frontier.rows():
                objectives[row.point.label()] = checks.row_objective(row)
        return objectives


class ServeWorkload(Workload):
    """Closed loop, one client connection, against ``repro serve``.

    ``trace=False`` spawns ``repro serve --workers 1 --state-dir <fresh>``
    as a subprocess — the production setting. ``trace=True`` hosts the
    same server in-process on a thread so the tracer sees its spans, and
    pairs each fresh op of an untraced unit with a direct
    ``LibraService.submit`` of the same request.
    """

    name = "serve"
    units_per_second = 8.0

    def __init__(self, seed: int, trace: bool = False):
        super().__init__(seed, trace)
        self._ops: list[inputs.ServeOp] = []
        self._answers: dict[int, tuple] = {}
        self._state_dirs: list[Path] = []

    def inputs(self, count: int) -> list[list[int]]:
        """Units of op indices into one seeded op list, a block per unit."""
        size = len(inputs.SERVE_BLOCK)
        self._ops = inputs.serve_ops(self.seed, count)
        return [list(range(i * size, (i + 1) * size)) for i in range(count)]

    # -- server lifetime ----------------------------------------------------

    def _fresh_state_dir(self) -> Path:
        WORK_DIR.mkdir(exist_ok=True)
        path = WORK_DIR / f"serve-{os.getpid()}-{len(self._state_dirs)}"
        shutil.rmtree(path, ignore_errors=True)
        self._state_dirs.append(path)
        return path

    def _spawn_server(self) -> tuple[subprocess.Popen, str]:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        state_dir = self._fresh_state_dir()
        # Access logs go to a file, as a deployed server's would; an
        # unread pipe could fill and stall the server.
        with open(state_dir.with_suffix(".log"), "w") as log:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--host", "127.0.0.1", "--port", "0", "--workers", "1",
                    # The default table (256 jobs, 60 s eviction grace)
                    # refuses a closed loop's ~40 jobs/s; capacity is a
                    # deployment knob.
                    "--max-jobs", "4096",
                    "--state-dir", str(state_dir),
                ],
                stdout=subprocess.PIPE, stderr=log, text=True, env=env,
            )
        line = proc.stdout.readline()
        marker = "listening on "
        if marker not in line:
            self._stop_server(proc)
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return proc, line.split(marker, 1)[1].split()[0]

    @staticmethod
    def _stop_server(proc: subprocess.Popen) -> None:
        # A graceful SIGTERM shutdown takes ~0.7 s (the accept loop's poll
        # interval); the server's state is thrown away, so kill it.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def setup_once(self) -> tuple[float, list[str]]:
        from repro.serve import ServeClient

        first = inputs.serve_ops(self.seed, 1)[0]
        start = time.perf_counter()
        proc, url = self._spawn_server()
        try:
            response = ServeClient(url).submit_and_wait(self._optimize_request(first))
            elapsed = time.perf_counter() - start
            problems = self._check_optimize(first, response)
        finally:
            self._stop_server(proc)
        return elapsed, problems

    def start(self) -> None:
        from repro.serve import ServeClient

        self._answers.clear()
        if self.trace:
            from repro.api import LibraService
            from repro.serve import JobManager, JobStore, create_server

            self.state_dir = self._fresh_state_dir()
            self._manager = JobManager(
                workers=1, max_jobs=4096, store=JobStore(self.state_dir)
            )
            self._server = create_server(self._manager, port=0)
            self._thread = threading.Thread(
                target=self._server.serve_forever, name="bench-serve", daemon=True
            )
            self._thread.start()
            host, port = self._server.server_address[:2]
            url = f"http://{host}:{port}"
            self.direct = LibraService()
            for workload in inputs.SERVE_WORKLOADS:
                self.direct.engine(self._scenario(inputs.ServeOp("fresh", workload, 100.0)))
            self._proc = None
        else:
            self._proc, url = self._spawn_server()
        self.client = ServeClient(url)
        self.round_trips = 0
        if self.trace:
            opener = self.client._open

            def counted_open(*args, **kwargs):
                self.round_trips += 1
                return opener(*args, **kwargs)

            self.client._open = counted_open

    def stop(self) -> None:
        if getattr(self, "_proc", None) is not None:
            self._stop_server(self._proc)
            self._proc = None
        if getattr(self, "_server", None) is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join(timeout=SPAWN_TIMEOUT_S)
            self._manager.shutdown()
            self._server = None
        for path in self._state_dirs:
            shutil.rmtree(path, ignore_errors=True)
            path.with_suffix(".log").unlink(missing_ok=True)
        self._state_dirs.clear()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self._proc.pid if self._proc is not None else "self")

    def store_bytes(self) -> int:
        return sum(
            path.stat().st_size for path in self.state_dir.rglob("*") if path.is_file()
        )

    # -- requests -------------------------------------------------------------

    @staticmethod
    def _scenario(op: inputs.ServeOp):
        from repro.api import build_scenario

        return build_scenario(inputs.TOPOLOGY, [op.workload], total_bw_gbps=op.budget_gbps)

    def _optimize_request(self, op: inputs.ServeOp):
        from repro.api import OptimizeRequest

        return OptimizeRequest(scenario=self._scenario(op))

    def _analyze_request(self, op: inputs.ServeOp, bandwidths_gbps):
        from repro.api.requests import AnalyzeRequest

        return AnalyzeRequest(scenario=self._scenario(op), bandwidths_gbps=bandwidths_gbps)

    @staticmethod
    def _check_optimize(op: inputs.ServeOp, response) -> list[str]:
        point = response.point
        problems = checks.check_allocation(point.bandwidths_gbps(), op.budget_gbps)
        problems += checks.check_gain(
            point.scheme.value, response.speedup_over_baseline or 0.0,
            response.ppc_gain_over_baseline or 0.0,
        )
        return [f"{op.workload}@{op.budget_gbps}: {p}" for p in problems]

    @staticmethod
    def _answer(response) -> tuple:
        point = response.point
        return (point.bandwidths_gbps(), tuple(sorted(point.step_times.items())))

    def _call(self, request):
        """Submit, follow to completion, fetch: what ``submit_and_wait`` does.

        Spelled out so the job envelope (queue and run times) and the
        dedupe outcome at submission are visible.
        """
        info = self.client.submit(request)
        deduped = info.done
        if not deduped:
            self.client.follow_to_completion(info.id)
        final = self.client.job(info.id)
        return final, deduped

    def run_unit(self, indices: list[int], calibrate=lambda: None) -> UnitRecord:
        record = UnitRecord()
        for index in indices:
            with self.op_span() if self.op_span else contextlib.nullcontext():
                self._run_op(index, record)
            record.attempted += 1
            record.count("submissions")
        return record

    def _run_op(self, index: int, record: UnitRecord) -> None:
        from repro.utils.errors import ReproError

        round_trips = self.round_trips
        try:
            self._send_op(index, record)
        except ReproError as exc:
            # A refused or failed request is a failed op, not a crash.
            record.fail([f"op {index}: {type(exc).__name__}: {exc}"])
        finally:
            record.count("round_trips", self.round_trips - round_trips)

    def _send_op(self, index: int, record: UnitRecord) -> None:
        op = self._ops[index]
        if op.kind != "fresh" and op.target not in self._answers:
            record.fail([f"op {index}: its target op {op.target} failed"])
            return
        if op.kind == "repeat":
            target = self._ops[op.target]
            request = self._optimize_request(target)
            (final, deduped), wall = timed(self._call, request)
            record.hits.append(wall)
            record.count("dedupe_hits", deduped)
            problems = [] if deduped else [f"repeat of op {op.target} was not deduplicated"]
            if self._answer(final.response()) != self._answers[op.target][1]:
                problems.append(f"repeat of op {op.target} differs from first answer")
            record.fail(problems)
        else:
            if op.kind == "fresh":
                request = self._optimize_request(op)
            else:
                target = self._ops[op.target]
                request = self._analyze_request(target, self._answers[op.target][1][0])
            (final, deduped), wall = timed(self._call, request)
            record.latencies.append(wall)
            record.latency_kinds.append(
                "analyze" if op.kind == "analyze" else f"fresh {op.workload}"
            )
            record.computed.append(wall)
            record.count("dedupe_hits", deduped)
            record.layer_time("serve.manager.queue_wait_ms", final.metrics["queue_s"] * 1e3)
            record.layer_time("serve.manager.run_ms", final.metrics["run_s"] * 1e3)
            response = final.response()
            if op.kind == "fresh":
                self._answers[index] = (response, self._answer(response))
                record.count("solves")
                record.count("starts", response.diagnostics["starts"])
                record.count("warm_accepted", response.diagnostics["warm_start"] == "accepted")
                record.fail(self._check_optimize(op, response))
                if self.paired:
                    begin = time.perf_counter()
                    self.direct.submit(request)
                    direct = time.perf_counter() - begin
                    record.layer_time("serve.http.overhead_ms", (wall[1] - direct) * 1e3)
            else:
                record.fail(self._check_analyze(op, response))

    def _check_analyze(self, op: inputs.ServeOp, response) -> list[str]:
        first, (bandwidths, _) = self._answers[op.target]
        report = response.report
        problems = []
        if tuple(report.bandwidths_gbps) != tuple(bandwidths):
            problems.append("analyzed bandwidths differ from the request")
        expected = first.point.weighted_step_time
        if abs(report.step_time - expected) > 1e-9 * expected:
            problems.append(f"step time {report.step_time!r} != answer {expected!r}")
        if response.source != "inline":
            problems.append(f"source {response.source!r}, expected 'inline'")
        return [f"analyze of op {op.target}: {p}" for p in problems]

    def reference_objectives(self) -> dict[str, float]:
        objectives = {}
        for op in inputs.serve_reference():
            final, _ = self._call(self._optimize_request(op))
            point = final.response().point
            label = f"{op.workload}@{op.budget_gbps:g}"
            objectives[label] = checks.objective(
                point.scheme.value, point.weighted_step_time * 1e3, point.network_cost
            )
        return objectives


WORKLOADS = {
    cls.name: cls for cls in (SweepWorkload, CostrategyWorkload, ServeWorkload)
}
