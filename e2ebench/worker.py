"""One benchmark run: set-up, warm-up, timed units, checks, metrics.

Started by ``run.py`` with ``PYTHONHASHSEED`` fixed, BLAS pools at one
thread and ``src`` on the path. The worker pins itself — and, through
inheritance, the calibration helper, set-up probes, spawn kernels and
spawned servers — to one vCPU, because the host's speed drifts per vCPU
(see ``calib.py``).

Prints one detail line (raw walls, calibration samples, every layer
metric) and then the result line, the last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time

import calib
import checks
import workloads
from layers import OP_ROOT, LayerProbe, layer_metrics, self_times

#: Units of the end-to-end metrics.
METRIC_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "hit_latency_p50_ms": "ms",
}

#: Timed spawns per run behind ``setup_s`` (the median is reported).
SETUP_SPAWNS = 9

#: Import probes per traced run behind ``cli.import_s``.
IMPORT_SPAWNS = 3

#: Smallest number of timed units a run performs.
MIN_UNITS = 4

#: The ``per_layer`` metrics of ``BENCHMARK.json``: each workload reports
#: all of them. Times of layers a workload never enters are left out of
#: this list (they would read a constant 0) and printed in the detail line.
DECLARED_LAYERS = {
    "cli.import_s": "s",
    "api.scenario.key_us": "us",
    "api.service.compile_ms": "ms",
    "api.service.submit_overhead_ms": "ms",
    "core.solver.cold_ms": "ms",
    "core.solver.seed_ms": "ms",
    "core.solver.starts_per_solve": "count",
    "core.solver.warm_accept_ratio": "ratio",
    "explore.cache.hit_ratio": "ratio",
    "strategy.search.cross_warm_accept_ratio": "ratio",
    "analysis.memo_hit_ratio": "ratio",
    "serve.client.round_trips_per_op": "count",
    "serve.manager.dedupe_hit_ratio": "ratio",
    "serve.store.bytes_per_op": "B",
    "bench.tracing_overhead_ratio": "ratio",
    "bench.calibration_ms": "ms",
    "bench.unattributed_share": "ratio",
}

#: Layer times printed in the detail line only, with their units.
DETAIL_LAYERS = {
    "explore.cache.get_us": "us",
    "explore.cache.put_us": "us",
    "explore.chains.plan_ms": "ms",
    "explore.executor.overhead_ms_per_cell": "ms",
    "core.solver.warm_ms": "ms",
    "strategy.space.split_ms": "ms",
    "strategy.search.cell_ms": "ms",
    "strategy.frontier.build_ms": "ms",
    "analysis.structure_ms": "ms",
    "analysis.whatif_ms": "ms",
    "serve.http.overhead_ms": "ms",
    "serve.manager.queue_wait_ms": "ms",
    "serve.manager.run_ms": "ms",
}


def pin_to_one_cpu() -> int:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(count: int) -> float:
    """p95, or the highest quantile with at least ten samples beyond it."""
    return max(0.5, min(0.95, 1 - 10 / count))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_units(workload, units, cal, probe=None):
    """Timed phase: every unit, with a calibration sample after each.

    With a ``probe`` (traced run) units alternate in pairs between traced
    and untraced, and no sample is taken inside a unit: a pause in the
    program's progress callback would count toward its enclosing spans.
    Returns the records and per-unit traced flags.
    """
    inner = cal.sample if probe is None else lambda: None
    cal.sample()
    records, traced = [], []
    for index, unit in enumerate(units):
        tracing = probe is not None and index // 2 % 2 == 0
        workload.paired = probe is not None and not tracing
        if tracing:
            workload.op_span = probe.op
            with probe.installed():
                record = workload.run_unit(unit, inner)
            workload.op_span = None
        else:
            record = workload.run_unit(unit, inner)
        records.append(record)
        traced.append(tracing)
        cal.sample()
    return records, traced


def end_to_end(records, scale, setup, rss_mb) -> tuple[dict, dict]:
    """Calibrated end-to-end metrics, and the raw values behind them.

    Each measurement is scaled by the calibration samples taken right
    before and after it (``scale``): the host's speed changes within a
    second, so a nearby sample says more about it than the run's average.
    ``setup`` holds ``(seconds, factor)`` per set-up probe, the factor
    coming from the spawn kernels around it.
    """
    def calibrated(pairs):
        return [seconds * scale(at) for at, seconds in pairs]

    def raw(pairs):
        return [seconds for _, seconds in pairs]

    computed = [pair for r in records for pair in r.computed]
    latencies = [pair for r in records for pair in r.latencies]
    hits = [pair for r in records for pair in r.hits]
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    q = tail_quantile(len(latencies))

    def summary(values, set_up):
        lat, hit, comp = (values(pairs) for pairs in (latencies, hits, computed))
        return {
            "setup_s": statistics.median(set_up),
            "throughput_ops_s": len(lat) / sum(comp),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p95_ms": percentile(lat, q) * 1e3,
            "hit_latency_p50_ms": statistics.median(hit) * 1e3,
        }

    raw_setup = [seconds for seconds, _ in setup]
    metrics = {
        name: (value, METRIC_UNITS[name])
        for name, value in summary(calibrated, [s * f for s, f in setup]).items()
    }
    metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    metrics["peak_rss_mb"] = (rss_mb, "MiB")
    detail = {
        "raw": summary(raw, raw_setup),
        "setup_spawns_s": raw_setup,
        "setup_factors": [factor for _, factor in setup],
        "computed_ops": len(latencies),
        "hit_samples": len(hits),
        "tail_quantile": q,
    }
    kinds = [kind for r in records for kind in r.latency_kinds]
    if kinds:
        detail["latency_by_kind"] = latency_by_kind(kinds, calibrated(latencies), q)
    return metrics, detail


def latency_by_kind(kinds: list[str], latencies: list[float], q: float) -> dict:
    """Which op kinds the latency percentiles track (serve's mix).

    Per kind: its op count, its own median, and its shares of the ops at
    or below the overall median and of the ops beyond the tail quantile.
    """
    p50 = statistics.median(latencies)
    tail = percentile(latencies, q)
    at_or_below = [kind for kind, s in zip(kinds, latencies) if s <= p50]
    beyond = [kind for kind, s in zip(kinds, latencies) if s > tail]
    return {
        kind: {
            "ops": kinds.count(kind),
            "p50_ms": statistics.median(s for k, s in zip(kinds, latencies) if k == kind) * 1e3,
            "share_at_or_below_p50": ratio(at_or_below.count(kind), len(at_or_below)),
            "share_beyond_tail": ratio(beyond.count(kind), len(beyond)),
        }
        for kind in sorted(set(kinds))
    }


def per_layer(workload, records, scale, traced, spans, import_s, calibration_ms) -> dict:
    """Every layer metric of a traced run (declared and detail-only)."""
    counts: dict[str, int] = {}
    for record in records:
        for name, value in record.counts.items():
            counts[name] = counts.get(name, 0) + value
    time_samples: dict[str, list[float]] = {}
    for record, was_traced in zip(records, traced):
        if not was_traced:
            for name, values in record.layer_times.items():
                time_samples.setdefault(name, []).extend(values)

    def mean_sample(name: str) -> float:
        values = time_samples.get(name, [])
        return statistics.fmean(values) if values else 0.0

    scaled = [sum(s * scale(at) for at, s in record.computed) for record in records]
    traced_s = [s for s, t in zip(scaled, traced) if t]
    untraced_s = [s for s, t in zip(scaled, traced) if not t]

    metrics = layer_metrics(spans, workload.name)
    submissions = counts.get("submissions", 0)
    metrics.update({
        "cli.import_s": statistics.median(import_s),
        "core.solver.starts_per_solve": ratio(counts.get("starts", 0), counts.get("solves", 0)),
        "core.solver.warm_accept_ratio": ratio(
            counts.get("warm_accepted", 0), counts.get("solves", 0)
        ),
        "explore.cache.hit_ratio": ratio(counts.get("cache_hits", 0), counts.get("cache_gets", 0)),
        "strategy.search.cross_warm_accept_ratio": ratio(
            counts.get("cross_warm_accepted", 0), counts.get("cross_warm_attempts", 0)
        ),
        "serve.client.round_trips_per_op": ratio(counts.get("round_trips", 0), submissions),
        "serve.manager.dedupe_hit_ratio": ratio(counts.get("dedupe_hits", 0), submissions),
        "serve.store.bytes_per_op": (
            ratio(workload.store_bytes(), submissions) if submissions else 0.0
        ),
        "serve.http.overhead_ms": mean_sample("serve.http.overhead_ms"),
        "serve.manager.queue_wait_ms": mean_sample("serve.manager.queue_wait_ms"),
        "serve.manager.run_ms": mean_sample("serve.manager.run_ms"),
        "bench.tracing_overhead_ratio": statistics.fmean(traced_s) / statistics.fmean(untraced_s),
        "bench.calibration_ms": calibration_ms,
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cpu = pin_to_one_cpu()
    trace = bool(args.trace)
    workload = workloads.WORKLOADS[args.workload](args.seed, trace=trace)
    units = workload.inputs(max(MIN_UNITS, round(args.seconds * workload.units_per_second)))
    problems: list[str] = []
    started = time.perf_counter()
    with calib.Calibrator() as cal:
        setup, import_s = [], []
        if trace:
            for _ in range(IMPORT_SPAWNS):
                import_s.append(workloads.spawn_probe("import", args.seed)[1]["import_s"])
        else:
            # Each probe is scaled by the spawn kernels right before and
            # after it (``calib.SPAWN_KERNEL``).
            spawn_kernels = [calib.timed_spawn_kernel()]
            for _ in range(SETUP_SPAWNS):
                seconds, found = workload.setup_once()
                spawn_kernels.append(calib.timed_spawn_kernel())
                factor = calib.reference_factor(spawn_kernels[-2:], calib.SPAWN_REFERENCE_S)
                setup.append((seconds, factor))
                problems += found
        probe = LayerProbe() if trace else None
        workload.start()
        try:
            # Warm-up (untimed): the reference unit, checked against the
            # committed seed-0 set. Traced runs record it, so one-off
            # costs such as engine compiles show in the layer table.
            if probe is not None:
                with probe.installed():
                    reference = workload.reference_objectives()
            else:
                reference = workload.reference_objectives()
            problems += checks.compare_reference(workload.name, reference)
            gc.collect()
            timed_from = len(cal.log)
            records, traced = run_units(workload, units, cal, probe)
            rss_mb = workload.peak_rss_mb()
            scale = cal.scale()
            calibration_ms = statistics.fmean(s for _, s in cal.log[timed_from:]) * 1e3
            if trace:
                layers = per_layer(
                    workload, records, scale, traced, probe.tracer.spans(), import_s,
                    calibration_ms,
                )
        finally:
            workload.stop()

    for record in records:
        problems += record.problems
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "cpu": cpu,
        "units": len(units),
        "wall_s": time.perf_counter() - started,
        "problems": problems[:20],
    }
    if trace:
        spans = probe.tracer.spans()
        trace_path = workloads.WORK_DIR / f"trace-{workload.name}-{args.seed}.json"
        workloads.WORK_DIR.mkdir(exist_ok=True)
        probe.tracer.write(trace_path)
        root = OP_ROOT[workload.name]
        op_time = sum(s.duration_s for s in spans if s.name == root)
        shares = {name: seconds / op_time for name, seconds in self_times(spans).items()}
        # A serve op's work runs on server threads; its root's self time
        # is the part no span on any thread covers.
        shares[root] = layers["bench.unattributed_share"]
        detail["layers"] = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in {**DECLARED_LAYERS, **DETAIL_LAYERS}.items()
        }
        detail["self_time_share_of_ops"] = dict(
            sorted(shares.items(), key=lambda kv: -kv[1])
        )
        detail["chrome_trace"] = str(trace_path.relative_to(workloads.ROOT))
        metrics = {name: (layers[name], unit) for name, unit in DECLARED_LAYERS.items()}
    else:
        metrics, numbers = end_to_end(records, scale, setup, rss_mb)
        detail.update(numbers)
        detail["calibration"] = {
            "reference_ms": calib.REFERENCE_S * 1e3,
            "samples_ms": [s * 1e3 for _, s in cal.log],
            "spawn_reference_s": calib.SPAWN_REFERENCE_S,
            "spawn_kernels_s": spawn_kernels,
        }
    correct = not problems
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
