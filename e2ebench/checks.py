"""Correctness checks every answer passes before it counts toward ``ok_ratio``.

A cell or response is correct when it has no error, its bandwidths sum to
the budget and stay inside the caps, its scheme's objective is no worse
than the EqualBW baseline's, and — for replays and dedupe hits — it is
bit-identical to the first answer. Each run also solves a fixed reference
unit and compares it with ``reference_seed0.json`` within the documented
continuation tolerance.

``python3 e2ebench/checks.py`` rewrites ``reference_seed0.json`` from the
current program (run it only when a change to the solver is meant to move
design points, and say so in the change).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

#: Relative tolerance of the budget-sum and cap checks.
BUDGET_RTOL = 1e-6

#: How far below 1 the gain over EqualBW may read (solver round-off).
BASELINE_RTOL = 1e-6

#: The documented continuation tolerance: a warm-started objective may sit
#: this far above the reference (one-sided; better is always accepted).
REFERENCE_RTOL = 2e-2

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_seed0.json"


def check_allocation(
    bandwidths_gbps, budget_gbps: float, caps: dict[int, float] | None = None,
) -> list[str]:
    """Budget-sum and cap problems of one allocation (empty when correct)."""
    problems = []
    if not bandwidths_gbps:
        return ["no bandwidths"]
    total = math.fsum(bandwidths_gbps)
    if abs(total - budget_gbps) > BUDGET_RTOL * budget_gbps:
        problems.append(f"bandwidths sum to {total!r}, budget {budget_gbps!r}")
    for dim, value in enumerate(bandwidths_gbps):
        cap = (caps or {}).get(dim, math.inf)
        if not 0 < value <= cap * (1 + BUDGET_RTOL):
            problems.append(f"dim {dim} bandwidth {value!r} outside (0, {cap}]")
    return problems


def check_gain(scheme: str, speedup: float, ppc_gain: float) -> list[str]:
    """The scheme's objective must be no worse than EqualBW's."""
    gain = ppc_gain if scheme == "PerfPerCostOptBW" else speedup
    if not gain >= 1 - BASELINE_RTOL:
        return [f"{scheme} gain over EqualBW is {gain!r} < 1"]
    return []


def check_row(row) -> list[str]:
    """Check one :class:`~repro.explore.records.ExplorationResult`."""
    if not row.ok:
        return [f"{row.point.label()}: error row: {row.error}"]
    problems = check_allocation(
        row.bandwidths_gbps, row.point.total_bw_gbps, dict(row.point.dim_caps_gbps)
    )
    problems += check_gain(
        row.point.scheme.value, row.speedup_over_equal, row.ppc_gain_over_equal
    )
    return [f"{row.point.label()}: {problem}" for problem in problems]


def row_answer(row) -> tuple:
    """The part of a row a replay must reproduce bit for bit."""
    return (
        tuple(row.bandwidths_gbps),
        tuple(sorted(row.step_times_ms.items())),
        row.network_cost,
    )


def objective(scheme: str, step_time_ms: float, network_cost: float) -> float:
    """The scalar a scheme minimizes."""
    if scheme == "PerfPerCostOptBW":
        return step_time_ms * network_cost
    return step_time_ms


def row_objective(row) -> float:
    return objective(row.point.scheme.value, row.step_time_ms, row.network_cost)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def compare_reference(workload: str, objectives: dict[str, float]) -> list[str]:
    """One-sided comparison of ``label -> objective`` with the committed set."""
    reference = load_reference()[workload]
    problems = []
    if set(reference) != set(objectives):
        problems.append(
            f"reference labels differ: missing {sorted(set(reference) - set(objectives))}, "
            f"extra {sorted(set(objectives) - set(reference))}"
        )
    for label, expected in reference.items():
        got = objectives.get(label)
        if got is not None and not got <= expected * (1 + REFERENCE_RTOL):
            problems.append(
                f"{label}: objective {got!r} exceeds reference {expected!r} "
                f"by more than {REFERENCE_RTOL:g}"
            )
    return problems


def main() -> int:
    from workloads import WORKLOADS

    reference = {}
    for name, cls in WORKLOADS.items():
        workload = cls(seed=0)
        workload.start()
        try:
            reference[name] = workload.reference_objectives()
        finally:
            workload.stop()
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH.name}: "
          + ", ".join(f"{k} {len(v)} points" for k, v in reference.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
