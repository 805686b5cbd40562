"""Seeded inputs for the three workloads.

Everything here is plain data built from ``random.Random`` seeded with a
string, so the same seed gives the same inputs on every machine and
Python version. Budgets of one run come from a single draw without
replacement, so no two timed units share a budget — and therefore no
cache key. The reference units use whole-number budgets, which the
drawn pool excludes, so they never share keys with timed units either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TOPOLOGY = "4D-4K"

SWEEP_WORKLOADS = ("GPT-3", "MSFT-1T")
SWEEP_SCHEMES = ("perf", "perf-per-cost")
SWEEP_BUDGETS_PER_GRID = 6

COSTRATEGY_WORKLOADS = ("MoE-1T", "Long-128K")
COSTRATEGY_BUDGETS_PER_REQUEST = 4

SERVE_WORKLOADS = ("GPT-3", "MSFT-1T", "Turing-NLG")

#: Op kinds of the serve mix, in block order. Every block has this shape,
#: so the mix proportions hold exactly for every seed. 2:1:1 is a chosen
#: design mix, not measured usage (the repo has no traffic record): fresh
#: solves, the service's main work, are the majority of computed ops, and
#: every block also yields a dedupe hit and an analyze request, so each
#: run has enough samples of all three (see e2ebench/README.md).
SERVE_BLOCK = ("fresh", "fresh", "repeat", "analyze")

#: A repeat re-sends one of this many most recent fresh requests.
SERVE_REPEAT_WINDOW = 8


def budget_pool(seed: int, stream: str, count: int) -> list[float]:
    """``count`` distinct budgets in [100, 1000) GB/s, none a whole number."""
    rng = random.Random(f"{stream}:{seed}:budgets")
    candidates = [k for k in range(10_000, 100_000) if k % 100]
    return [k / 100 for k in rng.sample(candidates, count)]


@dataclass(frozen=True)
class Grid:
    """One fig13/14-style sweep grid: workloads × budgets × schemes."""

    budgets_gbps: tuple[float, ...]
    workloads: tuple[str, ...] = SWEEP_WORKLOADS
    schemes: tuple[str, ...] = SWEEP_SCHEMES
    topology: str = TOPOLOGY


def sweep_grids(seed: int, count: int) -> list[Grid]:
    budgets = budget_pool(seed, "sweep", count * SWEEP_BUDGETS_PER_GRID)
    step = SWEEP_BUDGETS_PER_GRID
    return [
        Grid(budgets_gbps=tuple(sorted(budgets[i * step:(i + 1) * step])))
        for i in range(count)
    ]


def sweep_reference() -> Grid:
    return Grid(budgets_gbps=(100.0, 250.0, 400.0, 550.0, 700.0, 1000.0))


@dataclass(frozen=True)
class Costrategy:
    """One joint strategy × bandwidth search request (default space)."""

    workload: str
    budgets_gbps: tuple[float, ...]
    topology: str = TOPOLOGY


def costrategy_requests(seed: int, count: int) -> list[tuple[Costrategy, ...]]:
    """``count`` units, each one request per preset in a seeded order.

    A unit holds both presets because their replays differ in cost by
    ~1.6x: per-preset units would make the hit latencies two clusters
    with the median falling in the gap between them.
    """
    per_unit = len(COSTRATEGY_WORKLOADS)
    step = COSTRATEGY_BUDGETS_PER_REQUEST
    budgets = budget_pool(seed, "costrategy", count * per_unit * step)
    rng = random.Random(f"costrategy:{seed}:order")
    units = []
    for i in range(count):
        order = list(COSTRATEGY_WORKLOADS)
        rng.shuffle(order)
        units.append(tuple(
            Costrategy(
                workload=workload,
                budgets_gbps=tuple(sorted(budgets[(i * per_unit + j) * step:][:step])),
            )
            for j, workload in enumerate(order)
        ))
    return units


def costrategy_reference() -> list[Costrategy]:
    return [
        Costrategy(workload=workload, budgets_gbps=(200.0, 600.0))
        for workload in COSTRATEGY_WORKLOADS
    ]


@dataclass(frozen=True)
class ServeOp:
    """One closed-loop client op.

    ``fresh`` solves (workload, budget); ``repeat`` re-sends the fresh op
    at index ``target``; ``analyze`` analyzes the answer of the fresh op
    at index ``target``.
    """

    kind: str
    workload: str = ""
    budget_gbps: float = 0.0
    target: int = -1


def serve_ops(seed: int, blocks: int) -> list[ServeOp]:
    """``blocks`` × :data:`SERVE_BLOCK`; every analyze target is unique."""
    rng = random.Random(f"serve:{seed}:mix")
    fresh_per_block = SERVE_BLOCK.count("fresh")
    budgets = budget_pool(seed, "serve", blocks * fresh_per_block)
    ops: list[ServeOp] = []
    fresh: list[int] = []
    for block in range(blocks):
        block_fresh: list[int] = []
        for kind in SERVE_BLOCK:
            if kind == "fresh":
                index = len(fresh)
                block_fresh.append(len(ops))
                fresh.append(len(ops))
                ops.append(ServeOp(
                    kind="fresh",
                    workload=SERVE_WORKLOADS[index % len(SERVE_WORKLOADS)],
                    budget_gbps=budgets[index],
                ))
            elif kind == "repeat":
                ops.append(ServeOp(
                    kind="repeat",
                    target=rng.choice(fresh[-SERVE_REPEAT_WINDOW:]),
                ))
            else:
                ops.append(ServeOp(kind="analyze", target=rng.choice(block_fresh)))
    return ops


def serve_reference() -> list[ServeOp]:
    return [
        ServeOp(kind="fresh", workload=workload, budget_gbps=budget)
        for workload in SERVE_WORKLOADS
        for budget in (300.0, 800.0)
    ]
