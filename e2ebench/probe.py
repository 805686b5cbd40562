"""Set-up probe: a fresh interpreter from start to its first answer.

``python3 e2ebench/probe.py <sweep|costrategy> <seed>`` imports the CLI
module (what every ``repro`` invocation pays), constructs a
``LibraService``, and starts the seed's first unit. At the first cell it
prints one JSON line — ``import_s`` and any check problems of that cell —
and exits at once. The parent times spawn → line.

``python3 e2ebench/probe.py import`` prints only ``import_s``.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _report(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
    os._exit(0)


def main(argv: list[str]) -> None:
    start = time.perf_counter()
    import repro.cli  # noqa: F401 — the import a CLI call pays

    import_s = time.perf_counter() - start
    if argv[0] == "import":
        _report({"import_s": import_s})

    import inputs
    from repro.api import LibraService

    seed = int(argv[1])
    service = LibraService()

    def on_event(event: dict) -> None:
        if event["type"] == "cell":
            problems = [] if event["status"] == "solved" else [f"first cell: {event}"]
            _report({"import_s": import_s, "problems": problems})

    if argv[0] == "sweep":
        from repro.explore import SweepSpec, run_sweep

        grid = inputs.sweep_grids(seed, 1)[0]
        run_sweep(
            SweepSpec(
                workloads=grid.workloads, topologies=(grid.topology,),
                bandwidths_gbps=grid.budgets_gbps, schemes=grid.schemes,
            ),
            service=service, on_event=on_event,
        )
    elif argv[0] == "costrategy":
        from repro.api.requests import CostrategyRequest

        unit = inputs.costrategy_requests(seed, 1)[0][0]
        service.submit(
            CostrategyRequest(
                workload=unit.workload, topology=unit.topology,
                budgets_gbps=unit.budgets_gbps,
            ),
            on_event=on_event,
        )
    _report({"import_s": import_s, "problems": ["no cell was produced"]})


if __name__ == "__main__":
    main(sys.argv[1:])
