"""Self-tests of the benchmark's inputs and counters.

    PYTHONPATH=src python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

from __future__ import annotations

import unittest
from collections import Counter

import inputs
from workloads import WORKLOADS


class InputTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for seed in (0, 1, 7):
            self.assertEqual(inputs.sweep_grids(seed, 20), inputs.sweep_grids(seed, 20))
            self.assertEqual(
                inputs.costrategy_requests(seed, 20), inputs.costrategy_requests(seed, 20)
            )
            self.assertEqual(inputs.serve_ops(seed, 20), inputs.serve_ops(seed, 20))
        self.assertNotEqual(inputs.sweep_grids(1, 5), inputs.sweep_grids(2, 5))
        self.assertNotEqual(inputs.serve_ops(1, 5), inputs.serve_ops(2, 5))

    def test_distinct_sweep_grids_never_share_cache_keys(self):
        from repro.explore import SweepSpec
        from repro.explore.keys import point_key

        grids = inputs.sweep_grids(3, 60) + [inputs.sweep_reference()]
        keys = [
            point_key(point)
            for grid in grids
            for point in SweepSpec(
                workloads=grid.workloads, topologies=(grid.topology,),
                bandwidths_gbps=grid.budgets_gbps, schemes=grid.schemes,
            ).expand()
        ]
        self.assertEqual(len(keys), len(set(keys)))

    def test_costrategy_and_serve_units_never_share_a_budget(self):
        # Cache keys and job ids are content addresses of (workload,
        # strategy, budget); distinct budgets per workload keep them apart.
        for seed in (0, 5):
            requests = [part for unit in inputs.costrategy_requests(seed, 60) for part in unit]
            cells = [
                (request.workload, budget)
                for request in requests + inputs.costrategy_reference()
                for budget in request.budgets_gbps
            ]
            self.assertEqual(len(cells), len(set(cells)))
            fresh = [
                (op.workload, op.budget_gbps)
                for op in inputs.serve_ops(seed, 200) + inputs.serve_reference()
                if op.kind == "fresh"
            ]
            self.assertEqual(len(fresh), len(set(fresh)))

    def test_serve_mix_proportions_hold_for_every_seed(self):
        blocks = 40
        for seed in range(50):
            ops = inputs.serve_ops(seed, blocks)
            kinds = Counter(op.kind for op in ops)
            self.assertEqual(
                kinds, {kind: n * blocks for kind, n in Counter(inputs.SERVE_BLOCK).items()}
            )
            analyzed = [op.target for op in ops if op.kind == "analyze"]
            self.assertEqual(len(analyzed), len(set(analyzed)))
            for index, op in enumerate(ops):
                if op.kind != "fresh":
                    self.assertLess(op.target, index)
                    self.assertEqual(ops[op.target].kind, "fresh")


class DeterministicCountTests(unittest.TestCase):
    """Counters behind the count-type layer metrics repeat exactly."""

    COUNTERS = (
        "solves", "starts", "warm_accepted", "cross_warm_accepted",
        "cross_warm_attempts", "cache_gets", "cache_hits", "round_trips", "dedupe_hits",
        "submissions",
    )

    def _counts(self, name: str, seed: int, units: int) -> dict:
        # trace=True hosts the serve workload in-process and counts round trips.
        workload = WORKLOADS[name](seed, trace=True)
        plan = workload.inputs(units)
        workload.start()
        try:
            records = [workload.run_unit(unit) for unit in plan]
        finally:
            workload.stop()
        self.assertEqual([r.problems for r in records], [[]] * len(records))
        totals = Counter()
        for record in records:
            totals.update(record.counts)
        return {name: totals[name] for name in self.COUNTERS}

    def test_counts_repeat_for_one_seed(self):
        for name, units in (("sweep", 2), ("costrategy", 2), ("serve", 2)):
            with self.subTest(workload=name):
                first = self._counts(name, 4, units)
                self.assertGreater(first["solves"], 0)
                self.assertEqual(first, self._counts(name, 4, units))


if __name__ == "__main__":
    unittest.main()
