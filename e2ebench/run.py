"""Repo benchmark entry point.

    python3 e2ebench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Compiles the sources to bytecode once
(so no run pays it inside a timed region), then starts ``worker.py`` in
a fresh interpreter with ``PYTHONHASHSEED`` fixed, BLAS thread pools at
one thread and ``src`` on the path, relays its output, and exits with its
status. The last line printed is the result JSON; ``--trace 1`` reports
the per-layer metrics instead of the end-to-end ones.

Exits 2, printing no result, when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import compileall
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCES = ROOT / "src"

WORKLOADS = ("sweep", "costrategy", "serve")

#: Seconds after which a run is stopped; a run must end within 180 s.
TIMEOUT_S = 170

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"error: no program at {SOURCES / 'repro'}", file=sys.stderr)
        return 2
    compileall.compile_dir(SOURCES, quiet=1)

    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCES)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(command, env=env, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            # The worker leads its own session: stop it and every process
            # it spawned (helper, probes, server).
            os.killpg(proc.pid, 9)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
