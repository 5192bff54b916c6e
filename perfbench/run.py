"""The repository benchmark: one command, two workloads, every surface.

Run from the repository root::

    python3 perfbench/run.py --workload iscas --seed 1 --seconds 50 --trace 0

Each workload drives the program only through its public entry points
(``repro.cli.main`` in this process, ``python -m repro.cli`` cold
starts, and ``repro-9c serve`` over TCP), checks every output, and
prints one JSON line last.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps the program's layers from here and reports
per-layer metrics instead.  See perfbench/README.md for the workloads,
the metrics and which layer should move which end-to-end number.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    args = _parse_args()
    if not (SRC / "repro" / "cli.py").is_file():
        print("perfbench: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import procstat
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # a terminated run still unwinds, stopping the server and its pool
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = workloads.run(workloads.WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace), workdir, env)
    finally:
        killed = procstat.stop_descendants()
        shutil.rmtree(workdir, ignore_errors=True)
    if killed:
        print(f"perfbench: processes {killed} were still running at the end",
              file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
