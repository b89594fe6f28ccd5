#!/usr/bin/env python3
"""factkit benchmark: time a workload's CLI commands, in-process.

Run from the repository root::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 45 --trace 0

The run generates its inputs from ``--seed`` (set-up is repeated and its
median reported as ``setup_s``), runs the workload's commands once untimed
to warm the BLAS thread pool and the page cache, then runs cycles of them
back to back for ``--seconds`` through ``factkit.cli.main(argv)`` in this
process, one command at a time (a closed loop with one client). Every
command's outputs are checked; a command that exits non-zero, raises, or
fails a check counts as failed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (medians over the timed cycles). With ``--trace 1``
untimed and traced cycles alternate and the last line carries the
per-layer metrics from spans recorded around each module's functions;
``trace.overhead_s`` is the traced minus the untraced median cycle time.
The line before the result records the environment.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = _parse(argv)
    src = Path.cwd() / "src"
    if not (src / "factkit" / "__init__.py").is_file():
        print(f"error: no factkit sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # Pin BLAS threads before numpy loads, so every run uses the same pool size.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = str(nproc)
    sys.path.insert(0, str(src))
    import bench

    return bench.run(args, Path.cwd(), nproc)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
