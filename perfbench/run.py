"""Benchmark entry point: runs one workload of ivporacle and prints its metrics.

    python3 perfbench/run.py --workload {boosted,deterministic,sweep} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run it from the root of a checkout.  It starts ``bench.py`` in a child
process with ``src/`` on the path and single-threaded BLAS and OpenMP, which
affects only that child, waits for it, and exits with its code.  The child's
last line of output is the JSON result.  Without ``src/ivporacle`` next to
this directory it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: A run measures for about ``--seconds`` and sets up in a few seconds, but
#: makes at least two or three passes, which may take longer when
#: ``--seconds`` is short.  A child that runs past
#: ``2 * seconds + TIMEOUT_MARGIN_S`` is taken to be hung.
TIMEOUT_MARGIN_S = 90


def child_timeout(argv: list[str]) -> float:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--seconds", type=float, default=0.0)
    seconds = parser.parse_known_args(argv)[0].seconds
    return 2 * max(seconds, 0.0) + TIMEOUT_MARGIN_S


def main(argv: list[str]) -> int:
    if not os.path.isfile(os.path.join(SRC, "ivporacle", "__init__.py")):
        print(f"error: no ivporacle sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    timeout = child_timeout(argv)
    try:
        done = subprocess.run([sys.executable, os.path.join(HERE, "bench.py"), *argv],
                              cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {timeout} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
