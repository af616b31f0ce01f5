"""Run one workload of the repository benchmark and print its result.

Usage, from the root of a checkout::

    python3 ecbench/run.py --workload hot-hits --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report
with each metric's sample count.  See ``ecbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

WORKLOADS = ("hot-hits", "ec-sessions", "cold-solves", "paper-ec")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "ecbench: run from the root of a checkout (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [root, os.path.join(root, "src")]

    from ecbench import harness, paper, serving

    workdir = os.path.join(root, ".ecbench_run", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload == "paper-ec":
            outcome = paper.run(args.seed, args.seconds, bool(args.trace))
        else:
            outcome = serving.run(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass          # another run still uses it
    harness.emit(args.workload, args.seed, outcome, correct=outcome.failed == 0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
