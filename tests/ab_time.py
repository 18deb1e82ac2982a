"""CPU time of one benchmark workload on two trees, measured in one process.

    python tests/ab_time.py PARENT CHANGE --workload W --rounds R

PARENT and CHANGE are checkouts of this repository (A and B). Both trees'
`src/mtnpass` packages are loaded into this process under two names, and
each side's operations are built by `bench/workloads.build(W, 0, package)`
from the bench/ next to this file. Every operation runs once to warm up.
Each round then runs every operation of A and its twin of B back to back,
in a random order per pair, and sums `time.process_time` per side. The
printout is the median B/A ratio of the round sums, its 10th-90th
percentiles and the number of rounds in which B took less time, then each
operation that raised on either side. A ratio below 1 means B is faster.
Timing both sides in one process, interleaved, keeps the spread between
processes out of the comparison.

The BLAS and OpenMP pools are pinned to one thread before numpy is
imported, as bench/run.py does; a helper thread would add its CPU time to
process_time. The bench modules are read, never written. Pytest does not
collect this file.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no cache files in either tree
sys.path[:0] = [str(HERE.parent / "bench")]

import workloads  # noqa: E402


def load_package(tree: str, name: str):
    """The mtnpass package of tree/src, imported as the module `name`."""
    pkg = Path(tree).resolve() / "src" / "mtnpass"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed(op, failed: set) -> float:
    """CPU seconds of one run of op. A run that raises is timed too, as
    bench/run.py counts a failed operation, and its name goes into failed."""
    t0 = time.process_time()
    try:
        op.run()
    except Exception as err:
        failed.add(f"{op.name} ({type(err).__name__}: {err})")
    return time.process_time() - t0


def ratios(ops_a: list, ops_b: list, rounds: int, rng: random.Random,
           failed: dict) -> list:
    """The B/A ratio of the summed CPU time of each round."""
    for side, ops in (("a", ops_a), ("b", ops_b)):
        for op in ops:
            timed(op, failed[side])
    out = []
    for _ in range(rounds):
        total = {"a": 0.0, "b": 0.0}
        for pair in zip(ops_a, ops_b):
            sides = [("a", pair[0]), ("b", pair[1])]
            rng.shuffle(sides)
            for side, op in sides:
                total[side] += timed(op, failed[side])
        out.append(total["b"] / total["a"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout A, the baseline")
    parser.add_argument("change", help="checkout B, timed against A")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    ops = [workloads.build(args.workload, 0, load_package(tree, name))
           for tree, name in ((args.parent, "mtnpass_a"), (args.change, "mtnpass_b"))]
    failed = {"a": set(), "b": set()}
    r = ratios(*ops, args.rounds, random.Random(0), failed)
    deciles = statistics.quantiles(r, n=10)
    won = sum(x < 1.0 for x in r)
    print(f"{args.workload}: B/A {statistics.median(r):.4f} "
          f"(10th-90th percentile {deciles[0]:.4f}-{deciles[-1]:.4f}), "
          f"B faster in {won} of {len(r)} rounds")
    for side in "ab":
        for name in sorted(failed[side]):
            print(f"{side.upper()} failed: {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
