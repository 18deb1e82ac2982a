"""The benchmark's workloads: operations on mtnpass, and how each is checked.

The inputs are fixed; the seed only sets the order in which a pass runs the
operations. Fixed inputs keep the evaluation counts identical from run to
run, so a change in a count is a change in the program. The pairs and wells
left out are those on which mtnpass fails today (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks
import surfaces

WORKLOADS = ("pairs-2d", "wells-nd", "verify-suites")

# Ordered endpoint pairs (a, b) by minimum index: camel minima in the order
# of surfaces.CAMEL_MINIMA_GUESS, Mueller-Brown minima A, B, C = 0, 1, 2.
# These are all the orders that end today at the correct pass.
CAMEL_PAIRS = [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 0), (2, 3), (2, 4),
               (3, 1), (3, 2), (3, 5), (4, 0), (4, 2), (5, 1), (5, 3), (5, 4)]
MB_PAIRS = [(0, 1), (1, 0), (1, 2), (2, 1)]

# (dimension, construction seed) of the rotated double wells.
WELLS = [(5, 5000), (5, 5001), (10, 10000), (10, 10001), (20, 20000),
         (30, 30000), (50, 50000)]

SUITES = ("quadratic-oracle", "grad-formulas", "hessian-stability", "convexity")
SUITE_SEED = 0


@dataclass
class Operation:
    """One call into mtnpass; `check` lists what is wrong with its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    is_solve: bool = True


def _solve_op(mtnpass, name, n, value, gradient, hessian, a, b, check):
    def run():
        obj = mtnpass.Objective(n, value, gradient, hessian, name=name)
        return mtnpass.solve(obj, a, b)
    return Operation(name, run, lambda report: check(report.x))


def _pairs_2d(mtnpass) -> list:
    ops = []
    grids, levels = {}, {}

    def min_max_level(surface, i, j):
        # Grids are built at check time, after timing, once per surface.
        key = (surface.name, min(i, j), max(i, j))
        if key not in levels:
            if surface.name not in grids:
                grids[surface.name] = checks.Grid(surface)
            levels[key] = grids[surface.name].bottleneck_level(
                surface.minima[i], surface.minima[j])
        return levels[key]

    for surface, pairs in ((surfaces.camel(), CAMEL_PAIRS),
                           (surfaces.mueller_brown(), MB_PAIRS)):
        for i, j in pairs:
            def check(x, surface=surface, i=i, j=j):
                return checks.check_pass(surface, x, *min_max_level(surface, i, j))

            ops.append(_solve_op(mtnpass, f"{surface.name}:{i}->{j}", 2,
                                 surface.value, surface.gradient, surface.hessian,
                                 surface.minima[i], surface.minima[j], check))
    return ops


def _wells_nd(mtnpass) -> list:
    ops = []
    for n, seed in WELLS:
        well = surfaces.double_well(n, seed)
        a, b = well.minima()
        # Value and gradient only: mtnpass falls back to finite-difference
        # Hessians, as it would for a chemistry code.
        ops.append(_solve_op(mtnpass, f"well-n{n}-s{seed}", n, well.value,
                             well.gradient, None, a, b,
                             lambda x, well=well: checks.check_well(well, x)))
    return ops


def _verify_suites(mtnpass) -> list:
    return [Operation(suite, lambda suite=suite: mtnpass.run_suite(suite, SUITE_SEED),
                      checks.check_suite, is_solve=False)
            for suite in SUITES]


def build(workload: str, seed: int, mtnpass) -> list:
    """The workload's operations, in the order the seed gives them."""
    builders = {"pairs-2d": _pairs_2d, "wells-nd": _wells_nd,
                "verify-suites": _verify_suites}
    ops = builders[workload](mtnpass)
    random.Random(seed).shuffle(ops)
    return ops
