"""Golden outcomes: solve reports, traces and suite JSON, frozen byte for byte.

The files under tests/golden/ pin what a change that only saves evaluations
must leave alone. Each solve keeps its report without eval_counts (the
counts are what such a change lowers) and its trace; each suite keeps its
whole JSON. Regenerate the files, only after a deliberate change of
outcome, with

    PYTHONPATH=src python tests/test_golden.py

which rewrites every solve's report.json and trace.json and every suite's
NAME.json (quadratic-oracle.json and grad-formulas.json, at seed 0).
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracles
from mtnpass.driver import solve
from mtnpass.objective import Objective, six_hump_camel
from mtnpass.verify import run_suite

GOLDEN = Path(__file__).parent / "golden"


def _readme_pair():
    return solve(six_hump_camel(), np.array([0.0898, -0.7126]),
                 np.array([-0.0898, 0.7126]))


def _camel_ldown_pair():
    # Minima 0 and 5 of the camel: Init, two LUps, then an LDown that finds
    # f monotone, so the solve ends in Breakdown. The first LUp puts an
    # endpoint next to the origin, an index-one saddle that is not the pass
    # (ROADMAP item 2), with |grad f| = 2e-8, above gtol, so the
    # small-gradient stop does not certify it.
    return solve(six_hump_camel(), np.array(oracles.CAMEL_MINIMA[0][:2]),
                 np.array(oracles.CAMEL_MINIMA[5][:2]))


def _camel_ldown_min3():
    # Minima 0 and 3 of the camel: Init, LUp, then an LDown that fails, so
    # the solve ends in Breakdown (ROADMAP item 1).
    return solve(six_hump_camel(), np.array(oracles.CAMEL_MINIMA[0][:2]),
                 np.array(oracles.CAMEL_MINIMA[3][:2]))


def _double_well_fd():
    # Value and gradient only: every Hessian is a finite difference.
    well = oracles.DoubleWell(5)
    a, b = well.minima()
    return solve(Objective(5, well.value, well.gradient), a, b)


SOLVES = {"camel-readme": _readme_pair, "camel-ldown": _camel_ldown_pair,
          "camel-ldown-min3": _camel_ldown_min3,
          "double-well-5-fd": _double_well_fd}
SUITES = ("quadratic-oracle", "grad-formulas")


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def solve_files(name: str) -> dict:
    report = SOLVES[name]()
    summary = report.to_dict()
    del summary["eval_counts"]
    return {"report.json": _dumps(summary),
            "trace.json": _dumps({"records": [r.to_dict() for r in report.trace]})}


def suite_file(name: str) -> str:
    return _dumps(run_suite(name, seed=0))


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_solve_matches_golden(name):
    for fname, text in solve_files(name).items():
        assert text == (GOLDEN / name / fname).read_text(), f"{name}/{fname}"


@pytest.mark.parametrize("name", SUITES)
def test_suite_matches_golden(name):
    assert suite_file(name) == (GOLDEN / f"{name}.json").read_text()


def test_ldown_golden_passes_through_ldown():
    trace = json.loads((GOLDEN / "camel-ldown-min3" / "trace.json").read_text())
    assert "LDown" in [r["step"] for r in trace["records"]]


if __name__ == "__main__":
    for name in SOLVES:
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
        for fname, text in solve_files(name).items():
            (GOLDEN / name / fname).write_text(text)
    for name in SUITES:
        (GOLDEN / f"{name}.json").write_text(suite_file(name))
