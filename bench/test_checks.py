"""Tests of the benchmark's own formulas, checkers and instrumentation.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import surfaces  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def camel():
    return surfaces.camel()


@pytest.fixture(scope="module")
def camel_grid(camel):
    return checks.Grid(camel)


@pytest.fixture(scope="module")
def mb():
    return surfaces.mueller_brown()


def critical(surface, guess):
    return surfaces.newton_critical(surface.gradient, surface.hessian, guess)


def fd_gradient(f, x, h=1e-6):
    return np.array([(f(x + h * e) - f(x - h * e)) / (2 * h) for e in np.eye(x.size)])


def fd_jacobian(g, x, h=1e-6):
    return np.array([(g(x + h * e) - g(x - h * e)) / (2 * h) for e in np.eye(x.size)]).T


@pytest.mark.parametrize("name", ["camel", "mb", "well"])
def test_formulas_agree_with_finite_differences(name):
    rng = np.random.default_rng(7)
    if name == "camel":
        s = surfaces.camel()
        value, gradient, hessian = s.value, s.gradient, s.hessian
        points = rng.uniform(-1.5, 1.5, (5, 2))
    elif name == "mb":
        s = surfaces.mueller_brown()
        value, gradient, hessian = s.value, s.gradient, s.hessian
        points = rng.uniform(-1.0, 1.0, (5, 2)) + np.array([-0.3, 0.8])
    else:
        w = surfaces.double_well(5, 5000)
        value, gradient, hessian = w.value, w.gradient, w.hessian
        points = w.xbar + rng.standard_normal((5, 5))
    for x in points:
        g = gradient(x)
        assert np.allclose(fd_gradient(value, x), g, rtol=1e-6, atol=1e-6 * (1 + abs(g).max()))
        H = hessian(x)
        assert np.allclose(fd_jacobian(gradient, x), H, rtol=1e-5, atol=1e-5 * (1 + abs(H).max()))


def test_minima_are_distinct_minima(camel, mb):
    for s, count in ((camel, 6), (mb, 3)):
        assert len({tuple(np.round(m, 6)) for m in s.minima}) == count
        for m in s.minima:
            assert np.linalg.norm(s.gradient(m)) <= 1e-10
            assert np.all(np.linalg.eigvalsh(s.hessian(m)) > 0)


def test_origin_is_rejected_for_camel_minima_0_5(camel, camel_grid):
    level, tol = camel_grid.bottleneck_level(camel.minima[0], camel.minima[5])
    assert abs(level - 0.5437186) <= tol
    # The origin is a certified index-one saddle, but of the wrong pass.
    problems = checks.check_pass(camel, np.zeros(2), level, tol)
    assert len(problems) == 1 and "min-max level" in problems[0]
    for guess in ((1.109, -0.768), (-1.109, 0.768)):
        assert checks.check_pass(camel, critical(camel, guess), level, tol) == []


def test_camel_twin_passes_are_both_accepted(camel, camel_grid):
    level, tol = camel_grid.bottleneck_level(camel.minima[0], camel.minima[4])
    for guess in ((1.638, 0.2287), (1.296, 0.605)):
        assert checks.check_pass(camel, critical(camel, guess), level, tol) == []
    top = critical(camel, (1.230, 0.162))  # the local max between the twins
    problems = checks.check_pass(camel, top, level, tol)
    assert any("negative Hessian eigenvalues" in p for p in problems)
    assert any("min-max level" in p for p in problems)


def test_minimum_and_regular_point_are_rejected(camel, camel_grid):
    level, tol = camel_grid.bottleneck_level(camel.minima[2], camel.minima[3])
    assert abs(level) <= tol
    assert any("negative Hessian" in p for p in
               checks.check_pass(camel, camel.minima[2], level, tol))
    assert any("grad f" in p for p in
               checks.check_pass(camel, np.array([0.1, 0.1]), level, tol))


def test_mueller_brown_levels(mb):
    grid = checks.Grid(mb)
    ab, tol_ab = grid.bottleneck_level(mb.minima[0], mb.minima[1])
    bc, tol_bc = grid.bottleneck_level(mb.minima[1], mb.minima[2])
    high, low = critical(mb, (-0.822, 0.624)), critical(mb, (0.212, 0.293))
    assert checks.check_pass(mb, high, ab, tol_ab) == []
    assert checks.check_pass(mb, low, bc, tol_bc) == []
    assert checks.check_pass(mb, low, ab, tol_ab) != []


def test_well_check():
    well = surfaces.double_well(10, 10000)
    a, b = well.minima()
    assert np.linalg.norm(well.gradient(well.xbar)) <= 1e-12
    assert int(np.sum(np.linalg.eigvalsh(well.hessian(well.xbar)) < 0)) == 1
    for m in (a, b):
        assert np.linalg.norm(well.gradient(m)) <= 1e-10
        assert np.all(np.linalg.eigvalsh(well.hessian(m)) > 0)
        assert checks.check_well(well, m) != []
    assert checks.check_well(well, well.xbar) == []
    assert checks.check_well(well, well.xbar + 1e-4) != []


def test_suite_check():
    good = {"suite": "convexity", "failures": 0,
            "tightness_sweep": {"-0.1": 0.8, "-0.01": 0.26, "-0.001": 0.22}}
    assert checks.check_suite(good) == []
    flat = dict(good, tightness_sweep={"-0.1": 0.8, "-0.01": 0.26, "-0.001": 0.26})
    assert checks.check_suite(flat) != []
    assert checks.check_suite(dict(good, failures=1)) != []
    stab = {"suite": "hessian-stability", "failures": 0,
            "quadratic": {"applicable": True,
                          "comparisons": [{"deviation": 0.0}, {"deviation": 0.0}]}}
    assert checks.check_suite(stab) == []
    stab["quadratic"]["comparisons"][1]["deviation"] = 1e-17
    assert checks.check_suite(stab) != []


def test_metric_names_match_benchmark_json():
    import mtnpass

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    timed = [(1.0, [], {"value": 1, "gradient": 1, "hessian": 1})]
    e2e = run.end_to_end([None], [1.0, 1.0], timed, 50.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in spec["end_to_end"])
    layer = run.per_layer([None], spans.Tracer(mtnpass), timed, timed)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]][1] for m in spec["per_layer"])


def test_traced_solve_reconciles_and_uninstalls():
    import mtnpass

    originals = (mtnpass.driver.step_pd, mtnpass.subroutines.find_level_crossings,
                 mtnpass.Objective.__init__)
    op = next(o for o in workloads.build("pairs-2d", 0, mtnpass)
              if o.name == "six_hump_camel:0->2")
    ledger = spans.Ledger(mtnpass.Objective)
    tracer = spans.Tracer(mtnpass)
    ledger.install()
    ledger.tracer = tracer
    tracer.install()
    try:
        report = op.run()
    finally:
        tracer.uninstall()
        ledger.uninstall()
    assert len(ledger.objectives) == 1  # the driver's gradient watch is not counted
    counts = ledger.take()
    assert counts == report.eval_counts
    assert tracer.reconciles_with(counts)
    assert tracer.stats["driver.solve"]["calls"] == 1
    assert tracer.stats["subroutines.step_pd"]["calls"] >= 1
    assert tracer.objective_s > 0
    assert op.check(report) == []
    assert originals == (mtnpass.driver.step_pd, mtnpass.subroutines.find_level_crossings,
                         mtnpass.Objective.__init__)


def test_tracer_refuses_a_missing_layer_function(monkeypatch):
    import mtnpass

    monkeypatch.delattr(mtnpass.quadmodel, "decompose")
    with pytest.raises(LookupError, match="decompose"):
        spans.Tracer(mtnpass)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pairs-2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
