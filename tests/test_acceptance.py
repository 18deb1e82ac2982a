"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. Every expected value is either exact arithmetic or frozen from
the independent oracles in oracles.py.
"""

import json
import time

import numpy as np
import pytest

import oracles
from mtnpass.cli import main as cli_main
from mtnpass.driver import solve
from mtnpass.objective import Objective, six_hump_camel, tightness2d
from mtnpass.pardist import closed_form_g2_quadratic
from mtnpass.quadmodel import generate_morse1, newton_refine, saddle_of
from mtnpass.objective import TrustRegion
from mtnpass.line1d import find_level_crossings
from mtnpass.verify import (check_hessian_stability, convexity_radius_sweep,
                            quadratic_oracle_suite, run_suite)


def announce(number: int, title: str, ok: bool, detail: str = ""):
    print(f"criterion {number} [{title}]: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_quadratic_oracle_equivalence():
    t0 = time.perf_counter()
    report = quadratic_oracle_suite(n_models=200, seed=0)
    elapsed = time.perf_counter() - t0
    ok = report["failures"] == 0 and elapsed < 10.0
    announce(1, "quadratic oracle equivalence", ok,
             f"max rel err {report['max_rel_err']:.2e}, {elapsed:.2f}s")


def test_criterion_2_derivative_formulas():
    t0 = time.perf_counter()
    report = run_suite("grad-formulas", seed=0)
    elapsed = time.perf_counter() - t0
    ok = (report["n_cases"] >= 70 and report["failures"] == 0
          and report["max_rel_grad_err"] < 1e-4
          and report["max_rel_hess_err"] < 1e-4
          and elapsed < 30.0)
    announce(2, "derivative formulas vs finite differences", ok,
             f"{report['n_cases']} samples, grad {report['max_rel_grad_err']:.2e}, "
             f"hess {report['max_rel_hess_err']:.2e}, {elapsed:.1f}s")


def test_criterion_3_eigenstructure():
    worst = 0.0
    for k in range(50):
        n = 2 + k % 5
        model = generate_morse1(n, seed=6000 + k)
        vbar = model.negative_eigenvector
        lam = model.eigenvalues
        _, _, hess = closed_form_g2_quadratic(model, np.zeros(n), vbar,
                                              float(saddle_of(model)[1]) - 1.0)
        got = np.sort(np.linalg.eigvalsh(hess))
        want = np.sort(np.concatenate([[0.0], -8.0 * lam[:-1] / lam[-1]]))
        scale = np.max(np.abs(want))
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    announce(3, "closed-form Hessian eigenstructure", worst <= 1e-8,
             f"max rel eigenvalue error {worst:.2e} over 50 models")


def test_criterion_4_midpoint_saddle_property():
    worst = 0.0
    rng = np.random.default_rng(4)
    for k in range(25):
        n = 2 + k % 5
        model = generate_morse1(n, seed=6100 + k)
        xbar, fbar = saddle_of(model)
        v = model.negative_eigenvector
        level = fbar - rng.uniform(0.2, 1.0)
        alpha = float(v @ model.H @ v)
        Hv = model.H @ v
        A = np.outer(Hv, Hv) - alpha * model.H
        b = float(model.g @ v) * Hv - alpha * model.g
        x_tilde = np.linalg.lstsq(A, -b, rcond=None)[0]
        section = find_level_crossings(model, x_tilde, v, level,
                                       TrustRegion(x_tilde, 50.0))
        worst = max(worst, float(np.linalg.norm(section.midpoint - xbar)))
    announce(4, "midpoint of minimizer section recovers the saddle",
             worst <= 1e-8, f"max midpoint error {worst:.2e} over 25 models")


def test_criterion_5_six_hump_camel_runs():
    t0 = time.perf_counter()
    r1 = solve(six_hump_camel(), np.array([0.0898, -0.7126]),
               np.array([-0.0898, 0.7126]))
    t1 = time.perf_counter() - t0
    ok1 = (r1.status == "SaddleFound" and r1.grad_norm <= 1e-8
           and r1.morse_index == 1 and t1 < 5.0)

    t0 = time.perf_counter()
    r2 = solve(six_hump_camel(), np.array([-1.7036067150, 0.7960835687]),
               np.array([-0.0898420131, 0.7126564030]))
    t2 = time.perf_counter() - t0
    dist = float(np.linalg.norm(r2.x - np.array([-1.0, 0.8])))
    ok2 = (r2.status == "SaddleFound" and r2.grad_norm <= 1e-8
           and r2.morse_index == 1 and dist <= 0.15 and t2 < 5.0)
    announce(5, "six-hump camel reproduction", ok1 and ok2,
             f"run1 f={r1.f:.3e} ({t1:.2f}s); "
             f"run2 at {r2.x.round(4).tolist()}, {dist:.3f} from (-1,0.8) "
             f"({t2:.2f}s)")


def test_criterion_6_hessian_stability_trend():
    camel_rep = check_hessian_stability(six_hump_camel(), np.zeros(2))
    ok = camel_rep.applicable
    detail = []
    for label in ("aligned", "perturbed"):
        comps = camel_rep.by_v(label)
        devs = [c.deviation for c in comps]
        ok = ok and len(devs) == 8
        ok = ok and all(cur <= 1.5 * prev for prev, cur in zip(devs, devs[1:]))
        ok = ok and devs[-1] <= 1e-2 * comps[-1].href_norm
        detail.append(f"{label} final {devs[-1] / comps[-1].href_norm:.2e}")
    model = generate_morse1(4, seed=61)
    quad_rep = check_hessian_stability(model, saddle_of(model)[0])
    ok = ok and quad_rep.applicable
    ok = ok and all(c.deviation == 0.0 for c in quad_rep.comparisons)
    announce(6, "Hessian stability trend", ok,
             "; ".join(detail) + "; quadratic deviations identically 0")


def test_criterion_7_convexity_shrinkage():
    tight = tightness2d()
    _, evecs = np.linalg.eigh(tight.hessian(np.zeros(2)))
    vbar = evecs[:, 0]
    sweep = convexity_radius_sweep(tight, np.zeros(2), vbar,
                                   levels=[-0.1, -0.01, -0.001], seed=0)
    radii = [sweep[l] for l in (-0.1, -0.01, -0.001)]
    ok = radii[0] > radii[1] > radii[2] > 0.0
    announce(7, "convexity region shrinks as the level rises", ok,
             f"violation-free radii {radii} for levels [-0.1, -0.01, -0.001]")


def test_criterion_8_newton_quadratic_convergence():
    worst = 0.0
    for x0, x_star in ((np.array([0.1, 0.05]), np.zeros(2)),
                       (np.array([-1.05, 0.75]), oracles.newton_polish(
                           oracles.camel_gradient, oracles.camel_hessian,
                           np.array([-1.05, 0.75])))):
        camel = six_hump_camel()
        iterates = []  # one gradient per Newton iterate, the start included

        def gradient(x):
            iterates.append(np.array(x))
            return camel.gradient(x)

        recorded = Objective(2, camel.value, gradient, camel.hessian)
        res = newton_refine(recorded, x0, TrustRegion(x0, 10.0), gtol=1e-12)
        assert res.converged
        errs = [float(np.linalg.norm(p - x_star)) for p in iterates]
        pairs = [(errs[k], errs[k + 1]) for k in range(len(errs) - 1)]
        for e_k, e_next in pairs[-3:]:
            if e_k > 1e-12:
                worst = max(worst, e_next / e_k ** 2)
    announce(8, "Newton quadratic convergence", worst <= 50.0,
             f"max final-3 ratio e_next/e^2 = {worst:.3f}")


def test_criterion_9_cli_determinism(tmp_path):
    pairs = []
    for tag in ("a", "b"):
        d = tmp_path / f"solve_{tag}"
        code = cli_main(["solve", "--function", "six_hump_camel",
                         "--a", "0.0898,-0.7126", "--b", "-0.0898,0.7126",
                         "--seed", "0", "--out", str(d)])
        assert code == 0
        pairs.append((d / "report.json", d / "trace.json"))
    ok = (pairs[0][0].read_bytes() == pairs[1][0].read_bytes()
          and pairs[0][1].read_bytes() == pairs[1][1].read_bytes())

    vdirs = []
    for tag in ("a", "b"):
        d = tmp_path / f"verify_{tag}"
        code = cli_main(["verify", "--suite", "quadratic-oracle",
                         "--seed", "0", "--out", str(d)])
        assert code == 0
        vdirs.append(d / "quadratic-oracle.json")
    ok = ok and vdirs[0].read_bytes() == vdirs[1].read_bytes()
    announce(9, "CLI determinism (byte-identical reports)", ok)
