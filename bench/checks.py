"""Correctness checks made apart from mtnpass.

Every check uses the benchmark's own formulas (surfaces.py) or numpy; none
compares against a stored copy of mtnpass output.
"""

from __future__ import annotations

import numpy as np

GTOL = 1e-8            # mtnpass's default certification tolerance
WELL_XTOL = 1e-6       # distance to the constructed saddle, relative to 1 + |xbar|
GRID_STEP = 0.005      # spacing of the bottleneck grids


class Grid:
    """A surface sampled on a regular grid over its box."""

    def __init__(self, surface, step: float = GRID_STEP):
        x_lo, x_hi, y_lo, y_hi = surface.box
        self.xs = np.linspace(x_lo, x_hi, int(round((x_hi - x_lo) / step)) + 1)
        self.ys = np.linspace(y_lo, y_hi, int(round((y_hi - y_lo) / step)) + 1)
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        self.F = surface.value((X, Y))
        self.hessian_norm = surface.hessian_norm((X, Y))
        self.h = max(self.xs[1] - self.xs[0], self.ys[1] - self.ys[0])

    def node(self, p) -> tuple:
        return (int(np.argmin(np.abs(self.xs - p[0]))),
                int(np.argmin(np.abs(self.ys - p[1]))))

    def bottleneck_level(self, a, b) -> tuple[float, float]:
        """Min-max level between a and b, and its tolerance.

        The level is the least L for which the grid nodes nearest a and b
        lie in one 4-connected component of {f <= L}, found by bisection on
        L. Between neighbouring nodes f can rise above the larger node value
        by at most |Hessian| h^2 / 8, and the optimal path can run up to a
        node spacing away from the grid; the tolerance h^2 max|Hessian|,
        taken over that component, covers both.
        """
        from scipy import ndimage

        ia, ib = self.node(a), self.node(b)

        def component(level):
            labels, _ = ndimage.label(self.F <= level)
            return labels == labels[ia] if labels[ia] and labels[ia] == labels[ib] else None

        lo, hi = max(self.F[ia], self.F[ib]), float(np.max(self.F))
        while hi - lo > 1e-6 * max(1.0, abs(hi)):
            mid = 0.5 * (lo + hi)
            if component(mid) is None:
                lo = mid
            else:
                hi = mid
        tol = float(self.h ** 2 * np.max(self.hessian_norm[component(hi)]))
        return float(hi), tol


def check_pass(surface, x, level: float, tol: float) -> list[str]:
    """Reasons x is not the mountain pass at `level`; empty when it is.

    x must be critical by the benchmark's gradient, have exactly one negative
    Hessian eigenvalue, and sit at the min-max level within the grid tolerance.
    """
    x = np.asarray(x, dtype=float)
    problems = []
    gn = float(np.linalg.norm(surface.gradient(x)))
    if not gn <= GTOL:
        problems.append(f"|grad f| = {gn:.3e} exceeds {GTOL:.0e}")
    n_neg = int(np.sum(np.linalg.eigvalsh(surface.hessian(x)) < 0.0))
    if n_neg != 1:
        problems.append(f"{n_neg} negative Hessian eigenvalues, expected 1")
    f = float(surface.value(x))
    if not abs(f - level) <= tol:
        problems.append(f"f = {f:.6g} is not the min-max level {level:.6g} "
                        f"(grid tolerance {tol:.2e})")
    return problems


def check_well(well, x) -> list[str]:
    """Reasons x is not the well's constructed saddle; empty when it is."""
    err = float(np.linalg.norm(np.asarray(x, dtype=float) - well.xbar))
    limit = WELL_XTOL * (1.0 + float(np.linalg.norm(well.xbar)))
    if not err <= limit:
        return [f"|x - xbar| = {err:.3e} exceeds {limit:.1e}"]
    return []


def check_suite(report: dict) -> list[str]:
    """Reasons a run_suite report is wrong; empty when it is right.

    Beyond zero failures, the report must show what the paper predicts:
    convexity radii of tightness2d strictly shrink as the level nears the
    critical value 0, and g^2's Hessian deviates from the quadratic-model
    reference by exactly 0 on an exact quadratic.
    """
    problems = []
    if report.get("failures") != 0:
        problems.append(f"{report.get('suite')}: {report.get('failures')} failures")
    suite = report.get("suite")
    if suite == "quadratic-oracle":
        if not report["max_rel_err"] <= report["tol"]:
            problems.append(f"closed-form error {report['max_rel_err']:.3e}")
    elif suite == "grad-formulas":
        if report["n_cases"] < 1:
            problems.append("no admissible derivative case was checked")
    elif suite == "hessian-stability":
        quad = report["quadratic"]
        devs = [c["deviation"] for c in quad["comparisons"]]
        if not quad["applicable"] or not devs or any(d != 0.0 for d in devs):
            problems.append(f"quadratic Hessian deviations are not all 0: {devs}")
    elif suite == "convexity":
        sweep = sorted(((float(k), v) for k, v in report["tightness_sweep"].items()),
                       key=lambda kv: -abs(kv[0]))
        radii = [r for _, r in sweep]
        if len(radii) < 2 or any(r1 <= r2 for r1, r2 in zip(radii, radii[1:])):
            problems.append(f"convexity radii do not shrink toward the critical "
                            f"level: {dict(sweep)}")
    else:
        problems.append(f"unknown suite {suite!r}")
    return problems
