"""Numerical verification suites for the parallel-distance machinery.

Three families of checks: derivative formulas of g^2 against finite
differences of the root-finding evaluation, stability of the Hessian of g^2
near a saddle against the constant reference Hessian predicted by the local
quadratic model, and convexity probes of g^2 (midpoint tests and reduced
eigenvalues). All suites are deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import CrossingOutsideRegion, MtnpassError, NoLineMax
from .line1d import LineSection, find_level_crossings
from .objective import (Objective, TrustRegion, fd_gradient, six_hump_camel,
                        tightness2d)
from .pardist import (closed_form_g2_quadratic, closed_form_hess_g2,
                      derivatives_from_section, eval_pardist)
from .quadmodel import (QuadraticObjective, complement_basis, decompose,
                        generate_morse1, negative_count, saddle_of)

ADMISSIBLE_MIN_G = 0.1
ADMISSIBLE_MIN_DENOM = 0.1
# Finite-difference steps of the root-finding g^2, scaled by max(1, |x|_inf),
# and the relative errors the endpoint formulas may show against them.
FD_G2_GRAD_STEP = 1e-5
FD_G2_HESS_STEP = 1e-4
GRAD_TOL = 1e-4
HESS_TOL = 1e-4
# Hessian stability sweep: see check_hessian_stability and trend_ok.
N_SCALES = 8
SCALE_START = 2
STABILITY_R0 = 0.5
STABILITY_E0_FRAC = 0.25
V_GAP = 0.05
STABILITY_REGION_RADIUS = 2.0
TREND_GROWTH_FACTOR = 1.5
TREND_FINAL_FRAC = 1e-2
# Convexity probes: see check_convexity_region and convexity_radius_sweep.
CONVEXITY_SLACK = 1e-10
SWEEP_RADII = np.linspace(0.02, 0.8, 40)
SWEEP_N_PAIRS = 60
SWEEP_REGION_RADIUS = 2.0
ORACLE_TOL = 1e-8   # relative error of root-finding g^2 against the closed form


def _section_or_none(obj: Objective, x: np.ndarray, v: np.ndarray, level: float,
                     region: TrustRegion,
                     near: Optional[LineSection] = None) -> Optional[LineSection]:
    """The section through x by root finding, continued from near when that
    is a non-empty section; None when it escapes the region."""
    if near is not None and near.empty:
        near = None
    try:
        return find_level_crossings(obj, x, v, level, region, near)
    except (CrossingOutsideRegion, NoLineMax):
        return None


def fd_hess_g2(g2, x: np.ndarray, g2_x: float) -> np.ndarray:
    """Second central differences of a scalar function g2, Richardson-
    extrapolated: (4 H(h/2) - H(h)) / 3 cancels the h^2 truncation term of
    the differences H(h) (upper triangle, mirrored).

    g2_x = g2(x) is the centre of the diagonal differences, which are not
    probed there. A probe that raises ends the difference and the exception
    propagates.
    """
    x = np.asarray(x, dtype=float)
    h = FD_G2_HESS_STEP * max(1.0, float(np.max(np.abs(x))))
    n = x.size

    def second_differences(h: float) -> np.ndarray:
        H = np.empty((n, n))
        for i in range(n):
            ei = np.zeros(n); ei[i] = h
            H[i, i] = (g2(x + ei + ei) - 2.0 * g2_x + g2(x - ei - ei)) \
                / (4.0 * h * h)
            for j in range(i + 1, n):
                ej = np.zeros(n); ej[j] = h
                vals = [g2(x + ei + ej), g2(x + ei - ej), g2(x - ei + ej),
                        g2(x - ei - ej)]
                H[i, j] = H[j, i] = (vals[0] - vals[1] - vals[2] + vals[3]) \
                    / (4.0 * h * h)
        return H

    return (4.0 * second_differences(0.5 * h) - second_differences(h)) / 3.0


@dataclass
class GradFormulaReport:
    n_cases: int = 0
    n_skipped: int = 0
    n_failures: int = 0
    max_rel_grad_err: float = 0.0
    max_rel_hess_err: float = 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "grad_tol": GRAD_TOL, "hess_tol": HESS_TOL}


def _admissible(pe) -> bool:
    return (pe.g > ADMISSIBLE_MIN_G
            and abs(pe.denom_z) > ADMISSIBLE_MIN_DENOM
            and abs(pe.denom_zp) > ADMISSIBLE_MIN_DENOM)


def quadratic_sample_cases(n_cases: int = 50, seed: int = 0) -> list[dict]:
    """Admissible (objective, x, v, level, region) samples on random models."""
    rng = np.random.default_rng(seed)
    cases = []
    k = 0
    while len(cases) < n_cases and k < 50 * n_cases:
        k += 1
        n = 2 + k % 5
        model = generate_morse1(n, seed=seed * 100000 + k)
        xbar, fbar = saddle_of(model)
        v = model.negative_eigenvector + 0.2 * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        if float(v @ model.H @ v) >= 0.2 * model.eigenvalues[-1]:
            continue
        x = xbar + 0.3 * rng.standard_normal(n) / np.sqrt(n)
        level = fbar - rng.uniform(0.05, 0.5)
        region = TrustRegion(x, 50.0)
        try:
            pe = eval_pardist(model, x, v, level, region)
        except MtnpassError:
            continue
        if pe.section.empty or not _admissible(pe):
            continue
        cases.append({"obj": model, "x": x, "v": v, "level": level,
                      "region": region, "label": f"quadratic-{k}"})
    return cases


def camel_sample_cases(n_cases: int = 20, seed: int = 0) -> list[dict]:
    """Admissible samples near the origin saddle of the camel function."""
    rng = np.random.default_rng(seed + 1)
    camel = six_hump_camel()
    _, evecs = decompose(camel.hessian(np.zeros(2)))
    vbar = evecs[:, -1]
    region = TrustRegion(np.zeros(2), 10.0)
    cases = []
    k = 0
    while len(cases) < n_cases and k < 50 * n_cases:
        k += 1
        v = vbar + 0.1 * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        x = 0.25 * rng.standard_normal(2)
        level = -rng.uniform(0.05, 0.3)
        try:
            pe = eval_pardist(camel, x, v, level, region)
        except MtnpassError:
            continue
        if pe.section.empty or not _admissible(pe):
            continue
        cases.append({"obj": camel, "x": x, "v": v, "level": level,
                      "region": region, "label": f"camel-{k}"})
    return cases


def check_grad_formulas(cases: list[dict]) -> GradFormulaReport:
    """Compare the endpoint-formula grad/hess of g^2 with finite differences.

    Every finite-difference probe of g^2 continues its section from the
    case's own section (find_level_crossings with near). Relative errors are
    guarded: |diff| / (1 + |analytic|). Samples where the denominators
    degenerate or a finite-difference probe escapes the region are counted
    as skipped, not failed.
    """
    report = GradFormulaReport()
    for case in cases:
        obj, x, v = case["obj"], case["x"], case["v"]
        level, region = case["level"], case["region"]
        try:
            pe = eval_pardist(obj, x, v, level, region, want_hessian=True)
        except MtnpassError:
            report.n_skipped += 1
            continue
        if pe.section.empty or not _admissible(pe):
            report.n_skipped += 1
            continue

        def g2(p):  # raises when the section through p escapes the region
            return find_level_crossings(obj, p, v, level, region,
                                        near=pe.section).diam ** 2

        try:
            fd_g = fd_gradient(g2, x, FD_G2_GRAD_STEP)
            fd_h = fd_hess_g2(g2, x, pe.g2)
        except (CrossingOutsideRegion, NoLineMax):
            report.n_skipped += 1
            continue
        ge = float(np.linalg.norm(pe.grad_g2 - fd_g)
                   / (1.0 + np.linalg.norm(pe.grad_g2)))
        he = float(np.linalg.norm(pe.hess_g2 - fd_h)
                   / (1.0 + np.linalg.norm(pe.hess_g2)))
        report.n_cases += 1
        report.max_rel_grad_err = max(report.max_rel_grad_err, ge)
        report.max_rel_hess_err = max(report.max_rel_hess_err, he)
        if ge > GRAD_TOL or he > HESS_TOL:
            report.n_failures += 1
    return report


@dataclass
class QuadraticComparison:
    v_label: str
    scale: float
    offset: float
    level_gap: float
    vector_gap: float
    deviation: float
    href_norm: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class StabilityReport:
    applicable: bool
    reason: str = ""
    comparisons: list = field(default_factory=list)

    def by_v(self, v_label: str) -> list:
        return [c for c in self.comparisons if c.v_label == v_label]

    def trend_ok(self, v_label: str) -> bool:
        """No deviation grows by more than TREND_GROWTH_FACTOR, and the last
        is at most TREND_FINAL_FRAC of the reference norm."""
        comps = self.by_v(v_label)
        if not comps:
            return False
        devs = [c.deviation for c in comps]
        for prev, cur in zip(devs, devs[1:]):
            if cur > TREND_GROWTH_FACTOR * max(prev, 1e-300):
                return False
        return devs[-1] <= TREND_FINAL_FRAC * comps[-1].href_norm

    def to_dict(self) -> dict:
        return asdict(self)


def check_hessian_stability(obj: Objective, xbar: np.ndarray) -> StabilityReport:
    """Deviation of the measured hess(g^2) from the quadratic-model reference.

    The reference is pardist.closed_form_hess_g2 of the Hessian at xbar.

    Sweeps a geometric sequence of scales s = 2^-SCALE_START, ... (factor
    1/2, N_SCALES levels): the base point is offset from the critical point
    by s*STABILITY_R0 along the leading positive eigenvector and the level
    sits s*e0 below the critical value, with e0 = STABILITY_E0_FRAC
    |lambda_n|. Both the aligned direction (the negative eigenvector) and one
    perturbed by V_GAP are measured. Reports NotApplicable when the critical
    point is degenerate or not of Morse index one. On an exact quadratic the
    measured Hessian is the closed form, so deviations are identically zero.
    The sweep must start inside the regime where the section is a single
    segment; SCALE_START = 2 skips the first octave, which on desk-scale
    functions can drop the level below neighboring basins.
    """
    xbar = np.asarray(xbar, dtype=float)
    H = obj.hessian(xbar)
    evals, evecs = decompose(H)
    scale = float(np.max(np.abs(evals)))
    if scale == 0.0 or float(np.min(np.abs(evals))) < 1e-8 * scale:
        return StabilityReport(False, "degenerate critical point")
    index = negative_count(evals)
    if index != 1:
        return StabilityReport(False, f"Morse index {index} is not one")
    vbar = evecs[:, -1]
    u = evecs[:, 0]
    e0 = STABILITY_E0_FRAC * abs(evals[-1])
    fbar = obj.value(xbar)
    # Perturbed direction at chord distance V_GAP from vbar, inside the span
    # of vbar and the leading eigenvector.
    theta = 2.0 * np.arcsin(V_GAP / 2.0)
    v_pert = np.cos(theta) * vbar + np.sin(theta) * u

    report = StabilityReport(True)
    region = TrustRegion(xbar, STABILITY_REGION_RADIUS)
    for v_label, v in (("aligned", vbar), ("perturbed", v_pert)):
        href = closed_form_hess_g2(H, v)
        href_norm = float(np.linalg.norm(href))
        for k in range(SCALE_START, SCALE_START + N_SCALES):
            s = 0.5 ** k
            x = xbar + s * STABILITY_R0 * u
            level = fbar - s * e0
            if isinstance(obj, QuadraticObjective):
                _, _, measured = closed_form_g2_quadratic(obj, x, v, level)
            else:
                pe = eval_pardist(obj, x, v, level, region, want_hessian=True)
                measured = pe.hess_g2
            dev = float(np.linalg.norm(measured - href))
            report.comparisons.append(QuadraticComparison(
                v_label=v_label, scale=s, offset=float(s * STABILITY_R0),
                level_gap=float(s * e0),
                vector_gap=float(np.linalg.norm(v - vbar)),
                deviation=dev, href_norm=href_norm))
    return report


@dataclass
class ConvexityReport:
    radius: float
    level: float
    n_pairs: int = 0
    n_skipped: int = 0
    n_violations: int = 0
    max_violation: float = 0.0
    min_reduced_eig: Optional[float] = None
    n_eig_samples: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def check_convexity_region(obj: Objective, center: np.ndarray, level: float,
                           v: np.ndarray, radius: float, region: TrustRegion,
                           n_pairs: int = 100, seed: int = 0,
                           with_eigenvalues: bool = False) -> ConvexityReport:
    """Midpoint-convexity probe of g^2 on random pairs in a ball.

    The pairs are drawn in the ball of the given radius around center; every
    section is solved inside region.

    A pair (a, b) is a violation when g^2 at the midpoint exceeds the mean of
    the endpoint values by more than CONVEXITY_SLACK. A pair is skipped at
    the first of its sections (a, b, then the midpoint) that escapes the
    region. Optionally also reports the minimum eigenvalue of hess(g^2)
    restricted to the complement of v over the sampled points with positive
    g (samples with degenerate denominators are skipped); those derivatives
    come from the sections of a and b already solved. Every section is
    solved cold.
    """
    return _probe_convexity(obj, center, level, v, radius, region, n_pairs,
                            seed, with_eigenvalues)[0]


def _probe_convexity(obj: Objective, center: np.ndarray, level: float,
                     v: np.ndarray, radius: float, region: TrustRegion,
                     n_pairs: int, seed: int, with_eigenvalues: bool = False,
                     near: Optional[list] = None) -> tuple:
    """check_convexity_region's report and the sections of its 3 * n_pairs
    points a, b, midpoint (None where not solved or escaped).

    near, when given, holds those sections for the same seed at another
    radius; each point's section continues from its own entry there.
    """
    center = np.asarray(center, dtype=float)
    rng = np.random.default_rng(seed)
    n = center.size
    report = ConvexityReport(radius=radius, level=level)
    B = complement_basis(np.asarray(v, dtype=float))
    near = near or [None] * (3 * n_pairs)
    solved = [None] * (3 * n_pairs)

    def draw() -> np.ndarray:
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        return center + radius * rng.uniform(0.0, 1.0) ** (1.0 / n) * u

    for i in range(n_pairs):
        a, b = draw(), draw()
        sections = []
        for k, p in enumerate((a, b, 0.5 * (a + b)), start=3 * i):
            sec = _section_or_none(obj, p, v, level, region, near[k])
            if sec is None:
                break
            sections.append(sec)
            solved[k] = sec
        if len(sections) < 3:
            report.n_skipped += 1
            continue
        report.n_pairs += 1
        g2a, g2b, g2m = (sec.diam ** 2 for sec in sections)
        violation = g2m - 0.5 * (g2a + g2b)
        if violation > CONVEXITY_SLACK:
            report.n_violations += 1
            report.max_violation = max(report.max_violation, float(violation))
        if with_eigenvalues:
            for sec in sections[:2]:
                if sec.diam <= 1e-6:
                    continue
                try:
                    pe = derivatives_from_section(obj, sec, want_hessian=True)
                except MtnpassError:
                    continue
                red = B.T @ pe.hess_g2 @ B
                lam_min = float(decompose(red)[0][-1])
                report.n_eig_samples += 1
                if report.min_reduced_eig is None or lam_min < report.min_reduced_eig:
                    report.min_reduced_eig = lam_min
    return report, solved


def convexity_radius_sweep(obj: Objective, center: np.ndarray, v: np.ndarray,
                           levels: list[float], seed: int = 0) -> dict:
    """Largest prefix of SWEEP_RADII that is violation-free, per level.

    For each level the radii are probed in increasing order with identical
    seeds and SWEEP_N_PAIRS pairs each, in a region of radius
    SWEEP_REGION_RADIUS around the center; the recorded radius is the largest
    one below the first violation. The same seed draws the same pairs at
    every radius, only scaled, so each pair point's section continues from
    its own section at the previous radius.
    """
    center = np.asarray(center, dtype=float)
    region = TrustRegion(center, SWEEP_REGION_RADIUS)
    out = {}
    for level in levels:
        r_clear, sections = 0.0, None
        for r in SWEEP_RADII:
            rep, sections = _probe_convexity(obj, center, level, v, float(r),
                                             region, SWEEP_N_PAIRS, seed,
                                             near=sections)
            if rep.n_violations > 0:
                break
            r_clear = float(r)
        out[level] = r_clear
    return out


def quadratic_oracle_suite(n_models: int = 200, seed: int = 0) -> dict:
    """Root-finding g^2 against the closed form on seeded random models.

    The report carries no timings so identical seeds give identical output.
    """
    rng = np.random.default_rng(seed)
    max_err = 0.0
    failures = 0
    for k in range(n_models):
        n = 2 + k % 5
        model = generate_morse1(n, seed=seed * 100000 + 7919 + k)
        xbar, fbar = saddle_of(model)
        while True:
            v = model.negative_eigenvector + 0.2 * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            if float(v @ model.H @ v) < 0.2 * model.eigenvalues[-1]:
                break
        x = xbar + 0.3 * rng.standard_normal(n) / np.sqrt(n)
        level = fbar - rng.uniform(0.05, 0.5)
        pe = eval_pardist(model, x, v, level, TrustRegion(x, 50.0))
        g2_closed, _, _ = closed_form_g2_quadratic(model, x, v, level)
        err = abs(pe.g2 - g2_closed) / (1.0 + g2_closed)
        max_err = max(max_err, err)
        if err > ORACLE_TOL:
            failures += 1
    return {"suite": "quadratic-oracle", "n_models": n_models, "seed": seed,
            "tol": ORACLE_TOL, "max_rel_err": max_err, "failures": failures}


def run_suite(name: str, seed: int = 0) -> dict:
    """Run a named verification suite; the result carries a failure count."""
    if name == "quadratic-oracle":
        return quadratic_oracle_suite(seed=seed)
    if name == "grad-formulas":
        cases = quadratic_sample_cases(50, seed) + camel_sample_cases(20, seed)
        report = check_grad_formulas(cases)
        out = report.to_dict()
        out.update({"suite": "grad-formulas", "seed": seed,
                    "failures": report.n_failures})
        return out
    if name == "hessian-stability":
        camel = six_hump_camel()
        rep_camel = check_hessian_stability(camel, np.zeros(2))
        model = generate_morse1(3, seed=seed + 11)
        rep_quad = check_hessian_stability(model, saddle_of(model)[0])
        failures = 0
        for rep in (rep_camel, rep_quad):
            if not rep.applicable:
                failures += 1
                continue
            for v_label in ("aligned", "perturbed"):
                if not rep.trend_ok(v_label):
                    failures += 1
        if any(c.deviation != 0.0 for c in rep_quad.comparisons):
            failures += 1
        return {"suite": "hessian-stability", "seed": seed, "failures": failures,
                "camel": rep_camel.to_dict(), "quadratic": rep_quad.to_dict()}
    if name == "convexity":
        failures = 0
        model = generate_morse1(3, seed=seed + 23)
        xbar, fbar = saddle_of(model)
        rep_q = check_convexity_region(
            model, xbar, fbar - 0.3, model.negative_eigenvector, radius=0.5,
            region=TrustRegion(xbar, 50.0), seed=seed, with_eigenvalues=True)
        if rep_q.n_violations > 0:
            failures += 1
        if rep_q.min_reduced_eig is not None and rep_q.min_reduced_eig <= 0:
            failures += 1
        camel = six_hump_camel()
        _, evecs = decompose(camel.hessian(np.zeros(2)))
        rep_c = check_convexity_region(
            camel, np.zeros(2), -0.05, evecs[:, -1], radius=0.1,
            n_pairs=100, seed=seed, region=TrustRegion(np.zeros(2), 10.0))
        if rep_c.n_violations > 0:
            failures += 1
        tight = tightness2d()
        _, tevecs = decompose(tight.hessian(np.zeros(2)))
        sweep = convexity_radius_sweep(
            tight, np.zeros(2), tevecs[:, -1],
            levels=[-0.1, -0.01, -0.001], seed=seed)
        radii = [sweep[l] for l in (-0.1, -0.01, -0.001)]
        if not (radii[0] > radii[1] > radii[2]):
            failures += 1
        return {"suite": "convexity", "seed": seed, "failures": failures,
                "quadratic": rep_q.to_dict(), "camel": rep_c.to_dict(),
                "tightness_sweep": {str(k): v for k, v in sweep.items()}}
    raise ValueError(f"unknown verification suite {name!r}")
