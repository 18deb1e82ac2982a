"""Building blocks of the level-set saddle search.

The solver's state is one line section: the segment [z', z] that the line
through its base point along v cuts from {f >= l}, with z and z' on the
level set {f = l}. Four moves act on it: reduce the parallel distance by
shifting the base point across the chord direction (PD), re-align the chord
by sliding one endpoint along the level set (Av), lower the level after the
segment collapses (l-down), and raise the level to f at the segment
midpoint (or a given value above the current level), re-solving the section
through the midpoint (l-up).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from . import quadmodel
from .errors import (AvStalled, CriticalCandidate, CrossingOutsideRegion,
                     DegenerateDenominator, LUpImpossible, NoLineMax)
from .line1d import (CROSSING_XTOL_FRAC, GRAD_TOL_1D, ROOT_TOL, LineSection,
                     find_far_crossing, find_level_crossings, line_local_max,
                     line_local_min)
from .objective import Objective, TrustRegion
from .pardist import derivatives_from_section

# Armijo parameters for the (PD) backtracking search.
ARMIJO_C1 = 1e-4
BACKTRACK_RATIO = 0.5
NEWTON_MIN_EIG = 1e-10  # reduced Hessian must be at least this definite
AV_MAX_BACKTRACKS = 30  # step halvings of the (Av) tangential slide
MAX_PROJECTION_NEWTON = 50  # Newton steps pulling a point back onto the level


@dataclass(frozen=True)
class SolverState:
    """The segment [z', z]: a non-empty section on {f = level}, and its region."""

    section: LineSection
    region: TrustRegion
    last_step: str = "Init"

    @property
    def gap(self) -> float:
        return float(np.linalg.norm(self.section.z - self.section.zp))

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.section.z + self.section.zp)


@dataclass(frozen=True)
class ReducedSegment:
    """(PD) produced a shorter positive segment."""
    state: SolverState
    g_old: float
    g_new: float


@dataclass(frozen=True)
class HitZero:
    """(PD) drove the parallel distance to zero; x_prime is the line-local max."""
    x_prime: np.ndarray
    f_prime: float


@dataclass(frozen=True)
class PdStalled:
    """No backtracking step achieved the Armijo decrease."""
    g: float


PdOutcome = Union[ReducedSegment, HitZero, PdStalled]


def step_pd(state: SolverState, obj: Objective) -> PdOutcome:
    """One parallel-distance reduction step from the segment midpoint x.

    Computes grad/hess of g^2 at x from the endpoint data, moves across v by a Newton step on the complement of v
    when the reduced Hessian is positive definite (steepest descent
    otherwise), and backtracks on g^2(x + t d) under the Armijo condition.
    A trial point whose section is empty wins immediately: the parallel
    distance has hit zero at the line max the empty section carries.
    Backtracking stops with PdStalled once the trial step t*|d| is shorter
    than the crossing tolerance the section endpoints are solved to: below
    it a change in g^2 is crossing error, not a decrease.
    """
    section, region = state.section, state.region
    v, x = section.v, section.midpoint
    try:
        pe = derivatives_from_section(obj, section, want_hessian=True)
    except DegenerateDenominator:
        # A (nearly) collapsed segment puts the endpoints at the line max,
        # where v is tangent to the level set and |v'grad f| g <= ROOT_TOL.
        # That is the zero-distance case: report the collapse so the caller
        # lowers the level. Genuine tangency on a wide segment, or endpoints
        # at critical points of f (endpoint minima on the initial level),
        # stays an error, raised before any Hessian or trial section is
        # paid, and the driver's level raise moves the section off it. The
        # line max marches uphill from x, so f(x) above the collapse level
        # settles the question without it.
        collapse_level = section.level + 10.0 * ROOT_TOL
        if obj.value(x) > collapse_level:
            raise
        lm = line_local_max(obj, x, v, region)
        if lm.value <= collapse_level:
            return HitZero(x + lm.t * v, lm.value)
        raise
    g2_0 = pe.g2

    B = quadmodel.complement_basis(v)
    grad_red = B.T @ pe.grad_g2
    H_red = B.T @ pe.hess_g2 @ B
    evals, _ = quadmodel.decompose(H_red)
    newton = evals[-1] > NEWTON_MIN_EIG
    d = -B @ (np.linalg.solve(H_red, grad_red) if newton else grad_red)
    dn = float(np.linalg.norm(d))
    if dn == 0.0:
        return PdStalled(pe.g)
    slope = float(pe.grad_g2 @ d)
    if slope >= 0.0:
        return PdStalled(pe.g)

    # A steepest-descent trial starts no farther out than the region radius.
    t = 1.0 if newton else min(1.0, region.radius / dn)
    min_step = CROSSING_XTOL_FRAC * region.radius
    while t * dn >= min_step:
        xt = x + t * d
        if region.contains(xt):
            try:
                sec = find_level_crossings(obj, xt, v, section.level, region)
            except (CrossingOutsideRegion, NoLineMax):
                sec = None
            if sec is not None:
                if sec.empty:
                    lm = sec.line_max
                    return HitZero(xt + lm.t * v, lm.value)
                g2_t = sec.diam ** 2
                if g2_t <= g2_0 + ARMIJO_C1 * t * slope:
                    return ReducedSegment(SolverState(sec, region, "PD"),
                                          g_old=pe.g, g_new=sec.diam)
        t *= BACKTRACK_RATIO
    return PdStalled(pe.g)


def _project_to_level(obj: Objective, p: np.ndarray, level: float):
    """Pull p back onto {f = level} by 1-D Newton along the gradient."""
    p = p.copy()
    for _ in range(MAX_PROJECTION_NEWTON):
        r = obj.value(p) - level
        if abs(r) <= ROOT_TOL:
            return p
        grad = obj.gradient(p)
        gn2 = float(grad @ grad)
        if gn2 == 0.0 or not np.isfinite(gn2):
            return None
        p = p - (r / gn2) * grad
    return None


def step_av(state: SolverState, obj: Objective) -> SolverState:
    """Adjust the chord direction by sliding one endpoint along the level set.

    The endpoint with the larger gradient norm (ties go to z) is moved along
    the projection of the chord onto its tangent plane and re-projected onto
    {f = level}; the step is halved until the chord strictly shortens. The
    new section is based at the endpoint that did not move, with t = 0
    there, so that endpoint keeps its bits. Raises AvStalled when the tangential component vanishes or no
    step helps.
    """
    level = state.section.level
    z, zp = state.section.z, state.section.zp
    gz, gzp = obj.gradient(z), obj.gradient(zp)
    if np.linalg.norm(gz) >= np.linalg.norm(gzp):
        this, other, gthis, move_z = z, zp, gz, True
    else:
        this, other, gthis, move_z = zp, z, gzp, False
    chord = other - this
    gap0 = float(np.linalg.norm(chord))
    gn2 = float(gthis @ gthis)
    if gn2 == 0.0:
        raise AvStalled("endpoint gradient vanishes; cannot define a tangent plane")
    w = chord - (float(gthis @ chord) / gn2) * gthis
    if float(np.linalg.norm(w)) <= 1e-12 * (1.0 + gap0):
        raise AvStalled("tangential component is negligible; v is aligned")

    t = 1.0
    for _ in range(AV_MAX_BACKTRACKS):
        p = _project_to_level(obj, this + t * w, level)
        if p is not None and state.region.contains(p):
            gap_new = float(np.linalg.norm(p - other))
            if gap_new < gap0:
                z_new, zp_new = (p, other) if move_z else (other, p)
                t1, t2 = (0.0, gap_new) if move_z else (-gap_new, 0.0)
                section = LineSection(other, (z_new - zp_new) / gap_new, level,
                                      t1, t2)
                return replace(state, section=section, last_step="Av")
        t *= 0.5
    raise AvStalled("no tangential step reduced the chord length")


def crossings_or_degenerate(obj: Objective, x: np.ndarray, v: np.ndarray,
                            level: float, region: TrustRegion,
                            grad: Optional[np.ndarray] = None) -> LineSection:
    """Section of {f >= level} through x, allowing the degenerate point section.

    When the line-local max sits exactly at the level (within the root
    tolerance) the section is the single point at the max; this occurs right
    after a level change lands on the ridge. grad, when given, is grad f(x)
    for an x with f(x) = level exactly: t = 0 is then one crossing and only
    the far one is solved (line1d.find_far_crossing), which returns the
    point section at t = 0 itself when the far crossing lands on 0.
    """
    if grad is None:
        section = find_level_crossings(obj, x, v, level, region)
    else:
        section = find_far_crossing(obj, x, v, level, region, grad)
    if not section.empty:
        return section
    lm = section.line_max
    if level - lm.value <= ROOT_TOL:
        return LineSection(x, v, level, lm.t, lm.t)
    raise CrossingOutsideRegion(
        f"no point at the level along v: line max is {level - lm.value:.3e} below")


def step_l_down(obj: Objective, x: np.ndarray, v: np.ndarray,
                region: TrustRegion) -> LineSection:
    """Decrease the level from a line-local max of f along v.

    Descends from x along the projection of -grad f(x) onto the complement
    of v to the first line-local minimum; the minimum value is the new level
    and the section at that level through the minimizer is returned (possibly
    degenerate): its level is the new level and its base point x the
    minimizer. Raises CriticalCandidate when grad f(x) is parallel to v.
    """
    x = np.asarray(x, dtype=float)
    grad = obj.gradient(x)
    gn = float(np.linalg.norm(grad))
    if abs(float(grad @ v)) > 1e3 * GRAD_TOL_1D * (1.0 + gn):
        raise ValueError("x is not a line-local max of f along v")
    proj = grad - float(grad @ v) * v
    pn = float(np.linalg.norm(proj))
    if pn <= 1e-10 * (1.0 + gn):
        raise CriticalCandidate(x)
    d = -proj / pn
    mn = line_local_min(obj, x, d, region)
    return crossings_or_degenerate(obj, x + mn.t * d, v, mn.value, region)


def step_l_up(state: SolverState, obj: Objective,
              level: Optional[float] = None) -> SolverState:
    """Raise the level to `level`, by default f at the segment midpoint m,
    and re-solve the endpoints.

    The direction v is unchanged; the new segment is the section of the new
    level on the line through m, which may collapse to a single point. At
    the default level m lies on the level, so f(m) is evaluated once and
    only the far crossing is solved from grad f(m) (crossings_or_degenerate
    with grad). An explicit level is solved cold. Raises LUpImpossible when the level does
    not lie above the current level.
    """
    sec, m = state.section, state.midpoint
    on_level = level is None
    if on_level:
        level = obj.value(m)
    if level <= sec.level:
        raise LUpImpossible(f"level {level:.6g} does not exceed the current "
                            f"level {sec.level:.6g}")
    grad = obj.gradient(m) if on_level else None
    section = crossings_or_degenerate(obj, m, sec.v, level, state.region, grad)
    return replace(state, section=section, last_step="LUp")
