"""One-dimensional searches along a line x + t*v inside a trust region.

Provides the three primitives the level-set solver is built on: locating a
line-local maximum of f, solving the two crossings of a level l around that
maximum (the section of the super-level set cut by the line; from a base
point on the level only the far crossing), and locating the first
line-local minimum along a descent ray. All searches are
deterministic and never evaluate f outside the trust region.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import BadDirection, BadEndpoints, CrossingOutsideRegion, NoLineMax
from .objective import Objective, TrustRegion

GRAD_TOL_1D = 1e-10
ROOT_TOL = 1e-10
CROSSING_XTOL_FRAC = 1e-12  # level-crossing tolerance, a fraction of the radius

_INIT_STEP_FRAC = 1e-2    # first probe, as a fraction of the region radius
_MAX_STEP_FRAC = 5e-2     # cap on the marching step; limits skipped features
_STATIONARY_XTOL = 1e-15     # tolerance on the roots of phi'
_ROOT_RTOL = 8.9e-16         # relative root tolerance, 4 machine epsilons
_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class LineSection:
    """Section of {f >= level} cut by the line {x + t v}, or the empty set.

    When non-empty the section is the segment t in [t1, t2] containing the
    line-local max nearest t = 0, or, continued from a nearby section, the
    predicted midpoint, or, from a base point on the level, with t = 0 as
    an endpoint (find_far_crossing); the endpoints satisfy |f - level| <=
    root tolerance. z is the endpoint with the larger v-coordinate. An empty
    section from find_level_crossings carries in line_max the line max it
    found on or below the level.
    """

    x: np.ndarray
    v: np.ndarray
    level: float
    t1: Optional[float] = None
    t2: Optional[float] = None
    line_max: Optional[LineExtremum] = None

    @property
    def empty(self) -> bool:
        return self.t1 is None

    @property
    def diam(self) -> float:
        if self.empty:
            return 0.0
        return self.t2 - self.t1

    @property
    def z(self) -> np.ndarray:
        return self.x + self.t2 * self.v

    @property
    def zp(self) -> np.ndarray:
        return self.x + self.t1 * self.v

    @property
    def midpoint(self) -> np.ndarray:
        return self.x + 0.5 * (self.t1 + self.t2) * self.v


@dataclass(frozen=True)
class LineExtremum:
    """A line-local extremum at t with f = value there."""

    t: float
    value: float


def _check_unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > _UNIT_TOL:
        raise ValueError("direction must be a unit vector")
    return v


def _line_funcs(obj: Objective, x: np.ndarray, v: np.ndarray):
    x = np.asarray(x, dtype=float)

    def phi(t: float) -> float:
        return obj.value(x + t * v)

    def dphi(t: float) -> float:
        return float(obj.gradient(x + t * v) @ v)

    return phi, dphi


def _brent(fn: Callable, a: float, b: float, fa: float, fb: float,
           xtol: float, rtol: float) -> tuple[float, float]:
    """Root of fn in the bracket [a, b] by Brent's zeroin method.

    fa = fn(a) and fb = fn(b) must have opposite signs (or one be zero); fn is
    never evaluated at a or b. Inverse quadratic or secant steps are taken
    while they shrink the bracket fast enough, bisection steps otherwise
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4).
    Returns the best point t and fn(t) once the bracket around t is narrower
    than xtol + rtol*|t|; xtol must be positive.
    """
    if fa == 0.0:
        return a, fa
    if fb == 0.0:
        return b, fb
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("root is not bracketed")
    xpre, fpre, xcur, fcur = a, fa, b, fb
    while True:
        if (fpre > 0.0) != (fcur > 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur
        step = sbis
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # secant
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # inverse quadratic
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                step = stry
                spre = scur
            else:
                spre = sbis
        else:
            spre = sbis
        scur = step
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = fn(xcur)


def _refine_max(phi: Callable, dphi: Callable, a: float, b: float, c: float,
                fb: float) -> float:
    """Polish a three-point max bracket a < b < c, with fb = phi(b), to phi' = 0.

    Brent's method on phi' once the derivative signs at a and c straddle;
    until then golden-section shrinks on phi. Polishes a min bracket when
    given -phi, -phi' and -fb. Returns the polished t.
    """
    invgold = 0.381966011250105  # 2 - golden ratio
    for _ in range(200):
        da = dphi(a)
        if da > 0.0:
            dc = dphi(c)
            if dc < 0.0:
                return float(_brent(dphi, a, c, da, dc, _STATIONARY_XTOL,
                                    _ROOT_RTOL)[0])
        # Shrink by golden section until the derivative signs straddle.
        if c - b > b - a:
            u = b + invgold * (c - b)
            fu = phi(u)
            if fu > fb:
                a, b, fb = b, u, fu
            else:
                c = u
        else:
            u = b - invgold * (b - a)
            fu = phi(u)
            if fu > fb:
                c, b, fb = b, u, fu
            else:
                a = u
        if c - a < 1e-13 * max(1.0, abs(b)):
            break
    return float(b)


def _march(phi: Callable, t0: float, sgn: float, bound: float, radius: float,
           h0: Optional[float] = None) -> Iterator[tuple[float, float]]:
    """Probes (t, phi(t)) from t0 toward bound, in the direction sgn.

    Steps start at h0, by default _INIT_STEP_FRAC * radius, and double up to
    _MAX_STEP_FRAC * radius, which also caps h0; each probe is the previous
    one plus sgn times the step. The probe that would reach or pass bound is
    bound, and it is the last; there is none when t0 lies on bound.
    """
    hmax = _MAX_STEP_FRAC * radius
    h = min(_INIT_STEP_FRAC * radius if h0 is None else h0, hmax)
    t = t0
    while (bound - t) * sgn > 0:
        t = t + sgn * h
        if (t - bound) * sgn >= 0:
            t = bound
        yield t, phi(t)
        h = min(2.0 * h, hmax)


def _line_max_bracket(phi: Callable, t_lo: float, t_hi: float,
                      radius: float) -> tuple:
    """Bracket (a, b, c, phi(b)) of a line-local max of phi from t = 0, then
    the outward marches from b or None.

    Takes the first _march probe each way, then continues the march toward
    the larger value until a value drops below phi(b). When t = 0 is its own
    bracket's max (b = 0), the last item holds the started marches up and
    down, their first probes pushed back, so marching outward from b pays
    none of them twice. Raises NoLineMax when f is monotone along the whole
    probed range (the march reaches the region bound still rising).
    """
    f0 = phi(0.0)
    up = _march(phi, 0.0, 1.0, t_hi, radius)
    down = _march(phi, 0.0, -1.0, t_lo, radius)
    seen_up, seen_down = list(islice(up, 1)), list(islice(down, 1))
    hp, fp = (seen_up or [(0.0, -np.inf)])[0]
    hm, fm = (seen_down or [(-0.0, -np.inf)])[0]
    if f0 >= fp and f0 >= fm:
        if hm == hp:
            raise NoLineMax("degenerate chord through the trust region")
        return hm, 0.0, hp, f0, (chain(seen_up, up), chain(seen_down, down))

    march, b, fb = (up, hp, fp) if fp >= fm else (down, hm, fm)
    a = 0.0
    for c, fc in march:
        if fc < fb:
            lo, hi = sorted((a, c))
            return lo, b, hi, fb, None
        a, b, fb = b, c, fc
    raise NoLineMax("f is monotone along the probed range of the line")


def line_local_max(obj: Objective, x: np.ndarray, v: np.ndarray,
                   region: TrustRegion) -> LineExtremum:
    """Local maximizer of t -> f(x + t v): the polished _line_max_bracket."""
    v = _check_unit(v)
    phi, dphi = _line_funcs(obj, x, v)
    t_lo, t_hi = region.line_interval(x, v)
    a, b, c, fb, _ = _line_max_bracket(phi, t_lo, t_hi, region.radius)
    t = _refine_max(phi, dphi, a, b, c, fb)
    return LineExtremum(t, phi(t))


def _level_crossing(phi: Callable, dphi: Callable, t_in: float, t_out: float,
                    r_in: float, r_out: float, level: float,
                    xtol: float) -> float:
    """Root of phi - level between t_in and t_out, polished by one Newton step.

    r_in = phi(t_in) - level > 0 >= r_out = phi(t_out) - level. The Newton
    step reuses the residual Brent's method ends with and is kept only when
    it moves the Brent root by at most 2*xtol.
    """
    t, r = _brent(lambda s: phi(s) - level, t_in, t_out, r_in, r_out, xtol,
                  _ROOT_RTOL)
    return _newton_polish(dphi, t, r, xtol)


def _newton_polish(dphi: Callable, t: float, r: float, xtol: float) -> float:
    """t after one Newton step on the residual r = phi(t) - level, kept only
    when it moves t by at most 2*xtol."""
    d = dphi(t)
    if d != 0.0:
        t_new = t - r / d
        if abs(t_new - t) <= 2.0 * xtol:
            return t_new
    return t


def _cross_outward(phi: Callable, dphi: Callable, probes: Iterator,
                   t_start: float, f_start: float, sgn: float, level: float,
                   radius: float) -> float:
    """Walk the _march probes from t_start, where phi = f_start > level (or
    = level when the first probe lies above it), in the direction sgn to the
    component edge.

    A probe below the level closes a bracket whose crossing Brent's method
    solves. Between probes that both sit above the level, a sign flip of the
    directional derivative marks a hidden dip; the dip is located and tested,
    and a crossing before it is returned if it reaches below the level. The
    first probe has no slope at t_start to compare with and so makes no dip
    test. A dip that lies wholly between two probes where phi falls outward
    shows no sign flip and is not seen. Probes that end above the level
    raise CrossingOutsideRegion.
    """
    xtol = CROSSING_XTOL_FRAC * radius
    t_prev, f_prev, d_prev = t_start, f_start, 0.0
    for t_next, f_next in probes:
        if f_next <= level:
            return _level_crossing(phi, dphi, t_prev, t_next, f_prev - level,
                                   f_next - level, level, xtol)
        d_next = dphi(t_next) * sgn
        if d_prev < 0.0 < d_next:
            t_dip, _ = _brent(lambda t: dphi(t) * sgn, t_prev, t_next, d_prev,
                              d_next, _STATIONARY_XTOL, _ROOT_RTOL)
            f_dip = phi(t_dip)
            if f_dip <= level:
                if f_dip >= level - ROOT_TOL:
                    return float(t_dip)
                return _level_crossing(phi, dphi, t_prev, t_dip, f_prev - level,
                                       f_dip - level, level, xtol)
            # The component continues through the dip.
        t_prev, f_prev, d_prev = t_next, f_next, d_next
    raise CrossingOutsideRegion(
        "super-level component reaches the trust-region boundary")


def _continued_crossings(phi: Callable, dphi: Callable, x: np.ndarray,
                         v: np.ndarray, near: LineSection, t_lo: float,
                         t_hi: float, radius: float) -> Optional[tuple]:
    """Crossings (t1, t2) continued from near's, or None when a check fails.

    near's endpoints carried over to the line through x are the predictions
    p1 <= p2; the first step is the distance between the two parallel lines.
    Both predictions must lie in [t_lo, t_hi] and f at their midpoint above
    the level. Each crossing is bracketed by a march from its prediction:
    outward while f stays above the level, else inward, never past the
    predicted midpoint, until it rises above. An outward march that reaches
    t_lo or t_hi still above the level fails.
    """
    level = near.level
    d = near.x - x
    dv = float(d @ v)
    p1, p2 = near.t1 + dv, near.t2 + dv
    if not t_lo <= p1 <= p2 <= t_hi:
        return None
    mid = 0.5 * (p1 + p2)
    if phi(mid) <= level:
        return None
    xtol = CROSSING_XTOL_FRAC * radius
    h0 = max(float(np.linalg.norm(d - dv * v)), xtol)
    crossings = []
    for p, sgn, bound in ((p1, -1.0, t_lo), (p2, 1.0, t_hi)):
        t_prev, f_prev = p, phi(p)
        above = f_prev > level
        probes = _march(phi, p, sgn if above else -sgn,
                        bound if above else mid, radius, h0)
        for t, f in probes:
            if (f > level) != above:
                break
            t_prev, f_prev = t, f
        else:
            return None
        if above:
            t_in, f_in, t_out, f_out = t_prev, f_prev, t, f
        else:
            t_in, f_in, t_out, f_out = t, f, t_prev, f_prev
        crossings.append(_level_crossing(phi, dphi, t_in, t_out, f_in - level,
                                         f_out - level, level, xtol))
    return tuple(crossings)


def find_level_crossings(obj: Objective, x: np.ndarray, v: np.ndarray,
                         level: float, region: TrustRegion,
                         near: Optional[LineSection] = None) -> LineSection:
    """Section of {f >= level} on the line {x + t v} around its local max.

    Cold, brackets the line-local max nearest t = 0 (_line_max_bracket).
    When the bracket's middle probe b lies above the level the section cannot
    be empty, and both crossings are bracketed outward from b, with no polish
    of the max; when b = 0 the marches continue the bracket's own. Otherwise
    the max is polished: if its value does not exceed the level the section
    is empty and carries the max, else fresh marches start from it.

    Warm, given near, a non-empty section of the same v and level solved on
    a nearby parallel line (else ValueError), the crossings are sought next
    to near's endpoints carried over to this line (_continued_crossings),
    and the section is the component of {f >= level} that contains the
    predicted midpoint, up to dips that lie between it and a prediction or
    between two probes. When a check of the warm path fails the section is
    solved cold. Crossings are refined to |f - level| <= ROOT_TOL.
    """
    v = _check_unit(v)
    x = np.asarray(x, dtype=float)
    phi, dphi = _line_funcs(obj, x, v)
    t_lo, t_hi = region.line_interval(x, v)
    if near is not None:
        if near.empty:
            raise ValueError("near must be a non-empty section")
        if near.level != level or not np.array_equal(near.v, v):
            raise ValueError("near must have the same direction and level")
        warm = _continued_crossings(phi, dphi, x, v, near, t_lo, t_hi,
                                    region.radius)
        if warm is not None:
            return LineSection(x, v, level, float(warm[0]), float(warm[1]))
    a, b, c, fb, marches = _line_max_bracket(phi, t_lo, t_hi, region.radius)
    if fb <= level:
        b = _refine_max(phi, dphi, a, b, c, fb)
        fb = phi(b)
        if fb <= level:
            return LineSection(x, v, level, line_max=LineExtremum(b, fb))
        marches = None
    up, down = marches or (_march(phi, b, 1.0, t_hi, region.radius),
                           _march(phi, b, -1.0, t_lo, region.radius))
    t2 = _cross_outward(phi, dphi, up, b, fb, +1.0, level, region.radius)
    t1 = _cross_outward(phi, dphi, down, b, fb, -1.0, level, region.radius)
    return LineSection(x, v, level, float(t1), float(t2))


def find_far_crossing(obj: Objective, x: np.ndarray, v: np.ndarray,
                      level: float, region: TrustRegion,
                      grad: np.ndarray) -> LineSection:
    """Section of {f >= level} on the line {x + t v} when f(x) = level.

    grad is grad f(x). t = 0 is then one crossing, and the other lies on the
    uphill side, sign(phi'(0)) with phi'(0) = grad'v; a march uphill from 0
    brackets it. When the first probe already lies on or below the level,
    Brent's method solves the deflated residual (phi(t) - level)/t, whose
    value at t = 0 is phi'(0) and is never evaluated, and one Newton step
    polishes the root; otherwise the march goes on outward from (0, level)
    as in find_level_crossings (_cross_outward). A far crossing within
    2*xtol of 0 gives the point section at t = 0: no evaluated point rose
    above the level. When phi'(0) = 0 the section is solved cold
    (find_level_crossings).
    """
    v = _check_unit(v)
    x = np.asarray(x, dtype=float)
    d0 = float(grad @ v)
    if d0 == 0.0:
        return find_level_crossings(obj, x, v, level, region)
    phi, dphi = _line_funcs(obj, x, v)
    t_lo, t_hi = region.line_interval(x, v)
    sgn = 1.0 if d0 > 0.0 else -1.0
    xtol = CROSSING_XTOL_FRAC * region.radius
    probes = _march(phi, 0.0, sgn, t_hi if sgn > 0.0 else t_lo, region.radius)
    first = list(islice(probes, 1))
    if first and first[0][1] <= level:
        t, f = first[0]
        t, r = _brent(lambda s: (phi(s) - level) / s, 0.0, t, d0,
                      (f - level) / t, xtol, _ROOT_RTOL)
        t_far = _newton_polish(dphi, t, r * t, xtol)
    else:
        t_far = _cross_outward(phi, dphi, chain(first, probes), 0.0, level,
                               sgn, level, region.radius)
    if abs(t_far) <= 2.0 * xtol:
        return LineSection(x, v, level, 0.0, 0.0)
    t1, t2 = sorted((0.0, float(t_far)))
    return LineSection(x, v, level, t1, t2)


def _chord_crossing(phi: Callable, f_star: float, scan: list, level: float) -> float:
    """Crossing of the level nearest the ridge max (t = 0) toward a chord endpoint.

    f_star = phi(0). scan holds the (t, phi(t)) of the chord scan beyond the
    max, nearest first; its last point is the endpoint. The first scan point
    on or below the level closes the bracket, so a dip below the level
    between the max and the endpoint is not stepped over. A scan point on the
    level within the root tolerance is itself the root; the endpoint value
    never exceeds the level by more than that, by construction.
    """
    xtol = 1e-12 * max(1.0, abs(scan[-1][0]))
    t_in, r_in = 0.0, f_star - level
    for t, f in scan:
        r = f - level
        if r <= 0.0:
            return _brent(lambda s: phi(s) - level, t_in, t, r_in, r, xtol,
                          _ROOT_RTOL)[0]
        if r <= ROOT_TOL:
            return t
        t_in, r_in = t, r
    raise BadEndpoints("chord endpoint lies above the initial level")


def chord_section(obj: Objective, a: np.ndarray, b: np.ndarray) -> LineSection:
    """Section of {f >= max(f(a), f(b))} on the chord [a, b] around its ridge.

    Scans the chord at 65 points for the interior maximum, polishes it, and
    solves by Brent's method the crossing of the level nearest the maximum
    on either side, each bracketed by the scan. The section is based at the
    maximum with v = (a - b)/|a - b|.
    Raises BadEndpoints when the endpoints coincide, f has no interior max
    on the chord, or the ridge does not rise above the level.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    L = float(np.linalg.norm(a - b))
    if L == 0.0:
        raise BadEndpoints("endpoints coincide")
    v = (a - b) / L
    phi, dphi = _line_funcs(obj, b, v)
    ts = np.linspace(0.0, L, 65)
    vals = [phi(t) for t in ts]
    i = int(np.argmax(vals))
    if i == 0 or i == len(ts) - 1:
        raise BadEndpoints("f has no interior line-local max on [a, b]")
    t_star = _refine_max(phi, dphi, ts[i - 1], ts[i], ts[i + 1], vals[i])
    f_star = phi(t_star)
    level = max(obj.value(a), vals[0])
    if f_star <= level:
        raise BadEndpoints("ridge does not rise above the endpoint level")
    m = b + t_star * v
    phi_m, _ = _line_funcs(obj, m, v)
    scan = [(float(t) - t_star, f) for t, f in zip(ts, vals)]
    t2 = _chord_crossing(phi_m, f_star, [p for p in scan if p[0] > 0.0], level)
    t1 = _chord_crossing(phi_m, f_star, [p for p in reversed(scan) if p[0] < 0.0],
                         level)
    return LineSection(m, v, level, float(t1), float(t2))


def line_local_min(obj: Objective, x: np.ndarray, d: np.ndarray,
                   region: TrustRegion) -> LineExtremum:
    """First local minimizer of t -> f(x + t d) for t > 0.

    Requires d to be a unit descent direction at x (gradient(x)'d < 0, else
    BadDirection). If f decreases all the way to the region boundary the
    boundary point is returned.
    """
    d = _check_unit(d)
    x = np.asarray(x, dtype=float)
    g0 = float(obj.gradient(x) @ d)
    if g0 >= 0.0:
        raise BadDirection("d is not a descent direction at x")
    phi, dphi = _line_funcs(obj, x, d)
    _, t_hi = region.line_interval(x, d)
    if t_hi <= 0:
        return LineExtremum(0.0, phi(0.0))

    a, fa = 0.0, phi(0.0)
    probes = _march(phi, 0.0, 1.0, t_hi, region.radius)
    b, fb = next(probes)
    if fb > fa:
        # The first minimum is already inside (0, b): locate the first sign
        # change of the directional derivative on a fixed subdivision.
        lo, d_lo = 0.0, g0
        for k in range(1, 17):
            t_k = k * b / 16.0
            d_k = dphi(t_k)
            if d_k > 0.0:
                t = float(_brent(dphi, lo, t_k, d_lo, d_k, _STATIONARY_XTOL,
                                 _ROOT_RTOL)[0])
                return LineExtremum(t, phi(t))
            lo, d_lo = t_k, d_k
        return LineExtremum(b, fb)  # flat wiggle; best available point
    d_prev = dphi(b)
    for c, fc in probes:
        d_next = dphi(c)
        if fc > fb:
            t = _refine_max(lambda s: -phi(s), lambda s: -dphi(s), a, b, c, -fb)
            return LineExtremum(t, phi(t))
        if d_prev < 0.0 < d_next:
            # Passed a minimum that did not show up in the values yet.
            t = float(_brent(dphi, b, c, d_prev, d_next, _STATIONARY_XTOL,
                             _ROOT_RTOL)[0])
            return LineExtremum(t, phi(t))
        a, b, fb, d_prev = b, c, fc, d_next
    return LineExtremum(b, fb)
