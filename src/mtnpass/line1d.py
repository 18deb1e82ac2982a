"""One-dimensional searches along a line x + t*v inside a trust region.

Provides the three primitives the level-set solver is built on: locating a
line-local maximum of f, solving the two crossings of a level l around that
maximum (the section of the super-level set cut by the line; from a base
point on the level only the far crossing), and locating the first
line-local minimum along a descent ray. Every march takes the probes of
one schedule (_march), and every outward march to a crossing, cold,
continued from a nearby section or from a point on the level, is one
routine (_cross_outward); on the chord line, whose scan a section carries,
the crossings are bracketed by one walk over the scan (_scan_walk) instead.
All searches are deterministic and never evaluate f outside the trust
region.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import BadDirection, BadEndpoints, CrossingOutsideRegion, NoLineMax
from .objective import Objective, TrustRegion

ROOT_TOL = 1e-10
CROSSING_XTOL_FRAC = 1e-12  # level-crossing tolerance, a fraction of the radius

_INIT_STEP_FRAC = 1e-2    # first probe, as a fraction of the region radius
_MAX_STEP_FRAC = 5e-2     # cap on the marching step; limits skipped features
_STATIONARY_XTOL = 1e-15     # tolerance on the roots of phi'
_ROOT_RTOL = 8.9e-16         # relative root tolerance, 4 machine epsilons
_UNIT_TOL = 1e-12
_ESCAPED = "super-level component reaches the trust-region boundary"


@dataclass(frozen=True)
class LineSection:
    """Section of {f >= level} cut by the line {x + t v}, or the empty set.

    When non-empty the section is the segment t in [t1, t2] containing the
    line-local max nearest t = 0, or, continued from a nearby section, with
    the crossings next to the predicted ones, up to dips between those, or,
    from a base point on the level, with t = 0 as an endpoint
    (find_far_crossing); the endpoints satisfy |f - level| <= root
    tolerance. Each endpoint closes an outward march from inside the section
    (_cross_outward), or, continued from a prediction outside it, a march
    inward toward the predicted midpoint. z is the endpoint with the larger
    v-coordinate, and the midpoint is (z + z')/2. An empty section from
    find_level_crossings carries in line_max the line max it found on or
    below the level. A section on the chord line carries in scan the chord
    scan as two lists (offsets, values): the 65 grid points as ascending
    offsets from x along v, and f there (-inf where not evaluated).
    chord_section sets it, and only the level raise to f at the midpoint
    passes it on (find_far_crossing with scan); the readers that evaluate a
    skipped point store it in values, which the sections of one chord
    share.
    """

    x: np.ndarray
    v: np.ndarray
    level: float
    t1: Optional[float] = None
    t2: Optional[float] = None
    line_max: Optional[LineExtremum] = None
    scan: Optional[tuple] = field(default=None, repr=False, compare=False)

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
        return 0.5 * (self.z + self.zp)

    @property
    def midpoint_scan(self) -> Optional[tuple]:
        """scan as offsets from the midpoint, sharing its values; None
        without a scan."""
        if self.scan is None:
            return None
        offsets, values = self.scan
        tm = 0.5 * (self.t1 + self.t2)
        return [t - tm for t in offsets], values


@dataclass(frozen=True)
class LineExtremum:
    """A line-local extremum at t with f = value there."""

    t: float
    value: float


def _check_unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if abs(math.sqrt(float(v.dot(v))) - 1.0) > _UNIT_TOL:
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
           xtol: float) -> tuple[float, float, float, float]:
    """Root of fn in the bracket [a, b] by Brent's zeroin method.

    fa = fn(a) and fb = fn(b) must have opposite signs (or one be zero); fn is
    never evaluated at a or b. Inverse quadratic or secant steps are taken
    while they shrink the bracket fast enough, bisection steps otherwise
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4).
    Returns (t, fn(t), s, fn(s)) with t the best point; the root is the
    zero of the line through the two (_interpolate). Either they are the
    final bracket, where fn has opposite signs, once fn(t) = 0 or |s - t| <
    2 delta, delta = (xtol + _ROOT_RTOL*|t|)/2 with xtol > 0; or, earlier,
    s and t are the last two evaluations, both of accepted interpolation
    steps (a bracket end, a bisection step or a minimal step of delta never
    qualifies), and the secant step h from t to that zero finishes the
    root: |h| < delta/4 when s and t straddle the root; when they lie on one
    side, the error of t + h estimated from the rate at which the steps
    last shrank, h^2/(|t + h - s| - |h|), is below delta/4 and |h| < 4
    delta. That estimate is exact for linear convergence and too large for
    superlinear convergence. A reader of t alone is then within about |h|
    of the root.
    """
    if fa == 0.0:
        return a, fa, b, fb
    if fb == 0.0:
        return b, fb, a, fa
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("root is not bracketed")
    xpre, fpre, xcur, fcur = a, fa, b, fb
    prev = last = None  # the last two evaluations while both interpolated
    while True:
        if prev is not None and last[1] != prev[1]:
            (s, q), (t, r) = prev, last
            h = r * (t - s) / (q - r)
            delta = 0.5 * (xtol + _ROOT_RTOL * abs(t))
            if (q > 0.0) != (r > 0.0):  # s and t straddle the root
                done = abs(h) < 0.25 * delta
            else:  # the error of t + h, estimated as h^2/(|t + h - s| - |h|)
                done = (abs(h) < 4.0 * delta
                        and h * h < 0.25 * delta * (abs(t + h - s) - abs(h)))
            if done:
                return t, r, s, q
        if (fpre > 0.0) != (fcur > 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + _ROOT_RTOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur, xblk, fblk
        step = sbis
        interp = False
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
                interp = abs(stry) > delta
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
        prev, last = (last, (xcur, fcur)) if interp else (None, None)


def _refine_max(phi: Callable, dphi: Callable, a: float, b: float, c: float) -> float:
    """Polish a three-point max bracket a < b < c to phi' = 0.

    phi'(b) is evaluated first, and b is returned when it is 0. Otherwise
    Brent's method runs on the half of the bracket where phi' changes sign:
    [b, c] when phi'(b) > 0 > phi'(c), [a, b] when phi'(a) > 0 > phi'(b).
    When b is the point a move already took the gradient at, phi'(b) is a
    memo hit. When neither half straddles, golden section shrinks the
    bracket on phi until the derivative signs at a and c straddle, and
    Brent's method runs on [a, c]. Polishes a min bracket
    when given -phi and -phi'. Returns the polished t; phi(b) comes from the
    value memo when b was just probed.
    """
    invgold = 0.381966011250105  # 2 - golden ratio
    db = dphi(b)
    if db == 0.0:
        return float(b)
    if db > 0.0:
        dc = dphi(c)
        if dc < 0.0:
            return float(_brent(dphi, b, c, db, dc, _STATIONARY_XTOL)[0])
    else:
        da = dphi(a)
        if da > 0.0:
            return float(_brent(dphi, a, b, da, db, _STATIONARY_XTOL)[0])
    fb = phi(b)
    for _ in range(200):
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
        da = dphi(a)
        if da > 0.0:
            dc = dphi(c)
            if dc < 0.0:
                return float(_brent(dphi, a, c, da, dc, _STATIONARY_XTOL)[0])
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
    """Bracket (a, b, c, phi(b)) of a line-local max of phi from t = 0.

    Takes the first _march probe each way, then continues the march toward
    the larger value until a value drops below phi(b). Raises NoLineMax when
    f is monotone along the whole probed range (the march reaches the region
    bound still rising).
    """
    f0 = phi(0.0)
    up = _march(phi, 0.0, 1.0, t_hi, radius)
    down = _march(phi, 0.0, -1.0, t_lo, radius)
    hp, fp = next(up, (0.0, -np.inf))
    hm, fm = next(down, (-0.0, -np.inf))
    if f0 >= fp and f0 >= fm:
        if hm == hp:
            raise NoLineMax("degenerate chord through the trust region")
        return hm, 0.0, hp, f0

    march, b, fb = (up, hp, fp) if fp >= fm else (down, hm, fm)
    a = 0.0
    for c, fc in march:
        if fc < fb:
            lo, hi = sorted((a, c))
            return lo, b, hi, fb
        a, b, fb = b, c, fc
    raise NoLineMax("f is monotone along the probed range of the line")


def line_local_max(obj: Objective, x: np.ndarray, v: np.ndarray,
                   region: TrustRegion, scan: Optional[tuple] = None
                   ) -> LineExtremum:
    """Local maximizer of t -> f(x + t v): the polished _line_max_bracket.

    scan, when given, is the line's chord scan as offsets from x
    (LineSection.scan): its highest tabulated point, first on ties, and
    that point's neighbours, which the scan always evaluates, are the
    bracket instead, when they hold t = 0.
    """
    v = _check_unit(v)
    phi, dphi = _line_funcs(obj, x, v)
    bracket = None
    if scan is not None:
        offsets, values = scan
        i = values.index(max(values))
        if 0 < i < len(offsets) - 1 and offsets[i - 1] < 0.0 < offsets[i + 1]:
            bracket = offsets[i - 1], offsets[i], offsets[i + 1]
    if bracket is None:
        t_lo, t_hi = region.line_interval(x, v)
        bracket = _line_max_bracket(phi, t_lo, t_hi, region.radius)[:3]
    t = _refine_max(phi, dphi, *bracket)
    return LineExtremum(t, phi(t))


def _level_crossing(phi: Callable, t_in: float, t_out: float, r_in: float,
                    r_out: float, level: float, xtol: float,
                    seed: Optional[float] = None) -> float:
    """Root of phi - level between t_in and t_out: the zero of the line
    through the pair Brent's method returns (_brent, _interpolate).

    r_in = phi(t_in) - level > 0 >= r_out = phi(t_out) - level. A seed, a
    predicted root, that lies strictly between t_in and t_out is evaluated
    first, and Brent's method runs on the half of the bracket that holds the
    sign change; a root that starts inside a narrow bracket needs few more
    values (Brent, 1973, ch. 4). Any other seed is never evaluated.
    """
    def residual(s: float) -> float:
        return phi(s) - level

    if seed is not None and min(t_in, t_out) < seed < max(t_in, t_out):
        r_seed = residual(seed)
        if r_seed > 0.0:
            t_in, r_in = seed, r_seed
        else:
            t_out, r_out = seed, r_seed
    return _interpolate(*_brent(residual, t_in, t_out, r_in, r_out, xtol))


def _interpolate(t: float, r: float, s: float, q: float) -> float:
    """Zero of the line through (t, r) and (s, q), the pair _brent returns;
    t when r = 0.

    It evaluates nothing, so the crossing costs values only. Across a final
    bracket, where the residuals r and q have opposite signs, it stays
    inside the bracket; from Brent's last two interpolation steps it is the
    secant step that finishes the root, beyond t when both lie on one side
    of it (Brent, 1973, ch. 4).
    """
    return t if r == 0.0 else t - r * (s - t) / (q - r)


def _cross_outward(phi: Callable, dphi: Callable, x: np.ndarray, v: np.ndarray,
                   level: float, t_start: float, sgn: float, bound: float,
                   radius: float, seed: Optional[float] = None,
                   h0: Optional[float] = None, dips: bool = True) -> float:
    """Walk the _march probes from t_start, where phi > level (or = level
    when the first probe lies above it), in the direction sgn toward bound,
    to the component edge, with first step h0; phi(t_start) comes from the
    value memo.

    A probe below the level closes a bracket whose crossing Brent's method
    solves, from the predicted root seed when it lies inside the bracket
    (_level_crossing). With dips, between probes that both sit above the
    level, a sign flip of the directional derivative marks a hidden dip; the
    dip is located and tested, and a crossing before it is returned if it
    reaches below the level. The first probe has no slope at t_start to
    compare with and so makes no dip test. A dip that lies wholly between
    two probes where phi falls outward shows no sign flip and is not seen;
    without dips no dip is, and the march takes values only. Probes that
    end above the level raise CrossingOutsideRegion, which carries the
    march (x, v, level, t_start, sgn).
    """
    xtol = CROSSING_XTOL_FRAC * radius
    t_prev, f_prev, d_prev = t_start, phi(t_start), 0.0
    for t_next, f_next in _march(phi, t_start, sgn, bound, radius, h0):
        if f_next <= level:
            return _level_crossing(phi, t_prev, t_next, f_prev - level,
                                   f_next - level, level, xtol, seed)
        d_next = dphi(t_next) * sgn if dips else 0.0
        if d_prev < 0.0 < d_next:
            t_dip = _brent(lambda t: dphi(t) * sgn, t_prev, t_next, d_prev,
                           d_next, _STATIONARY_XTOL)[0]
            f_dip = phi(t_dip)
            if f_dip <= level:
                if f_dip >= level - ROOT_TOL:
                    return float(t_dip)
                return _level_crossing(phi, t_prev, t_dip, f_prev - level,
                                       f_dip - level, level, xtol, seed)
            # The component continues through the dip.
        t_prev, f_prev, d_prev = t_next, f_next, d_next
    raise CrossingOutsideRegion(_ESCAPED, x, v, level, t_start, sgn)


def _continued_crossings(phi: Callable, dphi: Callable, x: np.ndarray,
                         v: np.ndarray, near: LineSection, t_lo: float,
                         t_hi: float, radius: float) -> Optional[tuple]:
    """Crossings (t1, t2) continued from near's, or None when a check fails.

    near's endpoints carried over to the line through x are the predictions
    p1 <= p2; the first step is the distance between the two parallel lines.
    Both predictions must lie in [t_lo, t_hi]. A prediction above the level
    is marched from outward on values only (_cross_outward without dips);
    when that march reaches t_lo or t_hi still above the level it is made
    again from the prediction with the default first step and dip tests: its
    CrossingOutsideRegion, which starts at the prediction, propagates, and
    the crossing it finds before a dip that closes the component is that
    side's crossing. From a prediction on or below the level the march goes
    inward until f rises above the level, and fails the check if it reaches
    the predicted midpoint first; f between two predictions above the level
    is never probed.
    """
    level = near.level
    d = near.x - x
    dv = float(d @ v)
    p1, p2 = near.t1 + dv, near.t2 + dv
    if not t_lo <= p1 <= p2 <= t_hi:
        return None
    mid = 0.5 * (p1 + p2)
    xtol = CROSSING_XTOL_FRAC * radius
    w = d - dv * v
    h0 = max(math.sqrt(float(w.dot(w))), xtol)
    crossings = []
    for p, sgn, bound in ((p1, -1.0, t_lo), (p2, 1.0, t_hi)):
        t_out, f_out = p, phi(p)
        if f_out > level:
            try:
                t = _cross_outward(phi, dphi, x, v, level, p, sgn, bound,
                                   radius, h0=h0, dips=False)
            except CrossingOutsideRegion:
                t = _cross_outward(phi, dphi, x, v, level, p, sgn, bound,
                                   radius)
            crossings.append(t)
            continue
        # The inward march stops at mid; if f never rises above, go cold.
        for t_in, f_in in _march(phi, p, -sgn, mid, radius, h0):
            if f_in > level:
                break
            t_out, f_out = t_in, f_in
        else:
            return None
        crossings.append(_level_crossing(phi, t_in, t_out, f_in - level,
                                         f_out - level, level, xtol))
    return tuple(crossings)


def find_level_crossings(obj: Objective, x: np.ndarray, v: np.ndarray,
                         level: float, region: TrustRegion,
                         near: Union[LineSection, CrossingOutsideRegion,
                                     None] = None,
                         predicted: tuple = (None, None)) -> LineSection:
    """Section of {f >= level} on the line {x + t v} around its local max.

    Cold, brackets the line-local max nearest t = 0 (_line_max_bracket).
    When the bracket's middle probe b lies above the level the section cannot
    be empty, and both crossings are bracketed outward from b, with no polish
    of the max. Otherwise the max is polished: if its value does not exceed
    the level the section is empty and carries the max, else the marches
    start from it. Every outward march is _cross_outward's; one that reaches
    the region bound above the level raises CrossingOutsideRegion, which
    carries the march. predicted holds the predicted crossings (t1, t2),
    either of them None: the crossing solve that closes each cold march
    starts from its prediction when that lies strictly inside the march's
    final bracket, and evaluates it not at all otherwise (_level_crossing).
    The bracket, the marches and their dip tests are the unseeded ones, so
    the section is the unseeded section up to the bits of the crossings.

    Warm, near was solved on a nearby parallel line with the same v and
    level (else ValueError). When near is a non-empty section, the crossings
    are sought next to near's endpoints carried over to this line
    (_continued_crossings), the predictions, and are the crossings next to
    them, up to dips that lie between the two predictions or between two
    probes. The outward march from a prediction takes values only; one that
    reaches the bound above the level is made again with dip tests, and
    raises CrossingOutsideRegion from the prediction, or gives the crossing
    before a dip that closes the component. When near is a
    CrossingOutsideRegion that a march raised, its march start is carried
    over to this line, and the _march probes from it toward the same bound
    are taken on values only, solving no crossing; if every probe stays
    above the level the continued escape is raised: the component through
    the carried start reaches the bound, up to dips between two probes. When
    a check of the warm path fails the section is solved cold. Each crossing
    is the zero of the line through the pair Brent's method returns
    (_level_crossing), to |f - level| <= ROOT_TOL; it costs values
    only, and gradients are paid only for the dip tests of the dip-tested
    marches: the cold ones and a warm one that reached the bound.
    """
    v = _check_unit(v)
    x = np.asarray(x, dtype=float)
    phi, dphi = _line_funcs(obj, x, v)
    t_lo, t_hi = region.line_interval(x, v)
    if near is not None:
        escape = isinstance(near, CrossingOutsideRegion)
        if not escape and near.empty:
            raise ValueError("near must be a non-empty section")
        if near.level != level or not (near.v is v
                                       or np.array_equal(near.v, v)):
            raise ValueError("near must have the same direction and level")
        if escape:
            t_start = near.t_start + float((near.x - x) @ v)
            bound = t_hi if near.sgn > 0.0 else t_lo
            if (t_lo <= t_start <= t_hi and phi(t_start) > level
                    and all(f > level for _, f in _march(
                        phi, t_start, near.sgn, bound, region.radius))):
                raise CrossingOutsideRegion(_ESCAPED, x, v, level, t_start,
                                            near.sgn)
        else:
            warm = _continued_crossings(phi, dphi, x, v, near, t_lo, t_hi,
                                        region.radius)
            if warm is not None:
                return LineSection(x, v, level, float(warm[0]), float(warm[1]))
    a, b, c, fb = _line_max_bracket(phi, t_lo, t_hi, region.radius)
    if fb <= level:
        b = _refine_max(phi, dphi, a, b, c)
        fb = phi(b)
        if fb <= level:
            return LineSection(x, v, level, line_max=LineExtremum(b, fb))
    p1, p2 = predicted
    t2 = _cross_outward(phi, dphi, x, v, level, b, 1.0, t_hi, region.radius,
                        p2)
    t1 = _cross_outward(phi, dphi, x, v, level, b, -1.0, t_lo, region.radius,
                        p1)
    return LineSection(x, v, level, float(t1), float(t2))


def find_far_crossing(obj: Objective, x: np.ndarray, v: np.ndarray,
                      level: float, region: TrustRegion, grad: np.ndarray,
                      scan: Optional[tuple] = None) -> LineSection:
    """Section of {f >= level} on the line {x + t v} when f(x) = level.

    grad is grad f(x). t = 0 is then one crossing, and the other lies on the
    uphill side, sign(phi'(0)) with phi'(0) = grad'v. scan, when given, is
    the line's chord scan as offsets from x (LineSection.scan):
    chord_section's walk over it brackets the far crossing (_scan_walk,
    _scan_crossing), with values only, and the section carries the scan.
    Without it, or when every walked point lies above the level, a march
    uphill from 0 brackets it. When the first probe already lies on or
    below the level, Brent's method solves the deflated residual
    (phi(t) - level)/t, whose value at t = 0 is phi'(0) and is never
    evaluated; otherwise a march restarted from (0, level) brackets it
    outward as in find_level_crossings (_cross_outward). Each way the zero
    of the line through the pair Brent's method returns is the root, which
    takes no gradient (_interpolate). A far crossing within 2*xtol of 0
    gives the point section at t = 0: no evaluated point rose above the
    level. When phi'(0) = 0 the section is solved cold
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
    bound = t_hi if sgn > 0.0 else t_lo
    t_far = None
    if scan is not None:
        walk = _scan_walk(scan, level, sgn, lambda j: phi(scan[0][j]))
        bracket = _scan_crossing(phi, walk, level, 0.0, xtol, d0)
        if bracket is not None:
            t_far = _interpolate(*bracket)
    if t_far is None:
        t, f = next(_march(phi, 0.0, sgn, bound, region.radius), (None, None))
        if t is not None and f <= level:
            t_far = _interpolate(*_brent(lambda s: (phi(s) - level) / s, 0.0,
                                         t, d0, (f - level) / t, xtol))
        else:
            t_far = _cross_outward(phi, dphi, x, v, level, 0.0, sgn, bound,
                                   region.radius)
    if abs(t_far) <= 2.0 * xtol:
        return LineSection(x, v, level, 0.0, 0.0, scan=scan)
    t1, t2 = sorted((0.0, float(t_far)))
    return LineSection(x, v, level, t1, t2, scan=scan)


def _scan_walk(scan: tuple, level: float, sgn: float,
               fill: Callable) -> Iterator[tuple[float, float]]:
    """(t, f) of the chord scan points beyond t = 0 in the direction sgn,
    nearest first.

    scan = (offsets, values) is the chord grid as ascending offsets from
    the section's base point, with f there (-inf where not evaluated). The
    walk passes over the points not evaluated, except the one just before
    the first point on or below the level (within ROOT_TOL): fill(j)
    evaluates that one and the table keeps its value, so the crossing gets
    the bracket of the full scan.
    """
    offsets, values = scan
    if sgn > 0.0:
        js = range(bisect.bisect_right(offsets, 0.0), len(offsets))
    else:
        js = range(bisect.bisect_left(offsets, 0.0) - 1, -1, -1)
    skipped = None
    for j in js:
        if values[j] == -math.inf:
            skipped = j
            continue
        if skipped is not None and values[j] - level <= ROOT_TOL:
            values[skipped] = fill(skipped)
            yield offsets[skipped], values[skipped]
        skipped = None
        yield offsets[j], values[j]


def _scan_crossing(phi: Callable, walk: Iterator, level: float, r0: float,
                   xtol: float, d0: float = 0.0) -> Optional[tuple]:
    """Brent's pair (t, r, s, q) for the crossing of the level nearest t = 0
    along a chord scan walk (_scan_walk), or None when every walked point
    lies above the level.

    r0 = phi(0) - level >= 0. The first walked point on or below the level
    closes the bracket, so a dip below the level that a walked point shows
    is not stepped over. Brent's method solves phi - level from the last
    point above the level, t = 0 included when r0 > 0, and the result is
    its best point t with residual r and the other point s of its pair with
    residual q (_brent); when no such point exists (t = 0 on the level), it
    solves the deflated residual (phi(t) - level)/t from t = 0, whose value
    there is d0 = phi'(0) and is never evaluated. A walked point t on the
    level within ROOT_TOL is itself the root, returned as (t, 0, t, 0).
    """
    t_in, r_in = 0.0, r0
    for t, f in walk:
        r = f - level
        if r <= 0.0:
            if r_in > 0.0:
                return _brent(lambda s: phi(s) - level, t_in, t, r_in, r,
                              xtol)
            return _brent(lambda s: (phi(s) - level) / s, 0.0, t, d0, r / t,
                          xtol)
        if r <= ROOT_TOL:
            return t, 0.0, t, 0.0
        t_in, r_in = t, r
    return None


def chord_section(obj: Objective, a: np.ndarray, b: np.ndarray) -> LineSection:
    """Section of {f >= max(f(a), f(b))} on the chord [a, b] around its ridge.

    Scans the chord on 65 points: the 33 even ones, then the two odd
    neighbours of each even point at least as high as its even neighbours
    (the ends too). It bases the section at the highest point evaluated,
    the first on ties, with v = (a - b)/|a - b|, at no further evaluation:
    the section needs only a base point above the level, and the level-set
    moves do the local work. A hump narrower than about two scan steps on
    the flank of a wider one can fall between the even points. In one
    dimension the chord is the whole space and its max is the saddle, so
    there the max is polished (_refine_max) and the section is based on it.
    The crossing of the level nearest the base point on either side is
    solved by Brent's method, bracketed by the scan (_scan_walk,
    _scan_crossing). The section carries the scan (LineSection.scan), which
    the level raises on the chord line and (PD)'s collapse test read.
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
    vals = [phi(t) if j % 2 == 0 else -math.inf for j, t in enumerate(ts)]

    def at(j: int) -> float:
        if vals[j] == -math.inf:  # not evaluated yet
            vals[j] = phi(ts[j])
        return vals[j]

    n = len(ts)
    for j in range(0, n, 2):
        if vals[j] >= max(vals[max(j - 2, 0)], vals[min(j + 2, n - 1)]):
            for k in range(max(j - 1, 1), min(j + 2, n), 2):
                at(k)
    i = int(np.argmax(vals))
    if i == 0 or i == n - 1:
        raise BadEndpoints("f has no interior line-local max on [a, b]")
    if obj.n == 1:  # the chord is the whole space: its max is the saddle
        t_star = _refine_max(phi, dphi, ts[i - 1], ts[i], ts[i + 1])
        f_star = phi(t_star)
    else:
        t_star, f_star = float(ts[i]), vals[i]
    level = max(obj.value(a), vals[0])
    if f_star <= level:
        raise BadEndpoints("ridge does not rise above the endpoint level")
    m = b + t_star * v
    phi_m, _ = _line_funcs(obj, m, v)
    scan = ([t - t_star for t in ts.tolist()], vals)

    def crossing(sgn: float, t_end: float) -> float:
        bracket = _scan_crossing(phi_m, _scan_walk(scan, level, sgn, at),
                                 level, f_star - level,
                                 1e-12 * max(1.0, abs(t_end)))
        if bracket is None:  # never: the ends lie on or below the level
            raise BadEndpoints("chord endpoint lies above the initial level")
        return bracket[0]

    t2 = crossing(1.0, L - t_star)
    t1 = crossing(-1.0, -t_star)
    return LineSection(m, v, level, float(t1), float(t2), scan=scan)


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
                t = float(_brent(dphi, lo, t_k, d_lo, d_k, _STATIONARY_XTOL)[0])
                return LineExtremum(t, phi(t))
            lo, d_lo = t_k, d_k
        return LineExtremum(b, fb)  # flat wiggle; best available point
    d_prev = dphi(b)
    for c, fc in probes:
        d_next = dphi(c)
        if fc > fb:
            t = _refine_max(lambda s: -phi(s), lambda s: -dphi(s), a, b, c)
            return LineExtremum(t, phi(t))
        if d_prev < 0.0 < d_next:
            # Passed a minimum that did not show up in the values yet.
            t = float(_brent(dphi, b, c, d_prev, d_next, _STATIONARY_XTOL)[0])
            return LineExtremum(t, phi(t))
        a, b, fb, d_prev = b, c, fc, d_next
    return LineExtremum(b, fb)
