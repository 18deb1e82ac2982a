"""Independent oracles used by the tests.

Everything here is deliberately primitive: dense 1-D grid scans with
bisection polish, plain central differences, and frozen reference constants
for the six-hump camel computed by a grid + Newton census. None of it shares
code with the library paths it is used to check.
"""

from __future__ import annotations

import numpy as np

# Critical points of the six-hump camel, frozen from a dense-grid Newton
# census (45 x 31 starts on [-2.2, 2.2] x [-1.5, 1.5], dedup at 1e-6).
# Each entry: (x1, x2, f, morse_index). The function is symmetric under
# x -> -x; only canonical representatives are listed where relevant.
CAMEL_MINIMA = [
    (-1.7036067150, +0.7960835687, -0.2154638244, 0),
    (-1.6071047529, -0.5686514549, +2.1042503103, 0),
    (-0.0898420131, +0.7126564030, -1.0316284535, 0),
    (+0.0898420131, -0.7126564030, -1.0316284535, 0),
    (+1.6071047529, +0.5686514549, +2.1042503103, 0),
    (+1.7036067150, -0.7960835687, -0.2154638244, 0),
]
CAMEL_SADDLES = [
    (-1.6380679842, -0.2286740690, +2.2293571975, 1),
    (-1.2960702672, -0.6050843880, +2.2294708180, 1),
    (-1.1092053368, +0.7682680925, +0.5437186010, 1),
    (0.0, 0.0, 0.0, 1),
    (+1.1092053368, -0.7682680925, +0.5437186010, 1),
    (+1.2960702672, +0.6050843880, +2.2294708180, 1),
    (+1.6380679842, +0.2286740690, +2.2293571975, 1),
]
CAMEL_MAXIMA = [
    (-1.2302298765, -0.1623345845, +2.4962953510, 2),
    (+1.2302298765, +0.1623345845, +2.4962953510, 2),
]
CAMEL_GLOBAL_MIN = np.array([0.0898420131, -0.7126564030])
CAMEL_SADDLE_NEAR_M1 = np.array([-1.1092053368, 0.7682680925])
CAMEL_SADDLE_VALUES = sorted({round(s[2], 10) for s in CAMEL_SADDLES})


def fd_gradient(fn, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def fd_hessian(fn, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            H[i, j] = (fn(x + ei + ej) - fn(x + ei - ej)
                       - fn(x - ei + ej) + fn(x - ei - ej)) / (4.0 * h * h)
    return 0.5 * (H + H.T)


def _bisect_zero(fn, lo, hi, iters=200):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or hi - lo < 1e-15 * max(1.0, abs(mid)):
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_line_max(fn, dfn, x, v, t_lo, t_hi, n=10001):
    """Line-local max nearest t = 0 by dense scan plus derivative bisection.

    fn/dfn evaluate f and grad f; returns (t, value).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    ts = np.linspace(t_lo, t_hi, n)
    vals = np.array([fn(x + t * v) for t in ts])
    interior = [i for i in range(1, n - 1)
                if vals[i] >= vals[i - 1] and vals[i] >= vals[i + 1]]
    if not interior:
        raise RuntimeError("no interior line max on the scanned range")
    i = min(interior, key=lambda k: abs(ts[k]))
    dphi = lambda t: float(dfn(x + t * v) @ v)
    t = _bisect_zero(dphi, ts[i - 1], ts[i + 1])
    return t, fn(x + t * v)


def grid_line_min_forward(fn, dfn, x, d, t_hi, n=10001):
    """First line-local min for t > 0 by dense scan plus bisection polish."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    ts = np.linspace(0.0, t_hi, n)
    vals = np.array([fn(x + t * d) for t in ts])
    for i in range(1, n - 1):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
            dphi = lambda t: float(dfn(x + t * d) @ d)
            t = _bisect_zero(dphi, ts[i - 1], ts[i + 1])
            return t, fn(x + t * d)
    raise RuntimeError("no interior line min on the scanned range")


def grid_crossings(fn, x, v, level, t_lo, t_hi, n=20001):
    """All crossings of f = level on the line, by scan plus bisection."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    ts = np.linspace(t_lo, t_hi, n)
    vals = np.array([fn(x + t * v) - level for t in ts])
    roots = []
    for i in range(n - 1):
        if vals[i] == 0.0:
            roots.append(ts[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(_bisect_zero(lambda t: fn(x + t * v) - level,
                                      ts[i], ts[i + 1]))
    return roots


def camel_value(p):
    x1, x2 = p
    return (4.0 - 2.1 * x1 ** 2 + x1 ** 4 / 3.0) * x1 ** 2 + x1 * x2 \
        + 4.0 * (x2 ** 2 - 1.0) * x2 ** 2


def camel_gradient(p):
    x1, x2 = p
    return np.array([2.0 * x1 ** 5 - 8.4 * x1 ** 3 + 8.0 * x1 + x2,
                     x1 + 16.0 * x2 ** 3 - 8.0 * x2])


def camel_hessian(p):
    x1, x2 = p
    return np.array([[10.0 * x1 ** 4 - 25.2 * x1 ** 2 + 8.0, 1.0],
                     [1.0, 48.0 * x2 ** 2 - 8.0]])


def newton_polish(grad, hess, x0, tol=1e-13, max_iter=80):
    """Plain Newton iteration on grad = 0; the reference refiner."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_iter):
        g = grad(x)
        if np.linalg.norm(g) <= tol:
            break
        step = np.linalg.solve(hess(x), -g)
        sn = np.linalg.norm(step)
        if sn > 1.0:
            step /= sn
        x = x + step
    return x


# Mueller-Brown potential (Mueller & Brown, Theor. Chim. Acta 53 (1979) 75):
# f(x, y) = sum_k A_k exp(a_k dx^2 + b_k dx dy + c_k dy^2), with
# dx = x - x0_k and dy = y - y0_k. One row per term: (A, a, b, c, x0, y0).
MUELLER_BROWN_TERMS = [
    (-200.0, -1.0, 0.0, -10.0, 1.0, 0.0),
    (-100.0, -1.0, 0.0, -10.0, 0.0, 0.5),
    (-170.0, -6.5, 11.0, -6.5, -0.5, 1.5),
    (15.0, 0.7, 0.6, 0.7, -1.0, 1.0),
]
# Rough minima A (deepest), B, C and the two index-one saddles (A-C, then
# C-B), with the saddle values; polished by Newton before use.
MUELLER_BROWN_MINIMA_GUESS = [(-0.558, 1.442), (0.623, 0.028), (-0.050, 0.467)]
MUELLER_BROWN_SADDLES = [(-0.822, 0.624, -40.6648435087),
                         (0.212, 0.293, -72.2489401123)]


def _mueller_brown_terms(p):
    """(e_k, a_k, b_k, c_k, d/dx exponent, d/dy exponent) per term."""
    x, y = p
    for A, a, b, c, x0, y0 in MUELLER_BROWN_TERMS:
        dx, dy = x - x0, y - y0
        yield (A * np.exp(a * dx * dx + b * dx * dy + c * dy * dy), a, b, c,
               2.0 * a * dx + b * dy, b * dx + 2.0 * c * dy)


def mueller_brown_value(p):
    return float(sum(t[0] for t in _mueller_brown_terms(p)))


def mueller_brown_gradient(p):
    return sum(e * np.array([gx, gy])
               for e, _, _, _, gx, gy in _mueller_brown_terms(p))


def mueller_brown_hessian(p):
    return sum(e * np.array([[gx * gx + 2.0 * a, gx * gy + b],
                             [gx * gy + b, gy * gy + 2.0 * c]])
               for e, a, b, c, gx, gy in _mueller_brown_terms(p))


def mueller_brown_polished(points):
    """The given points polished by Newton on grad f = 0."""
    return [newton_polish(mueller_brown_gradient, mueller_brown_hessian,
                          np.array(p[:2], dtype=float)) for p in points]


class DoubleWell:
    """f(x) = (y1^2 - 2)^2 / 4 + b y1^2 y2 + sum_{i>=2} lam_i y_i^2 / 2.

    y = Q'(x - c) for a rotation Q and a centre c drawn from a generator
    seeded by n. The index-one saddle is c (f = 1), and the two minima, mirror
    images under y1 -> -y1, have equal values. The bend b curves the valley
    so that the chord between the minima misses the saddle.
    """

    bend = 0.4

    def __init__(self, n: int):
        rng = np.random.default_rng(n)
        self.n = n
        self.Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        self.centre = 0.5 * rng.standard_normal(n)
        self.lam = np.concatenate([[0.0], np.linspace(1.0, 3.0, n - 1)])

    def _y(self, x):
        return self.Q.T @ (np.asarray(x, dtype=float) - self.centre)

    def value(self, x):
        y = self._y(x)
        return float(0.25 * (y[0] ** 2 - 2.0) ** 2 + self.bend * y[0] ** 2 * y[1]
                     + 0.5 * y @ (self.lam * y))

    def gradient(self, x):
        y = self._y(x)
        gy = self.lam * y
        gy[0] += y[0] * (y[0] ** 2 - 2.0) + 2.0 * self.bend * y[0] * y[1]
        gy[1] += self.bend * y[0] ** 2
        return self.Q @ gy

    def hessian(self, x):
        y = self._y(x)
        Hy = np.diag(self.lam)
        Hy[0, 0] += 3.0 * y[0] ** 2 - 2.0 + 2.0 * self.bend * y[1]
        Hy[0, 1] = Hy[1, 0] = 2.0 * self.bend * y[0]
        return self.Q @ Hy @ self.Q.T

    def minima(self):
        """Both minima: closed form, polished by Newton."""
        s2 = 2.0 / (1.0 - 2.0 * self.bend ** 2 / self.lam[1])
        out = []
        for sign in (1.0, -1.0):
            y = np.zeros(self.n)
            y[0], y[1] = sign * np.sqrt(s2), -self.bend * s2 / self.lam[1]
            out.append(newton_polish(self.gradient, self.hessian,
                                     self.centre + self.Q @ y))
        return out[0], out[1]


def validate_section(sec, obj) -> None:
    """Re-assert the invariants of the solver's section: v is a unit vector
    and both endpoints lie on the level to within 1e-9 (10 times line1d's
    root tolerance). Raises ValueError on a violation."""
    if abs(np.linalg.norm(sec.v) - 1.0) > 1e-10:
        raise ValueError("v is not a unit vector")
    for name, p in (("z", sec.z), ("z'", sec.zp)):
        r = abs(obj.value(p) - sec.level)
        if r > 1e-9:
            raise ValueError(f"|f({name}) - level| = {r:.3e} exceeds tolerance")
