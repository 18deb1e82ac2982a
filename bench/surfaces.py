"""The benchmark's own test surfaces, written apart from mtnpass.

Nothing here imports mtnpass: these formulas are what the benchmark checks
mtnpass's answers against. Each surface gives value, gradient and Hessian;
the 2-D value functions also accept grids (arrays whose first axis is the
coordinate), which the bottleneck-level check uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# --- six-hump camel ---------------------------------------------------------


def camel_value(p):
    x1, x2 = p[0], p[1]
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


def camel_hessian_norm(p):
    """Spectral norm of the camel Hessian, vectorised over grids."""
    x1, x2 = p[0], p[1]
    a = 10.0 * x1 ** 4 - 25.2 * x1 ** 2 + 8.0
    d = 48.0 * x2 ** 2 - 8.0
    mid, rad = 0.5 * (a + d), np.sqrt(0.25 * (a - d) ** 2 + 1.0)
    return np.maximum(np.abs(mid + rad), np.abs(mid - rad))


# Rough locations of the six camel minima, in the order the tests use
# (tests/oracles.CAMEL_MINIMA); polished by Newton before use.
CAMEL_MINIMA_GUESS = [(-1.7036, 0.7961), (-1.6071, -0.5687), (-0.0898, 0.7127),
                      (0.0898, -0.7127), (1.6071, 0.5687), (1.7036, -0.7961)]
CAMEL_BOX = (-2.2, 2.2, -1.5, 1.5)

# --- Mueller-Brown potential -------------------------------------------------
# V(x, y) = sum_k A_k exp(a_k (x - x0_k)^2 + b_k (x - x0_k)(y - y0_k)
#                         + c_k (y - y0_k)^2)
# Mueller & Brown, Theor. Chim. Acta 53 (1979) 75.
MB_A = np.array([-200.0, -100.0, -170.0, 15.0])
MB_a = np.array([-1.0, -1.0, -6.5, 0.7])
MB_b = np.array([0.0, 0.0, 11.0, 0.6])
MB_c = np.array([-10.0, -10.0, -6.5, 0.7])
MB_X0 = np.array([1.0, 0.0, -0.5, -1.0])
MB_Y0 = np.array([0.0, 0.5, 1.5, 1.0])
# Minima A, B, C (A deepest), polished by Newton before use.
MB_MINIMA_GUESS = [(-0.558, 1.442), (0.623, 0.028), (-0.050, 0.467)]
MB_BOX = (-1.7, 1.3, -0.5, 2.2)


def _mb_terms(p):
    x = np.asarray(p[0], dtype=float)[..., None]
    y = np.asarray(p[1], dtype=float)[..., None]
    dx, dy = x - MB_X0, y - MB_Y0
    e = MB_A * np.exp(MB_a * dx * dx + MB_b * dx * dy + MB_c * dy * dy)
    return dx, dy, e


def mb_value(p):
    return np.sum(_mb_terms(p)[2], axis=-1)[()]


def mb_gradient(p):
    dx, dy, e = _mb_terms(p)
    return np.array([np.sum(e * (2.0 * MB_a * dx + MB_b * dy)),
                     np.sum(e * (MB_b * dx + 2.0 * MB_c * dy))])


def _mb_hessian_entries(p):
    dx, dy, e = _mb_terms(p)
    gx = 2.0 * MB_a * dx + MB_b * dy
    gy = MB_b * dx + 2.0 * MB_c * dy
    return (np.sum(e * (gx * gx + 2.0 * MB_a), axis=-1),
            np.sum(e * (gx * gy + MB_b), axis=-1),
            np.sum(e * (gy * gy + 2.0 * MB_c), axis=-1))


def mb_hessian(p):
    hxx, hxy, hyy = (float(h) for h in _mb_hessian_entries(p))
    return np.array([[hxx, hxy], [hxy, hyy]])


def mb_hessian_norm(p):
    a, b, d = _mb_hessian_entries(p)
    mid, rad = 0.5 * (a + d), np.sqrt(0.25 * (a - d) ** 2 + b * b)
    return np.maximum(np.abs(mid + rad), np.abs(mid - rad))


@dataclass(frozen=True)
class Surface2D:
    name: str
    value: object
    gradient: object
    hessian: object
    hessian_norm: object
    box: tuple
    minima: list


def newton_critical(gradient, hessian, x0, tol=1e-13, max_iter=100):
    """Plain Newton iteration on grad = 0 from x0; raises if it fails."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_iter):
        g = gradient(x)
        if np.linalg.norm(g) <= tol:
            return x
        x = x + np.linalg.solve(hessian(x), -g)
    if np.linalg.norm(gradient(x)) > 1e3 * tol:
        raise RuntimeError(f"Newton did not converge from {x0}")
    return x


def camel() -> Surface2D:
    minima = [newton_critical(camel_gradient, camel_hessian, m)
              for m in CAMEL_MINIMA_GUESS]
    return Surface2D("six_hump_camel", camel_value, camel_gradient,
                     camel_hessian, camel_hessian_norm, CAMEL_BOX, minima)


def mueller_brown() -> Surface2D:
    minima = [newton_critical(mb_gradient, mb_hessian, m)
              for m in MB_MINIMA_GUESS]
    return Surface2D("mueller_brown", mb_value, mb_gradient, mb_hessian,
                     mb_hessian_norm, MB_BOX, minima)


# --- rotated double wells ------------------------------------------------------


@dataclass(frozen=True)
class DoubleWell:
    """f(x) = 1/2 y'Ly + beta/4 y1^4 + gamma y1^2 y2 + c,  y = Q'(x - xbar).

    With L1 < 0 < L2..Ln and beta > 2 gamma^2 / L2, the only critical points
    are the index-one saddle xbar and the two minima at
    y1 = +-s, y2 = -gamma s^2 / L2 with s^2 = -L1 / (beta - 2 gamma^2 / L2).
    The gamma term bends the valley, so the chord between the minima misses
    the saddle.
    """

    n: int
    construction_seed: int
    Q: np.ndarray
    lam: np.ndarray
    beta: float
    gamma: float
    xbar: np.ndarray
    c: float

    def _y(self, x):
        return self.Q.T @ (np.asarray(x, dtype=float) - self.xbar)

    def value(self, x) -> float:
        y = self._y(x)
        return float(0.5 * y @ (self.lam * y) + 0.25 * self.beta * y[0] ** 4
                     + self.gamma * y[0] ** 2 * y[1] + self.c)

    def gradient(self, x) -> np.ndarray:
        y = self._y(x)
        gy = self.lam * y
        gy[0] += self.beta * y[0] ** 3 + 2.0 * self.gamma * y[0] * y[1]
        gy[1] += self.gamma * y[0] ** 2
        return self.Q @ gy

    def hessian(self, x) -> np.ndarray:
        y = self._y(x)
        Hy = np.diag(self.lam)
        Hy[0, 0] += 3.0 * self.beta * y[0] ** 2 + 2.0 * self.gamma * y[1]
        Hy[0, 1] += 2.0 * self.gamma * y[0]
        Hy[1, 0] += 2.0 * self.gamma * y[0]
        return self.Q @ Hy @ self.Q.T

    def minima(self) -> tuple[np.ndarray, np.ndarray]:
        """The two minima: closed form, polished by Newton on these formulas."""
        s2 = -self.lam[0] / (self.beta - 2.0 * self.gamma ** 2 / self.lam[1])
        y = np.zeros(self.n)
        y[0], y[1] = np.sqrt(s2), -self.gamma * s2 / self.lam[1]
        out = []
        for sign in (1.0, -1.0):
            ys = y.copy()
            ys[0] *= sign
            out.append(newton_critical(self.gradient, self.hessian,
                                       self.xbar + self.Q @ ys))
        return out[0], out[1]


def double_well(n: int, construction_seed: int) -> DoubleWell:
    """A rotated double well in R^n, fixed by its construction seed."""
    rng = np.random.default_rng(construction_seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    lam = np.empty(n)
    lam[0] = -rng.uniform(0.5, 2.0)
    lam[1:] = rng.uniform(0.5, 3.0, n - 1)
    gamma = float(rng.uniform(0.3, 0.6))
    beta = float(2.0 * gamma ** 2 / lam[1] + rng.uniform(0.5, 2.0))
    xbar = 0.5 * rng.standard_normal(n)
    c = float(rng.standard_normal())
    return DoubleWell(n, construction_seed, Q, lam, beta, gamma, xbar, c)
