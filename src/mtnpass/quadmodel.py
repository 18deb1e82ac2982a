"""Exact quadratic models 0.5 x'Hx + g'x + c and Newton refinement.

This is the package's one home for dense linear algebra: the spectral
decomposition (LAPACK's symmetric eigensolver), the Morse index, and the
orthonormal basis of the complement of a direction. Hessians reach n = 50
and more on the solver's path, so nothing here is hand-rolled. The one
exact-quadratic type, QuadraticObjective, is loaded by quadratic_from_json
and drawn with Morse index one per seed by generate_morse1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NewtonBreakdown
from .objective import Objective, TrustRegion

_MORSE_ZERO_TOL = 1e-12   # eigenvalue zero threshold, relative to ||H||
_COND_LIMIT = 1e12
NEWTON_MAX_ITER = 40   # steps newton_refine takes before it gives up
SPECTRUM_RANGE = (0.5, 3.0)   # |eigenvalues| of generate_morse1's models


def decompose(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectral decomposition of a symmetric matrix, eigenvalues descending."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be square")
    if np.max(np.abs(H - H.T)) > 1e-10 * max(1.0, np.max(np.abs(H))):
        raise ValueError("H must be symmetric")
    evals, evecs = np.linalg.eigh(0.5 * (H + H.T))
    return evals[::-1], evecs[:, ::-1]


def negative_count(evals: np.ndarray) -> int:
    """Number of negative eigenvalues, zero threshold relative to max abs(evals)."""
    scale = np.max(np.abs(evals))
    if scale == 0.0:
        return 0
    return int(np.sum(evals < -_MORSE_ZERO_TOL * scale))


def morse_index(H: np.ndarray) -> int:
    """Number of negative eigenvalues, with a zero threshold relative to ||H||."""
    return negative_count(decompose(H)[0])


def complement_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane perpendicular to unit v (n x (n-1))."""
    n = v.size
    e = np.zeros(n)
    e[0] = 1.0 if v[0] >= 0 else -1.0
    u = v + e
    Hh = np.eye(n) - 2.0 * np.outer(u, u) / (u @ u)
    # Hh maps v to -e and is orthogonal symmetric; its other columns span v-perp.
    return Hh[:, 1:]


class QuadraticObjective(Objective):
    """Exact quadratic 0.5 x'Hx + g'x + c with counted evaluations.

    Carries H (symmetrized), g, c and, from one decompose(H), the eigenvalues
    (descending), eigenvectors and Morse index.
    """

    def __init__(self, H: np.ndarray, g: np.ndarray, c: float, name: str = "quadratic"):
        H = np.asarray(H, dtype=float)
        g = np.asarray(g, dtype=float)
        c = float(c)
        n = g.size
        if g.ndim != 1 or H.shape != (n, n):
            raise ValueError(f"H has shape {H.shape} and g {g.shape}, "
                             f"expected (n, n) and (n,)")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(g))
                and np.isfinite(c)):
            raise ValueError("H, g and c must be finite")
        if np.max(np.abs(H - H.T)) > 1e-12:
            raise ValueError("H must be symmetric (within 1e-12)")
        H = 0.5 * (H + H.T)
        super().__init__(
            n,
            value=lambda x: 0.5 * x @ H @ x + g @ x + c,
            gradient=lambda x: H @ x + g,
            hessian=lambda x: H.copy(),
            name=name,
        )
        self.H = H
        self.g = g
        self.c = c
        self.eigenvalues, self.eigenvectors = decompose(H)
        self.morse_index = negative_count(self.eigenvalues)

    @property
    def negative_eigenvector(self) -> np.ndarray:
        """Unit eigenvector of the smallest eigenvalue."""
        return self.eigenvectors[:, -1].copy()


def quadratic_from_json(source) -> QuadraticObjective:
    """Load a quadratic from a JSON document {"H": [[...]], "g": [...], "c": number}.

    `source` may be a path, an open file, or an already-parsed dict. H must be
    row-major and symmetric within 1e-12, and every coefficient finite (JSON
    readers accept NaN and Infinity); unknown keys are rejected.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("quadratic document must be a JSON object")
    unknown = set(doc) - {"H", "g", "c"}
    if unknown:
        raise ValueError(f"unknown keys in quadratic document: {sorted(unknown)}")
    missing = {"H", "g", "c"} - set(doc)
    if missing:
        raise ValueError(f"missing keys in quadratic document: {sorted(missing)}")
    return QuadraticObjective(doc["H"], doc["g"], doc["c"], name="quadratic_json")


def saddle_of(model: QuadraticObjective) -> tuple[np.ndarray, float]:
    """Critical point -H^{-1} g and its value, from the coefficients (uncounted).

    H must be invertible.
    """
    xbar = np.linalg.solve(model.H, -model.g)
    return xbar, float(0.5 * xbar @ model.H @ xbar + model.g @ xbar + model.c)


def generate_morse1(n: int, seed: int) -> QuadraticObjective:
    """Random quadratic with exactly one negative eigenvalue, deterministic per seed.

    The orthogonal factor comes from the QR decomposition (Householder
    products) of a seeded Gaussian matrix with the usual sign fix; n-1
    eigenvalues are drawn from SPECTRUM_RANGE and one from its negation.
    """
    if n < 2:
        raise ValueError("need n >= 2 for a Morse-index-one model")
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    lam = np.empty(n)
    lam[:n - 1] = rng.uniform(*SPECTRUM_RANGE, size=n - 1)
    lam[n - 1] = -rng.uniform(*SPECTRUM_RANGE)
    # The constructor symmetrizes (Q lam Q'), which is symmetric to rounding.
    return QuadraticObjective((Q * lam) @ Q.T, rng.standard_normal(n),
                              rng.standard_normal())


@dataclass
class NewtonResult:
    x: np.ndarray
    converged: bool
    grad_norm: float
    morse_index: int


def newton_refine(obj: Objective, x0: np.ndarray, region: TrustRegion,
                  gtol: float) -> NewtonResult:
    """Newton iteration on grad f = 0 with steps clipped to the trust region.

    Stops when |grad f| <= gtol or after NEWTON_MAX_ITER steps. The result reports
    the Morse index of the Hessian at the final point so callers can reject
    limits that are not index-one saddles. Raises NewtonBreakdown on a
    singular or badly conditioned Hessian (1-norm condition above 1e12).
    """
    x = np.asarray(x0, dtype=float).copy()
    grad = obj.gradient(x)
    gn = float(np.linalg.norm(grad))
    for _ in range(NEWTON_MAX_ITER):
        if gn <= gtol:
            break
        H = obj.hessian(x)
        try:
            cond = np.linalg.cond(H, 1)
        except np.linalg.LinAlgError:
            raise NewtonBreakdown("Hessian condition estimate failed")
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise NewtonBreakdown(f"ill-conditioned Hessian (cond ~ {cond:.2e})")
        step = np.linalg.solve(H, -grad)
        slen = float(np.linalg.norm(step))
        if slen > region.radius:
            step *= region.radius / slen
        step = region.clip_step(x, step)
        x = x + step
        grad = obj.gradient(x)
        gn = float(np.linalg.norm(grad))
    return NewtonResult(x=x, converged=gn <= gtol, grad_norm=gn,
                        morse_index=morse_index(obj.hessian(x)))
