"""Exact quadratic models 0.5 x'Hx + g'x + c and Newton refinement.

This is the package's one home for dense linear algebra: the spectral
decomposition (LAPACK's symmetric eigensolver), the Morse index, and the
orthonormal basis of the complement of a direction. Hessians reach n = 50
and more on the solver's path, so nothing here is hand-rolled. The module
also provides the seeded generator of random models with Morse index one
used by the verification suites and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import NewtonBreakdown
from .objective import Objective, QuadraticObjective, TrustRegion

_MORSE_ZERO_TOL = 1e-12   # eigenvalue zero threshold, relative to ||H||
_COND_LIMIT = 1e12


def decompose(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectral decomposition of a symmetric matrix, eigenvalues descending."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be square")
    if np.max(np.abs(H - H.T)) > 1e-10 * max(1.0, np.max(np.abs(H))):
        raise ValueError("H must be symmetric")
    evals, evecs = np.linalg.eigh(0.5 * (H + H.T))
    return evals[::-1], evecs[:, ::-1]


def morse_index(H: np.ndarray) -> int:
    """Number of negative eigenvalues, with a zero threshold relative to ||H||."""
    evals, _ = decompose(H)
    scale = np.max(np.abs(evals))
    if scale == 0.0:
        return 0
    return int(np.sum(evals < -_MORSE_ZERO_TOL * scale))


def complement_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane perpendicular to unit v (n x (n-1))."""
    n = v.size
    e = np.zeros(n)
    e[0] = 1.0 if v[0] >= 0 else -1.0
    u = v + e
    Hh = np.eye(n) - 2.0 * np.outer(u, u) / (u @ u)
    # Hh maps v to -e and is orthogonal symmetric; its other columns span v-perp.
    return Hh[:, 1:]


@dataclass(frozen=True)
class QuadraticModel:
    """Quadratic 0.5 x'Hx + g'x + c with its spectral decomposition attached."""

    H: np.ndarray
    g: np.ndarray
    c: float
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    morse_index: int

    @classmethod
    def from_coefficients(cls, H: np.ndarray, g: np.ndarray, c: float) -> "QuadraticModel":
        H = np.asarray(H, dtype=float)
        g = np.asarray(g, dtype=float)
        evals, evecs = decompose(H)
        return cls(H=0.5 * (H + H.T), g=g, c=float(c), eigenvalues=evals,
                   eigenvectors=evecs, morse_index=morse_index(H))

    @property
    def n(self) -> int:
        return self.g.size

    @property
    def negative_eigenvector(self) -> np.ndarray:
        """Unit eigenvector of the smallest eigenvalue."""
        return self.eigenvectors[:, -1].copy()

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.H @ x + self.g @ x + self.c)

    def as_objective(self) -> QuadraticObjective:
        return QuadraticObjective(self.H, self.g, self.c)


def saddle_of(model: QuadraticModel) -> tuple[np.ndarray, float]:
    """Critical point -H^{-1} g of the model and its value. H must be invertible."""
    xbar = np.linalg.solve(model.H, -model.g)
    return xbar, model.value(xbar)


def generate_morse1(n: int, seed: int,
                    spectrum_range: tuple[float, float] = (0.5, 3.0)) -> QuadraticModel:
    """Random quadratic with exactly one negative eigenvalue, deterministic per seed.

    The orthogonal factor comes from the QR decomposition (Householder
    products) of a seeded Gaussian matrix with the usual sign fix; n-1
    eigenvalues are drawn from the given range and one from its negation.
    """
    if n < 2:
        raise ValueError("need n >= 2 for a Morse-index-one model")
    lo, hi = spectrum_range
    if not (0 < lo < hi):
        raise ValueError("spectrum_range must satisfy 0 < lo < hi")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    lam = np.empty(n)
    lam[:n - 1] = rng.uniform(lo, hi, size=n - 1)
    lam[n - 1] = -rng.uniform(lo, hi)
    H = (Q * lam) @ Q.T
    H = 0.5 * (H + H.T)
    g = rng.standard_normal(n)
    c = float(rng.standard_normal())
    return QuadraticModel.from_coefficients(H, g, c)


@dataclass
class NewtonResult:
    x: np.ndarray
    converged: bool
    grad_norm: float
    morse_index: int
    iterates: list
    message: str = ""


def newton_refine(obj: Objective, x0: np.ndarray, region: TrustRegion,
                  gtol: float = 1e-12, max_iter: int = 50) -> NewtonResult:
    """Newton iteration on grad f = 0 with steps clipped to the trust region.

    Stops when |grad f| <= gtol or after max_iter steps. The result reports
    the Morse index of the Hessian at the final point so callers can reject
    limits that are not index-one saddles. Raises NewtonBreakdown on a
    singular or badly conditioned Hessian (1-norm condition above 1e12).
    """
    x = np.asarray(x0, dtype=float).copy()
    iterates = [x.copy()]
    grad = obj.gradient(x)
    gn = float(np.linalg.norm(grad))
    for _ in range(max_iter):
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
        iterates.append(x.copy())
        grad = obj.gradient(x)
        gn = float(np.linalg.norm(grad))
    converged = gn <= gtol
    idx = morse_index(obj.hessian(x))
    msg = "converged" if converged else "max_iter reached"
    return NewtonResult(x=x, converged=converged, grad_norm=gn,
                        morse_index=idx, iterates=iterates, message=msg)
