"""Parallel distance: diameter of the line section of a super-level set.

For a unit direction v and level l, g(x) is the diameter of the section of
{f >= l} cut by the line through x along v (zero when the section is empty).
This module evaluates g, g^2 and the first and second derivatives of g^2
from the gradients and Hessians of f at the two section endpoints. For an
exact quadratic (quadmodel.QuadraticObjective) it gives g^2, its constant
Hessian and the critical level in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateDenominator, NoEstimate, NotConcaveAlongV
from .line1d import ROOT_TOL, LineSection, find_level_crossings
from .objective import Objective, TrustRegion
from .quadmodel import QuadraticObjective, decompose

# Dividing by v'grad f at an endpoint is meaningless when |v'grad f| is below
# DENOM_TOL |grad f| there (v tangent to the level set) or |grad f| is below
# DENOM_TOL times the larger endpoint gradient (a critical endpoint). It is
# also meaningless when |v'grad f| g <= ROOT_TOL for the section diameter g:
# f then moves off the level by less than the crossings are solved to across
# the whole section, so f does not fix the endpoint. That catches two
# endpoints that are both critical (equal minima on the level), which the
# relative test misses.
DENOM_TOL = 1e-8


def _model_root(grad: np.ndarray, hess: np.ndarray, w0: np.ndarray,
                v: np.ndarray) -> Optional[float]:
    """Root u nearest 0 of grad'w + 0.5 w'Hw, w = w0 + u v, with w0 _|_ v.

    This is f - level on the line through the endpoint plus w0, by the
    endpoint's second-order model (f = level at the endpoint), in the
    coordinate u that is 0 next to the endpoint. None when the model has no
    real root there.
    """
    Hw0 = hess @ w0
    a = 0.5 * float(v @ hess @ v)
    b = float(grad @ v) + float(v @ Hw0)
    c = float(grad @ w0) + 0.5 * float(w0 @ Hw0)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return None if q == 0.0 else c / q


@dataclass(frozen=True)
class ParallelDistanceEval:
    """g, g^2 and derivatives of g^2, plus the endpoint data they came from.

    Derivative fields are None when the section is empty. hess_g2 and the
    endpoint Hessians are None unless requested. The denominators are
    v'grad f at the two endpoints; they carry opposite signs for a proper
    segment (f is decreasing in v at z and increasing at z').
    """

    section: LineSection
    g: float
    g2: float
    grad_g: Optional[np.ndarray] = None
    grad_g2: Optional[np.ndarray] = None
    hess_g2: Optional[np.ndarray] = None
    denom_z: Optional[float] = None
    denom_zp: Optional[float] = None
    grad_z: Optional[np.ndarray] = None
    grad_zp: Optional[np.ndarray] = None
    hess_z: Optional[np.ndarray] = None
    hess_zp: Optional[np.ndarray] = None

    def predicted_crossings(self, x: np.ndarray
                            ) -> tuple[Optional[float], Optional[float]]:
        """Crossings (t1, t2) of the level on the line {x + t v} that the
        endpoints' second-order models predict; needs the endpoint Hessians.

        t2 is the root next to z of grad f(z)'w + 0.5 w'H(z) w with w the
        offset from z of a point on the line, and t1 the like root next to
        z'; these are the models (PD)'s Newton step is built from, and on an
        exact quadratic they are exact. Either is None when its model has
        no real root. It evaluates nothing.
        """
        sec = self.section
        v = sec.v
        # The line's point next to an endpoint lies w0 across v from it, at
        # t = (the endpoint's t on the section's line) - dv.
        d = np.asarray(x, dtype=float) - sec.x
        dv = float(d @ v)
        w0 = d - dv * v

        def crossing(t, grad, hess):
            u = _model_root(grad, hess, w0, v)
            return None if u is None else t - dv + u

        return (crossing(sec.t1, self.grad_zp, self.hess_zp),
                crossing(sec.t2, self.grad_z, self.hess_z))


def _endpoint_denominator(grad_f: np.ndarray, v: np.ndarray, where: str,
                          grad_scale: float, g: float) -> float:
    d = float(grad_f @ v)
    gn = float(np.linalg.norm(grad_f))
    if gn <= DENOM_TOL * grad_scale:
        raise DegenerateDenominator(
            f"{where} is a critical point of f (|grad f| = {gn:.3e} against "
            f"{grad_scale:.3e} at the other endpoint)")
    if abs(d) < DENOM_TOL * gn:
        raise DegenerateDenominator(
            f"v is nearly tangent to the level set at {where} "
            f"(|v'grad f| = {abs(d):.3e}, |grad f| = {gn:.3e})")
    if abs(d) * g <= ROOT_TOL:
        raise DegenerateDenominator(
            f"f is flat along v at {where} to within the root tolerance "
            f"across the section (|v'grad f| g = {abs(d) * g:.3e})")
    return d


def derivatives_from_section(obj: Objective, section: LineSection,
                             want_hessian: bool = False) -> ParallelDistanceEval:
    """g, g^2 and derivatives of g^2 on a non-empty section, from its endpoints.

    Evaluates grad f at section.z and section.zp and, when wanted, the two
    endpoint Hessians, only after the denominators pass. The result keeps
    them, and with the Hessians predicts the crossings of nearby parallel
    lines (ParallelDistanceEval.predicted_crossings). Raises
    DegenerateDenominator as eval_pardist describes.
    """
    v = section.v
    gz, gzp = obj.gradient(section.z), obj.gradient(section.zp)
    grad_scale = max(float(np.linalg.norm(gz)), float(np.linalg.norm(gzp)))
    g = section.diam
    dz = _endpoint_denominator(gz, v, "z", grad_scale, g)
    dzp = _endpoint_denominator(gzp, v, "z'", grad_scale, g)
    grad_g = -gz / dz + gzp / dzp
    grad_g2 = 2.0 * g * grad_g
    hess_g2 = Hz = Hzp = None
    if want_hessian:
        n = v.size
        I = np.eye(n)
        Az = I - np.outer(gz, v) / dz
        Azp = I - np.outer(gzp, v) / dzp
        Hz = obj.hessian(section.z)
        Hzp = obj.hessian(section.zp)
        hess_g = -Az @ Hz @ Az.T / dz + Azp @ Hzp @ Azp.T / dzp
        hess_g2 = 2.0 * np.outer(grad_g, grad_g) + 2.0 * g * hess_g
        hess_g2 = 0.5 * (hess_g2 + hess_g2.T)
    return ParallelDistanceEval(
        section=section, g=g, g2=g * g,
        grad_g=grad_g, grad_g2=grad_g2, hess_g2=hess_g2,
        denom_z=dz, denom_zp=dzp, grad_z=gz, grad_zp=gzp, hess_z=Hz,
        hess_zp=Hzp)


def eval_pardist(obj: Objective, x: np.ndarray, v: np.ndarray, level: float,
                 region: TrustRegion,
                 want_hessian: bool = False) -> ParallelDistanceEval:
    """Parallel distance at x: root-find the section, then apply the formulas.

    Raises DegenerateDenominator when v is nearly tangent to the level set at
    an endpoint, an endpoint is a critical point of f (such as an endpoint
    minimum sitting on the level), or |v'grad f| g <= ROOT_TOL at an
    endpoint, so f stays within the root tolerance of the level across the
    section (both endpoints critical, or a collapsing section); callers
    should adjust the level or the direction. An empty section gives g = 0
    with no derivatives.
    """
    section = find_level_crossings(obj, x, v, level, region)
    if section.empty:
        return ParallelDistanceEval(section=section, g=0.0, g2=0.0)
    return derivatives_from_section(obj, section, want_hessian)


def _bracket_matrix(H: np.ndarray, v: np.ndarray
                    ) -> tuple[float, np.ndarray, np.ndarray]:
    """alpha = v'Hv, Hv and A = Hv v'H - alpha H, the closed form's quadratic part."""
    alpha = float(v @ H @ v)
    Hv = H @ v
    return alpha, Hv, np.outer(Hv, Hv) - alpha * H


def _bracket_terms(model: QuadraticObjective, v: np.ndarray
                   ) -> tuple[float, float, float, np.ndarray, np.ndarray]:
    """c, alpha = v'Hv, g'v, A and b of the closed-form bracket along v.

    Raises NotConcaveAlongV unless v'Hv < 0.
    """
    v = np.asarray(v, dtype=float)
    alpha, Hv, A = _bracket_matrix(model.H, v)
    if alpha >= 0.0:
        raise NotConcaveAlongV(f"v'Hv = {alpha:.3e} is not negative")
    gv = float(model.g @ v)
    b = gv * Hv - alpha * model.g
    return model.c, alpha, gv, A, b


def closed_form_hess_g2(H: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Constant Hessian 8/(v'Hv)^2 (Hv v'H - (v'Hv) H) of a quadratic's g^2.

    It holds where the section is not empty, for v'Hv < 0.
    """
    alpha, _, A = _bracket_matrix(H, v)
    return (8.0 / alpha ** 2) * A


def closed_form_g2_quadratic(model: QuadraticObjective, x: np.ndarray,
                             v: np.ndarray, level: float
                             ) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact g^2 with gradient and Hessian for a quadratic 0.5 x'Hx + g'x + c.

    Reads the model's coefficients and evaluates nothing. Requires v'Hv < 0,
    else NotConcaveAlongV. On the branch where the section is empty, g^2 and
    its derivatives are zero (the minimal-norm subgradient at the seam).

        g^2 = max(0, 4/(v'Hv)^2 [ x'(Hvv'H - (v'Hv)H)x
                                  + 2((g'v)v'H - (v'Hv)g')x
                                  + (g'v)^2 + (v'Hv)(2*level - 2c) ])
    """
    v = np.asarray(v, dtype=float)
    c, alpha, gv, A, b = _bracket_terms(model, v)
    x = np.asarray(x, dtype=float)
    n = x.size
    kappa = gv * gv + alpha * (2.0 * level - 2.0 * c)
    bracket = float(x @ A @ x + 2.0 * b @ x + kappa)
    scale = 4.0 / alpha ** 2
    if bracket <= 0.0:
        return 0.0, np.zeros(n), np.zeros((n, n))
    return (scale * bracket, scale * (2.0 * A @ x + 2.0 * b),
            closed_form_hess_g2(model.H, v))


def estimate_critical_level(model: QuadraticObjective, v: np.ndarray) -> float:
    """Level at which the minimum of the closed-form bracket equals zero.

    For an exact quadratic this recovers the critical value of the model:
    the minimizer of g^2 touches zero exactly when the level reaches the
    value of f at the saddle. Raises NoEstimate when the quadratic part of
    the bracket is not positive semidefinite on the complement of v.
    """
    c, alpha, gv, A, b = _bracket_terms(model, v)
    evals, evecs = decompose(A)
    scale = float(np.max(np.abs(evals))) if evals.size else 0.0
    if scale == 0.0:
        raise NoEstimate("quadratic part of the bracket vanishes")
    zero_tol = 1e-10 * scale
    if evals[-1] < -zero_tol:
        raise NoEstimate("quadratic part of the bracket is indefinite")
    # Pseudo-inverse solve of A y = b on the range of A.
    coeffs = evecs.T @ b
    keep = evals > zero_tol
    y = evecs[:, keep] @ (coeffs[keep] / evals[keep])
    if np.linalg.norm(A @ y - b) > 1e-8 * max(1.0, np.linalg.norm(b)):
        raise NoEstimate("linear term is outside the range of the quadratic part")
    return c + (float(b @ y) - gv * gv) / (2.0 * alpha)
