"""Exception types shared across the package."""

from __future__ import annotations

from typing import Optional

import numpy as np


class MtnpassError(Exception):
    """Base class for all solver errors."""


class EvaluationError(MtnpassError):
    """An objective evaluation returned a non-finite value."""


class NoLineMax(MtnpassError):
    """The restriction of f to the probed line is monotone: no interior local max."""


class BadDirection(MtnpassError):
    """A 1-D descent was requested along a non-descent direction."""


class CrossingOutsideRegion(MtnpassError):
    """Bracket expansion left the trust region before the level was crossed.

    Raised by a crossing march, it carries the march: the line's base point
    x, direction v and level, the start t_start, where f lies above the
    level, and the direction sgn (+1 or -1) toward the region bound it
    reached. A section on a nearby parallel line can continue the escape
    (line1d.find_level_crossings with near). Otherwise those are None.
    """

    def __init__(self, message: str, x: Optional[np.ndarray] = None,
                 v: Optional[np.ndarray] = None, level: Optional[float] = None,
                 t_start: Optional[float] = None, sgn: Optional[float] = None):
        super().__init__(message)
        self.x, self.v, self.level = x, v, level
        self.t_start, self.sgn = t_start, sgn


class DegenerateDenominator(MtnpassError):
    """v is nearly tangent to the level set at an endpoint; derivative formulas break down."""


class NotConcaveAlongV(MtnpassError):
    """The quadratic is not concave along v (v'Hv >= 0)."""


class NoEstimate(MtnpassError):
    """The quadratic part of the closed form is not positive semidefinite on the complement of v."""


class NewtonBreakdown(MtnpassError):
    """Newton refinement hit a singular or badly conditioned Hessian."""


class BadEndpoints(MtnpassError):
    """No line-local maximum of f exists strictly between the given endpoints."""


class LUpImpossible(MtnpassError):
    """The segment midpoint does not lie strictly above the current level."""


class AvStalled(MtnpassError):
    """The chord direction cannot be shortened further; v is already aligned."""


class CriticalCandidate(MtnpassError):
    """The gradient at a line-local max is parallel to v: full critical point candidate.

    Carries the candidate point so the caller can hand it to Newton refinement.
    """

    def __init__(self, x: np.ndarray):
        super().__init__("gradient parallel to v")
        self.x = np.asarray(x, dtype=float)
