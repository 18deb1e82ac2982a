"""Smooth objectives f: R^n -> R with value/gradient/Hessian evaluation.

An :class:`Objective` wraps user callables for f and its derivatives. The
gradient is required; the Hessian is optional and falls back to forward
finite differences of the gradient. Values and gradients are remembered
per thread until :meth:`Objective.clear_memos`. Built-in test functions used
throughout the package and its test suite are constructed by
:func:`builtin`; exact quadratics live in :mod:`mtnpass.quadmodel`. The
module also holds the trust region that every search stays in.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError

# Forward-difference step of the finite-difference Hessian along e_j, scaled
# by max(1, |x_j|): about sqrt(machine epsilon), which balances the O(h)
# truncation error against the rounding of the gradient difference.
FD_HESS_STEP = 1e-8
# Values and, separately, gradients remembered per thread by Objective,
# oldest dropped first.
MEMO_SIZE = 64
# Relative slack of TrustRegion.contains on the radius.
REGION_SLACK = 1e-12


def fd_hessian(gradient: Callable[[np.ndarray], np.ndarray],
               x: np.ndarray) -> np.ndarray:
    """Forward finite-difference Hessian from a gradient, symmetrized.

    g(x) is asked for first, so a gradient memo that holds it answers it and
    the Hessian costs n new gradients. Each column divides by the step
    actually taken, (x_j + h_j) - x_j, not by h_j.
    """
    x = np.asarray(x, dtype=float)
    g0 = gradient(x)
    n = x.size
    H = np.empty((n, n))
    for j in range(n):
        probe = x.copy()
        probe[j] += FD_HESS_STEP * max(1.0, abs(x[j]))
        H[:, j] = (gradient(probe) - g0) / (probe[j] - x[j])
    return 0.5 * (H + H.T)


def _remember(memo: dict, key: bytes, result) -> None:
    """Store result under key, dropping the oldest entry of a full memo."""
    if len(memo) >= MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = result


class _ThreadState(threading.local):
    """One thread's value and gradient memos."""

    def __init__(self):
        self.values: dict = {}
        self.gradients: dict = {}


class Objective:
    """A smooth function together with evaluation counters.

    Parameters
    ----------
    n : dimension of the domain.
    value : callable returning f(x).
    gradient : callable returning the length-n gradient.
    hessian : optional callable returning the n-by-n Hessian. When absent,
        the Hessian is produced by forward differences of the gradient, n
        gradient evaluations when the gradient memo holds the one at x.
    name : identifier used in reports.

    The callables must be pure in x: :meth:`value` and :meth:`gradient`
    each remember the last MEMO_SIZE finite results they evaluated, keyed by
    the bits of x, in two separate memos, and answer a repeat from them
    uncounted (a gradient as a copy). Hessians are not remembered, and a
    non-finite result raises, and is counted, every time. The call counters
    are updated under a lock so an objective may be shared across threads.
    Memos are per thread: one thread never hits another's values or
    gradients, and :meth:`clear_memos` empties only the calling thread's.
    """

    def __init__(self, n: int,
                 value: Callable[[np.ndarray], float],
                 gradient: Callable[[np.ndarray], np.ndarray],
                 hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 name: str = "objective"):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        self.n = int(n)
        self.name = name
        self._value = value
        self._gradient = gradient
        self._hessian = hessian
        self._lock = threading.Lock()
        self._per_thread = _ThreadState()
        self.n_value_evals = 0
        self.n_grad_evals = 0
        self.n_hess_evals = 0

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected point of shape ({self.n},), got {x.shape}")
        return x

    def value(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        memo, key = self._per_thread.values, x.tobytes()
        if key in memo:
            return memo[key]
        v = float(self._value(x))
        with self._lock:
            self.n_value_evals += 1
        if not math.isfinite(v):
            raise EvaluationError(f"{self.name}: non-finite value at x={x}")
        _remember(memo, key, v)
        return v

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check_point(x)
        memo, key = self._per_thread.gradients, x.tobytes()
        if key in memo:
            return memo[key].copy()
        g = np.asarray(self._gradient(x), dtype=float)
        with self._lock:
            self.n_grad_evals += 1
        if g.shape != (self.n,):
            raise ValueError(f"{self.name}: gradient has shape {g.shape}, expected ({self.n},)")
        if not np.isfinite(g).all():
            raise EvaluationError(f"{self.name}: non-finite gradient at x={x}")
        _remember(memo, key, g.copy())
        return g

    def clear_memos(self) -> None:
        """Empty the calling thread's value and gradient memos, not the counters."""
        self._per_thread.values, self._per_thread.gradients = {}, {}

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = self._check_point(x)
        if self._hessian is not None:
            H = np.asarray(self._hessian(x), dtype=float)
        else:
            H = fd_hessian(self.gradient, x)
        with self._lock:
            self.n_hess_evals += 1
        if H.shape != (self.n, self.n):
            raise ValueError(f"{self.name}: Hessian has shape {H.shape}, expected "
                             f"({self.n}, {self.n})")
        if not np.isfinite(H).all():
            raise EvaluationError(f"{self.name}: non-finite Hessian at x={x}")
        return 0.5 * (H + H.T)

    def eval_counts(self) -> dict:
        with self._lock:
            return {"value": self.n_value_evals,
                    "gradient": self.n_grad_evals,
                    "hessian": self.n_hess_evals}


@dataclass(frozen=True)
class TrustRegion:
    """Euclidean ball realizing the convex neighborhood all searches stay in."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    def contains(self, x: np.ndarray) -> bool:
        """x lies in the ball, its radius widened by REGION_SLACK."""
        return float(np.linalg.norm(np.asarray(x, dtype=float) - self.center)) \
            <= self.radius * (1.0 + REGION_SLACK)

    def line_interval(self, x: np.ndarray, v: np.ndarray) -> tuple[float, float]:
        """Parameter range [t_lo, t_hi] of the chord {x + t v} inside the ball.

        Requires |v| = 1 and x accepted by contains. When x lies just outside
        the sphere, within that slack, and the line misses the ball, the
        interval shrinks to the line's point nearest the center.
        """
        d = np.asarray(x, dtype=float) - self.center
        b = float(d @ v)
        disc = b * b - (float(d @ d) - self.radius ** 2)
        if disc < 0:
            if not self.contains(x):
                raise ValueError("base point lies outside the trust region")
            disc = 0.0
        s = math.sqrt(disc)
        return -b - s, -b + s

    def clip_step(self, x: np.ndarray, step: np.ndarray) -> np.ndarray:
        """Scale a step so x + step stays in the ball."""
        y = np.asarray(x, dtype=float) + step
        d = y - self.center
        r = float(np.linalg.norm(d))
        if r <= self.radius:
            return np.asarray(step, dtype=float)
        # Largest s in [0,1] with |x + s*step - center| = radius.
        p = np.asarray(x, dtype=float) - self.center
        a = float(step @ step)
        b = 2.0 * float(p @ step)
        c = float(p @ p) - self.radius ** 2
        s = (-b + np.sqrt(max(b * b - 4 * a * c, 0.0))) / (2 * a)
        return s * np.asarray(step, dtype=float)


def six_hump_camel() -> Objective:
    """Two-dimensional benchmark with six local minima and a ridge of saddles."""
    # The coordinates are unpacked to Python floats, whose arithmetic is
    # faster than NumPy scalars' and rounds the same.

    def value(x):
        x1, x2 = x.tolist()
        return (4.0 - 2.1 * x1 ** 2 + x1 ** 4 / 3.0) * x1 ** 2 + x1 * x2 \
            + 4.0 * (x2 ** 2 - 1.0) * x2 ** 2

    def gradient(x):
        x1, x2 = x.tolist()
        return np.array([
            2.0 * x1 ** 5 - 8.4 * x1 ** 3 + 8.0 * x1 + x2,
            x1 + 16.0 * x2 ** 3 - 8.0 * x2,
        ])

    def hessian(x):
        x1, x2 = x.tolist()
        return np.array([
            [10.0 * x1 ** 4 - 25.2 * x1 ** 2 + 8.0, 1.0],
            [1.0, 48.0 * x2 ** 2 - 8.0],
        ])

    return Objective(2, value, gradient, hessian, name="six_hump_camel")


def tightness2d() -> Objective:
    """f(x) = (x2 - x1^2)(x1 - x2^2); its sublevel sets pinch at the origin."""
    # Python floats, as in six_hump_camel.

    def value(x):
        x1, x2 = x.tolist()
        return (x2 - x1 ** 2) * (x1 - x2 ** 2)

    def gradient(x):
        x1, x2 = x.tolist()
        return np.array([
            -3.0 * x1 ** 2 + 2.0 * x1 * x2 ** 2 + x2,
            2.0 * x1 ** 2 * x2 + x1 - 3.0 * x2 ** 2,
        ])

    def hessian(x):
        x1, x2 = x.tolist()
        return np.array([
            [-6.0 * x1 + 2.0 * x2 ** 2, 4.0 * x1 * x2 + 1.0],
            [4.0 * x1 * x2 + 1.0, 2.0 * x1 ** 2 - 6.0 * x2],
        ])

    return Objective(2, value, gradient, hessian, name="tightness2d")


_BUILTINS = {
    "six_hump_camel": six_hump_camel,
    "tightness2d": tightness2d,
}


def builtin(name: str) -> Objective:
    """Construct a built-in objective by name ('six_hump_camel' or 'tightness2d')."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin objective {name!r}; "
                         f"available: {sorted(_BUILTINS)}") from None
    return factory()
