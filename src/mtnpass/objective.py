"""Smooth objectives f: R^n -> R with value/gradient/Hessian evaluation.

An :class:`Objective` wraps user callables for f and its derivatives. The
gradient is required; the Hessian is optional and falls back to central
finite differences of the gradient. Built-in test functions used throughout
the package and its test suite are constructed by :func:`builtin`; exact
quadratics live in :mod:`mtnpass.quadmodel`. The module also holds the
trust region that every search stays in.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import EvaluationError

# Central-difference steps, scaled by max(1, |x|_inf). The gradient step
# balances truncation against roundoff of f; the Hessian step differentiates
# the (already noisy) gradient so it is coarser.
FD_GRAD_STEP = 1e-6
FD_HESS_STEP = 1e-4
# Gradients remembered per thread by Objective.gradient, oldest dropped first.
GRADIENT_MEMO_SIZE = 64


def fd_gradient(value: Callable[[np.ndarray], float], x: np.ndarray,
                step: float = FD_GRAD_STEP) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    h = step * max(1.0, float(np.max(np.abs(x))))
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (value(x + e) - value(x - e)) / (2.0 * h)
    return g


def fd_hessian(gradient: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
               step: float = FD_HESS_STEP) -> np.ndarray:
    """Central finite-difference Hessian from a gradient, symmetrized."""
    x = np.asarray(x, dtype=float)
    h = step * max(1.0, float(np.max(np.abs(x))))
    n = x.size
    H = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        H[:, j] = (gradient(x + e) - gradient(x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)


class Objective:
    """A smooth function together with evaluation counters.

    Parameters
    ----------
    n : dimension of the domain.
    value : callable returning f(x).
    gradient : callable returning the length-n gradient.
    hessian : optional callable returning the n-by-n Hessian. When absent,
        the Hessian is produced by central differences of the gradient.
    name : identifier used in reports.

    The callables must be pure in x: :meth:`gradient` remembers the last
    GRADIENT_MEMO_SIZE gradients it evaluated, keyed by the bits of x, and
    answers a repeat from that memo with a copy, uncounted and unobserved.
    The call counters are updated under a lock so an objective may be
    shared across threads. Every gradient that :meth:`gradient` evaluates,
    including the probes of the finite-difference Hessian, is also passed
    with its point to the observer installed by :meth:`watch_gradients`.
    Memos and observers are per thread: one thread neither hits another's
    gradients nor sees them.
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
        self._per_thread = threading.local()
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
        v = float(self._value(x))
        with self._lock:
            self.n_value_evals += 1
        if not math.isfinite(v):
            raise EvaluationError(f"{self.name}: non-finite value at x={x}")
        return v

    def _memo(self) -> dict:
        memo = getattr(self._per_thread, "memo", None)
        if memo is None:
            memo = self._per_thread.memo = {}
        return memo

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check_point(x)
        memo, key = self._memo(), x.tobytes()
        if key in memo:
            return memo[key].copy()
        g = np.asarray(self._gradient(x), dtype=float)
        with self._lock:
            self.n_grad_evals += 1
        if g.shape != (self.n,):
            raise ValueError(f"{self.name}: gradient has shape {g.shape}, expected ({self.n},)")
        if not np.isfinite(g).all():
            raise EvaluationError(f"{self.name}: non-finite gradient at x={x}")
        if len(memo) >= GRADIENT_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = g.copy()
        observer = getattr(self._per_thread, "observer", None)
        if observer is not None:
            observer(x, g)
        return g

    @contextmanager
    def watch_gradients(self, observer: Callable[[np.ndarray, np.ndarray], None]
                        ) -> Iterator[None]:
        """Pass each gradient evaluated in this thread to observer(x, g).

        The thread's gradient memo is emptied on entry, so every gradient the
        body asks for is evaluated, and observed, at least once. The
        observer stays installed for the body of the with block, and the
        previous one (usually none) is restored on exit, also when the body
        raises. x may be the caller's own array: copy it to keep it.
        """
        previous = getattr(self._per_thread, "observer", None)
        self._memo().clear()
        self._per_thread.observer = observer
        try:
            yield
        finally:
            self._per_thread.observer = previous

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
    radius: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    def contains(self, x: np.ndarray, slack: float = 1e-12) -> bool:
        return float(np.linalg.norm(np.asarray(x, dtype=float) - self.center)) \
            <= self.radius * (1.0 + slack)

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
        s = np.sqrt(disc)
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

    def value(x):
        x1, x2 = x
        return (4.0 - 2.1 * x1 ** 2 + x1 ** 4 / 3.0) * x1 ** 2 + x1 * x2 \
            + 4.0 * (x2 ** 2 - 1.0) * x2 ** 2

    def gradient(x):
        x1, x2 = x
        return np.array([
            2.0 * x1 ** 5 - 8.4 * x1 ** 3 + 8.0 * x1 + x2,
            x1 + 16.0 * x2 ** 3 - 8.0 * x2,
        ])

    def hessian(x):
        x1, x2 = x
        return np.array([
            [10.0 * x1 ** 4 - 25.2 * x1 ** 2 + 8.0, 1.0],
            [1.0, 48.0 * x2 ** 2 - 8.0],
        ])

    return Objective(2, value, gradient, hessian, name="six_hump_camel")


def tightness2d() -> Objective:
    """f(x) = (x2 - x1^2)(x1 - x2^2); its sublevel sets pinch at the origin."""

    def value(x):
        x1, x2 = x
        return (x2 - x1 ** 2) * (x1 - x2 ** 2)

    def gradient(x):
        x1, x2 = x
        return np.array([
            -3.0 * x1 ** 2 + 2.0 * x1 * x2 ** 2 + x2,
            2.0 * x1 ** 2 * x2 + x1 - 3.0 * x2 ** 2,
        ])

    def hessian(x):
        x1, x2 = x
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
