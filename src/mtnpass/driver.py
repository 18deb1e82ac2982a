"""Global saddle search: orchestrates the level-set subroutines.

The loop runs (PD) and dispatches on its outcome: a sufficient reduction is
followed by a chord re-alignment (Av); a small reduction raises the level
from the segment midpoint (l-up); a collapse to zero lowers the level along
a descent ray (l-down).

The solve ends at the first stop rule that applies. The first three return
a saddle only when Newton polishes their candidate to |grad f| <= gtol with
Morse index one; otherwise the loop goes on.
- small gradient observed: a gradient the solver evaluated has
  |grad f| <= gtol, at a point above the initial level;
- Newton handoff: the endpoint gap is positive and below
  _NEWTON_HANDOFF_GAP; the candidate is the segment midpoint;
- l-down critical candidate: grad f at the line max is parallel to v;
- Breakdown: _MAX_CONSECUTIVE_FAILURES iterations in a row fail;
- MaxIter: the iteration limit is reached.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (AvStalled, BadEndpoints, CriticalCandidate,
                     CrossingOutsideRegion, DegenerateDenominator,
                     LUpImpossible, NewtonBreakdown, NoLineMax)
from .line1d import ROOT_TOL, chord_section
from .objective import Objective, TrustRegion
from .quadmodel import morse_index, newton_refine
from .subroutines import (HitZero, PdStalled, ReducedSegment, SolverState,
                          step_av, step_l_down, step_l_up, step_pd)

logger = logging.getLogger(__name__)

_MAX_CONSECUTIVE_FAILURES = 3
_ETA = 0.05                  # sufficient-decrease fraction for (PD)
_NEWTON_HANDOFF_GAP = 1e-2   # endpoint gap below which Newton takes over


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances and limits of the global solve."""

    gtol: float = 1e-8            # gradient norm certifying a critical point
    max_iter: int = 500
    radius: float = 10.0          # trust-region radius around the initial midpoint
    seed: int = 0                 # recorded for reproducibility of reports

    def __post_init__(self):
        for name in ("gtol", "radius"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("max_iter", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class TraceRecord:
    iteration: int
    step: str
    level: float
    gap: float
    grad_norm_z: float
    grad_norm_zp: float
    x: np.ndarray

    def to_dict(self) -> dict:
        return {"iteration": self.iteration, "step": self.step,
                "level": self.level, "gap": self.gap,
                "grad_norm_z": self.grad_norm_z,
                "grad_norm_zp": self.grad_norm_zp,
                "x": [float(c) for c in self.x]}


@dataclass
class SolveReport:
    status: str                   # SaddleFound | MaxIter | Breakdown
    x: np.ndarray
    f: float
    grad_norm: float
    morse_index: int
    iterations: int
    eval_counts: dict
    trace: list = field(default_factory=list)
    message: str = ""

    @property
    def saddle_found(self) -> bool:
        return self.status == "SaddleFound"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "x": [float(c) for c in np.asarray(self.x)],
            "f": float(self.f),
            "grad_norm": float(self.grad_norm),
            "morse_index": int(self.morse_index),
            "iterations": int(self.iterations),
            "eval_counts": dict(self.eval_counts),
            "message": self.message,
        }


def init_state(obj: Objective, a: np.ndarray, b: np.ndarray,
               config: SolveConfig) -> SolverState:
    """Initial endpoints at level max(f(a), f(b)) around the ridge on [a, b].

    The section is line1d.chord_section: the line-local max of f strictly
    between a and b and the two crossings of the initial level on the chord.
    The trust region is the ball of radius config.radius around 0.5 (a + b).
    Raises BadEndpoints, before any evaluation, when an endpoint has the
    wrong dimension or a non-finite coordinate, and after the chord search
    when f is monotone on [a, b] or the ridge does not rise above the level.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (obj.n,) or b.shape != (obj.n,):
        raise BadEndpoints("endpoint dimension mismatch")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise BadEndpoints("endpoints must be finite")
    region = TrustRegion(0.5 * (a + b), config.radius)
    return SolverState(chord_section(obj, a, b), region, "Init")


def solve(obj: Objective, a: np.ndarray, b: np.ndarray,
          config: Optional[SolveConfig] = None) -> SolveReport:
    """Run the level-set saddle search between the endpoints a and b.

    Returns a report whose status is SaddleFound only when the final point
    satisfies |grad f| <= gtol and its Hessian has Morse index one. The trace
    records one entry per iteration. The solve is deterministic: identical
    inputs produce identical traces. While it runs, the solve watches every
    gradient obj evaluates in the calling thread (Objective.watch_gradients)
    for a small norm.
    """
    if config is None:
        config = SolveConfig()
    trace: list[TraceRecord] = []
    # The point of the smallest gradient seen since the small-gradient stop
    # last looked.
    best_x, best_norm = None, np.inf

    def observe(x: np.ndarray, g: np.ndarray) -> None:
        nonlocal best_x, best_norm
        gn = float(np.linalg.norm(g))
        if gn < best_norm:
            best_x, best_norm = x.copy(), gn

    def certificate(x: np.ndarray) -> tuple[float, int]:
        """|grad f| and the Morse index at x."""
        return float(np.linalg.norm(obj.gradient(x))), morse_index(obj.hessian(x))

    def finish(status: str, x: np.ndarray, gn: float, idx: int, iterations: int,
               message: str) -> SolveReport:
        """The report for x, certified by gn = |grad f(x)| and Morse index idx."""
        x = np.asarray(x, dtype=float)
        return SolveReport(status=status, x=x, f=obj.value(x), grad_norm=gn,
                           morse_index=idx, iterations=iterations,
                           eval_counts=obj.eval_counts(), trace=trace,
                           message=message)

    def polish(x0: np.ndarray, iterations: int, origin: str) -> Optional[SolveReport]:
        try:
            nr = newton_refine(obj, x0, region, gtol=config.gtol, max_iter=40)
        except NewtonBreakdown:
            return None
        if nr.converged and nr.morse_index == 1 and region.contains(nr.x):
            # Newton's last gradient and Hessian are at nr.x: they certify it.
            return finish("SaddleFound", nr.x, nr.grad_norm, nr.morse_index,
                          iterations, origin)
        return None

    with obj.watch_gradients(observe):
        state = init_state(obj, a, b, config)
        region = state.region
        # The initial level, raised by ROOT_TOL: crossings sit on a level only
        # to within ROOT_TOL.
        level0 = state.section.level + ROOT_TOL
        failures = 0
        it = 0
        for it in range(config.max_iter):
            sec = state.section
            gap = state.gap
            trace.append(TraceRecord(
                iteration=it, step=state.last_step, level=sec.level, gap=gap,
                grad_norm_z=float(np.linalg.norm(obj.gradient(sec.z))),
                grad_norm_zp=float(np.linalg.norm(obj.gradient(sec.zp))),
                x=np.array(sec.midpoint, dtype=float)))
            logger.debug("it=%d step=%s level=%.6g gap=%.3e", it, state.last_step,
                         sec.level, gap)

            # Small-gradient stop: a small gradient was observed anywhere. A
            # candidate on or below the initial level is skipped: in practice
            # it is an endpoint minimum on that level set, whose polish would
            # only spend a Hessian to find Morse index 0. The other stops
            # still polish points below it, since an index-one saddle can lie
            # below max(f(a), f(b)) when a or b is not a minimum.
            if best_norm <= config.gtol:
                if obj.value(best_x) > level0:
                    report = polish(best_x, it, "small gradient observed")
                    if report is not None:
                        return report
                # candidate skipped or not an index-one saddle; keep going
                best_x, best_norm = None, np.inf

            # Newton handoff once the endpoints are close. A point section
            # (gap 0) is left out: Newton there pays one Hessian more than
            # (PD) and l-down, whose next stop is an already small gradient.
            if 0.0 < gap < _NEWTON_HANDOFF_GAP:
                report = polish(state.midpoint, it, "newton handoff")
                if report is not None:
                    return report

            # Level-set step. A failed iteration leaves the state unchanged
            # and counts toward the consecutive-failure budget; any clean
            # step resets.
            failed = None
            try:
                outcome = step_pd(state, obj)
            except (DegenerateDenominator, CrossingOutsideRegion, NoLineMax) as err:
                outcome = None
                failed = str(err)

            if isinstance(outcome, HitZero):
                # Case 1c: the segment collapsed; lower the level.
                try:
                    section = step_l_down(obj, outcome.x_prime, sec.v, region)
                    state = SolverState(section, region, "LDown")
                except CriticalCandidate as cand:
                    report = polish(cand.x, it, "critical candidate from l-down")
                    if report is not None:
                        return report
                    failed = "critical candidate was not an index-one saddle"
                    state = replace(state, last_step="LDown")
                except (CrossingOutsideRegion, NoLineMax) as err:
                    failed = f"l-down failed: {err}"
                    state = replace(state, last_step="LDown")
            elif (isinstance(outcome, ReducedSegment)
                  and outcome.g_new <= (1.0 - _ETA) * outcome.g_old):
                # Case 1a: real progress; re-align the chord.
                state = outcome.state
                try:
                    state = step_av(state, obj)
                except AvStalled:
                    pass  # already aligned; the reduction still counts
            else:
                # Case 1b, little progress at this level, or (PD) stalled or
                # raised: raise the level, which sometimes repairs the state.
                if isinstance(outcome, ReducedSegment):
                    state = outcome.state
                else:
                    if isinstance(outcome, PdStalled):
                        failed = "parallel-distance reduction stalled"
                    logger.debug("PD failed: %s", failed)
                try:
                    state = step_l_up(state, obj)
                except (LUpImpossible, CrossingOutsideRegion, NoLineMax) as err:
                    if failed is None:
                        failed = f"level raise failed: {err}"

            if failed is None:
                failures = 0
            else:
                failures += 1
                if failures >= _MAX_CONSECUTIVE_FAILURES:
                    m = state.midpoint
                    return finish("Breakdown", m, *certificate(m), it, failed)

        m = state.midpoint
        return finish("MaxIter", m, *certificate(m), config.max_iter,
                      "iteration limit reached")
