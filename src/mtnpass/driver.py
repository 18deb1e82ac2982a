"""Global saddle search: orchestrates the level-set subroutines.

The loop runs (PD) and dispatches on its outcome: a sufficient reduction is
followed by a chord re-alignment (Av); a small reduction raises the level
from the segment midpoint (l-up); a collapse to zero lowers the level along
a descent ray (l-down).

The solve ends at the first stop rule that applies. The first three return
a saddle only when Newton polishes their candidate to |grad f| <= gtol with
Morse index one; otherwise the loop goes on.
- small gradient observed: |grad f| <= gtol at the base point of a new
  section that (PD) did not produce: Init's highest chord scan point, or
  a point whose gradient its move evaluated;
- Newton handoff: the endpoint gap is positive and below
  _NEWTON_HANDOFF_GAP times the chord length |a - b|; the candidate is the
  segment midpoint;
- l-down critical candidate: grad f at the line max is parallel to v;
- Breakdown: an iteration left the section, and so its level, base point
  and direction, unchanged: the next one would repeat it bit for bit;
- MaxIter: the iteration limit is reached.
The segment midpoint is LineSection.midpoint, (z + z')/2, wherever it is
read: the trace's x, (PD)'s base point, l-up's level point, the Newton
handoff's candidate and the Breakdown and MaxIter report's x.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (AvStalled, BadEndpoints, CriticalCandidate,
                     CrossingOutsideRegion, DegenerateDenominator,
                     LUpImpossible, NewtonBreakdown, NoLineMax)
from .line1d import LineSection, chord_section
from .objective import Objective, TrustRegion
from .quadmodel import morse_index, newton_refine
from .subroutines import (HitZero, PdStalled, step_av, step_l_down,
                          step_l_up, step_pd)

logger = logging.getLogger(__name__)

_ETA = 0.05                  # sufficient-decrease fraction for (PD)
_NEWTON_HANDOFF_GAP = 1e-2   # gap / chord length below which Newton takes over


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances and limits of the global solve."""

    gtol: float = 1e-8            # gradient norm certifying a critical point
    max_iter: int = 500
    radius: float = 10.0          # trust-region radius around the initial midpoint
    seed: int = 0                 # recorded for reproducibility of reports

    def __post_init__(self):
        for name in ("gtol", "radius"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not 0 < value < np.inf:
                raise ValueError(f"{name} must be a positive, finite real, got {value!r}")
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
               config: SolveConfig) -> tuple[LineSection, TrustRegion]:
    """Initial section at level max(f(a), f(b)) around the ridge on [a, b],
    and the trust region of the solve.

    The section is line1d.chord_section: based at the highest point of its
    lazily refined 65-point scan, strictly between a and b (in one
    dimension at the polished max), with the two crossings of the initial
    level on the chord around it.
    The trust region is the ball of radius config.radius around 0.5 (a + b).
    Raises BadEndpoints, before any evaluation, when an endpoint has the
    wrong dimension or a non-finite coordinate or lies outside the trust
    region (|a - b| / 2 above the radius), and after the chord search when f
    is monotone on [a, b] or the ridge does not rise above the level.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (obj.n,) or b.shape != (obj.n,):
        raise BadEndpoints("endpoint dimension mismatch")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise BadEndpoints("endpoints must be finite")
    region = TrustRegion(0.5 * (a + b), config.radius)
    if not (region.contains(a) and region.contains(b)):
        raise BadEndpoints(
            f"endpoints lie outside the trust region: |a - b|/2 = "
            f"{0.5 * float(np.linalg.norm(a - b)):.6g} exceeds the radius "
            f"{config.radius:.6g}")
    return chord_section(obj, a, b), region


def solve(obj: Objective, a: np.ndarray, b: np.ndarray,
          config: Optional[SolveConfig] = None) -> SolveReport:
    """Run the level-set saddle search between the endpoints a and b.

    Returns a report whose status is SaddleFound only when the final point
    satisfies |grad f| <= gtol and its Hessian has Morse index one. The trace
    records one entry per iteration. The solve is deterministic: identical
    inputs produce identical traces, and the calling thread's memos of obj
    are emptied first (Objective.clear_memos). The report's eval_counts are
    those made during this call; threads that share obj also share its
    counters, so a solve running beside another on the same objective counts
    the other's evaluations too.
    """
    if config is None:
        config = SolveConfig()
    obj.clear_memos()
    counts0 = obj.eval_counts()
    trace: list[TraceRecord] = []

    def certificate(x: np.ndarray) -> tuple[float, int]:
        """|grad f| and the Morse index at x."""
        return float(np.linalg.norm(obj.gradient(x))), morse_index(obj.hessian(x))

    def finish(status: str, x: np.ndarray, gn: float, idx: int, iterations: int,
               message: str) -> SolveReport:
        """The report for x, certified by gn = |grad f(x)| and Morse index idx."""
        x = np.asarray(x, dtype=float)
        f = obj.value(x)
        counts = {k: n - counts0[k] for k, n in obj.eval_counts().items()}
        return SolveReport(status=status, x=x, f=f, grad_norm=gn,
                           morse_index=idx, iterations=iterations,
                           eval_counts=counts, trace=trace, message=message)

    def polish(x0: np.ndarray, iterations: int, origin: str) -> Optional[SolveReport]:
        try:
            nr = newton_refine(obj, x0, region, config.gtol)
        except NewtonBreakdown:
            return None
        if nr.converged and nr.morse_index == 1 and region.contains(nr.x):
            # Newton's last gradient and Hessian are at nr.x: they certify it.
            return finish("SaddleFound", nr.x, nr.grad_norm, nr.morse_index,
                          iterations, origin)
        return None

    section, region = init_state(obj, a, b, config)
    handoff_gap = _NEWTON_HANDOFF_GAP * float(np.linalg.norm(
        np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
    # The step that produced the section, as the trace names it, and the
    # section the last iteration started from.
    step, start = "Init", None
    for it in range(config.max_iter):
        z, zp = section.z, section.zp
        gap = float(np.linalg.norm(z - zp))
        trace.append(TraceRecord(
            iteration=it, step=step, level=section.level, gap=gap,
            grad_norm_z=float(np.linalg.norm(obj.gradient(z))),
            grad_norm_zp=float(np.linalg.norm(obj.gradient(zp))),
            x=np.array(section.midpoint, dtype=float)))
        logger.debug("it=%d step=%s level=%.6g gap=%.3e", it, step,
                     section.level, gap)

        # Repeat stop: the last iteration failed and left the section as
        # it was, so this one would repeat it bit for bit.
        if section is start:
            m = section.midpoint
            return finish("Breakdown", m, *certificate(m), it, failed)
        start = section

        # Small-gradient stop at a new section's base point: Init's highest
        # scan point, for one gradient, or a point whose gradient its move
        # evaluated; (PD)'s base point is a trial midpoint it did not.
        if step != "PD" and np.linalg.norm(obj.gradient(section.x)) <= config.gtol:
            report = polish(section.x, it, "small gradient observed")
            if report is not None:
                return report

        # Newton handoff once the endpoints are close. A point section
        # (gap 0) is left out: Newton there pays one Hessian more than (PD)
        # and l-down, whose line min the small-gradient stop then checks.
        if 0.0 < gap < handoff_gap:
            report = polish(section.midpoint, it, "newton handoff")
            if report is not None:
                return report

        # Level-set step. failed holds the last failure's reason. A failed
        # move leaves the section unchanged; a later move can replace it.
        failed = None
        try:
            outcome = step_pd(section, obj, region)
        except (DegenerateDenominator, CrossingOutsideRegion, NoLineMax) as err:
            outcome = None
            failed = str(err)

        if isinstance(outcome, HitZero):
            # Case 1c: the segment collapsed; lower the level.
            step = "LDown"
            try:
                section = step_l_down(obj, outcome.x_prime, section.v, region)
            except CriticalCandidate as cand:
                report = polish(cand.x, it, "critical candidate from l-down")
                if report is not None:
                    return report
                failed = "critical candidate was not an index-one saddle"
            except (CrossingOutsideRegion, NoLineMax) as err:
                failed = f"l-down failed: {err}"
        elif (isinstance(outcome, LineSection)
              and outcome.diam <= (1.0 - _ETA) * section.diam):
            # Case 1a: real progress; re-align the chord.
            section, step = outcome, "PD"
            try:
                section, step = step_av(section, obj, region), "Av"
            except AvStalled:
                pass  # already aligned; the reduction still counts
        else:
            # Case 1b, little progress at this level, or (PD) stalled or
            # raised: raise the level, which sometimes repairs the section.
            if isinstance(outcome, LineSection):
                section, step = outcome, "PD"
            else:
                if isinstance(outcome, PdStalled):
                    failed = "parallel-distance reduction stalled"
                logger.debug("PD failed: %s", failed)
            try:
                section, step = step_l_up(section, obj, region), "LUp"
            except (LUpImpossible, CrossingOutsideRegion, NoLineMax):
                pass  # the section stays as (PD) left it

    m = section.midpoint
    return finish("MaxIter", m, *certificate(m), config.max_iter,
                  "iteration limit reached")
