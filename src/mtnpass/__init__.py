"""Saddle points of Morse index one via parallel-distance level sets.

The package searches for saddle points of smooth functions f: R^n -> R by
shrinking the gap between components of sub-level sets as the level rises to
the critical value. The central quantity is the parallel distance: the
diameter of the section that a line cuts out of a super-level set. Its
square behaves like a convex quadratic near the saddle, which gives the
search Newton-quality local steps and honest global progress measures.
"""

from .driver import SolveConfig, SolveReport, TraceRecord, init_state, solve
from .errors import (AvStalled, BadDirection, BadEndpoints, CriticalCandidate,
                     CrossingOutsideRegion, DegenerateDenominator,
                     EvaluationError, LUpImpossible, MtnpassError,
                     NewtonBreakdown, NoEstimate, NoLineMax, NotConcaveAlongV)
from .line1d import (LineExtremum, LineSection, find_level_crossings,
                     line_local_max, line_local_min)
from .objective import Objective, TrustRegion, builtin, six_hump_camel, tightness2d
from .pardist import (ParallelDistanceEval, closed_form_g2_quadratic,
                      closed_form_hess_g2, estimate_critical_level,
                      eval_pardist)
from .quadmodel import (NewtonResult, QuadraticObjective, decompose,
                        generate_morse1, morse_index, newton_refine,
                        quadratic_from_json, saddle_of)
from .subroutines import (HitZero, PdStalled, step_av, step_l_down,
                          step_l_up, step_pd)
from .verify import (check_convexity_region, check_grad_formulas,
                     check_hessian_stability, convexity_radius_sweep,
                     quadratic_oracle_suite, run_suite)

__version__ = "0.1.0"
