"""Sections solved from what is already known.

Warm sections: find_level_crossings continued from a nearby section. A warm
section must be the section the cold path finds at the same base point, or
the call must have taken the cold path itself; so must an escape continued
from a nearby line's escape. Cold sections are counted by the line-max
bracket every cold section starts with.

Predicted starts: a warm section continued from a section on its own line
whose endpoints are the crossings the endpoint models of a nearby section
predict there (ParallelDistanceEval.predicted_crossings), as every
finite-difference probe of verify.check_grad_formulas is. It must be the
cold section too.

Far crossings: line1d.find_far_crossing from a base point on the level, as
l-up solves the section through a segment midpoint at f there
(crossings_or_degenerate with the gradient). Where the cold section has an
endpoint at 0, its other endpoint is the far crossing.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import oracles
from mtnpass import line1d
from mtnpass.errors import (CrossingOutsideRegion, DegenerateDenominator,
                            NoLineMax)
from mtnpass.line1d import LineSection, find_level_crossings
from mtnpass.objective import TrustRegion, six_hump_camel, tightness2d
from mtnpass.pardist import derivatives_from_section
from mtnpass.quadmodel import generate_morse1, saddle_of
from mtnpass.subroutines import crossings_or_degenerate

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
_QUADRATIC = generate_morse1(2, seed=3)
# name -> (objective, its index-one saddle, spread of base points, largest
# drop of the level below f at the base point)
CASES = {"camel": (six_hump_camel(), np.zeros(2), 0.6, 0.5),
         "tightness2d": (tightness2d(), np.zeros(2), 0.3, 0.05),
         "quadratic": (_QUADRATIC, saddle_of(_QUADRATIC)[0], 0.6, 0.5)}


def _solve_counted(*args, **kwargs):
    """The section, or the CrossingOutsideRegion or NoLineMax raised, and the
    number of cold line-max brackets it took."""
    with mock.patch.object(line1d, "_line_max_bracket",
                           wraps=line1d._line_max_bracket) as bracket:
        try:
            sec = find_level_crossings(*args, **kwargs)
        except (CrossingOutsideRegion, NoLineMax) as err:
            sec = err
    return sec, bracket.call_count


def _assert_is_component(obj, sec, region):
    # Both ends are crossings of the level on a dense grid of the line, and
    # no grid crossing lies between them.
    t_lo, t_hi = region.line_interval(sec.x, sec.v)
    roots = oracles.grid_crossings(obj.value, sec.x, sec.v, sec.level, t_lo,
                                   t_hi, n=4001)
    for t in (sec.t1, sec.t2):
        assert min(abs(r - t) for r in roots) <= 1e-8
    assert not [r for r in roots if sec.t1 + 1e-8 < r < sec.t2 - 1e-8]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(CASES)),
       offset=st.tuples(*[st.floats(-1.0, 1.0)] * 2),
       turn=st.floats(-0.5, 0.5),
       drop=st.floats(0.02, 1.0),
       delta=st.tuples(*[st.floats(-0.03, 0.03)] * 2),
       fit=st.one_of(st.none(), st.floats(1.001, 1.02)))
# Warm sections that escape, one per case: few drawn examples reach one.
@example(name="camel", offset=(-0.53, -0.36), turn=0.3, drop=0.52,
         delta=(0.0, -0.016), fit=1.001)
@example(name="quadratic", offset=(0.77, 0.0), turn=0.46, drop=0.16,
         delta=(0.017, -0.002), fit=1.01)
@example(name="tightness2d", offset=(-0.57, 0.46), turn=0.34, drop=0.24,
         delta=(-0.02, 0.001), fit=1.004)
def test_warm_section_is_the_cold_section(name, offset, turn, drop, delta,
                                          fit):
    # Base points near the saddle, on lines near the direction of most
    # negative curvature, so that most sections are non-empty. With fit, the
    # region is centred at the base point and only just holds the section,
    # so that the section through x + delta often escapes it.
    obj, saddle, spread, max_drop = CASES[name]
    region = TrustRegion(saddle, 2.0)
    x = saddle + spread * np.array(offset)
    w, V = np.linalg.eigh(obj.hessian(x))
    assume(w[0] < 0.0)
    c, s = np.cos(turn), np.sin(turn)
    v = np.array([[c, -s], [s, c]]) @ V[:, 0]
    level = obj.value(x) - drop * max_drop
    try:
        near = find_level_crossings(obj, x, v, level, region)
        if fit is not None and not near.empty:
            region = TrustRegion(x, fit * max(-near.t1, near.t2))
            near = find_level_crossings(obj, x, v, level, region)
    except (CrossingOutsideRegion, NoLineMax):
        assume(False)
    assume(not near.empty)
    x_new = x + np.array(delta)
    warm, cold_brackets = _solve_counted(obj, x_new, v, level, region,
                                         near=near)
    if cold_brackets:
        event("fell back")
        return
    if isinstance(warm, CrossingOutsideRegion):
        # An outward march reached the bound above the level, and the
        # dip-tested march from its prediction escaped too. The cold solve
        # escapes, unless it finds no line max where the line max flattens
        # into a shoulder (test_cold_solve_finds_no_line_max): that case is
        # excluded here.
        event("warm escape")
        try:
            find_level_crossings(obj, x_new, v, level, region)
        except CrossingOutsideRegion:
            return
        except NoLineMax:
            event("cold found no line max")
            return
        pytest.fail("the warm section escaped, the cold section did not")
    event("warm")
    cold = find_level_crossings(obj, x_new, v, level, region)
    assert abs(warm.t1 - cold.t1) <= 1e-12 * region.radius
    assert abs(warm.t2 - cold.t2) <= 1e-12 * region.radius
    _assert_is_component(obj, warm, region)
    _assert_is_component(obj, cold, region)


def _continue_an_escape(name, offset, turn, drop, radius, delta):
    """A line drawn as above, in a region around its base point x small
    enough that many sections escape it; the section through x + delta
    continued from x's escape (the escape raised, or what the cold path
    returned or raised) and the number of cold line-max brackets it took.
    None when the section through x does not escape."""
    obj, saddle, spread, max_drop = CASES[name]
    x = saddle + spread * np.array(offset)
    region = TrustRegion(x, radius)
    w, V = np.linalg.eigh(obj.hessian(x))
    if w[0] >= 0.0:
        return None
    c, s = np.cos(turn), np.sin(turn)
    v = np.array([[c, -s], [s, c]]) @ V[:, 0]
    level = obj.value(x) - drop * max_drop
    try:
        find_level_crossings(obj, x, v, level, region)
        return None
    except NoLineMax:
        return None
    except CrossingOutsideRegion as escape:
        near = escape
    x_new = x + np.array(delta)
    with mock.patch.object(line1d, "_line_max_bracket",
                           wraps=line1d._line_max_bracket) as bracket:
        try:
            out = find_level_crossings(obj, x_new, v, level, region,
                                       near=near)
        except (CrossingOutsideRegion, NoLineMax) as err:
            out = err
    return obj, region, out, bracket.call_count


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(CASES)),
       offset=st.tuples(*[st.floats(-1.0, 1.0)] * 2),
       turn=st.floats(-0.5, 0.5),
       drop=st.floats(0.02, 1.0),
       radius=st.floats(0.1, 1.0),
       delta=st.tuples(*[st.floats(-0.03, 0.03)] * 2))
def test_continued_escape_is_a_cold_escape(name, offset, turn, drop, radius,
                                           delta):
    case = _continue_an_escape(name, offset, turn, drop, radius, delta)
    assume(case is not None)
    obj, region, out, cold_brackets = case
    if cold_brackets:
        event("fell back")
        return
    assert isinstance(out, CrossingOutsideRegion)  # the warm path's only result
    # The component through the carried start reaches the bound: no grid
    # crossing of the level lies between them.
    t_lo, t_hi = region.line_interval(out.x, out.v)
    bound = t_hi if out.sgn > 0.0 else t_lo
    assert not oracles.grid_crossings(obj.value, out.x, out.v, out.level,
                                      *sorted((out.t_start, bound)), n=4001)
    # The cold solve escapes too (but see test_cold_solve_finds_no_line_max).
    event("continued")
    with pytest.raises(CrossingOutsideRegion):
        find_level_crossings(obj, out.x, out.v, out.level, region)


@pytest.mark.xfail(strict=True, raises=NoLineMax, reason=(
    "on tightness2d the line max at t = 0.12 flattens into a shoulder 0.023 "
    "away, so the cold solve finds f monotone from t = 0, while the component "
    "through the carried start reaches the bound; the sweep skips both"))
def test_cold_solve_finds_no_line_max():
    obj, region, out, cold_brackets = _continue_an_escape(
        "tightness2d", (0.0, -0.25), 0.1875, 1.0, 1.0, (0.0, -0.0234375))
    assert isinstance(out, CrossingOutsideRegion) and cold_brackets == 0
    with pytest.raises(CrossingOutsideRegion):
        find_level_crossings(obj, out.x, out.v, out.level, region)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(CASES)),
       offset=st.tuples(*[st.floats(-1.0, 1.0)] * 2),
       turn=st.floats(-0.5, 0.5),
       drop=st.floats(0.02, 1.0),
       along=st.one_of(st.just(0.5), st.floats(0.2, 0.8)))
def test_far_crossing_is_the_cold_section(name, offset, turn, drop, along):
    # A section drawn as above, and l-up's level f(m) at its midpoint m or,
    # since on a quadratic the midpoint is the line max itself, at another
    # point m of the section.
    obj, saddle, spread, max_drop = CASES[name]
    region = TrustRegion(saddle, 2.0)
    x = saddle + spread * np.array(offset)
    w, V = np.linalg.eigh(obj.hessian(x))
    assume(w[0] < 0.0)
    c, s = np.cos(turn), np.sin(turn)
    v = np.array([[c, -s], [s, c]]) @ V[:, 0]
    try:
        sec = find_level_crossings(obj, x, v, obj.value(x) - drop * max_drop,
                                   region)
    except (CrossingOutsideRegion, NoLineMax):
        assume(False)
    assume(not sec.empty)
    m = sec.x + (sec.t1 + along * sec.diam) * v
    level = obj.value(m)
    try:
        cold = crossings_or_degenerate(obj, m, v, level, region)
    except (CrossingOutsideRegion, NoLineMax):
        event("cold escaped")
        return
    far = crossings_or_degenerate(obj, m, v, level, region, obj.gradient(m))
    tol = 1e-12 * region.radius
    if cold.diam <= 1e-6 * region.radius:
        # m sits at the line max to within rounding: f - level is 0.0 over
        # an interval of width about sqrt(eps), so any t there is a crossing.
        event("point-like section")
        assert far.diam <= 1e-6 * region.radius
        return
    if min(abs(cold.t1), abs(cold.t2)) > tol:
        event("cold section off t = 0")
        return
    event("cold section from t = 0")
    assert 0.0 in (far.t1, far.t2)
    assert abs(far.t1 - cold.t1) <= tol
    assert abs(far.t2 - cold.t2) <= tol
    # A grid on twice the section's span on each side resolves it however
    # short it is.
    t_far = far.t1 + far.t2
    t_lo, t_hi = region.line_interval(m, v)
    roots = oracles.grid_crossings(obj.value, m, v, level,
                                   max(t_lo, -2.0 * abs(t_far)),
                                   min(t_hi, 2.0 * abs(t_far)), n=4001)
    assert min(abs(r - t_far) for r in roots) <= tol


class TestContinuedSection:
    def test_nearby_section_costs_less(self, saddle_quadratic, origin_region):
        # f = (x1^2 - x2^2)/2 along e2 at level -0.5: from x1 = 1 to
        # x1 = 1.01 the crossings move from +-sqrt(2) to +-sqrt(2.0201).
        near = find_level_crossings(saddle_quadratic, E1, E2, -0.5,
                                    origin_region)
        before = saddle_quadratic.eval_counts()
        x = np.array([1.01, 0.003])
        warm, cold_brackets = _solve_counted(saddle_quadratic, x, E2, -0.5,
                                             origin_region, near=near)
        assert cold_brackets == 0
        assert warm.t1 == pytest.approx(-0.003 - np.sqrt(2.0201), abs=1e-12)
        assert warm.t2 == pytest.approx(-0.003 + np.sqrt(2.0201), abs=1e-12)
        warm_counts = {k: saddle_quadratic.eval_counts()[k] - before[k]
                       for k in before}
        find_level_crossings(saddle_quadratic, x, E2, -0.5, origin_region)
        cold_counts = {k: saddle_quadratic.eval_counts()[k] - before[k]
                       - warm_counts[k] for k in before}
        assert warm_counts["value"] < cold_counts["value"]
        assert warm_counts["gradient"] < cold_counts["gradient"]

    def test_midpoint_below_the_level_goes_cold(self, saddle_quadratic,
                                                origin_region):
        # At level 0.3 the section through (1, 0) is |t| <= sqrt(0.4); on the
        # line through (0.5, 0) the predicted midpoint has f = 0.125, below
        # the level, so the section is solved cold and found empty.
        near = find_level_crossings(saddle_quadratic, E1, E2, 0.3,
                                    origin_region)
        sec, cold_brackets = _solve_counted(
            saddle_quadratic, 0.5 * E1, E2, 0.3, origin_region, near=near)
        assert cold_brackets == 1
        assert sec.empty
        assert sec.line_max.value == pytest.approx(0.125, abs=1e-15)

    def test_predictions_above_the_level_skip_the_midpoint(
            self, saddle_quadratic, origin_region):
        # Both predictions, -0.003 +- sqrt(2) on the line through
        # (1.01, 0.003), lie above the level, so both marches go outward
        # from them and f at their midpoint is never needed.
        near = find_level_crossings(saddle_quadratic, E1, E2, -0.5,
                                    origin_region)
        x = np.array([1.01, 0.003])
        dv = float((near.x - x) @ E2)
        mid = 0.5 * ((near.t1 + dv) + (near.t2 + dv))
        probed = []
        line_funcs = line1d._line_funcs

        def recording(obj, x, v):
            phi, dphi = line_funcs(obj, x, v)

            def recorded_phi(t):
                probed.append(t)
                return phi(t)
            return recorded_phi, dphi

        with mock.patch.object(line1d, "_line_funcs", recording):
            warm, cold_brackets = _solve_counted(
                saddle_quadratic, x, E2, -0.5, origin_region, near=near)
        assert cold_brackets == 0
        assert probed and mid not in probed
        cold = find_level_crossings(saddle_quadratic, x, E2, -0.5,
                                    origin_region)
        assert abs(warm.t1 - cold.t1) <= 1e-12
        assert abs(warm.t2 - cold.t2) <= 1e-12

    def test_inward_march_below_the_level_goes_cold(self, saddle_quadratic,
                                                    origin_region):
        # At level -0.5 the section through (1, 0) is |t| <= sqrt(2). Of the
        # predictions 1 and 3, the first lies above the level and the second
        # below it, and so does f at their midpoint 2: the inward march from
        # 3 reaches 2 on or below the level, and the section is solved cold.
        near = LineSection(E1, E2, -0.5, 1.0, 3.0)
        sec, cold_brackets = _solve_counted(
            saddle_quadratic, E1, E2, -0.5, origin_region, near=near)
        assert cold_brackets == 1
        assert sec.t1 == pytest.approx(-np.sqrt(2.0), abs=1e-12)
        assert sec.t2 == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("v, level", [(E1, -0.5), (E2, -0.4)])
    def test_mismatched_near_raises(self, saddle_quadratic, origin_region, v,
                                    level):
        near = find_level_crossings(saddle_quadratic, E1, E2, -0.5,
                                    origin_region)
        with pytest.raises(ValueError, match="same direction and level"):
            find_level_crossings(saddle_quadratic, 1.01 * E1, v, level,
                                 origin_region, near=near)

    def test_empty_near_refused(self, saddle_quadratic, origin_region):
        near = LineSection(E1, E2, -0.5)
        with pytest.raises(ValueError, match="non-empty"):
            find_level_crossings(saddle_quadratic, E1, E2, -0.5, origin_region,
                                 near=near)


def _section_with_models(name, seed):
    """(objective, section, region, its ParallelDistanceEval with endpoint
    Hessians) drawn as verify's grad-formulas samples are: on the camel near
    its origin saddle, or on a Morse-index-one quadratic with n = name; None
    when the draw gives no usable section."""
    rng = np.random.default_rng(seed)
    if name == "camel":
        obj = six_hump_camel()
        _, V = np.linalg.eigh(obj.hessian(np.zeros(2)))
        v = V[:, 0] + 0.1 * rng.standard_normal(2)
        x = 0.25 * rng.standard_normal(2)
        level = -rng.uniform(0.05, 0.3)
        region = TrustRegion(np.zeros(2), 10.0)
    else:
        obj = generate_morse1(name, seed=seed)
        xbar, fbar = saddle_of(obj)
        v = obj.negative_eigenvector + 0.2 * rng.standard_normal(name)
        x = xbar + 0.3 * rng.standard_normal(name) / np.sqrt(name)
        level = fbar - rng.uniform(0.05, 0.5)
        region = TrustRegion(x, 50.0)
    v /= np.linalg.norm(v)
    try:
        sec = find_level_crossings(obj, x, v, level, region)
        if sec.empty:
            return None
        pe = derivatives_from_section(obj, sec, want_hessian=True)
    except (CrossingOutsideRegion, NoLineMax, DegenerateDenominator):
        return None
    return obj, sec, region, pe


def _probe(sec, seed, step):
    """A point step away from the section's base point, in a direction drawn
    from seed."""
    u = np.random.default_rng(seed + 1).standard_normal(sec.x.size)
    return sec.x + step * u / np.linalg.norm(u)


def _assert_cold(obj, sec, p, region, section):
    cold = find_level_crossings(obj, p, sec.v, sec.level, region)
    assert abs(section.t1 - cold.t1) <= 1e-12
    assert abs(section.t2 - cold.t2) <= 1e-12


def _from_predicted(obj, sec, p, region, q1, q2):
    """The section through p continued from the predicted section (q1, q2)
    on p's own line, and the number of cold brackets it took."""
    return _solve_counted(obj, p, sec.v, sec.level, region,
                          near=LineSection(p, sec.v, sec.level, q1, q2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(["camel", 2, 3, 4, 5]),
       seed=st.integers(0, 10 ** 6),
       step=st.floats(1e-5, 1e-2))
def test_predicted_start_is_the_cold_section(name, seed, step):
    # The probe lines of check_grad_formulas lie 1e-5 to 2e-4 away, where
    # the camel's predictions are off by up to about 1e-10; 1e-2 away they
    # are off by up to about 5e-5, and on quadratics by rounding only.
    case = _section_with_models(name, seed)
    assume(case is not None)
    obj, sec, region, pe = case
    p = _probe(sec, seed, step)
    q1, q2 = pe.predicted_crossings(p)
    assume(q1 is not None and q2 is not None and q1 <= q2)
    warm, cold_brackets = _from_predicted(obj, sec, p, region, q1, q2)
    event("fell back" if cold_brackets else "warm")
    assert isinstance(warm, LineSection)
    _assert_cold(obj, sec, p, region, warm)


class TestPredictedStart:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_costs_four_values_on_a_quadratic(self, n):
        # The predictions are exact and lie on the probe's line, so the
        # first step is xtol: on each side the prediction and one probe xtol
        # beyond it, whose bracket is already within the crossing tolerance.
        # With a check of f at the predicted midpoint first it cost five.
        # Continued from the case's own section the same probe costs more.
        obj, sec, region, pe = _section_with_models(n, 7)
        p = _probe(sec, 7, 1e-4)
        q1, q2 = pe.predicted_crossings(p)
        costs = []
        for near in (LineSection(p, sec.v, sec.level, q1, q2), sec):
            before = obj.eval_counts()["value"]
            warm = find_level_crossings(obj, p, sec.v, sec.level, region,
                                        near=near)
            costs.append(obj.eval_counts()["value"] - before)
            _assert_cold(obj, sec, p, region, warm)
        assert costs[0] == 4
        assert costs[1] > 5

    @pytest.mark.parametrize("name", ["camel", 3])
    @pytest.mark.parametrize("moved", [1e-3, -1e-3])
    def test_moved_prediction_gives_the_cold_section(self, name, moved):
        # Predictions moved outward (or inward) by 1e-3 cost about
        # log2(1e-3 / xtol) more march probes each, and the section is
        # still the cold one.
        obj, sec, region, pe = _section_with_models(name, 11)
        p = _probe(sec, 11, 1e-4)
        q1, q2 = pe.predicted_crossings(p)
        warm, cold_brackets = _from_predicted(obj, sec, p, region,
                                              q1 - moved, q2 + moved)
        assert cold_brackets == 0
        _assert_cold(obj, sec, p, region, warm)

    def test_missing_prediction_continues_the_carried_section(self):
        # With either prediction None the probe continues from the case's
        # own section; predicted seeds only cold crossing solves, so the
        # warm section is bit for bit the one continued without it.
        obj, sec, region, pe = _section_with_models("camel", 11)
        p = _probe(sec, 11, 1e-4)
        q1, q2 = pe.predicted_crossings(p)
        carried = find_level_crossings(obj, p, sec.v, sec.level, region,
                                       near=sec)
        for predicted in ((None, q2), (q1, None), (None, None)):
            warm, cold_brackets = _solve_counted(
                obj, p, sec.v, sec.level, region, near=sec,
                predicted=predicted)
            assert cold_brackets == 0
            assert (warm.t1, warm.t2) == (carried.t1, carried.t2)
