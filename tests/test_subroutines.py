import numpy as np
import pytest

import oracles
from mtnpass import line1d, subroutines
from mtnpass.errors import (AvStalled, CriticalCandidate, CrossingOutsideRegion,
                            DegenerateDenominator, LUpImpossible)
from mtnpass.line1d import (CROSSING_XTOL_FRAC, ROOT_TOL, LineSection,
                            chord_section, find_level_crossings,
                            line_local_max)
from mtnpass.objective import Objective, TrustRegion, six_hump_camel
from mtnpass.pardist import closed_form_g2_quadratic
from mtnpass.quadmodel import QuadraticObjective
from mtnpass.subroutines import (HitZero, PdStalled, crossings_or_degenerate,
                                 step_av, step_l_down, step_l_up, step_pd)

E2 = np.array([0.0, 1.0])


def make_section(obj, x, v, level, region):
    sec = find_level_crossings(obj, x, v, level, region)
    assert not sec.empty
    return sec


def segment(x, v, level, t1, t2):
    """The segment x + t v, t in [t1, t2], on the given level."""
    return LineSection(np.asarray(x, dtype=float), np.asarray(v, dtype=float),
                       level, t1, t2)


def gap(sec):
    """|z - z'|, the driver's endpoint gap."""
    return float(np.linalg.norm(sec.z - sec.zp))


def l_up(sec, obj, region):
    """step_l_up to f at the segment midpoint, the driver's target level."""
    return step_l_up(sec, obj, region, obj.value(sec.midpoint))


def recording(obj):
    """obj with the points of its value and gradient calls recorded."""
    points = {"value": [], "gradient": []}

    def value(x):
        points["value"].append(np.array(x))
        return obj.value(x)

    def gradient(x):
        points["gradient"].append(np.array(x))
        return obj.gradient(x)

    return Objective(obj.n, value, gradient), points


def calls_at(points, p):
    return sum(np.array_equal(q, p) for q in points)


def count_line_searches(monkeypatch):
    """Count the find_level_crossings calls of the moves and the line-max
    brackets of every search along a line (find_level_crossings and
    line_local_max each march one)."""
    calls = {"bracket": 0, "find_level_crossings": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(line1d, "_line_max_bracket",
                        counted("bracket", line1d._line_max_bracket))
    monkeypatch.setattr(subroutines, "find_level_crossings",
                        counted("find_level_crossings", find_level_crossings))
    return calls


@pytest.fixture
def quad_section(saddle_quadratic, origin_region):
    return make_section(saddle_quadratic, np.array([1.0, 0.0]), E2, -0.5,
                        origin_region)


class TestStepPd:
    def test_newton_lands_on_axis(self, saddle_quadratic, quad_section,
                                  origin_region):
        out = step_pd(quad_section, saddle_quadratic, origin_region)
        assert isinstance(out, LineSection)
        assert out.level == quad_section.level
        assert quad_section.diam == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)
        assert out.diam == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(out.midpoint, [0.0, 0.0], atol=1e-9)
        assert np.allclose(out.z, [0.0, 1.0], atol=1e-9)
        assert np.allclose(out.zp, [0.0, -1.0], atol=1e-9)

    def test_decrease_against_closed_form(self, saddle_quadratic, origin_region):
        sec = make_section(saddle_quadratic, np.array([0.1, 0.0]), E2,
                           0.25 - 0.5, origin_region)
        # a level of +0.25 would sit above the saddle value for this f and
        # only when x1^2/2 > level; use level -0.25 to keep a real segment.
        out = step_pd(sec, saddle_quadratic, origin_region)
        assert isinstance(out, LineSection)
        g2_before, _, _ = closed_form_g2_quadratic(
            saddle_quadratic, sec.midpoint, E2, sec.level)
        g2_after, _, _ = closed_form_g2_quadratic(
            saddle_quadratic, out.midpoint, E2, sec.level)
        assert g2_after < g2_before
        assert out.diam ** 2 == pytest.approx(g2_after, rel=1e-8)

    def test_hit_zero_above_saddle_level(self, saddle_quadratic, origin_region):
        # At a level above the saddle value the segment can vanish: the
        # Newton step crosses the region where the line misses the level set.
        sec = make_section(saddle_quadratic, np.array([1.0, 0.0]), E2, 0.1,
                           origin_region)
        out = step_pd(sec, saddle_quadratic, origin_region)
        assert isinstance(out, HitZero)
        assert saddle_quadratic.value(out.x_prime) <= sec.level + ROOT_TOL
        # x' is a line-local max of f along v through the step point
        grad = saddle_quadratic.gradient(out.x_prime)
        assert abs(grad @ sec.v) <= 1e-8

    def test_empty_trial_reuses_its_line_max(self, saddle_quadratic,
                                             origin_region, monkeypatch):
        # The empty trial section carries the line max it found; HitZero
        # takes x' from it without a second search along the line.
        sec = make_section(saddle_quadratic, np.array([1.0, 0.0]), E2, 0.1,
                           origin_region)
        calls = count_line_searches(monkeypatch)
        out = step_pd(sec, saddle_quadratic, origin_region)
        assert isinstance(out, HitZero)
        assert calls["find_level_crossings"] >= 1
        assert calls["bracket"] == calls["find_level_crossings"]

    def test_never_increases_g(self, camel, origin_region):
        w, V = np.linalg.eigh(camel.hessian(np.zeros(2)))
        sec = make_section(camel, np.array([0.1, 0.05]), V[:, 0], -0.2,
                           origin_region)
        for _ in range(5):
            out = step_pd(sec, camel, origin_region)
            if not isinstance(out, LineSection):
                break
            assert out.diam <= sec.diam + 2.0 * ROOT_TOL
            sec = out
            oracles.validate_section(sec, camel)

    def test_degenerate_segment_reports_collapse(self):
        # In three dimensions a level change can land on a point that is a
        # line max along v without being critical; the collapsed segment must
        # come back as a zero-distance outcome so the level can be lowered.
        obj = QuadraticObjective(np.diag([1.0, 2.0, -1.0]), np.zeros(3), 0.0)
        region = TrustRegion(np.zeros(3), 10.0)
        v = np.array([0.0, 0.0, 1.0])
        x = np.array([0.8, 0.5, 0.0])   # line max along v, gradient nonzero
        level = obj.value(x)
        out = step_pd(segment(x, v, level, 0.0, 0.0), obj, region)
        assert isinstance(out, HitZero)
        assert np.allclose(out.x_prime, x, atol=1e-9)
        # the follow-up level decrease makes strict progress
        sec = step_l_down(obj, out.x_prime, v, region)
        assert sec.level < level
        assert abs(obj.value(sec.z) - sec.level) <= 1e-9

    def test_stalled_at_minimizer(self, saddle_quadratic, origin_region):
        # At the minimizer of g^2 the gradient of g^2 vanishes and no
        # direction can decrease it further.
        sec = make_section(saddle_quadratic, np.array([0.0, 0.0]), E2, -0.5,
                           origin_region)
        out = step_pd(sec, saddle_quadratic, origin_region)
        assert out == PdStalled()
        assert sec.diam == pytest.approx(2.0, abs=1e-9)

    def test_backtracking_stops_at_the_crossing_tolerance(
            self, saddle_quadratic, quad_section, origin_region, monkeypatch):
        # Every trial section has the section's own diameter, so the Armijo
        # decrease never holds and (PD) halves the Newton step d = (-1, 0)
        # until t |d| falls below the crossing tolerance.
        sec = quad_section
        steps = []

        def same_diameter(obj, x, v, level, region, predicted=(None, None)):
            steps.append(float(np.linalg.norm(x - sec.midpoint)))
            return LineSection(x, v, level, sec.t1, sec.t2)

        monkeypatch.setattr(subroutines, "find_level_crossings", same_diameter)
        out = step_pd(sec, saddle_quadratic, origin_region)
        assert out == PdStalled()
        min_step = CROSSING_XTOL_FRAC * origin_region.radius
        halvings = int(np.floor(np.log2(1.0 / min_step))) + 1
        assert len(steps) == halvings == 37
        assert np.allclose(steps, 0.5 ** np.arange(halvings), rtol=1e-12, atol=0)
        assert steps[-1] >= min_step > 0.5 * steps[-1]

    @pytest.mark.parametrize("i, j", [(0, 2), (0, 1), (1, 3)])
    def test_seeded_trial_is_the_cold_trial(self, i, j, monkeypatch):
        # After the first level raise between two camel minima, (PD)'s first
        # trial passes. Solved with the crossings its endpoint models
        # predict, it is the section solved without them, for fewer values.
        a, b = (np.array(oracles.CAMEL_MINIMA[k][:2]) for k in (i, j))
        camel = six_hump_camel()
        region = TrustRegion(0.5 * (a + b), 10.0)
        sec = step_l_up(chord_section(camel, a, b), camel, region)
        seeded_camel, cold_camel = six_hump_camel(), six_hump_camel()
        seeded = step_pd(sec, seeded_camel, region)

        def unseeded(obj, x, v, level, region, predicted=(None, None)):
            return find_level_crossings(obj, x, v, level, region)

        monkeypatch.setattr(subroutines, "find_level_crossings", unseeded)
        cold = step_pd(sec, cold_camel, region)
        assert isinstance(seeded, LineSection) and isinstance(cold, LineSection)
        assert np.array_equal(seeded.x, cold.x)
        assert seeded.t1 == pytest.approx(cold.t1, abs=1e-12)
        assert seeded.t2 == pytest.approx(cold.t2, abs=1e-12)
        counts, cold_counts = seeded_camel.eval_counts(), cold_camel.eval_counts()
        assert counts["value"] < cold_counts["value"]
        assert (counts["gradient"], counts["hessian"]) == \
            (cold_counts["gradient"], cold_counts["hessian"])

    def test_minima_endpoints_raise_without_trials(self, monkeypatch):
        # Both endpoints are minima of equal value on the level, so
        # |v'grad f| g is below the root tolerance at both and the section's
        # derivatives would be rounding noise. The error is raised before any
        # Hessian is evaluated or any trial section is solved.
        well = oracles.DoubleWell(5)
        a, b = well.minima()
        obj = Objective(5, well.value, well.gradient, well.hessian)
        sec = chord_section(obj, a, b)
        calls = []

        def counted(*args):
            calls.append(args)
            return find_level_crossings(*args)

        monkeypatch.setattr(subroutines, "find_level_crossings", counted)
        before = obj.eval_counts()["hessian"]
        with pytest.raises(DegenerateDenominator, match="root tolerance"):
            step_pd(sec, obj, TrustRegion(0.5 * (a + b), 10.0))
        assert calls == []
        assert obj.eval_counts()["hessian"] == before

    def test_wide_degenerate_section_raises_without_line_search(self, monkeypatch):
        # f at the base point lies above the level, so the line max does too
        # and the section cannot be collapsing: the error is re-raised
        # without searching the line.
        well = oracles.DoubleWell(5)
        a, b = well.minima()
        obj = Objective(5, well.value, well.gradient, well.hessian)
        sec = chord_section(obj, a, b)
        calls = count_line_searches(monkeypatch)
        with pytest.raises(DegenerateDenominator):
            step_pd(sec, obj, TrustRegion(0.5 * (a + b), 10.0))
        assert calls["bracket"] == 0

    def test_collapse_on_the_chord_line_reads_the_scan(self, monkeypatch):
        # On the symmetric double well the level raise from the chord
        # section gives the point section at the midpoint, on the chord
        # line, where the endpoint denominators vanish. (PD)'s collapse test
        # polishes the highest tabulated point of the chord scan between its
        # neighbours, with no line-max march, and finds the march's line
        # max within 1e-8.
        well = oracles.DoubleWell(5)
        a, b = well.minima()
        obj = Objective(5, well.value, well.gradient, well.hessian)
        region = TrustRegion(0.5 * (a + b), 10.0)
        sec = step_l_up(chord_section(obj, a, b), obj, region)
        assert (sec.t1, sec.t2) == (0.0, 0.0) and sec.scan is not None
        calls = count_line_searches(monkeypatch)
        out = step_pd(sec, obj, region)
        assert isinstance(out, HitZero)
        assert calls["bracket"] == 0
        lm = line_local_max(obj, sec.x, sec.v, region)
        assert np.allclose(out.x_prime, sec.x + lm.t * sec.v, rtol=0,
                           atol=1e-8)

    def test_one_dimension_stalls_before_any_evaluation(self):
        # In one dimension v spans the space: there is no complement to move
        # the base point across, so (PD) stalls without evaluating f, and a
        # 0 x 0 reduced Hessian is never decomposed.
        obj = Objective(1, lambda x: 1.0 - x[0] ** 2,
                        lambda x: np.array([-2.0 * x[0]]))
        sec = segment([0.0], [1.0], 0.0, -1.0, 1.0)
        out = step_pd(sec, obj, TrustRegion(np.zeros(1), 10.0))
        assert isinstance(out, PdStalled)
        assert obj.eval_counts() == {"value": 0, "gradient": 0, "hessian": 0}

    def test_composition_reaches_saddle_midpoint(self, saddle_quadratic,
                                                 origin_region):
        # From any base point on the segment, one Newton (PD) step lands on
        # x1 = 0 and the new segment midpoint is the saddle.
        for x1 in (0.7, -0.3, 1.2):
            sec = make_section(saddle_quadratic, np.array([x1, 0.2]), E2, -0.5,
                               origin_region)
            out = step_pd(sec, saddle_quadratic, origin_region)
            assert isinstance(out, LineSection)
            assert abs(out.midpoint[0]) <= 1e-10
            assert np.linalg.norm(out.midpoint) <= 1e-10


class TestStepAv:
    def test_strict_decrease_and_alignment(self, saddle_quadratic,
                                           origin_region):
        s125 = np.sqrt(1.25)
        z = np.array([0.5, s125])
        h = np.linalg.norm(z)
        sec = segment(np.zeros(2), z / h, -0.5, -h, h)
        gaps = [gap(sec)]
        for _ in range(50):
            try:
                sec = step_av(sec, saddle_quadratic, origin_region)
            except AvStalled:
                break
            oracles.validate_section(sec, saddle_quadratic)
            gaps.append(gap(sec))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        # optimal chord of {f = -0.5} is vertical of length 2
        assert abs(abs(sec.v[1]) - 1.0) <= 1e-6
        assert gap(sec) == pytest.approx(2.0, abs=1e-6)

    def test_keeps_the_gradient_of_the_fixed_endpoint(self, saddle_quadratic,
                                                       origin_region):
        # z' = -z has the same gradient norm, so z moves (ties go to z) and
        # z', the new base point at t = 0, keeps its bits, so its gradient
        # is not evaluated again: of the new endpoints only z is.
        z = np.array([0.5, np.sqrt(1.25)])
        h = np.linalg.norm(z)
        sec = segment(np.zeros(2), z / h, -0.5, -h, h)
        obj, points = recording(saddle_quadratic)
        new = step_av(sec, obj, origin_region)
        assert new.t1 == 0.0
        assert np.array_equal(new.zp, sec.zp)
        before = len(points["gradient"])
        obj.gradient(new.z)
        obj.gradient(new.zp)
        assert [p.tolist() for p in points["gradient"][before:]] == [
            new.z.tolist()]
        assert calls_at(points["gradient"], new.zp) == 1

    def test_stalled_at_optimal_chord(self, saddle_quadratic, origin_region):
        sec = segment(np.zeros(2), E2, -0.5, -1.0, 1.0)
        with pytest.raises(AvStalled):
            step_av(sec, saddle_quadratic, origin_region)

    def test_camel_monotone_gap(self, camel, origin_region):
        w, V = np.linalg.eigh(camel.hessian(np.zeros(2)))
        vbar = V[:, 0]
        c, s = np.cos(0.3), np.sin(0.3)
        v = np.array([c * vbar[0] - s * vbar[1], s * vbar[0] + c * vbar[1]])
        sec = make_section(camel, np.zeros(2), v, -0.1, origin_region)
        gaps = [gap(sec)]
        for _ in range(10):
            try:
                sec = step_av(sec, camel, origin_region)
            except AvStalled:
                break
            oracles.validate_section(sec, camel)
            gaps.append(gap(sec))
        assert len(gaps) >= 5
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_moves_endpoint_with_larger_gradient(self, camel, origin_region):
        # The endpoint that does not move keeps its bits: the new section is
        # based there, with t = 0.
        sec = make_section(camel, np.array([0.05, 0.0]), E2, -0.3, origin_region)
        gz = np.linalg.norm(camel.gradient(sec.z))
        gzp = np.linalg.norm(camel.gradient(sec.zp))
        new = step_av(sec, camel, origin_region)
        if gz >= gzp:
            assert np.array_equal(new.zp, sec.zp)
        else:
            assert np.array_equal(new.z, sec.z)


class TestStepLDown:
    def test_quadratic_reaches_saddle(self, saddle_quadratic, origin_region):
        sec = step_l_down(saddle_quadratic, np.array([1.0, 0.0]), E2,
                          origin_region)
        assert sec.level == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sec.x, [0.0, 0.0], atol=1e-10)
        assert sec.diam <= 1e-6

    def test_camel_level_strictly_decreases(self, camel, origin_region):
        from mtnpass.line1d import line_local_max
        x0 = np.array([0.3, 0.0])
        lm = line_local_max(camel, x0, E2, origin_region)
        x = x0 + lm.t * E2
        sec = step_l_down(camel, x, E2, origin_region)
        level = sec.level
        assert level < camel.value(x)
        grad = camel.gradient(x)
        d = -(grad - (grad @ E2) * E2)
        d /= np.linalg.norm(d)
        t_ref, f_ref = oracles.grid_line_min_forward(
            oracles.camel_value, oracles.camel_gradient, x, d, 3.0)
        assert level == pytest.approx(f_ref, abs=1e-9)
        assert abs(camel.value(sec.z) - level) <= ROOT_TOL

    def test_critical_candidate(self, saddle_quadratic, origin_region):
        with pytest.raises(CriticalCandidate) as exc:
            step_l_down(saddle_quadratic, np.zeros(2), E2, origin_region)
        assert np.allclose(exc.value.x, 0.0)

    def test_rejects_non_line_max(self, saddle_quadratic, origin_region):
        with pytest.raises(ValueError):
            step_l_down(saddle_quadratic, np.array([1.0, 0.5]), E2,
                        origin_region)


class TestCrossingsOrDegenerate:
    # Along E2 through X the line max is f = 0.5 at t = -0.2. An empty
    # section carries that max, so neither case searches the line twice.
    X = np.array([1.0, 0.2])

    def test_point_section_at_the_line_max(self, saddle_quadratic,
                                           origin_region, monkeypatch):
        calls = count_line_searches(monkeypatch)
        sec = crossings_or_degenerate(saddle_quadratic, self.X, E2,
                                      0.5 + 0.5 * ROOT_TOL, origin_region)
        assert sec.t1 == sec.t2 == pytest.approx(-0.2, abs=1e-12)
        assert calls == {"bracket": 1, "find_level_crossings": 1}

    def test_no_point_on_the_level(self, saddle_quadratic, origin_region,
                                   monkeypatch):
        calls = count_line_searches(monkeypatch)
        with pytest.raises(CrossingOutsideRegion):
            crossings_or_degenerate(saddle_quadratic, self.X, E2, 0.501,
                                    origin_region)
        assert calls == {"bracket": 1, "find_level_crossings": 1}


class TestStepLUp:
    def test_quadratic_degenerate(self, saddle_quadratic, origin_region):
        s3 = np.sqrt(3.0)
        sec = segment([1.0, 0.0], E2, -1.0, -s3, s3)
        new = l_up(sec, saddle_quadratic, origin_region)
        assert new.level == pytest.approx(0.5)
        assert gap(new) <= 1e-6
        assert np.allclose(new.z, [1.0, 0.0], atol=1e-6)
        # v unchanged by contract
        assert np.array_equal(new.v, sec.v)

    def test_quadratic_wider_base(self, saddle_quadratic, origin_region):
        s6 = np.sqrt(6.0)
        sec = segment([2.0, 0.0], E2, -1.0, -s6, s6)
        new = l_up(sec, saddle_quadratic, origin_region)
        assert new.level == pytest.approx(2.0)
        assert gap(new) <= 1e-6

    def test_camel_narrows_segment(self, camel, origin_region):
        w, V = np.linalg.eigh(camel.hessian(np.zeros(2)))
        vbar = V[:, 0]
        sec = make_section(camel, np.array([0.05, 0.02]), vbar, -0.2,
                           origin_region)
        new = l_up(sec, camel, origin_region)
        assert new.level > -0.2
        assert new.level == pytest.approx(camel.value(sec.midpoint))
        # oracle: widths of the crossing segments at both levels
        old_roots = oracles.grid_crossings(oracles.camel_value, sec.midpoint,
                                           vbar, sec.level, -1.5, 1.5)
        new_roots = oracles.grid_crossings(oracles.camel_value, new.midpoint,
                                           vbar, new.level, -1.5, 1.5)
        w_old = max(r for r in old_roots) - min(r for r in old_roots)
        assert gap(new) < w_old
        assert gap(new) == pytest.approx(
            min(r for r in new_roots if r > 0)
            - max(r for r in new_roots if r < 0), abs=1e-6)
        oracles.validate_section(new, camel)

    def test_impossible_when_midpoint_not_above(self, saddle_quadratic,
                                                origin_region):
        sec = segment([1.0, 0.0], E2, 0.5, 0.0, 0.0)
        with pytest.raises(LUpImpossible):
            l_up(sec, saddle_quadratic, origin_region)

    def test_raises_to_the_given_level(self, saddle_quadratic, origin_region):
        # The caller picks the level: here 0, below f(midpoint) = 0.5. On
        # f = 0.5 (x1^2 - x2^2) the section through (1, 0) is x2 in [-1, 1].
        # The midpoint is not on that level, so the section is solved cold
        # and no gradient is paid there.
        s3 = np.sqrt(3.0)
        sec = segment([1.0, 0.0], E2, -1.0, -s3, s3)
        obj, points = recording(saddle_quadratic)
        new = step_l_up(sec, obj, origin_region, 0.0)
        assert new.level == 0.0
        assert gap(new) == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(new.midpoint, [1.0, 0.0], atol=1e-9)
        assert calls_at(points["gradient"], sec.midpoint) == 0

    def test_one_value_at_the_midpoint(self, camel, origin_region):
        # The new level is f(m), evaluated once; t = 0 is then a crossing,
        # and the endpoint on m keeps the bits of m, so asking for the new
        # endpoint gradients evaluates grad f(m) no second time.
        w, V = np.linalg.eigh(camel.hessian(np.zeros(2)))
        old = make_section(camel, np.array([0.05, 0.02]), V[:, 0], -0.2,
                           origin_region)
        m = old.midpoint
        obj, points = recording(camel)
        sec = step_l_up(old, obj, origin_region)
        assert sec.level == camel.value(m)
        assert calls_at(points["value"], m) == 1
        assert calls_at(points["gradient"], m) == 1
        assert np.array_equal(sec.x, m) and 0.0 in (sec.t1, sec.t2)
        on_m, far = (sec.zp, sec.z) if sec.t1 == 0.0 else (sec.z, sec.zp)
        assert np.array_equal(on_m, m)
        assert np.array_equal(obj.gradient(sec.z), camel.gradient(sec.z))
        assert np.array_equal(obj.gradient(sec.zp), camel.gradient(sec.zp))
        assert calls_at(points["gradient"], m) == 1
        assert calls_at(points["gradient"], far) == 1

    def test_point_section_on_a_symmetric_well(self):
        # The double well is symmetric about the plane through the midpoint
        # of its minima's chord: along v, f(m) is the line max to within
        # rounding and the far crossing lands within 2 xtol of m. Both
        # endpoints are m itself, whose gradient l-up already evaluated.
        well = oracles.DoubleWell(5)
        a, b = well.minima()
        obj = Objective(5, well.value, well.gradient)
        sec = chord_section(obj, a, b)
        m = sec.midpoint
        new = step_l_up(sec, obj, TrustRegion(0.5 * (a + b), 10.0))
        assert (new.t1, new.t2) == (0.0, 0.0)
        assert np.array_equal(new.x, m)
        before = obj.eval_counts()
        assert np.array_equal(obj.gradient(new.z), well.gradient(m))
        assert np.array_equal(obj.gradient(new.zp), well.gradient(m))
        assert obj.eval_counts() == before


class TestChordLineLUp:
    """The default level raise from the chord section reads the chord
    scan's table (LineSection.scan) for its far crossing."""

    @staticmethod
    def _chord(i, j):
        a, b = (np.array(oracles.CAMEL_MINIMA[k][:2]) for k in (i, j))
        return a, b, TrustRegion(0.5 * (a + b), 10.0)

    @pytest.mark.parametrize("i, j", [(0, 2), (0, 5), (1, 4), (3, 4)])
    def test_cost_and_section(self, camel, i, j):
        # The only gradient is grad f(m), which the small-gradient stop
        # reads anyway. Beyond f(m) the raise evaluates at most one scan
        # point that the lazy scan skipped, which the table then keeps, and
        # Brent's values, each within one scan step of the far crossing.
        # The section is the marched one within 1e-8, and it carries the
        # scan as offsets from m, sharing its values.
        a, b, region = self._chord(i, j)
        sec = chord_section(camel, a, b)
        offsets, values = sec.scan
        skipped = np.array(values) == -np.inf
        L = float(np.linalg.norm(a - b))
        grid = [b + t * sec.v for t in np.linspace(0.0, L, 65)]
        m = sec.midpoint
        obj, points = recording(camel)
        new = step_l_up(sec, obj, region)
        assert len(points["gradient"]) == 1
        assert np.array_equal(points["gradient"][0], m)
        assert np.array_equal(points["value"][0], m)
        rest = points["value"][1:]
        odd = [k for k in np.flatnonzero(skipped)
               if any(np.allclose(p, grid[k], rtol=0, atol=1e-12)
                      for p in rest)]
        assert len(odd) <= 1
        assert list(np.flatnonzero(skipped & (np.array(values) > -np.inf))) \
            == odd
        far = new.zp if new.t2 == 0.0 else new.z
        brent = [p for p in rest
                 if not any(np.allclose(p, grid[k], rtol=0, atol=1e-12)
                            for k in odd)]
        assert all(np.linalg.norm(p - far) < L / 64 for p in brent)
        assert new.scan[1] is values
        assert np.array_equal(new.scan[0],
                              np.array(offsets) - 0.5 * (sec.t1 + sec.t2))
        march = crossings_or_degenerate(camel, m, sec.v, new.level, region,
                                        camel.gradient(m))
        assert march.scan is None
        assert new.t1 == pytest.approx(march.t1, abs=1e-8)
        assert new.t2 == pytest.approx(march.t2, abs=1e-8)

    def test_only_the_default_raise_passes_the_scan_on(self, camel):
        # A raise to a given level, Av and (PD)'s trial sections solve
        # other lines, or the chord line cold: their sections carry no scan.
        a, b, region = self._chord(0, 2)
        sec = chord_section(camel, a, b)
        up = step_l_up(sec, camel, region)
        assert up.scan is not None
        level = 0.5 * (sec.level + camel.value(sec.midpoint))
        assert step_l_up(sec, camel, region, level).scan is None
        assert step_av(sec, camel, region).scan is None
        trial = step_pd(up, camel, region)
        assert isinstance(trial, LineSection) and trial.scan is None


class TestStateInvariants:
    def test_validate_accepts_consistent_state(self, quad_section,
                                               saddle_quadratic):
        oracles.validate_section(quad_section, saddle_quadratic)

    def test_validate_rejects_level_mismatch(self, saddle_quadratic):
        sec = segment([1.0, 0.0], E2, -0.5, -1.0, 1.0)
        with pytest.raises(ValueError, match="exceeds tolerance"):
            oracles.validate_section(sec, saddle_quadratic)

    def test_validate_rejects_nonunit_v(self, saddle_quadratic):
        sec = segment([1.0, 0.0], [0.0, 2.0], 0.0, -0.5, 0.5)
        with pytest.raises(ValueError, match="unit"):
            oracles.validate_section(sec, saddle_quadratic)
