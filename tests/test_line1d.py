import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mtnpass import line1d
from mtnpass.errors import BadDirection, CrossingOutsideRegion, NoLineMax
from mtnpass.line1d import (CROSSING_XTOL_FRAC, ROOT_TOL, LineSection, _brent,
                            _interpolate, _level_crossing, _march, _refine_max,
                            chord_section, find_far_crossing,
                            find_level_crossings, line_local_max,
                            line_local_min)
from mtnpass.objective import Objective, TrustRegion, six_hump_camel
from mtnpass.quadmodel import QuadraticObjective, generate_morse1, saddle_of
from mtnpass.subroutines import crossings_or_degenerate

E2 = np.array([0.0, 1.0])


def _dip_line(center, width):
    """f = 1 - x1^2/4 - x2^2 with a narrow Gaussian dip to about -0.5 at
    x1 = center; along e1 from the origin the level 0 is crossed at +-2 and
    on both flanks of the dip."""
    def value(x):
        return 1.0 - 0.25 * x[0] ** 2 - x[1] ** 2 \
            - 1.5 * np.exp(-((x[0] - center) / width) ** 2)

    def gradient(x):
        e = np.exp(-((x[0] - center) / width) ** 2)
        return np.array([-0.5 * x[0] + 3.0 * e * (x[0] - center) / width ** 2,
                         -2.0 * x[1]])

    return Objective(2, value=value, gradient=gradient, name="dip"), value


class TestBrent:
    XTOL = 1e-12

    @pytest.mark.parametrize("fn, a, b, root", [
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 2.0945514815423265),
        (lambda x: np.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
        (lambda x: np.cos(x) - x, 1.0, 0.0, 0.7390851332151607),
    ])
    def test_closed_form_roots(self, fn, a, b, root):
        t, ft, s, fs = _brent(fn, a, b, fn(a), fn(b), self.XTOL)
        assert abs(t - root) <= self.XTOL
        assert ft == fn(t) and fs == fn(s)

    @pytest.mark.parametrize("fn, a, b, root", [
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 2.0945514815423265),
        (lambda x: np.cos(x) - x, 1.0, 0.0, 0.7390851332151607),
        (lambda x: np.exp(x) - 5.0, -4.0, 6.0, np.log(5.0)),
    ])
    def test_returned_pair_finishes_the_root(self, fn, a, b, root):
        # The secant zero of the returned pair (t, s) is the root within the
        # stopping width xtol + rtol*|root|. A pair that straddles the root
        # is the final bracket, narrower than the stopping width, or the
        # last two interpolation steps, whose secant step from t is below a
        # quarter of delta = width/2.
        t, ft, s, fs = _brent(fn, a, b, fn(a), fn(b), self.XTOL)
        assert ft == fn(t) and fs == fn(s) and ft != 0.0
        root_t = _interpolate(t, ft, s, fs)
        assert abs(root_t - root) <= self.XTOL + line1d._ROOT_RTOL * abs(root)
        width = self.XTOL + line1d._ROOT_RTOL * abs(t)
        if (ft > 0.0) != (fs > 0.0):
            assert min(t, s) <= root <= max(t, s)
            assert abs(s - t) < width or abs(root_t - t) < width / 8.0

    def test_never_evaluates_bracket_ends(self):
        a, b = 2.0, 3.0
        calls = []

        def fn(x):
            assert x != a and x != b, "bracket end re-evaluated"
            calls.append(x)
            return x ** 3 - 2.0 * x - 5.0

        t = _brent(fn, a, b, -1.0, 16.0, self.XTOL)[0]
        assert abs(t - 2.0945514815423265) <= self.XTOL
        assert calls and all(a < x < b for x in calls)

    @pytest.mark.parametrize("fa, fb, expected", [(0.0, 3.0, 1.0), (-3.0, 0.0, 2.0)])
    def test_exact_zero_at_end_needs_no_call(self, fa, fb, expected):
        def fn(x):
            raise AssertionError("no evaluation expected")

        # The other end of [1, 2] and its value come back as the bracket.
        other, f_other = (2.0, fb) if expected == 1.0 else (1.0, fa)
        assert _brent(fn, 1.0, 2.0, fa, fb, self.XTOL) == \
            (expected, 0.0, other, f_other)

    def test_unbracketed_raises(self):
        with pytest.raises(ValueError):
            _brent(lambda x: x, 1.0, 2.0, 1.0, 2.0, self.XTOL)


def _bisected_root(fn, a, b):
    """The root of fn in [a, b], fn(a) > 0 > fn(b), bisected to the last
    bit."""
    while True:
        m = 0.5 * (a + b)
        if m in (a, b):
            return m
        if fn(m) > 0.0:
            a = m
        else:
            b = m


def _wiggle(t):
    return 0.5 - t + 1e-3 * math.sin(200.0 * t)


def _exp_step(k):
    return lambda t: 1.0 - math.exp(k * (t - 0.5))


def _near_double(eps):
    return lambda t: eps - (t - 0.3) ** 2


class TestRootAccuracy:
    """Adversarial roots for Brent's method, each bracketed by [a, b] with
    fn(a) > 0 > fn(b): steep and flat exponentials, the near-double roots
    of eps - (t - 0.3)^2 bracketed from 0.3, a triple and a fifth-order
    root, a steep arctangent step and a wiggly line. Every crossing lands
    within the stopping width xtol + rtol*|root| of the root, Brent's best
    point t within twice that."""

    ROWS = (
        [pytest.param(_exp_step(k), 0.0, 1.0, 0.5, id=f"exp-{k}")
         for k in (1, 10, 100, 1000)]
        + [pytest.param(_near_double(10.0 ** -e), 0.3, 1.0,
                        0.3 + math.sqrt(10.0 ** -e), id=f"square-1e-{e}")
           for e in range(2, 11)]
        + [pytest.param(lambda t: -(t - 0.7) ** 3, 0.0, 1.0, 0.7, id="cube"),
           pytest.param(lambda t: -(t - 0.7) ** 5, 0.0, 1.0, 0.7, id="fifth"),
           pytest.param(lambda t: -math.atan(1e4 * (t - 0.123456)), 0.0, 1.0,
                        0.123456, id="atan"),
           pytest.param(_wiggle, 0.0, 1.0, _bisected_root(_wiggle, 0.0, 1.0),
                        id="wiggle")])

    @pytest.mark.parametrize("xtol", [1e-9, 1e-11, 1e-13])
    @pytest.mark.parametrize("fn, a, b, root", ROWS)
    def test_crossing_lands_within_the_stopping_width(self, fn, a, b, root,
                                                      xtol):
        width = xtol + line1d._ROOT_RTOL * abs(root)
        t = _level_crossing(fn, a, b, fn(a), fn(b), 0.0, xtol)
        assert abs(t - root) <= width
        pair = _brent(fn, a, b, fn(a), fn(b), xtol)
        assert abs(_interpolate(*pair) - root) <= width
        assert abs(pair[0] - root) <= 2.0 * width


class TestMarch:
    def test_doubling_steps_up_to_the_cap(self):
        # Radius 10: h0 = 0.1, steps double to the cap 0.5.
        probes = _march(lambda t: -t, 0.0, 1.0, 100.0, 10.0)
        ts = [next(probes)[0] for _ in range(6)]
        assert ts == pytest.approx([0.1, 0.3, 0.7, 1.2, 1.7, 2.2], abs=1e-12)
        # Each probe is the previous one plus the step, in floating point.
        assert ts[1] == 0.1 + 0.2 and ts[2] == ts[1] + 0.4
        assert next(probes) == (ts[5] + 0.5, -(ts[5] + 0.5))

    def test_clipped_at_the_bound_which_is_last(self):
        calls = []

        def phi(t):
            calls.append(t)
            return t * t

        probes = list(_march(phi, 0.0, -1.0, -1.0, 10.0))
        assert [t for t, _ in probes] == pytest.approx([-0.1, -0.3, -0.7, -1.0])
        assert probes[-1] == (-1.0, 1.0)
        assert calls == [t for t, _ in probes]

    def test_no_probe_from_the_bound(self):
        assert list(_march(lambda t: 1 / 0, 0.5, 1.0, 0.5, 10.0)) == []
        assert list(_march(lambda t: 1 / 0, 0.0, -1.0, 0.0, 10.0)) == []


class TestRefineMax:
    def test_golden_section_until_the_slopes_straddle(self):
        # phi' > 0 at both 0.3 and 0.5, so no half of the bracket
        # (0.13, 0.3, 0.5) is a sign change of phi' and it is shrunk by golden
        # section on phi before Brent's method polishes phi' = 0. Of the two
        # maxima inside the bracket it keeps the higher one, as a dense grid.
        values = []

        def phi(t):
            values.append(t)
            return -(t - 0.3) ** 2 + 0.02 * np.sin(25.0 * t)

        def dphi(t):
            return -2.0 * (t - 0.3) + 0.5 * np.cos(25.0 * t)

        assert dphi(0.13) < 0.0 < dphi(0.5) < dphi(0.3)
        t = _refine_max(phi, dphi, 0.13, 0.3, 0.5)
        assert len(values) > 1  # the golden-section phase evaluated phi
        grid = np.linspace(0.13, 0.5, 370001)
        t_grid = grid[np.argmax(phi(grid))]
        assert t == pytest.approx(t_grid, abs=1e-6)
        assert t == pytest.approx(0.312206, abs=1e-6)
        assert abs(dphi(t)) <= 1e-12

    @pytest.mark.parametrize("a, b, c, half", [
        (0.0, 0.1, 0.5, "upper"), (0.0, 0.3, 0.5, "lower")])
    def test_straddling_half_is_polished_from_the_middle_slope(self, a, b, c,
                                                               half):
        # The max of phi = -(t - 0.2)^2 lies in one half of the bracket:
        # phi'(b) is evaluated first, then the slope at the end of that
        # half, and Brent's method polishes it with no golden step, so phi
        # is never evaluated.
        values, slopes = [], []

        def phi(t):
            values.append(t)
            return -(t - 0.2) ** 2

        def dphi(t):
            slopes.append(t)
            return -2.0 * (t - 0.2)

        t = _refine_max(phi, dphi, a, b, c)
        assert t == pytest.approx(0.2, abs=1e-14)
        assert slopes[:2] == [b, c if half == "upper" else a]
        assert values == []


class TestLineLocalMax:
    def test_parabola_centered(self, saddle_quadratic, origin_region):
        lm = line_local_max(saddle_quadratic, np.array([1.0, 0.0]), E2, origin_region)
        assert lm.t == pytest.approx(0.0, abs=1e-12)
        assert lm.value == pytest.approx(0.5, abs=1e-12)

    def test_parabola_shifted(self, saddle_quadratic, origin_region):
        lm = line_local_max(saddle_quadratic, np.array([1.0, 0.3]), E2, origin_region)
        assert lm.t == pytest.approx(-0.3, abs=1e-10)
        assert lm.value == pytest.approx(0.5, abs=1e-12)

    def test_camel_vertical_line(self, camel, origin_region):
        lm = line_local_max(camel, np.array([0.0, 0.5]), E2, origin_region)
        grad = camel.gradient(np.array([0.0, 0.5 + lm.t]))
        assert abs(grad[1]) < 1e-10
        t_ref, f_ref = oracles.grid_line_max(
            oracles.camel_value, oracles.camel_gradient,
            np.array([0.0, 0.5]), E2, -2.0, 2.0)
        assert lm.t == pytest.approx(t_ref, abs=1e-8)
        assert lm.value == pytest.approx(f_ref, abs=1e-12)

    def test_monotone_raises(self, origin_region):
        linear = QuadraticObjective(np.zeros((2, 2)), np.array([1.0, 0.0]), 0.0)
        with pytest.raises(NoLineMax):
            line_local_max(linear, np.zeros(2), np.array([1.0, 0.0]), origin_region)

    def test_first_probe_clipped_at_the_bound(self):
        # From 0.005 inside the unit ball the first probe up, h0 = 0.01, is
        # clipped to the bound; f rises there, so f is monotone. The bound is
        # evaluated once: t = 0, the bound and the probe down.
        rising = QuadraticObjective(np.zeros((2, 2)), np.array([1.0, 0.0]), 0.0)
        with pytest.raises(NoLineMax):
            line_local_max(rising, np.array([0.995, 0.0]), np.array([1.0, 0.0]),
                           TrustRegion(np.zeros(2), 1.0))
        assert rising.eval_counts()["value"] == 3

    def test_requires_unit_vector(self, saddle_quadratic, origin_region):
        with pytest.raises(ValueError):
            line_local_max(saddle_quadratic, np.zeros(2), np.array([0.0, 2.0]),
                           origin_region)

    def test_straddling_bracket_value_count(self, saddle_quadratic, origin_region):
        # phi(0), phi(+-h) bracket the max and phi' straddles at once: the
        # polish needs no value of phi, and the final phi(t*) lands on
        # t* = 0, a repeat of phi(0) that the value memo answers.
        before = saddle_quadratic.eval_counts()["value"]
        lm = line_local_max(saddle_quadratic, np.array([1.0, 0.0]), E2,
                            origin_region)
        assert lm.t == 0.0
        assert saddle_quadratic.eval_counts()["value"] - before == 3


class TestFindLevelCrossings:
    def test_quadratic_segment(self, saddle_quadratic, origin_region):
        sec = find_level_crossings(saddle_quadratic, np.array([1.0, 0.0]), E2,
                                   -0.5, origin_region)
        assert not sec.empty
        assert sec.t1 == pytest.approx(-np.sqrt(2.0), abs=1e-10)
        assert sec.t2 == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert np.allclose(sec.z, [1.0, np.sqrt(2.0)], atol=1e-10)
        assert np.allclose(sec.zp, [1.0, -np.sqrt(2.0)], atol=1e-10)

    def test_level_above_max_is_empty(self, saddle_quadratic, origin_region):
        sec = find_level_crossings(saddle_quadratic, np.array([1.0, 0.0]), E2,
                                   1.0, origin_region)
        assert sec.empty
        assert sec.diam == 0.0

    def test_camel_negative_eigvector(self, camel, origin_region):
        w, V = np.linalg.eigh(camel.hessian(np.zeros(2)))
        vbar = V[:, 0]  # eigenvector of the negative eigenvalue
        sec = find_level_crossings(camel, np.zeros(2), vbar, -0.1, origin_region)
        assert not sec.empty
        assert abs(camel.value(sec.z) + 0.1) <= 1e-10
        assert abs(camel.value(sec.zp) + 0.1) <= 1e-10
        roots = oracles.grid_crossings(oracles.camel_value, np.zeros(2), vbar,
                                       -0.1, -2.0, 2.0)
        assert sec.t1 == pytest.approx(max(r for r in roots if r < 0), abs=1e-8)
        assert sec.t2 == pytest.approx(min(r for r in roots if r > 0), abs=1e-8)

    def test_endpoint_residuals_within_tol(self, camel, origin_region):
        for level in (-0.3, -0.1, -0.02):
            sec = find_level_crossings(camel, np.array([0.05, 0.0]), E2, level,
                                       origin_region)
            if sec.empty:
                continue
            assert abs(camel.value(sec.z) - level) <= ROOT_TOL
            assert abs(camel.value(sec.zp) - level) <= ROOT_TOL
            assert camel.value(sec.midpoint) >= level - ROOT_TOL

    def test_diam_nonincreasing_in_level(self, camel, origin_region):
        x = np.zeros(2)
        w, V = np.linalg.eigh(camel.hessian(x))
        vbar = V[:, 0]
        levels = [-0.4, -0.2, -0.1, -0.05, -0.01]
        diams = [find_level_crossings(camel, x, vbar, l, origin_region).diam
                 for l in levels]
        for lo, hi in zip(diams, diams[1:]):
            assert hi <= lo + 2.0 * ROOT_TOL

    def test_endpoint_orientation(self, camel, origin_region):
        # z is the endpoint with the larger v-coordinate: v'z >= v'z'.
        w, V = np.linalg.eigh(camel.hessian(np.zeros(2)))
        for x in (np.zeros(2), np.array([0.1, -0.05]), np.array([-0.07, 0.02])):
            sec = find_level_crossings(camel, x, V[:, 0], -0.15, origin_region)
            assert float(V[:, 0] @ sec.z) >= float(V[:, 0] @ sec.zp)
            assert sec.t1 <= sec.t2

    def test_deterministic_bitwise(self, camel, origin_region):
        args = (camel, np.array([0.03, -0.02]), E2, -0.15, origin_region)
        s1 = find_level_crossings(*args)
        s2 = find_level_crossings(*args)
        assert s1.t1 == s2.t1 and s1.t2 == s2.t2

    def test_region_escape_raises(self, saddle_quadratic):
        # At level -0.5 the crossing sits at |t| = sqrt(2); a radius-1 ball
        # around the base point cannot contain it.
        small = TrustRegion(np.array([1.0, 0.0]), 1.0)
        with pytest.raises(CrossingOutsideRegion):
            find_level_crossings(saddle_quadratic, np.array([1.0, 0.0]), E2,
                                 -0.5, small)

    def test_quadratic_eval_counts(self, saddle_quadratic, origin_region):
        find_level_crossings(saddle_quadratic, np.array([1.0, 0.0]), E2, -0.5,
                             origin_region)
        # 23 values while Brent's method ran until its bracket was narrower
        # than the tolerance.
        assert saddle_quadratic.eval_counts() == \
            {"value": 21, "gradient": 8, "hessian": 0}

    def test_camel_eval_counts(self, camel, origin_region):
        vbar = np.linalg.eigh(oracles.camel_hessian(np.zeros(2)))[1][:, 0]
        find_level_crossings(camel, np.zeros(2), vbar, -0.1, origin_region)
        assert camel.eval_counts() == {"value": 17, "gradient": 2, "hessian": 0}

    def test_bracket_above_level_starts_the_marches(self, origin_region):
        # Along the negative eigenvector the camel origin is the line max and
        # f(0) = 0 lies above the level: the section cannot be empty, so the
        # marches continue the bracket's own from t = 0 without polishing the
        # max. The first gradient is at the bracket's probe t = +h, whose
        # value is not paid a second time.
        events = []

        def value(p):
            events.append(("value", tuple(p)))
            return oracles.camel_value(p)

        def gradient(p):
            events.append(("gradient", tuple(p)))
            return oracles.camel_gradient(p)

        vbar = np.linalg.eigh(oracles.camel_hessian(np.zeros(2)))[1][:, 0]
        sec = find_level_crossings(Objective(2, value, gradient), np.zeros(2),
                                   vbar, -0.1, origin_region)
        assert not sec.empty
        # Three bracket probes (t = 0, +h, -h), then the gradient at t = +h.
        assert [kind for kind, _ in events[:4]] == ["value"] * 3 + ["gradient"]
        assert events[3][1] == events[1][1] == tuple(0.1 * vbar)
        assert events.count(events[1]) == 1

    @staticmethod
    def _oracle(name):
        """f and grad f of the named fixture, written out independently."""
        if name == "camel":
            return oracles.camel_value, oracles.camel_gradient
        return (lambda p: 0.5 * (p[0] ** 2 - p[1] ** 2),
                lambda p: np.array([p[0], -p[1]]))

    @pytest.mark.parametrize("name", ["quadratic", "camel"])
    @pytest.mark.parametrize("above", [0.01, 0.5 * ROOT_TOL])
    def test_max_polished_where_it_is_the_answer(self, camel, saddle_quadratic,
                                                 origin_region, name, above):
        # A level above the line max gives an empty section that carries the
        # max, which step_l_down starts from and requires phi'(t) = 0 at.
        # Within ROOT_TOL of the level, crossings_or_degenerate makes it a
        # point section. The max lies near t = -0.3.
        obj = {"quadratic": saddle_quadratic, "camel": camel}[name]
        value, gradient = self._oracle(name)
        x = np.array([0.1, 0.3])
        _, f_max = oracles.grid_line_max(value, gradient, x, E2, -3.0, 3.0)
        level = f_max + above
        sec = find_level_crossings(obj, x, E2, level, origin_region)
        assert sec.empty
        lm = sec.line_max
        assert abs(gradient(x + lm.t * E2) @ E2) <= 1e-8
        if above < ROOT_TOL:
            point = crossings_or_degenerate(obj, x, E2, level, origin_region)
            assert point.t1 == point.t2 == lm.t
        else:
            with pytest.raises(CrossingOutsideRegion):
                crossings_or_degenerate(obj, x, E2, level, origin_region)

    @pytest.mark.parametrize("name, x, level", [
        ("quadratic", (1.0, 0.7), -0.5),
        ("quadratic", (1.0, 0.7), 0.4),
        ("camel", (0.1, 0.3), -0.1),
        ("camel", (0.1, 0.3), 0.04),     # bracket probe below, max above
        ("camel", (0.1, -0.35), -0.05),
        ("camel", (0.1, -0.35), 0.03),   # bracket probe below, max above
    ])
    def test_crossings_with_max_off_the_base_point(self, camel, saddle_quadratic,
                                                   origin_region, name, x, level):
        # The line max lies 0.28 to 0.7 from t = 0; the marches start from the
        # bracket probe or, when that probe is not above the level, from the
        # polished max. Either way the section is the grid's around the max.
        obj = {"quadratic": saddle_quadratic, "camel": camel}[name]
        value, gradient = self._oracle(name)
        x = np.array(x)
        t_max, _ = oracles.grid_line_max(value, gradient, x, E2, -3.0, 3.0)
        assert abs(t_max) >= 0.28
        sec = find_level_crossings(obj, x, E2, level, origin_region)
        roots = oracles.grid_crossings(value, x, E2, level, -3.0, 3.0)
        assert sec.t1 == pytest.approx(max(r for r in roots if r < t_max),
                                       abs=1e-8)
        assert sec.t2 == pytest.approx(min(r for r in roots if r > t_max),
                                       abs=1e-8)

    # A dip that falls wholly between two march probes where phi falls
    # outward shows no sign flip of phi' and is stepped over today (see the
    # FOUND line on _cross_outward in CHANGES.md); those centres are xfail.
    @pytest.mark.parametrize("center, width", [
        (0.28, 0.03), (0.3, 0.05), (0.6, 0.05), (-0.62, 0.05),
        pytest.param(0.2, 0.03, marks=pytest.mark.xfail(
            strict=True, reason="dip between two probes is stepped over")),
        pytest.param(0.5, 0.03, marks=pytest.mark.xfail(
            strict=True, reason="dip between two probes is stepped over")),
        pytest.param(-0.32, 0.03, marks=pytest.mark.xfail(
            strict=True, reason="dip between two probes is stepped over")),
    ])
    def test_narrow_dip_not_skipped(self, center, width, origin_region):
        # The march meets the dip with a probe below the level or with a
        # probe on its rising flank (a sign flip of phi'); then the section
        # must end at the dip, not at the outer crossing.
        obj, value = _dip_line(center, width)
        e1 = np.array([1.0, 0.0])
        sec = find_level_crossings(obj, np.zeros(2), e1, 0.0, origin_region)
        roots = oracles.grid_crossings(value, np.zeros(2), e1, 0.0, -5.0, 5.0)
        assert sec.t1 == pytest.approx(max(r for r in roots if r < 0), abs=1e-8)
        assert sec.t2 == pytest.approx(min(r for r in roots if r > 0), abs=1e-8)
        assert abs(value(sec.z)) <= ROOT_TOL
        assert abs(value(sec.zp)) <= ROOT_TOL

    def test_nearest_component_rule(self, camel, origin_region):
        # Along the x2 axis f = 4(x2^2-1)x2^2 has three separate components
        # of {f >= -0.1}; the one containing the origin max must be returned.
        sec = find_level_crossings(camel, np.zeros(2), E2, -0.1, origin_region)
        assert not sec.empty
        assert sec.t2 < 0.71  # inner crossing, not the far branch beyond 1
        assert sec.t1 > -0.71


class TestFindFarCrossing:
    # On f = (x1^2 - x2^2)/2 along e2 through (1, c), f(x) = (1 - c^2)/2 is
    # the level and the section is (c + t)^2 <= c^2: t in [-2c, 0] for
    # c > 0, [0, -2c] for c < 0. The uphill side is sign(phi'(0)) = -sign(c).
    XTOL = CROSSING_XTOL_FRAC * 10.0

    def far(self, obj, x, region, v=E2):
        x = np.asarray(x, dtype=float)
        with mock.patch.object(line1d, "_cross_outward",
                               wraps=line1d._cross_outward) as outward:
            sec = find_far_crossing(obj, x, v, obj.value(x), region,
                                    obj.gradient(x))
        return sec, outward.call_count

    def test_downhill_side_first_probe_below(self, saddle_quadratic,
                                             origin_region):
        # phi'(0) = -0.01: the crossing at -0.02 lies inside the first step,
        # so Brent's method solves the deflated residual, with no march on.
        sec, outward = self.far(saddle_quadratic, [1.0, 0.01], origin_region)
        assert sec.t2 == 0.0
        assert sec.t1 == pytest.approx(-0.02, abs=self.XTOL)
        assert outward == 0

    def test_first_probe_above_the_level(self, saddle_quadratic,
                                         origin_region):
        # phi'(0) = 0.5 and the first probe t = 0.1 lies above the level:
        # the march goes on outward to the crossing at 1.
        sec, outward = self.far(saddle_quadratic, [1.0, -0.5], origin_region)
        assert sec.t1 == 0.0
        assert sec.t2 == pytest.approx(1.0, abs=self.XTOL)
        assert outward == 1

    def test_point_section_when_the_far_crossing_lands_on_zero(
            self, saddle_quadratic, origin_region):
        # The far crossing -2e-14 lies within 2 xtol = 2e-11 of 0.
        sec, _ = self.far(saddle_quadratic, [1.0, 1e-14], origin_region)
        assert (sec.t1, sec.t2) == (0.0, 0.0)

    def test_zero_slope_is_solved_cold(self, saddle_quadratic, origin_region):
        # phi'(0) = 0 exactly at the line max: the cold path finds it on the
        # level and returns the empty section that carries it.
        with mock.patch.object(line1d, "_line_max_bracket",
                               wraps=line1d._line_max_bracket) as bracket:
            sec, _ = self.far(saddle_quadratic, [1.0, 0.0], origin_region)
        assert bracket.call_count == 1
        assert sec.empty
        assert sec.line_max.t == 0.0
        assert sec.line_max.value == 0.5

    def test_uphill_to_the_region_bound_raises(self, origin_region):
        # f = -x2 rises along -e2 all the way to the region bound.
        obj = Objective(2, lambda x: -x[1], lambda x: np.array([0.0, -1.0]))
        with pytest.raises(CrossingOutsideRegion):
            self.far(obj, [0.0, 0.0], origin_region)

    def test_matches_the_cold_section_on_the_camel(self, camel,
                                                   origin_region):
        # Through (0.1, 0.3) along e2, downhill, and (0.2, -0.1), uphill:
        # the cold section at f(x) has an endpoint within xtol of 0, and its
        # other endpoint is the far crossing.
        for x in ([0.1, 0.3], [0.2, -0.1]):
            x = np.array(x)
            sec, _ = self.far(camel, x, origin_region)
            cold = find_level_crossings(camel, x, E2, camel.value(x),
                                        origin_region)
            assert abs(sec.t1 - cold.t1) <= self.XTOL
            assert abs(sec.t2 - cold.t2) <= self.XTOL
            assert 0.0 in (sec.t1, sec.t2) and sec.diam > 0.1


class TestCrossingCost:
    """A level crossing is Brent's root finished by interpolation across its
    final bracket, so it evaluates no gradient; in a section only the dip
    tests of _cross_outward's cold marches take phi'."""

    @pytest.fixture
    def quad(self):
        # f = x1^2 - x2^2: along e2 through (x1, 0) the section at level
        # -0.5 is t^2 <= x1^2 + 0.5.
        return QuadraticObjective(np.diag([2.0, -2.0]), np.zeros(2), 0.0)

    def test_warm_section_costs_no_gradient(self, quad, origin_region):
        near = find_level_crossings(quad, np.array([0.5, 0.0]), E2, -0.5,
                                    origin_region)
        before = quad.eval_counts()["gradient"]
        with mock.patch.object(line1d, "_line_max_bracket",
                               wraps=line1d._line_max_bracket) as bracket:
            sec = find_level_crossings(quad, np.array([0.51, 0.0]), E2, -0.5,
                                       origin_region, near=near)
        assert bracket.call_count == 0  # the warm path, no cold fallback
        assert quad.eval_counts()["gradient"] == before
        assert sec.t2 == pytest.approx(np.sqrt(0.7601), abs=1e-12)
        assert sec.t1 == pytest.approx(-np.sqrt(0.7601), abs=1e-12)

    def test_far_crossing_inside_the_first_step_costs_no_gradient(
            self, quad, origin_region):
        # From (1, 0.01) the far crossing -0.02 lies inside the first step
        # -0.1, so Brent's method on the deflated residual solves it.
        x = np.array([1.0, 0.01])
        level, grad = quad.value(x), quad.gradient(x)
        before = quad.eval_counts()["gradient"]
        sec = find_far_crossing(quad, x, E2, level, origin_region, grad)
        assert quad.eval_counts()["gradient"] == before
        assert sec.t2 == 0.0
        assert sec.t1 == pytest.approx(-0.02, abs=1e-15)


class TestContinuedEscape:
    """An escape raised on a nearby parallel line is continued on values
    only, or the section is solved cold."""

    # f = x1^2 - x2^2 along e2 through (0.5, 0) at level -120: the section
    # |t| <= sqrt(120.25) leaves the radius-10 region, so the first march,
    # upward from the line max at t = 0, escapes.
    LEVEL = -120.0

    @pytest.fixture
    def quad(self):
        return QuadraticObjective(np.diag([2.0, -2.0]), np.zeros(2), 0.0)

    @pytest.fixture
    def escape(self, quad, origin_region):
        with pytest.raises(CrossingOutsideRegion) as err:
            find_level_crossings(quad, np.array([0.5, 0.0]), E2, self.LEVEL,
                                 origin_region)
        return err.value

    @staticmethod
    def _counted(*args, **kwargs):
        """The section, or the escape raised, and the number of cold
        line-max brackets it took."""
        with mock.patch.object(line1d, "_line_max_bracket",
                               wraps=line1d._line_max_bracket) as bracket:
            try:
                out = find_level_crossings(*args, **kwargs)
            except CrossingOutsideRegion as err:
                out = err
        return out, bracket.call_count

    def test_cold_escape_carries_its_march(self, escape):
        assert escape.x.tolist() == [0.5, 0.0] and escape.v.tolist() == [0, 1]
        assert escape.level == self.LEVEL
        assert (escape.t_start, escape.sgn) == (0.0, 1.0)

    def test_continued_escape_costs_no_gradient(self, quad, origin_region,
                                                escape):
        x = np.array([0.51, 0.003])
        before = quad.eval_counts()
        out, cold_brackets = self._counted(quad, x, E2, self.LEVEL,
                                           origin_region, near=escape)
        assert isinstance(out, CrossingOutsideRegion) and cold_brackets == 0
        assert quad.eval_counts()["gradient"] == before["gradient"]
        assert quad.eval_counts()["value"] > before["value"]
        assert out.x.tolist() == x.tolist() and out.level == self.LEVEL
        assert out.t_start == pytest.approx(-0.003, abs=1e-15)
        assert out.sgn == 1.0

    # At level -50 the section through (0.5, 0) is |t| <= sqrt(50.25), inside
    # the region. An escape record starting at t = 8 starts below the level,
    # one at t = 12 outside the region, and the marches from t = 5 and 5.05
    # cross the level at sqrt(50.25): each is solved cold. A cold call alone
    # takes 41 values; the failed check adds the carried start's value and
    # the march's probes, but no crossing solve (53 values at 5.05 with one).
    COLD_VALUES = {8.0: 42, 12.0: 41, 5.0: 44, 5.05: 48}

    @pytest.mark.parametrize("t_start", COLD_VALUES)
    def test_failed_continuation_goes_cold(self, quad, origin_region,
                                           t_start):
        x = np.array([0.5, 0.0])
        near = CrossingOutsideRegion("escape", x, E2, -50.0, t_start, 1.0)
        sec, cold_brackets = self._counted(quad, x, E2, -50.0, origin_region,
                                           near=near)
        assert cold_brackets == 1
        assert quad.eval_counts()["value"] == self.COLD_VALUES[t_start]
        assert sec.t2 == pytest.approx(np.sqrt(50.25), abs=1e-12)
        assert sec.t1 == pytest.approx(-np.sqrt(50.25), abs=1e-12)

    @pytest.mark.parametrize("v, level", [(np.array([1.0, 0.0]), LEVEL),
                                          (E2, LEVEL - 1.0)])
    def test_mismatched_escape_raises(self, quad, origin_region, escape, v,
                                      level):
        with pytest.raises(ValueError, match="same direction and level"):
            find_level_crossings(quad, np.array([0.51, 0.0]), v, level,
                                 origin_region, near=escape)


class TestWarmSectionEscape:
    """A warm section whose outward march reaches the region bound above the
    level finishes that side from its prediction with dip tests."""

    # f = x2 - x1^2 along e1 at level -1, in a radius-2 region around
    # (0.5, 0). On the line x2 = -0.9 the section is |t| <= sqrt(0.1); on the
    # line x2 = 1.5 it is |t| <= sqrt(2.5), and the region ends at
    # t = 0.5 - sqrt(1.75) on the left, so only that side escapes.
    LEVEL = -1.0
    NEAR_X = np.array([0.0, -0.9])
    X = np.array([0.0, 1.5])
    E1 = np.array([1.0, 0.0])

    @staticmethod
    def _objective(depth):
        """f with a Gaussian dip of the given depth and width 0.015 at
        x1 = -0.65, between the left prediction and the region bound."""
        def value(x):
            return x[1] - x[0] ** 2 \
                - depth * np.exp(-((x[0] + 0.65) / 0.015) ** 2)

        def gradient(x):
            e = np.exp(-((x[0] + 0.65) / 0.015) ** 2)
            return np.array([-2.0 * x[0] + 2.0 * depth * e * (x[0] + 0.65)
                             / 0.015 ** 2, 1.0])

        return Objective(2, value=value, gradient=gradient, name="dip")

    def _warm(self, obj, region):
        """The near section on x2 = -0.9, and the section or escape through
        X continued from it with the number of cold line-max brackets."""
        near = find_level_crossings(obj, self.NEAR_X, self.E1, self.LEVEL,
                                    region)
        return near, TestContinuedEscape._counted(obj, self.X, self.E1,
                                                  self.LEVEL, region,
                                                  near=near)

    @pytest.fixture
    def region(self):
        return TrustRegion(np.array([0.5, 0.0]), 2.0)

    def test_escape_starts_at_the_prediction(self, region):
        obj = self._objective(0.0)
        near, (out, cold_brackets) = self._warm(obj, region)
        assert isinstance(out, CrossingOutsideRegion) and cold_brackets == 0
        assert out.x.tolist() == self.X.tolist() and out.level == self.LEVEL
        assert out.t_start == near.t1 + float((near.x - self.X) @ self.E1)
        assert out.sgn == -1.0
        with pytest.raises(CrossingOutsideRegion) as cold:
            find_level_crossings(obj, self.X, self.E1, self.LEVEL, region)
        assert cold.value.sgn == -1.0

    def test_dip_beyond_the_prediction_keeps_its_crossing(self, region):
        # The values-only march from the left prediction steps over the dip
        # (its probes at t = -0.616 and -0.716 lie above the level), but the
        # dip-tested march from there lands in it. Its crossing, at the dip's
        # inner flank, is the left crossing: no cold solve follows, and the
        # section is the cold one.
        obj = self._objective(4.0)
        near, (warm, cold_brackets) = self._warm(obj, region)
        assert cold_brackets == 0
        cold = find_level_crossings(obj, self.X, self.E1, self.LEVEL, region)
        assert (warm.t1, warm.t2) == (cold.t1, cold.t2)
        assert -0.65 < warm.t1 < near.t1
        assert warm.t2 == pytest.approx(np.sqrt(2.5), abs=1e-12)


class TestSeededCrossing:
    """A predicted root strictly inside the bracket a march closed starts
    the crossing solve; any other prediction is never evaluated."""

    # f(t) = 1 - t^2 on the bracket [0.5, 1.5]; the root is t = 1.
    T_IN, T_OUT = 0.5, 1.5

    def _solve(self, seed):
        """The crossing from the bracket seeded with seed, and the points
        evaluated."""
        evaluated = []

        def phi(t):
            evaluated.append(t)
            return 1.0 - t * t

        t = _level_crossing(phi, self.T_IN, self.T_OUT, 0.75, -1.25, 0.0,
                            1e-12, seed)
        return t, evaluated

    @pytest.mark.parametrize("seed", [1.0 - 1e-6, 1.0 + 1e-6, 0.9, 1.2])
    def test_seed_inside_the_bracket_is_evaluated_first(self, seed):
        cold, cold_evaluated = self._solve(None)
        t, evaluated = self._solve(seed)
        assert evaluated[0] == seed
        assert t == pytest.approx(cold, abs=1e-12)
        assert len(evaluated) <= len(cold_evaluated)

    @pytest.mark.parametrize("seed", [T_IN, T_OUT, 0.2, 2.0, -1.0])
    def test_seed_outside_the_bracket_is_never_evaluated(self, seed):
        cold, cold_evaluated = self._solve(None)
        t, evaluated = self._solve(seed)
        assert seed not in evaluated
        assert (t, evaluated) == (cold, cold_evaluated)

    # Along e2 through (0.1, 0) on the camel, the level -0.5 is crossed near
    # t = -0.36 and t = 0.39, each inside a march bracket.
    X = np.array([0.1, 0.0])
    LEVEL = -0.5

    def _section(self, predicted=(None, None)):
        """The camel section through X with the given predictions, and its
        value count."""
        camel = six_hump_camel()
        sec = find_level_crossings(camel, self.X, E2, self.LEVEL,
                                   TrustRegion(np.zeros(2), 2.0),
                                   predicted=predicted)
        return sec, camel.eval_counts()["value"]

    def test_seeded_section_is_the_cold_section(self):
        cold, cold_values = self._section()
        sec, values = self._section((cold.t1 + 1e-7, cold.t2 - 1e-7))
        assert sec.t1 == pytest.approx(cold.t1, abs=1e-12)
        assert sec.t2 == pytest.approx(cold.t2, abs=1e-12)
        assert values < cold_values

    @pytest.mark.parametrize("predicted", [(None, None), (-5.0, 5.0),
                                           (0.0, 0.0)])
    def test_predictions_outside_the_brackets_cost_nothing(self, predicted):
        cold, cold_values = self._section()
        sec, values = self._section(predicted)
        assert (sec.t1, sec.t2, values) == (cold.t1, cold.t2, cold_values)


class TestCrossingAccuracy:
    """Cold, warm and far-crossing endpoints on seeded Morse-index-one
    quadratics, n = 2 to 6, against the closed-form roots of the quadratic
    phi(t) = f(x) + b t + a t^2 along the negative eigenvector."""

    @staticmethod
    def _phi(model, x, v):
        """a, b and f(x), from the coefficients; f(x) has the bits of
        model.value(x)."""
        return (0.5 * float(v @ model.H @ v), float((model.H @ x + model.g) @ v),
                float(0.5 * x @ model.H @ x + model.g @ x + model.c))

    def _roots(self, model, x, v, level):
        """The two roots of phi(t) = level, sorted, computed stably."""
        a, b, fx = self._phi(model, x, v)
        c0 = fx - level
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c0), b))
        return sorted((q / a, c0 / q))

    @staticmethod
    def _close(t, root):
        return abs(t - root) <= 1e-13 * max(1.0, abs(root))

    # In a radius-100 region the first march step is 1. A wide section
    # (diameter 1.6 to 8) has its far crossing beyond it, which
    # _cross_outward marches to; a narrow one (diameter 0.5) has it inside,
    # where the deflated Brent solve finds it.
    @pytest.mark.parametrize("narrow", [False, True])
    @pytest.mark.parametrize("k", range(10))
    def test_endpoints_match_the_closed_form_roots(self, k, narrow):
        n = 2 + k % 5
        model = generate_morse1(n, seed=7300 + k)
        rng = np.random.default_rng(k)
        v = model.negative_eigenvector
        x = saddle_of(model)[0] + 0.3 * rng.standard_normal(n)
        region = TrustRegion(x, 100.0)
        a, b, fx = self._phi(model, x, v)
        f_max = fx - b * b / (4.0 * a)
        level = f_max - (0.0625 * abs(a) if narrow else rng.uniform(1.0, 4.0))

        cold = find_level_crossings(model, x, v, level, region)
        r1, r2 = self._roots(model, x, v, level)
        assert self._close(cold.t1, r1) and self._close(cold.t2, r2)

        x_warm = x + 1e-4 * rng.standard_normal(n)
        with mock.patch.object(line1d, "_line_max_bracket",
                               wraps=line1d._line_max_bracket) as bracket:
            warm = find_level_crossings(model, x_warm, v, level, region,
                                        near=cold)
        assert bracket.call_count == 0
        r1, r2 = self._roots(model, x_warm, v, level)
        assert self._close(warm.t1, r1) and self._close(warm.t2, r2)

        zp = cold.zp
        with mock.patch.object(line1d, "_cross_outward",
                               wraps=line1d._cross_outward) as outward:
            far = find_far_crossing(model, zp, v, model.value(zp), region,
                                    model.gradient(zp))
        assert outward.call_count == (0 if narrow else 1)
        assert far.t1 == 0.0
        r1, r2 = self._roots(model, zp, v, model.value(zp))
        assert r1 == 0.0 and self._close(far.t2, r2)


class TestLineLocalMin:
    def test_quadratic_descent(self, saddle_quadratic, origin_region):
        mn = line_local_min(saddle_quadratic, np.array([1.0, 0.0]),
                            np.array([-1.0, 0.0]), origin_region)
        assert mn.t == pytest.approx(1.0, abs=1e-10)
        assert mn.value == pytest.approx(0.0, abs=1e-12)

    def test_sphere_descent(self, origin_region):
        sphere = QuadraticObjective(2.0 * np.eye(2), np.zeros(2), 0.0)
        mn = line_local_min(sphere, np.array([2.0, 0.0]),
                            np.array([-1.0, 0.0]), origin_region)
        assert mn.t == pytest.approx(2.0, abs=1e-10)
        assert mn.value == pytest.approx(0.0, abs=1e-12)

    def test_camel_projected_gradient_direction(self, camel, origin_region):
        x = np.array([0.5, 0.0])
        v = E2
        grad = camel.gradient(x)
        d = -(grad - (grad @ v) * v)
        d /= np.linalg.norm(d)
        mn = line_local_min(camel, x, d, origin_region)
        t_ref, f_ref = oracles.grid_line_min_forward(
            oracles.camel_value, oracles.camel_gradient, x, d, 3.0)
        assert mn.t == pytest.approx(t_ref, abs=1e-6)
        assert mn.value == pytest.approx(f_ref, abs=1e-10)

    def test_straddling_bracket_value_count(self, origin_region):
        # The march probes t = 0, 0.1, 0.3, 0.7 and the bracket (0.1, 0.3, 0.7)
        # straddles the min at 0.4; only the final phi(t*) is added.
        sphere = QuadraticObjective(2.0 * np.eye(2), np.zeros(2), 0.0)
        mn = line_local_min(sphere, np.array([0.4, 0.0]),
                            np.array([-1.0, 0.0]), origin_region)
        assert mn.t == pytest.approx(0.4, abs=1e-10)
        assert sphere.eval_counts()["value"] == 5

    def test_first_min_inside_the_first_step(self, origin_region):
        # The min at t = 0.03 lies before the first probe h0 = 0.1, which
        # rises above phi(0): a 16-point subdivision of (0, h0) finds the
        # first sign change of phi', between 4h0/16 and 5h0/16. Values are
        # paid at 0, h0 and the min only.
        sphere = QuadraticObjective(2.0 * np.eye(2), np.array([-0.06, 0.0]), 0.0)
        mn = line_local_min(sphere, np.zeros(2), np.array([1.0, 0.0]),
                            origin_region)
        assert mn.t == pytest.approx(0.03, abs=1e-12)
        assert mn.value == pytest.approx(-0.0009, abs=1e-15)
        assert mn.t < origin_region.line_interval(np.zeros(2),
                                                  np.array([1.0, 0.0]))[1]
        assert sphere.eval_counts()["value"] == 3

    def test_first_probe_clipped_at_the_bound(self):
        # From 0.005 inside the unit ball the first probe, h0 = 0.01, is
        # clipped to the bound, and f still falls there: the bound is the
        # answer, evaluated once.
        falling = QuadraticObjective(np.zeros((2, 2)), np.array([-1.0, 0.0]), 0.0)
        region = TrustRegion(np.zeros(2), 1.0)
        x, d = np.array([0.995, 0.0]), np.array([1.0, 0.0])
        mn = line_local_min(falling, x, d, region)
        assert mn.t == region.line_interval(x, d)[1]
        assert falling.eval_counts() == {"value": 2, "gradient": 2, "hessian": 0}

    def test_bad_direction_raises(self, saddle_quadratic, origin_region):
        with pytest.raises(BadDirection):
            line_local_min(saddle_quadratic, np.array([1.0, 0.0]),
                           np.array([1.0, 0.0]), origin_region)

    def test_boundary_flagged_when_monotone(self, origin_region):
        linear = QuadraticObjective(np.zeros((2, 2)), np.array([1.0, 0.0]), 0.0)
        mn = line_local_min(linear, np.zeros(2), np.array([-1.0, 0.0]),
                            origin_region)
        assert mn.t == origin_region.line_interval(np.zeros(2),
                                                   np.array([-1.0, 0.0]))[1]
        assert mn.t == pytest.approx(10.0)


class TestChordSection:
    def test_crossings_at_endpoints_on_the_level(self, saddle_quadratic):
        # f = 0.5 (x1^2 - x2^2) on x1 = 0.5 peaks at x2 = 0; both endpoints
        # sit on the level max(f(a), f(b)) and are themselves the crossings.
        a, b = np.array([0.5, 1.0]), np.array([0.5, -1.0])
        sec = chord_section(saddle_quadratic, a, b)
        assert sec.level == pytest.approx(-0.375)
        assert np.allclose(sec.x, [0.5, 0.0], atol=1e-10)
        assert np.allclose(sec.z, a, atol=1e-10)
        assert np.allclose(sec.zp, b, atol=1e-10)

    def test_dip_between_ridge_and_endpoint_not_skipped(self, camel):
        # The chord between the camel minima at f = 2.104 runs through the
        # origin (f = 0). Both endpoints sit on the level, but the section
        # around the ridge max must end where f first falls to the level,
        # not at the far endpoint across the dip.
        a = np.array(oracles.CAMEL_MINIMA[1][:2])
        b = np.array(oracles.CAMEL_MINIMA[4][:2])
        sec = chord_section(camel, a, b)
        roots = oracles.grid_crossings(oracles.camel_value, sec.x, sec.v,
                                       sec.level, -np.linalg.norm(sec.x - b),
                                       np.linalg.norm(a - sec.x))
        assert sec.t1 == pytest.approx(max(r for r in roots if r < 0), abs=1e-8)
        assert sec.t2 == pytest.approx(min(r for r in roots if r > 0), abs=1e-8)
        assert sec.t2 < np.linalg.norm(a - sec.x) - 1.0

    @staticmethod
    def _assert_full_scan_section(obj, a, b, n_grid=20001):
        """chord_section(obj, a, b) is based, bit for bit, at the highest of
        the 65 scan points, the first on ties, and its crossings are the
        grid crossings of its level nearest that point, within 1e-8."""
        L = np.linalg.norm(a - b)
        v = (a - b) / L
        scan = [b + t * v for t in np.linspace(0.0, L, 65)]
        sec = chord_section(obj, a, b)
        assert np.array_equal(sec.x, scan[int(np.argmax([obj.value(p)
                                                         for p in scan]))])
        t_lo, t_hi = -np.linalg.norm(sec.x - b), np.linalg.norm(a - sec.x)
        roots = oracles.grid_crossings(obj.value, sec.x, sec.v, sec.level,
                                       t_lo, t_hi, n_grid)
        # An endpoint on the level is a crossing the grid may not bracket.
        roots += [t for t in (t_lo, t_hi)
                  if abs(obj.value(sec.x + t * sec.v) - sec.level) <= 1e-12]
        assert sec.t1 == pytest.approx(max(r for r in roots if r < 0), abs=1e-8)
        assert sec.t2 == pytest.approx(min(r for r in roots if r > 0), abs=1e-8)

    @staticmethod
    def _humps(humps, record=None):
        """f = sum_k h_k G(x1; c_k, w_k) - (x1 - 0.5)^2 / 2 - x2^2 for humps
        (h_k, c_k, w_k), with G(s; c, w) = exp(-((s - c)/w)^2); record, when
        given, collects every point f is evaluated at. The parabola keeps
        the chord from (0, 0) to (1, 0) steep at its ends, where a hump's
        tail alone would lie within ROOT_TOL of the level."""
        def value(x):
            if record is not None:
                record.append(x.copy())
            return sum(h * math.exp(-((x[0] - c) / w) ** 2)
                       for h, c, w in humps) - 0.5 * (x[0] - 0.5) ** 2 - x[1] ** 2

        def gradient(x):
            return np.array([sum(-2.0 * h * (x[0] - c) / w ** 2
                                 * math.exp(-((x[0] - c) / w) ** 2)
                                 for h, c, w in humps) - (x[0] - 0.5),
                             -2.0 * x[1]])

        return Objective(2, value, gradient, name="humps")

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(humps=st.lists(st.tuples(st.floats(0.2, 2.0), st.floats(0.1, 0.9),
                                    st.floats(4 / 64, 0.3)),
                          min_size=1, max_size=3))
    def test_lazy_scan_matches_the_full_scan_on_wide_humps(self, humps):
        # On the chord from a = (0, 0) to b = (1, 0), humps at least four
        # scan steps wide: the even points and the odd neighbours of their
        # peaks find the full scan's highest point, and the walk to each
        # crossing evaluates the odd point that closes the full scan's
        # bracket.
        self._assert_full_scan_section(self._humps(humps), np.zeros(2),
                                       np.array([1.0, 0.0]), n_grid=4001)

    @pytest.mark.parametrize("i, j", [(0, 2), (0, 5), (1, 4), (2, 3), (3, 4),
                                      (4, 1), (5, 0)])
    def test_lazy_scan_matches_the_full_scan_on_camel(self, camel, i, j):
        self._assert_full_scan_section(
            camel, np.array(oracles.CAMEL_MINIMA[i][:2]),
            np.array(oracles.CAMEL_MINIMA[j][:2]))

    @pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2), (2, 0)])
    def test_lazy_scan_matches_the_full_scan_on_mueller_brown(self, i, j):
        minima = oracles.mueller_brown_polished(
            oracles.MUELLER_BROWN_MINIMA_GUESS)
        obj = Objective(2, oracles.mueller_brown_value,
                        oracles.mueller_brown_gradient)
        self._assert_full_scan_section(obj, minima[i], minima[j])

    def test_scan_cost_on_a_unimodal_chord(self):
        # A hump at x1 = 0.505 on the chord from a = (0, 0) to b = (1, 0),
        # scanned from b at t = j/64, x1 = 1 - t. The highest even point is
        # 32 (x1 = 0.5) and the only even peak, so its odd neighbours 31 and
        # 33 follow. The level is f(b), the endpoint nearer the hump: the
        # walk toward b evaluates odd point 1 before the endpoint 0 on the
        # level, and the walk toward a odd point 63 before the endpoint a
        # below it. No scan point is evaluated twice, and Brent's points lie
        # off the grid.
        points = []
        obj = self._humps([(1.0, 0.505, 0.2)], record=points)
        a, b = np.zeros(2), np.array([1.0, 0.0])
        sec = chord_section(obj, a, b)
        scan = [b + t * (a - b) for t in np.linspace(0.0, 1.0, 65)]
        assert np.array_equal(sec.x, scan[32])
        hits = Counter(j for p in points for j, q in enumerate(scan)
                       if np.array_equal(p, q))
        assert hits == Counter([*range(0, 65, 2), 1, 31, 33, 63])

    @staticmethod
    def _two_humps(center, width):
        """f = G(x1; 0.25, 0.1) + 2 G(x1; center, width) - x2^2, with
        G(s; c, w) = exp(-((s - c)/w)^2): a wide hump and a narrow one twice
        as high on the chord from a = (0, 0) to b = (1, 0)."""
        def value(x):
            return float(np.exp(-((x[0] - 0.25) / 0.1) ** 2)
                         + 2.0 * np.exp(-((x[0] - center) / width) ** 2)
                         - x[1] ** 2)

        def gradient(x):
            g1 = np.exp(-((x[0] - 0.25) / 0.1) ** 2)
            g2 = np.exp(-((x[0] - center) / width) ** 2)
            return np.array([-2.0 * (x[0] - 0.25) / 0.01 * g1
                             - 4.0 * (x[0] - center) / width ** 2 * g2,
                             -2.0 * x[1]])

        return Objective(2, value, gradient, name="two-humps"), value

    # The 65-point scan steps L/64 along the chord of length L = 1; the
    # centres lie off its grid, 44.5/64 midway between two scan points.
    @pytest.mark.parametrize("center, width", [
        (44.5 / 64, 1 / 100), (0.7, 1 / 100), (0.73, 1 / 100),
        pytest.param(44.5 / 64, 1 / 200, marks=pytest.mark.xfail(
            strict=True, reason="a hump narrower than the scan step can fall "
                                "between scan points")),
        *(pytest.param(c, 1 / 100, marks=pytest.mark.xfail(
            strict=True, reason="a hump narrower than two scan steps on the "
                                "flank of a wider one can fall between the "
                                "even points")) for c in (0.14, 0.33)),
    ])
    def test_section_on_the_higher_narrow_hump(self, center, width):
        # chord_section bases its section on the highest scan point it
        # evaluated, bit for bit, with no polish, so a narrow hump is found
        # only while a scan point lands on its top and is evaluated: an even
        # point, or an odd one next to an even peak.
        obj, value = self._two_humps(center, width)
        a, b = np.zeros(2), np.array([1.0, 0.0])
        sec = chord_section(obj, a, b)
        v = (a - b) / np.linalg.norm(a - b)
        scan = [b + t * v for t in np.linspace(0.0, 1.0, 65)]
        assert np.array_equal(sec.x, scan[int(np.argmax([value(p) for p in scan]))])
        s = np.linspace(0.0, 1.0, 200001)
        f = [value((si, 0.0)) for si in s]
        s_max = s[int(np.argmax(f))]
        roots = oracles.grid_crossings(value, np.zeros(2), np.array([1.0, 0.0]),
                                       sec.level, 0.0, 1.0)
        ends = sorted((sec.z[0], sec.zp[0]))
        assert ends[0] == pytest.approx(max(r for r in roots if r < s_max),
                                        abs=1e-8)
        assert ends[1] == pytest.approx(min(r for r in roots if r > s_max),
                                        abs=1e-8)


class TestScanTable:
    """The chord section carries its scan, and the searches that read it
    find what the marches find: the far crossing of the level raise to f
    at the section midpoint (find_far_crossing with scan) and the line max
    (line_local_max with scan)."""

    @staticmethod
    def _assert_table_matches_the_march(obj, a, b):
        """Within 1e-8 on the chord of a and b, in a region whose march
        steps are shorter than the scan step |a - b|/64."""
        sec = chord_section(obj, a, b)
        region = TrustRegion(0.5 * (a + b), float(np.linalg.norm(a - b)))
        lm = line_local_max(obj, sec.x, sec.v, region, sec.scan)
        assert lm.t == pytest.approx(
            line_local_max(obj, sec.x, sec.v, region).t, abs=1e-8)
        m = sec.midpoint
        level, grad = obj.value(m), obj.gradient(m)
        if level <= sec.level:  # no level raise from this section
            return
        scan = sec.midpoint_scan
        table = find_far_crossing(obj, m, sec.v, level, region, grad, scan)
        march = find_far_crossing(obj, m, sec.v, level, region, grad)
        if float(grad @ sec.v) == 0.0:  # both solved cold
            assert (table.t1, table.t2, table.line_max) == (
                march.t1, march.t2, march.line_max)
            assert table.scan is None
            return
        assert table.t1 == pytest.approx(march.t1, abs=1e-8)
        assert table.t2 == pytest.approx(march.t2, abs=1e-8)
        assert table.scan is scan and march.scan is None

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(humps=st.lists(st.tuples(st.floats(0.2, 2.0), st.floats(0.1, 0.9),
                                    st.floats(4 / 64, 0.3)),
                          min_size=1, max_size=3))
    def test_matches_the_march_on_wide_humps(self, humps):
        self._assert_table_matches_the_march(
            TestChordSection._humps(humps), np.zeros(2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("i, j", [(0, 2), (0, 5), (1, 4), (2, 3), (3, 4),
                                      (4, 1), (5, 0)])
    def test_matches_the_march_on_camel(self, camel, i, j):
        self._assert_table_matches_the_march(
            camel, np.array(oracles.CAMEL_MINIMA[i][:2]),
            np.array(oracles.CAMEL_MINIMA[j][:2]))

    @pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2), (2, 0)])
    def test_matches_the_march_on_mueller_brown(self, i, j):
        minima = oracles.mueller_brown_polished(
            oracles.MUELLER_BROWN_MINIMA_GUESS)
        obj = Objective(2, oracles.mueller_brown_value,
                        oracles.mueller_brown_gradient)
        self._assert_table_matches_the_march(obj, minima[i], minima[j])

    def test_chord_section_carries_its_grid(self, camel):
        # Offsets from the base point along v, f there, -inf where the lazy
        # scan did not evaluate.
        a = np.array(oracles.CAMEL_MINIMA[0][:2])
        b = np.array(oracles.CAMEL_MINIMA[2][:2])
        sec = chord_section(camel, a, b)
        offsets, values = sec.scan
        L = np.linalg.norm(a - b)
        grid = np.linspace(0.0, L, 65)
        assert np.array_equal(offsets, grid - grid[int(np.argmax(values))])
        for t, f in zip(grid, values):
            if f != -math.inf:
                assert f == camel.value(b + t * sec.v)
        assert all(f > -math.inf for f in values[::2])

    def test_midpoint_is_half_the_endpoint_sum(self):
        sec = LineSection(np.array([0.1, 0.2]), np.array([0.6, 0.8]), 0.0,
                          -0.3, 0.7)
        assert np.array_equal(sec.midpoint, 0.5 * (sec.z + sec.zp))
