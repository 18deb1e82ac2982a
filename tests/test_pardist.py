import numpy as np
import pytest

import oracles
from mtnpass.errors import (DegenerateDenominator, NoEstimate,
                            NotConcaveAlongV)
from mtnpass.line1d import chord_section, find_level_crossings
from mtnpass.objective import Objective, TrustRegion
from mtnpass.pardist import (closed_form_g2_quadratic, derivatives_from_section,
                             estimate_critical_level, eval_pardist)
from mtnpass.quadmodel import QuadraticObjective, generate_morse1, saddle_of

E2 = np.array([0.0, 1.0])


class TestEvalPardist:
    def test_quadratic_example(self, saddle_quadratic, origin_region):
        pe = eval_pardist(saddle_quadratic, np.array([1.0, 0.0]), E2, -0.5,
                          origin_region)
        assert pe.g == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-10)
        assert pe.g2 == pytest.approx(8.0, abs=1e-9)
        assert np.allclose(pe.grad_g, [np.sqrt(2.0), 0.0], atol=1e-9)
        assert np.allclose(pe.grad_g2, [8.0, 0.0], atol=1e-8)

    def test_empty_section(self, saddle_quadratic, origin_region):
        pe = eval_pardist(saddle_quadratic, np.array([1.0, 0.0]), E2, 1.0,
                          origin_region)
        assert pe.section.empty
        assert pe.g == 0.0 and pe.g2 == 0.0
        assert pe.grad_g is None and pe.grad_g2 is None and pe.hess_g2 is None

    def test_g_equals_g2_square_root(self, camel, origin_region):
        pe = eval_pardist(camel, np.array([0.02, 0.01]), E2, -0.07, origin_region)
        assert pe.g2 == pytest.approx(pe.g * pe.g, rel=1e-15)

    def test_grad_g2_is_2g_grad_g(self, camel, origin_region):
        pe = eval_pardist(camel, np.array([0.02, 0.01]), E2, -0.07, origin_region)
        assert np.allclose(pe.grad_g2, 2.0 * pe.g * pe.grad_g, rtol=1e-14)

    def test_camel_derivatives_vs_fd(self, camel, origin_region):
        w, V = np.linalg.eigh(camel.hessian(np.zeros(2)))
        vbar = V[:, 0]
        x = np.array([0.05, 0.02])
        level = -0.05
        pe = eval_pardist(camel, x, vbar, level, origin_region, want_hessian=True)

        def g2_num(p):
            sec = find_level_crossings(camel, p, vbar, level, origin_region)
            return sec.diam ** 2

        fd_grad = oracles.fd_gradient(g2_num, x, h=1e-5)
        fd_hess = oracles.fd_hessian(g2_num, x, h=1e-4)
        assert np.linalg.norm(pe.grad_g2 - fd_grad) \
            <= 1e-4 * (1.0 + np.linalg.norm(pe.grad_g2))
        assert np.linalg.norm(pe.hess_g2 - fd_hess) \
            <= 1e-4 * (1.0 + np.linalg.norm(pe.hess_g2))

    def test_hessian_symmetric(self, camel, origin_region):
        pe = eval_pardist(camel, np.array([0.05, 0.02]), E2, -0.05,
                          origin_region, want_hessian=True)
        assert np.array_equal(pe.hess_g2, pe.hess_g2.T)

    def test_grad_orthogonal_to_v(self, camel, origin_region):
        w, V = np.linalg.eigh(camel.hessian(np.zeros(2)))
        vbar = V[:, 0]
        pe = eval_pardist(camel, np.array([0.04, -0.03]), vbar, -0.08,
                          origin_region)
        assert abs(pe.grad_g2 @ vbar) <= 1e-8 * np.linalg.norm(pe.grad_g2)

    def test_degenerate_denominator(self, origin_region):
        # f = x1 - x2^2/2 at a level just below its line max at the origin
        # along e2: the section is microscopic, so v is nearly tangent to the
        # level set at the endpoints, |v'grad f| = sqrt(2e-20) = 1.4e-10 while
        # |grad f| stays near 1.
        obj = QuadraticObjective(np.diag([0.0, -1.0]), np.array([1.0, 0.0]), 0.0)
        with pytest.raises(DegenerateDenominator, match="nearly tangent"):
            eval_pardist(obj, np.zeros(2), E2, -1e-20, origin_region)

    def test_critical_endpoint_is_degenerate(self, camel):
        # Between camel minima at f = -0.215 and f = 2.104 the higher minimum
        # is itself the crossing of the initial level; grad f vanishes there,
        # so dividing by v'grad f would give meaningless derivatives.
        b = np.array(oracles.CAMEL_MINIMA[1][:2])
        sec = chord_section(camel, np.array(oracles.CAMEL_MINIMA[0][:2]), b)
        assert np.allclose(sec.zp, b, atol=1e-12)
        with pytest.raises(DegenerateDenominator, match="critical point"):
            derivatives_from_section(camel, sec)

    def test_equal_minima_raise_before_hessians(self):
        # Both endpoints of the chord section between the equal minima of a
        # double well are critical: |v'grad f| g is rounding noise there,
        # far below the root tolerance, yet neither endpoint gradient is
        # small against the other. Only the two endpoint gradients are
        # evaluated before the error, and no Hessian is paid.
        well = oracles.DoubleWell(5)
        obj = Objective(5, well.value, well.gradient, well.hessian)
        sec = chord_section(obj, *well.minima())
        before = obj.eval_counts()
        with pytest.raises(DegenerateDenominator, match="root tolerance"):
            derivatives_from_section(obj, sec, want_hessian=True)
        assert obj.eval_counts() == {**before,
                                     "gradient": before["gradient"] + 2}

    def test_narrow_section_keeps_derivatives(self, saddle_quadratic,
                                              origin_region):
        # g = 1e-3 on f = 0.5 (x1^2 - x2^2) along e2: |v'grad f| g = 5e-7 is
        # well above the root tolerance, so the formulas still apply and
        # match the closed form.
        x = np.array([1e-4, 0.0])
        level = 0.5 * (x[0] ** 2 - 0.25e-6)
        pe = eval_pardist(saddle_quadratic, x, E2, level, origin_region,
                          want_hessian=True)
        g2, grad, hess = closed_form_g2_quadratic(saddle_quadratic, x, E2, level)
        assert pe.g == pytest.approx(1e-3, rel=1e-6)
        assert pe.g2 == pytest.approx(g2, rel=1e-6)
        assert np.allclose(pe.grad_g2, grad, rtol=1e-6, atol=1e-12)
        assert np.allclose(pe.hess_g2, hess, rtol=1e-6, atol=1e-9)

    def test_denominators_have_opposite_signs(self, camel, origin_region):
        pe = eval_pardist(camel, np.array([0.02, 0.0]), E2, -0.1, origin_region)
        assert pe.denom_z < 0 < pe.denom_zp


class TestClosedForm:
    def test_value_example(self, saddle_quadratic):
        g2, grad, hess = closed_form_g2_quadratic(
            saddle_quadratic, np.array([1.0, 0.0]), E2, -0.5)
        assert g2 == pytest.approx(8.0)
        assert np.allclose(grad, [8.0, 0.0])
        assert np.allclose(hess, np.diag([8.0, 0.0]))

    def test_hessian_eigenvalues(self, saddle_quadratic):
        _, _, hess = closed_form_g2_quadratic(
            saddle_quadratic, np.array([1.0, 0.0]), E2, -0.5)
        evals = np.sort(np.linalg.eigvalsh(hess))
        assert np.allclose(evals, [0.0, 8.0], atol=1e-12)

    def test_zero_branch(self, saddle_quadratic):
        g2, grad, hess = closed_form_g2_quadratic(
            saddle_quadratic, np.zeros(2), E2, 0.5)
        assert g2 == 0.0
        assert np.array_equal(grad, np.zeros(2))
        assert np.array_equal(hess, np.zeros((2, 2)))

    def test_not_concave_raises(self, saddle_quadratic):
        with pytest.raises(NotConcaveAlongV):
            closed_form_g2_quadratic(saddle_quadratic, np.zeros(2),
                                     np.array([1.0, 0.0]), -0.5)

    def test_matches_direct_root_solve(self):
        # Independent check: solve the scalar quadratic for the two roots.
        rng = np.random.default_rng(3)
        for k in range(20):
            model = generate_morse1(3, seed=500 + k)
            xbar, fbar = saddle_of(model)
            v = model.negative_eigenvector
            x = xbar + 0.3 * rng.standard_normal(3)
            level = fbar - rng.uniform(0.1, 0.6)
            H, g, c = model.H, model.g, model.c
            aa = v @ H @ v
            bb = 2.0 * (v @ H @ x + g @ v)
            cc = x @ H @ x + 2.0 * g @ x + 2.0 * c - 2.0 * level
            disc = bb * bb - 4.0 * aa * cc
            expected = disc / aa ** 2 if disc > 0 else 0.0
            got, _, _ = closed_form_g2_quadratic(model, x, v, level)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestOracleEquivalence:
    def test_numeric_matches_closed_form(self):
        rng = np.random.default_rng(0)
        for k in range(30):
            n = 2 + k % 5
            model = generate_morse1(n, seed=2000 + k)
            xbar, fbar = saddle_of(model)
            vbar = model.negative_eigenvector
            lam_n = model.eigenvalues[-1]
            while True:
                v = vbar + 0.2 * rng.standard_normal(n)
                v /= np.linalg.norm(v)
                if float(v @ model.H @ v) < 0.2 * lam_n:
                    break
            x = xbar + 0.3 * rng.standard_normal(n) / np.sqrt(n)
            level = fbar - rng.uniform(0.05, 0.5)
            pe = eval_pardist(model, x, v, level, TrustRegion(x, 50.0))
            g2c, _, _ = closed_form_g2_quadratic(model, x, v, level)
            assert abs(pe.g2 - g2c) <= 1e-8 * (1.0 + g2c)

    def test_numeric_hessian_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for k in range(15):
            n = 2 + k % 4
            model = generate_morse1(n, seed=2600 + k)
            xbar, fbar = saddle_of(model)
            v = model.negative_eigenvector
            x = xbar + 0.3 * rng.standard_normal(n) / np.sqrt(n)
            level = fbar - rng.uniform(0.2, 0.6)
            pe = eval_pardist(model, x, v, level, TrustRegion(x, 50.0),
                              want_hessian=True)
            if pe.g <= 0.1:
                continue
            g2c, gradc, hessc = closed_form_g2_quadratic(model, x, v, level)
            scale = np.linalg.norm(hessc)
            assert np.linalg.norm(pe.hess_g2 - hessc) <= 1e-6 * scale
            assert np.linalg.norm(pe.grad_g2 - gradc) <= 1e-6 * (1.0 + scale)


class TestConvexityAndMidpoint:
    def test_midpoint_convexity_near_vbar(self):
        rng = np.random.default_rng(5)
        for k in range(10):
            model = generate_morse1(3, seed=700 + k)
            xbar, fbar = saddle_of(model)
            vbar = model.negative_eigenvector
            dv = rng.standard_normal(3)
            dv -= (dv @ vbar) * vbar
            dv *= 0.1 / np.linalg.norm(dv) * rng.uniform(0.0, 1.0)
            v = (vbar + dv) / np.linalg.norm(vbar + dv)
            level = fbar - 0.3
            for _ in range(10):
                a = xbar + rng.standard_normal(3)
                b = xbar + rng.standard_normal(3)
                g2 = [closed_form_g2_quadratic(model, p, v, level)[0]
                      for p in (a, b, 0.5 * (a + b))]
                assert g2[2] <= 0.5 * (g2[0] + g2[1]) + 1e-10

    def test_midpoint_recovers_saddle(self):
        rng = np.random.default_rng(6)
        for k in range(15):
            n = 2 + k % 4
            model = generate_morse1(n, seed=900 + k)
            xbar, fbar = saddle_of(model)
            v = model.negative_eigenvector
            level = fbar - rng.uniform(0.2, 0.8)
            alpha = float(v @ model.H @ v)
            Hv = model.H @ v
            A = np.outer(Hv, Hv) - alpha * model.H
            b = float(model.g @ v) * Hv - alpha * model.g
            x_tilde = np.linalg.lstsq(A, -b, rcond=None)[0]
            sec = find_level_crossings(model, x_tilde, v, level,
                                       TrustRegion(x_tilde, 50.0))
            assert not sec.empty
            assert np.linalg.norm(sec.midpoint - xbar) <= 1e-8


class TestEstimateCriticalLevel:
    def test_symmetric_model(self, saddle_quadratic):
        assert estimate_critical_level(saddle_quadratic, E2) == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset(self):
        model = QuadraticObjective(np.diag([2.0, -1.0]), np.zeros(2), 3.0)
        assert estimate_critical_level(model, E2) == pytest.approx(3.0, abs=1e-12)

    def test_linear_term(self):
        # Saddle at (0, 1) with value f = -0.5 + 1 = 0.5 by direct solve.
        model = QuadraticObjective(np.diag([1.0, -1.0]), np.array([0.0, 1.0]), 0.0)
        xbar = np.linalg.solve(model.H, -model.g)
        expected = model.value(xbar)
        assert expected == pytest.approx(0.5)
        assert estimate_critical_level(model, E2) == pytest.approx(expected, abs=1e-12)

    def test_recovers_saddle_value_random(self):
        for k in range(20):
            model = generate_morse1(4, seed=1200 + k)
            xbar, fbar = saddle_of(model)
            got = estimate_critical_level(model, model.negative_eigenvector)
            assert got == pytest.approx(fbar, rel=1e-10, abs=1e-10)

    def test_not_concave(self, saddle_quadratic):
        with pytest.raises(NotConcaveAlongV):
            estimate_critical_level(saddle_quadratic, np.array([1.0, 0.0]))

    def test_indefinite_bracket_gives_no_estimate(self):
        # With two negative eigenvalues the quadratic part of the bracket is
        # indefinite on the complement of v, so no level estimate exists.
        model = QuadraticObjective(np.diag([1.0, -1.0, -2.0]), np.zeros(3), 0.0)
        with pytest.raises(NoEstimate):
            estimate_critical_level(model, np.array([0.0, 0.0, 1.0]))
