import numpy as np
import pytest

import oracles
from mtnpass import quadmodel
from mtnpass.errors import NewtonBreakdown
from mtnpass.objective import Objective, TrustRegion
from mtnpass.quadmodel import (NEWTON_MAX_ITER, SPECTRUM_RANGE,
                               QuadraticObjective, decompose, generate_morse1,
                               morse_index, newton_refine, saddle_of)


class TestDecompose:
    def test_diag(self):
        evals, evecs = decompose(np.diag([1.0, -1.0]))
        assert np.allclose(evals, [1.0, -1.0])
        assert np.allclose(np.abs(evecs), np.eye(2))

    def test_camel_origin(self):
        evals, _ = decompose(np.array([[8.0, 1.0], [1.0, -8.0]]))
        assert np.allclose(evals, [np.sqrt(65.0), -np.sqrt(65.0)], rtol=1e-12)

    def test_identity(self):
        evals, evecs = decompose(np.eye(3))
        assert np.allclose(evals, 1.0)
        assert np.allclose(evecs.T @ evecs, np.eye(3), atol=1e-12)

    def test_nonsymmetric_raises(self):
        for H in (np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones((2, 3))):
            with pytest.raises(ValueError):
                decompose(H)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_reconstruction_and_orthonormality(self, n):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n))
        H = 0.5 * (M + M.T)
        evals, Q = decompose(H)
        scale = np.max(np.abs(H))
        assert np.max(np.abs((Q * evals) @ Q.T - H)) <= 1e-10 * scale
        assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-10
        for i in range(n):
            assert np.linalg.norm(H @ Q[:, i] - evals[i] * Q[:, i]) \
                <= 1e-10 * max(scale, 1.0)

    def test_eigenvalues_descending(self):
        rng = np.random.default_rng(99)
        M = rng.standard_normal((6, 6))
        evals, _ = decompose(0.5 * (M + M.T))
        assert all(a >= b for a, b in zip(evals, evals[1:]))

    def test_matches_numpy(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((7, 7))
        H = 0.5 * (M + M.T)
        evals, _ = decompose(H)
        assert np.allclose(evals, np.sort(np.linalg.eigvalsh(H))[::-1],
                           rtol=1e-12, atol=1e-12)


class TestSaddleOf:
    def test_centered(self):
        model = QuadraticObjective(np.diag([1.0, -1.0]), np.zeros(2), 2.5)
        xbar, fbar = saddle_of(model)
        assert np.allclose(xbar, 0.0)
        assert fbar == 2.5

    def test_linear_term(self):
        # -H^{-1} g = (0, 1); substitution gives f = -0.5 + 1 = 0.5.
        model = QuadraticObjective(np.diag([1.0, -1.0]), np.array([0.0, 1.0]), 0.0)
        xbar, fbar = saddle_of(model)
        assert np.allclose(xbar, [0.0, 1.0])
        assert fbar == pytest.approx(0.5)

    def test_three_dim(self):
        model = QuadraticObjective(np.diag([2.0, 3.0, -1.0]),
                                   np.array([2.0, 0.0, 1.0]), 0.0)
        xbar, _ = saddle_of(model)
        assert np.allclose(xbar, [-1.0, 0.0, 1.0])

    def test_residual_bound(self):
        for k in range(10):
            model = generate_morse1(4, seed=3000 + k)
            xbar, _ = saddle_of(model)
            resid = np.linalg.norm(model.H @ xbar + model.g)
            scale = np.linalg.norm(model.H) * np.linalg.norm(xbar) \
                + np.linalg.norm(model.g)
            assert resid <= 1e-10 * scale

    def test_singular_raises(self):
        model = QuadraticObjective(np.diag([1.0, 0.0]), np.array([1.0, 1.0]), 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            saddle_of(model)


class TestGenerateMorse1:
    def test_deterministic(self):
        m1 = generate_morse1(3, seed=0)
        m2 = generate_morse1(3, seed=0)
        assert np.array_equal(m1.H, m2.H)
        assert np.array_equal(m1.g, m2.g)
        assert m1.c == m2.c

    def test_seeds_differ(self):
        assert not np.array_equal(generate_morse1(3, seed=0).H,
                                  generate_morse1(3, seed=1).H)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_morse_index_one(self, n):
        for s in range(5):
            model = generate_morse1(n, seed=10 * n + s)
            assert model.morse_index == 1
            vbar = model.negative_eigenvector
            assert float(vbar @ model.H @ vbar) == pytest.approx(
                model.eigenvalues[-1], rel=1e-10)
            assert model.eigenvalues[-1] < 0

    def test_spectrum_range_respected(self):
        lo, hi = SPECTRUM_RANGE
        for s in range(5):
            model = generate_morse1(5, seed=2 + s)
            assert np.all(model.eigenvalues[:-1] >= lo - 1e-12)
            assert np.all(model.eigenvalues[:-1] <= hi + 1e-12)
            assert -hi - 1e-12 <= model.eigenvalues[-1] <= -lo + 1e-12

    def test_eigendata_from_one_decompose(self, monkeypatch):
        calls = []
        real = quadmodel.decompose
        monkeypatch.setattr(quadmodel, "decompose",
                            lambda H: calls.append(1) or real(H))
        for n in (2, 3, 6):
            calls.clear()
            model = generate_morse1(n, seed=70 + n)
            assert len(calls) == 1
            evals, evecs = real(model.H)
            assert np.array_equal(model.eigenvalues, evals)
            assert np.array_equal(model.eigenvectors, evecs)
            assert np.array_equal(model.negative_eigenvector, evecs[:, -1])
            assert model.morse_index == morse_index(model.H) == 1

    def test_generation_and_saddle_evaluate_nothing(self):
        # The suites count the evaluations of generated models, so neither the
        # generator nor saddle_of may spend one.
        for n in (2, 4, 6):
            model = generate_morse1(n, seed=80 + n)
            xbar, fbar = saddle_of(model)
            assert model.eval_counts() == {"value": 0, "gradient": 0,
                                           "hessian": 0}
            assert fbar == model.value(xbar)


class TestMorseIndex:
    def test_known_matrices(self):
        assert morse_index(np.diag([1.0, -1.0])) == 1
        assert morse_index(np.eye(3)) == 0
        assert morse_index(-np.eye(2)) == 2
        assert morse_index(np.diag([1.0, 0.0])) == 0  # zero is not negative


def newton_iterates(obj, x0, region, **kwargs):
    """newton_refine's result and its iterates: with an analytic Hessian it
    evaluates one gradient per iterate, the start included. The iterates are
    the points where a fresh Objective around obj calls its gradient, so a
    memo hit is not recorded."""
    iterates = []

    def gradient(x):
        iterates.append(np.array(x))
        return obj.gradient(x)

    recorded = Objective(obj.n, obj.value, gradient, obj.hessian)
    return newton_refine(recorded, x0, region, **kwargs), iterates


class TestNewtonRefine:
    def test_one_step_on_quadratic(self):
        model = generate_morse1(3, seed=42)
        xbar, _ = saddle_of(model)
        region = TrustRegion(xbar, 10.0)
        res = newton_refine(model, xbar + 0.4 * np.ones(3) / np.sqrt(3), region,
                            gtol=1e-12)
        assert res.converged
        # One gradient at the start and one after a single exact step.
        assert model.eval_counts()["gradient"] == 2
        assert np.linalg.norm(res.x - xbar) <= 1e-12
        assert res.morse_index == 1

    def test_camel_origin(self, camel):
        region = TrustRegion(np.zeros(2), 10.0)
        res, iterates = newton_iterates(camel, np.array([0.1, 0.05]), region,
                                        gtol=1e-12)
        assert res.converged
        assert len(iterates) - 1 <= 6
        assert np.linalg.norm(res.x) <= 1e-10
        assert res.morse_index == 1

    def test_camel_saddle_near_m1(self, camel):
        region = TrustRegion(np.array([-1.0, 0.8]), 10.0)
        res = newton_refine(camel, np.array([-1.05, 0.75]), region, gtol=1e-12)
        assert res.converged and res.morse_index == 1
        ref = oracles.newton_polish(oracles.camel_gradient,
                                    oracles.camel_hessian,
                                    np.array([-1.05, 0.75]))
        assert np.allclose(res.x, ref, atol=1e-9)
        assert np.allclose(res.x, oracles.CAMEL_SADDLE_NEAR_M1, atol=1e-8)

    def test_quadratic_convergence_rate(self, camel):
        region = TrustRegion(np.zeros(2), 10.0)
        _, iterates = newton_iterates(camel, np.array([0.1, 0.05]), region,
                                      gtol=1e-12)
        errs = [np.linalg.norm(p) for p in iterates]  # true saddle is 0
        ratios = [errs[k + 1] / errs[k] ** 2
                  for k in range(len(errs) - 1) if errs[k] > 1e-12]
        assert ratios and max(ratios) <= 50.0

    def test_breakdown_on_singular_hessian(self):
        flat = QuadraticObjective(np.diag([2.0, 0.0]), np.zeros(2), 0.0)
        region = TrustRegion(np.zeros(2), 10.0)
        with pytest.raises(NewtonBreakdown):
            newton_refine(flat, np.array([1.0, 0.5]), region, gtol=1e-12)

    def test_step_clipped_to_region(self):
        # A tiny region forces clipping; iterates must stay inside it.
        model = generate_morse1(2, seed=8)
        x0 = np.zeros(2)
        region = TrustRegion(x0, 0.5)
        _, iterates = newton_iterates(model, x0, region, gtol=1e-12)
        assert len(iterates) > 1
        for p in iterates:
            assert region.contains(p)

    def test_nonconverged_reports_max_iter(self):
        # grad f = (cbrt(x1), x2): Newton sends x1 to -2 x1 and the region
        # only clips it, so no step count converges. Every step pays one
        # Hessian, and the Morse index of the last point one more.
        cube_root = Objective(
            2, value=lambda x: 0.75 * abs(x[0]) ** (4.0 / 3.0) + 0.5 * x[1] ** 2,
            gradient=lambda x: np.array([np.cbrt(x[0]), x[1]]),
            hessian=lambda x: np.diag([1.0 / (3.0 * np.cbrt(x[0]) ** 2), 1.0]))
        region = TrustRegion(np.zeros(2), 1.0)
        res = newton_refine(cube_root, np.array([0.1, 0.5]), region, gtol=1e-8)
        assert not res.converged
        assert res.grad_norm > 1e-8
        assert cube_root.eval_counts()["hessian"] == NEWTON_MAX_ITER + 1
