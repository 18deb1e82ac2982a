import json
import threading

import numpy as np
import pytest

import oracles
from mtnpass.errors import EvaluationError
from mtnpass.objective import (MEMO_SIZE, Objective, TrustRegion,
                               builtin, fd_hessian, six_hump_camel, tightness2d)
from mtnpass.quadmodel import QuadraticObjective, morse_index, quadratic_from_json


class TestValues:
    def test_camel_at_origin(self, camel):
        assert camel.value(np.zeros(2)) == 0.0

    def test_camel_at_ones(self, camel):
        # (4 - 2.1 + 1/3) + 1 + 0 = 97/30
        assert camel.value(np.ones(2)) == pytest.approx(97.0 / 30.0, abs=1e-14)

    def test_tightness_at_ones(self):
        assert tightness2d().value(np.ones(2)) == 0.0

    def test_tightness_sign(self):
        # (0.5 - 1)(1 - 0.25) < 0
        assert tightness2d().value(np.array([1.0, 0.5])) == pytest.approx(-0.375)


class TestGradients:
    def test_camel_origin_critical(self, camel):
        assert np.allclose(camel.gradient(np.zeros(2)), 0.0)

    def test_quadratic_gradient_exact(self):
        H = np.array([[2.0, 0.5], [0.5, -1.0]])
        g = np.array([0.3, -0.7])
        obj = QuadraticObjective(H, g, 1.0)
        for x in (np.zeros(2), np.array([1.0, -2.0]), np.array([0.3, 0.4])):
            assert np.allclose(obj.gradient(x), H @ x + g, atol=1e-14)

    def test_camel_gradient_vs_fd(self, camel):
        x = np.array([1.0, 0.0])
        fd = oracles.fd_gradient(camel.value, x, h=1e-5)
        assert np.max(np.abs(camel.gradient(x) - fd)) < 1e-6

    @pytest.mark.parametrize("name", ["six_hump_camel", "tightness2d"])
    def test_analytic_vs_fd_100_points(self, name):
        obj = builtin(name)
        rng = np.random.default_rng(12345)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=2)
            fd = oracles.fd_gradient(obj.value, x, h=1e-5)
            assert np.max(np.abs(obj.gradient(x) - fd)) < 1e-5


class TestHessians:
    def test_camel_origin_hessian(self, camel):
        assert np.array_equal(camel.hessian(np.zeros(2)),
                              np.array([[8.0, 1.0], [1.0, -8.0]]))

    def test_quadratic_hessian_exact(self):
        H = np.array([[2.0, 0.5], [0.5, -1.0]])
        obj = QuadraticObjective(H, np.zeros(2), 0.0)
        assert np.array_equal(obj.hessian(np.array([3.0, -1.0])), H)

    def test_fd_hessian_matches_analytic(self, camel):
        x = np.array([0.3, -0.2])
        fd = fd_hessian(camel.gradient, x)
        assert np.max(np.abs(fd - camel.hessian(x))) < 1e-4

    def test_fd_fallback_when_no_analytic(self):
        obj = Objective(2, value=oracles.camel_value,
                        gradient=oracles.camel_gradient)
        x = np.array([0.3, -0.2])
        assert np.max(np.abs(obj.hessian(x) - oracles.camel_hessian(x))) < 1e-4

    def test_hessian_exactly_symmetric(self, camel):
        rng = np.random.default_rng(7)
        for _ in range(10):
            H = camel.hessian(rng.uniform(-2, 2, size=2))
            assert np.array_equal(H, H.T)


class TestCounters:
    def test_counters_increment_once_per_call(self, camel):
        x = np.zeros(2)
        before = camel.eval_counts()
        camel.value(x)
        camel.gradient(x)
        camel.hessian(x)
        after = camel.eval_counts()
        assert after["value"] == before["value"] + 1
        assert after["gradient"] == before["gradient"] + 1
        assert after["hessian"] == before["hessian"] + 1

    def test_counters_monotone(self, camel):
        seen = []
        for _ in range(5):
            camel.value(np.zeros(2))
            seen.append(camel.eval_counts()["value"])
        assert seen == sorted(seen)


def counting_camel():
    """A camel objective without Hessian and the points its gradient callable saw."""
    calls = []

    def gradient(x):
        calls.append(np.array(x))
        return oracles.camel_gradient(x)

    return Objective(2, oracles.camel_value, gradient), calls


class TestGradientMemo:
    def test_repeat_is_one_evaluation_and_one_observation(self):
        # The gradient callable sees a repeat only once the memo dropped it.
        obj, calls = counting_camel()
        x = np.array([0.3, -0.2])
        others = [np.array([0.01 * k, 0.5]) for k in range(MEMO_SIZE)]
        g = obj.gradient(x)
        for p in others[:-1]:
            obj.gradient(p)
        assert np.array_equal(obj.gradient(x), g)
        assert obj.n_grad_evals == len(calls) == MEMO_SIZE
        # One more new point pushes x out of the memo.
        obj.gradient(others[-1])
        assert np.array_equal(obj.gradient(x), g)
        assert obj.n_grad_evals == len(calls) == MEMO_SIZE + 2
        assert sum(np.array_equal(p, x) for p in calls) == 2

    def test_memo_is_per_thread(self):
        obj, calls = counting_camel()
        x = np.array([0.3, -0.2])
        obj.gradient(x)
        worker = threading.Thread(target=obj.gradient, args=(x,))
        worker.start()
        worker.join()
        obj.gradient(x)
        assert obj.n_grad_evals == len(calls) == 2

    def test_clear_memos_empties_only_this_threads_memo(self):
        obj, calls = counting_camel()
        x = np.array([0.3, -0.2])
        filled, cleared = threading.Event(), threading.Event()

        def worker():
            obj.gradient(x)
            filled.set()
            cleared.wait(timeout=30)
            obj.gradient(x)

        thread = threading.Thread(target=worker)
        thread.start()
        obj.gradient(x)
        filled.wait(timeout=30)
        obj.clear_memos()
        cleared.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        # The worker's repeat after the clear is a hit in its own memo, and
        # the counters keep what was evaluated before the clear.
        assert obj.n_grad_evals == 2
        obj.gradient(x)
        obj.gradient(x)
        assert obj.n_grad_evals == len(calls) == 3

    def test_returned_array_is_the_callers_own(self):
        obj, _ = counting_camel()
        x = np.array([0.3, -0.2])
        want = oracles.camel_gradient(x)
        obj.gradient(x)[:] = 99.0
        hit = obj.gradient(x)
        assert np.array_equal(hit, want)
        hit[:] = 7.0
        assert np.array_equal(obj.gradient(x), want)
        assert obj.n_grad_evals == 1

    def test_reused_output_buffer(self):
        # The memo keeps its own copy, so a callable that writes every
        # gradient into one buffer does not change a remembered one.
        buf = np.empty(2)

        def gradient(x):
            buf[:] = oracles.camel_gradient(x)
            return buf

        obj = Objective(2, oracles.camel_value, gradient)
        x, y = np.array([0.3, -0.2]), np.array([-1.0, 0.4])
        obj.gradient(x)
        obj.gradient(y)
        assert np.array_equal(obj.gradient(x), oracles.camel_gradient(x))
        assert np.array_equal(obj.gradient(y), oracles.camel_gradient(y))
        assert obj.n_grad_evals == 2

    def test_fd_hessian_probes_are_counted_and_observed(self):
        obj, calls = counting_camel()
        obj.gradient(np.array([0.1, 0.2]))
        obj.hessian(np.array([0.1, 0.2]))
        # The probes x + h_j e_j are two new points; the gradient at x is a
        # memo hit.
        assert obj.eval_counts() == {"value": 0, "gradient": 3, "hessian": 1}
        assert len(calls) == 3


def counting_well(n):
    """oracles.DoubleWell(n) without Hessian and the points its gradient saw."""
    well = oracles.DoubleWell(n)
    calls = []

    def gradient(x):
        calls.append(np.array(x))
        return well.gradient(x)

    return Objective(n, well.value, gradient), calls


class TestFdHessian:
    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_costs_n_gradients_after_the_gradient_at_x(self, n):
        obj, calls = counting_well(n)
        x = oracles.DoubleWell(n).centre + 0.1
        obj.gradient(x)
        obj.hessian(x)
        assert obj.n_grad_evals == len(calls) == 1 + n

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_costs_n_plus_one_gradients_on_an_empty_memo(self, n):
        obj, calls = counting_well(n)
        x = oracles.DoubleWell(n).centre + 0.1
        obj.hessian(x)
        assert obj.n_grad_evals == len(calls) == n + 1
        # grad f(x) is asked for first.
        assert np.array_equal(calls[0], x)

    def test_matches_analytic_at_saddle_and_minimum(self):
        well = oracles.DoubleWell(12)
        obj = Objective(12, well.value, well.gradient)
        for x, index in ((well.centre, 1), (well.minima()[0], 0)):
            fd = obj.hessian(x)
            assert np.max(np.abs(fd - well.hessian(x))) <= 1e-6
            assert morse_index(fd) == morse_index(well.hessian(x)) == index


def value_counting_camel():
    """A camel objective without Hessian and the points its value callable saw."""
    calls = []

    def value(x):
        calls.append(np.array(x))
        return oracles.camel_value(x)

    return Objective(2, value, oracles.camel_gradient), calls


class TestValueMemo:
    def test_repeat_is_one_evaluation(self):
        obj, calls = value_counting_camel()
        x = np.array([0.3, -0.2])
        others = [np.array([0.01 * k, 0.5]) for k in range(MEMO_SIZE)]
        f = obj.value(x)
        for p in others[:-1]:
            obj.value(p)
        assert obj.value(x) == f
        assert obj.n_value_evals == len(calls) == MEMO_SIZE
        # One more new point pushes x out of the memo.
        obj.value(others[-1])
        assert obj.value(x) == f
        assert obj.n_value_evals == len(calls) == MEMO_SIZE + 2
        assert sum(np.array_equal(p, x) for p in calls) == 2

    def test_memo_is_per_thread(self):
        obj, calls = value_counting_camel()
        x = np.array([0.3, -0.2])
        obj.value(x)
        worker = threading.Thread(target=obj.value, args=(x,))
        worker.start()
        worker.join()
        obj.value(x)
        assert obj.n_value_evals == len(calls) == 2

    def test_clear_memos_empties_the_value_memo(self):
        obj, calls = value_counting_camel()
        x = np.array([0.3, -0.2])
        obj.value(x)
        obj.clear_memos()
        assert obj.n_value_evals == 1
        obj.value(x)
        obj.value(x)
        assert obj.n_value_evals == len(calls) == 2

    def test_nonfinite_value_is_not_remembered(self):
        obj = Objective(1, value=lambda x: float("nan"),
                        gradient=lambda x: np.zeros(1))
        for _ in range(2):
            with pytest.raises(EvaluationError):
                obj.value(np.zeros(1))
        assert obj.eval_counts() == {"value": 2, "gradient": 0, "hessian": 0}

    def test_value_hits_leave_the_gradient_memo_alone(self):
        obj, calls = counting_camel()
        x = np.array([0.3, -0.2])
        g = obj.gradient(x)
        # Far more value points than the memo holds, each asked for twice.
        for k in range(2 * MEMO_SIZE):
            p = np.array([0.01 * k, 0.5])
            obj.value(p)
            obj.value(p)
        assert np.array_equal(obj.gradient(x), g)
        assert obj.eval_counts() == {"value": 2 * MEMO_SIZE, "gradient": 1,
                                     "hessian": 0}
        assert len(calls) == 1


class TestErrors:
    def test_nonfinite_value_raises(self):
        obj = Objective(1, value=lambda x: float("nan"),
                        gradient=lambda x: np.zeros(1))
        with pytest.raises(EvaluationError):
            obj.value(np.zeros(1))

    def test_nonfinite_gradient_raises(self):
        obj = Objective(1, value=lambda x: 0.0,
                        gradient=lambda x: np.array([np.inf]))
        with pytest.raises(EvaluationError):
            obj.gradient(np.zeros(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_results_are_counted_then_raise(self, bad):
        obj = Objective(2, value=lambda x: bad,
                        gradient=lambda x: np.array([0.0, bad]),
                        hessian=lambda x: np.array([[1.0, bad], [bad, 1.0]]),
                        name="bad")
        for evaluate, what in ((obj.value, "value"), (obj.gradient, "gradient"),
                               (obj.hessian, "Hessian")):
            with pytest.raises(EvaluationError,
                               match=rf"^bad: non-finite {what} at x=\[0\. 0\.\]$"):
                evaluate(np.zeros(2))
        assert obj.eval_counts() == {"value": 1, "gradient": 1, "hessian": 1}

    def test_dimension_mismatch(self, camel):
        with pytest.raises(ValueError):
            camel.value(np.zeros(3))

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            builtin("not_a_function")

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            Objective(0, value=lambda x: 0.0, gradient=lambda x: x)


class TestBuiltinFormulas:
    def test_camel_formula(self, camel):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x1, x2 = rng.uniform(-2, 2, size=2)
            expected = (4 - 2.1 * x1 ** 2 + x1 ** 4 / 3) * x1 ** 2 \
                + x1 * x2 + 4 * (x2 ** 2 - 1) * x2 ** 2
            assert camel.value(np.array([x1, x2])) == pytest.approx(expected, rel=1e-15)

    def test_tightness_formula(self):
        obj = tightness2d()
        rng = np.random.default_rng(1)
        for _ in range(20):
            x1, x2 = rng.uniform(-1.2, 1.2, size=2)
            assert obj.value(np.array([x1, x2])) == pytest.approx(
                (x2 - x1 ** 2) * (x1 - x2 ** 2), rel=1e-14, abs=1e-15)

    def test_simple_quadratic(self):
        obj = QuadraticObjective(np.diag([1.0, -1.0]), np.zeros(2), 0.0)
        x = np.array([3.0, 2.0])
        assert obj.value(x) == pytest.approx(0.5 * (9.0 - 4.0))


class TestQuadraticJson:
    DOC = {"H": [[1.0, 0.0], [0.0, -1.0]], "g": [0.0, 0.0], "c": 0.0}

    def test_load_from_dict(self):
        obj = quadratic_from_json(self.DOC)
        assert obj.value(np.array([1.0, 0.0])) == 0.5

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.DOC))
        obj = quadratic_from_json(path)
        assert obj.n == 2

    def test_unknown_keys_rejected(self):
        doc = dict(self.DOC, extra=1)
        with pytest.raises(ValueError, match="unknown keys"):
            quadratic_from_json(doc)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing keys"):
            quadratic_from_json({"H": [[1.0]]})

    def test_asymmetric_rejected(self):
        doc = {"H": [[1.0, 2e-3], [0.0, -1.0]], "g": [0.0, 0.0], "c": 0.0}
        with pytest.raises(ValueError, match="symmetric"):
            quadratic_from_json(doc)

    def test_shape_mismatch_rejected(self):
        doc = {"H": [[1.0, 0.0], [0.0, -1.0]], "g": [0.0], "c": 0.0}
        with pytest.raises(ValueError):
            quadratic_from_json(doc)

    @pytest.mark.parametrize("key,bad", [
        ("H", [[1.0, 0.0], [0.0, float("nan")]]),
        ("g", [float("inf"), 0.0]),
        ("c", float("-inf")),
    ])
    def test_nonfinite_coefficients_rejected(self, key, bad):
        with pytest.raises(ValueError, match="finite"):
            quadratic_from_json(dict(self.DOC, **{key: bad}))

    def test_nonfinite_json_literals_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"H": [[1.0, 0.0], [0.0, -1.0]], "g": [NaN, 0.0], '
                        '"c": Infinity}')
        with pytest.raises(ValueError, match="finite"):
            quadratic_from_json(path)


class TestTrustRegion:
    def test_radius_positive(self):
        with pytest.raises(ValueError):
            TrustRegion(np.zeros(2), 0.0)

    def test_contains(self):
        reg = TrustRegion(np.zeros(2), 2.0)
        assert reg.contains(np.array([1.0, 1.0]))
        assert not reg.contains(np.array([2.0, 2.0]))

    def test_line_interval(self):
        reg = TrustRegion(np.zeros(2), 5.0)
        t_lo, t_hi = reg.line_interval(np.array([3.0, 0.0]), np.array([1.0, 0.0]))
        assert t_lo == pytest.approx(-8.0)
        assert t_hi == pytest.approx(2.0)

    def test_line_interval_accepts_points_within_the_slack(self):
        # x on the sphere may round to just outside it; contains accepts it,
        # so line_interval must too, also along tangent directions.
        reg = TrustRegion(np.zeros(3), 10.0)
        rng = np.random.default_rng(0)
        for _ in range(3000):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            w = rng.standard_normal(3)
            w -= (w @ u) * u
            w /= np.linalg.norm(w)
            x = 10.0 * u
            assert reg.contains(x)
            t_lo, t_hi = reg.line_interval(x, w)
            assert t_lo <= t_hi and abs(t_lo) < 1e-6 and abs(t_hi) < 1e-6

    def test_line_interval_outside_raises(self):
        reg = TrustRegion(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            reg.line_interval(np.array([2.0, 0.0]), np.array([0.0, 1.0]))

    def test_clip_step_stays_inside(self):
        reg = TrustRegion(np.zeros(2), 1.0)
        x = np.array([0.5, 0.0])
        step = reg.clip_step(x, np.array([10.0, 0.0]))
        assert np.linalg.norm(x + step) == pytest.approx(1.0)

    def test_clip_step_noop_inside(self):
        reg = TrustRegion(np.zeros(2), 10.0)
        step = np.array([0.1, 0.2])
        assert np.array_equal(reg.clip_step(np.zeros(2), step), step)
