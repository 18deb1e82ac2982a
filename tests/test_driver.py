import dataclasses
import inspect
import sys
import threading

import numpy as np
import pytest

import oracles
from mtnpass import line1d, pardist, quadmodel, subroutines
from mtnpass.driver import SolveConfig, init_state, solve
from mtnpass.errors import BadEndpoints
from mtnpass.line1d import ROOT_TOL
from mtnpass.objective import Objective, six_hump_camel
from mtnpass.quadmodel import QuadraticObjective, generate_morse1, saddle_of


class TestInitState:
    def test_quadratic_recovers_endpoints(self, saddle_quadratic):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, -2.0])
        state = init_state(saddle_quadratic, a, b, SolveConfig())
        sec = state.section
        assert sec.level == pytest.approx(-1.5)
        assert np.allclose(sec.z, a, atol=1e-9)
        assert np.allclose(sec.zp, b, atol=1e-9)
        oracles.validate_state(state, saddle_quadratic)

    def test_camel_minima_straddle_origin(self, camel):
        a = np.array([0.0898, -0.7126])
        b = np.array([-0.0898, 0.7126])
        state = init_state(camel, a, b, SolveConfig())
        oracles.validate_state(state, camel)
        sec = state.section
        # the segment crosses the origin ridge
        assert sec.z @ sec.v > 0 > sec.zp @ sec.v
        assert sec.level == pytest.approx(max(camel.value(a), camel.value(b)))

    def test_identical_endpoints_rejected(self, camel):
        a = np.array([0.5, 0.5])
        with pytest.raises(BadEndpoints):
            init_state(camel, a, a, SolveConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_endpoints_rejected_before_evaluating(self, camel, bad):
        a = np.array([bad, 0.0])
        b = np.array([-0.0898, 0.7126])
        for args in ((a, b), (b, a)):
            with pytest.raises(BadEndpoints, match="finite"):
                init_state(camel, *args, SolveConfig())
        assert camel.eval_counts() == {"value": 0, "gradient": 0, "hessian": 0}

    def test_mismatched_shapes_rejected_before_evaluating(self, camel):
        a = np.array([0.0898, -0.7126])
        b = np.array([-0.0898, 0.7126, 0.0])
        for args in ((a, b), (b, a)):
            with pytest.raises(BadEndpoints, match="dimension"):
                init_state(camel, *args, SolveConfig())
            with pytest.raises(BadEndpoints, match="dimension"):
                solve(camel, *args)
        assert camel.eval_counts() == {"value": 0, "gradient": 0, "hessian": 0}

    def test_monotone_chord_rejected(self):
        sphere = QuadraticObjective(2.0 * np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(BadEndpoints):
            init_state(sphere, np.array([1.0, 0.0]), np.array([2.0, 0.0]),
                       SolveConfig())


class TestSolveQuadratics:
    @pytest.mark.parametrize("k", range(8))
    def test_random_morse1(self, k):
        n = 2 + k % 5
        model = generate_morse1(n, seed=4000 + k)
        xbar, _ = saddle_of(model)
        rng = np.random.default_rng(k)
        u = rng.standard_normal(n)
        u -= (u @ model.negative_eigenvector) * model.negative_eigenvector
        u /= np.linalg.norm(u)
        a = xbar + 1.1 * model.negative_eigenvector + 0.2 * u
        b = xbar - 0.9 * model.negative_eigenvector - 0.1 * u
        report = solve(model, a, b)
        assert report.status == "SaddleFound"
        assert np.linalg.norm(report.x - xbar) <= 1e-8
        assert report.iterations <= 20
        assert report.morse_index == 1

    def test_simple_quadratic(self, saddle_quadratic):
        report = solve(saddle_quadratic, np.array([1.0, 2.0]),
                       np.array([1.0, -2.0]))
        assert report.status == "SaddleFound"
        assert np.linalg.norm(report.x) <= 1e-10

    def test_varied_start_geometries(self):
        # Sweep over skewed, asymmetric endpoint pairs around the saddle.
        for k in range(20):
            n = 2 + k % 5
            model = generate_morse1(n, seed=9000 + k)
            xbar, _ = saddle_of(model)
            rng = np.random.default_rng(100 + k)
            vbar = model.negative_eigenvector
            u = rng.standard_normal(n)
            u -= (u @ vbar) * vbar
            u /= np.linalg.norm(u)
            s1, s2 = rng.uniform(0.5, 2.0, 2)
            w1, w2 = rng.uniform(0.0, 0.6, 2)
            a = xbar + s1 * vbar + w1 * u
            b = xbar - s2 * vbar - w2 * u
            report = solve(model, a, b)
            assert report.status == "SaddleFound"
            assert np.linalg.norm(report.x - xbar) <= 1e-8
            assert report.iterations <= 20


class TestSolveCamel:
    def test_from_global_minima(self):
        camel = six_hump_camel()
        report = solve(camel, np.array([0.0898, -0.7126]),
                       np.array([-0.0898, 0.7126]))
        assert report.status == "SaddleFound"
        assert report.grad_norm <= 1e-8
        assert report.morse_index == 1
        assert min(abs(report.f - v) for v in oracles.CAMEL_SADDLE_VALUES) <= 1e-6

    def test_ridge_near_minus1_08(self):
        camel = six_hump_camel()
        report = solve(camel, np.array([-1.7036067150, 0.7960835687]),
                       np.array([-0.0898420131, 0.7126564030]))
        assert report.status == "SaddleFound"
        assert report.grad_norm <= 1e-8
        assert report.morse_index == 1
        assert np.linalg.norm(report.x - oracles.CAMEL_SADDLE_NEAR_M1) <= 1e-6
        assert np.linalg.norm(report.x - np.array([-1.0, 0.8])) <= 0.15

    def test_stop1_skips_points_at_or_below_initial_level(self, monkeypatch):
        # On this pair the gradient watch first sees near-zero gradients at
        # the endpoint minima; none of them may reach the Newton polish.
        import mtnpass.driver
        real = mtnpass.driver.newton_refine
        starts = []

        def spy(obj, x0, *args, **kwargs):
            starts.append(np.array(x0, dtype=float))
            return real(obj, x0, *args, **kwargs)

        monkeypatch.setattr(mtnpass.driver, "newton_refine", spy)
        camel = six_hump_camel()
        a = np.array([-1.7036067150, 0.7960835687])
        b = np.array([-0.0898420131, 0.7126564030])
        level0 = max(camel.value(a), camel.value(b))
        report = solve(camel, a, b)
        assert starts
        assert all(camel.value(x0) > level0 for x0 in starts)
        assert report.status == "SaddleFound"
        assert report.grad_norm <= 1e-8
        assert report.morse_index == 1

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (4, 5), (5, 4)])
    def test_pass_above_higher_endpoint_minimum(self, i, j):
        # The higher minimum (f = 2.104) is itself a crossing of the initial
        # level, where grad f vanishes. The solve must raise the level from
        # there to the pass at 2.2294 and never fall below the initial level
        # to the origin saddle (f = 0).
        camel = six_hump_camel()
        a = np.array(oracles.CAMEL_MINIMA[i][:2])
        b = np.array(oracles.CAMEL_MINIMA[j][:2])
        level0 = max(camel.value(a), camel.value(b))
        report = solve(camel, a, b)
        assert report.status == "SaddleFound"
        assert report.morse_index == 1
        assert report.f == pytest.approx(2.2293571975, abs=1e-8)
        assert min(rec.level for rec in report.trace) >= level0 - ROOT_TOL

    @pytest.mark.parametrize("i, j", [(2, 3), (3, 2)])
    def test_small_gradient_stop(self, i, j):
        # The chord between the global minima runs through the origin saddle,
        # so the initial section already evaluates a vanishing gradient there
        # and the small-gradient stop certifies it before any level-set step.
        camel = six_hump_camel()
        report = solve(camel, np.array(oracles.CAMEL_MINIMA[i][:2]),
                       np.array(oracles.CAMEL_MINIMA[j][:2]))
        assert report.status == "SaddleFound"
        assert report.message == "small gradient observed"
        assert report.iterations == 0
        assert np.linalg.norm(report.x) <= 1e-8

    def test_fd_hessian_fallback(self):
        # The solver only needs value and gradient callables; Hessians for
        # the (PD) curvature and the Morse certification come from the
        # finite-difference fallback.
        camel_fd = Objective(2, value=oracles.camel_value,
                             gradient=oracles.camel_gradient)
        report = solve(camel_fd, np.array([-1.7036, 0.7961]),
                       np.array([-0.0898, 0.7126]))
        assert report.status == "SaddleFound"
        assert report.grad_norm <= 1e-8
        assert report.morse_index == 1
        assert np.linalg.norm(report.x - oracles.CAMEL_SADDLE_NEAR_M1) <= 1e-6

    def test_tightness_saddles(self):
        # The pinched function has two index-one saddles where the parabolas
        # x2 = x1^2 and x1 = x2^2 intersect: the origin and (1, 1).
        from mtnpass.objective import tightness2d
        from mtnpass.driver import SolveConfig
        vbar = np.array([1.0, -1.0]) / np.sqrt(2.0)
        report = solve(tightness2d(), 0.8 * vbar, -0.8 * vbar,
                       SolveConfig(radius=3.0))
        assert report.status == "SaddleFound"
        assert np.linalg.norm(report.x) <= 1e-8

        report = solve(tightness2d(), np.array([0.6, -0.3]),
                       np.array([-0.4, 0.5]), SolveConfig(radius=3.0))
        assert report.status == "SaddleFound"
        assert report.morse_index == 1
        near_origin = np.linalg.norm(report.x) <= 1e-6
        near_other = np.linalg.norm(report.x - np.ones(2)) <= 1e-6
        assert near_origin or near_other

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 1-2: both orders end in Breakdown (l-down failed) "
        "instead of returning the pass at 0.5437"))
    def test_pass_between_minima_0_and_5(self):
        camel = six_hump_camel()
        m0, m5 = (np.array(oracles.CAMEL_MINIMA[k][:2]) for k in (0, 5))
        for a, b in ((m0, m5), (m5, m0)):
            report = solve(camel, a, b)
            assert report.status == "SaddleFound"
            assert report.f == pytest.approx(oracles.CAMEL_SADDLES[2][2], abs=1e-8)

    def test_iteration_limit(self):
        # One level-set iteration does not reach the pass between minima 0
        # and 1, so the solve ends on the iteration limit.
        camel = six_hump_camel()
        report = solve(camel, np.array(oracles.CAMEL_MINIMA[0][:2]),
                       np.array(oracles.CAMEL_MINIMA[1][:2]),
                       SolveConfig(max_iter=1))
        assert report.status == "MaxIter"
        assert report.iterations == 1
        assert len(report.trace) == 1
        assert report.message == "iteration limit reached"

    def test_breakdown_on_max_chasing_chord(self):
        # The chord between these basins runs almost through a local max of
        # f; the level estimate overshoots every saddle value and the solver
        # must give up cleanly rather than spin.
        camel = six_hump_camel()
        report = solve(camel, np.array([0.0898, -0.7126]),
                       np.array([1.6071, 0.5687]))
        assert report.status == "Breakdown"
        assert report.iterations < 50


class TestSolveDoubleWell:
    def test_from_equal_minima(self):
        # Both endpoints are minima of equal value, so the first (PD) step
        # raises DegenerateDenominator before any Hessian or trial section
        # and the level raise does the work. The well is symmetric about the
        # plane through the segment midpoint, so the level raise to f there
        # finds the far crossing within 2 xtol of the midpoint: the point
        # section, gap 0, which the Newton handoff does not take. (PD) then
        # reports the zero distance, and l-down descends from the line max
        # to the saddle. The counts pin that route: the two finite-difference
        # endpoint Hessians of the first (PD) would cost 4n = 20 gradients,
        # and a gradient evaluated twice at one point (the driver's endpoint
        # gradients in (PD), the line max in l-down) would add one each.
        well = oracles.DoubleWell(5)
        a, b = well.minima()
        report = solve(Objective(5, well.value, well.gradient), a, b)
        assert report.status == "SaddleFound"
        assert report.morse_index == 1
        assert report.f == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(report.x - well.centre) <= 1e-6
        assert [r.step for r in report.trace] == ["Init", "LUp", "LDown"]
        assert report.trace[1].gap == 0.0
        assert report.eval_counts == {"value": 90, "gradient": 32,
                                      "hessian": 1}

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_equal_minima_without_backtracking_storm(self, n):
        # With value and gradient only, the first (PD) step once backtracked
        # through dozens of trial sections on derivatives built from
        # endpoint slopes of rounding size, about 1,100 gradients per solve.
        well = oracles.DoubleWell(n)
        a, b = well.minima()
        report = solve(Objective(n, well.value, well.gradient), a, b)
        assert report.status == "SaddleFound"
        assert np.linalg.norm(report.x - well.centre) <= 1e-6
        assert report.eval_counts["gradient"] < 150


class TestEndpointGradientReuse:
    def test_pd_evaluates_no_endpoint_gradient(self, monkeypatch):
        # The driver evaluates the gradients at z and z' at the top of each
        # iteration; (PD) differentiates g^2 with those and evaluates none of
        # its own. (The README pair stops before any (PD); this pair takes
        # two.)
        real = subroutines.derivatives_from_section
        inside = []

        def spy(obj, *args, **kwargs):
            before = obj.eval_counts()["gradient"]
            try:
                return real(obj, *args, **kwargs)
            finally:
                inside.append(obj.eval_counts()["gradient"] - before)

        monkeypatch.setattr(subroutines, "derivatives_from_section", spy)
        report = solve(six_hump_camel(), np.array(oracles.CAMEL_MINIMA[0][:2]),
                       np.array(oracles.CAMEL_MINIMA[2][:2]))
        assert report.status == "SaddleFound"
        assert len(inside) >= 1
        assert inside == [0] * len(inside)


    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    def test_no_point_is_requested_twice(self, analytic):
        # Objective.gradient answers a repeated point from its memo, so over
        # every ordered pair of camel minima the user's gradient callable
        # never sees the same point twice in one solve.
        points = [np.array(m[:2]) for m in oracles.CAMEL_MINIMA]
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                if i == j:
                    continue
                seen = []

                def gradient(x):
                    seen.append(x.tobytes())
                    return oracles.camel_gradient(x)

                obj = Objective(2, oracles.camel_value, gradient,
                                oracles.camel_hessian if analytic else None)
                solve(obj, a, b)
                assert len(seen) == len(set(seen)), (i, j)


class TestCertificateReuse:
    @pytest.mark.parametrize("case", ["camel", "double-well-fd"])
    def test_polish_path_evaluates_only_f_after_newton(self, monkeypatch, case):
        # newton_refine returns |grad f| and the Morse index at its final
        # point; the report certifies with them and evaluates only f(x). With
        # finite-difference Hessians a second certificate would cost 2n + 1
        # gradients.
        import mtnpass.driver
        real = mtnpass.driver.newton_refine
        after = []

        def spy(obj, x0, *args, **kwargs):
            nr = real(obj, x0, *args, **kwargs)
            after.append(obj.eval_counts())
            return nr

        monkeypatch.setattr(mtnpass.driver, "newton_refine", spy)
        if case == "camel":
            report = solve(six_hump_camel(), np.array([0.0898, -0.7126]),
                           np.array([-0.0898, 0.7126]))
        else:
            well = oracles.DoubleWell(5)
            a, b = well.minima()
            report = solve(Objective(5, well.value, well.gradient), a, b)
        assert report.status == "SaddleFound"
        assert {k: report.eval_counts[k] - after[-1][k] for k in after[-1]} \
            == {"value": 1, "gradient": 0, "hessian": 0}


class TestReportInvariants:
    def _solved(self):
        camel = six_hump_camel()
        return solve(camel, np.array([-1.7036067150, 0.7960835687]),
                     np.array([-0.0898420131, 0.7126564030]))

    def test_saddle_found_certified(self):
        report = self._solved()
        assert report.saddle_found
        assert report.grad_norm <= 1e-8 and report.morse_index == 1

    def test_level_monotonicity_by_step_kind(self):
        report = self._solved()
        records = report.trace
        for prev, cur in zip(records, records[1:]):
            if cur.step == "LUp":
                assert cur.level > prev.level
            elif cur.step == "LDown":
                assert cur.level < prev.level
            elif cur.step in ("PD", "Av"):
                assert cur.level == prev.level

    def test_gap_nonincreasing_within_pd_av_runs(self):
        report = self._solved()
        records = report.trace
        for prev, cur in zip(records, records[1:]):
            if cur.step in ("PD", "Av") and prev.level == cur.level:
                assert cur.gap <= prev.gap + 2e-10

    def test_eval_counts_present(self):
        report = self._solved()
        assert report.eval_counts["value"] > 0
        assert report.eval_counts["gradient"] > 0

    def test_trace_iterations_monotone(self):
        report = self._solved()
        its = [r.iteration for r in report.trace]
        assert its == sorted(its)

    def test_determinism(self):
        r1 = self._solved()
        r2 = self._solved()
        assert r1.to_dict() == r2.to_dict()
        assert [t.to_dict() for t in r1.trace] == [t.to_dict() for t in r2.trace]


def _spy_on_watch(obj):
    """Count the watches solve installs on obj and the gradients they see."""
    installs, seen = [], []
    real = obj.watch_gradients

    def watch(observer):
        installs.append(observer)

        def counted(x, g):
            seen.append(x.copy())
            observer(x, g)
        return real(counted)

    obj.watch_gradients = watch
    return installs, seen


class TestGradientWatch:
    def test_no_observer_after_solve_returns(self):
        camel = six_hump_camel()
        installs, seen = _spy_on_watch(camel)
        report = solve(camel, np.array(oracles.CAMEL_MINIMA[0][:2]),
                       np.array(oracles.CAMEL_MINIMA[2][:2]))
        assert report.status == "SaddleFound"
        assert len(installs) == 1 and seen
        n_seen = len(seen)
        camel.gradient(np.array([0.5, 0.5]))
        camel.hessian(np.array([0.5, 0.5]))
        assert len(seen) == n_seen

    def test_no_observer_after_solve_raises(self):
        camel = six_hump_camel()
        installs, seen = _spy_on_watch(camel)
        a = np.array([0.3, 0.1])
        with pytest.raises(BadEndpoints):
            solve(camel, a, a.copy())
        assert len(installs) == 1
        camel.gradient(np.array([0.5, 0.5]))
        assert seen == []

    def test_threads_sharing_an_objective(self):
        # Each solve watches only the gradients of its own thread, so two
        # threads solving on one objective reproduce the sequential runs.
        pairs = [(0, 1), (4, 5), (2, 3), (1, 0), (0, 2), (5, 4), (3, 2), (2, 0)]
        points = [np.array(m[:2]) for m in oracles.CAMEL_MINIMA]

        def outcome(report):
            return (report.status, report.message, report.x.tolist(),
                    [rec.to_dict() for rec in report.trace])

        camel = six_hump_camel()
        expected = {p: outcome(solve(camel, points[p[0]], points[p[1]]))
                    for p in pairs}
        shared = six_hump_camel()
        results = {0: {}, 1: {}}
        start = threading.Barrier(2)

        def work(k):
            start.wait()
            for p in (pairs if k == 0 else pairs[::-1]):
                results[k][p] = outcome(solve(shared, points[p[0]], points[p[1]]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == expected
        assert results[1] == expected


class TestSolveConfig:
    def test_defaults_valid(self):
        cfg = SolveConfig()
        assert cfg.gtol == 1e-8 and cfg.max_iter == 500

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SolveConfig(gtol=0.0)
        with pytest.raises(ValueError):
            SolveConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolveConfig(radius=-1.0)
        for name in ("gtol", "radius"):
            for bad in (np.inf, np.nan):
                with pytest.raises(ValueError, match="finite"):
                    SolveConfig(**{name: bad})

    @pytest.mark.parametrize("name", ["max_iter", "seed"])
    @pytest.mark.parametrize("bad", [2.5, 3.0, True, np.True_, "x", "3",
                                     np.float64(4.0), None],
                             ids=["fraction", "integral-float", "bool",
                                  "numpy-bool", "string", "digit-string",
                                  "numpy-float", "none"])
    def test_rejects_non_integers(self, name, bad):
        with pytest.raises(ValueError, match="integer"):
            SolveConfig(**{name: bad})

    @pytest.mark.parametrize("value", [7, np.int64(7), np.int32(7), np.uint8(7)],
                             ids=["int", "int64", "int32", "uint8"])
    def test_accepts_python_and_numpy_integers(self, value):
        cfg = SolveConfig(max_iter=value, seed=value)
        assert cfg.max_iter == 7 and cfg.seed == 7

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SolveConfig)] == [
            "gtol", "max_iter", "radius", "seed"]

    def test_tolerances_are_constants(self):
        # The level, denominator and 1-D tolerances and the iteration caps of
        # the moves are module constants, not parameters.
        knobs = {"root_tol", "denom_tol", "grad_tol", "max_backtracks",
                 "zero_tol"}
        for module in (line1d, pardist, subroutines, quadmodel):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and not name.startswith("_"):
                    assert not knobs & set(inspect.signature(fn).parameters), name
            for cname, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ != module.__name__ or cname.startswith("_"):
                    continue
                for name, fn in inspect.getmembers(cls, inspect.isfunction):
                    if not name.startswith("_"):
                        params = set(inspect.signature(fn).parameters)
                        assert not knobs & params, f"{cname}.{name}"
