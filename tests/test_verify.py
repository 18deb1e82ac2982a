import dataclasses
import inspect

import numpy as np
import pytest

from mtnpass import line1d, pardist, quadmodel, verify
from mtnpass.errors import CrossingOutsideRegion
from mtnpass.objective import Objective, TrustRegion, tightness2d
from mtnpass.pardist import (closed_form_g2_quadratic, closed_form_hess_g2,
                             eval_pardist)
from mtnpass.quadmodel import generate_morse1, saddle_of
from mtnpass.verify import (camel_sample_cases, check_convexity_region,
                            check_grad_formulas, check_hessian_stability,
                            convexity_radius_sweep, quadratic_oracle_suite,
                            quadratic_sample_cases, run_suite)


class TestGradFormulas:
    def test_quadratic_samples_formula_exact(self):
        # On exact quadratics g^2 is itself quadratic, so the only error is
        # root-finding noise in the finite differences.
        cases = quadratic_sample_cases(12, seed=1)
        report = check_grad_formulas(cases)
        assert report.n_cases == 12
        assert report.n_failures == 0
        assert report.max_rel_grad_err < 1e-6
        assert report.max_rel_hess_err < 1e-6

    def test_camel_samples(self):
        cases = camel_sample_cases(8, seed=1)
        report = check_grad_formulas(cases)
        assert report.n_cases == 8
        assert report.n_failures == 0
        assert report.max_rel_grad_err < 1e-4
        assert report.max_rel_hess_err < 1e-4

    @pytest.mark.parametrize("seed", [2, 8, 16, 19])
    def test_camel_hessian_reference_is_extrapolated(self, seed):
        # On camel cases with |hess g^2| up to about 360 the plain second
        # differences at FD_G2_HESS_STEP carry an h^2 truncation error above
        # HESS_TOL; the Richardson-extrapolated reference does not.
        report = check_grad_formulas(camel_sample_cases(20, seed))
        assert report.n_failures == 0

    def test_suite_cost(self, monkeypatch):
        # Every objective the seed-0 suite builds is recorded and its counts
        # summed. Each finite-difference probe starts its crossing marches
        # from the crossings the case's endpoint models predict; started
        # from the case's own endpoints carried over, the suite costs 47,843
        # values, 305 gradients and 141 Hessians. With f checked at the
        # predicted midpoint before every probe section's marches, it costs
        # 22,969 values.
        made = []

        def recording(factory):
            def make(*args, **kwargs):
                made.append(factory(*args, **kwargs))
                return made[-1]
            return make

        for name in ("generate_morse1", "six_hump_camel"):
            monkeypatch.setattr(verify, name,
                                recording(getattr(verify, name)))
        report = run_suite("grad-formulas", seed=0)
        assert (report["failures"], report["n_cases"],
                report["n_skipped"]) == (0, 70, 0)
        totals = {k: sum(obj.eval_counts()[k] for obj in made)
                  for k in ("value", "gradient", "hessian")}
        # 18,637 values while Brent's method ran until its bracket was
        # narrower than the tolerance.
        assert totals == {"value": 18519, "gradient": 305, "hessian": 141}

    def test_degenerate_sample_skipped_not_failed(self, saddle_quadratic):
        # A level a hair under the line max gives a microscopic section.
        region = TrustRegion(np.zeros(2), 10.0)
        section = line1d.find_level_crossings(
            saddle_quadratic, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            0.5 - 1e-10, region)
        assert not section.empty and section.diam < 1e-4
        case = {"obj": saddle_quadratic, "section": section, "region": region}
        report = check_grad_formulas([case])
        assert report.n_skipped == 1
        assert report.n_failures == 0

    def test_samplers_are_deterministic(self):
        a = quadratic_sample_cases(5, seed=3)
        b = quadratic_sample_cases(5, seed=3)
        assert len(a) == len(b) == 5
        for ca, cb in zip(a, b):
            sa, sb = ca["section"], cb["section"]
            assert np.array_equal(sa.x, sb.x) and np.array_equal(sa.v, sb.v)
            assert (sa.level, sa.t1, sa.t2) == (sb.level, sb.t1, sb.t2)


class TestHessianStability:
    def test_quadratic_identically_zero(self):
        model = generate_morse1(3, seed=17)
        xbar, _ = saddle_of(model)
        report = check_hessian_stability(model, xbar)
        assert report.applicable
        assert all(c.deviation == 0.0 for c in report.comparisons)
        assert report.trend_ok("aligned") and report.trend_ok("perturbed")

    def test_one_decomposition_per_check(self, camel, monkeypatch):
        # The Morse index comes from the spectrum the check already holds,
        # not from a second decomposition of the same Hessian.
        calls = []
        real = quadmodel.decompose

        def counted(H):
            calls.append(np.array(H))
            return real(H)

        for module in (verify, quadmodel, pardist):
            monkeypatch.setattr(module, "decompose", counted)
        report = check_hessian_stability(camel, np.zeros(2))
        assert report.applicable
        assert len(calls) == 1

    def test_camel_origin_trend(self, camel):
        report = check_hessian_stability(camel, np.zeros(2))
        assert report.applicable
        for label in ("aligned", "perturbed"):
            comps = report.by_v(label)
            assert len(comps) == 8
            devs = [c.deviation for c in comps]
            for prev, cur in zip(devs, devs[1:]):
                assert cur <= 1.5 * prev
            assert devs[-1] <= 1e-2 * comps[-1].href_norm
            assert report.trend_ok(label)

    def test_closed_form_hess_g2_matches_closed_form(self):
        # The stability reference is the constant Hessian of the exact closed
        # form of g^2, 8/(v'Hv)^2 (Hv v'H - (v'Hv) H), bit for bit, and the
        # endpoint formulas on a root-found section agree with it.
        for k in range(50):
            model = generate_morse1(2 + k % 5, seed=5 + k)
            v = model.negative_eigenvector
            alpha, Hv = float(v @ model.H @ v), model.H @ v
            href = closed_form_hess_g2(model.H, v)
            assert np.array_equal(
                href, (8.0 / alpha ** 2) * (np.outer(Hv, Hv) - alpha * model.H))
            _, _, hess = closed_form_g2_quadratic(model, np.zeros(model.n), v,
                                                  -10.0)
            assert np.array_equal(href, hess)
        xbar, fbar = saddle_of(model)
        pe = eval_pardist(model, xbar, v, fbar - 0.3, TrustRegion(xbar, 50.0),
                          want_hessian=True)
        assert np.allclose(pe.hess_g2, href, rtol=1e-6, atol=1e-8)

    def test_not_applicable_morse_two(self, camel):
        # local max of the camel: Hessian has two negative eigenvalues
        report = check_hessian_stability(camel, np.array([1.2302298765,
                                                          0.1623345845]))
        assert not report.applicable
        assert "Morse index" in report.reason

    def test_not_applicable_degenerate(self):
        flat = Objective(
            2, value=lambda x: x[0] ** 2 + x[1] ** 4,
            gradient=lambda x: np.array([2.0 * x[0], 4.0 * x[1] ** 3]),
            hessian=lambda x: np.array([[2.0, 0.0], [0.0, 12.0 * x[1] ** 2]]))
        report = check_hessian_stability(flat, np.zeros(2))
        assert not report.applicable
        assert "degenerate" in report.reason

    def test_tightness_origin_is_morse_one(self):
        # The origin Hessian is [[0,1],[1,0]] with eigenvalues +1 and -1:
        # nondegenerate of Morse index one, so the check applies to it.
        report = check_hessian_stability(tightness2d(), np.zeros(2))
        assert report.applicable


class TestConvexityProbes:
    def test_quadratic_no_violations(self):
        model = generate_morse1(3, seed=23)
        xbar, fbar = saddle_of(model)
        report = check_convexity_region(
            model, xbar, fbar - 0.3,
            model.negative_eigenvector, radius=0.5, n_pairs=100, seed=0,
            region=TrustRegion(xbar, 50.0), with_eigenvalues=True)
        assert report.n_violations == 0
        assert report.min_reduced_eig is not None
        assert report.min_reduced_eig > 0

    def test_camel_small_ball_no_violations(self, camel):
        w, V = np.linalg.eigh(camel.hessian(np.zeros(2)))
        report = check_convexity_region(
            camel, np.zeros(2), -0.05, V[:, 0], radius=0.1,
            n_pairs=100, seed=0, region=TrustRegion(np.zeros(2), 10.0))
        assert report.n_pairs > 50
        assert report.n_violations == 0

    def test_tightness_shrinkage(self):
        tight = tightness2d()
        w, V = np.linalg.eigh(tight.hessian(np.zeros(2)))
        vbar = V[:, 0]
        sweep = convexity_radius_sweep(tight, np.zeros(2), vbar,
                                       levels=[-0.1, -0.01, -0.001], seed=0)
        assert sweep[-0.1] > sweep[-0.01] > sweep[-0.001] > 0.0
        assert sweep == {-0.1: 0.8, -0.01: 0.26, -0.001: 0.22}
        # The levels are probed point by point, so the memo answers the cold
        # probes they share; probed level after level, the sweep costs
        # 152,903 values and 23,403 gradients. A point whose section escaped
        # at the previous radius continues the escape on values only; solved
        # cold again with its dip tests, it costs 147,116 values and 20,008
        # gradients. Each level's first radius continues from the section at
        # the centre, and a warm section whose outward march reaches the
        # bound finishes that side from its prediction with dip tests; solved
        # cold, those cost 146,353 values and 4,150 gradients. When a dip
        # closes such a side, its crossing stands; solving the section cold
        # again instead costs 135,995 values and 1,629 gradients. A warm
        # section evaluates f at its predicted midpoint only when an inward
        # march reaches it; checked there before every warm section's
        # marches, the sweep costs 135,960 values. While Brent's method ran
        # until its bracket was narrower than the tolerance, it cost 128,804
        # values and 1,576 gradients.
        assert tight.eval_counts() == {"value": 114978, "gradient": 1518,
                                       "hessian": 1}

    def test_levels_do_not_couple(self):
        # At radius 0.25 the three levels skip 11, 7 and 5 of 30 pairs, and
        # only -0.001 sees a violation. Probed together, each level gets the
        # report and the sections (and escapes) it gets alone, cold and then
        # continued to the next radius, where a continued escape reports
        # what a cold solve of that point reports.
        tight = tightness2d()
        _, V = np.linalg.eigh(tight.hessian(np.zeros(2)))
        levels = (-0.1, -0.01, -0.001)
        region = TrustRegion(np.zeros(2), 2.0)

        def probe(levels, radius, near=None):
            return verify._probe_convexity(
                tight, np.zeros(2), levels, V[:, 0], radius, region,
                n_pairs=30, seed=0, with_eigenvalues=True, near=near)

        def key(sec):
            if isinstance(sec, CrossingOutsideRegion):
                return sec.x.tolist(), sec.t_start, sec.sgn
            return None if sec is None else (sec.x.tolist(), sec.t1, sec.t2)

        def reports(probes):
            return {level: rep.to_dict() for level, (rep, _) in probes.items()}

        together = probe(levels, 0.25)
        assert [rep.n_skipped for rep, _ in together.values()] == [11, 7, 5]
        assert [rep.n_violations for rep, _ in together.values()] == [0, 0, 1]
        near = {level: solved for level, (_, solved) in together.items()}
        warm = probe(levels, 0.26, near)
        cold_escapes = {level: [None if isinstance(s, CrossingOutsideRegion)
                                else s for s in solved]
                        for level, solved in near.items()}
        assert cold_escapes != near
        assert reports(warm) == reports(probe(levels, 0.26, cold_escapes))
        for level in levels:
            alone = probe((level,), 0.25)[level]
            assert together[level][0].to_dict() == alone[0].to_dict() == \
                check_convexity_region(
                    tight, np.zeros(2), level, V[:, 0], 0.25, region,
                    n_pairs=30, seed=0, with_eigenvalues=True).to_dict()
            assert [key(s) for s in together[level][1]] == \
                [key(s) for s in alone[1]]
            warm_alone = probe((level,), 0.26, {level: alone[1]})[level]
            assert warm[level][0].to_dict() == warm_alone[0].to_dict()
            assert [key(s) for s in warm[level][1]] == \
                [key(s) for s in warm_alone[1]]

    @staticmethod
    def _count_sections(monkeypatch):
        # Every section, solved directly or inside eval_pardist, starts with
        # one line-max bracket.
        calls = []
        real = line1d._line_max_bracket

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(line1d, "_line_max_bracket", counted)
        return calls

    def test_sweep_starts_from_the_centre(self, monkeypatch):
        # Every pair point of the first radius continues from its level's
        # section at the centre: one cold section per level, not one per
        # point, and the same reports as cold probes at that radius.
        tight = tightness2d()
        _, V = np.linalg.eigh(tight.hessian(np.zeros(2)))
        levels = [-0.1, -0.01, -0.001]
        r0 = float(verify.SWEEP_RADII[0])
        region = TrustRegion(np.zeros(2), verify.SWEEP_REGION_RADIUS)
        cold = {level: check_convexity_region(
                    tight, np.zeros(2), level, V[:, 0], r0, region,
                    n_pairs=verify.SWEEP_N_PAIRS, seed=0).to_dict()
                for level in levels}
        probes = []
        real = verify._probe_convexity

        def recorded(*args, **kwargs):
            probes.append(real(*args, **kwargs))
            return probes[-1]

        monkeypatch.setattr(verify, "SWEEP_RADII", verify.SWEEP_RADII[:1])
        monkeypatch.setattr(verify, "_probe_convexity", recorded)
        calls = self._count_sections(monkeypatch)
        convexity_radius_sweep(tightness2d(), np.zeros(2), V[:, 0], levels,
                               seed=0)
        assert len(calls) == len(levels)
        assert len(probes) == 1
        assert {level: rep.to_dict()
                for level, (rep, _) in probes[0].items()} == cold

    def test_pair_skipped_at_first_escaping_section(self, saddle_quadratic,
                                                    monkeypatch):
        # At level -2 every section along E2 near the origin reaches
        # |x2| >= 2, outside the unit region: each pair costs one section.
        calls = self._count_sections(monkeypatch)
        report = check_convexity_region(
            saddle_quadratic, np.zeros(2), -2.0, np.array([0.0, 1.0]),
            radius=0.1, n_pairs=5, region=TrustRegion(np.zeros(2), 1.0))
        assert report.n_skipped == 5 and report.n_pairs == 0
        assert len(calls) == 5

    def test_eigenvalue_samples_reuse_the_pair_sections(self, monkeypatch):
        model = generate_morse1(3, seed=23)
        xbar, fbar = saddle_of(model)
        calls = self._count_sections(monkeypatch)
        report = check_convexity_region(
            model, xbar, fbar - 0.3,
            model.negative_eigenvector, radius=0.5, n_pairs=10, seed=0,
            region=TrustRegion(xbar, 50.0), with_eigenvalues=True)
        assert report.n_pairs == 10 and report.n_eig_samples == 20
        assert len(calls) == 3 * 10

    def test_deterministic(self, camel):
        w, V = np.linalg.eigh(camel.hessian(np.zeros(2)))
        kw = dict(radius=0.1, n_pairs=30, seed=5,
                  region=TrustRegion(np.zeros(2), 10.0))
        r1 = check_convexity_region(camel, np.zeros(2), -0.05, V[:, 0], **kw)
        r2 = check_convexity_region(camel, np.zeros(2), -0.05, V[:, 0], **kw)
        assert r1.to_dict() == r2.to_dict()


class TestSuites:
    def test_quadratic_oracle_suite(self):
        report = quadratic_oracle_suite(n_models=40, seed=0)
        assert report["failures"] == 0
        assert report["max_rel_err"] <= 1e-8

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown verification suite"):
            run_suite("no-such-suite")

    def test_suite_reports_are_deterministic(self):
        assert run_suite("quadratic-oracle", seed=1) == \
            run_suite("quadratic-oracle", seed=1)


def test_suite_settings_are_constants():
    # Tolerances, step sizes and sweep shapes are module constants of verify;
    # only sample sizes, seeds, points, levels and directions are parameters.
    knobs = {"step", "grad_tol", "hess_tol", "growth_factor", "final_frac",
             "n_scales", "r0", "e0", "v_gap", "region_radius", "scale_start",
             "slack", "radii", "tol"}
    for name, fn in inspect.getmembers(verify, inspect.isfunction):
        if fn.__module__ == verify.__name__ and not name.startswith("_"):
            assert not knobs & set(inspect.signature(fn).parameters), name
    for cname, cls in inspect.getmembers(verify, inspect.isclass):
        if cls.__module__ != verify.__name__:
            continue
        assert not knobs & {f.name for f in dataclasses.fields(cls)}, cname
        for name, fn in inspect.getmembers(cls, inspect.isfunction):
            assert not knobs & set(inspect.signature(fn).parameters), \
                f"{cname}.{name}"
    sweep = set(inspect.signature(convexity_radius_sweep).parameters)
    assert not {"n_pairs", "region"} & sweep
    assert not hasattr(verify, "fd_grad_g2")
    assert {f.name for f in dataclasses.fields(verify.QuadraticComparison)} \
        .isdisjoint({"href", "measured"})
