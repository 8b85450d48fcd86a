import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import ehmac as eh
import ehmac.solver as solver
from ehmac.errors import (DomainError, EhmacError, MomentRangeError,
                          NonAdmissibleTrajectoryError, SolverDivergenceError, UsageError)


def hp_of(capacity, lam=1.0, zeta=1.0):
    return eh.HarvestParams(lam, zeta, capacity)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            eh.SolverConfig(p0plus=0.0)
        with pytest.raises(DomainError):
            eh.SolverConfig(theta_tol=0.0)
        with pytest.raises(DomainError):
            eh.SolverConfig(grid_n=32)
        with pytest.raises(UsageError):
            eh.SolverConfig(init_policy="cubic")

    @pytest.mark.parametrize("field, value", [
        pytest.param("k_const", math.inf, id="k_inf"),
        pytest.param("k_const", -math.inf, id="k_minus_inf"),
        pytest.param("k_const", math.nan, id="k_nan"),
        pytest.param("p0plus", math.inf, id="p0plus_inf"),
        pytest.param("p0plus", math.nan, id="p0plus_nan"),
        pytest.param("grid_n", 64.5, id="grid_n_fraction"),
        pytest.param("grid_n", 128.0, id="grid_n_float"),
        pytest.param("ode_substeps", 2.5, id="ode_substeps"),
        pytest.param("max_outer", 3.0, id="max_outer"),
        pytest.param("grid_n", True, id="grid_n_bool"),
        pytest.param("ode_substeps", True, id="ode_substeps_bool"),
        pytest.param("max_outer", True, id="max_outer_bool"),
    ])
    def test_rejects_before_any_work(self, field, value):
        # each of these once failed only inside a solve: a ZeroDivisionError,
        # an E_RANGE, an E_DOMAIN from an infinite start rate, or a TypeError
        # from linspace or range; a bool count once ran as 1
        with pytest.raises(DomainError) as err:
            eh.SolverConfig(**{field: value})
        assert err.value.field == field

    def test_integral_fields_take_numpy_integers(self):
        cfg = eh.SolverConfig(grid_n=np.int64(128), ode_substeps=np.int32(2),
                              max_outer=np.int64(3), k_const=-1e300)
        assert (cfg.grid_n, cfg.ode_substeps, cfg.max_outer) == (128, 2, 3)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_divergence_tol_must_be_nonnegative(self, tol):
        with pytest.raises(DomainError) as err:
            eh.SolverConfig(divergence_tol=tol)
        assert err.value.field == "divergence_tol"
        eh.SolverConfig(divergence_tol=0.0)  # zero: any utility drop diverges

    @pytest.mark.parametrize("field, values", [
        pytest.param("p0plus_candidates", (0.01, 0.0), id="p0_zero"),
        pytest.param("p0plus_candidates", (-0.1,), id="p0_negative"),
        pytest.param("p0plus_candidates", (math.inf,), id="p0_inf"),
        pytest.param("p0plus_candidates", (math.nan,), id="p0_nan"),
        pytest.param("k_candidates", (0.0, math.inf), id="k_inf"),
        pytest.param("k_candidates", (math.nan,), id="k_nan"),
    ])
    def test_start_candidates_checked_where_set(self, field, values):
        # a zero p(0+) candidate once failed only in sweep 1 of a solve, after
        # the start and the first moment table were built
        with pytest.raises(DomainError) as err:
            eh.SolverConfig(grid_n=64, **{field: values})
        assert err.value.field == field
        eh.SolverConfig(p0plus_candidates=(0.01,), k_candidates=(-0.5, 0.0))


class TestNecessaryConditionOde:
    def test_increasing_above_threshold(self, rf):
        # any K above -r(mean input rate) keeps the solution strictly rising
        phi = eh.ExactRateMoments(rf)
        for k in (-0.45, 0.0, 0.5):
            cfg = eh.SolverConfig(k_const=k, p0plus=0.05, grid_n=256)
            pol = eh.el_ode_solve(phi, hp_of(2.0), cfg)
            assert np.all(np.diff(pol.values[1:]) > 0.0)

    def test_stationary_solution_preserved(self, rf):
        # starting on the constant solution with the matching K stays there;
        # the flat profile sits exactly at the monotonicity threshold, so the
        # suboptimality warning fires
        phi = eh.ExactRateMoments(rf)
        cfg = eh.SolverConfig(k_const=-eh.rate(rf, 1.0), p0plus=1.0, grid_n=256)
        with pytest.warns(RuntimeWarning):
            pol = eh.el_ode_solve(phi, hp_of(2.0), cfg)
        assert np.max(np.abs(pol.values[1:] - 1.0)) < 1e-9

    def test_doubly_exponential_growth(self, rf):
        # log log p becomes affine in the level with slope near zeta
        phi = eh.ExactRateMoments(rf)
        cfg = eh.SolverConfig(k_const=0.0, p0plus=0.1, grid_n=512)
        pol = eh.el_ode_solve(phi, hp_of(5.5), cfg)
        x = pol.grid[1:]
        mask = x >= 0.9 * 5.5
        loglog = np.log(np.log(pol.values[1:][mask]))
        slope = np.polyfit(x[mask], loglog, 1)[0]
        assert slope == pytest.approx(1.0, rel=0.15)

    def test_decreasing_solution_warns(self, rf):
        phi = eh.ExactRateMoments(rf)
        cfg = eh.SolverConfig(k_const=-0.8, p0plus=2.0, grid_n=256)
        with pytest.warns(RuntimeWarning):
            pol = eh.el_ode_solve(phi, hp_of(1.0), cfg)
        assert np.any(np.diff(pol.values[1:]) < 0.0)

    def test_driven_to_zero_errors(self, rf):
        phi = eh.ExactRateMoments(rf)
        cfg = eh.SolverConfig(k_const=-3.0, p0plus=0.5, grid_n=256)
        with pytest.raises(NonAdmissibleTrajectoryError) as err:
            eh.el_ode_solve(phi, hp_of(3.0), cfg)
        assert err.value.where is not None

    def test_unbounded_battery_rejected(self, rf):
        phi = eh.ExactRateMoments(rf)
        cfg = eh.SolverConfig()
        with pytest.raises(UsageError):
            eh.el_ode_solve(phi, eh.HarvestParams(1.0, 1.0), cfg)

    @staticmethod
    def short_exact_table(rf, extensions):
        """Exact-rate moments on [0, 2] whose provider logs each extension's top."""
        def exact(knots):
            knots = np.asarray(knots, dtype=float)
            return (eh.rate(rf, knots), eh.rate_deriv(rf, knots, 1),
                    eh.rate_deriv(rf, knots, 2))

        def provider(knots):
            extensions.append(float(np.max(knots)))
            return exact(knots)

        q = np.linspace(0.0, 2.0, 9)
        return eh.PhiMoments(q, *exact(q), provider=provider)

    def test_repeated_overruns_extend_again(self, rf):
        # the first extension reaches 5.629 and the policy overruns it at
        # p = 5.637; a second extension, sized from that power, lets it solve
        extensions = []
        phi = self.short_exact_table(rf, extensions)
        cfg = eh.SolverConfig(k_const=2.0, p0plus=0.01, grid_n=64)
        pol = eh.el_ode_solve(phi, hp_of(0.5), cfg)
        assert len(extensions) == 2
        assert 2.0 < extensions[0] < pol.values[-1] <= extensions[1]

    def test_overrun_at_the_cap_propagates(self, rf, monkeypatch):
        extensions = []
        phi = self.short_exact_table(rf, extensions)
        monkeypatch.setattr(solver, "QMAX_CAP", 4.0)
        cfg = eh.SolverConfig(k_const=2.0, p0plus=0.01, grid_n=64)
        with pytest.raises(MomentRangeError) as err:
            eh.el_ode_solve(phi, hp_of(0.5), cfg)
        assert len(extensions) == 1
        assert 2.0 < extensions[0] <= 4.0 < err.value.argument

    def test_tabulated_moments_auto_extend(self, rf):
        # a tabulation that is too short gets extended once and succeeds
        hp = eh.HarvestParams(1.0, 1.0)
        pol0 = eh.constant_policy(2.0, 10.0, 128)
        meas0 = eh.measure_closed_form(pol0, hp)
        state = eh.SystemState(nodes=((hp, pol0, meas0), (hp, pol0, meas0)),
                               rate=rf)
        phi = eh.phi_moments(state, 0, np.linspace(0.0, 6.0, 49))
        cfg = eh.SolverConfig(k_const=0.0, p0plus=0.1, grid_n=128)
        pol = eh.el_ode_solve(phi, hp_of(2.0), cfg)
        assert pol.values[-1] > 6.0  # ran past the original knot range


class TestEulerLagrangeResidual:
    def test_converged_policy_satisfies_equation(self, rf, solves):
        report = solves.get(3.0, 0.0, 0.001, theta_tol=1e-5)
        pol, meas = report.policies[0], report.measures[0]
        hp = hp_of(3.0)
        state = eh.SystemState(nodes=((hp, pol, meas), (hp, pol, meas)), rate=rf)
        knots = np.unique(np.concatenate([
            np.linspace(0.0, 8.0, 161),
            np.geomspace(8.0, 2.0 * pol.values[-1], 200)]))
        phi = eh.phi_moments(state, 0, knots)
        levels, resid = eh.el_residual(pol, phi, hp, k_const=0.0)
        assert levels.size > 400
        assert np.max(np.abs(resid)) < 1e-3


def _terminal_g(report, hp, rf):
    """g(p(L)) = phi - p phi' at the top of node 0's converged policy.

    phi is node 0's coordinate moment table against the report's state.
    """
    pol, meas = report.policies[0], report.measures[0]
    top = float(pol.values[-1])
    state = eh.SystemState(nodes=((hp, pol, meas),) * 2, rate=rf)
    phi = eh.phi_moments(state, 0, solver._moment_knots(hp, rf, pol.p0plus, top))
    val, d1, _ = phi.eval3(top)
    return val - top * d1


class TestOptimalityCertificate:
    """The two ends of the stationarity identity (solver module docstring).

    The ODE keeps its bracket constant, so for any fixed K, with
    J_K = -K / zeta, U - J_K = (g(p(L)) - J_K) f(L) p(L) / lam; at the best
    constant g(p(L)) = U, the terminal condition.
    """

    @pytest.mark.parametrize("cap", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("k", [0.5, 0.0, -0.5])
    def test_top_of_battery_identity(self, solves, rf, cap, k):
        # converged table2 cells: gaps of 1.8e-6 to 1.3e-4
        hp = hp_of(cap)
        report = solves.get(cap, k, 0.001, theta_tol=1e-6)
        assert report.termination == "theta"
        j_k = -k / hp.zeta
        top = float(report.policies[0].values[-1])
        rhs = (_terminal_g(report, hp, rf) - j_k) * report.measures[0].density[-1] * top / hp.lam
        assert abs(report.utility - j_k - rhs) <= 2e-4

    @pytest.mark.parametrize("cap", [0.5, 1.0, 2.0])
    def test_terminal_residual_brackets_best_constant(self, solves, rf, cap):
        # the table2 scan's K* (-0.32, -0.46, -0.60) leaves residuals of
        # 0.001-0.007; K* -+ 0.05 leave residuals of opposite signs, over ten
        # times larger.  g(p(L)) - U alone cannot see the scale of K (a K
        # scaled inside the ODE moves K* but not the residual there), so the
        # residual against the equation's own J_K = -K / zeta is bracketed too.
        hp = hp_of(cap)
        cfg = eh.SolverConfig(p0plus=0.001, grid_n=512, theta_tol=0.01, max_outer=60)
        k_best, _, _ = eh.best_k_search(2, hp, rf, cfg, -1.0, 0.0, step=0.01,
                                        coarse_step=0.05)
        rows = []
        for k in (k_best - 0.05, k_best, k_best + 0.05):
            report = solves.get(cap, k, 0.001)
            g = _terminal_g(report, hp, rf)
            rows.append((g - report.utility, g + k / hp.zeta))
        for below, at, above in zip(*rows):
            assert below < 0.0 < above
            assert abs(at) < 0.1 * min(-below, above)


class TestSymmetricSolve:
    def test_matches_reference_utility(self, solves):
        report = solves.get(1.0, 0.0, 0.001)
        assert report.utility == pytest.approx(0.4217, abs=0.02)

    def test_termination_reason(self, solves):
        report = solves.get(1.0, 0.0, 0.001)
        assert report.termination == "theta"
        assert len(report.utilities) == report.sweeps + 1

    def test_divergence_guard_trips(self, rf):
        # an absurdly tight divergence budget turns the expected damped
        # oscillation into an error
        hp = hp_of(3.0)
        cfg = eh.SolverConfig(k_const=0.0, p0plus=0.001, grid_n=128,
                              theta_tol=1e-9, max_outer=40, divergence_tol=1e-9)
        with pytest.raises(SolverDivergenceError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                eh.solve_symmetric_mac(2, hp, rf, cfg)

    def test_infinite_battery_rejected(self, rf):
        with pytest.raises(UsageError):
            eh.solve_symmetric_mac(2, eh.HarvestParams(1.0, 1.0), rf,
                                   eh.SolverConfig())

    def test_reference_figure_configuration(self, solves):
        # the documented example configuration converges in around ten
        # iterations to a utility near 0.451
        report = solves.get(3.0, 0.0, 0.1, theta_tol=1e-4)
        assert report.utility == pytest.approx(0.4510, abs=0.02)
        assert report.sweeps <= 15

    def test_history_collection(self, rf):
        hp = hp_of(1.0)
        cfg = eh.SolverConfig(k_const=0.0, p0plus=0.1, grid_n=128,
                              theta_tol=0.05, max_outer=10, divergence_tol=0.05)
        report = eh.solve_symmetric_mac(2, hp, rf, cfg, keep_history=True)
        assert len(report.policy_history) == report.sweeps + 1

    def test_optimize_start_searches_shared_policy(self, rf):
        # the tied policy is updated like a Gauss-Seidel node: it takes the
        # best (p(0+), K) candidate and never drops below the incumbent
        hp = hp_of(2.0)
        cfg = eh.SolverConfig(k_const=0.0, p0plus=0.01, grid_n=128, theta_tol=1e-3,
                              max_outer=8, init_policy="constant",
                              p0plus_candidates=(0.005, 0.01, 0.05),
                              k_candidates=(-0.4, -0.2, 0.0), divergence_tol=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = eh.solve_symmetric_mac(2, hp, rf, cfg)
        trace = report.utilities
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        assert len(report.policies) == 1
        assert report.policies[0].p0plus in cfg.p0plus_candidates

    def test_search_skips_a_failing_candidate(self, rf, monkeypatch):
        # K = -1.5 drives the release rate to zero in both sweeps; the search
        # skips it and keeps K = 0's update, which beats the incumbent
        failed = []

        def recording(phi, params, cfg, ode=solver.el_ode_solve):
            try:
                return ode(phi, params, cfg)
            except NonAdmissibleTrajectoryError:
                failed.append(cfg.k_const)
                raise

        monkeypatch.setattr(solver, "el_ode_solve", recording)
        cfg = eh.SolverConfig(k_const=0.0, p0plus=0.01, grid_n=128, init_policy="constant",
                              k_candidates=(-1.5, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = eh.solve_symmetric_mac(2, hp_of(2.0), rf, cfg)
        assert failed == [-1.5, -1.5]
        assert report.utility > report.initial_utility
        trace = report.utilities
        assert all(b >= a for a, b in zip(trace, trace[1:]))


class TestGaussSeidel:
    def test_symmetric_agreement(self, rf):
        hp = hp_of(2.0)
        cfg = eh.SolverConfig(k_const=0.0, p0plus=0.01, grid_n=256,
                              theta_tol=1e-4, max_outer=40, divergence_tol=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sym = eh.solve_symmetric_mac(2, hp, rf, cfg)
            gs = eh.solve_mac_gauss_seidel([hp, hp], rf, cfg)
        assert gs.utility == pytest.approx(sym.utility, abs=1e-3)

    def test_single_node_reduces_to_ode(self, rf):
        hp = hp_of(3.0)
        cfg = eh.SolverConfig(k_const=0.0, p0plus=0.01, grid_n=256,
                              theta_tol=1e-4, divergence_tol=0.05)
        report = eh.solve_mac_gauss_seidel([hp], rf, cfg)
        direct = eh.el_ode_solve(eh.ExactRateMoments(rf), hp, cfg)
        assert np.array_equal(report.policies[0].values, direct.values)

    def test_asymmetric_below_bound(self, rf):
        nodes = [eh.HarvestParams(1.0, 1.0, 2.0), eh.HarvestParams(2.0, 1.0, 2.0)]
        cfg = eh.SolverConfig(k_const=0.0, p0plus=0.001, grid_n=256,
                              theta_tol=1e-3, max_outer=40, divergence_tol=0.05)
        report = eh.solve_mac_gauss_seidel(nodes, rf, cfg)
        assert report.utility <= eh.upper_bound_finite(nodes, rf)
        # regression anchor for the asymmetric configuration
        assert report.utility == pytest.approx(0.5739, abs=5e-3)

    def test_optimized_start_trace_monotone(self, rf):
        hp = hp_of(2.0)
        cfg = eh.SolverConfig(k_const=0.0, p0plus=0.01, grid_n=128,
                              theta_tol=1e-3, max_outer=8,
                              p0plus_candidates=(0.005, 0.01, 0.05),
                              k_candidates=(-0.2, 0.0, 0.2),
                              divergence_tol=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = eh.solve_mac_gauss_seidel([hp, hp], rf, cfg)
        trace = report.utilities
        assert all(b >= a - 1e-9 for a, b in zip(trace[1:], trace[2:]))

    def test_tightest_theta_tol_stops(self, rf):
        # the node order of the per-node tolerances must not matter
        hp = hp_of(2.0)
        sweeps = []
        for tols in ((0.5, 1e-6), (1e-6, 0.5)):
            cfgs = [eh.SolverConfig(grid_n=128, max_outer=20, theta_tol=t)
                    for t in tols]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                sweeps.append(eh.solve_mac_gauss_seidel([hp, hp], rf, cfgs).sweeps)
        assert sweeps[0] == sweeps[1] > 1

    def test_config_count_mismatch(self, rf):
        with pytest.raises(UsageError):
            eh.solve_mac_gauss_seidel([hp_of(1.0)], rf,
                                      [eh.SolverConfig(), eh.SolverConfig()])


# Solves recorded while the symmetric fixed point and the Gauss-Seidel sweep
# still had separate outer loops; the shared coordinate-ascent driver must
# reproduce them up to roundoff.  Policies are sampled at these grid indices,
# the history at its top node.
PIN_ROUNDOFF = 1e-9
PIN_SAMPLES = (1, 32, 96, -1)


def _pin_cfg(**kw):
    base = dict(k_const=0.0, p0plus=0.01, grid_n=256, theta_tol=0.01, max_outer=40)
    base.update(kw)
    return eh.SolverConfig(**base)


SOLVER_PINS = {
    "sym_m1": (
        lambda rf: eh.solve_symmetric_mac(1, hp_of(2.0), rf, _pin_cfg(k_const=-0.3)),
        {"utilities": [0.34454287783454846, 0.3479529176130882],
         "sweeps": 1, "termination": "theta",
         "policies": [[0.09698334684722933, 0.5851834159526702, 1.1611841683232926,
                       3.26182535945564]],
         "atoms": [0.21727755777962493], "history": []}),
    "sym_m2_history": (
        lambda rf: eh.solve_symmetric_mac(2, hp_of(3.0), rf,
                                          _pin_cfg(k_const=-0.5, p0plus=0.001),
                                          keep_history=True),
        {"utilities": [0.6626692290412168, 0.5874706816924298, 0.6173007237930855,
                       0.6073398480573711, 0.6107731116527488],
         "sweeps": 4, "termination": "theta",
         "policies": [[0.14577640424552826, 1.0051563167364983, 2.542673690146131,
                       31.152847202195236]],
         "atoms": [0.3225364606121764],
         "history": [3.001, 56.36144124169761, 25.915927718020182, 34.28102538040166,
                     31.152847202195236]}),
    "sym_m3": (
        lambda rf: eh.solve_symmetric_mac(3, hp_of(1.0), rf, _pin_cfg(max_outer=2)),
        {"utilities": [0.571785988175917, 0.5138871642335759, 0.5440819403919651],
         "sweeps": 2, "termination": "max_outer",
         "policies": [[0.1318703464518487, 1.022938924472449, 2.6447964238483537,
                       12.425927692007088]],
         "atoms": [0.6226133216311295], "history": []}),
    "gs_optimize_start": (
        lambda rf: eh.solve_mac_gauss_seidel(
            [hp_of(2.0), hp_of(2.0)], rf,
            _pin_cfg(grid_n=128, theta_tol=1e-3, max_outer=4, init_policy="constant",
                     divergence_tol=0.05,
                     p0plus_candidates=(0.005, 0.05), k_candidates=(-0.4, -0.2, 0.0))),
        {"utilities": [0.01428457609838545, 0.5711571748642734, 0.5711571748653914],
         "sweeps": 2, "termination": "theta",
         "policies": [[0.12807401747126715, 0.6609050442877199, 1.2635021151819181,
                       1.6000086237302407],
                      [0.20937904675182983, 1.7070356553153756, 6.642045427007749,
                       14.245891429110616]],
         "atoms": [0.1385359814409727, 0.4391319099699954], "history": []}),
    "gs_asymmetric": (
        lambda rf: eh.solve_mac_gauss_seidel([hp_of(1.0), hp_of(2.0, lam=2.0)], rf,
                                             _pin_cfg(p0plus=0.001, theta_tol=1e-3)),
        {"utilities": [0.6423812519965403, 0.553810859659769, 0.5630815325632281,
                       0.5634520401791867],
         "sweeps": 3, "termination": "theta",
         "policies": [[0.13921206342947312, 1.1058580748200393, 2.929210407678691,
                       14.701879289735686],
                      [0.21493872409261278, 1.9096620675527964, 6.712523701751924,
                       308.5160218055455]],
         "atoms": [0.6432713836789895, 0.40545450463645555], "history": []}),
}


@pytest.mark.parametrize("case", sorted(SOLVER_PINS))
def test_solver_outputs_pinned(case, rf):
    solve, want = SOLVER_PINS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = solve(rf)
    assert (report.sweeps, report.termination) == (want["sweeps"], want["termination"])
    got = {"utilities": report.utilities,
           "policies": [[pol.values[i] for i in PIN_SAMPLES] for pol in report.policies],
           "atoms": [meas.atom for meas in report.measures],
           "history": [pol.values[-1] for pol in report.policy_history]}
    for name, value in got.items():
        assert np.shape(value) == np.shape(want[name]), name
        np.testing.assert_allclose(value, want[name], rtol=PIN_ROUNDOFF, atol=0.0,
                                   err_msg=name)


def test_candidate_lists_alone_search(rf):
    # a non-empty candidate list is the search: the gs_optimize_start pin's
    # inputs reproduce its report, and each node keeps a listed p(0+)
    lists = dict(p0plus_candidates=(0.005, 0.05), k_candidates=(-0.4, -0.2, 0.0))
    cfg = _pin_cfg(grid_n=128, theta_tol=1e-3, max_outer=4, init_policy="constant",
                   divergence_tol=0.05, **lists)
    want = SOLVER_PINS["gs_optimize_start"][1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = eh.solve_mac_gauss_seidel([hp_of(2.0), hp_of(2.0)], rf, cfg)
    assert (report.sweeps, report.termination) == (want["sweeps"], want["termination"])
    np.testing.assert_allclose(report.utilities, want["utilities"], rtol=PIN_ROUNDOFF,
                               atol=0.0)
    assert all(pol.p0plus in lists["p0plus_candidates"] for pol in report.policies)
    assert report.initial_utility == report.utilities[0]
    # an empty list stands for the config's own value
    one_k = replace(cfg, k_const=-0.2, k_candidates=())

    def solve(c):
        return lambda: eh.solve_mac_gauss_seidel([hp_of(2.0), hp_of(2.0)], rf, c)

    assert (_report_digest(solve(one_k))
            == _report_digest(solve(replace(one_k, k_candidates=(-0.2,)))))


def _short_table_phi(rf):
    """Moments of a two-node state tabulated only up to power 6."""
    hp = eh.HarvestParams(1.0, 1.0)
    pol = eh.constant_policy(2.0, 10.0, 128)
    meas = eh.measure_closed_form(pol, hp)
    state = eh.SystemState(nodes=((hp, pol, meas), (hp, pol, meas)), rate=rf)
    return eh.phi_moments(state, 0, np.linspace(0.0, 6.0, 49))


# el_ode_solve outputs as float.hex, recorded before the integrator moved to
# one right-hand side on plain floats; its arithmetic must not change by a bit.
# The two extend cases were re-recorded when the moment sums took each node's
# atom as a zero-power point of its law: their tables moved by at most 1e-15
# relative, and the samples by at most 7e-15.  They were re-recorded again
# when the moment sums moved to arguments in units of n0 with the constants
# applied after the reduction: the samples moved by at most 4.3e-15 (extend)
# and 4.3e-14 (extend_log_p) relative.  They were re-recorded a third time
# when the sums became Laplace integrals of products of per-law transforms:
# the samples moved by at most 4.1e-15 (extend) and 4.3e-14 (extend_log_p).
# Each case: (moments, capacity, K, p(0+)) and the samples at ODE_PIN_SAMPLES.
ODE_PIN_SAMPLES = (1, 2, 16, 64, 100, -1)
ODE_PINS = {
    "y_only": (eh.ExactRateMoments, 2.0, -0.3, 0.05, [
        "0x1.2b4709b8fb15fp-3", "0x1.9cfec428f546ep-3", "0x1.2cfb92fb06b49p-1",
        "0x1.74dc3c243bfa7p+0", "0x1.246b1f6add4edp+1", "0x1.a23e6d21d5d66p+1"]),
    "log_p": (eh.ExactRateMoments, 5.5, 0.0, 0.1, [
        "0x1.6270a372c3141p-2", "0x1.0140738588a3fp-1", "0x1.2e183f91c4313p+1",
        "0x1.90bd864e7f6a5p+8", "0x1.3e2ba93dc6e65p+35", "0x1.307bcc0d3ebf9p+114"]),
    "extend": (_short_table_phi, 2.0, 0.0, 0.1, [
        "0x1.474b401585cb7p-2", "0x1.daa7a93988d54p-2", "0x1.f976ae32f1da1p+0",
        "0x1.c60a0f364dbb6p+3", "0x1.2adbe2ac000b6p+6", "0x1.f12316365e11ap+8"]),
    "extend_log_p": (_short_table_phi, 4.0, 0.0, 0.1, [
        "0x1.daa19acd8229fp-2", "0x1.67a3ef7b48712p-1", "0x1.0995a1880ef4fp+2",
        "0x1.f12124a925f78p+8", "0x1.8b48cf67d73a7p+24", "0x1.0a90bd75330c8p+57"]),
}


@pytest.mark.parametrize("case", sorted(ODE_PINS))
def test_integrator_bits_pinned(case, rf):
    moments, cap, k, p0, want = ODE_PINS[case]
    phi = moments(rf)
    pol = eh.el_ode_solve(phi, hp_of(cap), eh.SolverConfig(k_const=k, p0plus=p0,
                                                          grid_n=128))
    top = float(np.max(pol.values))
    # the state hands over from p**2 to log p once p passes 1e3 (lam = zeta = 1)
    assert (top > 1e3) == case.endswith("log_p")
    # the extension retry ran: the policy left the original knot range (the
    # exact lone-node moments have no knots)
    assert (isinstance(phi, eh.PhiMoments) and top > phi.qmax) == case.startswith("extend")
    assert [float(pol.values[i]).hex() for i in ODE_PIN_SAMPLES] == want


class TestConstantPolicyStats:
    def test_unit_parameters(self):
        atom, mean, var = eh.constant_policy_stats(eh.HarvestParams(1.0, 1.0), 1.0)
        assert (atom, mean, var) == (0.5, 1.0, 1.0)

    def test_vanishing_excess(self):
        atom, mean, var = eh.constant_policy_stats(eh.HarvestParams(1.0, 1.0), 1e-12)
        assert atom == pytest.approx(0.0, abs=1e-11)
        assert var == pytest.approx(0.0, abs=1e-11)

    def test_asymmetric_values(self):
        atom, mean, var = eh.constant_policy_stats(eh.HarvestParams(2.0, 1.0), 0.5)
        assert atom == pytest.approx(0.2)
        assert mean == pytest.approx(2.0)
        assert var == pytest.approx(1.0)

    def test_preconditions(self):
        with pytest.raises(UsageError):
            eh.constant_policy_stats(eh.HarvestParams(1.0, 1.0, 2.0), 1.0)
        with pytest.raises(DomainError):
            eh.constant_policy_stats(eh.HarvestParams(1.0, 1.0), 0.0)


class TestBestKSearch:
    def test_narrow_search_brackets_reference(self, rf):
        hp = hp_of(1.0)
        cfg = eh.SolverConfig(p0plus=0.001, grid_n=256, theta_tol=0.01,
                              max_outer=40, divergence_tol=0.05)
        k_best, u_best, table = eh.best_k_search(2, hp, rf, cfg, -0.6, -0.2,
                                                 step=0.02, coarse_step=0.1)
        assert -0.6 <= k_best <= -0.2
        assert u_best == pytest.approx(max(u for _, u in table))
        assert u_best <= eh.upper_bound_finite([hp, hp], rf)

    @pytest.mark.parametrize("cap", [1.0, 3.0])
    def test_best_constant_is_minus_zeta_utility(self, rf, cap):
        # stationarity of J = N/D makes K = -zeta J at the optimum (see the
        # solver module docstring); the paper's own L = 3 pair
        # (K*, U*) = (-0.67, 0.6654) meets it to 0.005
        hp = hp_of(cap)
        cfg = eh.SolverConfig(p0plus=0.001, grid_n=512, theta_tol=0.01,
                              max_outer=60, divergence_tol=0.05)
        k_best, u_best, _ = eh.best_k_search(2, hp, rf, cfg, -1.0, -0.3,
                                             step=0.01, coarse_step=0.05)
        assert abs(k_best + hp.zeta * u_best) <= 0.01, f"K*={k_best} U*={u_best}"

    def test_flat_scan(self, rf):
        hp = hp_of(0.5)
        cfg = eh.SolverConfig(p0plus=0.01, grid_n=128, theta_tol=0.02,
                              max_outer=20, divergence_tol=0.05)
        _, _, table = eh.best_k_search(2, hp, rf, cfg, -0.2, 0.0, step=0.1,
                                       coarse_step=None)
        assert len(table) == 3

    def test_bad_interval(self, rf):
        with pytest.raises(DomainError):
            eh.best_k_search(2, hp_of(1.0), rf, eh.SolverConfig(), 0.5, -0.5)

    def test_long_scan_rejected_before_any_grid(self):
        # 2e13 planned solves: the coarse np.arange alone would need 146 TiB
        with mock.patch.object(np, "arange", side_effect=AssertionError("grid built")), \
                mock.patch.object(solver, "solve_symmetric_mac",
                                  side_effect=AssertionError("solve started")):
            with pytest.raises(DomainError, match="cap") as err:
                eh.best_k_search(2, eh.HarvestParams(1, 1, 1), eh.RateFunction(1),
                                 eh.SolverConfig(grid_n=64), -1e12, 0.0)
        assert err.value.field == "step"

    @pytest.mark.parametrize("k_min, k_max, step, coarse", [
        (-1.0, 0.0, 0.01, 0.05), (-0.6, -0.2, 0.02, 0.1), (-0.2, 0.0, 0.1, None),
        (-3.0, 0.5, 0.07, 0.01), (0.0, 99.9, 0.01, None)])
    def test_planned_solves_are_the_grid_lengths(self, k_min, k_max, step, coarse):
        # the coarse grid plus a whole refined bracket: an upper bound on
        # the solves, since the refinement skips K values already solved
        if coarse is None or coarse <= step:
            want = len(np.arange(k_min, k_max + 0.5 * step, step))
        else:
            span = min(k_max - k_min, 2 * coarse)
            want = (len(np.arange(k_min, k_max + 0.5 * coarse, coarse))
                    + len(np.arange(0.0, span + 0.5 * step, step)))
        assert solver.check_k_scan(k_min, k_max, step, coarse) == want

    def test_scan_cap(self):
        assert solver.K_SCAN_CAP == 10_000
        assert solver.check_k_scan(0.0, 0.9999, 1e-4, None) == 10_000
        with pytest.raises(DomainError, match="10001 solves"):
            solver.check_k_scan(0.0, 1.0, 1e-4, None)
        with pytest.raises(DomainError, match="inf solves"):
            solver.check_k_scan(-1e308, 1e308, 1e-300, None)

    @pytest.mark.parametrize("bounds, steps", [
        ((-math.inf, 0.0), (0.01, 0.05)), ((-1.0, math.inf), (0.01, 0.05)),
        ((-1.0, 0.0), (math.inf, 0.05)), ((-1.0, 0.0), (math.nan, 0.05)),
        ((-1.0, 0.0), (0.01, math.nan)), ((-1.0, 0.0), (0.01, math.inf))])
    def test_non_finite_range_rejected(self, rf, bounds, steps):
        with pytest.raises(DomainError, match="finite"):
            eh.best_k_search(2, hp_of(1.0), rf, eh.SolverConfig(), *bounds,
                             step=steps[0], coarse_step=steps[1])


def _report_digest(solve):
    """Everything a solve reports, floats by ``float.hex``; or its error type."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = solve()
    except EhmacError as err:  # the error type is part of the output
        return type(err).__name__

    def hexes(values):
        return [float(v).hex() for v in values]

    return (hexes(rep.utilities), rep.sweeps, rep.termination,
            [hexes(pol.values) for pol in rep.policies],
            [hexes([meas.atom, *meas.density]) for meas in rep.measures],
            [hexes(pol.values) for pol in rep.policy_history])


def _sym_history(rf, k):
    return eh.solve_symmetric_mac(2, hp_of(2.0), rf, _pin_cfg(k_const=k, p0plus=0.001),
                                  keep_history=True)


def _gs_optimize_start(rf, k):
    """The ``gs_optimize_start`` pin's solve with the constant set to k."""
    return eh.solve_mac_gauss_seidel(
        [hp_of(2.0), hp_of(2.0)], rf,
        _pin_cfg(k_const=k, grid_n=128, theta_tol=1e-3, max_outer=4, init_policy="constant",
                 divergence_tol=0.05,
                 p0plus_candidates=(0.005, 0.05), k_candidates=(-0.4, -0.2, 0.0)))


def _gs_three_nodes(rf, k):
    nodes = [hp_of(1.0), hp_of(1.7, lam=1.5), hp_of(2.5, zeta=1.5)]
    return eh.solve_mac_gauss_seidel(nodes, rf, _pin_cfg(k_const=k, grid_n=128,
                                                         theta_tol=1e-3))


# One capacity's K list per case; the symmetric one meets both error types.
SHARED_START_CASES = {
    "sym_history": (_sym_history, (0.5, 0.0, -0.5, -0.7, -0.8)),
    "gs_optimize_start": (_gs_optimize_start, (0.0, -0.2, 0.3)),
    "gs_three_nodes": (_gs_three_nodes, (0.0, -0.3, -0.5)),
}


class TestSharedStart:
    """The start a K list shares changes no output of any of its solves."""

    @pytest.mark.parametrize("case", sorted(SHARED_START_CASES))
    def test_cold_and_warm_starts_agree(self, case, rf):
        solve_at, ks = SHARED_START_CASES[case]
        solves = [lambda k=k: solve_at(rf, k) for k in ks]
        cold = []
        for solve in solves:
            solver._start.cache_clear()
            cold.append(_report_digest(solve))
        solver._start.cache_clear()
        warm = [_report_digest(solve) for solve in reversed(solves)][::-1]
        assert solver._start.cache_info().hits == len(solves) - 1
        assert warm == cold

    def test_scan_tabulates_the_start_once(self, rf):
        # 29 solves that differ only in K: every sweep of every solve
        # tabulates the moments once, except sweep 1 of the 28 that share
        # the first solve's start
        reports, calls = [], []
        solve, tabulate = solver.solve_symmetric_mac, solver.phi_moments

        def keep(*args, **kwargs):
            reports.append(solve(*args, **kwargs))
            return reports[-1]

        def count(*args, **kwargs):
            calls.append(1)
            return tabulate(*args, **kwargs)

        cfg = eh.SolverConfig(p0plus=0.001, grid_n=128)
        solver._start.cache_clear()
        with mock.patch.object(solver, "solve_symmetric_mac", keep), \
                mock.patch.object(solver, "phi_moments", count):
            _, _, table = eh.best_k_search(2, hp_of(1.0), rf, cfg, -0.7, 0.0,
                                           step=0.025, coarse_step=None)
        assert len(table) == len(reports) == 29
        assert len(calls) == sum(rep.sweeps for rep in reports) - 28

    def test_shared_arrays_are_read_only(self, rf):
        hp = hp_of(1.0)
        cfg = _pin_cfg(grid_n=128, max_outer=3)

        def run():
            return eh.solve_symmetric_mac(2, hp, rf, cfg, keep_history=True)

        solver._start.cache_clear()
        first = run()
        policies, measures, _, phi = solver._start((hp, hp), rf, ((128, 0.01, "linear"),))
        assert first.policy_history[0] is policies[0]
        targets = [first.policy_history[0].values, first.policies[0].grid,
                   measures[0].density, measures[0].cell_masses, phi.phi, phi.q]
        for arr in targets:
            with pytest.raises(ValueError):
                arr[1] = 1.0
        second = run()
        assert second.policies[0].grid is first.policies[0].grid
        assert second.measures[0].grid is first.policies[0].grid
        assert _report_digest(run) == _report_digest(lambda: first)
