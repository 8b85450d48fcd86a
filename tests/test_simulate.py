import importlib
import json
import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ehmac as eh
from ehmac.arrivals import sample_arrivals
from ehmac.errors import DomainError
from ehmac.grids import PolicyInterp, power_cells, uniform_grid
from ehmac.rates import rate

sim = importlib.import_module("ehmac.simulate")


def exp_dist(zeta=1.0):
    return eh.PacketDistribution.exponential(zeta)


def constant_setup(level=2.0, capacity=math.inf, span=12.0, n=128):
    hp = eh.HarvestParams(1.0, 1.0, capacity)
    pol = eh.constant_policy(level, span if math.isinf(capacity) else capacity, n)
    return hp, pol


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            eh.SimConfig(horizon=10.0, burn_in=10.0)
        with pytest.raises(DomainError):
            eh.SimConfig(horizon=10.0, replications=0)
        with pytest.raises(DomainError):
            eh.SimConfig(horizon=-1.0)
        with pytest.raises(DomainError):
            eh.SimConfig(horizon=math.inf)

    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_replications_must_be_an_integer(self, value):
        with pytest.raises(DomainError, match="replications must be an integer") as err:
            eh.SimConfig(horizon=50.0, replications=value)
        assert err.value.field == "replications"

    @pytest.mark.parametrize("value", [1.5, True, 1.0])
    def test_seed_must_be_an_integer(self, value):
        with pytest.raises(DomainError, match="seed must be an integer") as err:
            eh.SimConfig(horizon=50.0, seed=value)
        assert err.value.field == "seed"

    @pytest.mark.parametrize("burn_in", [math.inf, -math.inf, math.nan])
    def test_non_finite_burn_in_names_burn_in(self, burn_in):
        # an infinite burn-in was blamed on the horizon
        with pytest.raises(DomainError, match="burn-in must be finite") as err:
            eh.SimConfig(horizon=10.0, burn_in=burn_in)
        assert err.value.field == "burn_in"

    def test_numpy_integers_accepted(self):
        cfg = eh.SimConfig(horizon=50.0, replications=np.int64(2), seed=np.uint32(7))
        assert (cfg.replications, cfg.seed) == (2, 7)

    def test_numpy_counts_give_a_json_record(self, rf):
        hp, pol = constant_setup(level=2.0)
        cfg = eh.SimConfig(horizon=200.0, replications=np.int64(2), seed=np.uint32(7))
        record = json.loads(json.dumps(eh.simulate([(hp, pol, exp_dist())], rf,
                                                   cfg).to_record()))
        assert record["replications"] == 2 and record["window"] == 200.0


class TestDepletionMap:
    def test_constant_drain_is_linear(self):
        _, pol = constant_setup(level=2.0)
        interp = pol.interp(extend=True)
        # levels inside the grid (span 12) and beyond it, read at the top value
        for x0 in (0.3, 1.7, 5.0, 11.9, 20.0):
            assert interp.tau(x0) == pytest.approx(0.5 * x0, rel=1e-12)
            for t in (0.05, 0.4, 3.0):
                left = interp.tau(x0) - t
                level = interp.tau_inverse(left) if left > 0.0 else 0.0
                assert level == pytest.approx(max(x0 - 2.0 * t, 0.0), abs=1e-8)

    def test_tau_roundtrip(self):
        pol = eh.policy_from_function(lambda x: 0.3 + x * x, 4.0, 256)
        interp = pol.interp()
        levels = np.linspace(0.01, 4.0, 57)
        assert interp.tau_inverse(interp.tau(levels)) == pytest.approx(levels,
                                                                       abs=1e-10)

    def test_power_integral_matches_quadrature(self):
        pol = eh.policy_from_function(lambda x: 0.5 + np.sin(x) ** 2, 3.0, 512)
        interp = pol.interp()
        grid = np.linspace(0.0, 3.0, 20_001)
        brute = np.trapezoid(interp.value(np.maximum(grid, 1e-12)), grid)
        assert interp.power_integral(3.0) == pytest.approx(float(brute), rel=1e-6)


# adjacent rates a millionfold apart either way, and everything in between
steep_rates = st.one_of(st.just(1e-3), st.just(1e3),
                        st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))


@st.composite
def steep_policies(draw):
    """An unordered policy whose neighbouring rates may differ a millionfold."""
    n = draw(st.integers(1, 16))
    p = draw(st.lists(steep_rates, min_size=n + 1, max_size=n + 1))
    return eh.PolicyGrid(uniform_grid(draw(st.floats(0.1, 20.0)), n),
                         np.asarray([0.0] + p[1:]), p0plus=p[0])


def exact_value(x, p, level):
    """p at a float level from exact rationals: p**2 linear in the cell."""
    i = min(max(bisect_right(x, level) - 1, 0), len(x) - 2)
    x0, x1, p0, p1 = (Fraction(v) for v in (x[i], x[i + 1], p[i], p[i + 1]))
    return math.sqrt(p0 * p0 + (p1 * p1 - p0 * p0) * (Fraction(level) - x0) / (x1 - x0))


class TestPolicyValue:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(steep_policies(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_value_exact_on_steep_cells(self, policy, fracs):
        # read from the lower-rate node, p**2 + b*dv never cancels; from the
        # left node a steeply falling cell lost up to about 3e-5 relative
        interp = policy.interp()
        levels = np.concatenate((np.asarray(fracs) * interp.x[-1], interp.x[1:]))
        want = [exact_value(interp.x.tolist(), interp.p.tolist(), v) for v in levels.tolist()]
        np.testing.assert_allclose(interp.value(levels), want, rtol=1e-14, atol=0.0)

    def test_span_tolerance(self):
        # check_admissible admits a capacity 5e-10 * L beyond the grid, so a full
        # battery reads tau's top branch; the rows are those recorded when
        # the walk had its own copy of that branch
        span = 2.0
        capacity = span * (1.0 + 5e-10)
        interp = eh.policy_from_function(lambda x: 0.2 + x * x, span, 64).interp()
        times, energies = sample_arrivals(eh.HarvestParams(1.0, 1.0, capacity), exp_dist(),
                                          200.0, 17)
        run = assert_walks_identical(interp, capacity, times, energies, 0.0, 200.0)
        assert np.count_nonzero(run.seg_level == capacity) == 69
        assert math.fsum(run.seg_tau) == 560.4132141861422
        assert math.fsum(run.seg_level) == 290.8751895841143
        assert math.fsum(run.seg_end_level) == 139.27084909579943
        beyond = span * (1.0 + 2e-9)
        for reader in (interp.tau, interp.value, interp.power_integral):
            with pytest.raises(DomainError, match="beyond the policy grid"):
                reader(beyond)


@st.composite
def admissible_interps(draw):
    """A random admissible policy, read finite or extended beyond its grid.

    Rising policies span p in [0.01, 10] and unordered ones [0.5, 2].  Over
    wider spans the comparison is ill-conditioned, not one side of it wrong:
    on a cell where p falls a millionfold, value(tau_inverse(tau)) amplifies
    the roundoff of tau, and np.interp over the rounded tau nodes is itself
    off by up to 2e-4 against exact rationals, while value alone is exact to
    a few ulps (``TestPolicyValue``).
    """
    n = draw(st.integers(1, 48))
    capacity = draw(st.floats(0.1, 20.0))
    if draw(st.booleans()):
        p = sorted(draw(st.lists(st.floats(0.01, 10.0), min_size=n + 1, max_size=n + 1)))
    else:
        p = draw(st.lists(st.floats(0.5, 2.0), min_size=n + 1, max_size=n + 1))
    policy = eh.PolicyGrid(uniform_grid(capacity, n), np.asarray([0.0] + p[1:]),
                           p0plus=p[0])
    return policy.interp(extend=draw(st.booleans()))


class TestDrainTimeIdentity:
    """The release rate is linear in drain time inside each p**2-linear cell."""

    @staticmethod
    def _span(interp):
        top = interp.tau_nodes[-1]
        return (1.5 * top if interp.extend else top), (1.5 if interp.extend else 1.0) * interp.x[-1]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(admissible_interps(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_interp_in_drain_time_equals_value_of_level(self, interp, fracs):
        tau_span, _ = self._span(interp)
        tau = np.concatenate((np.asarray(fracs) * tau_span, interp.tau_nodes))
        tau = tau[tau <= tau_span]
        fast = np.interp(tau, interp.tau_nodes, interp.p)
        reference = interp.value(interp.tau_inverse(tau))
        np.testing.assert_allclose(fast, reference, rtol=1e-12, atol=0.0)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(admissible_interps(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40))
    def test_round_trip_and_monotone_drains(self, interp, fracs):
        tau_span, level_span = self._span(interp)
        u = np.sort(np.asarray(fracs))
        tau, levels = u * tau_span, u * level_span
        assert np.max(np.abs(interp.tau(interp.tau_inverse(tau)) - tau)) <= 1e-12 * tau_span
        assert np.max(np.abs(interp.tau_inverse(interp.tau(levels)) - levels)) <= \
            1e-11 * level_span
        # every map is monotone exactly, not just up to roundoff
        assert np.all(np.diff(interp.tau(levels)) >= 0.0)
        assert np.all(np.diff(interp.tau_inverse(tau)) >= 0.0)


# Gauss-Legendre panels on [0, 1] whose breaks crowd geometrically toward both
# ends, where the rate of a p**2-linear cell can grow like sqrt(v - v0)
_GL_S, _GL_W = np.polynomial.legendre.leggauss(16)
_BREAKS = np.concatenate(([0.0], np.geomspace(1e-12, 0.1, 12), [0.5],
                          1.0 - np.geomspace(0.1, 1e-12, 12), [1.0]))
_HALF = 0.5 * np.diff(_BREAKS)
_PANEL_U = (_BREAKS[:-1, None] + _HALF[:, None] * (_GL_S + 1.0)).ravel()
_PANEL_W = (_HALF[:, None] * _GL_W).ravel()


def quadrature_drain_integral(interp, g, levels):
    """Brute-force integral of g(value(v)) over (0, level]: panels per cell."""
    def pieces(a, c):
        v = a[:, None] + (c - a)[:, None] * _PANEL_U
        return (g(interp.value(v)) @ _PANEL_W) * (c - a)

    x = interp.x
    k = np.searchsorted(x, levels, side="right") - 1
    whole = np.concatenate(([0.0], np.cumsum(pieces(x[:-1], x[1:]))))
    return whole[k] + pieces(x[k], levels)


class TestDrainIntegral:
    """Both cell rules integrate g(p(v)) in closed form up to any level."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(interp=st.one_of(admissible_interps(),
                            steep_policies().map(lambda pol: pol.interp())),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_matches_quadrature(self, interp, fracs, rf):
        # levels on every node (an empty partial cell) and, when extended,
        # half the span above the top node; atol only covers subnormal
        # levels, where the quadrature's panel products underflow
        top = interp.x[-1]
        levels = np.concatenate((np.asarray(fracs) * top, interp.x,
                                 [1.5 * top] if interp.extend else []))
        p = interp.p
        power = interp.drain_integral(levels, power_cells, p[-1])
        assert np.array_equal(power, interp.power_integral(levels))
        np.testing.assert_allclose(
            power, quadrature_drain_integral(interp, lambda q: q, levels),
            rtol=1e-12, atol=1e-300)
        # the rate rule is within a few 1e-16 of mpmath on a cell from p = 1e-3
        # to 1e3, where the panel quadrature itself is off by 1.2e-11
        bits = interp.drain_integral(levels, sim._rate_cells(rf), rate(rf, p[-1]) / p[-1])
        np.testing.assert_allclose(
            bits, quadrature_drain_integral(interp, lambda q: rate(rf, q) / q, levels),
            rtol=2e-11, atol=1e-300)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(p0=st.floats(1e-6, 1e3), ratio=st.one_of(st.floats(1e-6, 1e6),
                                                     st.floats(1.0 - 1e-3, 1.0 + 1e-3)),
           dx=st.floats(1e-3, 10.0), n0=st.sampled_from([0.1, 1.0, 10.0]))
    def test_rate_cells_match_exact_reference(self, p0, ratio, dx, n0):
        # the cell integral 2 (R(p1) - R(p0)) / b at 50 digits; differencing
        # R in floats was off by up to 2.5e-7 relative at p = 1e-3
        mpmath = pytest.importorskip("mpmath")
        p1 = p0 * ratio
        with mpmath.workdps(50):
            a, b, w, n = (mpmath.mpf(v) for v in (p0, p1, dx, n0))
            if a == b:
                want = w * mpmath.log(1 + a / n) / (2 * mpmath.log(2) * a)
            else:
                big_r = lambda q: ((n + q) * mpmath.log(1 + q / n) - q) / (2 * mpmath.log(2))
                want = 2 * (big_r(b) - big_r(a)) * w / (b * b - a * a)
            want = float(want)
        got = float(sim._rate_cells(eh.RateFunction(n0))(np.array([p0]), np.array([p1]),
                                                         np.array([dx]))[0])
        assert got == pytest.approx(want, rel=1e-11, abs=0.0)


# Seeded runs recorded with the level-space joint-rate kernel (value of
# tau_inverse per sample) and the per-arrival segment walk; the drain-time
# kernel and the recursion-only walk must reproduce them up to roundoff.
PIN_ROUNDOFF = 1e-9


def _pin_pair():
    finite = eh.HarvestParams(1.0, 1.0, 2.0)
    unbounded = eh.HarvestParams(1.5, 1.0, math.inf)
    nodes = [(finite, eh.policy_from_function(lambda x: 0.2 + x * x, 2.0, 64), exp_dist()),
             (unbounded, eh.policy_from_function(lambda x: 0.2 + 0.5 * x, 6.0, 48),
              exp_dist())]
    cfg = eh.SimConfig(horizon=600.0, replications=2, seed=11, burn_in=25.0)
    return nodes, cfg


def _pin_single():
    hp = eh.HarvestParams(1.0, 1.0, 3.0)
    nodes = [(hp, eh.policy_from_function(lambda x: 0.5 + 0.8 * x, 3.0, 256),
              eh.PacketDistribution.tabulated([0.0, 2.0], [0.0, 1.0]))]
    cfg = eh.SimConfig(horizon=3000.0, replications=2, seed=5, burn_in=10.0,
                       level_probes=(0.5, 1.0, 2.0))
    return nodes, cfg


PIN_CASES = {
    "pair": (_pin_pair, {
        "throughput": 0.7917723786384492, "throughput_se": 0.010489189441790723,
        "atom": [0.10048905213863596, 0.009311190971520772],
        "mean_power": [0.7213188961557377, 1.4624383348654542],
        "power_variance": [0.6109538361964063, 0.6193186005061053],
        "overflow_rate": [0.28403950512805365, 0.0],
        "cdf": [[0.2971417387569155, 0.5229662756447828, 0.7032800551308567,
                 0.8214359169280091, 0.8968396606978006, 0.947101319842058,
                 0.9790512634336039, 1.0000000000000258],
                [0.19446552290264094, 0.5043365469016174, 0.7328575772299404,
                 0.8626755033368995, 0.9359413391296, 0.9679190671865641,
                 0.9839340442484017, 0.9912408044728028]],
        "down_rate": [[], []], "up_rate": [[], []]}),
    "single": (_pin_single, {
        "throughput": 0.4257998585634636, "throughput_se": 0.004012088523215468,
        "atom": [0.2528740237842981], "mean_power": [0.9482729577533074],
        "power_variance": [0.5428739947258503],
        "overflow_rate": [0.05588207247843413],
        "cdf": [[0.43798849147783436, 0.5982186411103456, 0.7303683404861825,
                 0.8341069814993649, 0.9067833321088059, 0.9530412293856043,
                 0.9822532514696065, 0.999999999999978]],
        "down_rate": [[0.39966555183946484, 0.44581939799331105, 0.2747491638795987]],
        "up_rate": [[0.39983277591973243, 0.44581939799331105, 0.2747491638795987]]}),
}


@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_seeded_digest_pinned(case, rf):
    build, want = PIN_CASES[case]
    nodes, cfg = build()
    stats = eh.simulate(nodes, rf, cfg)
    for name in ("throughput", "throughput_se", "atom", "mean_power", "power_variance",
                 "overflow_rate", "down_rate", "up_rate"):
        np.testing.assert_allclose(getattr(stats, name), want[name], rtol=PIN_ROUNDOFF,
                                   atol=0.0, err_msg=name)
    # the pinned CDF was read on 8 levels per node: every 32nd of the 256
    np.testing.assert_allclose(stats.cdf[:, 31::32], want["cdf"], rtol=PIN_ROUNDOFF,
                               atol=0.0, err_msg="cdf")


class TestSimulate:
    def test_reproducible_bit_identical(self, rf):
        hp, pol = constant_setup()
        cfg = eh.SimConfig(horizon=500.0, replications=2, seed=5, burn_in=10.0,
                           level_probes=(1.0,))
        a = eh.simulate([(hp, pol, exp_dist())], rf, cfg)
        b = eh.simulate([(hp, pol, exp_dist())], rf, cfg)
        assert a.throughput == b.throughput
        assert np.array_equal(a.cdf, b.cdf)
        assert np.array_equal(a.down_count, b.down_count)

    def test_no_arrivals_drains_and_idles(self, rf):
        hp = eh.HarvestParams(0.0, 1.0, 3.0)
        pol = eh.constant_policy(1.0, 3.0, 64)
        cfg = eh.SimConfig(horizon=50.0, seed=1)
        stats = eh.simulate([(hp, pol, exp_dist())], rf, cfg)
        assert stats.atom[0] == pytest.approx(1.0)
        assert stats.throughput == pytest.approx(0.0)

    def test_constant_policy_stats_match(self, rf):
        hp, pol = constant_setup(level=2.0)
        cfg = eh.SimConfig(horizon=2e4, replications=4, seed=3, burn_in=50.0)
        stats = eh.simulate([(hp, pol, exp_dist())], rf, cfg)
        atom, mean, var = eh.constant_policy_stats(hp, 1.0)
        assert abs(stats.atom[0] - atom) <= 4.0 * stats.atom_se[0]
        assert abs(stats.mean_power[0] - mean) <= 4.0 * stats.mean_power_se[0]
        assert abs(stats.power_variance[0] - var) <= 5e-3

    def test_occupancy_cdf_matches_measure(self, rf):
        hp, pol = constant_setup(level=2.0)
        meas = eh.measure_closed_form(pol, hp)
        cfg = eh.SimConfig(horizon=5e4, replications=2, seed=9, burn_in=50.0)
        stats = eh.simulate([(hp, pol, exp_dist())], rf, cfg)
        analytic = np.interp(stats.cdf_levels[0], meas.grid, meas.cdf())
        assert np.max(np.abs(stats.cdf[0] - analytic)) < 0.01

    def test_finite_battery_overflow_tracked(self, rf):
        hp = eh.HarvestParams(1.0, 1.0, 1.0)
        pol = eh.constant_policy(1.0, 1.0, 64)
        cfg = eh.SimConfig(horizon=2000.0, seed=4, burn_in=10.0)
        stats = eh.simulate([(hp, pol, exp_dist())], rf, cfg)
        assert stats.overflow_rate[0] > 0.0
        # energy balance: input = radiated + overflow + residual charge
        assert stats.mean_power[0] + stats.overflow_rate[0] == pytest.approx(
            1.0, abs=0.05)

    def test_throughput_matches_stationary_expectation(self, rf):
        hp, pol = constant_setup(level=2.0)
        cfg = eh.SimConfig(horizon=2e4, replications=4, seed=8, burn_in=50.0)
        stats = eh.simulate([(hp, pol, exp_dist())], rf, cfg)
        expected = 0.5 * eh.rate(rf, 2.0)
        assert abs(stats.throughput - expected) <= 5.0 * stats.throughput_se

    def test_two_node_throughput(self, rf):
        hp, pol = constant_setup(level=2.0)
        meas = eh.measure_closed_form(pol, hp)
        state = eh.SystemState(nodes=((hp, pol, meas), (hp, pol, meas)), rate=rf)
        quad = eh.sum_throughput(state)
        cfg = eh.SimConfig(horizon=2e4, replications=4, seed=12, burn_in=50.0)
        stats = eh.simulate([(hp, pol, exp_dist())] * 2, rf, cfg)
        assert stats.throughput == pytest.approx(quad, rel=0.02)

    def test_uniform_packets_match_marching_measure(self, rf):
        # dual-route check away from the exponential family: the marching
        # solver's law against the simulated occupancy
        hp = eh.HarvestParams(1.0, 1.0, 5.0)
        pol = eh.constant_policy(2.0, 5.0, 512)
        dist = eh.PacketDistribution.tabulated([0.0, 2.0], [0.0, 1.0])
        meas = eh.measure_volterra(pol, hp, dist)
        cfg = eh.SimConfig(horizon=5e4, replications=16, seed=29, burn_in=50.0)
        stats = eh.simulate([(hp, pol, dist)], rf, cfg)
        assert abs(stats.atom[0] - meas.atom) <= 3.0 * stats.atom_se[0]
        analytic = np.interp(stats.cdf_levels[0], meas.grid, meas.cdf())
        assert np.max(np.abs(stats.cdf[0] - analytic)) < 0.01
        assert abs(stats.mean_power[0] - eh.mean_power(meas, pol)) <= \
            3.0 * stats.mean_power_se[0]

    def test_asymmetric_nodes_match_quadrature(self, rf):
        import warnings

        n1 = eh.HarvestParams(1.0, 1.0, 2.0)
        n2 = eh.HarvestParams(2.0, 1.0, 2.0)
        cfg = eh.SolverConfig(k_const=0.0, p0plus=0.001, grid_n=256,
                              theta_tol=1e-4, max_outer=40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = eh.solve_mac_gauss_seidel([n1, n2], rf, cfg)
        dist = exp_dist()
        sim_cfg = eh.SimConfig(horizon=3e4, replications=4, seed=23, burn_in=100.0)
        stats = eh.simulate([(n1, report.policies[0], dist),
                             (n2, report.policies[1], dist)], rf, sim_cfg)
        assert stats.throughput == pytest.approx(report.utility, rel=0.02)

    def test_bad_probe_rejected(self, rf):
        hp = eh.HarvestParams(1.0, 1.0, 2.0)
        pol = eh.constant_policy(1.0, 2.0, 64)
        for probe in (2.5, 2.0, 0.0, math.nan):
            cfg = eh.SimConfig(horizon=100.0, seed=0, level_probes=(1.0, probe))
            with pytest.raises(DomainError, match="strictly inside"):
                eh.simulate([(hp, pol, exp_dist())], rf, cfg)

    @pytest.mark.parametrize("level, dist", [
        (0.5, exp_dist()), (1.0, exp_dist()),
        # above lam / zeta = 1, but not above lam times the sampled mean 2
        (1.5, eh.PacketDistribution.tabulated([0.0, 4.0], [0.0, 1.0])),
    ], ids=["below", "equal", "packet_mean"])
    def test_nonstationary_unbounded_rejected(self, rf, level, dist, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("arrivals sampled before the stationarity check")

        monkeypatch.setattr(sim, "sample_arrivals", no_sampling)
        hp, pol = constant_setup(level=level)
        with pytest.raises(DomainError, match="no stationary law"):
            eh.simulate([(hp, pol, dist)], rf, eh.SimConfig(horizon=100.0))

    def test_zero_energy_packets_atom(self, rf):
        # a quarter of the packets carry no energy; the marching law holds
        # them as the thinned law does, and the simulated atom agrees
        hp = eh.HarvestParams(1.0, 1.0, 3.0)
        pol = eh.policy_from_function(lambda x: 0.5 + 0.8 * x, 3.0, 1024)
        dist = eh.PacketDistribution.tabulated([0.0, 2.0], [0.25, 1.0])
        law = eh.measure_volterra(pol, hp, dist)
        cfg = eh.SimConfig(horizon=1.25e4, replications=16, seed=3, burn_in=100.0)
        stats = eh.simulate([(hp, pol, dist)], rf, cfg)
        assert abs(stats.atom[0] - law.atom) <= 3.0 * stats.atom_se[0]

    @pytest.mark.parametrize("capacity", [3.0, 0.5], ids=["short_grid", "long_grid"])
    def test_policy_span_must_match_capacity(self, rf, capacity, monkeypatch):
        # a unit grid on a larger battery used to walk the whole horizon and
        # fail in the drain-time map; on a smaller one the CDF ran to level 1
        def no_sampling(*args, **kwargs):
            raise AssertionError("arrivals sampled before the span check")

        monkeypatch.setattr(sim, "sample_arrivals", no_sampling)
        hp = eh.HarvestParams(1.0, 1.0, capacity)
        pol = eh.constant_policy(1.0, 1.0, 64)
        ok = (eh.HarvestParams(1.0, 1.0, 1.0 + 1e-12), pol, exp_dist())
        cfg = eh.SimConfig(horizon=100.0, seed=0)
        for nodes in ([(hp, pol, exp_dist())], [ok, (hp, pol, exp_dist())]):
            with pytest.raises(DomainError, match="policy grid span must equal"):
                eh.simulate(nodes, rf, cfg)


@pytest.fixture(scope="module")
def crossing_run():
    hp, pol = constant_setup(level=2.0)
    meas = eh.measure_closed_form(pol, hp)
    cfg = eh.SimConfig(horizon=2.5e4, replications=16, seed=777, burn_in=50.0,
                       level_probes=(0.5, 1.0, 2.0, 3.0))
    stats = eh.simulate([(hp, pol, exp_dist())], eh.RateFunction(1.0), cfg)
    return hp, pol, meas, stats


@st.composite
def window_runs(draw):
    """A chain of drain segments on a finite battery whose levels tie at the
    capacity and at grid nodes, with its first drain clipped at the burn-in,
    and probes that hit those levels too."""
    n = draw(st.integers(1, 16))
    span = draw(st.floats(0.5, 4.0))
    p = sorted(draw(st.lists(st.floats(0.05, 4.0), min_size=n + 1, max_size=n + 1)),
               reverse=draw(st.booleans()))
    interp = eh.PolicyGrid(uniform_grid(span, n), np.asarray([0.0] + p[1:]),
                           p0plus=p[0]).interp()
    nodes = interp.x.tolist()

    def level(lo, hi):
        pick = draw(st.sampled_from(("node", "capacity", "free", "free")))
        if pick == "node" and any(lo <= x <= hi for x in nodes):
            return draw(st.sampled_from([x for x in nodes if lo <= x <= hi]))
        if pick == "capacity":
            return hi
        return draw(st.floats(lo, hi))

    a, b = [], []
    top = level(0.0, span)
    for _ in range(draw(st.integers(1, 30))):
        a.append(top)
        b.append(draw(st.sampled_from((0.0, 0.0, top))) if draw(st.booleans())
                 else level(0.0, top))
        top = level(b[-1], span)
    a, b = np.asarray(a), np.asarray(b)
    seg_tau = interp.tau(a)
    drain_dur = seg_tau - interp.tau(b)
    idle_dur = np.where(b == 0.0, np.asarray(draw(st.lists(
        st.floats(0.0, 3.0), min_size=a.size, max_size=a.size))), 0.0)
    if drain_dur[0] > 0.0:   # a drain straddles the burn-in: keep its tail
        cut = draw(st.floats(0.0, 0.99)) * drain_dur[0]
        drain_dur[0] -= cut
        a[0] = interp.tau_inverse(seg_tau[0] - cut)
        seg_tau[0] = interp.tau(a[0])   # the walk's clip: tau of the clipped level
    idle_dur[-1] += 0.5
    seg_start = np.concatenate(([0.0], np.cumsum(drain_dur + idle_dur)[:-1]))
    run = sim.NodeRun(seg_start=seg_start, seg_level=a, seg_tau=seg_tau, seg_end_level=b,
                      drain_end=seg_start + drain_dur, pre_arrival=b[:-1],
                      post_arrival=a[1:], idle_time=float(np.sum(idle_dur)), overflow=0.0)
    probes = np.asarray(sorted(set(
        draw(st.lists(st.sampled_from(nodes + a.tolist() + b.tolist()), max_size=12))
        + draw(st.lists(st.floats(0.0, span), max_size=6)))))
    return interp, run, probes


class TestWindowStatistics:
    """Occupancy CDF and crossing counts against per-segment sums."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(window_runs())
    def test_match_per_segment_sums(self, case):
        interp, run, probes = case
        window = float(np.sum(run.drain_end - run.seg_start)) + run.idle_time
        # a drain from a to b spends tau(clip(q, b, a)) - tau(b) at or below q
        want = [math.fsum([run.idle_time]
                          + [interp.tau(min(max(q, b), a)) - interp.tau(b)
                             for a, b in zip(run.seg_level.tolist(),
                                             run.seg_end_level.tolist())]) / window
                for q in probes.tolist()]
        levels = sim._live_levels(run)
        live = run.drain_end > run.seg_start
        # the tau a stable sort would gather, so no sum depends on the sort kind
        np.testing.assert_array_equal(
            levels[1], run.seg_tau[live][np.argsort(run.seg_level[live], kind="stable")])
        got = sim._occupancy_cdf(interp, run, levels, probes, window)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        down, up = sim._crossing_counts(run, levels, probes)
        assert down.tolist() == [
            float(np.sum(live & (run.seg_end_level < q) & (q <= run.seg_level)))
            for q in probes]
        assert up.tolist() == [
            float(np.sum((run.pre_arrival < q) & (q <= run.post_arrival))) for q in probes]


    def test_clipped_start_carries_the_tau_of_its_level(self):
        # the first window segment straddles the burn-in, and every window
        # segment's tau is the tau of its level, bit for bit: tied start
        # levels carry equal tau, whatever order the unstable sort leaves
        hp = eh.HarvestParams(1.0, 1.0, 3.0)
        pol = eh.policy_from_function(lambda x: 0.3 + 0.7 * x * x, 3.0, 64)
        interp = pol.interp()
        times, energies = sample_arrivals(hp, exp_dist(), 400.0, 21)
        burn_in = 0.5 * (times[56] + times[57])
        run = sim._walk_trajectory(interp, hp.capacity, times, energies, burn_in, 400.0, 0)
        assert run.seg_start[0] == burn_in and run.drain_end[0] > burn_in
        want = interp.tau(run.seg_level)
        assert np.array_equal(run.seg_tau.view(np.int64), want.view(np.int64))


class TestWindowBookkeeping:
    """The window's idle time and live segments, on real walks."""

    @pytest.mark.parametrize("start", ["at_zero", "inside_a_drain", "while_empty"])
    @pytest.mark.parametrize("capacity", [2.0, math.inf], ids=["finite", "unbounded"])
    def test_idle_time_and_drains_fill_the_window(self, capacity, start):
        interp = eh.policy_from_function(lambda x: 0.2 + x * x, 2.0, 64).interp(
            extend=math.isinf(capacity))
        times, energies = sample_arrivals(eh.HarvestParams(1.0, 1.0, capacity), exp_dist(),
                                          200.0, 17)
        probe = sim._walk_trajectory(interp, capacity, times, energies, 0.0, 200.0, 0)
        drains = probe.drain_end - probe.seg_start
        idles = np.append(probe.seg_start[1:], 200.0) - probe.drain_end
        if start == "inside_a_drain":
            j = int(np.flatnonzero(drains > 0.5)[3])
            burn_in = probe.seg_start[j] + 0.5 * drains[j]
        elif start == "while_empty":
            j = int(np.flatnonzero(idles > 0.5)[3])
            burn_in = probe.drain_end[j] + 0.5 * idles[j]
        else:
            burn_in = 0.0
        run = sim._walk_trajectory(interp, capacity, times, energies, burn_in, 200.0, 0)
        assert run.seg_start[0] == burn_in
        assert (run.drain_end[0] > burn_in) == (start == "inside_a_drain")
        window = run.idle_time + float(np.sum(run.drain_end - run.seg_start))
        assert window == pytest.approx(200.0 - burn_in, rel=1e-12, abs=0.0)
        # only a window start at zero or while empty leaves a segment that
        # never drains: the live test is the sign of the drain's length
        live = run.drain_end > run.seg_start
        assert np.array_equal(live, run.drain_end - run.seg_start > 0.0)
        assert np.flatnonzero(~live).tolist() == ([] if start == "inside_a_drain" else [0])
        a, ta, b = sim._live_levels(run)
        assert np.array_equal(a, np.sort(run.seg_level[live]))
        assert np.array_equal(ta, interp.tau(a))
        assert np.array_equal(b, np.sort(run.seg_end_level[live]))


class TestCrossingBalance:

    def test_down_equals_up_within_one(self, rf):
        # single trajectory: every level is crossed alternately, so the
        # counts can differ by at most one
        hp, pol = constant_setup(level=2.0)
        cfg = eh.SimConfig(horizon=5e3, replications=1, seed=33, burn_in=0.0,
                           level_probes=(0.3, 0.9, 1.7, 2.6, 4.0))
        stats = eh.simulate([(hp, pol, exp_dist())], rf, cfg)
        assert np.max(np.abs(stats.down_count - stats.up_count)) <= 1.0

    def test_unit_level_rate(self, crossing_run, rf):
        hp, pol, meas, stats = crossing_run
        # analytic down-crossing rate at level 1: f(1) * p(1)
        expected = 0.25 * math.exp(-0.5) * 2.0
        i = list(stats.crossing_levels).index(1.0)
        assert abs(stats.down_rate[0, i] - expected) <= 3.0 * stats.down_rate_se[0, i]

    def test_balance_records(self, crossing_run):
        hp, pol, meas, stats = crossing_run
        records = eh.crossing_balance(stats, meas, pol, hp, exp_dist())
        assert len(records) == 4
        assert all(r["down_within_3se"] for r in records)
        assert all(r["up_within_3se"] for r in records)

    def test_probe_outside_range(self, crossing_run):
        hp, pol, meas, stats = crossing_run
        small = eh.constant_policy(2.0, 1.0, 64)
        with pytest.raises(DomainError):
            eh.crossing_balance(stats, meas, small, hp, exp_dist())

    def test_reflecting_boundary_upcrossings_vanish(self, rf):
        # a finite battery has no mass parked at the top: crossings just
        # below the capacity become rare as the probe approaches it
        hp = eh.HarvestParams(1.0, 1.0, 2.0)
        pol = eh.constant_policy(2.0, 2.0, 64)
        cfg = eh.SimConfig(horizon=2e4, seed=13, burn_in=50.0,
                           level_probes=(1.6, 1.9, 1.99))
        stats = eh.simulate([(hp, pol, exp_dist())], rf, cfg)
        ups = stats.up_rate[0]
        assert ups[0] > ups[1] > ups[2]


def scalar_walk(interp, capacity, times, energies, burn_in, horizon):
    """Oracle: the walk as one Python loop over arrivals with scalar drain maps."""
    xs = interp.x.tolist()
    ps = interp.p.tolist()
    psq = [v * v for v in ps]
    bs = [(psq[i + 1] - psq[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
    taus = interp.tau_nodes.tolist()
    tau_top = taus[-1]
    x_top = xs[-1]
    p_top = ps[-1]
    top_cell = len(xs) - 2

    def tau_of(level):
        if level >= x_top:
            return tau_top + (level - x_top) / p_top
        i = min(max(bisect_right(xs, level) - 1, 0), top_cell)
        j = i + 1 if ps[i + 1] < ps[i] else i   # the cell's lower-rate node
        pv = math.sqrt(psq[j] + bs[i] * (level - xs[j]))
        return taus[i] + 2.0 * (level - xs[i]) / (pv + ps[i])

    def level_of(tau):
        if tau >= tau_top:
            return x_top + (tau - tau_top) * p_top
        i = min(max(bisect_right(taus, tau) - 1, 0), top_cell)
        dt = tau - taus[i]
        return min(xs[i] + ps[i] * dt + 0.25 * bs[i] * dt * dt, xs[i + 1])

    t_list = times.tolist() + [horizon]
    e_list = energies.tolist() + [0.0]
    rows = len(t_list)
    tau_at = [0.0] * rows
    end_at = [0.0] * rows
    post_at = [0.0] * rows
    t_prev = 0.0
    level = 0.0
    for j, (t_next, energy) in enumerate(zip(t_list, e_list)):
        if level > 0.0:
            tau_lv = tau_of(level)
            tau_at[j] = tau_lv
            if t_prev + tau_lv <= t_next:
                end = 0.0
            else:
                end = level_of(tau_lv - (t_next - t_prev))
            end_at[j] = end
        else:
            end = 0.0
        level = end + energy
        if level > capacity:
            level = capacity
        post_at[j] = level
        t_prev = t_next

    t_next = np.asarray(t_list)
    t_prev = np.concatenate(([0.0], times))
    post = np.asarray(post_at)
    start = np.concatenate(([0.0], post[:-1]))
    tau = np.asarray(tau_at)
    end = np.asarray(end_at)
    t_stop = np.minimum(t_prev + tau, t_next)
    a = int(np.searchsorted(times, burn_in, side="left"))
    pre_arr = end[a:-1]
    post_arr = post[a:-1]
    overflow = float(np.sum(pre_arr + energies[a:] - post_arr))
    w = int(np.searchsorted(t_next, burn_in, side="right"))
    seg_start = t_prev[w:]
    seg_level = start[w:]
    seg_tau = tau[w:]
    seg_end_level = end[w:]
    drain_end = t_stop[w:]
    if seg_start[0] < burn_in:
        if drain_end[0] > burn_in:
            seg_level[0] = level_of(seg_tau[0] - (burn_in - seg_start[0]))
            seg_tau[0] = tau_of(seg_level[0])
        else:
            seg_level[0] = seg_tau[0] = 0.0
            drain_end[0] = burn_in
        seg_start[0] = burn_in
    return sim.NodeRun(seg_start=seg_start, seg_level=seg_level, seg_tau=seg_tau,
                       seg_end_level=seg_end_level, drain_end=drain_end,
                       pre_arrival=pre_arr, post_arrival=post_arr,
                       idle_time=float(np.sum(t_next[w:] - drain_end)), overflow=overflow)


RUN_FIELDS = ("seg_start", "seg_level", "seg_tau", "seg_end_level", "drain_end",
              "pre_arrival", "post_arrival")


def assert_runs_identical(want, got):
    """Every array of two ``NodeRun`` bitwise, the idle time bitwise, and the
    overflow with its sign."""
    for name in RUN_FIELDS:
        a, b = getattr(want, name), getattr(got, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
    assert want.idle_time.hex() == got.idle_time.hex()
    assert math.copysign(1.0, want.overflow) == math.copysign(1.0, got.overflow)
    assert want.overflow == got.overflow


def assert_walks_identical(interp, capacity, times, energies, burn_in, horizon):
    """The lockstep walk against the oracle: every row bitwise."""
    want = scalar_walk(interp, capacity, times, energies, burn_in, horizon)
    got = sim._walk_trajectory(interp, capacity, times, energies, burn_in, horizon, 3)
    assert_runs_identical(want, got)
    return want


@st.composite
def walk_inputs(draw):
    """A rising or falling policy on a finite or unbounded battery, with
    exponential or uniform packets and a burn-in anywhere in the first half."""
    n = draw(st.integers(1, 32))
    span = draw(st.floats(0.5, 6.0))
    p = sorted(draw(st.lists(st.floats(0.01, 5.0), min_size=n + 1, max_size=n + 1)),
               reverse=draw(st.booleans()))
    policy = eh.PolicyGrid(uniform_grid(span, n), np.asarray([0.0] + p[1:]), p0plus=p[0])
    unbounded = draw(st.booleans())
    params = eh.HarvestParams(draw(st.floats(0.2, 3.0)), 1.0,
                              math.inf if unbounded else span)
    if draw(st.booleans()):
        dist = exp_dist(draw(st.floats(0.3, 3.0)))
    else:
        dist = eh.PacketDistribution.tabulated([0.0, draw(st.floats(0.5, 4.0))], [0.0, 1.0])
    horizon = draw(st.floats(5.0, 300.0))
    burn_in = draw(st.floats(0.0, 0.5)) * horizon
    times, energies = sample_arrivals(params, dist, horizon, draw(st.integers(0, 2 ** 16)))
    return policy.interp(extend=unbounded), params.capacity, times, energies, burn_in, horizon


@st.composite
def never_emptying_walks(draw):
    """An unbounded battery on a short span whose policy releases below the
    unit input rate: it seldom empties, yet its short top drain time makes
    the walk cut at many gaps, and nearly every cut needs a repair."""
    n = draw(st.integers(1, 16))
    span = draw(st.floats(1.0, 8.0))
    p = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=n + 1, max_size=n + 1)),
               reverse=draw(st.booleans()))
    policy = eh.PolicyGrid(uniform_grid(span, n), np.asarray([0.0] + p[1:]), p0plus=p[0])
    horizon = draw(st.floats(50.0, 2000.0))
    burn_in = draw(st.floats(0.0, 0.5)) * horizon
    times, energies = sample_arrivals(eh.HarvestParams(1.0, 1.0, math.inf), exp_dist(),
                                      horizon, draw(st.integers(0, 2 ** 16)))
    return policy.interp(extend=True), math.inf, times, energies, burn_in, horizon


class TestLockstepWalk:
    """The block-parallel walk reproduces the one-row-at-a-time loop bitwise."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(walk_inputs())
    def test_matches_scalar_loop(self, case):
        assert_walks_identical(*case)

    @pytest.mark.parametrize("lanes", [0, 4])
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=walk_inputs())
    def test_matches_scalar_loop_in_numpy_lanes(self, lanes, case):
        # these small walks have fewer blocks than the default lane count, so
        # on their own they would never take a numpy step; at 0 every row is
        # a numpy row, at 4 the passes switch to floats midway
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_SCALAR_LANES", lanes)
            assert_walks_identical(*case)

    def test_never_emptying_unbounded_walk_steps_few_numpy_rows(self, monkeypatch):
        # p = 0.5 against a unit input rate: the battery never empties after its
        # first arrivals, and with a top drain time of 32 hardly any gap
        # reaches the speculative cut, so one lane walks nearly every row.
        # It once took one numpy step per row, 100x a Python loop.
        steps = []
        tau = PolicyInterp.tau

        def counting(self, levels):
            if np.ndim(levels):
                steps.append(np.size(levels))
            return tau(self, levels)

        monkeypatch.setattr(PolicyInterp, "tau", counting)
        interp = eh.constant_policy(0.5, 16.0, 16).interp(extend=True)
        times, energies = sample_arrivals(eh.HarvestParams(1.0, 1.0, math.inf), exp_dist(),
                                          5000.0, 3)
        run = assert_walks_identical(interp, math.inf, times, energies, 0.0, 5000.0)
        assert times.size > 4000 and np.count_nonzero(run.seg_end_level == 0.0) <= 2
        assert len(steps) <= 5

    @pytest.mark.parametrize("capacity", [2.0, math.inf], ids=["finite", "unbounded"])
    def test_burn_in_inside_a_drain(self, capacity):
        interp = eh.policy_from_function(lambda x: 0.2 + x * x, 2.0, 64).interp(
            extend=math.isinf(capacity))
        times, energies = sample_arrivals(eh.HarvestParams(1.0, 1.0, capacity), exp_dist(),
                                          200.0, 17)
        probe = scalar_walk(interp, capacity, times, energies, 0.0, 200.0)
        j = int(np.flatnonzero(probe.drain_end - probe.seg_start > 0.5)[3])
        burn_in = probe.seg_start[j] + 0.5 * (probe.drain_end[j] - probe.seg_start[j])
        run = assert_walks_identical(interp, capacity, times, energies, burn_in, 200.0)
        assert run.seg_start[0] == burn_in and 0.0 < run.seg_tau[0] < probe.seg_tau[j]

    def test_drain_ends_at_the_cell_edge(self):
        # one ulp of drain from a full battery: the level, quadratic in the
        # drain time, overshoots the top node by an ulp unless clamped there
        interp = eh.PolicyGrid(uniform_grid(1.0, 2), np.array([0.0, 0.3, 0.1]),
                               p0plus=1.0).interp()
        times = np.array([1.0, 1.0 + 2.0 ** -51, 2.0])
        energies = np.array([5.0, 0.5, 0.1])
        run = assert_walks_identical(interp, 1.0, times, energies, 0.0, 10.0)
        assert run.seg_start[1] < run.drain_end[1] and run.seg_end_level[1] == 1.0

    def test_zero_packet_after_an_empty_row(self):
        # the row after the first arrival empties and then adds nothing, so
        # its post level is 0.0 in the middle of a block
        interp = eh.constant_policy(1.0, 4.0, 16).interp()
        times = np.array([1.0, 1.5, 2.0, 2.2])
        energies = np.array([0.2, 0.0, 0.3, 0.5])
        run = assert_walks_identical(interp, 4.0, times, energies, 0.0, 5.0)
        assert run.post_arrival[1] == 0.0 and run.post_arrival[3] == pytest.approx(0.6)

    @staticmethod
    def _count_passes(monkeypatch):
        passes = []
        kernel = sim._walk_rows

        def counting(*args):
            passes.append(int(args[5].size))   # lanes in the pass
            return kernel(*args)

        monkeypatch.setattr(sim, "_walk_rows", counting)
        return passes

    def test_repair_after_a_wrong_cut(self, monkeypatch):
        # an unbounded battery cuts after every gap beyond the speculative
        # threshold; a huge packet keeps it charged across such a gap
        passes = self._count_passes(monkeypatch)
        interp = eh.constant_policy(1.0, 4.0, 16).interp(extend=True)
        gap = 2.0 * sim._SPECULATIVE_GAP * interp.tau_nodes[-1]
        times = np.array([1.0, 2.0, 2.0 + gap, 3.0 + gap, 60.0])
        energies = np.array([50.0, 0.5, 0.25, 0.5, 1.0])
        run = assert_walks_identical(interp, math.inf, times, energies, 0.0, 80.0)
        assert run.seg_end_level[2] > 0.0      # the cut row did not empty
        assert passes == [3, 1]   # cuts after rows 2 and 4; one lane repairs

    def test_repair_through_a_chain_of_wrong_cuts(self, monkeypatch):
        # rows 1, 2 and 6 end in a long gap but do not empty.  The block after
        # row 1 is walked from 30 instead of about 86, so it misses the cut
        # after row 2 as well: two consecutive blocks start wrong.  One lane
        # repairs both, in the same pass as the block after row 6.
        passes = self._count_passes(monkeypatch)
        interp = eh.policy_from_function(lambda x: 0.5 + 0.1 * x, 4.0, 32).interp(extend=True)
        gap = 2.0 * sim._SPECULATIVE_GAP * interp.tau_nodes[-1]
        times = np.cumsum([1.0, gap, gap, 0.5, 200.0, 1.0, gap, 1.0, 200.0])
        energies = np.array([60.0, 30.0, 0.5, 0.5, 40.0, 0.5, 0.5, 0.5, 0.5])
        run = assert_walks_identical(interp, math.inf, times, energies, 0.0, times[-1] + 1.0)
        assert np.all(run.seg_end_level[[1, 2, 6]] > 0.0)
        assert passes == [6, 2]   # cuts after rows 1, 2, 4, 6 and 8

    def test_cut_after_a_filling_packet(self, monkeypatch):
        # no gap outlasts the drain from the capacity, but the packet of row 1
        # alone fills the battery, so the block is cut after it while the
        # battery is busy, and the cut is right with no repair
        passes = self._count_passes(monkeypatch)
        interp = eh.constant_policy(1.0, 2.0, 16).interp()
        times = np.array([1.0, 1.5, 2.0, 2.5])
        energies = np.array([1.0, 3.0, 0.2, 0.3])
        run = assert_walks_identical(interp, 2.0, times, energies, 0.0, 3.0)
        assert run.seg_end_level[1] > 0.0 and run.post_arrival[1] == 2.0
        assert passes == [2]

    def test_one_repair_pass_on_a_short_span(self, monkeypatch):
        # p = 0.5 against a unit input rate on a span of 4: the top drain time
        # is 8, so the walk cuts at about 1400 gaps though the battery never
        # empties.  Each repair lane once stopped before the next wrong block,
        # mending one chain per pass: 199 passes.
        passes = self._count_passes(monkeypatch)
        interp = eh.constant_policy(0.5, 4.0, 16).interp(extend=True)
        times, energies = sample_arrivals(eh.HarvestParams(1.0, 1.0, math.inf), exp_dist(),
                                          2e4, 3)
        run = assert_walks_identical(interp, math.inf, times, energies, 0.0, 2e4)
        assert np.count_nonzero(run.seg_end_level == 0.0) <= 2 and passes[0] > 1000
        assert len(passes) <= 3

    @pytest.mark.parametrize("lanes", [0, sim._SCALAR_LANES])
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(case=never_emptying_walks())
    def test_overlapping_repair_lanes_match_scalar_loop(self, lanes, case):
        # the first repair lane of a pass runs on through the later lanes'
        # rows; at 0 every row is a numpy row, at the default most are floats
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_SCALAR_LANES", lanes)
            assert_walks_identical(*case)


def _workspace_nodes(kind):
    finite = (eh.HarvestParams(1.0, 1.0, 2.0),
              eh.policy_from_function(lambda x: 0.4 + 0.6 * x, 2.0, 64), exp_dist())
    unbounded = (eh.HarvestParams(1.0, 1.0, math.inf), eh.constant_policy(2.0, 12.0, 128),
                 exp_dist())
    return {"finite": [finite], "unbounded": [unbounded], "pair": [finite, unbounded]}[kind]


class TestWalkWorkspace:
    """``simulate`` walks every replication of a node in the same buffers."""

    @pytest.mark.parametrize("kind", ["finite", "unbounded", "pair"])
    def test_replications_reuse_buffers_bitwise(self, kind, rf, monkeypatch):
        # seed 6 gives each node 406/437/414 and 396/404/389 arrivals: the
        # rows grow, then are walked shorter in the same memory
        walk = sim._walk_trajectory
        previous = {}   # node: its last run, and that walk without a workspace
        sizes, shared = {}, []

        def checked(*args):
            node = args[6]
            if node in previous:
                # valid through every walk and the joint integral since
                assert_runs_identical(*previous[node][::-1])
            run = walk(*args)
            want = walk(*args[:7])
            assert_runs_identical(want, run)
            if node in previous:
                shared.append(all(np.shares_memory(getattr(previous[node][0], name),
                                                   getattr(run, name))
                                  for name in RUN_FIELDS))
            sizes.setdefault(node, []).append(args[2].size)
            previous[node] = run, want
            return run

        monkeypatch.setattr(sim, "_walk_trajectory", checked)
        nodes = _workspace_nodes(kind)
        eh.simulate(nodes, rf, eh.SimConfig(horizon=400.0, replications=3, seed=6,
                                            burn_in=50.0))
        for run, want in previous.values():
            assert_runs_identical(want, run)
        assert len(sizes) == len(nodes)
        assert all(a < b > c for a, b, c in sizes.values())
        assert len(shared) == 2 * len(nodes) and all(shared)

    def test_buffer_grows_without_touching_earlier_rows(self):
        work = sim._Workspace()
        rows = work.rows(0, 8, 100)
        rows[:] = 1.0
        assert np.shares_memory(rows, work.rows(0, 8, 50))
        assert not np.shares_memory(rows, work.rows(1, 8, 50))
        grown = work.rows(0, 8, 1000)
        assert grown.shape == (8, 1000) and not np.shares_memory(rows, grown)
        assert np.all(rows == 1.0)
        assert np.shares_memory(grown, work.rows(0, 8, 10))


class TestRateRemainder:
    """The one-log interaction remainder against a 50-digit reference."""

    @example([0.0, 0.7, 0.0], 1.0)
    @example([1e-12, 1e-12], 10.0)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1e3),
                              st.floats(1e3, 1e6)), min_size=1, max_size=5),
           st.floats(0.1, 10.0))
    def test_matches_mpmath(self, ps, n0):
        mpmath = pytest.importorskip("mpmath")
        got = float(sim._rate_remainder([p / n0 for p in ps]))
        with mpmath.workdps(50):
            q = [mpmath.mpf(p / n0) for p in ps]
            want = (mpmath.log(1 + sum(q)) - sum(mpmath.log(1 + v) for v in q)) / (
                2 * mpmath.log(2))
        assert abs(got - float(want)) <= max(1e-13 * abs(float(want)), 1e-15)
        assert got <= 0.0
        if sum(p > 0.0 for p in ps) <= 1:
            assert got == 0.0

    def test_arrays_elementwise(self):
        q = [np.array([0.0, 0.5, 2.0]), np.array([0.0, 0.0, 3.0]), np.array([1.0, 0.25, 0.0])]
        got = sim._rate_remainder(q)
        want = [float(sim._rate_remainder([v[i] for v in q])) for i in range(3)]
        assert got.tolist() == want and got[0] == 0.0


# 6-point Gauss-Legendre on the 179 panels of a uniform and a geometric grid
# of the interval
FINE_RULE = sim._gauss_rule(np.unique(np.concatenate((
    np.linspace(0.0, 1.0, 121), np.geomspace(1e-6, 1.0, 61)))),
    *np.polynomial.legendre.leggauss(6))


def merged_timeline(runs, burn_in, horizon):
    """The window's cuts: its ends, every segment start and every emptying."""
    cuts = [np.asarray([burn_in, horizon])]
    for run in runs:
        cuts.append(run.seg_start)
        cuts.append(run.drain_end[(run.seg_end_level == 0.0)
                                  & (run.drain_end > run.seg_start)])
    t = np.unique(np.concatenate(cuts))
    return t[(t >= burn_in) & (t <= horizon)]


def every_interval_integral(interps, runs, rf, burn_in, horizon):
    """Reference joint-rate integral that samples every merged interval with
    the default rule, reads each node's segment and draining state per
    sample, and takes the remainder as r(sum p) - sum r(p)."""
    exact = 0.0
    for interp, run in zip(interps, runs):
        exact += sim._own_bits(interp, rf, run)
    t = merged_timeline(runs, burn_in, horizon)
    frac, w = sim._JOINT_RULE
    t0, t1 = t[:-1], t[1:]
    dt = t1 - t0
    samples = t0[:, None] + dt[:, None] * frac[None, :]
    p_sum = np.zeros_like(samples)
    own_rate = np.zeros_like(samples)
    for interp, run in zip(interps, runs):
        idx = np.clip(np.searchsorted(run.seg_start, samples, side="right") - 1,
                      0, run.seg_start.size - 1)
        draining = samples < run.drain_end[idx]
        tau_left = run.seg_tau[idx] - (samples - run.seg_start[idx])
        p_node = np.where(draining, np.interp(tau_left, interp.tau_nodes, interp.p), 0.0)
        p_sum += p_node
        own_rate += rate(rf, p_node)
    return exact + float(np.sum(((rate(rf, p_sum) - own_rate) @ w) * dt))


def _node_runs(nodes, burn_in, horizon, seed):
    interps, runs = [], []
    for k, (params, policy) in enumerate(nodes):
        interp = policy.interp(extend=params.is_infinite)
        times, energies = sample_arrivals(params, exp_dist(), horizon, seed, node=k)
        interps.append(interp)
        runs.append(sim._walk_trajectory(interp, params.capacity, times, energies,
                                         burn_in, horizon, k))
    return interps, runs


class TestJointIntervalSkip:
    """Intervals with fewer than two draining nodes add exactly nothing."""

    NODES = {
        "two": [(eh.HarvestParams(1.0, 1.0, 2.0),
                 eh.policy_from_function(lambda x: 0.2 + x * x, 2.0, 64)),
                (eh.HarvestParams(0.7, 1.0, math.inf),
                 eh.policy_from_function(lambda x: 0.3 + 0.5 * x, 6.0, 48))],
        "three_one_idle": [(eh.HarvestParams(1.0, 1.0, 2.0),
                            eh.policy_from_function(lambda x: 0.2 + x * x, 2.0, 64)),
                           (eh.HarvestParams(0.0, 1.0, 3.0), eh.constant_policy(1.0, 3.0, 16)),
                           (eh.HarvestParams(1.5, 1.0, 3.0),
                            eh.policy_from_function(lambda x: 2.0 - 0.5 * x, 3.0, 32))],
    }

    @pytest.mark.parametrize("nodes", sorted(NODES))
    def test_matches_every_interval_reference(self, nodes, rf):
        burn_in, horizon = 13.7, 400.0
        interps, runs = _node_runs(self.NODES[nodes], burn_in, horizon, seed=41)
        want = every_interval_integral(interps, runs, rf, burn_in, horizon)
        results = set()
        for chunk in (1, 7, sim._JOINT_CHUNK):
            got, merged, sampled = sim._joint_rate_integral(interps, runs, rf, burn_in,
                                                            horizon, chunk=chunk)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
            results.add((got, merged, sampled))
        assert len({(m, s) for _, m, s in results}) == 1
        assert 0 < sampled < merged
        if nodes == "three_one_idle":
            assert np.all(runs[1].drain_end == runs[1].seg_start)   # idle throughout

    @pytest.mark.parametrize("nodes", sorted(NODES))
    def test_segment_index_from_the_merged_timeline(self, nodes):
        # counting segment starts along the merged cuts gives the integers a
        # search of every cut among the segment starts gives
        burn_in, horizon = 13.7, 400.0
        _, runs = _node_runs(self.NODES[nodes], burn_in, horizon, seed=41)
        t = merged_timeline(runs, burn_in, horizon)
        for run in runs:
            want = np.clip(np.searchsorted(run.seg_start, t[:-1], side="right") - 1,
                           0, run.seg_start.size - 1)
            np.testing.assert_array_equal(sim._segment_index(t, run), want)

    def test_default_rule_is_3_point_gauss_legendre(self):
        x, w = np.polynomial.legendre.leggauss(3)
        np.testing.assert_allclose(sim._GL3, (x, w), rtol=1e-15, atol=1e-16)
        frac, weight = sim._JOINT_RULE
        assert frac.size == 9 and np.all((frac > 0.0) & (frac < 1.0))
        assert weight @ frac ** 5 == pytest.approx(1.0 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("nodes", sorted(NODES))
    def test_default_rule_against_a_fine_rule(self, nodes, rf):
        # 6-point Gauss-Legendre on 179 panels of each interval agrees with 8
        # points on 598 to 1e-9 per unit window here; the default, to 1e-7
        burn_in, horizon = 13.7, 400.0
        interps, runs = _node_runs(self.NODES[nodes], burn_in, horizon, seed=41)
        got, _, _ = sim._joint_rate_integral(interps, runs, rf, burn_in, horizon)
        fine, _, _ = sim._joint_rate_integral(interps, runs, rf, burn_in, horizon,
                                              rule=FINE_RULE, chunk=256)
        assert abs(got - fine) / (horizon - burn_in) <= 1e-5

    # float.hex of the integral per block size, with the merged and sampled
    # interval counts; in "three_one_idle" node 1 idles inside every sampled
    # interval, so its release rate there must read exactly 0.0
    PINNED = {
        "two": ({1: "0x1.9aab6ac9be87ep+7", 7: "0x1.9aab6ac9be87ep+7",
                 sim._JOINT_CHUNK: "0x1.9aab6ac9be87ep+7"}, 740, 471),
        "three_one_idle": ({1: "0x1.de456412aa668p+7", 7: "0x1.de456412aa66ap+7",
                            sim._JOINT_CHUNK: "0x1.de456412aa66ap+7"}, 1076, 876),
    }

    @pytest.mark.parametrize("nodes", sorted(NODES))
    def test_integral_bits_pinned(self, nodes, rf):
        burn_in, horizon = 13.7, 400.0
        interps, runs = _node_runs(self.NODES[nodes], burn_in, horizon, seed=41)
        bits, merged_want, sampled_want = self.PINNED[nodes]
        for chunk, want in bits.items():
            got, merged, sampled = sim._joint_rate_integral(interps, runs, rf, burn_in,
                                                            horizon, chunk=chunk)
            assert (got.hex(), merged, sampled) == (want, merged_want, sampled_want)

    def test_work_counts(self, rf, monkeypatch):
        # node 0 drains over [1, 4), node 1 over [2, 3) and [6, 7): the cuts
        # 0, 1, 2, 3, 4, 6, 7, 10 give seven intervals, one with both draining
        arrivals = {0: ([1.0], [3.0]), 1: ([2.0, 6.0], [1.0, 1.0])}

        def hand_built(params, dist, horizon, seed, node=0, replication=0):
            times, energies = arrivals[node]
            return np.asarray(times), np.asarray(energies)

        monkeypatch.setattr(sim, "sample_arrivals", hand_built)
        node = (eh.HarvestParams(1.0, 1.0, 5.0), eh.constant_policy(1.0, 5.0, 8), exp_dist())
        stats = eh.simulate([node, node], rf,
                            eh.SimConfig(horizon=10.0, replications=3, seed=0))
        assert stats.window_arrivals.tolist() == [3, 6]
        assert (stats.merged_intervals, stats.sampled_intervals) == (21, 3)
        single = eh.simulate([node], rf, eh.SimConfig(horizon=10.0, replications=2, seed=0))
        assert single.window_arrivals.tolist() == [2]
        assert (single.merged_intervals, single.sampled_intervals) == (0, 0)
        assert "intervals" not in stats.to_text()
