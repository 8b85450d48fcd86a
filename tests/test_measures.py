import math

import numpy as np
import pytest

import ehmac as eh
from ehmac.errors import DomainError, NumericOverflowError


def exp_dist(zeta=1.0):
    return eh.PacketDistribution.exponential(zeta)


class TestPolicyGrid:
    def test_admissibility_enforced(self):
        x = np.linspace(0.0, 1.0, 65)
        good = np.ones_like(x)
        good[0] = 0.0
        eh.PolicyGrid(grid=x, values=good, p0plus=1.0)
        bad = good.copy()
        bad[10] = 0.0
        with pytest.raises(DomainError):
            eh.PolicyGrid(grid=x, values=bad, p0plus=1.0)
        with pytest.raises(DomainError):
            eh.PolicyGrid(grid=x, values=good, p0plus=0.0)
        nonzero_origin = good.copy()
        nonzero_origin[0] = 0.5
        with pytest.raises(DomainError):
            eh.PolicyGrid(grid=x, values=nonzero_origin, p0plus=1.0)

    def test_nonuniform_grid_rejected(self):
        x = np.array([0.0, 0.1, 0.3, 0.35, 0.5])
        v = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            eh.PolicyGrid(grid=x, values=v, p0plus=1.0)

    def test_unbounded_values_rejected(self):
        x = np.linspace(0.0, 1.0, 65)
        v = np.ones_like(x)
        v[0] = 0.0
        v[-1] = np.inf
        with pytest.raises(DomainError):
            eh.PolicyGrid(grid=x, values=v, p0plus=1.0)


class TestClosedForm:
    def test_constant_policy_unbounded(self):
        # p = 2 with unit input rate: half the time empty, exponential density
        hp = eh.HarvestParams(1.0, 1.0)
        pol = eh.constant_policy(2.0, 10.0, 512)
        meas = eh.measure_closed_form(pol, hp)
        assert meas.atom == pytest.approx(0.5, abs=1e-6)
        x = np.array([0.5, 1.0, 2.0, 5.0])
        assert meas.density_at(x) == pytest.approx(0.25 * np.exp(-x / 2.0), rel=1e-4)

    @pytest.mark.parametrize("c", [1.5, 2.0, 4.0])
    def test_constant_policy_atom_formula(self, c):
        hp = eh.HarvestParams(1.0, 1.0)
        pol = eh.constant_policy(c, 14.0, 1024)
        meas = eh.measure_closed_form(pol, hp)
        assert meas.atom == pytest.approx(1.0 - 1.0 / c, abs=2e-6)

    def test_no_arrivals_limit(self):
        hp = eh.HarvestParams(0.0, 1.0, 2.0)
        pol = eh.constant_policy(1.0, 2.0, 128)
        meas = eh.measure_closed_form(pol, hp)
        assert meas.atom == 1.0
        assert np.all(meas.density == 0.0)

    def test_total_mass_exact(self):
        hp = eh.HarvestParams(1.0, 1.0, 3.0)
        pol = eh.policy_from_function(lambda x: 0.5 + x, 3.0, 512)
        meas = eh.measure_closed_form(pol, hp)
        assert meas.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_density_right_limit(self):
        hp = eh.HarvestParams(1.0, 1.0, 3.0)
        pol = eh.policy_from_function(lambda x: 0.5 + x, 3.0, 256)
        meas = eh.measure_closed_form(pol, hp)
        assert meas.density[0] == pytest.approx(hp.lam * meas.atom / pol.p0plus)

    def test_steep_start_is_stable(self):
        # tiny p(0+) must neither overflow nor distort the atom
        hp = eh.HarvestParams(1.0, 1.0, 3.0)
        pol = eh.policy_from_function(lambda x: math.sqrt(1e-6 + 2.0 * x), 3.0, 512,
                                      p0plus=1e-3)
        meas = eh.measure_closed_form(pol, hp)
        assert 0.0 < meas.atom < 1.0
        assert meas.total_mass() == pytest.approx(1.0, abs=1e-12)
        # halving the grid barely moves the atom (the first cell is resolved
        # analytically, not by brute refinement)
        pol2 = eh.policy_from_function(lambda x: math.sqrt(1e-6 + 2.0 * x), 3.0, 1024,
                                       p0plus=1e-3)
        meas2 = eh.measure_closed_form(pol2, hp)
        assert meas.atom == pytest.approx(meas2.atom, rel=1e-4)

    def test_overflow_error_reports_level(self):
        hp = eh.HarvestParams(1.0, 1.0, 3.0)
        pol = eh.constant_policy(5e-309, 3.0, 128)
        with pytest.raises(NumericOverflowError) as err:
            eh.measure_closed_form(pol, hp)
        assert err.value.where is not None

    def test_unbounded_requires_supercritical_tail(self):
        hp = eh.HarvestParams(1.0, 1.0)
        pol = eh.constant_policy(0.9, 10.0, 128)  # below the mean input rate
        with pytest.raises(DomainError):
            eh.measure_closed_form(pol, hp)

    def test_atom_refinement_is_second_order(self):
        hp = eh.HarvestParams(1.0, 1.0, 2.0)
        atoms = {}
        for n in (512, 1024, 2048):
            pol = eh.policy_from_function(lambda x: 1.0 + x * x, 2.0, n)
            atoms[n] = eh.measure_closed_form(pol, hp).atom
        ratio = (atoms[512] - atoms[1024]) / (atoms[1024] - atoms[2048])
        assert ratio == pytest.approx(4.0, abs=0.5)


class TestVolterra:
    def test_matches_closed_form_exponential(self):
        hp = eh.HarvestParams(1.2, 0.8, 2.5)
        pol = eh.policy_from_function(lambda x: 0.7 + 0.5 * x, 2.5, 4096)
        m1 = eh.measure_closed_form(pol, hp)
        m2 = eh.measure_volterra(pol, hp, exp_dist(0.8))
        assert np.max(np.abs(m1.density - m2.density)) < 1e-5
        assert abs(m1.atom - m2.atom) < 1e-5

    def test_normalization_is_exact(self):
        hp = eh.HarvestParams(1.0, 1.0, 5.0)
        pol = eh.constant_policy(2.0, 5.0, 512)
        meas = eh.measure_volterra(pol, hp, exp_dist())
        assert meas.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_packets_balance(self):
        hp = eh.HarvestParams(1.0, 1.0, 5.0)
        pol = eh.constant_policy(2.0, 5.0, 1024)
        dist = eh.PacketDistribution.tabulated([0.0, 2.0], [0.0, 1.0])
        meas = eh.measure_volterra(pol, hp, dist)
        resid = eh.level_crossing_residual(meas, pol, hp, dist)
        assert np.max(np.abs(resid)) < 1e-4

    def test_finite_capacity_required(self):
        hp = eh.HarvestParams(1.0, 1.0)
        pol = eh.constant_policy(2.0, 5.0, 128)
        with pytest.raises(DomainError):
            eh.measure_volterra(pol, hp, exp_dist())

    def test_closed_form_balance_residual(self):
        hp = eh.HarvestParams(1.0, 1.0, 3.0)
        pol = eh.policy_from_function(lambda x: 1.0 + 0.4 * x, 3.0, 4096)
        meas = eh.measure_closed_form(pol, hp)
        resid = eh.level_crossing_residual(meas, pol, hp, exp_dist())
        assert np.max(np.abs(resid)) < 1e-4


def fine_up_rate(measure, params, dist, level, refine=64):
    """Up-crossing rate with the density re-gridded onto a 64x finer grid."""
    vv = np.linspace(0.0, level, refine * math.ceil(level / measure.grid[1]) + 1)
    conv = np.trapezoid(eh.survival(dist, level - vv) * measure.density_at(vv), vv)
    return params.lam * (measure.atom * eh.survival(dist, level) + conv)


class TestCrossingRates:
    HP = eh.HarvestParams(1.0, 1.0, 3.0)
    DISTS = {"exponential": exp_dist(),
             "uniform": eh.PacketDistribution.tabulated([0.0, 2.0], [0.0, 1.0])}

    def _law(self, dist, n):
        pol = eh.policy_from_function(lambda x: 0.6 + 0.5 * x * x, 3.0, n)
        return pol, eh.measure_volterra(pol, self.HP, dist)

    @pytest.mark.parametrize("dist", sorted(DISTS))
    def test_off_grid_up_rate_is_second_order(self, dist):
        # the node trapezoid plus the partial cell against a fine convolution
        # of the same interpolated density: err / h**2 read 0.010-0.030 from
        # 32 to 512 cells; an empty partial cell would leave O(h)
        dist = self.DISTS[dist]
        probes = np.array([0.1234, 0.77, 1.501, 2.345, 2.99])
        for n in (64, 128, 256):
            pol, meas = self._law(dist, n)
            _, up = eh.crossing_rates(meas, pol, self.HP, dist, probes)
            want = [fine_up_rate(meas, self.HP, dist, q) for q in probes]
            h = 3.0 / n
            np.testing.assert_allclose(up, want, rtol=0.0, atol=0.05 * h * h)

    def test_grid_nodes_take_the_node_trapezoid(self):
        dist = self.DISTS["uniform"]
        pol, meas = self._law(dist, 64)
        x, f, h = meas.grid, meas.density, pol.h
        down, up = eh.crossing_rates(meas, pol, self.HP, dist, x)
        for i in range(x.size):
            w = np.full(i + 1, h)
            w[0] = 0.5 * h
            w[-1] = 0.5 * h if i > 0 else 0.0
            conv = float(np.dot(eh.survival(dist, x[i] - x[: i + 1]) * w, f[: i + 1]))
            assert up[i] == self.HP.lam * (meas.atom * eh.survival(dist, x[i]) + conv)
        np.testing.assert_allclose(down, f * pol.density_side_values(), rtol=1e-14, atol=0.0)
        assert np.array_equal(down - up,
                              eh.level_crossing_residual(meas, pol, self.HP, dist))

    @pytest.mark.parametrize("level", [-1e-9, 3.0 + 1e-9, math.nan])
    def test_level_off_the_span_rejected(self, level):
        pol, meas = self._law(exp_dist(), 32)
        with pytest.raises(DomainError):
            eh.crossing_rates(meas, pol, self.HP, exp_dist(), [1.0, level])


class TestMeanPower:
    def test_unbounded_constant_policy(self):
        hp = eh.HarvestParams(1.0, 1.0)
        pol = eh.constant_policy(2.0, 10.0, 256)
        meas = eh.measure_closed_form(pol, hp)
        assert eh.mean_power(meas, pol) == pytest.approx(1.0, abs=1e-8)

    def test_all_atom_measure(self):
        pol = eh.constant_policy(2.0, 1.0, 64)
        meas = eh.StationaryMeasure(grid=pol.grid, atom=1.0,
                                    density=np.zeros(65),
                                    cell_masses=np.zeros(64))
        assert eh.mean_power(meas, pol) == 0.0

    def test_unnormalized_rejected(self):
        pol = eh.constant_policy(2.0, 1.0, 64)
        meas = eh.StationaryMeasure(grid=pol.grid, atom=0.5,
                                    density=np.zeros(65),
                                    cell_masses=np.zeros(64))
        with pytest.raises(DomainError):
            eh.mean_power(meas, pol)

    def test_bounded_by_truncated_input_rate(self, solves):
        # the converged policy pushes the mean power close to its ceiling
        report = solves.get(3.0, 0.0, 0.001)
        bound = 1.0 * -math.expm1(-3.0)
        got = eh.mean_power(report.measures[0], report.policies[0])
        assert got <= bound + 1e-9
        assert bound - got < 0.02


class TestExportImport:
    def test_policy_round_trip(self, tmp_path):
        pol = eh.policy_from_function(lambda x: 1.0 + x, 2.0, 128)
        path = tmp_path / "policy.csv"
        eh.measures.export_policy(pol, path)
        back = eh.measures.load_policy(path)
        assert np.allclose(back.values, pol.values)
        assert back.p0plus == pol.p0plus

    def test_measure_header_has_atom(self, tmp_path):
        hp = eh.HarvestParams(1.0, 1.0, 2.0)
        pol = eh.constant_policy(1.5, 2.0, 128)
        meas = eh.measure_closed_form(pol, hp)
        path = tmp_path / "measure.csv"
        eh.measures.export_measure(meas, path)
        text = path.read_text(encoding="utf-8")
        assert "atom" in text.splitlines()[0]
        data = np.loadtxt(path)
        assert data.shape == (129, 2)
