import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_density_side_on_another_grid_interpolates(self):
        # a grid stretched by 2e-6 is not the policy's own: its nodes read the
        # interpolant, not the policy's samples at other levels
        pol = eh.policy_from_function(lambda x: 0.2 + x * x, 2.0, 64)
        stretched = pol.grid * (1.0 + 2e-6)
        got = pol.density_side_on(stretched)
        want = np.concatenate(([pol.p0plus], pol.interp(extend=True).value(stretched[1:])))
        np.testing.assert_array_equal(got, want)
        assert not np.array_equal(got, pol.density_side_values())
        assert np.array_equal(pol.density_side_on(pol.grid.copy()), pol.density_side_values())


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
        with pytest.raises(DomainError):  # equal to it
            eh.measure_closed_form(eh.constant_policy(1.0, 10.0, 128), hp)

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


class TestZeroEnergyPackets:
    """Packets of zero energy never cross a level: the law is the thinned one."""

    HP = eh.HarvestParams(1.0, 1.0, 3.0)
    DIST = eh.PacketDistribution.tabulated([0.0, 2.0], [0.5, 1.0])
    # half the arrivals, packets conditioned on being positive
    THINNED = (eh.HarvestParams(0.5, 1.0, 3.0),
               eh.PacketDistribution.tabulated([0.0, 2.0], [0.0, 1.0]))

    def _laws(self, n):
        pol = eh.policy_from_function(lambda x: 0.5 + 0.8 * x, 3.0, n)
        return (pol, eh.measure_volterra(pol, self.HP, self.DIST),
                eh.measure_volterra(pol, *self.THINNED))

    def test_marching_law_is_the_thinned_law(self):
        atoms = []
        for n in (128, 256, 512, 1024):
            _, meas, thinned = self._laws(n)
            assert meas.atom == pytest.approx(thinned.atom, rel=1e-12)
            np.testing.assert_allclose(meas.density, thinned.density, rtol=1e-12)
            atoms.append(meas.atom)
        # second order: each halving of h quarters the step in the atom
        steps = np.diff(atoms)
        np.testing.assert_allclose(steps[:-1] / steps[1:], 4.0, rtol=0.05)

    def test_residual_at_roundoff_at_every_node(self):
        pol, meas, _ = self._laws(256)
        resid = eh.level_crossing_residual(meas, pol, self.HP, self.DIST)
        assert np.max(np.abs(resid)) < 1e-14


def smooth_policies(capacity, n):
    """Rising quadratic policies p(x) = a + b x + c x**2 with p >= 0.3."""
    return st.builds(lambda a, b, c: eh.policy_from_function(
                         lambda x: a + b * x + c * x * x, capacity, n),
                     st.floats(0.3, 2.0), st.floats(0.0, 1.5), st.floats(0.0, 1.0))


@st.composite
def tabulated_laws(draw):
    """A tabulated packet law of 2-6 knots, half of them with an atom at zero."""
    k = draw(st.integers(2, 6))
    xs = np.cumsum([0.0] + draw(st.lists(st.floats(0.05, 2.0), min_size=k - 1,
                                         max_size=k - 1)))
    cdf = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    cdf[-1] = 1.0
    if draw(st.booleans()):
        cdf[0] = 0.0
    return eh.PacketDistribution.tabulated(xs, cdf)


class TestLawProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), capacity=st.floats(0.5, 4.0), lam=st.floats(0.5, 2.0),
           zeta=st.floats(0.5, 2.0))
    def test_closed_form_matches_marching(self, data, capacity, lam, zeta):
        # both routes are second order; over 300 random draws the gaps read
        # at most 0.49 h**2 in the atom and 1.2 h**2 max(f) in the density
        n = 256
        pol = data.draw(smooth_policies(capacity, n))
        hp = eh.HarvestParams(lam, zeta, capacity)
        closed = eh.measure_closed_form(pol, hp)
        marched = eh.measure_volterra(pol, hp, exp_dist(zeta))
        h2 = (capacity / n) ** 2
        assert abs(closed.atom - marched.atom) <= 2.0 * h2
        assert np.max(np.abs(closed.density - marched.density)) <= 5.0 * h2 * np.max(
            closed.density)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), dist=tabulated_laws(), capacity=st.floats(0.5, 4.0),
           lam=st.floats(0.1, 2.0))
    def test_marching_mass_and_residual(self, data, dist, capacity, lam):
        # the march solves the very balance the residual evaluates, so only
        # roundoff is left at every node, level 0 included
        pol = data.draw(smooth_policies(capacity, 128))
        hp = eh.HarvestParams(lam, 1.0, capacity)
        meas = eh.measure_volterra(pol, hp, dist)
        assert meas.total_mass() == pytest.approx(1.0, abs=1e-12)
        down, up = eh.crossing_rates(meas, pol, hp, dist, meas.grid)
        assert np.max(np.abs(down - up)) <= 1e-13 * np.max(down)


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
