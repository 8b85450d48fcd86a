import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehmac as eh
from ehmac import measures
from ehmac.errors import DomainError, NumericOverflowError
from ehmac.grids import uniform_grid


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

    @pytest.mark.parametrize("route, policy, where", [
        ("closed_form", lambda: eh.constant_policy(1e-320, 2.0, 512), 2.0 / 512),
        ("closed_form", lambda: eh.policy_from_function(lambda x: 1 + x, 2.0, 64,
                                                        p0plus=1e-320), 0.0),
        ("volterra", lambda: eh.policy_from_function(lambda x: 1 + x, 2.0, 64,
                                                     p0plus=1e-320), 0.0),
    ], ids=["closed_form_rates", "closed_form_p0plus", "volterra_p0plus"])
    def test_subnormal_rate_raises_one_typed_error(self, route, policy, where):
        # 1 / p leaves the float range: the first level where it does is
        # named, and no numpy warning leaks (the suite makes one an error)
        hp = eh.HarvestParams(1.0, 1.0, 2.0)
        with pytest.raises(NumericOverflowError, match="floating range at level") as err:
            if route == "closed_form":
                eh.measure_closed_form(policy(), hp)
            else:
                eh.measure_volterra(policy(), hp, exp_dist())
        assert err.value.where == where

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


def _doubling_reference(policy, params):
    """The span search that ``measure_closed_form`` used before its closed form.

    Kept to pin the closed form's bits: it doubled the span and the cell
    count until the density tail integral fell below ``_TAIL_TOL``, at most
    40 times.  The kernel now takes the battery and returns the measure; the
    loop is otherwise as it was.  It must not be run on a tail that does not
    decay: its last grids would take terabytes.
    """
    lam, zeta = params.lam, params.zeta
    measures.check_admissible(policy, params)
    decay = zeta - lam / float(policy.values[-1])
    interp = policy.interp(extend=True)
    span = policy.capacity
    n = policy.n
    for _ in range(40):
        x = uniform_grid(span, n)
        pd = np.concatenate(([policy.p0plus], interp.value(x[1:])))
        measure = measures._closed_form_on_grid(x, pd, params)
        if decay > 0.0 and measure.density[-1] / decay < measures._TAIL_TOL:
            return measure
        span *= 2.0
        n *= 2
    raise NumericOverflowError("truncation span for the unbounded battery did not "
                               "stabilize", where=span)


def _unbounded_cases(count=240, seed=20261021):
    """Seeded policies on unbounded batteries, with a case label each.

    Shapes cycle through constant, rising, falling and bumpy; half the
    grids are the shared ``uniform_grid`` and half are ``arange`` grids
    that differ from it in the last bits.  Top rates run from 1.001 to 20
    times the mean input rate (every tenth case at 1.001).  Grids run from
    one cell to 256, and from fine steps to coarse ones (zeta h up to 60),
    where the cut law's tail mass is far from its continuous value 1 /
    decay.  The cell count is halved until the tail bound L + ln(1e8) /
    decay keeps the cut grid within 2**20 cells.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        lam, zeta = (float(v) for v in rng.uniform(0.2, 5.0, 2))
        margin = 1.001 if i % 10 == 0 else 1.0 + float(10.0 ** rng.uniform(-3.0, math.log10(19.0)))
        span = float(rng.uniform(0.05, 60.0)) / zeta
        n = int(rng.choice([1, 2, 4, 16, 64, 256]))
        decay = zeta * (1.0 - 1.0 / margin)
        while n > 1 and 2 * n * (1.0 + 18.43 / (decay * span)) > 2**20:
            n //= 2
        t = np.linspace(0.0, 1.0, n + 1)
        shape = ["constant", "rising", "falling", "bumpy"][i % 4]
        if shape == "constant":
            g = np.ones(n + 1)
        elif shape == "rising":
            a = rng.uniform(0.05, 1.0)
            g = a + (1.0 - a) * t
        elif shape == "falling":
            b = rng.uniform(1.0, 4.0)
            g = b - (b - 1.0) * t
        else:
            g = np.exp(rng.normal(0.0, 0.5, n + 1))
            g[-1] = 1.0
        top = margin * lam / zeta
        values = top * g
        values[0] = 0.0
        shared = bool(rng.random() < 0.5)
        grid = uniform_grid(span, n) if shared else np.arange(n + 1) * (span / n)
        policy = eh.PolicyGrid(grid=grid, values=values,
                               p0plus=float(values[1] * rng.uniform(0.1, 1.0)))
        yield policy, eh.HarvestParams(lam, zeta), (shape, shared, margin)


class TestUnboundedTruncation:
    """The cut of an unbounded battery's level axis comes from its exact tail."""

    def test_bits_match_the_doubling_search(self):
        doublings, shapes, grids, margins = set(), set(), set(), []
        for policy, hp, (shape, shared, margin) in _unbounded_cases():
            want = _doubling_reference(policy, hp)
            got = eh.measure_closed_form(policy, hp)
            for name in ("grid", "density", "cell_masses"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert got.atom == want.atom
            assert got.n <= 2**20
            doublings.add(got.n // policy.n)
            shapes.add(shape)
            grids.add(shared)
            margins.append(margin)
        assert 1 in doublings and len(doublings) >= 10, sorted(doublings)
        assert shapes == {"constant", "rising", "falling", "bumpy"}
        assert grids == {True, False}
        assert min(margins) == 1.001 and max(margins) > 10.0

    def test_returned_law_meets_the_tail_tolerance(self):
        for policy, hp, _ in _unbounded_cases(count=80, seed=7):
            got = eh.measure_closed_form(policy, hp)
            decay = hp.zeta - hp.lam / float(policy.values[-1])
            assert got.density[-1] / decay < measures._TAIL_TOL
            assert got.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_cut_beyond_the_cell_cap_raises_before_building_it(self, monkeypatch):
        # a top rate 1e-6 above the mean input: the tail asks for 512 * 2**21
        # cells, about 8.6 GB per float array
        hp = eh.HarvestParams(1.0, 1.0)
        policy = eh.constant_policy(1.000001, 12.0, 512)
        built = []
        monkeypatch.setattr(measures, "uniform_grid",
                            lambda span, n: built.append((span, n)) or uniform_grid(span, n))
        start = time.perf_counter()
        with pytest.raises(NumericOverflowError) as err:
            eh.measure_closed_form(policy, hp)
        assert time.perf_counter() - start < 0.1
        assert built == [(policy.capacity, policy.n)]
        assert f"{512 * 2**21} cells" in str(err.value)
        assert measures._MAX_CELLS >= 2**25

    @pytest.mark.parametrize("lam, zeta", [(1.0, 1.0), (0.1, 2.1)],
                             ids=["cut_above_the_cap", "no_decay_after_roundoff"])
    def test_top_rate_one_ulp_above_the_mean_input(self, monkeypatch, lam, zeta):
        # admissible by one ulp: decay is 2**-52 at (1, 1), and at (0.1, 2.1)
        # roundoff makes it 0 or less, where the search once doubled until
        # memory ran out
        hp = eh.HarvestParams(lam, zeta)
        top = float(np.nextafter(hp.mean_input_rate, np.inf))
        policy = eh.constant_policy(top, 12.0 / zeta, 64)
        built = []
        monkeypatch.setattr(measures, "uniform_grid",
                            lambda span, n: built.append((span, n)) or uniform_grid(span, n))
        with pytest.raises(NumericOverflowError):
            eh.measure_closed_form(policy, hp)
        assert built == [(policy.capacity, policy.n)]

    def test_cells_too_fine_for_the_tail_raise_a_typed_error(self):
        # zeta h = 1e-330 underflows rate h and decay h to 0, where the tail
        # formula's logs would raise ValueError: the cut lies beyond any grid
        hp = eh.HarvestParams(1e-300, 1e-300)
        policy = eh.constant_policy(2.0, 1e-28, 100)
        with pytest.raises(NumericOverflowError, match="does not decay"):
            eh.measure_closed_form(policy, hp)


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
