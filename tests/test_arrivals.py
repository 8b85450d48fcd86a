import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import ehmac as eh
from ehmac.errors import DomainError


class TestHarvestParams:
    def test_basic_fields(self):
        hp = eh.HarvestParams(2.0, 0.5, 4.0)
        assert hp.mean_input_rate == 4.0
        assert not hp.is_infinite

    def test_infinite_capacity(self):
        hp = eh.HarvestParams(1.0, 1.0)
        assert hp.is_infinite

    def test_invalid(self):
        with pytest.raises(DomainError):
            eh.HarvestParams(-1.0, 1.0)
        with pytest.raises(DomainError):
            eh.HarvestParams(1.0, 0.0)
        with pytest.raises(DomainError):
            eh.HarvestParams(1.0, 1.0, -3.0)
        with pytest.raises(DomainError):
            eh.HarvestParams(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("lam, zeta, name", [
        (math.inf, 1.0, "lam"), (math.nan, 1.0, "lam"), (1.0, math.inf, "zeta"),
        (1.0, math.nan, "zeta"), (1e300, 1e-300, "zeta"),
    ])
    def test_non_finite_rejected(self, lam, zeta, name):
        # an infinite rate or mean packet, or lam / zeta beyond the floats
        with pytest.raises(DomainError, match="finite") as err:
            eh.HarvestParams(lam, zeta, 2.0)
        assert err.value.field == name


class TestSurvival:
    def test_exponential_at_zero(self):
        dist = eh.PacketDistribution.exponential(1.0)
        assert eh.survival(dist, 0.0) == 1.0

    def test_exponential_at_one(self):
        dist = eh.PacketDistribution.exponential(1.0)
        assert eh.survival(dist, 1.0) == pytest.approx(math.exp(-1.0))

    def test_tabulated_uniform_midpoint(self):
        dist = eh.PacketDistribution.tabulated([0.0, 2.0], [0.0, 1.0])
        assert eh.survival(dist, 1.0) == pytest.approx(0.5)
        assert dist.mean() == pytest.approx(1.0)

    @pytest.mark.parametrize("zeta", [math.inf, math.nan, 0.0, -1.0, 5e-324, 5e-309])
    def test_exponential_parameter_finite_positive(self, zeta):
        with pytest.raises(DomainError) as err:
            eh.PacketDistribution.exponential(zeta)
        assert err.value.field == "zeta"

    def test_tiny_exponential_parameter_keeps_a_finite_mean(self):
        # 1 / zeta overflows only below about 5.6e-309
        assert eh.PacketDistribution.exponential(1e-308).mean() == 1e308

    def test_negative_energy_rejected(self):
        dist = eh.PacketDistribution.exponential(1.0)
        with pytest.raises(DomainError):
            eh.survival(dist, -0.5)

    def test_bad_tabulation(self):
        with pytest.raises(DomainError):
            eh.PacketDistribution.tabulated([0.0, 0.0], [0.0, 1.0])
        with pytest.raises(DomainError):
            eh.PacketDistribution.tabulated([0.0, 1.0], [0.2, 1.1])

    @pytest.mark.parametrize("xs, cdf", [
        ([0.0, math.nan, 2.0], [0.0, 0.5, 1.0]),
        ([0.0, 1.0, 2.0], [0.0, math.nan, 1.0]),
        ([0.0, 1.0, math.inf], [0.0, 0.5, 1.0]),
    ])
    def test_non_finite_knots_rejected(self, xs, cdf):
        with pytest.raises(DomainError, match="finite"):
            eh.PacketDistribution.tabulated(xs, cdf)


class TestSampleArrivals:
    def test_rate_law_of_large_numbers(self):
        hp = eh.HarvestParams(1.0, 1.0)
        dist = eh.PacketDistribution.exponential(1.0)
        times, energies = eh.sample_arrivals(hp, dist, 1e4, seed=5)
        assert times.size / 1e4 == pytest.approx(1.0, abs=0.05)
        assert float(np.mean(energies)) == pytest.approx(1.0, abs=0.05)

    def test_times_sorted_within_horizon(self):
        hp = eh.HarvestParams(2.0, 1.0)
        dist = eh.PacketDistribution.exponential(1.0)
        times, _ = eh.sample_arrivals(hp, dist, 500.0, seed=1)
        assert np.all(np.diff(times) > 0.0)
        assert times[-1] <= 500.0

    def test_zero_horizon_rejected(self):
        hp = eh.HarvestParams(1.0, 1.0)
        dist = eh.PacketDistribution.exponential(1.0)
        with pytest.raises(DomainError):
            eh.sample_arrivals(hp, dist, 0.0, seed=0)

    @pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan, -1.0])
    def test_horizon_positive_and_finite(self, horizon):
        hp = eh.HarvestParams(1.0, 1.0)
        dist = eh.PacketDistribution.exponential(1.0)
        with pytest.raises(DomainError) as err:
            eh.sample_arrivals(hp, dist, horizon, seed=0)
        assert err.value.field == "horizon"

    @pytest.mark.parametrize("name, value", [
        ("seed", -1), ("seed", 1.5), ("seed", True), ("node", -1), ("node", 0.5),
        ("replication", -2), ("replication", 2.0)])
    def test_stream_keys_nonnegative_integers(self, name, value):
        hp = eh.HarvestParams(1.0, 1.0)
        dist = eh.PacketDistribution.exponential(1.0)
        keys = {"seed": 0, "node": 0, "replication": 0, name: value}
        with pytest.raises(DomainError) as err:
            eh.sample_arrivals(hp, dist, 10.0, **keys)
        assert err.value.field == name

    def test_numpy_integer_keys_accepted(self):
        hp = eh.HarvestParams(1.0, 1.0)
        dist = eh.PacketDistribution.exponential(1.0)
        a = eh.sample_arrivals(hp, dist, 50.0, seed=np.int64(3), node=np.int32(1),
                               replication=np.uint8(2))
        b = eh.sample_arrivals(hp, dist, 50.0, seed=3, node=1, replication=2)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_reproducible_bit_identical(self):
        hp = eh.HarvestParams(1.3, 0.7)
        dist = eh.PacketDistribution.exponential(0.7)
        a = eh.sample_arrivals(hp, dist, 200.0, seed=9, node=1, replication=2)
        b = eh.sample_arrivals(hp, dist, 200.0, seed=9, node=1, replication=2)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_streams_differ_by_node_and_replication(self):
        hp = eh.HarvestParams(1.0, 1.0)
        dist = eh.PacketDistribution.exponential(1.0)
        base = eh.sample_arrivals(hp, dist, 100.0, seed=9)[0]
        other_node = eh.sample_arrivals(hp, dist, 100.0, seed=9, node=1)[0]
        other_rep = eh.sample_arrivals(hp, dist, 100.0, seed=9, replication=1)[0]
        assert base.size == 0 or not np.array_equal(base[:10], other_node[:10])
        assert base.size == 0 or not np.array_equal(base[:10], other_rep[:10])

    def test_interarrivals_pass_ks(self):
        hp = eh.HarvestParams(1.5, 1.0)
        dist = eh.PacketDistribution.exponential(1.0)
        times, _ = eh.sample_arrivals(hp, dist, 1e5 / 1.5 + 100.0, seed=11)
        gaps = np.diff(times)[:100_000]
        assert gaps.size >= 90_000
        res = sps.kstest(gaps, "expon", args=(0.0, 1.0 / 1.5))
        assert res.pvalue > 0.01

    def test_zero_intensity(self):
        hp = eh.HarvestParams(0.0, 1.0)
        dist = eh.PacketDistribution.exponential(1.0)
        times, energies = eh.sample_arrivals(hp, dist, 10.0, seed=0)
        assert times.size == 0 and energies.size == 0

    def test_tabulated_sampling_matches_cdf(self):
        dist = eh.PacketDistribution.tabulated([0.0, 2.0], [0.0, 1.0])
        rng = np.random.Generator(np.random.Philox(3))
        draws = dist.sample(rng, 50_000)
        assert draws.min() >= 0.0 and draws.max() <= 2.0
        assert float(np.mean(draws)) == pytest.approx(1.0, abs=0.02)


# every float the constructors may meet: infinities, NaN, zeros, negatives,
# subnormals and the extremes
any_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324,
                     1.7976931348623157e308, 1.0]))


class TestConstructorsNeverGiveNaN:
    """A constructor rejects its input with a typed error, or what it built
    reads finite."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(any_float, any_float)
    def test_harvest_params(self, lam, zeta):
        try:
            hp = eh.HarvestParams(lam, zeta, 2.0)
        except DomainError:
            return
        assert math.isfinite(hp.mean_input_rate)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(any_float)
    def test_exponential_packets(self, zeta):
        try:
            dist = eh.PacketDistribution.exponential(zeta)
        except DomainError:
            return
        assert math.isfinite(dist.cdf(0.0)) and math.isfinite(eh.survival(dist, 0.0))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(any_float)
    def test_rate_function(self, n0):
        try:
            rf = eh.RateFunction(n0)
        except DomainError:
            return
        # the rate at the noise power itself is half a bit for any n0
        assert math.isfinite(eh.rate(rf, rf.n0))
