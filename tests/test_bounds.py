import math

import pytest

import ehmac as eh
from ehmac.errors import DomainError, UsageError


def two_nodes(capacity):
    return [eh.HarvestParams(1.0, 1.0, capacity)] * 2


class TestFiniteBound:
    @pytest.mark.parametrize("capacity,expected", [
        (0.5, 0.4187), (1.0, 0.5895), (2.0, 0.7243), (3.0, 0.7681),
    ])
    def test_reference_values(self, rf, capacity, expected):
        assert eh.upper_bound_finite(two_nodes(capacity), rf) == pytest.approx(
            expected, abs=5e-5)

    def test_zero_capacity(self):
        # a battery that stores nothing is no battery: rejected where it is made
        with pytest.raises(DomainError, match="capacity must be positive"):
            eh.HarvestParams(1.0, 1.0, 0.0)

    def test_infinite_capacity_rejected(self, rf):
        with pytest.raises(UsageError):
            eh.upper_bound_finite([eh.HarvestParams(1.0, 1.0)], rf)

    def test_monotone_in_capacity_and_intensity(self, rf):
        caps = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [eh.upper_bound_finite(two_nodes(c), rf) for c in caps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        lams = [0.5, 1.0, 1.5, 2.5]
        vals = [eh.upper_bound_finite([eh.HarvestParams(l, 1.0, 2.0)], rf)
                for l in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_asymmetric_nodes(self, rf):
        nodes = [eh.HarvestParams(1.0, 1.0, 2.0), eh.HarvestParams(2.0, 1.0, 2.0)]
        arg = (1.0 - math.exp(-2.0)) * (1.0 + 2.0)
        assert eh.upper_bound_finite(nodes, rf) == pytest.approx(eh.rate(rf, arg))


class TestInfiniteBound:
    def test_two_nodes(self, rf):
        assert eh.upper_bound_infinite([eh.HarvestParams(1.0, 1.0)] * 2,
                                       rf) == pytest.approx(0.792, abs=5e-4)

    def test_no_arrivals(self, rf):
        assert eh.upper_bound_infinite([eh.HarvestParams(0.0, 1.0)], rf) == 0.0

    def test_three_nodes(self, rf):
        assert eh.upper_bound_infinite([eh.HarvestParams(1.0, 1.0)] * 3,
                                       rf) == pytest.approx(1.0)

    def test_finite_bound_approaches_it(self, rf):
        target = eh.upper_bound_infinite([eh.HarvestParams(1.0, 1.0)] * 2, rf)
        prev = -1.0
        for cap in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            val = eh.upper_bound_finite(two_nodes(cap), rf)
            assert prev < val <= target
            prev = val
        assert target - prev < 1e-6
