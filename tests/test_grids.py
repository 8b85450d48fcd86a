import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehmac as eh
from ehmac.errors import DomainError
from ehmac.grids import grid_spacing, uniform_grid
from ehmac.measures import load_policy


def search_cell(x, levels):
    """The binary-search rule ``locate`` must match: last node at or below."""
    clipped = np.minimum(levels, x[-1])
    return np.clip(np.searchsorted(x, clipped, side="right") - 1, 0, x.size - 2)


def csv_round_trip(policy, digits):
    """The policy read back from a file whose numbers keep ``digits`` digits."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "policy.csv"
        np.savetxt(path, np.column_stack([policy.grid, policy.values]),
                   fmt=f"%.{digits}g", header=f"p0plus = {policy.p0plus!r}")
        return load_policy(path)


@st.composite
def located_grids(draw):
    """A policy on a uniform grid, as built or as rounded through a CSV file.

    Rounding to 13-16 digits moves the nodes off i*h by a few ulps of the
    span; 17 digits, like ``export_policy``, reads back the same floats.
    """
    n = draw(st.integers(1, 4096))
    span = draw(st.floats(1e-3, 1e3))
    values = np.concatenate(([0.0], np.linspace(0.5, 2.0, n)))
    policy = eh.PolicyGrid(uniform_grid(span, n), values, p0plus=0.5)
    digits = draw(st.one_of(st.none(), st.integers(13, 17)))
    return policy if digits is None else csv_round_trip(policy, digits)


class TestLocate:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(located_grids(), st.lists(st.floats(0.0, 1.5), max_size=64))
    def test_cell_equals_binary_search(self, policy, fracs):
        interp = policy.interp(extend=True)
        x = interp.x
        levels = np.concatenate((
            x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
            np.asarray(fracs) * x[-1], [-1e-12 * x[-1], 2.0 * x[-1], np.inf]))
        cells = interp.locate(levels)[0]
        np.testing.assert_array_equal(cells, search_cell(x, levels))
        for level in levels[::97]:
            assert interp.locate(level)[0] == search_cell(x, level)

    @pytest.mark.parametrize("extend", [False, True])
    def test_nan_level_raises(self, extend):
        interp = eh.policy_from_function(lambda v: 0.3 + v, 2.0, 64).interp(extend=extend)
        for levels in (np.nan, np.array([0.5, np.nan, 1.0])):
            for reader in (interp.locate, interp.value, interp.tau, interp.power_integral):
                with pytest.raises(DomainError, match="NaN"):
                    reader(levels)

    @pytest.mark.parametrize("extend", [False, True])
    def test_level_below_empty_raises(self, extend):
        interp = eh.policy_from_function(lambda v: 0.3 + v, 2.0, 64).interp(extend=extend)
        for reader in (interp.value, interp.tau, interp.power_integral):
            for levels in (-1.0, -np.inf, np.array([0.5, -1.0]), np.array([-np.inf, 1.0])):
                with pytest.raises(DomainError, match="below empty"):
                    reader(levels)
            # roundoff below empty is read in the first cell
            assert reader(-1e-12 * interp.x[-1]) == pytest.approx(reader(0.0), abs=1e-11)

    @pytest.mark.parametrize("span, rates, match", [
        (2.0, np.full(9, 1e200), "1e\\+200 is too large"),  # p^2 overflows
        (1e-3, np.geomspace(1.0, 1e153, 9), "1e\\+153 is too large"),  # its slope does
        (2.0, np.full(9, 1e-320), "is too small"),  # the drain times do
    ], ids=["square", "slope", "drain_time"])
    def test_rates_beyond_the_float_range_rejected(self, span, rates, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=match):
                eh.PolicyGrid(uniform_grid(span, 8), np.concatenate(([0.0], rates[1:])),
                              p0plus=rates[0]).interp()


def same_bits(got, want):
    """Float lists equal bit for bit, signed zeros and NaN payloads included."""
    return np.array_equal(np.asarray(got, dtype=float).view(np.int64),
                          np.asarray(want, dtype=float).view(np.int64))


@st.composite
def shaped_grids(draw):
    """A rising, falling or unordered policy, as built or rounded through a CSV file."""
    n = draw(st.integers(1, 64))
    span = draw(st.floats(1e-2, 1e2))
    p = draw(st.lists(st.floats(0.01, 10.0), min_size=n + 1, max_size=n + 1))
    shape = draw(st.sampled_from(["rising", "falling", "unordered"]))
    if shape != "unordered":
        p.sort(reverse=shape == "falling")
    policy = eh.PolicyGrid(uniform_grid(span, n), np.asarray([0.0] + p[1:]), p0plus=p[0])
    digits = draw(st.one_of(st.none(), st.integers(13, 17)))
    return policy if digits is None else csv_round_trip(policy, digits)


class TestScalarMaps:
    """The float drain maps return the array maps' floats, bit for bit."""

    @staticmethod
    def probes(interp, fracs):
        x, t = interp.x, interp.tau_nodes
        mids = np.asarray(fracs)
        levels = np.concatenate((
            [0.0, -0.0, -1e-12 * x[-1]], x, np.nextafter(x, -np.inf)[1:],
            np.nextafter(x, np.inf), mids * x[-1],
            [1.5 * x[-1], 1e3 * x[-1], np.inf]))
        taus = np.concatenate((
            [0.0, -1.0], t, np.nextafter(t, -np.inf)[1:], np.nextafter(t, np.inf),
            mids * t[-1], interp.tau(np.minimum(levels[3:-3], x[-1])),
            [1.5 * t[-1], 1e3 * t[-1]]))
        return levels, taus

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(shaped_grids(), st.booleans(), st.lists(st.floats(0.0, 1.0), max_size=32))
    def test_equal_to_the_array_maps(self, policy, extend, fracs):
        interp = policy.interp(extend=extend)
        tau, tau_inverse = interp.scalar_maps
        levels, taus = self.probes(interp, fracs)
        if not extend:   # beyond the top only the span tolerance is read
            levels = levels[levels <= interp.x[-1] * (1.0 + 1e-12)]
        assert same_bits([tau(v) for v in levels.tolist()], interp.tau(levels))
        assert same_bits([tau_inverse(v) for v in taus.tolist()], interp.tau_inverse(taus))
        for v in levels[::7].tolist():
            assert same_bits(tau(v), interp.tau(v))

    @pytest.mark.parametrize("extend", [False, True])
    def test_guards_raise_as_the_array_map(self, extend):
        interp = eh.policy_from_function(lambda v: 0.3 + v, 2.0, 64).interp(extend=extend)
        tau, tau_inverse = interp.scalar_maps
        bad = {"NaN": [np.nan], "below empty": [-1.0, -1e-6, -np.inf]}
        if not extend:
            bad["beyond the policy grid"] = [2.0 * (1.0 + 2e-9), 3.0, np.inf]
        for message, levels in bad.items():
            for level in levels:
                for reader in (tau, interp.tau):
                    with pytest.raises(DomainError, match=message):
                        reader(level)
        # the inverse has no guard: a NaN drain time reads a NaN level in both
        assert np.isnan(tau_inverse(np.nan)) and np.isnan(interp.tau_inverse(np.nan))

    def test_built_once_per_policy(self):
        interp = eh.constant_policy(1.0, 2.0, 16).interp()
        assert interp.scalar_maps is interp.scalar_maps
        assert eh.constant_policy(1.0, 2.0, 16).interp().scalar_maps is not interp.scalar_maps


class TestGridSpacing:
    def test_zero_span_rejected(self):
        with pytest.raises(DomainError, match="positive"):
            grid_spacing(np.zeros(5))
        with pytest.raises(DomainError):
            eh.PolicyGrid(grid=np.zeros(5), values=np.zeros(5), p0plus=1.0)

    def test_accumulated_drift_rejected(self):
        # every step is within the step tolerance (1e-12 absolute below
        # h = 1), but the nodes drift 45 cells away from i*h
        n = 10_000
        h = 1e-10
        steps = np.full(n, h)
        steps[: n // 2] += 0.9e-12
        steps[n // 2:] -= 0.9e-12
        x = np.concatenate(([0.0], np.cumsum(steps)))
        assert np.allclose(np.diff(x), h, rtol=1e-9, atol=1e-12)
        with pytest.raises(DomainError, match="uniform"):
            grid_spacing(x)


class TestUniformGrid:
    def test_one_shared_read_only_array(self):
        x = uniform_grid(2.0, 64)
        assert uniform_grid(np.float64(2.0), np.int64(64)) is x
        assert uniform_grid(2.0, 65) is not x
        np.testing.assert_array_equal(x, np.linspace(0.0, 2.0, 65))
        with pytest.raises(ValueError):
            x[1] = 0.5
        policy = eh.constant_policy(1.0, 2.0, 64)
        assert policy.grid is x

    @pytest.mark.parametrize("capacity, n", [(0.0, 8), (np.inf, 8), (1.0, 0)])
    def test_bad_span_or_count_rejected(self, capacity, n):
        with pytest.raises(DomainError):
            uniform_grid(capacity, n)
