import tempfile
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
