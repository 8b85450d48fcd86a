"""Stationary battery-charge measures for admissible release policies.

The storage level under an admissible policy has a unique stationary law
made of an atom at zero (battery empty) plus a density on (0, L].  Two
independent routes compute it:

* ``measure_closed_form`` -- exponential packets only; integrating factor of
  the balance equation gives the density directly from the cumulative
  1/p integral, evaluated with shifted exponentials so steep policies with
  tiny p(0+) cannot overflow.
* ``measure_volterra`` -- any packet law; marches the level-crossing balance
  as a second-kind Volterra equation with a trial atom, then rescales.

Both return the same object; tests cross-check them against each other and
against the Monte Carlo occupancy of the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arrivals import HarvestParams, PacketDistribution, survival
from .errors import DomainError, NumericOverflowError
from .grids import SPAN_TOL, PolicyInterp, grid_spacing, inv_power_cells, uniform_grid

__all__ = [
    "PolicyGrid",
    "StationaryMeasure",
    "measure_closed_form",
    "measure_volterra",
    "mean_power",
    "level_crossing_residual",
    "constant_policy",
    "policy_from_function",
    "export_measure",
    "export_policy",
    "load_policy",
]

_NORM_TOL = 1e-9
# An unbounded battery's level axis is truncated where the density tail
# integral falls below _TAIL_TOL; the span doubles up to _MAX_DOUBLINGS times.
_TAIL_TOL = 1e-8
_MAX_DOUBLINGS = 40


@dataclass(frozen=True)
class PolicyGrid:
    """Admissible release policy sampled on a uniform level grid.

    ``values[0]`` is pinned to 0 (no transmission from an empty battery) and
    ``p0plus`` carries the right limit p(0+) > 0 that solvers and quadratures
    use next to the empty state.
    """

    grid: np.ndarray
    values: np.ndarray
    p0plus: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        h = grid_spacing(grid)  # validates uniformity, raises DomainError
        if values.shape != grid.shape:
            raise DomainError("policy values must match the grid length")
        if values[0] != 0.0:
            raise DomainError("release rate at an empty battery must be 0")
        if np.any(values[1:] <= 0.0):
            raise DomainError("release rate must be positive for levels > 0")
        if not np.all(np.isfinite(values)):
            raise DomainError("release rate must be finite everywhere")
        if not (self.p0plus > 0.0 and math.isfinite(self.p0plus)):
            raise DomainError(f"p(0+) must be positive and finite, got {self.p0plus}")
        object.__setattr__(self, "_h", h)

    @property
    def capacity(self) -> float:
        return float(self.grid[-1])

    @property
    def h(self) -> float:
        return self._h

    @property
    def n(self) -> int:
        return self.grid.size - 1

    def density_side_values(self) -> np.ndarray:
        """Policy samples with the right limit substituted at level 0."""
        p = self.values.copy()
        p[0] = self.p0plus
        return p

    def interp(self, extend: bool = False) -> PolicyInterp:
        return PolicyInterp(self.grid, self.density_side_values(), extend=extend)

    def density_side_on(self, grid: np.ndarray) -> np.ndarray:
        """Density-side samples at the nodes of another level grid.

        The policy's own samples when the grids match; otherwise p(0+)
        followed by the interpolant, continued past the top, at grid[1:].
        """
        if grid.size == self.grid.size and np.allclose(grid, self.grid):
            return self.density_side_values()
        return np.concatenate(([self.p0plus], self.interp(extend=True).value(grid[1:])))


def policy_from_function(fn, capacity: float, n: int, p0plus: float | None = None) -> PolicyGrid:
    """Sample ``fn`` on a uniform grid; p(0+) defaults to the limit fn(0+)."""
    x = uniform_grid(capacity, n)
    values = np.asarray([0.0] + [float(fn(v)) for v in x[1:]], dtype=float)
    if p0plus is None:
        p0plus = float(fn(x[1] * 1e-9))
    return PolicyGrid(grid=x, values=values, p0plus=p0plus)


def constant_policy(level: float, capacity: float, n: int = 256) -> PolicyGrid:
    """Constant release rate ``level`` on (0, capacity]."""
    if not level > 0.0:
        raise DomainError(f"constant release rate must be positive, got {level}")
    x = uniform_grid(capacity, n)
    values = np.full(n + 1, float(level))
    values[0] = 0.0
    return PolicyGrid(grid=x, values=values, p0plus=float(level))


@dataclass(frozen=True)
class StationaryMeasure:
    """Atom at zero plus density samples of the stationary charge law.

    ``density[0]`` stores the right limit f(0+) = lam * atom / p(0+);
    ``cell_masses`` hold the per-cell integral of the density so that the
    atom and the masses sum to one exactly.
    """

    grid: np.ndarray
    atom: float
    density: np.ndarray
    cell_masses: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (0.0 <= self.atom <= 1.0 + 1e-12):
            raise DomainError(f"atom must lie in [0, 1], got {self.atom}")
        if np.any(np.asarray(self.density) < 0.0):
            raise DomainError("density must be nonnegative")
        if not np.all((np.asarray(self.cell_masses) >= 0.0) & np.isfinite(self.cell_masses)):
            raise DomainError("cell masses must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.grid.size - 1

    def total_mass(self) -> float:
        return float(self.atom + np.sum(self.cell_masses))

    def node_weights(self) -> np.ndarray:
        """Quadrature weights against the density for node-sampled integrands."""
        m = self.cell_masses
        w = np.empty(self.grid.size)
        w[0] = 0.5 * m[0]
        w[-1] = 0.5 * m[-1]
        w[1:-1] = 0.5 * (m[:-1] + m[1:])
        return w

    def expectation(self, node_values, at_zero: float = 0.0) -> float:
        """Mean of a level function; ``at_zero`` is its value on the atom."""
        return float(self.atom * at_zero + np.dot(self.node_weights(), node_values))

    def cdf(self) -> np.ndarray:
        """P(level <= x_i) on the grid nodes."""
        return self.atom + np.concatenate(([0.0], np.cumsum(self.cell_masses)))

    def density_at(self, levels) -> np.ndarray:
        return np.interp(levels, self.grid, self.density)


def _require_normalized(measure: StationaryMeasure):
    if abs(measure.total_mass() - 1.0) > _NORM_TOL:
        raise DomainError("measure is not normalized")


def _closed_form_on_grid(x: np.ndarray, pd: np.ndarray, lam: float, zeta: float):
    """Atom, density, masses from the integrating-factor formula on one grid."""
    cells = lam * inv_power_cells(x, pd)
    with np.errstate(over="ignore"):
        cum = np.concatenate(([0.0], np.cumsum(cells)))
    if not np.all(np.isfinite(cum)):
        bad = int(np.argmax(~np.isfinite(cum)))
        raise NumericOverflowError(
            f"cumulative 1/p integral left the floating range at level {x[bad]:.6g}",
            where=float(x[bad]))
    log_density = cum - zeta * x  # log of density * p / (lam * atom)
    xmid = 0.5 * (x[:-1] + x[1:])
    log_cell = cum[1:] - zeta * xmid
    shift = max(float(np.max(log_cell)), float(np.max(log_density)), 0.0)
    raw_masses = np.exp(log_cell - shift) * (-np.expm1(-cells))
    denom = math.exp(-shift) + float(np.sum(raw_masses))
    atom = math.exp(-shift) / denom
    masses = raw_masses / denom
    density = lam * np.exp(log_density - shift) / pd / denom
    return atom, density, masses


def check_span(policy: PolicyGrid, params: HarvestParams) -> None:
    """Raise DomainError unless a finite battery's policy grid spans its capacity."""
    if not params.is_infinite and (abs(policy.capacity - params.capacity)
                                   > SPAN_TOL * max(params.capacity, 1.0)):
        raise DomainError("policy grid span must equal the battery capacity")


def measure_closed_form(policy: PolicyGrid, params: HarvestParams) -> StationaryMeasure:
    """Stationary measure under exponential packets from the closed form.

    For an unbounded battery the level axis is truncated where the density
    tail integral falls below ``_TAIL_TOL``, doubling the span until stable;
    the policy continues at its last sampled value beyond its own grid.
    """
    lam, zeta = params.lam, params.zeta
    if not params.is_infinite:
        check_span(policy, params)
        x = policy.grid
        pd = policy.density_side_values()
        atom, density, masses = _closed_form_on_grid(x, pd, lam, zeta)
        return StationaryMeasure(grid=x, atom=atom, density=density, cell_masses=masses)

    tail_rate = float(policy.values[-1])
    if lam > 0.0 and tail_rate <= params.mean_input_rate:
        raise DomainError(
            "no stationary law: tail release rate must exceed the mean energy "
            f"input rate {params.mean_input_rate:.6g}")
    interp = policy.interp(extend=True)
    span = policy.capacity
    n = policy.n
    for _ in range(_MAX_DOUBLINGS):
        x = uniform_grid(span, n)
        pd = np.concatenate(([policy.p0plus], interp.value(x[1:])))
        atom, density, masses = _closed_form_on_grid(x, pd, lam, zeta)
        # beyond the truncation the density decays at least at rate zeta - lam/p
        decay = zeta - lam / tail_rate
        tail = density[-1] / decay if decay > 0 else math.inf
        if tail < _TAIL_TOL:
            return StationaryMeasure(grid=x, atom=atom, density=density,
                                     cell_masses=masses)
        span *= 2.0
        n *= 2
    raise NumericOverflowError("truncation span for the unbounded battery did not "
                               "stabilize", where=span)


def measure_volterra(policy: PolicyGrid, params: HarvestParams,
                     dist: PacketDistribution) -> StationaryMeasure:
    """Stationary measure from marching the level-crossing balance equation.

    Works for any packet law; requires a finite battery.  The equation is
    linear in the atom, so it is solved with a trial atom of 1 and rescaled
    to unit total mass.
    """
    if params.is_infinite:
        raise DomainError("the marching solver needs a finite battery capacity")
    check_span(policy, params)
    lam = params.lam
    x = policy.grid
    h = policy.h
    pd = policy.density_side_values()
    n = policy.n
    f = np.zeros(n + 1)
    f[0] = lam / policy.p0plus  # trial atom 1
    surv_grid = survival(dist, x)
    for i in range(1, n + 1):
        # trapezoid over [0, x_i] with the unknown endpoint moved to the left side
        tail = surv_grid[i]
        conv = h * (0.5 * tail * f[0] + float(np.dot(survival(dist, x[i] - x[1:i]), f[1:i])))
        denom = 1.0 - lam * h / (2.0 * pd[i])
        if denom <= 0.0:
            raise DomainError(
                f"marching step unstable at level {x[i]:.6g}: grid too coarse for "
                f"release rate {pd[i]:.3g}")
        f[i] = (lam / pd[i]) * (tail + conv) / denom
    masses = 0.5 * h * (f[:-1] + f[1:])
    total = 1.0 + float(np.sum(masses))
    return StationaryMeasure(grid=x, atom=1.0 / total, density=f / total,
                             cell_masses=masses / total)


def mean_power(measure: StationaryMeasure, policy: PolicyGrid) -> float:
    """Mean transmission power under the stationary law (atom contributes 0)."""
    _require_normalized(measure)
    return measure.expectation(policy.density_side_on(measure.grid))


def level_crossing_residual(measure: StationaryMeasure, policy: PolicyGrid,
                            params: HarvestParams, dist: PacketDistribution) -> np.ndarray:
    """Pointwise gap between down- and up-crossing rates at every grid node.

    Zero for the exact stationary law; discretization leaves O(h^2).
    """
    _require_normalized(measure)
    x = measure.grid
    f = measure.density
    h = grid_spacing(x)
    down = f * policy.density_side_on(x)
    lam = params.lam
    up = np.empty_like(down)
    weights = np.full(x.size, h)
    weights[0] = weights[-1] = 0.5 * h
    for i in range(x.size):
        w = weights[: i + 1].copy()
        w[-1] = 0.5 * h if i > 0 else 0.0
        kern = survival(dist, x[i] - x[: i + 1])
        up[i] = lam * (measure.atom * survival(dist, x[i]) + float(np.dot(kern * w, f[: i + 1])))
    return down - up


def export_measure(measure: StationaryMeasure, path):
    """Two-column text (level, density) with the atom in the header."""
    header = f"atom = {measure.atom!r}\ncolumns = level, density"
    np.savetxt(path, np.column_stack([measure.grid, measure.density]), header=header)


def export_policy(policy: PolicyGrid, path):
    header = f"p0plus = {policy.p0plus!r}\ncolumns = level, release_rate"
    np.savetxt(path, np.column_stack([policy.grid, policy.values]), header=header)


def load_policy(path) -> PolicyGrid:
    """Read a policy written by ``export_policy``."""
    p0plus = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") and "p0plus" in line:
                p0plus = float(line.split("=", 1)[1])
                break
    data = np.loadtxt(path, ndmin=2)
    if data.shape[1] != 2:
        raise DomainError(f"expected two columns in {path}")
    if p0plus is None:
        raise DomainError(f"missing p0plus header in {path}")
    return PolicyGrid(grid=data[:, 0], values=data[:, 1], p0plus=p0plus)
