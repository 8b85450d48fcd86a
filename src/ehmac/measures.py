"""Stationary battery-charge measures for admissible release policies.

The storage level under an admissible policy has a unique stationary law
made of an atom at zero (battery empty) plus a density on (0, L].  It obeys
one level-crossing balance, down-crossings equal up-crossings at every level
x (P. H. Brill and M. J. M. Posner, Operations Research 25(4), 1977):

    f(x) p(x) = lam [atom S(x) + integral over (0, x] of S(x - v) f(v) dv],

with S = 1 - B the packet survival.  Two independent routes compute the law:

* ``measure_closed_form`` -- exponential packets only; integrating factor of
  the balance equation gives the density directly from the cumulative
  1/p integral, evaluated with shifted exponentials so steep policies with
  tiny p(0+) cannot overflow.
* ``measure_volterra`` -- any packet law, an atom at zero energy included;
  marches the balance as a second-kind Volterra equation with a trial atom,
  then rescales.  It solves node by node the very trapezoid sum that
  ``crossing_rates`` evaluates (one private kernel, ``_up_rate``), so its
  crossing residual is roundoff at every node.

Both return the same object; tests cross-check them against each other and
against the Monte Carlo occupancy of the simulator.  ``check_admissible`` is
the one rule both routes and the simulator apply to a policy: its grid spans a
finite battery, and on an unbounded one its top rate exceeds the mean input.
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
    "crossing_rates",
    "level_crossing_residual",
    "constant_policy",
    "policy_from_function",
    "export_measure",
    "export_policy",
    "load_policy",
]

_NORM_TOL = 1e-9
# An unbounded battery's level axis is truncated where the density tail
# integral falls below _TAIL_TOL.  Beyond the policy's grid the release rate
# is constant, so that tail is exactly exponential and fixes the span; a span
# of more than _MAX_CELLS cells raises before its grid is built (one law on
# 2**25 cells took about 8 s and 3.5 GiB at peak on a 2-core, 7 GiB machine).
_TAIL_TOL = 1e-8
_MAX_CELLS = 2**25


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
        return PolicyInterp(self, extend=extend)

    def density_side_on(self, grid: np.ndarray) -> np.ndarray:
        """Density-side samples at the nodes of another level grid.

        The policy's own samples when the grids match; otherwise p(0+)
        followed by the interpolant, continued past the top, at grid[1:].
        """
        if np.array_equal(grid, self.grid):
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

    def __getstate__(self):
        # ``throughput`` keeps the node law this measure last served, with
        # its transform rows, as ``_law``: copies and pickles start without it
        state = dict(self.__dict__)
        state.pop("_law", None)
        return state

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

    def expectation(self, node_values) -> float:
        """Mean of a level function that is 0 on the atom."""
        return float(np.dot(self.node_weights(), node_values))

    def cdf(self) -> np.ndarray:
        """P(level <= x_i) on the grid nodes."""
        return self.atom + np.concatenate(([0.0], np.cumsum(self.cell_masses)))

    def density_at(self, levels) -> np.ndarray:
        return np.interp(levels, self.grid, self.density)


def _require_normalized(measure: StationaryMeasure):
    if abs(measure.total_mass() - 1.0) > _NORM_TOL:
        raise DomainError("measure is not normalized")


def _require_finite(values: np.ndarray, x: np.ndarray, what: str):
    """Raise NumericOverflowError at the first level where ``values`` is not finite."""
    if not np.all(np.isfinite(values)):
        bad = int(np.argmax(~np.isfinite(values)))
        raise NumericOverflowError(
            f"{what} left the floating range at level {x[bad]:.6g}", where=float(x[bad]))


def _closed_form_on_grid(x: np.ndarray, pd: np.ndarray, params: HarvestParams):
    """The law from the integrating-factor formula on one grid."""
    with np.errstate(over="ignore"):
        cells = params.lam * inv_power_cells(x, pd)
        cum = np.concatenate(([0.0], np.cumsum(cells)))
    _require_finite(cum, x, "cumulative 1/p integral")
    log_density = cum - params.zeta * x  # log of density * p / (lam * atom)
    log_cell = cum[1:] - params.zeta * (0.5 * (x[:-1] + x[1:]))  # at the cell midpoints
    shift = max(float(np.max(log_cell)), float(np.max(log_density)), 0.0)
    raw_masses = np.exp(log_cell - shift) * (-np.expm1(-cells))
    denom = math.exp(-shift) + float(np.sum(raw_masses))
    # a subnormal rate, p(0+) at level 0 included, can leave f = lam atom / p infinite
    with np.errstate(over="ignore"):
        density = params.lam * np.exp(log_density - shift) / pd / denom
    _require_finite(density, x, "density")
    return StationaryMeasure(x, math.exp(-shift) / denom, density, raw_masses / denom)


def check_admissible(policy: PolicyGrid, params: HarvestParams,
                     dist: PacketDistribution | None = None) -> None:
    """Raise DomainError unless the policy admits a stationary law for the battery.

    A finite battery's policy grid must span its capacity.  An unbounded
    battery's tail release rate must exceed the mean energy input rate: lam
    times the mean of ``dist``, or lam / zeta without one.
    """
    if params.is_infinite:
        mean_input = params.mean_input_rate if dist is None else params.lam * dist.mean()
        if not policy.values[-1] > mean_input:
            raise DomainError("no stationary law: tail release rate must exceed the mean "
                              f"energy input rate {mean_input:.6g}")
    elif abs(policy.capacity - params.capacity) > SPAN_TOL * max(params.capacity, 1.0):
        raise DomainError("policy grid span must equal the battery capacity")


def check_probes(probes, policy: PolicyGrid) -> None:
    """Raise DomainError unless every crossing probe lies strictly inside (0, L)."""
    if not np.all((probes > 0.0) & (probes < policy.capacity)):
        raise DomainError("crossing probes must lie strictly inside (0, L)")


def _up_rate(lam, atom, h, kern, f, dq=0.0, top=0.0):
    """Up-crossing rate lam [atom S(q) + integral over (0, q] of S(q - v) f(v) dv].

    S = 1 - B is the packet survival.  ``kern[k]`` = S(q - x_k) and ``f[k]``
    are taken on the nodes x_0..x_j at or below the level q, so ``kern[0]`` is
    S(q).  The integral is the trapezoid rule on those nodes (weight h, h/2 at
    both ends, none when j = 0) plus the partial cell of width ``dq`` = q - x_j,
    whose top value is ``top`` = S(0) f(q).
    """
    w = np.full(kern.size, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h if kern.size > 1 else 0.0
    conv = float(np.dot(kern * w, f)) + 0.5 * dq * (kern[-1] * f[-1] + top)
    return lam * (atom * kern[0] + conv)


def measure_closed_form(policy: PolicyGrid, params: HarvestParams) -> StationaryMeasure:
    """Stationary measure under exponential packets from the closed form.

    For an unbounded battery the policy continues at its top rate p_top
    beyond its own span L, so there the density is exactly exponential with
    the rate decay = zeta - lam / p_top, which ``check_admissible`` makes
    positive up to roundoff, and the cells' masses form a geometric series.
    The level axis is cut where the density tail integral falls below
    ``_TAIL_TOL``: at L when the law on the policy's n cells meets it; else
    at the level where that series says a cut law meets it, rounded up to
    L 2**k for the smallest k >= 1, on n 2**k cells (the same step).  A tail
    that does not decay on the cells (decay <= 0 after roundoff, or rate h or
    decay h underflowing to 0), or a cut above ``_MAX_CELLS`` cells, raises
    NumericOverflowError before the larger grid is built.
    """
    check_admissible(policy, params)
    if not params.is_infinite:
        return _closed_form_on_grid(policy.grid, policy.density_side_values(), params)
    rate, h, span = params.lam / float(policy.values[-1]), policy.h, policy.capacity
    decay = params.zeta - rate   # rate = lam / p_top

    def law(k):
        x = uniform_grid(span * 2.0**k, policy.n * 2**k)
        pd = policy.interp(extend=True).value(x[1:])
        return _closed_form_on_grid(x, np.concatenate(([policy.p0plus], pd)), params)

    measure = law(0)
    d = float(measure.density[-1])
    if decay > 0.0 and d / decay < _TAIL_TOL:
        return measure
    # roundoff can leave decay <= 0, and on cells so fine that rate h or
    # decay h underflows to 0 the cut lies beyond any cell count
    if not min(rate, decay) * h > 0.0:
        raise NumericOverflowError("the unbounded battery's tail does not decay", where=span)
    # The law cut at L has density d there.  Beyond L each cell scales the
    # density by exp(-decay h) and holds its foot's density times
    # exp((rate - zeta / 2) h) (1 - exp(-rate h)) / rate, so the mass beyond a
    # node is its density times A, that over 1 - exp(-decay h).  The
    # untruncated law has density d / (1 + A d) at L, and a law cut at S has
    # its top density below decay _TAIL_TOL once S passes `cut`.  A d is
    # taken as its log, so that no step overflows on coarse cells.
    log_ad = (math.log(d) + (rate - 0.5 * params.zeta) * h + math.log(-math.expm1(-rate * h))
              - math.log(rate) - math.log(-math.expm1(-decay * h)))
    cut = span + math.log1p((d / decay / _TAIL_TOL - 1.0)
                            * math.exp(-np.logaddexp(0.0, log_ad))) / decay
    # a NaN or infinite cut reads as 2**64 doublings, which the cap refuses
    k = max(1, math.ceil(math.log2(min(2.0**64, cut / span))))
    if policy.n * 2**k > _MAX_CELLS:
        raise NumericOverflowError(f"cutting the unbounded battery at level {cut:.6g} needs "
                                   f"{policy.n * 2**k} cells, above {_MAX_CELLS}", where=cut)
    return law(k)


def measure_volterra(policy: PolicyGrid, params: HarvestParams,
                     dist: PacketDistribution) -> StationaryMeasure:
    """Stationary measure from marching the level-crossing balance equation.

    Works for any packet law, zero-energy packets included; requires a
    finite battery.  The balance is the one ``crossing_rates`` evaluates, f(x)
    p(x) = up-crossing rate at x, solved node by node: the trapezoid weight of
    the unknown f_i is h/2 with kernel S(0), so f_i = up_i(f_i = 0) /
    (p_i - lam h S(0) / 2), and f_0 = lam S(0) / p(0+).  It is linear in the
    atom, so it is solved with a trial atom of 1 and rescaled to unit total
    mass.
    """
    if params.is_infinite:
        raise DomainError("the marching solver needs a finite battery capacity")
    check_admissible(policy, params, dist)
    lam = params.lam
    x = policy.grid
    h = policy.h
    pd = policy.density_side_values()
    # S(x_i - x_k) read as S(x_(i-k)) on the uniform grid
    surv = survival(dist, x)
    f = np.zeros(x.size)
    # a subnormal p(0+) leaves f_0 infinite, and the march carries it
    with np.errstate(over="ignore", invalid="ignore"):
        f[0] = lam * surv[0] / pd[0]
        for i in range(1, x.size):
            denom = pd[i] - 0.5 * lam * h * surv[0]
            if denom <= 0.0:
                raise DomainError(
                    f"marching step unstable at level {x[i]:.6g}: grid too coarse for "
                    f"release rate {pd[i]:.3g}")
            f[i] = _up_rate(lam, 1.0, h, surv[i::-1], f[: i + 1]) / denom
    _require_finite(f, x, "marched density")
    masses = 0.5 * h * (f[:-1] + f[1:])
    total = 1.0 + float(np.sum(masses))
    return StationaryMeasure(grid=x, atom=1.0 / total, density=f / total,
                             cell_masses=masses / total)


def mean_power(measure: StationaryMeasure, policy: PolicyGrid) -> float:
    """Mean transmission power under the stationary law (atom contributes 0)."""
    _require_normalized(measure)
    return measure.expectation(policy.density_side_on(measure.grid))


def crossing_rates(measure: StationaryMeasure, policy: PolicyGrid, params: HarvestParams,
                   dist: PacketDistribution, levels):
    """Down- and up-crossing rates of the stationary law at ``levels``.

    Down is f(x) p(x).  Up is lam [atom (1 - B(x)) + integral over (0, x] of
    (1 - B(x - v)) f(v) dv], the integral by the trapezoid rule on the
    measure's own nodes below x plus the partial cell up to x, where f is
    read linearly; at a grid node the partial cell is empty.  This is the
    balance ``measure_volterra`` solves.
    """
    x, f = measure.grid, measure.density
    lv = np.asarray(levels, dtype=float)
    if not np.all((lv >= 0.0) & (lv <= x[-1])):
        raise DomainError("crossing levels must lie on the measure's span")
    f_lv = measure.density_at(lv)
    down = f_lv * policy.interp(extend=True).value(lv)
    h = grid_spacing(x)
    s0 = survival(dist, 0.0)
    # j is the last node at or below the level q
    last = np.searchsorted(x, lv.ravel(), side="right") - 1
    up = [_up_rate(params.lam, measure.atom, h, survival(dist, q - x[: j + 1]), f[: j + 1],
                   q - x[j], s0 * fq)
          for q, j, fq in zip(lv.ravel().tolist(), last.tolist(), f_lv.ravel().tolist())]
    return down, np.reshape(up, lv.shape)


def level_crossing_residual(measure: StationaryMeasure, policy: PolicyGrid,
                            params: HarvestParams, dist: PacketDistribution) -> np.ndarray:
    """Pointwise gap between down- and up-crossing rates at every grid node.

    Zero for the exact stationary law.  The marching law solves this very
    sum, so it leaves roundoff; the closed form leaves O(h^2).
    """
    _require_normalized(measure)
    down, up = crossing_rates(measure, policy, params, dist, measure.grid)
    return down - up


def export_measure(measure: StationaryMeasure, path):
    """Two-column text (level, density) with the atom in the header."""
    header = f"atom = {measure.atom!r}\ncolumns = level, density"
    np.savetxt(path, np.column_stack([measure.grid, measure.density]), header=header)


def export_policy(policy: PolicyGrid, path):
    header = f"p0plus = {policy.p0plus!r}\ncolumns = level, release_rate"
    np.savetxt(path, np.column_stack([policy.grid, policy.values]), header=header)


def load_policy(path) -> PolicyGrid:
    """Read a policy written by ``export_policy``.

    A file that is not UTF-8 text, or whose header or rows do not parse,
    raises DomainError naming the path.
    """
    p0plus = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#") and "p0plus" in line:
                    p0plus = float(line.split("=", 1)[1])
                    break
        data = np.loadtxt(path, ndmin=2)
    except ValueError as err:   # UnicodeDecodeError included
        raise DomainError(f"unreadable policy file {path}: {err}") from err
    if data.shape[1] != 2:
        raise DomainError(f"expected two columns in {path}")
    if p0plus is None:
        raise DomainError(f"missing p0plus header in {path}")
    return PolicyGrid(grid=data[:, 0], values=data[:, 1], p0plus=p0plus)
