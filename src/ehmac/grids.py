"""Uniform-grid policy interpretation and the cell integrals built on it.

A power policy lives on a uniform grid as sampled values.  Between nodes the
*square* of the release rate is taken to be linear: the necessary-condition
ODE gives p * p' equal to a smooth function of p, so p**2 is locally linear
in the battery level, and this interpretation stays exact through the steep
layer next to an almost-empty battery (where p itself can rise a hundredfold
across one cell).  All drain integrals below have closed forms under it:

    integral of 1/p over a cell  ->  2*h / (p0 + p1)
    integral of p   over a cell  ->  (2*h/3) * (p1^2 + p1*p0 + p0^2) / (p1 + p0)
    drain map                    ->  release rate falls linearly in time

For slowly varying policies these reduce to the usual trapezoid-level rules
to second order.

Every level map of ``PolicyInterp`` reads its cell through one method,
``locate``.  It takes the in-cell rate from the cell's lower-rate node,
sqrt(p_j**2 + b*(x - x_j)), where both terms are nonnegative: from the other
node the sum cancels on a steeply falling cell and loses digits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["uniform_grid", "grid_spacing", "inv_power_cells", "power_cells",
           "PolicyInterp"]

# Without ``extend``, a level at most SPAN_TOL * max(L, 1) beyond a policy grid
# of span L still reads the top node, and a battery whose capacity is that
# close to the span may use the grid (``measures.check_span``).
SPAN_TOL = 1e-9


def uniform_grid(capacity: float, n: int) -> np.ndarray:
    if not capacity > 0.0 or not math.isfinite(capacity):
        raise DomainError(f"grid span must be positive and finite, got {capacity}")
    if n < 1:
        raise DomainError(f"grid needs at least one cell, got n={n}")
    return np.linspace(0.0, capacity, n + 1)


def grid_spacing(x: np.ndarray) -> float:
    """Spacing of a uniform grid starting at 0; raises if not uniform."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2 or x[0] != 0.0:
        raise DomainError("grid must be a 1-d array starting at 0")
    h = (x[-1] - x[0]) / (x.size - 1)
    if not np.allclose(np.diff(x), h, rtol=1e-9, atol=1e-12 * max(h, 1.0)):
        raise DomainError("grid spacing must be uniform")
    return float(h)


def inv_power_cells(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per-cell integral of 1/p(v); p holds the right-limit value at index 0."""
    dx = np.diff(x)
    return 2.0 * dx / (p[:-1] + p[1:])


def power_cells(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per-cell integral of p(v)."""
    dx = np.diff(x)
    p0, p1 = p[:-1], p[1:]
    return (2.0 * dx / 3.0) * (p1 * p1 + p1 * p0 + p0 * p0) / (p1 + p0)


class PolicyInterp:
    """Evaluates a gridded policy and its drain maps between nodes.

    ``extend`` allows levels beyond the last node, continuing the policy at
    its final value (used when an unbounded battery is simulated through a
    truncation of the level axis).
    """

    def __init__(self, x: np.ndarray, p_density_side: np.ndarray, extend: bool = False):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p_density_side, dtype=float)
        if x.shape != p.shape:
            raise DomainError("grid and policy arrays must have equal length")
        if np.any(p <= 0.0):
            raise DomainError("release rate must be positive on (0, L]")
        self.x = x
        self.p = p
        self.extend = extend
        self._psq = p * p
        self._b = np.diff(self._psq) / np.diff(x)  # slope of p^2 per cell
        # per cell, the node with the lower rate: the right one where p falls
        self._low = np.arange(x.size - 1) + (p[1:] < p[:-1])
        # time to drain from each node to empty
        self.tau_nodes = np.concatenate(([0.0], np.cumsum(inv_power_cells(x, p))))
        # energy-weighted cumulative: integral of p over (0, x_i]
        self.pint_nodes = np.concatenate(([0.0], np.cumsum(power_cells(x, p))))

    def locate(self, levels):
        """Cell index, offset into the cell, in-cell rate and excess over the top.

        Levels beyond the top node are read at the top node, and the excess
        is returned apart; without ``extend`` an excess beyond the span
        tolerance raises.
        """
        lv = np.asarray(levels, dtype=float)
        top = self.x[-1]
        clipped = np.minimum(lv, top)
        over = lv - clipped
        if not self.extend and np.any(over > SPAN_TOL * max(top, 1.0)):
            raise DomainError("level beyond the policy grid")
        i = np.clip(np.searchsorted(self.x, clipped, side="right") - 1, 0, self.x.size - 2)
        j = self._low[i]
        pv = np.sqrt(np.maximum(self._psq[j] + self._b[i] * (clipped - self.x[j]), 0.0))
        return i, clipped - self.x[i], pv, over

    def value(self, levels):
        """Release rate at the given battery levels (levels > 0 assumed)."""
        pv = self.locate(levels)[2]
        return float(pv) if np.ndim(levels) == 0 else pv

    def tau(self, levels):
        """Time to drain from ``levels`` to empty absent new arrivals."""
        lv = np.asarray(levels, dtype=float)
        i, dv, pv, over = self.locate(lv)
        # at and above the top node the policy continues at its top value
        out = np.where(lv >= self.x[-1], self.tau_nodes[-1] + over / self.p[-1],
                       self.tau_nodes[i] + 2.0 * dv / (pv + self.p[i]))
        return float(out) if np.ndim(levels) == 0 else out

    def tau_inverse(self, tau_values):
        """Battery level whose drain-to-empty time equals ``tau_values``."""
        tv = np.asarray(tau_values, dtype=float)
        taus = self.tau_nodes
        i = np.clip(np.searchsorted(taus, tv, side="right") - 1, 0, taus.size - 2)
        dt = tv - taus[i]
        # p falls linearly in time inside a cell: level is quadratic in dt;
        # clamp to the cell edge against round-trip roundoff
        out = np.where(tv >= taus[-1], self.x[-1] + (tv - taus[-1]) * self.p[-1],
                       np.minimum(self.x[i] + self.p[i] * dt + 0.25 * self._b[i] * dt * dt,
                                  self.x[i + 1]))
        return float(out) if np.ndim(tau_values) == 0 else out

    def power_integral(self, levels):
        """Integral of p(v) dv over (0, levels]; equals energy radiated per sweep."""
        i, dv, pv, over = self.locate(levels)
        p0 = self.p[i]
        partial = (2.0 * dv / 3.0) * (pv * pv + pv * p0 + p0 * p0) / (pv + p0)
        out = self.pint_nodes[i] + partial + over * self.p[-1]
        return float(out) if np.ndim(levels) == 0 else out
