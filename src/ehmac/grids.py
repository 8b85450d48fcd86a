"""Uniform-grid policy interpretation and the cell integrals built on it.

A power policy lives on a uniform grid as sampled values.  Between nodes the
*square* of the release rate is taken to be linear: the necessary-condition
ODE gives p * p' equal to a smooth function of p, so p**2 is locally linear
in the battery level, and this interpretation stays exact through the steep
layer next to an almost-empty battery (where p itself can rise a hundredfold
across one cell).  All drain integrals below have closed forms under it:

    integral of 1/p over a cell     ->  2*h / (p0 + p1)
    integral of p   over a cell     ->  (2*h/3) * (p1^2 + p1*p0 + p0^2) / (p1 + p0)
    integral of r(p)/p over a cell  ->  2 * (R(p1) - R(p0)) / b, with R' = r and
                                        b = (p1^2 - p0^2) / h the slope of p^2
    drain map                       ->  release rate falls linearly in time

For slowly varying policies these reduce to the usual trapezoid-level rules
to second order.  ``PolicyInterp.drain_integral`` turns any such cell rule
into the integral from empty up to a level: the sum over the whole cells
below it plus the rule on the partial cell.

Every array map of ``PolicyInterp`` reads its cell through one method,
``locate``.  It finds the cell by arithmetic, floor(level / h), and one
correction step each way: ``grid_spacing`` admits a grid only when every
node lies within h/2 of i*h, so the floor is off by at most one.  It takes
the in-cell rate from the cell's lower-rate node, sqrt(p_j**2 + b*(x - x_j)),
where both terms are nonnegative: from the other node the sum cancels on a
steeply falling cell and loses digits.  ``PolicyInterp.scalar_maps`` takes
the same steps on one float, for callers that read one level at a time.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator

import numpy as np

from .errors import DomainError

__all__ = ["uniform_grid", "grid_spacing", "inv_power_cells", "power_cells",
           "PolicyInterp"]

# Without ``extend``, a level at most SPAN_TOL * max(L, 1) beyond a policy grid
# of span L still reads the top node, and a battery whose capacity is that
# close to the span may use the grid (``measures.check_admissible``).
SPAN_TOL = 1e-9


def uniform_grid(capacity: float, n: int) -> np.ndarray:
    """The n + 1 levels 0, L/n, ..., L, as one shared read-only array.

    Every call with the same (capacity, n) returns the same array object, so
    the policies and measures of one battery hold one grid between them.
    """
    if not capacity > 0.0 or not math.isfinite(capacity):
        raise DomainError(f"grid span must be positive and finite, got {capacity}")
    if n < 1:
        raise DomainError(f"grid needs at least one cell, got n={n}")
    return _shared_grid(float(capacity), operator.index(n))


@functools.lru_cache(maxsize=32)
def _shared_grid(capacity: float, n: int) -> np.ndarray:
    x = np.linspace(0.0, capacity, n + 1)
    x.setflags(write=False)
    return x


def grid_spacing(x: np.ndarray) -> float:
    """Spacing of a uniform grid starting at 0; raises if not uniform.

    Besides equal steps, every node must lie within h/2 of i*h, which bounds
    the drift the step tolerance lets accumulate; ``PolicyInterp.locate``
    relies on it.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2 or x[0] != 0.0:
        raise DomainError("grid must be a 1-d array starting at 0")
    h = (x[-1] - x[0]) / (x.size - 1)
    if not 0.0 < h < math.inf:
        raise DomainError(f"grid spacing must be positive and finite, got {h}")
    if not (np.allclose(np.diff(x), h, rtol=1e-9, atol=1e-12 * max(h, 1.0))
            and np.max(np.abs(x - h * np.arange(x.size))) < 0.5 * h):
        raise DomainError("grid spacing must be uniform")
    return float(h)


def inv_power_cells(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per-cell integral of 1/p(v); p holds the right-limit value at index 0."""
    dx = np.diff(x)
    return 2.0 * dx / (p[:-1] + p[1:])


def power_cells(p0, p1, dx):
    """Integral of p(v) over a cell of width dx from rate p0 to rate p1."""
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
        self._inv_h = 1.0 / grid_spacing(x)
        self._psq = p * p
        self._b = np.diff(self._psq) / np.diff(x)  # slope of p^2 per cell
        # per cell, the node with the lower rate: the right one where p falls
        self._low = np.arange(x.size - 1) + (p[1:] < p[:-1])
        # time to drain from each node to empty
        self.tau_nodes = np.concatenate(([0.0], np.cumsum(inv_power_cells(x, p))))
        self._tau_inner = self.tau_nodes[1:-1]

    def locate(self, levels):
        """Cell index, offset into the cell, in-cell rate and excess over the top.

        The cell is the one a binary search gives, the last node at or below
        the level, clipped to the cells: floor(level / h) is off from it by
        at most one, since every node lies within h/2 of i*h
        (``grid_spacing``), so one step down and one step up correct it.
        Levels beyond the top node are read at the top node, and the excess
        is returned apart; without ``extend`` an excess beyond the span
        tolerance raises.  A NaN level raises, and so does a level more than
        the span tolerance below empty, -inf included.
        """
        lv = np.asarray(levels, dtype=float)
        top = self.x[-1]
        tol = SPAN_TOL * max(top, 1.0)
        clipped = np.minimum(lv, top)
        # one pass rejects NaN, -inf and levels below empty
        if not (clipped >= -tol).all():
            raise DomainError("battery level is NaN or below empty")
        over = lv - clipped
        if not self.extend and np.any(over > tol):
            raise DomainError("level beyond the policy grid")
        last = self.x.size - 2
        i = np.minimum(np.maximum(clipped * self._inv_h, 0), last).astype(np.intp)
        i -= (self.x[i] > clipped) & (i > 0)
        i += (self.x[i + 1] <= clipped) & (i < last)
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
        # the interior nodes at or below tv: the cell index, clamped to the cells
        i = np.searchsorted(self._tau_inner, tv, side="right")
        dt = tv - taus[i]
        # p falls linearly in time inside a cell: level is quadratic in dt;
        # clamp to the cell edge against round-trip roundoff
        out = np.where(tv >= taus[-1], self.x[-1] + (tv - taus[-1]) * self.p[-1],
                       np.minimum(self.x[i] + self.p[i] * dt + 0.25 * self._b[i] * dt * dt,
                                  self.x[i + 1]))
        return float(out) if np.ndim(tau_values) == 0 else out

    @functools.cached_property
    def scalar_maps(self):
        """``tau`` and ``tau_inverse`` of one Python float, bit for bit.

        A numpy call costs tens of microseconds however few levels it reads;
        these read one level or drain time on plain floats in about a
        microsecond.  Each does the IEEE operations of ``locate`` and ``tau``,
        or of ``tau_inverse``, in the same order, with the same NaN,
        below-empty and beyond-grid guards, so it returns the same float.
        They read four lists of the node arrays: p**2 is taken at the node,
        the lower-rate node by comparison, and the interior tau nodes as a
        range of the tau list.  Built on first use and kept with the policy.
        """
        xs = self.x.tolist()
        ps = self.p.tolist()
        bs = self._b.tolist()
        taus = self.tau_nodes.tolist()
        x_top, p_top, tau_top = xs[-1], ps[-1], taus[-1]
        tol = SPAN_TOL * max(x_top, 1.0)
        last = len(xs) - 2
        inv_h = self._inv_h
        extend = self.extend

        def tau(level):
            clipped = x_top if level > x_top else level   # a NaN stays NaN
            if not clipped >= -tol:
                raise DomainError("battery level is NaN or below empty")
            over = level - clipped
            if not extend and over > tol:
                raise DomainError("level beyond the policy grid")
            if level >= x_top:
                return tau_top + over / p_top
            i = int(clipped * inv_h)
            if i > last:
                i = last
            elif i < 0:
                i = 0
            if xs[i] > clipped and i > 0:
                i -= 1
            if xs[i + 1] <= clipped and i < last:
                i += 1
            j = i + 1 if ps[i + 1] < ps[i] else i
            sq = ps[j] * ps[j] + bs[i] * (clipped - xs[j])
            if sq < 0.0:
                sq = 0.0
            return taus[i] + 2.0 * (clipped - xs[i]) / (math.sqrt(sq) + ps[i])

        def tau_inverse(value):
            if value >= tau_top:
                return x_top + (value - tau_top) * p_top
            i = bisect.bisect_right(taus, value, 1, last + 1) - 1
            dt = value - taus[i]
            level = xs[i] + ps[i] * dt + 0.25 * bs[i] * dt * dt
            return xs[i + 1] if level > xs[i + 1] else level   # a NaN stays NaN

        return tau, tau_inverse

    def drain_integral(self, levels, cells, top):
        """Integral of g(p(v)) dv over (0, levels] for a cell rule of g.

        ``cells(p0, p1, dx)`` integrates g(p) over a cell of width dx whose
        rate runs from p0 to p1 with p**2 linear between them; it sums the
        whole cells below each level and takes the partial one from the
        cell's lower node up to the level (dx = 0 at a node).  ``top`` is
        g at the top rate, which carries the excess over the top node.
        """
        i, dv, pv, over = self.locate(levels)
        p = self.p
        nodes = np.concatenate(([0.0], np.cumsum(cells(p[:-1], p[1:], np.diff(self.x)))))
        return nodes[i] + cells(p[i], pv, dv) + over * top

    def power_integral(self, levels):
        """Integral of p(v) dv over (0, levels]; equals energy radiated per sweep."""
        out = self.drain_integral(levels, power_cells, self.p[-1])
        return float(out) if np.ndim(levels) == 0 else out
