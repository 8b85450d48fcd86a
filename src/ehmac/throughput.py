"""Sum-throughput of coupled transmitters and its coordinate moments.

The long-run sum-throughput is the mean of r(sum_k p_k(X_k)) under the
product of the per-node stationary laws.  Each law is an atom at an empty
battery plus a density on (0, L]; on the measure grid it becomes one
discrete law, the atom as a point of power 0 and weight pi_0 beside the
density's quadrature points.  The throughput is one weighted sum of the
rate over the tensor product of all nodes' laws.  The same sum with one
coordinate held at a scalar power argument, over the other nodes' laws,
yields the moment functions feeding the necessary-condition ODE.

Both reduce through one kernel, ``_tensor_sums``.  With the powers in
units of the noise level n0, the rate and its derivatives are log1p(x),
1 / (1 + x) and 1 / (1 + x)^2, and each is a Laplace integral of e^(-tx):

    log1p(x)     = int (1 - e^(-tx)) e^(-t) dt / t
    1 / (1+x)    = int e^(-t) e^(-tx) dt
    1 / (1+x)^2  = int t e^(-t) e^(-tx) dt

The nodes are independent, so the mean of e^(-tx) over their product law
is the product of one transform per law, L_k(t) = sum_a w_a e^(-t p_a).  A
sum over (n + 2)^(m - 1) points becomes m - 1 transforms on a few hundred t
nodes, for any node count.  Nodes that hold the same policy and measure
objects, as all nodes of a tied (symmetric) state do, share one law
object: its transform is taken once and applied once per node, in node
order, so the sums round as with one transform per node.  The trapezoid
rule in ln t converges geometrically (L. N. Trefethen and J. A. C.
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
56(3), 2014); at the step used here the sums agree with ``math.fsum`` over
the full tensor to about 5e-15 relative.  The t nodes of the base part
are walked in blocks that hold a bounded number of elements.  The rate
functions of ``rates`` stay the scalar and array API; the sums do not call
them.

A law keeps its transforms (``_Law``): the measure it comes from holds it
for as long as the measure lives, so the laws of the nodes a
Gauss-Seidel update leaves alone are transformed once, not once per
tensor sum.  Its rows are computed in fixed blocks of t nodes, because a
BLAS matrix-vector product may round the last rows of a block by another
kernel: with fixed blocks a row has the same bits whether an earlier call
computed it or not, and no result depends on what the law holds.  Copies
and pickles of a measure leave the law behind, and the solver drops the
laws of the measures it reports.

``PhiMoments`` hands the tabulated moments to the ODE as not-a-knot cubic
splines in t = log1p(q).  ``_not_a_knot`` fits them on plain floats with
the arithmetic of ``scipy.interpolate.CubicSpline``, to the bit, so the
package needs numpy alone at run time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .arrivals import HarvestParams
from .errors import DomainError, MomentRangeError, NumericOverflowError, UsageError
from .measures import PolicyGrid, StationaryMeasure
from .rates import RateFunction, over_n0, rate

__all__ = [
    "Node",
    "SystemState",
    "PhiMoments",
    "ExactRateMoments",
    "sum_throughput",
    "phi_moments",
    "infinite_battery_lower_bound",
]

QMAX_CAP = 1e120  # beyond this, second rate derivatives leave the float range
# Trapezoid rule in u = ln t for the Laplace integrals of ``_tensor_sums``,
# with step _H on [ln(_T_FLOOR / max(x_max, 1)), ln _T_TOP].  By Poisson
# summation the relative error of the phi'' integrand t^2 e^(-t(1+x)) is
# 2 |Gamma(2 - 2 pi i / h)|, from the aliases at +-2 pi / h: 4.5e-15 at
# h = 0.25 and 2.5e-12 at h = 0.3, the largest errors measured against
# math.fsum.  The phi and phi' integrands alias less.  The cut tails are at
# most e^(-40) t^2 at the top and 1e-18 at the bottom.  That makes 190-620
# nodes on a three-node solve and 1287 for knots at QMAX_CAP.
_H = 0.25
_T_TOP = 40.0
_T_FLOOR = 1e-18
# Soft cap on the elements one block of transforms holds: its t nodes times
# the widest law or the knot count.  On a three-node moment tabulation at
# grid 128 (104 knots, laws of 130 points; one thread of a 2-core x86-64 VM,
# numpy 2.4) 16k-element blocks took 0.5-0.8 ms, as fast as larger ones,
# against 0.8-1.0 ms for 4k and 3-4 ms for 512.  Larger blocks only add
# peak memory: about 1 MiB in a solve_asym3 benchmark run at 64k, 5 MiB at 1M.
_BLOCK = 1 << 14
_LN2 = math.log(2.0)
# a live segment (see PhiMoments.live_segment) whose NaN bounds hold no t
_EMPTY_SEGMENT = (math.nan,) * 15


class Node(NamedTuple):
    params: HarvestParams
    policy: PolicyGrid
    measure: StationaryMeasure


@dataclass(frozen=True)
class SystemState:
    """Per-node (params, policy, measure) triples plus the shared rate curve."""

    nodes: tuple
    rate: RateFunction

    def __post_init__(self):
        nodes = tuple(Node(*nd) for nd in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 1:
            raise DomainError("at least one node is required")
        for k, nd in enumerate(nodes):
            if not abs(nd.measure.total_mass() - 1.0) <= 1e-9:
                raise DomainError(f"measure of node {k} is not normalized")

    @property
    def node_count(self) -> int:
        return len(self.nodes)


class _Law:
    """A discrete law of powers in units of n0 and its transform rows.

    Holds the powers, the weights normalized by their mass, the mass, and
    two rows over the kernel's t nodes t_i = _T_TOP e^(-_H i):
    D(t_i) = sum_a w_a expm1(-t_i p_a), which every sum needs, and
    E(t_i) = sum_a w_a e^(-t_i p_a), which moment sums need.  ``rows``
    computes them on demand in fixed blocks of ``step`` t nodes counted from
    row 0, and grows them when a later call needs more t nodes.  A BLAS
    matrix-vector product may round the last rows of a block by another
    kernel, so a row's bits depend on its block; with fixed blocks a row
    has the same bits whichever call first needed it.  The price is the
    rest of the last block, rows no sum reads: 11 % of the rows held on a
    solve_asym3 benchmark case set, 4 % on a table2 cell.
    """

    def __init__(self, powers, weights):
        self.p = np.asarray(powers, dtype=float)
        if not ((0.0 <= self.p) & (self.p < np.inf)).all():
            raise DomainError("total power must be finite and nonnegative")
        weights = np.asarray(weights, dtype=float)
        self.mass = float(np.sum(weights))
        self.w = weights / self.mass if self.mass else weights
        self.top = float(self.p.max())
        self.step = max(1, _BLOCK // self.p.size)
        self.d = self.e = np.empty(0)

    def _block(self, lo, moment):
        """E (``moment``) or D on the ``step`` t nodes from row ``lo``."""
        t = _T_TOP * np.exp(-_H * np.arange(lo, lo + self.step))
        args = np.multiply.outer(t, -self.p)
        return (np.exp(args) if moment else np.expm1(args, out=args)) @ self.w

    def rows(self, count, moments=False):
        """(E, D) on at least the first ``count`` t nodes; E only with ``moments``."""
        if self.d.size < count:
            self.d = np.concatenate(
                [self.d] + [self._block(lo, False) for lo in range(self.d.size, count, self.step)])
        if moments and self.e.size < count:
            self.e = np.concatenate(
                [self.e] + [self._block(lo, True) for lo in range(self.e.size, count, self.step)])
        return self.e, self.d


def _law_of(policy: PolicyGrid, measure: StationaryMeasure, n0: float) -> _Law:
    """The law of a node on its measure grid, kept on the measure.

    Its powers are [0, p(x_0+), p(x_1), ...] / n0 and its weights [pi_0, node
    weights...]: the atom is the zero-power point.  The measure keeps the
    last law it served, with its transform rows, for as long as it lives
    (``StationaryMeasure`` leaves it out of copies, pickles and ``==``);
    another policy or noise level replaces it.  The law is not rebuilt when
    the measure's arrays are changed in place: build a new measure instead.
    """
    kept = measure.__dict__.get("_law")
    if kept is None or kept[0] is not policy or kept[1] != n0:
        law = _Law(over_n0(np.concatenate(([0.0], policy.density_side_on(measure.grid))), n0),
                   np.concatenate(([measure.atom], measure.node_weights())))
        kept = (policy, n0, law)
        object.__setattr__(measure, "_law", kept)
    return kept[2]


def drop_laws(measures) -> None:
    """Forget the laws (and their transform rows) kept on these measures."""
    for meas in measures:
        meas.__dict__.pop("_law", None)


def _node_laws(state: SystemState, skip: int | None = None):
    """The law of each node but ``skip``, in node order.

    Nodes that hold the same policy and measure objects, as every node of a
    tied state does, get the same ``_Law`` object (see ``_law_of``).
    """
    n0 = state.rate.n0
    return [_law_of(nd.policy, nd.measure, n0) for k, nd in enumerate(state.nodes) if k != skip]


def _tensor_sums(n0, laws, base, moments=False):
    """Sum of r(base + sum powers) * prod weights, and of r' and r'' with ``moments``.

    ``laws`` are the nodes' ``_Law``s, powers in units of n0, one per node
    in node order; a law shared by several nodes is applied once per node,
    so the sums round as with one law per node.  ``base`` is a scalar or a
    1-d array of scalar power offsets; each sum has one entry per offset,
    and the sums come as the rows of one array.  Each sum is one of the
    Laplace integrals of the module docstring, over u = ln t by the
    trapezoid rule, with E e^(-tx) = e^(-tq) prod_k L_k(t) for q = base / n0.
    Each law is normalized by its mass; the nodes' masses' product and the
    constants 0.5 / ln 2, 0.5 / (ln 2 n0) and -0.5 / (ln 2 n0^2) multiply the
    finished sums.  The rate sum never cancels: D_k = L_k - 1 =
    sum_a w_a expm1(-t p_a) <= 0 is accumulated as
    delta <- delta (1 + D_k) + D_k, so that delta = prod_k L_k - 1, and
    1 - E e^(-tx) = -(delta + (1 + delta) expm1(-tq)).  The derivative sums
    take the plain product of the L_k = E_k, whose terms are all positive.
    The laws' rows come from the laws (``_Law.rows``); the t nodes of the
    base part are walked in blocks of at most ``_BLOCK`` elements.  A total
    power below the smallest normal float (2.2e-308 n0) makes t x
    subnormal, and its rate sum is then accurate only to a few subnormal
    units, not relatively.  A total power whose t range leaves the float
    range (about 4.5e288 n0) raises ``NumericOverflowError``.
    """
    base = over_n0(np.atleast_1d(np.asarray(base, dtype=float)), n0)
    if not ((0.0 <= base) & (base < np.inf)).all():
        raise DomainError("total power must be finite and nonnegative")
    sums = np.zeros((3 if moments else 1, base.size))
    masses = [law.mass for law in laws]
    if not all(masses):
        return sums
    x_max = float(base.max(initial=0.0)) + sum(law.top for law in laws)
    span = _T_TOP * max(x_max, 1.0) / _T_FLOOR
    if not span < math.inf:
        raise NumericOverflowError(f"total power {x_max:.6g} n0 is too large for the "
                                   "rate sums' t nodes")
    count = math.ceil(math.log(span) / _H) + 1
    t = _T_TOP * np.exp(-_H * np.arange(count))
    c = _H * np.exp(-t)
    delta, prod = np.zeros(count), np.ones(count)
    for law in laws:
        e, d = law.rows(count, moments)
        if moments:
            prod *= e[:count]
        delta = delta * (1.0 + d[:count]) + d[:count]
    tc, dc = t * c * prod, (1.0 + delta) * c
    # the base part's matrix products round block by block: the block step
    # stays, law sizes included, only so that every sum keeps its bits
    step = max(1, _BLOCK // max([base.size] + [law.p.size for law in laws]))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        args = np.multiply.outer(-t[lo:hi], base)
        if moments:
            sums[1:] += np.array([tc[lo:hi], t[lo:hi] * tc[lo:hi]]) @ np.exp(args)
        sums[0] -= delta[lo:hi] @ c[lo:hi] + dc[lo:hi] @ np.expm1(args, out=args)
    const = 0.5 / _LN2 * np.array([[1.0], [1.0 / n0], [-1.0 / (n0 * n0)]])
    # the masses' mantissas, then their power of two: a sum that lands among
    # the subnormals is rounded once
    mant, expo = np.frexp(masses)
    return np.ldexp(sums * (const[:len(sums)] * np.prod(mant)), int(expo.sum()))


def sum_throughput(state: SystemState) -> float:
    """Mean of r(total transmitted power) under the product stationary law.

    One transform per law, applied once per node, for any node count: the
    nodes of a tied state share one law and its rows.
    """
    return float(_tensor_sums(state.rate.n0, _node_laws(state), 0.0)[0, 0])


def _not_a_knot(x, ys):
    """Coefficients of the not-a-knot cubic spline through each row of ``ys``.

    Bit for bit ``scipy.interpolate.CubicSpline(x, y).c`` for each row y, in
    an array of shape (rows, 4, len(x) - 1).  The knot slopes solve scipy's
    banded system by LAPACK dgtsv's elimination on plain floats, with its
    rule for swapping adjacent rows; the elimination reads only the knots,
    so one serves every row.  The coefficients are CubicHermiteSpline's.
    Every operation rounds as theirs does, in the same order.  The inputs
    are not checked here: ``PhiMoments`` admits only tables that fit.
    """
    x = np.asarray(x, dtype=float)
    ys = np.asarray(ys, dtype=float)
    dx = np.diff(x)
    slope = np.diff(ys) / dx
    e0, e1 = x[2] - x[0], x[-1] - x[-3]
    rhs = np.empty_like(ys)
    # dx[k] ** 2 is numpy's scalar pow, as in scipy: it differs from
    # dx[k] * dx[k] in the last bit for about one value in a thousand
    rhs[:, 0] = ((dx[0] + 2 * e0) * dx[1] * slope[:, 0] + dx[0] ** 2 * slope[:, 1]) / e0
    rhs[:, 1:-1] = 3 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])
    rhs[:, -1] = (dx[-1] ** 2 * slope[:, -2] + (2 * e1 + dx[-1]) * dx[-2] * slope[:, -1]) / e1
    # the tridiagonal system: diagonal d, super- and subdiagonals du and dl
    d = [float(dx[1])] + (2 * (dx[:-1] + dx[1:])).tolist() + [float(dx[-2])]
    du = [float(e0)] + dx[:-1].tolist()
    dl = dx[1:].tolist() + [float(e1)]
    n = len(d)
    fill = [0.0] * (n - 2)  # second superdiagonal, nonzero after a swap
    rows = rhs.tolist()
    for i in range(n - 1):
        piv, low = d[i], dl[i]
        if abs(piv) >= abs(low):
            f = low / piv
            d[i + 1] -= f * du[i]
            for r in rows:
                r[i + 1] -= f * r[i]
        else:
            f = piv / low
            nxt = d[i + 1]
            d[i], d[i + 1] = low, du[i] - f * nxt
            if i < n - 2:
                fill[i] = du[i + 1]
                du[i + 1] = -f * fill[i]
            du[i] = nxt
            for r in rows:
                r[i], r[i + 1] = r[i + 1], r[i] - f * r[i + 1]
    if d[-1] == 0.0:
        raise DomainError("singular spline system")
    for r in rows:
        x2 = r[-1] = r[-1] / d[-1]
        x1 = r[-2] = (r[-2] - du[-1] * x2) / d[-2]
        for i in range(n - 3, -1, -1):
            x2, x1 = x1, (r[i] - du[i] * x1 - fill[i] * x2) / d[i]
            r[i] = x1
    s = np.array(rows)
    t = (s[:, :-1] + s[:, 1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:, :-1]) / dx - t, s[:, :-1], ys[:, :-1]), axis=1)


@dataclass
class PhiMoments:
    """Tabulated coordinate moments of the rate under the other nodes' laws.

    phi(q) is the mean rate when this node transmits at power q, with first
    and second derivatives in q taken through the analytic rate derivatives.
    """

    q: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    provider: Callable | None = field(default=None, repr=False)
    _evaluator: Callable | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        # everything the spline fit of ``_build_evaluator`` needs, checked
        # here so that a bad table fails where it is made, not mid-solve
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1 or q.size < 4:
            raise DomainError("moment tabulation needs at least 4 scalar power knots")
        moments = [np.asarray(m, dtype=float) for m in (self.phi, self.dphi, self.d2phi)]
        if any(m.shape != q.shape for m in moments):
            raise DomainError("moment tabulation needs one phi, phi' and phi'' per knot")
        if not all(np.isfinite(a).all() for a in (q, *moments)):
            raise DomainError("moment knots and values must be finite")
        if np.any(q < 0.0):
            raise DomainError("moment knots must be nonnegative powers")
        if np.any(np.diff(np.log1p(q)) <= 0.0):
            raise DomainError("moment knots must be strictly increasing in t = log1p(q)")
        phi, dphi, d2phi = moments
        if np.any(np.diff(phi) <= 0.0):
            raise DomainError("phi must be strictly increasing")
        if np.any(dphi <= 0.0):
            raise DomainError("phi' must be positive")
        if np.any(d2phi >= 0.0):
            raise DomainError("phi must be strictly concave")

    @property
    def qmax(self) -> float:
        return float(self.q[-1])

    def extended(self, new_qmax: float) -> "PhiMoments":
        """Continue the knots geometrically up to ``new_qmax``.

        Only the new knots are tabulated; the old ones keep their values.
        """
        if self.provider is None:
            raise UsageError("this tabulation has no provider to extend with")
        if math.isnan(new_qmax):
            raise DomainError("moment extension target must be a number", field="new_qmax")
        new_qmax = min(new_qmax, QMAX_CAP)
        if new_qmax <= self.qmax:
            return self
        anchor = max(self.qmax, 1e-6)
        extra = int(np.ceil(np.log(new_qmax / anchor) / np.log(1.25))) + 2
        tail = np.geomspace(anchor, new_qmax, max(extra, 8))[1:]
        tail = np.unique(tail[tail > self.qmax])
        phi, dphi, d2phi = self.provider(tail)
        return PhiMoments(q=np.concatenate((self.q, tail)),
                          phi=np.concatenate((self.phi, phi)),
                          dphi=np.concatenate((self.dphi, dphi)),
                          d2phi=np.concatenate((self.d2phi, d2phi)),
                          provider=self.provider)

    def _build_evaluator(self):
        # Interpolation runs in t = log1p(q) so knots spanning many decades
        # stay well conditioned; derivative moments are interpolated through
        # their logarithms, which pins their signs and keeps relative accuracy
        # where they decay over hundreds of orders of magnitude.  The three
        # curves share one elimination (``_not_a_knot``), and each gets the
        # bits of its own scipy fit.  The table is held as plain floats, one
        # tuple per segment: the ODE's y stages evaluate the segment of the
        # last query inline (``live_segment``), and every other query comes
        # here, one scalar at a time.
        t = np.log1p(self.q)
        coefs = _not_a_knot(t, (self.phi, np.log(self.dphi), np.log(-self.d2phi)))
        packs = coefs.reshape(-1, t.size - 1).T.tolist()
        knots = t.tolist()
        q_lo, q_hi = float(self.q[0]), float(self.q[-1])
        last = len(packs) - 1
        # segment j serves lo[j] <= t < hi[j]; the open ends are the clamps of
        # the bisection below.  Its live bounds (see ``live_segment``) also
        # stop at the range ends, so that t for a power outside [q_lo, q_hi],
        # or at either end, is never inside them.
        lo = [-math.inf] + knots[1:last + 1]
        hi = knots[1:last + 1] + [math.inf]
        t_min, t_max = math.nextafter(math.log1p(q_lo), math.inf), math.log1p(q_hi)
        segs = [(max(a, t_min), min(b, t_max), t0, *c)
                for a, b, t0, c in zip(lo, hi, knots, packs)]
        log1p, exp = math.log1p, math.exp
        seg = 0  # the segment the last query used

        def eval3(p):
            nonlocal seg
            if p > q_hi:
                raise MomentRangeError(
                    f"moment tabulation queried at power {p:.6g} beyond its range "
                    f"{q_hi:.6g}", argument=p)
            if not p >= q_lo:  # NaN included
                raise MomentRangeError(
                    f"moment tabulation queried at power {p:.6g}, outside its knots "
                    f"[{q_lo:.6g}, {q_hi:.6g}]", argument=p)
            t = log1p(p)
            seg = j = min(max(bisect_right(knots, t) - 1, 0), last)
            c = segs[j]
            u = t - c[2]
            val = ((c[3] * u + c[4]) * u + c[5]) * u + c[6]
            d1 = ((c[7] * u + c[8]) * u + c[9]) * u + c[10]
            d2 = ((c[11] * u + c[12]) * u + c[13]) * u + c[14]
            return val, exp(d1), -exp(d2)

        return eval3, lambda: segs[seg]

    # stays a method of the class: benchmarks/tracing.py counts its calls there
    def eval3(self, p: float):
        """(phi, phi', phi'') at scalar power p; raises beyond the knot range."""
        if self._evaluator is None:
            self._evaluator = self._build_evaluator()
        return self._evaluator[0](p)

    def live_segment(self):
        """The spline segment the last ``eval3`` used, as 15 floats.

        (t_lo, t_hi, t0, a0..a3, b0..b3, c0..c3): for t = math.log1p(p) with
        t_lo <= t < t_hi, ``eval3(p)`` is (A, exp(B), -exp(C)), where A, B and
        C are the cubics ((x0 u + x1) u + x2) u + x3 at u = t - t0, evaluated
        in that order.  A power outside the knot range, or at either end of
        it, never has t in [t_lo, t_hi).  Before the first ``eval3`` the
        segment is empty.
        """
        return _EMPTY_SEGMENT if self._evaluator is None else self._evaluator[1]()


class ExactRateMoments:
    """Moment evaluator for a lone transmitter: phi collapses to the rate.

    A power whose ratio to n0 or whose phi' leaves the float range raises
    NumericOverflowError with ``rates.over_n0``'s message.
    """

    def __init__(self, rf: RateFunction):
        self._n0 = rf.n0

    provider = None  # nothing to extend the exact moments with

    def eval3(self, p: float):
        if not p >= 0.0:  # NaN included
            raise MomentRangeError(f"rate queried at power {p:.6g}, not a nonnegative number",
                                   argument=p)
        n0p = self._n0 + p
        d1 = 1.0 / (2.0 * _LN2 * n0p)
        q = p / self._n0
        if q == math.inf or d1 == math.inf:  # as rate and rate_deriv on a tiny n0
            raise NumericOverflowError(f"a power over the noise level n0 = {self._n0!r} overflows")
        return 0.5 * math.log1p(q) / _LN2, d1, -d1 / n0p

    def live_segment(self):
        """No table, so no segment: every query goes through ``eval3``."""
        return _EMPTY_SEGMENT


def phi_moments(state: SystemState, j: int, q_grid) -> PhiMoments:
    """Tabulate the coordinate moments of node ``j`` on the given power knots.

    One tensor sum over the other nodes' laws per knot, like the throughput;
    derivative moments use analytic rate derivatives.
    """
    m = state.node_count
    if not 0 <= j < m:
        raise UsageError(f"node index {j} out of range for {m} nodes")
    q = np.unique(np.asarray(q_grid, dtype=float))
    laws = _node_laws(state, skip=j)
    n0 = state.rate.n0

    def tabulate(knots):
        return _tensor_sums(n0, laws, knots, moments=True)

    phi, dphi, d2phi = tabulate(q)
    return PhiMoments(q=q, phi=phi, dphi=dphi, d2phi=d2phi, provider=tabulate)


def infinite_battery_lower_bound(params, rho: float, rf: RateFunction) -> float:
    """Throughput achieved by constant policies at input rate + rho each.

    The product factor discounts the time each node has an empty battery;
    the bound meets the unbounded-battery ceiling as rho -> 0.
    """
    if not rho > 0.0:
        raise DomainError(f"excess release rate must be positive, got {rho}")
    if math.isinf(rho):
        return 0.0
    total = 0.0
    frac = 1.0
    for hp in params:
        mean_in = hp.mean_input_rate
        total += mean_in + rho
        frac *= mean_in / (mean_in + rho)
    return rate(rf, total) * frac
