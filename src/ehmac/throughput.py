"""Sum-throughput of coupled transmitters and its coordinate moments.

The long-run sum-throughput is the mean of r(sum_k p_k(X_k)) under the
product of the per-node stationary laws.  Each law is an atom at an empty
battery plus a density on (0, L]; on the measure grid it becomes one
discrete law, the atom as a point of power 0 and weight pi_0 beside the
density's quadrature points.  The throughput is one weighted sum of the
rate over the tensor product of all nodes' laws.  The same sum with one
coordinate held at a scalar power argument, over the other nodes' laws,
yields the moment functions feeding the necessary-condition ODE.

Both reduce through one kernel, ``_tensor_sums``.  It walks the tensor grid
in cache-sized blocks, builds each block of rate arguments once, evaluates
every function asked for on it (the rate, or the rate and its two
derivatives), and reduces each result with one mat-vec against the block's
weights.  A single node skips the blocking: its sum is one mat-vec.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline

from .arrivals import HarvestParams
from .errors import CapacityError, DomainError, MomentRangeError, UsageError
from .measures import PolicyGrid, StationaryMeasure
from .rates import RateFunction, rate, rate_deriv

__all__ = [
    "Node",
    "SystemState",
    "PhiMoments",
    "ExactRateMoments",
    "sum_throughput",
    "phi_moments",
    "infinite_battery_lower_bound",
]

# A node's law on an n-cell grid has n + 2 points, so a moment knot's tensor
# over the other nodes' laws grows as (n + 2)^(m - 1).
NODE_CAP = 4
QMAX_CAP = 1e120  # beyond this, second rate derivatives leave the float range
# Soft cap on the rate arguments one block of the tensor sums holds.  64k
# float64 elements are 512 KiB, so a block's arguments and one function's
# values stay in a 1-4 MiB L2 cache.  On a three-node moment tabulation
# (104 knots x 129 x 129 powers), 64k-element blocks were 1.2-1.7x faster
# than 16k, 256k or 4M-element ones.
_CHUNK = 1 << 16


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
            if abs(nd.measure.total_mass() - 1.0) > 1e-9:
                raise DomainError(f"measure of node {k} is not normalized")

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def _node_laws(state: SystemState, skip: int | None = None):
    """Powers and weights of each node's law (but ``skip``'s) on its measure grid.

    A node's powers are [0, p(x_0+), p(x_1), ...] and its weights [pi_0, node
    weights...]: the atom is the zero-power point.
    """
    if state.node_count > NODE_CAP:
        raise CapacityError(f"the tensor sums are capped at {NODE_CAP} nodes, "
                            f"got {state.node_count}")
    powers, weights = [], []
    for k, nd in enumerate(state.nodes):
        if k != skip:
            meas = nd.measure
            powers.append(np.concatenate(([0.0], nd.policy.density_side_on(meas.grid))))
            weights.append(np.concatenate(([meas.atom], meas.node_weights())))
    return powers, weights


def _tensor_sums(funcs, powers, weights, base):
    """One sum per f in ``funcs`` of f(base + sum powers) * prod weights.

    ``base`` is a scalar or a 1-d array of scalar power offsets; each sum has
    one entry per offset.  A block is a slice of the offsets x a slice of the
    leading node's powers x all the other nodes' powers: at most ``_CHUNK``
    elements, unless the other nodes' powers alone exceed that.
    """
    base = np.atleast_1d(np.asarray(base, dtype=float))
    if not powers:
        return [f(base) for f in funcs]
    if len(powers) == 1:
        args = base[:, None] + powers[0][None, :]
        return [f(args) @ weights[0] for f in funcs]
    lead, w_lead = powers[0], weights[0]
    rest = reduce(np.add.outer, powers[1:]).ravel()
    w_rest = reduce(np.multiply.outer, weights[1:]).ravel()
    q_step = max(1, min(base.size, _CHUNK // rest.size))
    b_step = max(1, _CHUNK // (q_step * rest.size))
    sums = [np.zeros(base.size) for _ in funcs]
    for lo in range(0, lead.size, b_step):
        block = lead[lo:lo + b_step, None]
        w = np.multiply.outer(w_lead[lo:lo + b_step], w_rest).ravel()
        for q0 in range(0, base.size, q_step):
            args = base[q0:q0 + q_step, None, None] + block + rest
            for total, f in zip(sums, funcs):
                total[q0:q0 + q_step] += f(args).reshape(len(args), -1) @ w
    return sums


def sum_throughput(state: SystemState) -> float:
    """Mean of r(total transmitted power) under the product stationary law.

    One tensor sum over every node's law; raises CapacityError beyond
    ``NODE_CAP`` nodes.
    """
    powers, weights = _node_laws(state)
    rf = state.rate
    (val,) = _tensor_sums((lambda a: rate(rf, a),), powers, weights, 0.0)
    return float(val[0])


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
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1 or q.size < 4:
            raise DomainError("moment tabulation needs at least 4 scalar power knots")
        if np.any(np.diff(q) <= 0.0):
            raise DomainError("moment knots must be strictly increasing")
        if np.any(np.diff(self.phi) <= 0.0):
            raise DomainError("phi must be strictly increasing")
        if np.any(np.asarray(self.d2phi) >= 0.0):
            raise DomainError("phi must be strictly concave")

    @property
    def qmax(self) -> float:
        return float(self.q[-1])

    @property
    def can_extend(self) -> bool:
        return self.provider is not None

    def extended(self, new_qmax: float) -> "PhiMoments":
        """Re-tabulate with knots continued geometrically up to ``new_qmax``."""
        if self.provider is None:
            raise UsageError("this tabulation has no provider to extend with")
        new_qmax = min(new_qmax, QMAX_CAP)
        if new_qmax <= self.qmax:
            return self
        anchor = max(self.qmax, 1e-6)
        extra = int(np.ceil(np.log(new_qmax / anchor) / np.log(1.25))) + 2
        tail = np.geomspace(anchor, new_qmax, max(extra, 8))[1:]
        knots = np.unique(np.concatenate([self.q, tail]))
        phi, dphi, d2phi = self.provider(knots)
        return PhiMoments(q=knots, phi=phi, dphi=dphi, d2phi=d2phi,
                          provider=self.provider)

    def _build_evaluator(self):
        # Interpolation runs in t = log1p(q) so knots spanning many decades
        # stay well conditioned; derivative moments are interpolated through
        # their logarithms, which pins their signs and keeps relative accuracy
        # where they decay over hundreds of orders of magnitude.  The table is
        # held as plain floats: the ODE evaluates it millions of times per
        # solve, one scalar at a time.
        t = np.log1p(self.q)
        sp = [CubicSpline(t, y) for y in
              (self.phi, np.log(self.dphi), np.log(-self.d2phi))]
        packs = np.concatenate([s.c for s in sp]).T.tolist()
        knots = t.tolist()
        q_lo, q_hi = float(self.q[0]), float(self.q[-1])
        last = len(packs) - 1
        # segment j serves lo[j] <= t < hi[j]; the open ends are the clamps of
        # the bisection below
        lo = [-math.inf] + knots[1:last + 1]
        hi = knots[1:last + 1] + [math.inf]
        log1p, exp = math.log1p, math.exp
        # the last segment used: 99 % of the table2 preset's queries and 94 % of
        # a three-node Gauss-Seidel solve's fall in it again
        seg = 0

        def eval3(p):
            nonlocal seg
            if p > q_hi:
                raise MomentRangeError(
                    f"moment tabulation queried at power {p:.6g} beyond its range "
                    f"{q_hi:.6g}", argument=p)
            if p < q_lo:
                raise MomentRangeError(
                    f"moment tabulation queried below its first knot ({p:.6g})",
                    argument=p)
            t = log1p(p)
            j = seg
            if not lo[j] <= t < hi[j]:
                j = bisect_right(knots, t) - 1
                if j > last:
                    j = last
                elif j < 0:
                    j = 0
                seg = j
            u = t - knots[j]
            c = packs[j]
            val = ((c[0] * u + c[1]) * u + c[2]) * u + c[3]
            d1 = ((c[4] * u + c[5]) * u + c[6]) * u + c[7]
            d2 = ((c[8] * u + c[9]) * u + c[10]) * u + c[11]
            return val, exp(d1), -exp(d2)

        return eval3

    def eval3(self, p: float):
        """(phi, phi', phi'') at scalar power p; raises beyond the knot range."""
        evaluate = self._evaluator
        if evaluate is None:
            evaluate = self._evaluator = self._build_evaluator()
        return evaluate(p)


class ExactRateMoments:
    """Moment evaluator for a lone transmitter: phi collapses to the rate."""

    def __init__(self, rf: RateFunction):
        self._n0 = rf.n0
        self._ln2 = math.log(2.0)

    qmax = math.inf
    can_extend = False

    def eval3(self, p: float):
        if p < 0.0:
            raise MomentRangeError(f"rate queried at negative power {p:.6g}", argument=p)
        n0p = self._n0 + p
        d1 = 1.0 / (2.0 * self._ln2 * n0p)
        return 0.5 * math.log1p(p / self._n0) / self._ln2, d1, -d1 / n0p


def phi_moments(state: SystemState, j: int, q_grid) -> PhiMoments:
    """Tabulate the coordinate moments of node ``j`` on the given power knots.

    One tensor sum over the other nodes' laws per knot, like the throughput;
    derivative moments use analytic rate derivatives.
    """
    m = state.node_count
    if not 0 <= j < m:
        raise UsageError(f"node index {j} out of range for {m} nodes")
    q = np.unique(np.asarray(q_grid, dtype=float))
    if np.any(q < 0.0):
        raise DomainError("power knots must be nonnegative")
    powers, weights = _node_laws(state, skip=j)
    rf = state.rate
    funcs = (lambda a: rate(rf, a),
             lambda a: rate_deriv(rf, a, 1),
             lambda a: rate_deriv(rf, a, 2))

    def tabulate(knots):
        return _tensor_sums(funcs, powers, weights, knots)

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
