"""Sum-throughput of coupled transmitters and its coordinate moments.

The long-run sum-throughput is the mean of r(sum_k p_k(X_k)) under the
product of the per-node stationary laws.  Each law is an atom at an empty
battery plus a density on (0, L]; on the measure grid it becomes one
discrete law, the atom as a point of power 0 and weight pi_0 beside the
density's quadrature points.  The throughput is one weighted sum of the
rate over the tensor product of all nodes' laws.  The same sum with one
coordinate held at a scalar power argument, over the other nodes' laws,
yields the moment functions feeding the necessary-condition ODE.

Both reduce through one kernel, ``_tensor_sums``.  It takes the powers in
units of the noise level n0, splits the laws into a leading and a trailing
half, and walks the tensor grid in cache-sized blocks: a slice of the
moment knots x a slice of the leading half x the whole trailing half, so no
block outgrows the cache whatever the node count.  Each block of rate
arguments a is built once.  The rate needs one log1p(a) per argument, and
the moments take 1 / (1 + a) and its square from one reciprocal in place.
Each result is contracted with the trailing half's weights and then the
leading block's, and the rate constants are applied to the finished sums.
Zero, one or many summed laws take the same path.  The rate functions of
``rates`` stay the scalar and array API; the sums do not call them.
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
from .rates import RateFunction, rate

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
# float64 elements are 512 KiB, so a block's arguments and its log1p values
# stay in a 1-4 MiB L2 cache.  On a three-node moment tabulation at grid 128
# (104 knots x 130 x 130 powers; one thread of a 2-core x86-64 VM, numpy
# 2.4), 64k-element blocks took 13-14 ms, against 14-17 ms for 16k, 16-19 ms
# for 256k and 28-32 ms for 4M-element blocks.
_CHUNK = 1 << 16
_LN2 = math.log(2.0)


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


def _flat_law(powers, weights):
    """One law of the summed powers of a group of laws, flattened.

    An empty group is the point 0 of weight 1.
    """
    if not powers:
        return np.zeros(1), np.ones(1)
    return (reduce(np.add.outer, powers).ravel(),
            reduce(np.multiply.outer, weights).ravel())


def _tensor_sums(n0, powers, weights, base, moments=False):
    """Sum of r(base + sum powers) * prod weights, and of r' and r'' with ``moments``.

    ``base`` is a scalar or a 1-d array of scalar power offsets; each sum has
    one entry per offset, and the sums come as the rows of one array.  The
    k laws form a leading half (the first k // 2, flattened) and a trailing
    half (the rest, flattened).  A block is a slice of the offsets x a slice
    of the leading half x the whole trailing half: at most ``_CHUNK``
    arguments, unless the trailing half alone exceeds that.

    Every argument is taken in units of n0, a = x / n0.  A block then needs
    log1p(a) for the rate and 1 / (1 + a) and its square for the
    derivatives; the constants 0.5 / ln 2, 0.5 / (ln 2 n0) and
    -0.5 / (ln 2 n0^2) are applied to the sums.
    """
    base = np.atleast_1d(np.asarray(base, dtype=float)) / n0
    powers = [np.asarray(p, dtype=float) / n0 for p in powers]
    if (base < 0.0).any() or any((p < 0.0).any() for p in powers):
        raise DomainError("total power must be nonnegative")
    half = len(powers) // 2
    lead, w_lead = _flat_law(powers[:half], weights[:half])
    rest, w_rest = _flat_law(powers[half:], weights[half:])
    q_step = max(1, min(base.size, _CHUNK // rest.size))
    b_step = max(1, _CHUNK // (q_step * rest.size))
    sums = np.zeros((3 if moments else 1, base.size))
    for lo in range(0, lead.size, b_step):
        block, w_block = lead[lo:lo + b_step], w_lead[lo:lo + b_step]
        for q0 in range(0, base.size, q_step):
            offsets = np.add.outer(base[q0:q0 + q_step], block)
            args = (offsets[..., None] + rest).reshape(-1, rest.size)
            out = sums[:, q0:q0 + q_step]
            out[0] += (np.log1p(args) @ w_rest).reshape(offsets.shape) @ w_block
            if moments:
                args += 1.0
                np.reciprocal(args, out=args)
                out[1] += (args @ w_rest).reshape(offsets.shape) @ w_block
                np.square(args, out=args)
                out[2] += (args @ w_rest).reshape(offsets.shape) @ w_block
    scale = 0.5 / _LN2
    sums[0] *= scale
    if moments:
        sums[1] *= scale / n0
        sums[2] *= -scale / (n0 * n0)
    return sums


def sum_throughput(state: SystemState) -> float:
    """Mean of r(total transmitted power) under the product stationary law.

    One tensor sum over every node's law; raises CapacityError beyond
    ``NODE_CAP`` nodes.
    """
    powers, weights = _node_laws(state)
    return float(_tensor_sums(state.rate.n0, powers, weights, 0.0)[0, 0])


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
        """Continue the knots geometrically up to ``new_qmax``.

        Only the new knots are tabulated; the old ones keep their values.
        """
        if self.provider is None:
            raise UsageError("this tabulation has no provider to extend with")
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
    powers, weights = _node_laws(state, skip=j)
    n0 = state.rate.n0

    def tabulate(knots):
        return _tensor_sums(n0, powers, weights, knots, moments=True)

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
