"""Exact-trajectory Monte Carlo of the storage processes.

Between arrivals each battery drains deterministically through the
closed-form depletion map of its policy (no time stepping), empties in
finite time and idles at zero until the next arrival; arrivals add the
packet energy, truncated at the capacity.  Statistics that are integrals
along the trajectory (time at zero, radiated energy, occupancy CDF,
crossing counts) are accumulated in closed form per drain segment, so the
only sampling error left is the randomness of the arrivals themselves.
The occupancy CDF and the crossing counts share one sort per level array
(``_live_levels``): the start levels of the segments that drain,
with their tau gathered in the same order, and their end levels.  Tied start
levels carry equal tau, since the walk reads tau from the level alone (the
burn-in clip too), so the order an unstable sort leaves among ties never
reaches a prefix sum.  The CDF is taken on 256 levels per node.

The walk is one row per arrival, and a row that empties the battery, or
whose packet alone fills it, forgets everything before it (the storage
process regenerates there).  So the arrivals are cut into blocks after rows
that must empty (on an unbounded battery: that very likely empty) and after
rows whose packet fills the battery, every block is walked at once in numpy
lockstep until few are left, which finish on plain floats, and each cut is
then checked against the level the walk before it really left; the blocks
whose start was wrong are walked again.  The rows come out bitwise equal to
a one-row-at-a-time loop.  They are written into grow-only buffers that
every replication of one ``simulate`` call reuses, one per node and one all
nodes share for the rows only the walk reads, so a ``NodeRun``'s arrays are
views, valid until the next replication.

Each node's own transmitted bits also integrate in closed form along drains:
the time integral of r(p) over a drain is the level integral of r(p) / p,
one ``PolicyInterp.drain_integral`` call with the rate cell rule.  So only
the multi-node rate interaction term needs numeric quadrature.  It
is sampled on the merged event timeline, only on the intervals where two or
more nodes drain (elsewhere it is exactly zero), by 3-point Gauss-Legendre
on three panels of each interval that narrow toward its start.  Every drain
end is a cut of that timeline, so a node drains or idles throughout each
interval, and the integrand is smooth between cuts except at the kinks of
the policy; no Gauss point sits on a cut, where it jumps.  The sampler takes
one draining flag per node and interval, and the remainder in one log per
sample (``_rate_remainder``).

The sampled term reads each policy in drain time tau, the time a battery
needs to empty from its level.  Under the cellwise p**2-linear
interpretation the release rate falls linearly in tau inside each cell, so
p at any instant is one ``np.interp`` over the policy's tau nodes; the walk
records tau at every segment start (``NodeRun.seg_tau``), and the sampler
subtracts the elapsed time from it.

The walk has no drain arithmetic of its own: it reads tau of a level and the
level of a tau through ``PolicyInterp.tau`` and ``tau_inverse``, and the
closed-form sums along drains go through ``PolicyInterp.power_integral`` and
``drain_integral``.  The analytic crossing rates that ``crossing_balance``
compares the counts with come from ``measures.crossing_rates``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrivals import HarvestParams, PacketDistribution, sample_arrivals
from .errors import DomainError, check_integers
from .measures import (PolicyGrid, StationaryMeasure, check_admissible, check_probes,
                       crossing_rates)
from .rates import RateFunction, rate

__all__ = ["SimConfig", "TrajectoryStats", "NodeRun", "simulate", "crossing_balance"]


@dataclass(frozen=True)
class SimConfig:
    """Run settings for the trajectory simulator."""

    horizon: float
    replications: int = 1
    seed: int = 0
    burn_in: float = 0.0
    level_probes: tuple = ()

    def __post_init__(self):
        check_integers(replications=self.replications, seed=self.seed)
        if not self.burn_in >= 0.0:
            raise DomainError(f"burn-in must be nonnegative, got {self.burn_in}",
                              field="burn_in")
        if not self.horizon > self.burn_in:
            raise DomainError("horizon must exceed the burn-in time", field="horizon")
        if not math.isfinite(self.horizon):
            raise DomainError(f"horizon must be finite, got {self.horizon}", field="horizon")
        if self.replications < 1:
            raise DomainError("at least one replication is required", field="replications")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}", field="seed")


@dataclass
class NodeRun:
    """Per-node trajectory record of one replication, clipped to the window.

    Each drain segment starts at ``seg_start`` from ``seg_level``, drains for
    ``drain_dur`` down to ``seg_end_level`` (0 when the battery empties) and
    then idles for ``idle_dur`` until the next arrival.  ``seg_tau`` is the
    drain time to empty from ``seg_level``, the walk's own policy coordinate:
    at ``seg_start + s`` the battery releases at p(``seg_tau`` - s).

    The arrays are views of the walk's row buffers, which ``simulate`` reuses
    for every replication, so they stay valid until the next replication.
    """

    seg_start: np.ndarray
    seg_level: np.ndarray
    seg_tau: np.ndarray
    seg_end_level: np.ndarray
    drain_end: np.ndarray     # wall time the drain stops; bitwise equal to the
    drain_dur: np.ndarray     # merged-timeline cut at that instant
    idle_dur: np.ndarray
    pre_arrival: np.ndarray
    post_arrival: np.ndarray
    overflow: float


@dataclass
class TrajectoryStats:
    """Time-average observables with across-replication standard errors."""

    window: float
    replications: int
    throughput: float
    throughput_se: float
    atom: np.ndarray
    atom_se: np.ndarray
    mean_power: np.ndarray
    mean_power_se: np.ndarray
    power_variance: np.ndarray
    power_variance_se: np.ndarray
    overflow_rate: np.ndarray
    overflow_rate_se: np.ndarray
    cdf_levels: np.ndarray
    cdf: np.ndarray            # node x probe, pooled over replications
    crossing_levels: np.ndarray
    down_rate: np.ndarray      # node x probe
    down_rate_se: np.ndarray
    up_rate: np.ndarray
    up_rate_se: np.ndarray
    down_count: np.ndarray
    up_count: np.ndarray
    # work counts summed over replications: arrivals inside the window per
    # node, merged-timeline intervals, and those the joint-rate sampler read
    window_arrivals: np.ndarray
    merged_intervals: int
    sampled_intervals: int

    def to_text(self) -> str:
        lines = [f"window = {self.window!r}",
                 f"replications = {self.replications}",
                 f"throughput = {self.throughput!r} +- {self.throughput_se!r}"]
        for k in range(self.atom.size):
            lines.append(
                f"node{k}: atom = {float(self.atom[k])!r} +- "
                f"{float(self.atom_se[k])!r}, "
                f"mean_power = {float(self.mean_power[k])!r} +- "
                f"{float(self.mean_power_se[k])!r}, "
                f"power_variance = {float(self.power_variance[k])!r} +- "
                f"{float(self.power_variance_se[k])!r}, "
                f"overflow_rate = {float(self.overflow_rate[k])!r}")
        return "\n".join(lines) + "\n"

    def to_record(self) -> dict:
        """The ``to_text`` summary, standard errors and work counts, as JSON values."""
        nodes = [{name: float(getattr(self, name)[k]) for name in _NODE_FIELDS}
                 for k in range(self.atom.size)]
        return {"window": float(self.window), "replications": int(self.replications),
                "throughput": self.throughput, "throughput_se": self.throughput_se,
                "nodes": nodes, "window_arrivals": self.window_arrivals.tolist(),
                "merged_intervals": self.merged_intervals,
                "sampled_intervals": self.sampled_intervals}


_NODE_FIELDS = ("atom", "atom_se", "mean_power", "mean_power_se", "power_variance",
                "power_variance_se", "overflow_rate", "overflow_rate_se")


# An unbounded battery has no level that bounds its drain time, so its walk
# cuts wherever the gap before the next arrival exceeds this fraction of the
# policy's top drain time; a cut whose row does not empty is repaired.  On the
# criterion-5 fixture (constant p = 2, top drain time 6), 16 walks of 1.25e5
# arrivals took 0.50-0.62 s at 1/3 with about three repair passes each,
# against 0.61-0.66 s at 0.2, 0.50-0.59 s at 1/2, 0.68-0.86 s at 2/3,
# 1.5-1.8 s when cutting only beyond the top drain time and 3.9-4.4 s for a
# one-row-at-a-time loop (2 cores, with the float finish below).
_SPECULATIVE_GAP = 1.0 / 3.0

# A pass with at most this many open lanes finishes them one at a time on
# Python floats (``PolicyInterp.scalar_maps``).  A numpy step costs 50-110 us
# however few lanes it moves, a float row about 1.7 us.  On the sim_single
# walks (32 of 12.7k rows each) the count trades 1956 numpy steps and no
# float rows at 0 for 1098 and 3756 at 16, 1000 and 5725 at 24, 932 and
# 7649 at 32, 832 and 11631 at 48: flat from 16 to 32 by that cost.
_SCALAR_LANES = 24

# occupancy CDF grid per node: 257 even points from empty, the empty one dropped
_CDF_LEVELS = 257


class _Workspace:
    """Grow-only row buffers that the walks of one ``simulate`` call reuse.

    Freed row arrays are trimmed off the heap and faulted back in by the next
    replication (12-15k minor faults per sim_single call); reused buffers
    are not.  A buffer grows to an eighth more than the rows asked for.
    """

    def __init__(self):
        self._buffers = {}

    def rows(self, key, count, size):
        """``count`` float rows of length ``size``, from the buffer at ``key``."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape[1] < size:
            buf = self._buffers[key] = np.empty((count, size + size // 8))
        return buf[:, :size]


def _walk_rows(interp, capacity, t_prev, t_next, energy, rows, last, level, walk):
    """Advance walks in lockstep, one row of each per step, writing in place.

    Lane k walks rows ``rows[k]``..``last[k]`` from the start level
    ``level[k]``.  ``walk`` holds the row arrays: the start level each row
    was walked from, tau, the level where the drain stops and the post-arrival
    level.  A lane stops early at the first row whose post level equals the
    stored one (never on a first walk, which finds NaN): the stored rows
    after it follow from it.  Once at most ``_SCALAR_LANES`` lanes are open,
    each is finished alone, row by row on Python floats, through the scalar
    drain maps of ``interp``.  A repair lane may run on into the rows of a
    later lane.  It must write them last: in lockstep it reaches a row after
    the later lane did, and the float lanes finish latest first.  Otherwise
    the later lane would overwrite rows behind the earlier lane's stop and
    leave a row that is no cut starting off its predecessor's stored post
    level, which the cut check of ``_walk_trajectory`` never reads.
    """
    start, tau, end, post = walk
    while rows.size > _SCALAR_LANES:
        t0 = t_prev[rows]
        t1 = t_next[rows]
        # tau(0.0) is 0.0, so an empty battery never drains: t1 >= t0
        tau_r = interp.tau(level)
        drains = t0 + tau_r > t1
        end_r = np.where(drains, interp.tau_inverse(tau_r - (t1 - t0)), 0.0)
        post_r = np.minimum(end_r + energy[rows], capacity)
        go = (rows < last) & (post_r != post[rows])
        start[rows] = level
        tau[rows] = tau_r
        end[rows] = end_r
        post[rows] = post_r
        rows = rows[go] + 1
        last = last[go]
        level = post_r[go]
    tau_of, level_of = interp.scalar_maps
    capacity = float(capacity)
    for row, stop, lv in zip(rows[::-1].tolist(), last[::-1].tolist(), level[::-1].tolist()):
        while True:
            t0 = t_prev.item(row)
            t1 = t_next.item(row)
            tau_r = tau_of(lv)
            end_r = level_of(tau_r - (t1 - t0)) if t0 + tau_r > t1 else 0.0
            post_r = min(end_r + energy.item(row), capacity)
            done = row == stop or post_r == post.item(row)
            start[row] = lv
            tau[row] = tau_r
            end[row] = end_r
            post[row] = post_r
            if done:
                break
            row += 1
            lv = post_r


def _walk_trajectory(interp, capacity, times, energies, burn_in, horizon, node, work=None):
    """Walk over arrivals with exact drains, clipped to the window.

    The walk has one row per arrival plus a closing row at the horizon (its
    energy 0.0 is never used); row j drains the level left by row j - 1 over
    [t_prev, t_next) and then adds the arrival's packet.  A row that empties
    forgets the past, so the rows are cut into blocks after each row whose gap
    exceeds the drain time from the capacity, and every block starts from
    its predecessor's last packet.  A row whose packet is at least the
    capacity forgets the past as well: its post level is min(end + e, C) =
    C = min(e, C), so the rows are also cut after it, busy or not.  An
    unbounded battery has no such bound and never fills; it cuts at gaps
    beyond ``_SPECULATIVE_GAP`` of its top drain time instead.  All blocks
    advance in lockstep, one row of each per numpy step.

    Then every cut is checked: a block walked from another level than the
    post-arrival level its predecessor left is wrong.  The first wrong block
    of each run of consecutive ones is walked again from the right level, on
    through the run, and stops at the first row whose post level equals the
    stored one.  The first run's lane goes on through the later runs too, so
    on a battery that seldom empties, where a wrong level seldom meets the
    right one again, one pass mends every run.  Checks and repairs repeat
    until every cut agrees, so the cut rule sets the speed only.  Each row
    does the arithmetic of a sequential walk in the same order, so the rows
    are bitwise the same.  A pass takes numpy steps only while more than
    ``_SCALAR_LANES`` lanes are open and walks the rest of its longest lanes
    on floats, so the long busy periods of an unbounded battery that seldom
    empties cost a Python loop's time, not one numpy step per row.

    The segment arrays and the window clipping are then built with numpy
    from the rows.  The rows are written into the buffers of ``work`` (a
    ``_Workspace``; a fresh one when None), so the returned arrays are views
    that stay valid until the next walk of ``node`` there.
    """
    rows = times.size + 1
    if work is None:
        work = _Workspace()
    # the rows the NodeRun keeps live in the node's own buffer, the rows only
    # the walk reads in one buffer that every node shares
    t_prev, start, tau, end, post, t_stop, drain_dur, idle_dur = work.rows(node, 8, rows)
    t_next, energy = work.rows("shared", 2, rows)
    t_prev[0] = 0.0
    t_prev[1:] = times
    t_next[:-1] = times
    t_next[-1] = horizon
    energy[:-1] = energies
    energy[-1] = 0.0
    post.fill(np.nan)   # a first walk never stops early
    walk = (start, tau, end, post)
    if math.isinf(capacity):
        gap = _SPECULATIVE_GAP * interp.tau_nodes[-1]
    else:
        gap = interp.tau(capacity)
    cut = np.flatnonzero((t_prev[:-1] + gap < t_next[:-1]) | (energy[:-1] >= capacity))
    first = np.concatenate(([0], cut + 1))
    last = np.append(cut, rows - 1)
    level = np.concatenate(([0.0], np.minimum(energy[cut], capacity)))
    _walk_rows(interp, capacity, t_prev, t_next, energy, first, last, level, walk)
    while True:
        bad = np.flatnonzero(start[first[1:]] != post[first[1:] - 1]) + 1
        if not bad.size:
            break
        # the first wrong block of a chain starts from the right level; its
        # lane runs on through the chain, up to the next chain's first block,
        # whose start may be stale.  The first chain's start is right, so its
        # lane runs on through the later chains too (``_walk_rows`` has it
        # write their rows last)
        head = bad[np.diff(bad, prepend=-1) > 1]
        stop = np.append(first[head[1:]] - 1, rows - 1)
        stop[0] = rows - 1
        _walk_rows(interp, capacity, t_prev, t_next, energy, first[head], stop,
                   post[first[head] - 1], walk)

    # a drain that empties stops at the exact float t_prev + tau, which the
    # merged timeline cuts at, so a node drains or idles throughout each of
    # its intervals; an empty battery (tau = 0) stops at t_prev
    np.minimum(np.add(t_prev, tau, out=t_stop), t_next, out=t_stop)

    # arrivals inside the window; an arrival overflows by (pre + energy) - post,
    # which is exactly 0.0 unless the capacity clipped it
    a = int(np.searchsorted(times, burn_in, side="left"))
    pre_arr = end[a:-1]
    post_arr = post[a:-1]
    overflow = float(np.sum(pre_arr + energies[a:] - post_arr))

    # window rows: those ending after the burn-in; only the first can start
    # before it
    w = int(np.searchsorted(t_next, burn_in, side="right"))
    seg_start = t_prev[w:]
    seg_level = start[w:]
    seg_tau = tau[w:]
    seg_end_level = end[w:]
    drain_end = t_stop[w:]
    if seg_start[0] < burn_in:
        if drain_end[0] > burn_in:   # drain straddles the burn-in: clip it
            seg_level[0] = interp.tau_inverse(seg_tau[0] - (burn_in - seg_start[0]))
            seg_tau[0] = interp.tau(seg_level[0])   # tau of the level, as every row's
        else:                        # empty at the burn-in
            seg_level[0] = seg_tau[0] = 0.0
            drain_end[0] = burn_in
        seg_start[0] = burn_in
    drain_dur = np.subtract(drain_end, seg_start, out=drain_dur[w:])
    idle_dur = np.subtract(t_next[w:], drain_end, out=idle_dur[w:])
    return NodeRun(seg_start=seg_start, seg_level=seg_level, seg_tau=seg_tau,
                   seg_end_level=seg_end_level, drain_end=drain_end,
                   drain_dur=drain_dur, idle_dur=idle_dur, pre_arrival=pre_arr,
                   post_arrival=post_arr, overflow=overflow)


def _live_levels(run: NodeRun):
    """Sorted start levels of the segments that drain, their tau in that
    order, and their sorted end levels.

    The sort leaves the order among tied start levels open; ties carry equal
    tau, so no prefix sum sees that order.
    """
    live = run.drain_dur > 0.0
    a = run.seg_level[live]
    order = np.argsort(a)
    return a[order], run.seg_tau[live][order], np.sort(run.seg_end_level[live])


def _occupancy_cdf(interp, run: NodeRun, levels, probes, window):
    """Exact fraction of window time spent at or below each probe level.

    The time a drain from a to b spends at or below q is
    tau(clip(q, b, a)) - tau(b); summing over segments reduces to sorted
    prefix sums, so the cost is O((segments + probes) log segments).
    ``levels`` is ``_live_levels(run)``.
    """
    a, ta, b = levels
    pref_ta = np.concatenate(([0.0], np.cumsum(ta)))
    pref_tb = np.concatenate(([0.0], np.cumsum(interp.tau(b))))
    atom_time = float(np.sum(run.idle_dur))
    cnt_a = np.searchsorted(a, probes, side="right")   # drains fully below q
    cnt_b = np.searchsorted(b, probes, side="left")    # drain floors below q
    below = (atom_time + pref_ta[cnt_a] - pref_tb[cnt_b]
             + interp.tau(probes) * (cnt_b - cnt_a))
    return below / window


def _crossing_counts(run: NodeRun, levels, probes):
    """Down/up crossing counts at each probe level; ``levels`` as above."""
    a, _, b = levels
    down = (np.searchsorted(b, probes, side="left")
            - np.searchsorted(a, probes, side="left"))
    up = (np.searchsorted(np.sort(run.pre_arrival), probes, side="left")
          - np.searchsorted(np.sort(run.post_arrival), probes, side="left"))
    return down.astype(float), up.astype(float)


def _rate_cells(rf: RateFunction):
    """Cell rule for the integral of r(p(v)) / p(v) dv, the own-rate bits.

    Over a drain the time differential is dv / p(v), so this integral in the
    level is the time integral of the own rate r(p(X(t))).  Under the cellwise
    p^2-linear interpretation dv = 2 p dp / b, with b the slope of p^2, so a
    cell gives 2 dx / (p0 + p1) times the mean of r over [p0, p1].  With
    t = (p1 - p0) / (n0 + p0) that mean is [ln(1 + p0/n0) + phi(t)] / (2 ln 2),
    phi(t) = (1 + t) ln(1 + t) / t - 1, summed as its series t/2 - t^2/6 +
    t^3/12 for |t| < 1e-4.  Differencing the rate antiderivative instead
    cancels at small p/n0 (2.5e-7 relative at p = 1e-3); this rule keeps every
    cell within a few 1e-12 of an exact reference.
    """
    def cells(p0, p1, dx):
        t = (p1 - p0) / (rf.n0 + p0)
        series = np.abs(t) < 1e-4
        ts = np.where(series, 1.0, t)
        phi = np.where(series, t * (0.5 - t * (1.0 / 6.0 - t / 12.0)),
                       ((1.0 + ts) * np.log1p(ts) - ts) / ts)
        return dx * (np.log1p(p0 / rf.n0) + phi) / (math.log(2.0) * (p0 + p1))

    return cells


def _own_bits(interp, rf: RateFunction, run: NodeRun) -> float:
    """Bits one node's own rate sends over its drains, in closed form."""
    cells = _rate_cells(rf)
    top = rate(rf, interp.p[-1]) / interp.p[-1]
    return float(np.sum(interp.drain_integral(run.seg_level, cells, top)
                        - interp.drain_integral(run.seg_end_level, cells, top)))


# merged intervals per block of the joint-rate sampler: with 9 samples each,
# a block's sample arrays (4096 x 9 float64, 288 KiB apiece) stay in a 1-4
# MiB L2 cache.  On one two-node sim_pair replication (grid 512, 5e4 time
# units, 2 cores, with the 19-sample trapezoid the Gauss-Legendre rule below
# replaced), sampling every interval took 0.42-0.55 s in 200k-interval
# blocks and 0.25-0.34 s in 4096-interval ones; skipping the intervals with
# fewer than two draining nodes took that to 0.13-0.20 s, and the traced peak
# memory fell from 190 to 10 MiB.
_JOINT_CHUNK = 4096


def _gauss_rule(edges, nodes, weights):
    """Composite Gauss-Legendre rule on the panels between ``edges``.

    ``nodes`` and ``weights`` are the rule on [-1, 1].  Returns the sample
    fractions, all strictly inside their panels, and their weights, which
    sum to ``edges[-1] - edges[0]``.
    """
    edges = np.asarray(edges, dtype=float)[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])
    return (edges[:-1] + half + half * nodes).ravel(), (half * weights).ravel()


# 3-point Gauss-Legendre in closed form: numpy.polynomial's leggauss gives
# the same rule to an ulp, but importing that package costs every run 1.6 MiB
# of resident memory
_GL3 = ([-math.sqrt(0.6), 0.0, math.sqrt(0.6)], [5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
# on three panels of each sampled interval, narrow toward its start: right
# after an arrival an aggressive policy sheds the top charge within a small
# fraction of the interval
_JOINT_RULE = _gauss_rule([0.0, 0.1, 0.4, 1.0], *_GL3)


def _rate_remainder(qs):
    """r(sum p) - sum r(p) over the nodes' q = p / n0, in one log.

    With s = sum q and e = prod(1 + q) - 1 - s, the remainder is
    -log1p(e / (1 + s)) / (2 ln 2).  e is accumulated node by node as
    e (1 + q) + q s, a sum of nonnegative terms, so nothing cancels; the
    result is never positive, and exactly 0.0 when at most one q is nonzero.
    """
    s = e = 0.0
    for q in qs:
        e = e * (1.0 + q) + q * s
        s = s + q
    return np.log1p(e / (1.0 + s)) / (-2.0 * math.log(2.0))


def _segment_index(t, run: NodeRun):
    """The node's segment at each merged interval start ``t[:-1]``.

    Every segment start is a cut of ``t``, so counting the starts at or
    before each cut gives the last segment that began by then.
    """
    starts = np.bincount(np.searchsorted(t, run.seg_start), minlength=t.size)
    return np.cumsum(starts[:t.size - 1]) - 1


def _joint_rate_integral(interps, runs, rf: RateFunction, burn_in, horizon,
                         rule=_JOINT_RULE, chunk=_JOINT_CHUNK):
    """Integral of r(sum of release rates) over the window, merged timeline.

    Each node's own-rate integral is exact (``_own_bits``); only the
    interaction remainder r(sum p_k) - sum r(p_k), which is bounded and
    varies on the slow timescale, is sampled on the merged event timeline.
    Between cuts every node drains or idles throughout, and the remainder is
    exactly 0.0 where at most one node drains, so only intervals with two
    or more draining nodes are sampled.  ``rule`` holds the sample fractions
    of an interval and their weights; the default Gauss-Legendre fractions
    lie strictly inside it, so no sample sits on an event instant.

    Returns the integral, the number of merged intervals and the number
    sampled.
    """
    exact = sum(_own_bits(interp, rf, run) for interp, run in zip(interps, runs))
    if len(runs) == 1:
        return exact, 0, 0
    # the segments are clipped to the window, so every cut lies inside it
    cuts = [np.asarray([burn_in, horizon])]
    for run in runs:
        empties = (run.seg_end_level == 0.0) & (run.drain_dur > 0.0)
        cuts += [run.seg_start, run.drain_end[empties]]
    t = np.unique(np.concatenate(cuts))
    # a node drains through the interval iff it starts before the drain ends
    segs = [_segment_index(t, run) for run in runs]
    busy = sum((t[:-1] < run.drain_end[idx]).astype(np.intp)
               for run, idx in zip(runs, segs))
    keep = np.flatnonzero(busy >= 2)
    segs = [idx[keep] for idx in segs]
    frac, weight = rule
    total = 0.0
    for lo in range(0, keep.size, chunk):
        block = keep[lo:lo + chunk]
        t0 = t[block]
        dt = t[block + 1] - t0
        elapsed = dt[:, None] * frac

        def q_at(interp, run, seg):
            idx = seg[lo:lo + chunk]
            # p is linear in drain time inside each cell, and the clamps give
            # p(0+) at tau <= 0 and the top value beyond the last node
            tau0 = run.seg_tau[idx] - (t0 - run.seg_start[idx])
            q = np.interp(tau0[:, None] - elapsed, interp.tau_nodes, interp.p / rf.n0)
            q *= (t0 < run.drain_end[idx])[:, None]
            return q

        vals = _rate_remainder(map(q_at, interps, runs, segs))
        total += float(np.sum((vals @ weight) * dt))
    return exact + total, t.size - 1, keep.size


def simulate(nodes, rf: RateFunction, config: SimConfig) -> TrajectoryStats:
    """Run the event-driven storage simulation and collect time averages.

    ``nodes`` is a sequence of (HarvestParams, PolicyGrid, PacketDistribution)
    triples; every statistic is bit-reproducible under (config, seed).
    """
    nodes = list(nodes)
    m = len(nodes)
    if m < 1:
        raise DomainError("at least one node is required")
    probes_cross = np.asarray(config.level_probes, dtype=float)
    for params, policy, dist in nodes:
        check_admissible(policy, params, dist)
        check_probes(probes_cross, policy)
    window = config.horizon - config.burn_in
    interps = [policy.interp(extend=params.is_infinite)
               for params, policy, _ in nodes]
    # per-node probe grids: a finite battery never exceeds its capacity,
    # an unbounded one gets headroom beyond the policy's sampled span
    probes_cdf = [np.linspace(0.0, policy.capacity if not params.is_infinite
                              else 1.5 * policy.capacity, _CDF_LEVELS)[1:]
                  for params, policy, _ in nodes]

    reps = config.replications
    thr = np.empty(reps)
    atom = np.empty((reps, m))
    mean_p = np.empty((reps, m))
    var_p = np.empty((reps, m))
    over = np.empty((reps, m))
    cdf_acc = [np.zeros(p.size) for p in probes_cdf]
    down = np.zeros((reps, m, probes_cross.size))
    up = np.zeros((reps, m, probes_cross.size))
    arrivals = np.zeros(m, dtype=np.int64)
    merged = sampled = 0
    work = _Workspace()

    for rep in range(reps):
        runs = []
        for k, (params, policy, dist) in enumerate(nodes):
            times, energies = sample_arrivals(params, dist, config.horizon,
                                              config.seed, node=k, replication=rep)
            run = _walk_trajectory(interps[k], params.capacity, times, energies,
                                   config.burn_in, config.horizon, k, work)
            runs.append(run)
            arrivals[k] += run.pre_arrival.size
            atom[rep, k] = float(np.sum(run.idle_dur)) / window
            energy_out = float(np.sum(run.seg_level - run.seg_end_level))
            mean_p[rep, k] = energy_out / window
            sq = float(np.sum(interps[k].power_integral(run.seg_level)
                              - interps[k].power_integral(run.seg_end_level)))
            var_p[rep, k] = sq / window - mean_p[rep, k] ** 2
            over[rep, k] = run.overflow / window
            levels = _live_levels(run)
            cdf_acc[k] += _occupancy_cdf(interps[k], run, levels, probes_cdf[k], window)
            if probes_cross.size:
                d, u = _crossing_counts(run, levels, probes_cross)
                down[rep, k] = d / window
                up[rep, k] = u / window
            del levels   # the sorted copies are not held through the joint integral
        bits, n_merged, n_sampled = _joint_rate_integral(
            interps, runs, rf, config.burn_in, config.horizon)
        # the runs are views of ``work``, whose buffers the next replication
        # walks in again; released here are the arrivals and any outgrown buffer
        del runs, run, times, energies
        thr[rep] = bits / window
        merged += n_merged
        sampled += n_sampled

    def se(arr):
        if reps == 1:
            return np.zeros(arr.shape[1:])
        return np.std(arr, axis=0, ddof=1) / math.sqrt(reps)

    return TrajectoryStats(
        window=window, replications=reps,
        throughput=float(np.mean(thr)),
        throughput_se=float(se(thr)),
        atom=np.mean(atom, axis=0), atom_se=se(atom),
        mean_power=np.mean(mean_p, axis=0), mean_power_se=se(mean_p),
        power_variance=np.mean(var_p, axis=0), power_variance_se=se(var_p),
        overflow_rate=np.mean(over, axis=0), overflow_rate_se=se(over),
        cdf_levels=np.asarray(probes_cdf), cdf=np.asarray(cdf_acc) / reps,
        crossing_levels=probes_cross,
        down_rate=np.mean(down, axis=0), down_rate_se=se(down),
        up_rate=np.mean(up, axis=0), up_rate_se=se(up),
        down_count=np.sum(down, axis=0) * window,
        up_count=np.sum(up, axis=0) * window,
        window_arrivals=arrivals,
        merged_intervals=merged, sampled_intervals=sampled)


def crossing_balance(stats: TrajectoryStats, measure: StationaryMeasure,
                     policy: PolicyGrid, params: HarvestParams,
                     dist: PacketDistribution, node: int = 0):
    """Compare counted crossing rates of one node against the stationary law.

    At each probe the long-run down-crossing rate must equal f(x) p(x) and
    the up-crossing rate its arrival-side counterpart; ``crossing_rates``
    evaluates both from the supplied measure, and the verdicts use three
    across-replication standard errors.
    """
    probes = stats.crossing_levels
    if probes.size == 0:
        raise DomainError("the simulation tracked no crossing probes")
    check_probes(probes, policy)
    ana_down, ana_up = crossing_rates(measure, policy, params, dist, probes)
    records = []
    for i, q in enumerate(probes):
        emp_d, se_d = float(stats.down_rate[node, i]), float(stats.down_rate_se[node, i])
        emp_u, se_u = float(stats.up_rate[node, i]), float(stats.up_rate_se[node, i])
        records.append({
            "level": float(q),
            "down_empirical": emp_d, "down_se": se_d,
            "down_analytic": float(ana_down[i]),
            "down_within_3se": abs(emp_d - ana_down[i]) <= 3.0 * max(se_d, 5e-16),
            "up_empirical": emp_u, "up_se": se_u,
            "up_analytic": float(ana_up[i]),
            "up_within_3se": abs(emp_u - ana_up[i]) <= 3.0 * max(se_u, 5e-16),
        })
    return records
