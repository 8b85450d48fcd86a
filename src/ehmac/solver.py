"""Power-policy synthesis.

``el_ode_solve`` integrates the first-order necessary condition for a
utility-maximizing release policy,

    p'(x) = -[(lam - zeta p) phi'(p) + zeta phi(p) + K] / (p phi''(p)),

where phi is the mean rate seen by this node given the other nodes' laws.
The equation is singular at p = 0, but p * p' stays smooth, so the
integrator advances y = p**2 (exact through the steep start) and hands over
to log(p) once the policy grows large; solutions can grow doubly
exponentially in the battery level.

Where the equation comes from.  With exponential packets the stationary law
of a node under p has an atom pi0 at empty and the density f = lam pi0 u w,
where u = 1/p and w(x) = exp(int_0^x (lam u - zeta)).  The node's coordinate
utility E phi(p(X)) is therefore J = N / D, with pi0 = 1 / D and

    N = phi(0) + lam int_0^L phi(p) u w dx,    D = 1 + lam int_0^L u w dx.

A stationary point has dN - J dD = 0 for every variation du.  With
F(u) = lam u (phi(1/u) - J) and dw(x) = lam w(x) int_0^x du this reads

    F'(u(y)) w(y) + lam int_y^L F(u) w dx = 0        for all y in (0, L).

Differentiating in y, with w' = (lam u - zeta) w, F'(u) = lam (phi - J - p phi')
and F''(u) = lam p^3 phi'', gives

    p p' phi''(p) + (lam - zeta p) phi'(p) + zeta phi(p) - zeta J = 0,

the equation above with K = -zeta J.  J is the optimal utility itself and is
not known in advance, so the solvers take K as a free constant and
``best_k_search`` scans it.  At the best constant the scan must return
K* = -zeta U* up to its step (for identical nodes J is the sum-throughput
U); a K measured on another scale or with another offset would break this.

Both outer iterations are one coordinate ascent on that ODE, run by one
driver.  ``solve_mac_gauss_seidel`` gives every node its own policy and
updates the nodes in order; ``solve_symmetric_mac`` ties one policy across
statistically identical nodes and updates it once per sweep, which is the
fixed-point iteration.  Both hold (p(0+), K) fixed unless the config lists
start candidates to search, and stop when the relative utility improvement
drops below ``theta_tol`` (the smallest of the per-node values).

Both begin from the same start: the initial policies, their closed-form
measures, the utility of that state and node 0's first moment table,
tabulated against it.  None of it depends on K, so K is not in the start's
key (the nodes, the rate curve and each free node's grid size, p(0+) and
initial policy); the start is built once per distinct key and shared, with
read-only arrays, by consecutive solves at that key, such as the solves of
a best-K scan.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .arrivals import HarvestParams
from .errors import (DomainError, MomentRangeError, NonAdmissibleTrajectoryError,
                     NumericOverflowError, SolverDivergenceError, UsageError,
                     check_integers)
from .grids import uniform_grid
from .measures import PolicyGrid, measure_closed_form
from .rates import RateFunction
from .throughput import (ExactRateMoments, QMAX_CAP, SystemState, drop_laws, phi_moments,
                         sum_throughput)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "el_ode_solve",
    "el_residual",
    "solve_symmetric_mac",
    "solve_mac_gauss_seidel",
    "constant_policy_stats",
    "best_k_search",
]

INIT_POLICIES = ("linear", "constant", "sqrt")

_LOG_P_CAP = 0.5 * math.log(QMAX_CAP)  # log(p) ceiling before overflow abort
_SWITCH_FACTOR = 1e3  # hand over from y = p^2 to log(p) at this multiple
_MAX_LOG_STEP = 0.15  # el_residual skips nodes whose log p steps exceed this
K_SCAN_CAP = 10_000  # solves a best-K scan may plan; a table2 scan plans 32 (runs 29)


@dataclass(frozen=True)
class SolverConfig:
    """Settings shared by the ODE integrator and the outer iterations.

    k_const is the free equation constant (one per node); p0plus the policy
    right limit at an empty battery.  A non-empty ``p0plus_candidates`` or
    ``k_candidates`` makes every update search the (p(0+), K) pairs they
    span; an empty one stands for ``p0plus`` or ``k_const``.  ``theta_tol``
    stops the outer loop on relative utility improvement.
    ``divergence_tol`` is the utility drop between successive updates
    treated as divergence: with the start values held fixed the iteration
    approaches its fixed point through a damped oscillation, so the default
    leaves room for the early swings while still catching a collapsing run.
    """

    k_const: float = 0.0
    p0plus: float = 0.001
    grid_n: int = 512
    theta_tol: float = 0.01
    max_outer: int = 60
    ode_substeps: int = 4
    init_policy: str = "linear"
    divergence_tol: float = 0.15
    p0plus_candidates: tuple = ()
    k_candidates: tuple = ()

    def __post_init__(self):
        if not math.isfinite(self.k_const):
            raise DomainError(f"k_const must be finite, got {self.k_const}", field="k_const")
        check_integers(grid_n=self.grid_n, ode_substeps=self.ode_substeps,
                       max_outer=self.max_outer)
        if not 0.0 < self.p0plus < math.inf:
            raise DomainError(f"p(0+) must be positive and finite, got {self.p0plus}",
                              field="p0plus")
        if not self.theta_tol > 0.0:
            raise DomainError(f"theta_tol must be positive, got {self.theta_tol}",
                              field="theta_tol")
        if self.grid_n < 64:
            raise DomainError(f"grid_n must be at least 64, got {self.grid_n}", field="grid_n")
        if self.ode_substeps < 1:
            raise DomainError("ode_substeps must be at least 1", field="ode_substeps")
        if self.max_outer < 1:
            raise DomainError("max_outer must be at least 1", field="max_outer")
        if self.init_policy not in INIT_POLICIES:
            raise UsageError(f"init_policy must be one of {INIT_POLICIES}, "
                             f"got {self.init_policy!r}", field="init_policy")
        if not self.divergence_tol >= 0.0:
            raise DomainError(f"divergence_tol must be nonnegative, got "
                              f"{self.divergence_tol}", field="divergence_tol")
        if not all(0.0 < p0 < math.inf for p0 in self.p0plus_candidates):
            raise DomainError(f"p(0+) candidates must be positive and finite, got "
                              f"{self.p0plus_candidates}", field="p0plus_candidates")
        if not all(math.isfinite(k) for k in self.k_candidates):
            raise DomainError(f"K candidates must be finite, got {self.k_candidates}",
                              field="k_candidates")


@dataclass
class SolveReport:
    """Outcome of an outer iteration: final policies, measures, utility trace."""

    policies: list
    measures: list
    utilities: list
    termination: str
    policy_history: list = field(default_factory=list, repr=False)

    @property
    def utility(self) -> float:
        return self.utilities[-1]

    @property
    def sweeps(self) -> int:
        return len(self.utilities) - 1

    @property
    def initial_utility(self) -> float:
        return self.utilities[0]

    def write_dir(self, outdir):
        """Serialize policies, measures and the trace as text files."""
        from pathlib import Path

        from .measures import export_measure, export_policy

        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        for k, (pol, meas) in enumerate(zip(self.policies, self.measures)):
            export_policy(pol, out / f"policy_node{k}.csv")
            export_measure(meas, out / f"measure_node{k}.csv")
        with open(out / "report.txt", "w", encoding="utf-8") as fh:
            fh.write(f"termination = {self.termination}\n")
            fh.write(f"sweeps = {self.sweeps}\n")
            fh.write(f"initial_utility = {self.initial_utility!r}\n")
            fh.write(f"utility = {self.utility!r}\n")
            fh.write("trace = " + ", ".join(repr(u) for u in self.utilities) + "\n")


def initial_policy(capacity: float, grid_n: int, p0plus: float,
                   init_policy: str) -> PolicyGrid:
    x = uniform_grid(capacity, grid_n)
    if init_policy == "linear":
        vals = x + p0plus
    elif init_policy == "constant":
        vals = np.full_like(x, p0plus)
    else:
        vals = p0plus + np.sqrt(x)
    vals[0] = 0.0
    return PolicyGrid(grid=x, values=vals, p0plus=p0plus)


def _driven_to_zero(pos: float):
    raise NonAdmissibleTrajectoryError(
        f"release rate driven to zero near level {pos:.6g}", where=pos)


def _overflowed(pos: float, what: str = "release rate"):
    raise NumericOverflowError(
        f"{what} exceeded the floating range near level {pos:.6g}", where=pos) from None


def _integrate(phi, lam: float, zeta: float, k_const: float, x: np.ndarray,
               substeps: int, p0plus: float) -> np.ndarray:
    """Fixed-step RK4 along the level grid; returns p at the grid nodes.

    The state is y = p**2 while ``in_y`` holds and log(p) after the hand-over.
    The loop runs on plain floats.  Most substeps run in y (97 % of the grid
    nodes of a table2 pass), so the y substep is written out stage by stage
    and in the common case makes no Python call: it holds the moments' live
    spline segment (``phi.live_segment()``) in locals and evaluates its three
    cubics inline while t = log1p(p) stays inside it.  Any other y query goes
    to ``phi.eval3``, which keeps the range checks and the segment search,
    and the segment that call used becomes the live one.  The inline cubics
    are eval3's arithmetic, so either route gives the same bits; a lone
    node's exact moments have no segment.  The log p substep loops over its
    stages and reads every moment through ``phi.eval3``.

    The y stages use exact identities only: stage 1 reads the state itself
    (the state is positive or +0.0, which fails either way), k1 + 2 k2 +
    2 k3 + k4 is the weighted sum from -0.0 in the same order, and
    2 num / exp(C) is -2 num / d2 with d2 = -exp(C).  A slope whose
    denominator underflows to zero raises NumericOverflowError at the
    substep's level.
    """
    eval3, live_segment = phi.eval3, phi.live_segment
    log1p, exp, sqrt = math.log1p, math.exp, math.sqrt
    switch_hi = _SWITCH_FACTOR * max(1.0, lam / zeta, p0plus)
    switch_lo = 0.5 * switch_hi
    y_to_s = switch_hi * switch_hi
    s_to_y = math.log(switch_lo)
    xs = x.tolist()
    in_y = True
    t_lo = t_hi = math.nan  # no live segment: the first query goes to eval3
    out = [p0plus]
    state = p0plus * p0plus
    try:
        for i in range(len(xs) - 1):
            x0 = xs[i]
            hsub = (xs[i + 1] - x0) / substeps
            half = 0.5 * hsub
            sixth = hsub / 6.0
            for j in range(substeps):
                if not in_y:
                    k = 0.0
                    acc = -0.0  # the exact additive identity, so acc = k1 after stage 1
                    # stages as (offset, weight): k1 + 2 k2 + 2 k3 + k4, left to right
                    for off, weight in ((0.0, 1.0), (half, 2.0), (half, 2.0), (hsub, 1.0)):
                        arg = state + off * k
                        if arg > _LOG_P_CAP:
                            _overflowed(x0 + j * hsub)
                        p = exp(arg)
                        val, d1, d2 = eval3(p)
                        k = -((lam - zeta * p) * d1 + zeta * val + k_const) / (p * p * d2)
                        acc = acc + weight * k
                    state = state + sixth * acc
                    if state > _LOG_P_CAP:
                        _overflowed(x0 + j * hsub)
                    if state < s_to_y:
                        in_y = True
                        state = math.exp(2.0 * state)
                    continue
                # y = p**2: the four stages written out
                p = _driven_to_zero(x0 + j * hsub) if state <= 0.0 else sqrt(state)
                t = log1p(p)
                if t_lo <= t < t_hi:
                    u = t - t0
                    val = ((a0 * u + a1) * u + a2) * u + a3
                    d1 = exp(((b0 * u + b1) * u + b2) * u + b3)
                    e2 = exp(((c0 * u + c1) * u + c2) * u + c3)
                else:
                    val, d1, d2 = eval3(p)
                    e2 = -d2
                    t_lo, t_hi, t0, a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3 = live_segment()
                k1 = 2.0 * ((lam - zeta * p) * d1 + zeta * val + k_const) / e2
                arg = state + half * k1
                p = _driven_to_zero(x0 + j * hsub) if arg <= 0.0 else sqrt(arg)
                t = log1p(p)
                if t_lo <= t < t_hi:
                    u = t - t0
                    val = ((a0 * u + a1) * u + a2) * u + a3
                    d1 = exp(((b0 * u + b1) * u + b2) * u + b3)
                    e2 = exp(((c0 * u + c1) * u + c2) * u + c3)
                else:
                    val, d1, d2 = eval3(p)
                    e2 = -d2
                    t_lo, t_hi, t0, a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3 = live_segment()
                k2 = 2.0 * ((lam - zeta * p) * d1 + zeta * val + k_const) / e2
                arg = state + half * k2
                p = _driven_to_zero(x0 + j * hsub) if arg <= 0.0 else sqrt(arg)
                t = log1p(p)
                if t_lo <= t < t_hi:
                    u = t - t0
                    val = ((a0 * u + a1) * u + a2) * u + a3
                    d1 = exp(((b0 * u + b1) * u + b2) * u + b3)
                    e2 = exp(((c0 * u + c1) * u + c2) * u + c3)
                else:
                    val, d1, d2 = eval3(p)
                    e2 = -d2
                    t_lo, t_hi, t0, a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3 = live_segment()
                k3 = 2.0 * ((lam - zeta * p) * d1 + zeta * val + k_const) / e2
                arg = state + hsub * k3
                p = _driven_to_zero(x0 + j * hsub) if arg <= 0.0 else sqrt(arg)
                t = log1p(p)
                if t_lo <= t < t_hi:
                    u = t - t0
                    val = ((a0 * u + a1) * u + a2) * u + a3
                    d1 = exp(((b0 * u + b1) * u + b2) * u + b3)
                    e2 = exp(((c0 * u + c1) * u + c2) * u + c3)
                else:
                    val, d1, d2 = eval3(p)
                    e2 = -d2
                    t_lo, t_hi, t0, a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3 = live_segment()
                k4 = 2.0 * ((lam - zeta * p) * d1 + zeta * val + k_const) / e2
                state = state + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if state <= 0.0:
                    _driven_to_zero(x0 + j * hsub)
                if state > y_to_s:
                    in_y = False
                    state = 0.5 * math.log(state)
            out.append(math.sqrt(state) if in_y else math.exp(state))
    except ZeroDivisionError:
        # the slope's denominator p**2 phi'' (or exp(C) in y) underflowed
        _overflowed(x0 + j * hsub, "equation slope")
    return np.array(out)


def el_ode_solve(phi, params: HarvestParams, config: SolverConfig) -> PolicyGrid:
    """Integrate the necessary-condition ODE into an admissible policy grid.

    ``phi`` is a PhiMoments tabulation (or ExactRateMoments for a lone
    node).  While the trajectory outgrows the tabulated range, the
    tabulation is extended and the integration retried; an overrun of a
    table at ``QMAX_CAP``, or a query below the table, is an error.  A
    non-increasing result is admissible but flagged, since such policies are
    conjectured suboptimal (they stop countering overflow).
    """
    cap = params.capacity
    if math.isinf(cap):
        raise UsageError("the necessary-condition ODE needs a finite battery; "
                         "unbounded batteries use constant policies")
    x = uniform_grid(cap, config.grid_n)
    args = (params.lam, params.zeta, config.k_const, x, config.ode_substeps, config.p0plus)
    grow = math.exp(min(params.zeta * cap, 6.0))
    while True:
        try:
            values = _integrate(phi, *args)
            break
        except MomentRangeError as err:
            if phi.provider is None or not err.argument > phi.qmax:
                raise
            # project the remaining doubly-exponential growth from the latest
            # failing power to size the next extension
            p_fail = max(float(err.argument), 2.0)
            target = math.exp(min(math.log(p_fail) * grow * 1.5, math.log(QMAX_CAP)))
            if not target > phi.qmax:  # the table has reached its cap
                raise
            phi = phi.extended(target)
    full = np.concatenate(([0.0], values[1:]))
    if np.any(np.diff(values) <= 0.0):
        warnings.warn("necessary-condition solution is not strictly increasing; "
                      "such policies are conjectured suboptimal", RuntimeWarning,
                      stacklevel=2)
    return PolicyGrid(grid=x, values=full, p0plus=config.p0plus)


def _moment_knots(params: HarvestParams, rf: RateFunction, p0plus: float,
                  p_hint: float) -> np.ndarray:
    """Power knots: dense where the rate curves, geometric into the tail."""
    qc = max(4.0 * (params.mean_input_rate + rf.n0), 8.0 * p0plus, 2.0)
    lin = np.linspace(0.0, qc, 81)
    qmax = min(max(50.0, 4.0 * p_hint, 2.0 * qc), QMAX_CAP)
    n_geo = max(24, int(np.ceil(np.log(qmax / qc) / np.log(1.12))))
    geo = np.geomspace(qc, qmax, n_geo)
    return np.unique(np.concatenate([lin, geo]))


def _start_candidates(config: SolverConfig):
    p0s = config.p0plus_candidates or (config.p0plus,)
    ks = config.k_candidates or (config.k_const,)
    return [(p0, k) for p0 in p0s for k in ks]


def _system_state(nodes, rf: RateFunction, policies, measures) -> SystemState:
    """Node k runs free policy k % len(policies) and holds its measure."""
    free = len(policies)
    return SystemState(nodes=tuple(
        (hp, policies[k % free], measures[k % free]) for k, hp in enumerate(nodes)),
        rate=rf)


@functools.lru_cache(maxsize=1)
def _start(nodes: tuple, rf: RateFunction, starts: tuple):
    """The start of a coordinate ascent, which does not depend on K.

    ``starts`` holds each free node's (grid_n, p(0+), init_policy): one
    entry for a tied ascent, one per node otherwise.  Returns the initial
    policies, their closed-form measures, the utility of that state, and
    node 0's sweep-1 moments, tabulated against the state (a lone node's
    exact moments).  The arguments are the whole key, so the start is built
    once per distinct key and the last one is kept.  Its arrays are
    read-only, so no caller can change a later solve.  The moments keep
    the segment their last query used, and the measures keep their node
    laws (see ``throughput._law_of``) until a solve reports them; a law's
    transform rows grow as later solves need more t nodes, and a dropped
    law is rebuilt with the same bits, so no result depends on either.
    """
    policies = tuple(initial_policy(hp.capacity, *start) for hp, start in zip(nodes, starts))
    measures = tuple(measure_closed_form(pol, hp) for pol, hp in zip(policies, nodes))
    state = _system_state(nodes, rf, policies, measures)
    utility = sum_throughput(state)
    frozen = [arr for pol, meas in zip(policies, measures)
              for arr in (pol.values, meas.density, meas.cell_masses)]
    if len(nodes) == 1:
        phi = ExactRateMoments(rf)
    else:
        knots = _moment_knots(nodes[0], rf, starts[0][1], float(np.max(policies[0].values)))
        phi = phi_moments(state, 0, knots)
        frozen += [phi.q, phi.phi, phi.dphi, phi.d2phi]
    for arr in frozen:
        arr.setflags(write=False)
    return policies, measures, utility, phi


def _ascend(nodes, rf: RateFunction, configs, tied: bool,
            keep_history: bool = False) -> SolveReport:
    """Coordinate ascent on the necessary-condition ODE.

    ``tied`` shares one policy and one measure among all the nodes and
    updates it once per sweep (the symmetric fixed point); otherwise every
    node owns its policy and a sweep updates them in node order
    (Gauss-Seidel).  Each update re-tabulates the coordinate moments against
    the current state, integrates the ODE and refreshes the measure.  When
    the config lists start candidates the update grid-searches (p(0+), K)
    over them and keeps the best candidate, never doing worse than the
    incumbent policy; a candidate whose trajectory fails is skipped.

    The initial policies and measures, the initial utility and node 0's
    sweep-1 moments come from ``_start``, whose key leaves K out: a run of
    solves that differ only in K (or in the stopping settings) builds them
    once.  Everything after them is computed per solve.
    """
    m = len(nodes)
    if m < 1:
        raise DomainError("node count must be at least 1")
    if any(hp.is_infinite for hp in nodes):
        raise UsageError("coordinate ascent needs finite batteries")
    free = 1 if tied else m  # node k runs policy k % free
    starts = tuple((cfg.grid_n, cfg.p0plus, cfg.init_policy) for cfg in configs[:free])
    policies, measures, utility, start_phi = _start(tuple(nodes), rf, starts)
    policies, measures = list(policies), list(measures)

    def state_of():
        return _system_state(nodes, rf, policies, measures)

    utilities = [utility]
    history = list(policies) if keep_history else []
    termination = "max_outer"
    max_outer = max(cfg.max_outer for cfg in configs)
    theta_tol = min(cfg.theta_tol for cfg in configs)
    for sweep in range(1, max_outer + 1):
        for j in range(free):
            cfg = configs[j]
            if j == 0 and (sweep == 1 or m == 1):
                phi = start_phi  # a lone node's exact moments never change
            else:
                knots = _moment_knots(nodes[j], rf, cfg.p0plus,
                                      float(np.max(policies[j].values)))
                phi = phi_moments(state_of(), j, knots)
            search = bool(cfg.p0plus_candidates or cfg.k_candidates)
            # a search keeps the incumbent eligible; a lone candidate must succeed
            best = (utility, policies[j], measures[j]) if search else None
            for p0, k in _start_candidates(cfg):
                trial_cfg = replace(cfg, p0plus=p0, k_const=k)
                try:
                    cand_policy = el_ode_solve(phi, nodes[j], trial_cfg)
                except (NonAdmissibleTrajectoryError, NumericOverflowError):
                    if search:
                        continue
                    raise
                cand_measure = measure_closed_form(cand_policy, nodes[j])
                policies_j, measures_j = policies[j], measures[j]
                policies[j], measures[j] = cand_policy, cand_measure
                cand_utility = sum_throughput(state_of())
                policies[j], measures[j] = policies_j, measures_j
                if best is None or cand_utility > best[0]:
                    best = (cand_utility, cand_policy, cand_measure)
            new_utility, policies[j], measures[j] = best
            # an update-to-update decrease breaks the ascent argument; the drop
            # from the arbitrary initializer to the first solution is exempt
            if sweep >= 2 and new_utility < utility - cfg.divergence_tol:
                raise SolverDivergenceError(
                    f"utility decreased from {utility!r} to {new_utility!r} "
                    f"updating node {j} in sweep {sweep}")
            utility = new_utility
        theta = abs(utility - utilities[-1]) / max(abs(utilities[-1]), 1e-12)
        utilities.append(utility)
        if keep_history:
            history.extend(policies)
        if theta < theta_tol:
            termination = "theta"
            break
    # the report's measures leave their laws' transform rows behind; a start
    # measure rebuilds its law for the next solve, with the same bits
    drop_laws(measures)
    return SolveReport(policies=policies, measures=measures, utilities=utilities,
                       termination=termination, policy_history=history)


def solve_symmetric_mac(m: int, params: HarvestParams, rf: RateFunction,
                        config: SolverConfig, keep_history: bool = False) -> SolveReport:
    """Fixed-point iteration for ``m`` statistically identical nodes.

    Coordinate ascent with one policy tied across the nodes: alternates
    (measure of the shared policy) -> (coordinate moments) -> (ODE update of
    the shared policy) until the relative utility improvement falls under
    ``theta_tol``.  The report carries the one shared policy and measure;
    ``keep_history`` also keeps every iterate, the initializer first.
    """
    return _ascend([params] * m, rf, [config] * m, tied=True,
                   keep_history=keep_history)


def solve_mac_gauss_seidel(nodes, rf: RateFunction, configs) -> SolveReport:
    """Coordinate ascent across (possibly asymmetric) nodes.

    Sweeps node indices in order, each node updating its own policy against
    the other nodes' current measures.  ``configs`` is one SolverConfig for
    all the nodes or one per node.
    """
    nodes = list(nodes)
    if isinstance(configs, SolverConfig):
        configs = [configs] * len(nodes)
    configs = list(configs)
    if len(configs) != len(nodes):
        raise UsageError(f"need one config per node: {len(nodes)} nodes, "
                         f"{len(configs)} configs")
    return _ascend(nodes, rf, configs, tied=False)


def el_residual(policy: PolicyGrid, phi, params: HarvestParams, k_const: float):
    """Pointwise defect of a policy in the necessary condition.

    Substitutes the gridded policy and its finite-difference slope back into
    p p' phi'' + (lam - zeta p) phi' + zeta phi + K.  The slope comes from a
    five-point stencil on log p, so the residual is only meaningful where the
    grid resolves the policy's log-slope; points whose neighboring log
    increments exceed ``_MAX_LOG_STEP`` are masked out (the steep start of an
    aggressive policy moves faster than any fixed grid can measure).

    Returns (levels, residuals) over the resolvable interior nodes.
    """
    p = policy.density_side_values()
    s = np.log(p)
    h = policy.h
    idx = np.arange(2, s.size - 2)
    ds = (-s[idx + 2] + 8.0 * s[idx + 1] - 8.0 * s[idx - 1] + s[idx - 2]) / (12.0 * h)
    step = np.abs(np.diff(s))
    resolved = np.maximum.reduce([step[idx - 2], step[idx - 1], step[idx],
                                  step[np.minimum(idx + 1, step.size - 1)]])
    keep = resolved < _MAX_LOG_STEP
    lam, zeta = params.lam, params.zeta
    res = np.empty(idx.size)
    for row, i in enumerate(idx):
        val, d1, d2 = phi.eval3(float(p[i]))
        slope = p[i] * ds[row]
        res[row] = (p[i] * slope * d2 + (lam - zeta * p[i]) * d1
                    + zeta * val + k_const)
    return policy.grid[idx][keep], res[keep]


def constant_policy_stats(params: HarvestParams, rho: float):
    """Atom, mean power and power variance of the constant policy
    p = lam/zeta + rho on an unbounded battery."""
    if not params.is_infinite:
        raise UsageError("constant-policy statistics assume an unbounded battery")
    if not rho > 0.0:
        raise DomainError(f"excess release rate must be positive, got {rho}")
    mean_in = params.mean_input_rate
    atom = rho / (mean_in + rho)
    return atom, mean_in, mean_in * rho


def check_k_scan(k_min: float, k_max: float, step: float = 0.01,
                 coarse_step: float | None = 0.05) -> int:
    """Check a ``best_k_search`` range and return the solves it plans.

    The count is the coarse grid's points plus those of a whole refined
    bracket (a flat scan: the grid's points), each np.arange's length
    ceil((stop - start) / step), taken without building the grid.  Raises
    DomainError, naming the rejected argument, on a non-finite or empty
    range, a bad step, or a plan above ``K_SCAN_CAP`` solves.
    """
    for name, value in (("k_min", k_min), ("k_max", k_max)):
        if not math.isfinite(value):
            raise DomainError("search interval must be finite", field=name)
    if not k_max > k_min:
        raise DomainError("empty search interval", field="k_max")
    if not 0.0 < step < math.inf:
        raise DomainError("step must be positive and finite", field="step")
    if coarse_step is not None and not math.isfinite(coarse_step):
        raise DomainError("coarse step must be finite", field="coarse_step")

    def points(lo, hi, h):  # of np.arange(lo, hi + h / 2, h)
        n = (hi + 0.5 * h - lo) / h
        return math.ceil(n) if n < math.inf else math.inf

    if coarse_step is None or coarse_step <= step:
        count = points(k_min, k_max, step)
    else:
        count = (points(k_min, k_max, coarse_step)
                 + points(0.0, min(k_max - k_min, 2.0 * coarse_step), step))
    if count > K_SCAN_CAP:
        raise DomainError(f"a scan of [{k_min:g}, {k_max:g}] plans {count:g} solves, "
                          f"above the cap of {K_SCAN_CAP}", field="step")
    return count


def best_k_search(m: int, params: HarvestParams, rf: RateFunction,
                  config: SolverConfig, k_min: float, k_max: float,
                  step: float = 0.01, coarse_step: float | None = 0.05):
    """Locate the equation constant maximizing the symmetric utility.

    Scans [k_min, k_max] at ``coarse_step`` and refines the best bracket at
    ``step`` (set coarse_step=None for a flat scan at ``step``).  Returns
    (k_best, utility_best, table) where table rows are (k, utility) for every
    solve attempted; failed solves score as -inf.
    """
    check_k_scan(k_min, k_max, step, coarse_step)

    def evaluate(ks):
        rows = []
        for k in ks:
            cfg = replace(config, k_const=float(k))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    rep = solve_symmetric_mac(m, params, rf, cfg)
                    rows.append((float(k), rep.utility))
                except (NonAdmissibleTrajectoryError, NumericOverflowError,
                        SolverDivergenceError):
                    rows.append((float(k), -math.inf))
        return rows

    table = []
    if coarse_step is None or coarse_step <= step:
        grid = np.arange(k_min, k_max + 0.5 * step, step)
        table.extend(evaluate(grid))
    else:
        coarse = np.arange(k_min, k_max + 0.5 * coarse_step, coarse_step)
        rows = evaluate(coarse)
        table.extend(rows)
        k0 = max(rows, key=lambda r: r[1])[0]
        lo = max(k_min, k0 - coarse_step)
        hi = min(k_max, k0 + coarse_step)
        fine = np.arange(lo, hi + 0.5 * step, step)
        seen = {round(k, 9) for k, _ in table}
        fine = [k for k in fine if round(float(k), 9) not in seen]
        table.extend(evaluate(fine))
    k_best, u_best = max(table, key=lambda r: r[1])
    table.sort(key=lambda r: r[0])
    return k_best, u_best, table
