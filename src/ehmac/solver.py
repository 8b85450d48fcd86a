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
fixed-point iteration.  Both hold (p(0+), K) fixed unless ``optimize_start``
is set, and stop when the relative utility improvement drops below
``theta_tol`` (the smallest of the per-node values).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .arrivals import HarvestParams
from .errors import (DomainError, MomentRangeError, NonAdmissibleTrajectoryError,
                     NumericOverflowError, SolverDivergenceError, UsageError)
from .grids import uniform_grid
from .measures import PolicyGrid, measure_closed_form
from .rates import RateFunction
from .throughput import (ExactRateMoments, QMAX_CAP, SystemState, phi_moments,
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


@dataclass(frozen=True)
class SolverConfig:
    """Settings shared by the ODE integrator and the outer iterations.

    k_const is the free equation constant (one per node); p0plus the policy
    right limit at an empty battery.  ``theta_tol`` stops the outer loop on
    relative utility improvement.  ``divergence_tol`` is the utility drop
    between successive updates treated as divergence: with the start values
    held fixed the iteration approaches its fixed point through a damped
    oscillation, so the default leaves room for the early swings while still
    catching a collapsing run.
    """

    k_const: float = 0.0
    p0plus: float = 0.001
    grid_n: int = 512
    theta_tol: float = 0.01
    max_outer: int = 60
    ode_substeps: int = 4
    init_policy: str = "linear"
    divergence_tol: float = 0.15
    optimize_start: bool = False
    p0plus_candidates: tuple = ()
    k_candidates: tuple = ()

    def __post_init__(self):
        if not self.p0plus > 0.0:
            raise DomainError(f"p(0+) must be positive, got {self.p0plus}", field="p0plus")
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


@dataclass
class SolveReport:
    """Outcome of an outer iteration: final policies, measures, utility trace."""

    policies: list
    measures: list
    utilities: list
    termination: str
    sweeps: int
    initial_utility: float
    policy_history: list = field(default_factory=list, repr=False)

    @property
    def utility(self) -> float:
        return self.utilities[-1]

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


def _init_policy_values(config: SolverConfig, x: np.ndarray) -> np.ndarray:
    p0 = config.p0plus
    if config.init_policy == "linear":
        vals = x + p0
    elif config.init_policy == "constant":
        vals = np.full_like(x, p0)
    else:
        vals = p0 + np.sqrt(x)
    vals = vals.copy()
    vals[0] = 0.0
    return vals


def initial_policy(config: SolverConfig, capacity: float) -> PolicyGrid:
    x = uniform_grid(capacity, config.grid_n)
    return PolicyGrid(grid=x, values=_init_policy_values(config, x),
                      p0plus=config.p0plus)


def _integrate(phi, lam: float, zeta: float, k_const: float, x: np.ndarray,
               substeps: int, p0plus: float) -> np.ndarray:
    """Fixed-step RK4 along the level grid; returns p at the grid nodes.

    The state is y = p**2 while ``in_y`` holds and log(p) after the hand-over;
    the loop runs on plain floats, as the step is a few scalar operations
    around one moment evaluation.
    """
    eval3 = phi.eval3
    switch_hi = _SWITCH_FACTOR * max(1.0, lam / zeta, p0plus)
    switch_lo = 0.5 * switch_hi
    y_to_s = switch_hi * switch_hi
    s_to_y = math.log(switch_lo)
    xs = x.tolist()
    pos = xs[0]
    in_y = True

    def rhs(state):
        if in_y:
            if state <= 0.0:
                raise NonAdmissibleTrajectoryError(
                    f"release rate driven to zero near level {pos:.6g}", where=pos)
            p = math.sqrt(state)
            val, d1, d2 = eval3(p)
            return -2.0 * ((lam - zeta * p) * d1 + zeta * val + k_const) / d2
        if state > _LOG_P_CAP:
            raise NumericOverflowError(
                f"release rate exceeded the floating range near level {pos:.6g}",
                where=pos)
        p = math.exp(state)
        val, d1, d2 = eval3(p)
        return -((lam - zeta * p) * d1 + zeta * val + k_const) / (p * p * d2)

    out = [p0plus]
    state = p0plus * p0plus
    for i in range(len(xs) - 1):
        x0 = xs[i]
        hsub = (xs[i + 1] - x0) / substeps
        half = 0.5 * hsub
        sixth = hsub / 6.0
        for j in range(substeps):
            pos = x0 + j * hsub
            k1 = rhs(state)
            k2 = rhs(state + half * k1)
            k3 = rhs(state + half * k2)
            k4 = rhs(state + hsub * k3)
            state = state + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if in_y:
                if state <= 0.0:
                    raise NonAdmissibleTrajectoryError(
                        f"release rate driven to zero near level {pos:.6g}",
                        where=pos)
                if state > y_to_s:
                    in_y = False
                    state = 0.5 * math.log(state)
            else:
                if state > _LOG_P_CAP:
                    raise NumericOverflowError(
                        f"release rate exceeded the floating range near level "
                        f"{pos:.6g}", where=pos)
                if state < s_to_y:
                    in_y = True
                    state = math.exp(2.0 * state)
        out.append(math.sqrt(state) if in_y else math.exp(state))
    return np.array(out)


def el_ode_solve(phi, params: HarvestParams, config: SolverConfig,
                 capacity: float | None = None) -> PolicyGrid:
    """Integrate the necessary-condition ODE into an admissible policy grid.

    ``phi`` is a PhiMoments tabulation (or ExactRateMoments for a lone
    node).  If the trajectory outgrows the tabulated range once, the
    tabulation is extended and the integration retried; a second overrun is
    an error.  A non-increasing result is admissible but flagged, since such
    policies are conjectured suboptimal (they stop countering overflow).
    """
    cap = params.capacity if capacity is None else capacity
    if math.isinf(cap):
        raise UsageError("the necessary-condition ODE needs a finite battery; "
                         "unbounded batteries use constant policies")
    x = uniform_grid(cap, config.grid_n)
    lam, zeta = params.lam, params.zeta
    attempt_phi = phi
    for attempt in (0, 1):
        try:
            values = _integrate(attempt_phi, lam, zeta, config.k_const, x,
                                config.ode_substeps, config.p0plus)
            break
        except MomentRangeError as err:
            if attempt == 1 or not attempt_phi.can_extend:
                raise
            # project the remaining doubly-exponential growth to size the
            # extension; one retry per the contract
            p_fail = max(float(err.argument or 2.0), 2.0)
            grow = math.exp(min(zeta * cap, 6.0))
            target = math.exp(min(math.log(p_fail) * grow * 1.5,
                                  math.log(QMAX_CAP)))
            attempt_phi = attempt_phi.extended(target)
    full = np.concatenate(([0.0], values[1:]))
    if np.any(np.diff(values) <= 0.0):
        warnings.warn("necessary-condition solution is not strictly increasing; "
                      "such policies are conjectured suboptimal", RuntimeWarning,
                      stacklevel=2)
    return PolicyGrid(grid=x, values=full, p0plus=config.p0plus)


def _moment_knots(params: HarvestParams, rf: RateFunction, config: SolverConfig,
                  p_hint: float) -> np.ndarray:
    """Power knots: dense where the rate curves, geometric into the tail."""
    qc = max(4.0 * (params.mean_input_rate + rf.n0), 8.0 * config.p0plus, 2.0)
    lin = np.linspace(0.0, qc, 81)
    qmax = min(max(50.0, 4.0 * p_hint, 2.0 * qc), QMAX_CAP)
    n_geo = max(24, int(np.ceil(np.log(qmax / qc) / np.log(1.12))))
    geo = np.geomspace(qc, qmax, n_geo)
    return np.unique(np.concatenate([lin, geo]))


def _start_candidates(config: SolverConfig):
    if not config.optimize_start:
        return [(config.p0plus, config.k_const)]
    p0s = config.p0plus_candidates or tuple(
        config.p0plus * f for f in (0.1, 0.3, 1.0, 3.0, 10.0))
    ks = config.k_candidates or tuple(
        config.k_const + d for d in (-0.4, -0.2, 0.0, 0.2, 0.4))
    return [(p0, k) for p0 in p0s for k in ks]


def _ascend(nodes, rf: RateFunction, configs, tied: bool,
            keep_history: bool = False) -> SolveReport:
    """Coordinate ascent on the necessary-condition ODE.

    ``tied`` shares one policy and one measure among all the nodes and
    updates it once per sweep (the symmetric fixed point); otherwise every
    node owns its policy and a sweep updates them in node order
    (Gauss-Seidel).  Each update re-tabulates the coordinate moments against
    the current state, integrates the ODE and refreshes the measure.  With
    ``optimize_start`` the update also grid-searches (p(0+), K) and keeps the
    best candidate, never doing worse than the incumbent policy.
    """
    m = len(nodes)
    if m < 1:
        raise DomainError("node count must be at least 1")
    if any(hp.is_infinite for hp in nodes):
        raise UsageError("coordinate ascent needs finite batteries")
    free = 1 if tied else m  # node k runs policy k % free
    policies = [initial_policy(cfg, hp.capacity)
                for hp, cfg in zip(nodes[:free], configs)]
    measures = [measure_closed_form(pol, hp) for pol, hp in zip(policies, nodes)]

    def state_of():
        return SystemState(nodes=tuple(
            (hp, policies[k % free], measures[k % free]) for k, hp in enumerate(nodes)),
            rate=rf)

    utility = sum_throughput(state_of())
    utilities = [utility]
    history = list(policies) if keep_history else []
    termination = "max_outer"
    sweeps = 0
    max_outer = max(cfg.max_outer for cfg in configs)
    theta_tol = min(cfg.theta_tol for cfg in configs)
    for sweep in range(1, max_outer + 1):
        for j in range(free):
            cfg = configs[j]
            if m == 1:
                phi = ExactRateMoments(rf)
            else:
                knots = _moment_knots(nodes[j], rf, cfg,
                                      float(np.max(policies[j].values)))
                phi = phi_moments(state_of(), j, knots)
            best = None
            if cfg.optimize_start:
                best = (utility, policies[j], measures[j])  # incumbent stays eligible
            for p0, k in _start_candidates(cfg):
                trial_cfg = replace(cfg, p0plus=p0, k_const=k)
                try:
                    cand_policy = el_ode_solve(phi, nodes[j], trial_cfg)
                except (NonAdmissibleTrajectoryError, NumericOverflowError):
                    if cfg.optimize_start:
                        continue
                    raise
                cand_measure = measure_closed_form(cand_policy, nodes[j])
                policies_j, measures_j = policies[j], measures[j]
                policies[j], measures[j] = cand_policy, cand_measure
                cand_utility = sum_throughput(state_of())
                policies[j], measures[j] = policies_j, measures_j
                if best is None or cand_utility > best[0]:
                    best = (cand_utility, cand_policy, cand_measure)
            if best is None:
                raise NonAdmissibleTrajectoryError(
                    f"every start candidate failed for node {j} in sweep {sweep}")
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
        sweeps = sweep
        if theta < theta_tol:
            termination = "theta"
            break
    return SolveReport(policies=policies, measures=measures, utilities=utilities,
                       termination=termination, sweeps=sweeps,
                       initial_utility=utilities[0], policy_history=history)


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


def best_k_search(m: int, params: HarvestParams, rf: RateFunction,
                  config: SolverConfig, k_min: float, k_max: float,
                  step: float = 0.01, coarse_step: float | None = 0.05):
    """Locate the equation constant maximizing the symmetric utility.

    Scans [k_min, k_max] at ``coarse_step`` and refines the best bracket at
    ``step`` (set coarse_step=None for a flat scan at ``step``).  Returns
    (k_best, utility_best, table) where table rows are (k, utility) for every
    solve attempted; failed solves score as -inf.
    """
    if not k_max > k_min:
        raise DomainError("empty search interval")
    if step <= 0.0:
        raise DomainError("step must be positive")

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
