"""Bias of the simulator's joint-rate rule against a fine Gauss-Legendre rule.

    python3 tools/joint_rule_bias.py [--horizon T] [--seed S]

The two-node simulator samples the rate interaction term r(sum p) - sum r(p)
with ``simulate._JOINT_RULE`` on every merged interval where two or more
nodes drain.  For each case below this walks one replication of every node
over [100, T] (default T = 4000), takes the joint-rate integral once with the
default rule and once with 6-point Gauss-Legendre on about 180 panels of
each interval, and prints their difference per unit window.  Both integrals
read the same trajectories, so the difference is quadrature error only.

Cases: the converged symmetric two-node policies at capacity L and equation
constant K = (3, 0), (3, -0.5), (1, -0.5) and (0.5, 0); the L = 3, K = 0
policy on three nodes; and a pair of a finite battery and an unbounded one.
Imports ``ehmac`` from ``src`` beside this script.
"""

import argparse
import importlib
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ehmac  # noqa: E402

# the package exports the simulate function under the module's name
sim = importlib.import_module("ehmac.simulate")

RF = ehmac.RateFunction(1.0)
EXP1 = ehmac.PacketDistribution.exponential(1.0)
BURN_IN = 100.0
# 6-point Gauss-Legendre on the panels of a uniform and a geometric grid
FINE_RULE = sim._gauss_rule(np.unique(np.concatenate((
    np.linspace(0.0, 1.0, 121), np.geomspace(1e-6, 1.0, 61)))),
    *np.polynomial.legendre.leggauss(6))


def converged_policy(cap: float, k_const: float):
    hp = ehmac.HarvestParams(1.0, 1.0, cap)
    cfg = ehmac.SolverConfig(k_const=k_const, p0plus=0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = ehmac.solve_symmetric_mac(2, hp, RF, cfg)
    return hp, report.policies[0]


def cases():
    for cap, k_const in ((3.0, 0.0), (3.0, -0.5), (1.0, -0.5), (0.5, 0.0)):
        yield f"pair L={cap:g} K={k_const:g}", [converged_policy(cap, k_const)] * 2
    yield "three L=3 K=0", [converged_policy(3.0, 0.0)] * 3
    yield "pair, one unbounded", [
        (ehmac.HarvestParams(1.0, 1.0, 2.0),
         ehmac.policy_from_function(lambda x: 0.2 + x * x, 2.0, 64)),
        (ehmac.HarvestParams(1.5, 1.0, math.inf),
         ehmac.policy_from_function(lambda x: 0.2 + 0.5 * x, 6.0, 48))]


def bias(nodes, horizon: float, seed: int) -> float:
    """(default - fine) joint-rate integral per unit window."""
    interps, runs = [], []
    for k, (params, policy) in enumerate(nodes):
        interp = policy.interp(extend=params.is_infinite)
        times, energies = ehmac.sample_arrivals(params, EXP1, horizon, seed, node=k)
        interps.append(interp)
        runs.append(sim._walk_trajectory(interp, params.capacity, times, energies,
                                         BURN_IN, horizon, k))
    default, _, _ = sim._joint_rate_integral(interps, runs, RF, BURN_IN, horizon)
    fine, _, _ = sim._joint_rate_integral(interps, runs, RF, BURN_IN, horizon,
                                          rule=FINE_RULE, chunk=256)
    return (default - fine) / (horizon - BURN_IN)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--horizon", type=float, default=4000.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for name, nodes in cases():
        start = time.perf_counter()
        b = bias(nodes, args.horizon, args.seed)
        print(f"{name:22s} bias per unit window {b:+.2e} "
              f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
