"""Print the page faults and peak memory of one trajectory simulation.

    python3 tools/sim_memory.py

Runs ``simulate`` twice on each of two inputs and reports the second call:
its minor page faults (``getrusage`` before and after) and the process's
``ru_maxrss`` after it.  The first call warms the imports and the policy
caches.  The inputs are those of the sim_single benchmark workload (one
node, 2048-cell policy, tabulated gamma packets, 16 replications of 1.25e4
time units) and a two-node constant-policy pair (level 1.5, capacity 2,
unit exponential packets, 2 replications of 5e4 time units).  Imports
``ehmac`` from ``src`` beside this script.
"""

import resource
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ehmac  # noqa: E402

RF = ehmac.RateFunction(1.0)


def single():
    xs = np.linspace(0.0, 12.0, 601)
    cdf = 1.0 - np.exp(-xs / 0.5) * (1.0 + xs / 0.5)   # gamma(2, 0.5)
    cdf[-1] = 1.0
    dist = ehmac.PacketDistribution.tabulated(xs, cdf)
    policy = ehmac.policy_from_function(lambda x: 0.5 + 0.8 * x, 3.0, 2048)
    nodes = [(ehmac.HarvestParams(1.0, 1.0, 3.0), policy, dist)]
    return nodes, ehmac.SimConfig(horizon=1.25e4, replications=16, seed=1, burn_in=100.0,
                                  level_probes=(0.5, 1.0, 1.5, 2.0, 2.5))


def pair():
    node = (ehmac.HarvestParams(1.0, 1.0, 2.0), ehmac.constant_policy(1.5, 2.0, 512),
            ehmac.PacketDistribution.exponential(1.0))
    return [node] * 2, ehmac.SimConfig(horizon=5e4, replications=2, seed=1, burn_in=100.0)


def main() -> int:
    for name, build in (("sim_single", single), ("constant pair", pair)):
        nodes, cfg = build()
        ehmac.simulate(nodes, RF, cfg)
        before = resource.getrusage(resource.RUSAGE_SELF)
        ehmac.simulate(nodes, RF, cfg)
        after = resource.getrusage(resource.RUSAGE_SELF)
        print(f"{name}: {after.ru_minflt - before.ru_minflt} minor faults per simulate "
              f"call, ru_maxrss {after.ru_maxrss / 1024:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
