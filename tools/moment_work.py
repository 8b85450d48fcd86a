"""Print the law-transform rows the tensor sums compute against those they read.

    python3 tools/moment_work.py [--seed N]

Runs two solves in-process: the solve_asym3 benchmark case set that
``--seed`` selects (default 1; six three-node Gauss-Seidel solves) and the
table2 cell L = 3, K = 0 (one two-node tied solve).  For each it prints the
rows of the transforms D and E (see ``throughput._Law``) that the laws
computed and the rows the tensor sums read from them, each also in elements
(rows times law points), and a SHA-256 of the solves' utility traces.  A law
computes a row once and keeps it while its measure lives, so the rows read
but not computed are the ones reused.  Imports ``ehmac`` from ``src`` and the
case set from ``benchmarks/workloads.py`` beside this script.
"""

import argparse
import hashlib
import sys
import warnings
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import ehmac  # noqa: E402
from ehmac import cli, solver, throughput  # noqa: E402
from ehmac.config import load_config  # noqa: E402
from workloads import RF, SolveAsym3  # noqa: E402


def asym3_solves(seed):
    inputs = SolveAsym3().build(seed, reference=False)
    return [lambda nodes=nodes: ehmac.solve_mac_gauss_seidel(nodes, RF, inputs["config"])
            for nodes in inputs["cases"]]


def table2_cell():
    cfg = load_config(preset="table2", env={})
    return [lambda: cli._solve_cell((cfg, 3.0, 0.0, cfg.p0plus_values[0], "linear"))]


def count_work(solves):
    """(rows, elements) computed and read, and the utility digest of ``solves``."""
    computed, read = [0, 0], [0, 0]
    block, rows = throughput._Law._block, throughput._Law.rows

    def counting_block(law, lo, moment):
        computed[0] += law.step
        computed[1] += law.step * law.p.size
        return block(law, lo, moment)

    def counting_rows(law, count, moments=False):
        n = count * (2 if moments else 1)
        read[0] += n
        read[1] += n * law.p.size
        return rows(law, count, moments)

    solver._start.cache_clear()
    with mock.patch.object(throughput._Law, "_block", counting_block), \
            mock.patch.object(throughput._Law, "rows", counting_rows), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        utilities = [u for solve in solves for u in solve().utilities]
    digest = hashlib.sha256(" ".join(u.hex() for u in utilities).encode()).hexdigest()
    return computed, read, digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="solve_asym3 case set seed")
    args = parser.parse_args()
    for name, solves in ((f"solve_asym3 seed {args.seed}", asym3_solves(args.seed)),
                         ("table2 L=3 K=0", table2_cell())):
        computed, read, digest = count_work(solves)
        print(f"{name}: computed {computed[0]} rows ({computed[1]} elements), "
              f"read {read[0]} rows ({read[1]} elements), "
              f"{100.0 * computed[1] / read[1]:.1f} % of the elements read")
        print(f"  utilities sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
