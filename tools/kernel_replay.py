"""Time the solver's RK4 kernel on the calls of one table2 pass.

    python3 tools/kernel_replay.py [--rounds N]

Runs ``ehmac solve --preset table2`` once in-process and serially, into a
temporary directory, with ``solver._integrate`` wrapped to record every call,
then replays the recorded calls ``--rounds`` times (default 9).  Prints the
call count, the grid steps and substeps the calls walk, the median and the
quartiles of a round's kernel wall time, and a SHA-256 of the outputs in call
order: each returned array's bytes, or a failed call's error type, message,
level and argument.  The digest does not depend on the timing, so two source
trees that print the same digest computed the same policies bit for bit.
Imports ``ehmac`` from ``src`` beside this script; the preset ignores
``EHMAC_*`` environment overrides here.
"""

import argparse
import hashlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ehmac import cli, solver  # noqa: E402
from ehmac.config import load_config  # noqa: E402
from ehmac.errors import EhmacError  # noqa: E402


def record_table2_calls() -> list:
    """The argument tuples of every ``_integrate`` call of one table2 pass."""
    calls = []
    kernel = solver._integrate

    def recording(*args):
        calls.append(args)
        return kernel(*args)

    cfg = load_config(preset="table2", overrides={"workers": 1}, env={})
    solver._integrate = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cli.cmd_solve(cfg, Path(tmp) / "out")
    finally:
        solver._integrate = kernel
    return calls


def replay(calls) -> tuple:
    """One round: the kernel wall time, the outputs in call order, the failures."""
    outputs = []
    failed = 0
    t0 = time.perf_counter()
    for args in calls:
        try:
            outputs.append(solver._integrate(*args).tobytes())
        except EhmacError as err:
            failed += 1
            outputs.append(repr((type(err).__name__, str(err), getattr(err, "where", None),
                                 getattr(err, "argument", None))).encode())
    return time.perf_counter() - t0, outputs, failed


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    calls = record_table2_calls()
    steps = sum(len(call[4]) - 1 for call in calls)
    substeps = sum((len(call[4]) - 1) * call[5] for call in calls)
    times, digests = [], set()
    for _ in range(args.rounds):
        seconds, outputs, failed = replay(calls)
        times.append(seconds)
        digests.add(hashlib.sha256(b"".join(outputs)).hexdigest())
    if len(digests) != 1:
        print(f"rounds disagree: {sorted(digests)}", file=sys.stderr)
        return 1
    quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    print(f"calls {len(calls)} ({failed} raised), grid steps {steps}, substeps {substeps}")
    print(f"kernel s/round over {len(times)} rounds: median {statistics.median(times):.4f}, "
          f"q1-q3 {quartiles[0]:.4f}-{quartiles[2]:.4f}")
    print(f"outputs sha256 {digests.pop()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
