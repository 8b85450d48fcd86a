"""Alternate benchmark runs of two source trees and write the pairs to JSON.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out FILE
        [--workloads W ...] [--seeds 901-910] [--seconds 20]

For every workload and seed this runs ``benchmarks/run.py --trace 0`` once in
each tree, the parent first on even pairs and the change first on odd ones,
so that a drift of the machine's speed falls on both sides alike.  Each run
uses the ``benchmarks/`` and ``src/`` of its own tree.  The output holds
every run's end-to-end metrics, its measured (unscaled) times and its digest
lines, and per workload and metric the median and quartiles of both sides,
the change of the medians, the number of pairs in which the change was
better, and the number of pairs whose digest lines are identical.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("solve_table2", "solve_asym3", "sim_pair", "sim_single")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=tree, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["measured"] = json.loads(next(
        line for line in lines if line.startswith("measured: "))[len("measured: "):])
    start = lines.index("digest of the first pass:") + 1
    result["digests"] = [line.strip() for line in lines[start:-1]]
    return result


def summarize(pairs: list, better: dict) -> dict:
    out = {}
    for metric, direction in better.items():
        parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
        change = [p["change"]["metrics"][metric]["value"] for p in pairs]
        sides = {}
        for side, values in (("parent", parent), ("change", change)):
            q1, _, q3 = statistics.quantiles(values, n=4)
            sides[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        ratio = sides["change"]["median"] / sides["parent"]["median"]
        sides["change_pct"] = 100.0 * (ratio - 1.0)
        sides["change_better"] = f"{wins}/{len(pairs)}"
        out[metric] = sides
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", default="901-910")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = {"environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                              "machine": platform.machine()},
              "seconds": args.seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    for workload in args.workloads:
        pairs = []
        for i, seed in enumerate(record["seeds"]):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = one_run(getattr(args, side), workload, seed, args.seconds)
            pair["digests_identical"] = pair["parent"]["digests"] == pair["change"]["digests"]
            pairs.append(pair)
            op = {s: pair[s]["metrics"]["op_p50_ms"]["value"] for s in ("parent", "change")}
            print(f"{workload} seed {seed}: op_p50_ms {op['parent']:.4g} / {op['change']:.4g}, "
                  f"correct {pair['parent']['correct']}/{pair['change']['correct']}",
                  flush=True)
        record["workloads"][workload] = {
            "summary": summarize(pairs, better),
            "digests_identical": f"{sum(p['digests_identical'] for p in pairs)}/{len(pairs)}",
            "pairs": pairs}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
