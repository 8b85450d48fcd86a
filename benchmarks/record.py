"""Repeat benchmark runs over seeds and write a BENCH record.

    python3 benchmarks/record.py --out benchmarks/BENCH_1.json [--seeds 1-10]
    python3 benchmarks/record.py --reference

The first form runs ``benchmarks/run.py`` once per (workload, seed) with the
settings of BENCHMARK.json, then once traced per workload at the first seed,
and writes the metrics, their medians and quartile spreads (of the scaled
metrics and of the measured times), the traced per-layer shares with the
predicted orderings, and the machine it ran on.  The second form re-records
``table2_reference.json`` and ``asym3_reference.json``, the solve digests
that the solve_table2 and solve_asym3 checks compare against (about 15
minutes); run it only at a commit whose solver outputs are meant to become
the new reference.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import pin_environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    if not trace:  # the unscaled times, beside the scaled metrics
        result["measured"] = json.loads(next(
            line for line in lines if line.startswith("measured: "))[len("measured: "):])
    result["report"] = lines[:-1]
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None}


def environment():
    def read(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout
        except (OSError, subprocess.SubprocessError):
            return ""
    import numpy
    import scipy
    cpu_model = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = [line.strip() for line in read(["lscpu"]).splitlines() if "cache" in line]
    return {"commit": read(["git", "-C", str(ROOT), "rev-parse", "HEAD"]).strip() or "unknown",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu_model": cpu_model, "caches": caches}


def orderings(traced):
    """The predicted share orderings of README.md, evaluated on the traced runs."""
    def shares(w):
        rec = traced.get(w)
        return None if rec is None else rec["metrics"]
    out = {}
    m = shares("solve_table2")
    if m:
        spans = {k: v["value"] for k, v in m.items() if k.endswith(".s")}
        out["solve_table2: solver.el_ode_solve.s is the largest span"] = (
            max(spans, key=spans.get) == "solver.el_ode_solve.s")
    m = shares("sim_pair")
    if m:
        mods = {k: v["value"] for k, v in m.items() if k.endswith(".self_s")
                and not k.startswith("trace.")}
        out["sim_pair: grids.* has the largest self time"] = (
            max(mods, key=mods.get) == "grids.self_s")
    m = shares("sim_single")
    if m:
        mods = {k: v["value"] for k, v in m.items() if k.endswith(".self_s")
                and not k.startswith("trace.")}
        out["sim_single: simulate.self_s is the largest"] = (
            max(mods, key=mods.get) == "simulate.self_s")
    a, t = traced.get("solve_asym3"), traced.get("solve_table2")
    if a and t:
        share_a = a["metrics"]["throughput.phi_moments.s"]["value"] / a["traced_wall_s"]
        share_t = t["metrics"]["throughput.phi_moments.s"]["value"] / t["traced_wall_s"]
        out[f"phi_moments share solve_asym3 {share_a:.3f} >= 3 x solve_table2 "
            f"{share_t:.3f}"] = share_a >= 3.0 * share_t
    return out


def record(out, seeds):
    runs, summary, measured, traced = {}, {}, {}, {}
    for w in (w["name"] for w in SPEC["workloads"]):
        runs[w] = []
        for s in seeds:
            res = one_run(w, s, 0)
            runs[w].append({"seed": s, **{k: v for k, v in res.items() if k != "report"}})
            print(f"{w} seed {s}: correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
        summary[w] = {name: spread([r["metrics"][name]["value"] for r in runs[w]])
                      for name in (e["name"] for e in SPEC["end_to_end"])}
        measured[w] = {name: spread([r["measured"][name] for r in runs[w]])
                       for name in runs[w][0]["measured"]}
        res = one_run(w, seeds[0], 1)
        spans = json.loads((ROOT / ".bench_out" / f"trace-{w}-seed{seeds[0]}.json")
                           .read_text(encoding="utf-8"))
        traced[w] = {"seed": seeds[0], "traced_wall_s": statistics.median(spans["walls_s"]),
                     "metrics": res["metrics"], "report": res["report"]}
    bounds = {e["name"]: e["bound"] for e in SPEC["end_to_end"]}
    steady = {w: {k: (v["iqr_share"] is not None and v["iqr_share"] < bounds[k] / 3.0)
                  for k, v in summary[w].items() if k != "setup_s"}
              for w in summary}
    # a comparison of a metric whose own spread exceeds its bound cannot be
    # resolved (choosing-metrics guide, section 6)
    unresolved = [f"{w}/{k}" for w in summary for k, v in summary[w].items()
                  if v["iqr_share"] is None or v["iqr_share"] > bounds[k]]
    rec = {"environment": environment(), "benchmark": SPEC, "seeds": seeds,
           "summary": summary, "measured_summary": measured,
           "spread_below_third_of_bound": steady,
           "unresolved": unresolved,
           "traced": traced, "predicted_orderings": orderings(traced), "runs": runs}
    Path(out).write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
    for w, s in summary.items():
        print(w, {k: f"{v['median']:.5g} iqr {v['iqr_share']:.3f}" for k, v in s.items()})
        print("  measured", {k: f"{v['median']:.5g} iqr {v['iqr_share']:.3f}"
                             for k, v in measured[w].items()})
    print("unresolved (spread above the bound):", ", ".join(unresolved) or "none")
    for claim, ok in rec["predicted_orderings"].items():
        print(("MET    " if ok else "MISSED ") + claim)


def _one_pass(wl, inputs):
    """One untraced pass of ``wl``, with the op clock that its digests need."""
    from tracing import OpClock, Patcher, SpeedProbe
    clock = OpClock(SpeedProbe())
    patcher = Patcher()
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    try:
        patcher.replace(wl.op_module, wl.op_attr, clock.wrap(wl.op_key))
        return wl.run_pass(inputs, clock, out)
    finally:
        patcher.restore()


def solve_references():
    """Run the solve workloads and store their per-solve outputs."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import ASYM3_REFERENCE, TABLE2_REFERENCE, SolveAsym3, SolveTable2
    commit = environment()["commit"]
    table2 = SolveTable2()
    res = _one_pass(table2, {"argv": ["solve", "--preset", "table2"], "tiny_config": None})
    if res.extra["rc"] != 0:
        raise RuntimeError(f"ehmac solve exited with {res.extra['rc']}")
    TABLE2_REFERENCE.write_text(json.dumps(
        {"commit": commit, "ops": res.digests, "summary": res.extra["summary"]},
        indent=1) + "\n", encoding="utf-8")
    print(f"wrote {TABLE2_REFERENCE} ({len(res.digests)} solves)", flush=True)
    asym = SolveAsym3()
    sets = []
    for seed in range(asym.case_sets):
        sets.append(_one_pass(asym, asym.build(seed, reference=False)).digests)
        print(f"solve_asym3 case set {seed}: "
              + " ".join(f"{d['utility']!r}" for d in sets[-1]), flush=True)
    ASYM3_REFERENCE.write_text(json.dumps({"commit": commit, "case_sets": sets}, indent=1)
                               + "\n", encoding="utf-8")
    print(f"wrote {ASYM3_REFERENCE} ({len(sets)} case sets)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="path of the BENCH record to write")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--reference", action="store_true",
                        help="re-record the solve digests")
    args = parser.parse_args()
    pin_environment()
    if args.reference:
        solve_references()
    elif args.out:
        seeds = parse_seeds(args.seeds)
        if len(seeds) < 2:
            parser.error("quartiles need at least two seeds")
        record(args.out, seeds)
    else:
        parser.error("pass --out or --reference")


if __name__ == "__main__":
    main()
