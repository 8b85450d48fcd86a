"""Benchmark of the ehmac solve and trajectory paths.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: solve_table2, solve_asym3,
sim_pair, sim_single (see BENCHMARK.json and benchmarks/README.md).

The run builds the workload's inputs from the seed, repeats whole passes of
it for ``--seconds`` (give or take half a pass; at least one pass),
checks every output, and prints a readable report followed by one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
A traced run alternates untraced and traced passes; the difference of the
two pass medians is the tracing overhead.  Spans are written to
``.bench_out/`` in the repository root.

Single process, single thread: BLAS/OpenMP pools are pinned to one thread
before numpy is imported, and nothing starts worker pools.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("solve_table2", "solve_asym3", "sim_pair", "sim_single")
SETUP_BUILDS = 3


def pin_environment():
    """One BLAS/OpenMP thread, and no EHMAC_ overrides of the workload inputs.

    Must run before numpy is imported.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("EHMAC_")]:
        del os.environ[var]


def _import_sources():
    """Put this checkout's ``src`` first on the path and import the benchmark."""
    if not (SRC / "ehmac" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ehmac sources under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import ehmac
    if Path(ehmac.__file__).resolve().parent != (SRC / "ehmac").resolve():
        raise ImportError(f"ehmac imported from {ehmac.__file__}, not from {SRC}")


def setup(workload, seed, tiny):
    """Import ehmac and build the inputs.

    ``setup_s`` is the import time plus the median of ``SETUP_BUILDS``
    builds (building has no caches to warm).  Returns the workload, its
    inputs, the speed probe whose clock the run goes on with, and
    ``setup_s`` scaled to the reference speed and as measured.
    """
    t0 = time.perf_counter()
    _import_sources()
    from tracing import SpeedProbe
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t0
    probe = SpeedProbe()
    probe()
    wl, builds, scaled = WORKLOADS[workload], [], []
    for _ in range(SETUP_BUILDS):
        t0 = probe.now()
        inputs = wl.build(seed, tiny)
        t1 = probe.now()
        builds.append(t1 - t0)
        scaled.append(probe.scaled(t0, t1))
        probe()
    # the import ran before the probe existed: scale it by the set-up probes
    import_scaled = import_s * probe.ref_s / statistics.median(dt for _, dt in probe.samples)
    return (wl, inputs, probe, import_scaled + statistics.median(scaled),
            import_s + statistics.median(builds))


@dataclass
class Pass:
    traced: bool
    t0: float  # on the probe's clock
    t1: float
    result: object
    ops: list  # the op clock's records of this pass

    @property
    def wall(self):
        return self.t1 - self.t0


def timed_passes(wl, inputs, clock, budget, tracer=None):
    """Repeat passes for ``budget`` seconds at the reference speed, give or
    take half a pass.

    Another pass starts while it is expected to end no later than half a
    (median) pass beyond the budget; the first pass always runs.  With a
    tracer, untraced and traced passes alternate, starting untraced, and
    there is at least one of each.  Time spent in the speed probe does not
    count.  Because the budget is at the reference speed, the number of
    passes does not change with the machine's speed phases.
    """
    from tracing import Patcher
    probe = clock.probe
    passes = []
    t_start = probe.now()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        patcher = Patcher()
        first_op = len(clock.records)
        try:
            if traced:
                tracer.install(patcher)
            patcher.replace(wl.op_module, wl.op_attr, clock.wrap(wl.op_key))
            t0 = probe.now()
            res = wl.run_pass(inputs, clock, OUT)
            t1 = probe.now()
        finally:
            patcher.restore()
        probe()
        passes.append(Pass(traced, t0, t1, res, clock.records[first_op:]))
        if tracer is not None and len(passes) < 2:
            continue
        median = statistics.median(probe.scaled(p.t0, p.t1) for p in passes)
        if probe.scaled(t_start, probe.now()) + 0.5 * median > budget:
            return passes


def run(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns the result record (metrics, checks, digests)."""
    wl, inputs, probe, setup_s, setup_measured = setup(workload, seed, tiny)
    from tracing import OpClock, Tracer, layer_metrics
    OUT.mkdir(exist_ok=True)

    clock = OpClock(probe)
    tracer = Tracer(clock) if trace else None
    passes = timed_passes(wl, inputs, clock, float(seconds), tracer)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    results = [p.result for p in passes]

    failures = []  # (pass, op index or None, message)
    for i, res in enumerate(results):
        failures += [(i, k, msg) for k, msg in wl.check(inputs, res)]
        if res.digests != results[0].digests:
            failures.append((i, None, "outputs differ from the first pass"))
    ops = [r for p in untraced for r in p.ops]
    walls = [p.wall for p in untraced]
    scaled_walls = [probe.scaled(p.t0, p.t1) for p in untraced]
    raised = {}
    for r in ops:
        if r.error is not None:
            raised[r.error] = raised.get(r.error, 0) + 1
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "passes": len(walls), "ops": len(ops), "raised": raised,
        "attempted": len(clock.records), "failures": failures, "digests": results[0].digests,
        "work_unit": wl.work_unit, "work_per_pass": results[0].work,
        "probe_s": [dt for _, dt in probe.samples], "ref_probe_s": probe.ref_s,
    }
    if not trace:
        op_ms = sorted(1e3 * r.seconds for r in ops)
        scaled_op_ms = sorted(1e3 * probe.scaled(r.t0, r.t1) for r in ops)
        measured = {
            "setup_s": setup_measured,
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(op_ms),
            "work_per_s": results[0].work * len(walls) / sum(walls),
        }
        scaled = {
            "setup_s": setup_s,
            "wall_s": statistics.median(scaled_walls),
            "op_p50_ms": statistics.median(scaled_op_ms),
            "work_per_s": results[0].work * len(walls) / sum(scaled_walls),
        }
        if len(ops) >= 100:
            measured["op_p90_ms"] = statistics.quantiles(op_ms, n=10)[-1]
            scaled["op_p90_ms"] = statistics.quantiles(scaled_op_ms, n=10)[-1]
        record.update(measured=measured, scaled=scaled)
        record["metrics"] = _with_units({
            **{k: scaled[k] for k in ("setup_s", "wall_s", "op_p50_ms", "work_per_s")},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        return record

    traced_walls = [p.wall for p in traced]
    per_pass, self_by_module, self_by_span = layer_metrics(
        tracer, [r for p in traced for r in p.ops], len(traced))
    per_pass["cli.bytes_written"] = results[0].extra.get("bytes_written", 0)
    # at the reference speed, like the untraced wall_s it is compared with
    per_pass["trace.overhead_s"] = (
        statistics.median(probe.scaled(p.t0, p.t1) for p in traced)
        - statistics.median(scaled_walls))
    record["traced_walls_s"] = traced_walls
    record["traced_wall_s"] = statistics.median(traced_walls)
    record["metrics"] = _with_units(per_pass)
    record["self_s_by_module"] = {k: v / len(traced) for k, v in self_by_module.items()}
    record["self_s_by_span"] = {k: v / len(traced) for k, v in self_by_span.items()}
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({"workload": workload, "seed": seed,
                                      "passes": len(traced),
                                      "walls_s": traced_walls, **tracer.to_json()}),
                          encoding="utf-8")
    record["trace_file"] = str(trace_file.relative_to(ROOT))
    return record


def _with_units(values):
    """(value, unit) per metric, units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: (value, units[name]) for name, value in values.items()}


def report_lines(rec):
    """The readable part of the output, printed before the JSON line."""
    lines = [f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
             f"passes {rec['passes']}  ops {rec['ops']}"]
    n_failed = len(rec["failures"])
    n_raised = sum(rec["raised"].values())
    detail = ", ".join(f"{n} {e}" for e, n in sorted(rec["raised"].items()))
    lines.append(f"fail_frac {n_raised / max(rec['ops'], 1):.4f} ({n_raised}/{rec['ops']} "
                 f"ops raised{': ' + detail if detail else ''}); failed checks {n_failed}")
    for p, i, msg in rec["failures"][:20]:
        lines.append(f"  FAILED pass {p} " + ("" if i is None else f"op {i} ") + msg)
    metrics = rec["metrics"]
    if not rec["trace"]:
        probe = statistics.median(rec["probe_s"])
        lines.append(f"speed probe: median {probe:.6f} s, range {min(rec['probe_s']):.6f}-"
                     f"{max(rec['probe_s']):.6f} s (n={len(rec['probe_s'])}); times are "
                     f"scaled, interval by interval, to the speed at which it takes "
                     f"{rec['ref_probe_s']} s")
        rate_name = "solves_per_s" if rec["work_unit"] == "solves" else "events_per_s"
        unit = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s"}
        for name, value in rec["scaled"].items():
            label = rate_name if name == "work_per_s" else name
            note = f", n={rec['ops']}" if name.startswith("op_") else ""
            lines.append(f"  {label} {value:.6g} {unit.get(name, 'ms')} "
                         f"(measured {rec['measured'][name]:.6g}{note})")
        lines.append(f"  work per pass: {rec['work_per_pass']} {rec['work_unit']}")
        lines.append(f"  peak_rss_mb {metrics['peak_rss_mb'][0]:.6g} MiB")
        lines.append("measured: " + json.dumps(rec["measured"]))
    else:
        lines.append(f"traced pass {rec['traced_wall_s']:.4f} s; "
                     f"self time by module (s per pass):")
        for mod, dt in sorted(rec["self_s_by_module"].items(), key=lambda kv: -kv[1]):
            lines.append(f"  {mod:<10} {dt:10.4f}  {dt / rec['traced_wall_s']:6.1%}")
        top = sorted(rec["self_s_by_span"].items(), key=lambda kv: -kv[1])[:6]
        lines.append("largest spans by self time: " + ", ".join(
            f"{n} {dt:.3f} s" for n, dt in top))
        lines.append(f"spans written to {rec['trace_file']}")
    lines.append("digest of the first pass:")
    for d in rec["digests"][:16]:
        lines.append("  " + json.dumps(d, default=float))
    if len(rec["digests"]) > 16:
        lines.append(f"  ... {len(rec['digests']) - 16} more ops")
    return lines


def result_line(rec):
    return json.dumps({
        "correct": not rec["failures"],
        "attempted": rec["attempted"],
        # a failed pass-level check (exit code, determinism) fails the pass's ops
        "failed": min(rec["attempted"], len(rec["failures"])),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rec["metrics"].items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_environment()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    print("\n".join(report_lines(rec)))
    print(result_line(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
