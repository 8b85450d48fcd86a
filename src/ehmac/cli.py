"""Command-line front end.

Verbs:
    bound     -- closed-form throughput ceilings over a capacity sweep
    solve     -- policy synthesis over a (capacity, K, p(0+)) grid
    simulate  -- Monte Carlo run of a stored, constant, or freshly solved policy
    sweep     -- summary-only utility grid

solve and sweep run their grid cells, and solve its best-K scans, across
worker processes when ``workers`` is above 1.

Every run is deterministic given its configuration (seeds included); errors
print one ``error[CODE]: message`` line on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from itertools import islice
from pathlib import Path

import numpy as np

from .arrivals import PacketDistribution
from .bounds import upper_bound_finite, upper_bound_infinite
from .config import ExperimentConfig, load_config
from .errors import ConfigError, EhmacError, UsageError
from .measures import (constant_policy, export_measure, export_policy,
                       load_policy, measure_closed_form)
from .simulate import crossing_balance, simulate
from .solver import best_k_search, solve_symmetric_mac

SUMMARY_COLUMNS = ("L", "K", "p0plus", "utility", "R_upper", "ratio")


def _bound_for(cfg: ExperimentConfig, capacity: float) -> float:
    bound = upper_bound_infinite if math.isinf(capacity) else upper_bound_finite
    return bound([cfg.harvest(capacity)] * cfg.node_count, cfg.rate_function())


def _write_summary(path: Path | None, rows, header=SUMMARY_COLUMNS):
    """Write a CSV table, ``header`` then ``rows``, to ``path`` or to stdout.

    The one CSV writer of the CLI: the summaries, the best-K scan tables and
    the crossing report.  A ``path`` gets its directory made.
    """
    if path is None:
        out = nullcontext(sys.stdout)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        out = open(path, "w", newline="", encoding="utf-8")
    with out as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_bound(cfg: ExperimentConfig, outdir: Path | None):
    """Ceiling table over the configured capacities."""
    rows = []
    for cap in cfg.capacities:
        rows.append((cap, "", "", "", f"{_bound_for(cfg, cap):.6f}", ""))
    _write_summary(None if outdir is None else outdir / "bounds.csv", rows)
    return rows


def _solve_cell(args):
    cfg, cap, k, p0, init = args
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve_symmetric_mac(cfg.node_count, cfg.harvest(cap), cfg.rate_function(),
                                   cfg.solver_config(p0, init, k),
                                   keep_history=cfg.keep_history)


def _summary_row(cfg: ExperimentConfig, cap, k, p0, utility):
    """One summary row; its ratio is empty where the ceiling is 0 (no arrivals)."""
    bound = _bound_for(cfg, cap)
    return (cap, round(k, 6), p0, f"{utility:.6f}", f"{bound:.6f}",
            f"{utility / bound:.4f}" if bound else "")


def _cell_tag(cap, k, p0, init):
    tag = f"L{cap:g}_K{k:g}_p0{p0:g}"
    if init != "linear":
        tag += f"_{init}"
    return tag


@contextmanager
def _runner(cfg: ExperimentConfig, jobs: int):
    """A ``map`` for a grid of ``jobs`` jobs: the built-in one, or a process pool's.

    The built-in ``map`` runs a job in this process when the caller reads its
    result; with ``workers`` and ``jobs`` both above 1 a pool of
    min(workers, jobs) processes takes them, and ``pool.map`` submits every
    job at once and yields the results in order.  If the caller raises, the
    pool drops the jobs that have not started, so the error does not wait
    for them.
    """
    workers = min(cfg.workers, jobs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                yield pool.map
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    else:
        yield map


def _grid_cells(cfg: ExperimentConfig):
    """The job of every (capacity, K, p(0+), init) cell.

    Cells come capacity-major, then in k/p0/init order.
    """
    return [(cfg, cap, k, p0, init)
            for cap in cfg.capacities for k in cfg.k_values
            for p0 in cfg.p0plus_values for init in cfg.init_policies]


def _require_first(cfg: ExperimentConfig, *names):
    """Reject an empty config list that the command reads its first value from."""
    for name in names:
        if not getattr(cfg, name):
            raise ConfigError(f"invalid value for {name}: the list is empty, and "
                              "this command reads its first value", field=name)


def _best_k_scan(args):
    cfg, cap = args
    return best_k_search(cfg.node_count, cfg.harvest(cap), cfg.rate_function(),
                         cfg.solver_config(cfg.p0plus_values[0], cfg.init_policies[0]),
                         cfg.k_min, cfg.k_max, step=cfg.k_step, coarse_step=cfg.k_coarse)


def cmd_solve(cfg: ExperimentConfig, outdir: Path):
    """Solve the configured grid, writing policies, measures and traces.

    Each capacity's best-K scan follows that capacity's cells; with
    ``workers > 1`` the scans run in the pool beside the cells.  Each cell's
    files are written as it finishes, each write making its own directory,
    so a failing first cell leaves no ``outdir``.
    """
    if any(math.isinf(cap) for cap in cfg.capacities):
        raise UsageError("solve needs finite capacities")
    if cfg.best_k:
        _require_first(cfg, "p0plus_values", "init_policies")
    rows = []
    per_cap = len(cfg.k_values) * len(cfg.p0plus_values) * len(cfg.init_policies)
    cells = _grid_cells(cfg)
    # a best-K scan per capacity runs beside the cells
    with _runner(cfg, len(cells) + len(cfg.capacities) * cfg.best_k) as run:
        solved = zip(cells, run(_solve_cell, cells))
        if cfg.best_k:
            scans = run(_best_k_scan, [(cfg, cap) for cap in cfg.capacities])
        for cap in cfg.capacities:
            for (_, _, k, p0, init), report in islice(solved, per_cap):
                report.write_dir(outdir / _cell_tag(cap, k, p0, init))
                rows.append(_summary_row(cfg, cap, k, p0, report.utility))
            if cfg.best_k:
                k_best, u_best, table = next(scans)
                rows.append(_summary_row(cfg, cap, k_best, cfg.p0plus_values[0],
                                         u_best))
                _write_summary(outdir / f"ksearch_L{cap:g}.csv", header=("K", "utility"),
                               rows=((f"{k:.4f}", f"{u:.6f}") for k, u in table))
    _write_summary(outdir / "summary.csv", rows)
    return rows


def cmd_sweep(cfg: ExperimentConfig, outdir: Path | None):
    """Summary-only solve grid."""
    cells = _grid_cells(cfg)
    with _runner(cfg, len(cells)) as run:
        rows = [_summary_row(cfg, cap, k, p0, rep.utility)
                for (_, cap, k, p0, _), rep in zip(cells, run(_solve_cell, cells))]
    _write_summary(None if outdir is None else outdir / "summary.csv", rows)
    return rows


def cmd_simulate(cfg: ExperimentConfig, outdir: Path):
    """Simulate a policy and write the statistics and crossing report."""
    if not cfg.capacities:
        raise UsageError("simulate needs one capacity")
    cap = cfg.capacities[0]
    solved = not cfg.policy_file and not cfg.policy_level > 0.0
    if solved:
        if math.isinf(cap):
            raise UsageError("simulate solves a policy only for a finite capacity; "
                             "set policy_file or policy_level")
        _require_first(cfg, "k_values", "p0plus_values", "init_policies")
    hp = cfg.harvest(cap)
    if cfg.policy_file:
        policy = load_policy(cfg.policy_file)
    elif cfg.policy_level > 0.0:
        span = cap if math.isfinite(cap) else 12.0 / cfg.zeta
        policy = constant_policy(cfg.policy_level, span, cfg.grid_n)
    else:
        policy = _solve_cell((cfg, cap, cfg.k_values[0], cfg.p0plus_values[0],
                              cfg.init_policies[0])).policies[0]
    dist = PacketDistribution.exponential(cfg.zeta)
    # everything is computed before the first write, so a failure writes nothing;
    # the analytic law first, so a policy without one is refused before the run
    measure = measure_closed_form(policy, hp)
    stats = simulate([(hp, policy, dist)] * cfg.node_count, cfg.rate_function(),
                     cfg.sim_config())
    records = (crossing_balance(stats, measure, policy, hp, dist)
               if stats.crossing_levels.size else None)
    outdir.mkdir(parents=True, exist_ok=True)
    if solved:
        export_policy(policy, outdir / "policy_solved.csv")
    (outdir / "stats.txt").write_text(stats.to_text(), encoding="utf-8")
    (outdir / "stats.json").write_text(json.dumps(stats.to_record(), indent=2) + "\n",
                                       encoding="utf-8")
    np.savetxt(outdir / "cdf_node0.csv",
               np.column_stack([stats.cdf_levels[0], stats.cdf[0]]),
               header="columns = level, occupancy_cdf")
    export_measure(measure, outdir / "measure_analytic.csv")
    if records:
        _write_summary(outdir / "crossing_balance.csv",
                       [rec.values() for rec in records], header=records[0].keys())
    return stats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehmac",
        description="Battery-charge measures, throughput bounds and power "
                    "policies for energy-harvesting multiple-access "
                    "transmitters.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("bound", "closed-form throughput ceilings"),
                      ("solve", "synthesize policies over a parameter grid"),
                      ("simulate", "Monte Carlo run of a policy"),
                      ("sweep", "summary-only utility grid")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", type=Path, default=None,
                       help="flat key = value configuration file")
        p.add_argument("--preset", type=str, default=None,
                       help="named preset (table1, table2, fig1, fig2, fig3)")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (bound/sweep print to stdout "
                            "when omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes for solve and sweep cells")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(path=args.config, preset=args.preset,
                          overrides={"seed": args.seed, "workers": args.workers})
        if args.command == "bound":
            cmd_bound(cfg, args.out)
        elif args.command == "solve":
            if args.out is None:
                raise UsageError("solve writes files; pass --out DIR")
            cmd_solve(cfg, args.out)
        elif args.command == "sweep":
            cmd_sweep(cfg, args.out)
        elif args.command == "simulate":
            if args.out is None:
                raise UsageError("simulate writes files; pass --out DIR")
            cmd_simulate(cfg, args.out)
    except (ConfigError, UsageError) as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 2
    except EhmacError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error[E_IO]: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
