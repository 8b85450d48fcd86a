"""The four benchmark workloads: inputs from the seed, one pass, output checks.

A *pass* is a fixed amount of work built once from the seed; a run repeats
it, and every repetition must give bit-identical outputs.  An *op* is one
call of the workload's op function (``Workload.op_attr``), timed by the
``OpClock`` wrapped around its bindings.

The checks reuse the acceptance gate's tolerances (tests/test_acceptance.py)
and add none of their own, except ``ROUNDOFF`` for the recorded digests.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ehmac
from ehmac.errors import EhmacError

HERE = Path(__file__).resolve().parent
TABLE2_REFERENCE = HERE / "table2_reference.json"
ASYM3_REFERENCE = HERE / "asym3_reference.json"

# ROADMAP aim 1: a solve output that moves beyond roundoff is a behaviour change.
ROUNDOFF = 1e-9
BOUND_SLACK = 1e-3  # criterion 7: utilities sit below their ceiling + 1e-3
SIM_REL_TOL = 0.02  # criterion 6: trajectory vs quadrature throughput
SE_MULT = 3.0       # criterion 5: atom within three standard errors
KS_TOL = 0.01       # criterion 5: occupancy CDF vs the law

RF = ehmac.RateFunction(1.0)
EXP1 = ehmac.PacketDistribution.exponential(1.0)


@dataclass
class PassResult:
    """Outputs of one pass: one digest per op plus the work done."""

    digests: list
    work: int
    extra: dict = field(default_factory=dict)


def _op_outputs(clock, start):
    """(key, error name, result) of the ops a pass ran, from the op clock."""
    return [(r.key, r.error, r.result) for r in clock.records[start:]]


def _arrival_events(nodes, sims):
    """Exact arrival count of a list of runs, from the simulator's own sampler."""
    total = 0
    for cfg in sims:
        for rep in range(cfg.replications):
            for k, (params, _, dist) in enumerate(nodes):
                times, _ = ehmac.sample_arrivals(params, dist, cfg.horizon, cfg.seed,
                                                 node=k, replication=rep)
                total += int(times.size)
    return total


def _rows_match(rows, recorded):
    """summary.csv rows equal up to one unit of their last printed digit."""
    if len(rows) != len(recorded):
        return False
    for row, rec in zip(rows, recorded):
        if len(row) != len(rec):
            return False
        for got, want in zip(row, rec):
            if got != want and not abs(float(got) - float(want)) <= 1e-6:
                return False
    return True


class Workload:
    name = ""
    work_unit = ""          # what work_per_s counts
    op_module = "ehmac.solver"
    op_attr = ""

    def op_key(self, *args, **kwargs):
        return None

    def build(self, seed: int, tiny: bool = False) -> dict:
        raise NotImplementedError

    def run_pass(self, inputs: dict, clock, workdir: Path) -> PassResult:
        raise NotImplementedError

    def check(self, inputs: dict, result: PassResult) -> list:
        """(op index, message) per failed check; index None for the whole pass."""
        raise NotImplementedError


class SolveTable2(Workload):
    """``ehmac solve --preset table2`` in-process: 12 cells + 4 best-K scans."""

    name = "solve_table2"
    work_unit = "solves"
    op_attr = "solve_symmetric_mac"

    def op_key(self, m, params, rf, config, *args, **kwargs):
        return (params.capacity, config.k_const)

    def build(self, seed, tiny=False):
        # the preset fixes every input, so the seed is not used
        from ehmac.config import load_config
        cfg = load_config(preset="table2", env={})
        bounds = {cap: ehmac.upper_bound_finite([ehmac.HarvestParams(cfg.lam, cfg.zeta, cap)]
                                                * cfg.node_count, RF)
                  for cap in cfg.capacities}
        reference = None
        if not tiny:
            reference = json.loads(TABLE2_REFERENCE.read_text(encoding="utf-8"))
        # tiny: one cell, no K scan (the benchmark's own tests)
        tiny_config = "schema_version = 1\ncapacities = 0.5\nk_values = 0.0\nbest_k = false\n"
        return {"argv": ["solve", "--preset", "table2"], "bounds": bounds,
                "reference": reference, "tiny_config": tiny_config if tiny else None}

    def run_pass(self, inputs, clock, workdir):
        cli = importlib.import_module("ehmac.cli")
        start = len(clock.records)
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            argv = inputs["argv"] + ["--out", str(Path(tmp) / "out")]
            if inputs["tiny_config"]:
                cfg_path = Path(tmp) / "tiny.cfg"
                cfg_path.write_text(inputs["tiny_config"], encoding="utf-8")
                argv += ["--config", str(cfg_path)]
            rc = cli.main(argv)
            out = Path(tmp) / "out"
            with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
                summary = list(csv.reader(fh))[1:]
            nbytes = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        digests = [{"L": key[0], "K": key[1],
                    "utility": None if err else result.utility, "error": err}
                   for key, err, result in _op_outputs(clock, start)]
        return PassResult(digests=digests, work=len(digests),
                          extra={"rc": rc, "summary": summary, "bytes_written": nbytes})

    def check(self, inputs, result):
        failures = []
        if result.extra["rc"] != 0:
            failures.append((None, f"ehmac solve exited with {result.extra['rc']}"))
        for i, d in enumerate(result.digests):
            if d["error"] is None and not d["utility"] <= inputs["bounds"][d["L"]] + BOUND_SLACK:
                failures.append((i, f"utility {d['utility']!r} above the ceiling "
                                    f"at L={d['L']}"))
        ref = inputs["reference"]
        if ref is None:
            return failures
        if len(ref["ops"]) != len(result.digests):
            failures.append((None, f"{len(result.digests)} solves, "
                                   f"{len(ref['ops'])} recorded"))
        for i, (d, r) in enumerate(zip(result.digests, ref["ops"])):
            if (d["L"], d["K"], d["error"]) != (r["L"], r["K"], r["error"]):
                failures.append((i, f"L={d['L']} K={d['K']} error={d['error']} "
                                    f"differs from the record {r}"))
            elif d["error"] is None and not math.isclose(d["utility"], r["utility"],
                                                         rel_tol=ROUNDOFF, abs_tol=0.0):
                failures.append((i, f"utility {d['utility']!r} moved from the "
                                    f"recorded {r['utility']!r}"))
        if not _rows_match(result.extra["summary"], ref["summary"]):
            failures.append((None, "summary.csv rows differ from the record"))
        return failures


class SolveAsym3(Workload):
    """Coordinate ascent on three asymmetric nodes, capacities drawn from the seed.

    A seed selects one of ``case_sets`` case sets (seed modulo ``case_sets``),
    and ``asym3_reference.json`` holds the digest of every one of them, so
    each run is checked against its recorded utilities and sweep counts.
    """

    name = "solve_asym3"
    work_unit = "solves"
    op_attr = "solve_mac_gauss_seidel"
    cases = 6
    case_sets = 64
    offsets = (0, 1, 3)

    def capacities(self, seed, tiny=False):
        """The capacity triples of the case set that ``seed`` selects."""
        n = 1 if tiny else self.cases
        rng = np.random.default_rng([seed % self.case_sets, 3])
        # Stratified draw on [1, 3]^3: node j of case i takes a uniform point of
        # stratum (i + offsets[j]) mod n.  Every node's capacities cover all n
        # strata, and the fixed pairing keeps the mix of small and large
        # batteries (which sets the solve cost) the same for every seed, while
        # the capacities themselves change with the seed.
        strata = (np.arange(n)[:, None] + np.asarray(self.offsets)[None, :]) % n
        return (1.0 + 2.0 * (strata + rng.random((n, 3))) / n).tolist()

    def build(self, seed, tiny=False, reference=True):
        cases = [[ehmac.HarvestParams(1.0, 1.0, c) for c in row]
                 for row in self.capacities(seed, tiny)]
        config = ehmac.SolverConfig(k_const=0.0, p0plus=0.001,
                                    grid_n=64 if tiny else 128, theta_tol=0.01,
                                    max_outer=1 if tiny else 3)
        recorded = None
        if reference and not tiny:
            sets = json.loads(ASYM3_REFERENCE.read_text(encoding="utf-8"))["case_sets"]
            recorded = sets[seed % self.case_sets]
        return {"cases": cases, "config": config, "reference": recorded,
                "bounds": [ehmac.upper_bound_finite(nodes, RF) for nodes in cases]}

    def run_pass(self, inputs, clock, workdir):
        solver = importlib.import_module("ehmac.solver")
        digests = []
        for nodes in inputs["cases"]:
            caps = [hp.capacity for hp in nodes]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    rep = solver.solve_mac_gauss_seidel(nodes, RF, inputs["config"])
            except EhmacError as err:
                digests.append({"caps": caps, "utility": None, "sweeps": None,
                                "error": type(err).__name__})
                continue
            digests.append({"caps": caps, "utility": rep.utility, "sweeps": rep.sweeps,
                            "error": None})
        return PassResult(digests=digests, work=len(digests))

    def check(self, inputs, result):
        failures = []
        for i, (d, bound) in enumerate(zip(result.digests, inputs["bounds"])):
            if d["error"] is not None:
                failures.append((i, f"raised {d['error']} at capacities {d['caps']}"))
            elif not (math.isfinite(d["utility"]) and d["utility"] <= bound + BOUND_SLACK):
                failures.append((i, f"utility {d['utility']!r} not below the "
                                    f"ceiling {bound!r}"))
        ref = inputs["reference"]
        if ref is None:
            return failures
        if len(ref) != len(result.digests):
            failures.append((None, f"{len(result.digests)} solves, {len(ref)} recorded"))
        for i, (d, r) in enumerate(zip(result.digests, ref)):
            if (d["caps"], d["error"], d["sweeps"]) != (r["caps"], r["error"], r["sweeps"]):
                failures.append((i, f"capacities {d['caps']}, error {d['error']}, "
                                    f"sweeps {d['sweeps']} differ from the record {r}"))
            elif d["error"] is None and not math.isclose(d["utility"], r["utility"],
                                                         rel_tol=ROUNDOFF, abs_tol=0.0):
                failures.append((i, f"utility {d['utility']!r} moved from the "
                                    f"recorded {r['utility']!r}"))
        return failures


class _SimWorkload(Workload):
    work_unit = "events"
    op_module = "ehmac.simulate"
    op_attr = "simulate"

    def op_key(self, nodes, rf, config):
        return config.seed


class SimPair(_SimWorkload):
    """Two-node trajectory check of the converged L=3, K=0 policy (criterion 6)."""

    name = "sim_pair"
    runs = 2

    def build(self, seed, tiny=False):
        hp = ehmac.HarvestParams(1.0, 1.0, 3.0)
        cfg = ehmac.SolverConfig(k_const=0.0, p0plus=0.001, grid_n=512,
                                 theta_tol=0.01, max_outer=60)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = ehmac.solve_symmetric_mac(2, hp, RF, cfg)
        nodes = [(hp, report.policies[0], EXP1)] * 2
        n = 1 if tiny else self.runs
        seeds = np.random.SeedSequence([seed, 6]).generate_state(n).tolist()
        horizon = 2e3 if tiny else 5e4
        sims = [ehmac.SimConfig(horizon=horizon, replications=2, seed=int(s),
                                burn_in=100.0) for s in seeds]
        return {"nodes": nodes, "sims": sims, "utility": report.utility,
                "events": _arrival_events(nodes, sims)}

    def run_pass(self, inputs, clock, workdir):
        sim = importlib.import_module("ehmac.simulate")
        digests = []
        for cfg in inputs["sims"]:
            stats = sim.simulate(inputs["nodes"], RF, cfg)
            digests.append({"seed": cfg.seed, "throughput": stats.throughput,
                            "throughput_se": stats.throughput_se,
                            "atom": stats.atom.tolist()})
        return PassResult(digests=digests, work=inputs["events"])

    def check(self, inputs, result):
        u = inputs["utility"]
        return [(i, f"throughput {d['throughput']!r} is {abs(d['throughput'] - u) / u:.4f} "
                    f"from the quadrature utility {u!r}")
                for i, d in enumerate(result.digests)
                if not abs(d["throughput"] - u) / u < SIM_REL_TOL]


class SimSingle(_SimWorkload):
    """One node, tabulated gamma(2) packets, fixed affine policy (criterion 5).

    The inputs are fixed, so the seed is not used: the oracle verdicts are
    three-standard-error tests, which a fresh random stream per seed would
    fail at a small rate for no fault of the code.
    """

    name = "sim_single"
    runs = 2
    probes = (0.5, 1.0, 1.5, 2.0, 2.5)

    def build(self, seed, tiny=False):
        xs = np.linspace(0.0, 12.0, 601)
        scale = 0.5  # gamma(2, 0.5): unit mean packet
        cdf = 1.0 - np.exp(-xs / scale) * (1.0 + xs / scale)
        cdf[-1] = 1.0
        dist = ehmac.PacketDistribution.tabulated(xs, cdf)
        hp = ehmac.HarvestParams(1.0, 1.0, 3.0)
        policy = ehmac.policy_from_function(lambda x: 0.5 + 0.8 * x, 3.0, 2048)
        n = 1 if tiny else self.runs
        horizon = 2e3 if tiny else 1.25e4
        sims = [ehmac.SimConfig(horizon=horizon, replications=16, seed=s, burn_in=100.0,
                                level_probes=self.probes) for s in range(1, n + 1)]
        nodes = [(hp, policy, dist)]
        return {"nodes": nodes, "sims": sims, "events": _arrival_events(nodes, sims)}

    def run_pass(self, inputs, clock, workdir):
        sim = importlib.import_module("ehmac.simulate")
        meas_mod = importlib.import_module("ehmac.measures")
        (hp, policy, dist), = inputs["nodes"]
        digests = []
        for cfg in inputs["sims"]:
            stats = sim.simulate(inputs["nodes"], RF, cfg)
            law = meas_mod.measure_volterra(policy, hp, dist)
            verdicts = sim.crossing_balance(stats, law, policy, hp, dist)
            analytic = np.interp(stats.cdf_levels[0], law.grid, law.cdf())
            digests.append({
                "seed": cfg.seed, "atom": float(stats.atom[0]),
                "atom_se": float(stats.atom_se[0]), "law_atom": law.atom,
                "ks": float(np.max(np.abs(stats.cdf[0] - analytic))),
                "verdicts": [bool(r["down_within_3se"] and r["up_within_3se"])
                             for r in verdicts]})
        return PassResult(digests=digests, work=inputs["events"])

    def check(self, inputs, result):
        failures = []
        for i, d in enumerate(result.digests):
            if not abs(d["atom"] - d["law_atom"]) <= SE_MULT * d["atom_se"]:
                failures.append((i, f"atom {d['atom']!r} vs law {d['law_atom']!r} "
                                    f"beyond {SE_MULT} SE ({d['atom_se']!r})"))
            if not all(d["verdicts"]):
                failures.append((i, f"crossing-balance verdicts {d['verdicts']}"))
            if not d["ks"] < KS_TOL:
                failures.append((i, f"KS distance {d['ks']:.4f}"))
        return failures


WORKLOADS = {wl.name: wl for wl in (SolveTable2(), SolveAsym3(), SimPair(), SimSingle())}
