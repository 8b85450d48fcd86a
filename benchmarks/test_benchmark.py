"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest benchmarks/test_benchmark.py -q

They sit outside the package's ``testpaths``, so the main suite does not
collect them.
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ehmac  # noqa: E402
import run  # noqa: E402
from tracing import OpClock, Patcher, SpeedProbe, Tracer  # noqa: E402
from workloads import TABLE2_REFERENCE, WORKLOADS, PassResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RF = ehmac.RateFunction(1.0)


@pytest.fixture(scope="module")
def tiny_runs():
    """One untraced and one traced tiny run of every workload."""
    return {(w, trace): run.run(w, seed=1, seconds=0.01, trace=trace, tiny=True)
            for w in WORKLOADS for trace in (False, True)}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_emitted_with_its_unit(tiny_runs, workload):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        rec = tiny_runs[(workload, trace)]
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: unit for name, (_, unit) in rec["metrics"].items()}
        assert got == want
        line = json.loads(run.result_line(rec))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
    e2e = tiny_runs[(workload, False)]["metrics"]
    assert all(value > 0 for value, _ in e2e.values())


def test_speed_probe_integrates_the_interpolated_speed():
    probe = SpeedProbe()
    ref = probe.ref_s
    probe.samples = [(1.0, ref / 2), (3.0, ref)]  # speed 2 at t=1, falling to 1 at t=3
    assert probe.scaled(0.0, 1.0) == pytest.approx(2.0)
    assert probe.scaled(1.0, 3.0) == pytest.approx(3.0)
    assert probe.scaled(0.5, 2.0) == pytest.approx(1.0 + 1.75)
    assert probe.scaled(3.0, 4.5) == pytest.approx(1.5)


def test_probe_time_is_left_out_of_the_clock(tiny_runs):
    probe = SpeedProbe()
    t0 = probe.now()
    for _ in range(3):
        probe()
    assert probe.now() - t0 < 0.5 * sum(dt for _, dt in probe.samples)
    probe.maybe()  # not due yet
    assert len(probe.samples) == 3
    # one probe after the import, after every build and after every pass
    rec = tiny_runs[("sim_single", False)]
    assert len(rec["probe_s"]) >= run.SETUP_BUILDS + 1 + rec["passes"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_self_times_fit_in_the_traced_wall(tiny_runs, workload):
    rec = tiny_runs[(workload, True)]
    walls = rec["traced_walls_s"]
    assert sum(rec["self_s_by_module"].values()) * len(walls) <= sum(walls)


def test_wrappers_see_every_binding_and_are_restored():
    import ehmac.cli
    import ehmac.solver
    import ehmac.throughput
    sim_mod = sys.modules["ehmac.simulate"]
    originals = {
        "phi_moments": ehmac.throughput.phi_moments,
        "solve": ehmac.solver.solve_symmetric_mac,
        "simulate": sim_mod.simulate,
        "eval3": ehmac.throughput.PhiMoments.__dict__["eval3"],
    }
    clock = OpClock(SpeedProbe())
    tracer = Tracer(clock)
    patcher = Patcher()
    hp = ehmac.HarvestParams(1.0, 1.0, 1.0)
    cfg = ehmac.SolverConfig(grid_n=64, max_outer=2)
    try:
        tracer.install(patcher)
        patcher.replace("ehmac.solver", "solve_symmetric_mac", clock.wrap())
        # the package attribute and the cli binding are the same wrapper
        assert ehmac.simulate is sim_mod.simulate is ehmac.cli.simulate
        assert ehmac.solver.phi_moments is not originals["phi_moments"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ehmac.best_k_search(2, hp, RF, cfg, -0.1, 0.0, step=0.1, coarse_step=None)
        pol = ehmac.constant_policy(1.5, 1.0, 64)
        ehmac.simulate([(hp, pol, ehmac.PacketDistribution.exponential(1.0))] * 2, RF,
                       ehmac.SimConfig(horizon=200.0, seed=1))
    finally:
        patcher.restore()
    names = [s[0] for s in tracer.spans]
    scan = names.index("solver.best_k_search")
    # best_k_search reaches the solver-module global, so its solves are ops
    assert len(clock.records) == 2
    assert any(s[0] == "solver.solve_symmetric_mac" and s[3] == scan for s in tracer.spans)
    assert tracer.counts["throughput.eval3.calls"] > 0
    assert "simulate.simulate" in names and "grids.tau_inverse" in names
    assert ehmac.solver.phi_moments is ehmac.throughput.phi_moments
    assert ehmac.throughput.phi_moments is originals["phi_moments"]
    assert ehmac.cli.solve_symmetric_mac is ehmac.solver.solve_symmetric_mac
    assert ehmac.solver.solve_symmetric_mac is originals["solve"]
    assert ehmac.simulate is sim_mod.simulate is originals["simulate"]
    assert ehmac.throughput.PhiMoments.__dict__["eval3"] is originals["eval3"]


def test_workload_names_agree():
    assert (list(run.WORKLOAD_NAMES) == list(WORKLOADS)
            == [w["name"] for w in SPEC["workloads"]])


def test_seed_changes_seeded_inputs_only():
    asym = WORKLOADS["solve_asym3"]
    caps = [[[hp.capacity for hp in nodes] for nodes in asym.build(s, tiny=True)["cases"]]
            for s in (1, 1, 2)]
    assert caps[0] == caps[1] != caps[2]
    pair = WORKLOADS["sim_pair"]
    seeds = [[c.seed for c in pair.build(s, tiny=True)["sims"]] for s in (1, 1, 2)]
    assert seeds[0] == seeds[1] != seeds[2]
    table2 = WORKLOADS["solve_table2"]
    one, two = table2.build(1), table2.build(2)
    assert one["argv"] == two["argv"] and one["bounds"] == two["bounds"]


def test_table2_check_flags_a_moved_utility():
    wl = WORKLOADS["solve_table2"]
    inputs = wl.build(1)
    ref = json.loads(TABLE2_REFERENCE.read_text(encoding="utf-8"))
    ops = [dict(op) for op in ref["ops"]]
    good = PassResult(digests=ops, work=len(ops),
                      extra={"rc": 0, "summary": ref["summary"]})
    assert wl.check(inputs, good) == []
    first_ok = next(i for i, op in enumerate(ops) if op["error"] is None)
    ops[first_ok]["utility"] *= 1.0 + 1e-6
    assert [i for i, _ in wl.check(inputs, good)] == [first_ok]


def test_asym3_check_flags_a_moved_utility():
    wl = WORKLOADS["solve_asym3"]
    seed = wl.case_sets + 5  # seeds wrap around the recorded case sets
    inputs = wl.build(seed)
    assert inputs["reference"] == wl.build(5)["reference"]
    ops = [dict(op) for op in inputs["reference"]]
    good = PassResult(digests=ops, work=len(ops))
    assert wl.check(inputs, good) == []
    ops[2]["utility"] *= 1.0 - 1e-6
    ops[4]["sweeps"] += 1
    assert [i for i, _ in wl.check(inputs, good)] == [2, 4]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "sim_single",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
