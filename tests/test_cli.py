import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehmac
from ehmac import cli
from ehmac.config import (ExperimentConfig, PRESETS, WORKERS_CAP, apply_env_overrides,
                          load_config, parse_config_text)
from ehmac.errors import ConfigError, NonAdmissibleTrajectoryError
from ehmac.solver import INIT_POLICIES


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _failing_cell(args):
    raise NonAdmissibleTrajectoryError("release rate reached zero")


def _no_scan(*args, **kwargs):
    raise AssertionError("a best-K scan started")


def _slow_scan(marks, args):
    cfg, cap = args
    time.sleep(0.3)
    (marks / f"scan_{cap:g}").touch()
    return 0.0, 0.0, []


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's size, runs the jobs here."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)

    def shutdown(self, cancel_futures=False):
        pass


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools a command starts, none of which forks a process."""
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool.sizes


def _config_values(name):
    """Values of the type of the config field ``name``."""
    proto = getattr(ExperimentConfig(), name)
    # the edge values that a text round trip loses first, often
    floats = st.one_of(st.sampled_from([-0.0, math.inf, -math.inf, 5e-324, -2.2e-308]),
                       st.floats(allow_nan=False))
    if isinstance(proto, bool):
        return st.booleans()
    if isinstance(proto, int):
        return st.integers(-2 ** 70, 2 ** 70)
    if isinstance(proto, float):
        return floats
    if name == "init_policies":
        return st.lists(st.sampled_from(INIT_POLICIES), unique=True).map(tuple)
    if isinstance(proto, tuple):
        return st.lists(floats, max_size=4).map(tuple)
    # a path: '#' starts a comment, ',' is kept out as in a list, and a line
    # break or surrounding space would not survive the line reader
    return st.text(st.characters(blacklist_characters="#,",
                                 blacklist_categories=("Cc", "Cs", "Zl", "Zp"))).filter(
        lambda s: s == s.strip())


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(v if isinstance(v, str) else repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


class TestConfigParsing:
    def test_flat_key_values(self):
        raw = parse_config_text(
            "schema_version = 1\n"
            "# comment line\n"
            "capacities = 0.5, 1, inf\n"
            "best_k = true\n"
            "init_policies = linear, sqrt\n")
        assert raw["capacities"] == (0.5, 1.0, math.inf)
        assert raw["best_k"] is True
        assert raw["init_policies"] == ("linear", "sqrt")

    def test_unknown_key_reports_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("schema_version = 1\nvoltage = 5\n")
        assert err.value.field == "voltage"

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("grid_n = many\n", source="test.cfg")
        assert "test.cfg:1" in str(err.value)

    def test_schema_version_enforced(self):
        with pytest.raises(ConfigError):
            load_config(overrides={"schema_version": 2})

    def test_env_override(self):
        raw = apply_env_overrides({"grid_n": 128}, env={"EHMAC_GRID_N": "256"})
        assert raw["grid_n"] == 256

    def test_hash_starts_a_comment_anywhere(self):
        raw = parse_config_text("policy_file = runs/#3/policy.csv\n")
        assert raw["policy_file"] == "runs/"

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_key_round_trips(self, data):
        # each key's value rendered as text comes back with its type and
        # bits, from a config file and from an EHMAC_ variable alike
        lines, env, want = [], {}, {}
        for f in fields(ExperimentConfig):
            value = data.draw(_config_values(f.name), f.name)
            text = _render(value)
            lines.append(f"{f.name} = {text}")
            env["EHMAC_" + f.name.upper()] = text
            want[f.name] = value
        for got in (parse_config_text("\n".join(lines) + "\n"),
                    apply_env_overrides({}, env=env)):
            assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}

    @pytest.mark.parametrize("key, value", [
        pytest.param("lam", -1.0, id="lam"),
        pytest.param("zeta", 0.0, id="zeta"),
        pytest.param("n0", 0.0, id="n0"),
        pytest.param("p0plus_values", (0.01, -0.1), id="p0plus_values"),
        pytest.param("grid_n", 8, id="grid_n"),
        pytest.param("theta_tol", 0.0, id="theta_tol"),
        pytest.param("max_outer", 0, id="max_outer"),
        pytest.param("ode_substeps", 0, id="ode_substeps"),
        pytest.param("grid_n", 64.5, id="grid_n_fraction"),
        pytest.param("max_outer", 3.5, id="max_outer_fraction"),
        pytest.param("ode_substeps", 2.5, id="ode_substeps_fraction"),
        pytest.param("k_values", (0.0, math.inf), id="k_values_inf"),
        pytest.param("k_values", (-math.inf,), id="k_values_minus_inf"),
        pytest.param("k_values", (math.nan,), id="k_values_nan"),
        pytest.param("init_policies", ("linear", "cubic"), id="init_policies"),
        pytest.param("horizon", 50.0, id="horizon_within_burn_in"),
        pytest.param("horizon", math.inf, id="horizon_inf"),
        pytest.param("burn_in", -1.0, id="burn_in"),
        pytest.param("replications", 0, id="replications"),
        pytest.param("seed", -1, id="seed"),
        pytest.param("divergence_tol", -1.0, id="divergence_tol"),
        pytest.param("divergence_tol", math.nan, id="divergence_tol_nan"),
        pytest.param("policy_level", -2.0, id="policy_level"),
        pytest.param("workers", 0, id="workers"),
        pytest.param("workers", WORKERS_CAP + 1, id="workers_above_cap"),
        pytest.param("capacities", (1.0, 0.0), id="capacities_zero"),
        pytest.param("capacities", (-1.0,), id="capacities_negative"),
    ])
    def test_validation_catches_bad_fields(self, key, value):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**{key: value}).validate()
        assert err.value.field == key
        assert str(err.value).startswith(f"invalid value for {key}:")

    def test_empty_lists_still_check_shared_fields(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(p0plus_values=(), grid_n=8).validate()
        assert err.value.field == "grid_n"
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(capacities=(), lam=-1.0).validate()
        assert err.value.field == "lam"

    def test_presets_exist(self):
        for name in ("table1", "table2", "fig1", "fig2", "fig3"):
            assert name in PRESETS


class TestBoundCommand:
    def test_reference_table(self, tmp_path, capsys):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 0.5, 1, 2, 3, inf\n",
                       encoding="utf-8")
        assert run(["bound", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].split(",") == list(cli.SUMMARY_COLUMNS)
        bounds = [round(float(line.split(",")[4]), 4) for line in out[1:]]
        assert bounds[:4] == [0.4187, 0.5895, 0.7243, 0.7681]
        assert round(bounds[4], 3) == 0.792

    def test_empty_sweep(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run([])
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("schema_version = 1\ncapacities =\n", encoding="utf-8")
        assert run(["bound", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [",".join(cli.SUMMARY_COLUMNS)]  # header only

    def test_missing_config_file(self, capsys):
        assert run(["bound", "--config", "/nonexistent/xyz.cfg"]) == 1
        assert "error[E_IO]" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 1\n", encoding="utf-8")
        assert run(["bound", "--config", str(cfg)]) == 2
        assert "error[E_CONFIG]" in capsys.readouterr().err


class TestSolveCommand:
    def test_writes_summary_and_artifacts(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 1.0\nk_values = 0\n"
                       "p0plus_values = 0.01\ngrid_n = 128\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "summary.csv")
        assert rows[0] == list(cli.SUMMARY_COLUMNS)
        assert len(rows) == 2
        utility = float(rows[1][3])
        assert utility == pytest.approx(0.4217, abs=0.02)
        cell = out / "L1_K0_p00.01"
        assert (cell / "policy_node0.csv").exists()
        assert (cell / "measure_node0.csv").exists()
        assert "termination" in (cell / "report.txt").read_text(encoding="utf-8")

    def test_later_failing_cell_keeps_the_cells_before_it(self, tmp_path, capsys,
                                                          monkeypatch):
        # each cell is written as it finishes; the summary only at the end
        solve_cell = cli._solve_cell

        def second_fails(args):
            if args[1] == 2.0:
                _failing_cell(args)
            return solve_cell(args)

        monkeypatch.setattr(cli, "_solve_cell", second_fails)
        cfg = tmp_path / "s.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 1.0, 2.0\nk_values = 0\n"
                       "p0plus_values = 0.01\ngrid_n = 64\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error[")
        assert sorted(p.name for p in out.iterdir()) == ["L1_K0_p00.01"]

    def test_empty_best_k_interval_rejected_at_load(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 1.0\nk_values = 0\n"
                       "grid_n = 64\nbest_k = true\nk_min = 0\nk_max = -1\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error[E_CONFIG]" in err and "k_max" in err
        assert not out.exists()

    def test_requires_out_dir(self, capsys):
        assert run(["solve"]) == 2
        assert "error[E_USAGE]" in capsys.readouterr().err

    def test_unbounded_capacity_rejected_before_out(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 1, inf\nk_values = 0\n"
                       "grid_n = 64\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_USAGE]") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("empty", ["p0plus_values", "init_policies"])
    def test_empty_best_k_list_rejected_before_out(self, tmp_path, capsys, empty):
        # the best-K scan reads the first p(0+) and initializer
        cfg = tmp_path / "s.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 1.0\nk_values = 0\n"
                       f"grid_n = 64\nbest_k = true\n{empty} =\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and empty in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_single_node_grid(self, tmp_path):
        # one transmitter: the update collapses to the standalone level ODE
        cfg = tmp_path / "p2p.cfg"
        cfg.write_text("schema_version = 1\nnode_count = 1\ncapacities = 3.0\n"
                       "k_values = 0\np0plus_values = 0.01\ngrid_n = 128\n",
                       encoding="utf-8")
        out = tmp_path / "p2p"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        import ehmac as eh
        pol = eh.measures.load_policy(out / "L3_K0_p00.01" / "policy_node0.csv")
        direct = eh.el_ode_solve(
            eh.ExactRateMoments(eh.RateFunction(1.0)),
            eh.HarvestParams(1.0, 1.0, 3.0),
            eh.SolverConfig(k_const=0.0, p0plus=0.01, grid_n=128))
        assert np.allclose(pol.values, direct.values)

    def test_fig1_history_files(self, tmp_path):
        out = tmp_path / "fig"
        code = run(["solve", "--preset", "fig1", "--out", str(out)])
        assert code == 0
        cell = out / "L3_K0_p00.1"
        iters = sorted(cell.glob("policy_iter*.csv"))
        assert len(iters) >= 3  # initializer plus the iterates
        # qualitative shapes behind the figure data: rapidly increasing
        # policy, density decaying away from the empty end
        policy = np.loadtxt(cell / "policy_node0.csv")
        assert np.all(np.diff(policy[1:, 1]) > 0.0)
        assert policy[-1, 1] > 100.0 * policy[1, 1]
        measure = np.loadtxt(cell / "measure_node0.csv")
        peak = np.argmax(measure[:, 1])
        assert peak < measure.shape[0] // 4
        assert measure[-1, 1] < 1e-3 * measure[peak, 1]

    def test_workers_match_serial(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 0.5, 1.0\nk_values = 0\n"
                       "p0plus_values = 0.01, 0.1\ngrid_n = 128\nkeep_history = true\n"
                       "best_k = true\nk_min = -0.2\nk_max = 0.0\nk_step = 0.1\n"
                       "k_coarse = 0.1\n", encoding="utf-8")
        out1 = tmp_path / "serial"
        out2 = tmp_path / "parallel"
        assert run(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run(["solve", "--config", str(cfg), "--out", str(out2),
                    "--workers", "2"]) == 0
        files = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(out2) for p in out2.rglob("*")
                               if p.is_file())
        assert len(files) > 10
        for rel in files:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    @pytest.mark.parametrize("best_k, sizes", [
        ("false", []),  # one cell runs in this process
        ("true", [2]),  # the cell and its capacity's best-K scan
    ])
    def test_pool_counts_cells_and_scans(self, tmp_path, pool_sizes, best_k, sizes):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 0.5\nk_values = 0\n"
                       f"grid_n = 64\nbest_k = {best_k}\nk_min = -0.2\nk_max = 0.0\n"
                       "k_step = 0.1\nk_coarse = 0.1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out", str(out),
                    "--workers", "8"]) == 0
        assert pool_sizes == sizes
        assert (out / "ksearch_L0.5.csv").exists() == (best_k == "true")

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers must inherit the patched jobs")
    def test_failing_cell_drops_queued_scans(self, tmp_path, monkeypatch):
        # The pool's workers are forked from this process, so they run the
        # patched jobs.  Every cell fails; the scans that had not started when
        # the first failure reached the caller must not run.
        monkeypatch.setattr(cli, "_solve_cell", _failing_cell)
        monkeypatch.setattr(cli, "_best_k_scan", partial(_slow_scan, tmp_path))
        caps = [0.5 + 0.1 * i for i in range(12)]
        cfg = tmp_path / "w.cfg"
        cfg.write_text("schema_version = 1\ncapacities = "
                       + ", ".join(f"{c:g}" for c in caps)
                       + "\nk_values = 0\nbest_k = true\n",
                       encoding="utf-8")
        assert run(["solve", "--config", str(cfg), "--out", str(tmp_path / "out"),
                    "--workers", "2"]) == 1
        assert len(list(tmp_path.glob("scan_*"))) < len(caps) // 2


CELL_CFG = ("schema_version = 1\ncapacities = 2.0\ngrid_n = 64\nk_values = 0.0\n"
            "best_k = false\n")


@pytest.mark.parametrize("command", ["sweep", "solve"])
def test_zero_arrival_rate_leaves_the_ratio_empty(tmp_path, monkeypatch, command):
    # the ceiling r(0) is 0: the ratio cell stays empty, as in a bound row
    monkeypatch.setenv("EHMAC_LAM", "0")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CELL_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 2 and rows[1][3:] == ["0.000000", "0.000000", ""]


@pytest.mark.parametrize("command", ["bound", "sweep", "solve"])
def test_power_over_a_tiny_noise_level_writes_nothing(tmp_path, capsys, monkeypatch,
                                                      command):
    # every power over n0 = 1e-320 overflows: bound printed inf ceilings,
    # sweep blamed a finite total power, and solve left an empty --out
    monkeypatch.setenv("EHMAC_N0", "1e-320")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CELL_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[E_OVERFLOW]") and len(err.splitlines()) == 1
    assert "n0 = 1e-320" in err
    assert not out.exists()


def test_runtime_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: importing the package and solving
    # one cell must not load it
    cfg = tmp_path / "one.cfg"
    cfg.write_text("schema_version = 1\ncapacities = 1.0\nk_values = 0\ngrid_n = 64\n",
                   encoding="utf-8")
    script = ("import sys, ehmac.cli\n"
              f"code = ehmac.cli.main(['solve', '--config', {str(cfg)!r},"
              f" '--out', {str(tmp_path / 'out')!r}])\n"
              "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    src = str(Path(ehmac.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 []", done.stderr
    assert (tmp_path / "out" / "summary.csv").exists()


@pytest.mark.parametrize("command, name, config", [
    ("bound", "bounds.csv", "capacities = 0.5, 1, 2, 3, inf\n"),
    ("sweep", "summary.csv", "capacities = 1.0\nk_values = 0\np0plus_values = 0.01\n"
                             "grid_n = 64\n"),
])
def test_stdout_matches_out_file(tmp_path, command, name, config):
    # without --out, bound and sweep print the bytes they write to --out
    cfg = tmp_path / "c.cfg"
    cfg.write_text("schema_version = 1\n" + config, encoding="utf-8")
    src = str(Path(ehmac.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "ehmac.cli", command, "--config", str(cfg)]
    env = {**os.environ, "PYTHONPATH": src}
    printed = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    written = subprocess.run(argv + ["--out", str(tmp_path / "out")], capture_output=True,
                             env=env, timeout=120)
    assert printed.returncode == written.returncode == 0, printed.stderr + written.stderr
    assert written.stdout == b""
    assert printed.stdout.count(b"\n") > 1
    assert printed.stdout == (tmp_path / "out" / name).read_bytes()


class TestFig3Preset:
    def test_three_initializer_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EHMAC_GRID_N", "128")
        monkeypatch.setenv("EHMAC_THETA_TOL", "0.05")
        out = tmp_path / "fig3"
        assert run(["solve", "--preset", "fig3", "--out", str(out)]) == 0
        cells = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert cells == ["L3_K0_p00.1", "L3_K0_p00.1_constant", "L3_K0_p00.1_sqrt"]


class TestLoadErrors:
    @pytest.mark.parametrize("command", ["bound", "solve", "sweep", "simulate"])
    def test_bad_typed_field_exits_at_load(self, tmp_path, capsys, monkeypatch,
                                           command):
        monkeypatch.setenv("EHMAC_GRID_N", "8")
        out = tmp_path / "out"
        assert run([command, "--preset", "fig1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and len(err.splitlines()) == 1
        assert "grid_n" in err
        assert not out.exists()

    def test_non_finite_k_exits_at_load(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EHMAC_K_VALUES", "inf")
        out = tmp_path / "out"
        assert run(["solve", "--preset", "table2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and len(err.splitlines()) == 1
        assert "k_values" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("K_STEP", "inf"), ("K_STEP", "nan"),
                                            ("K_MIN", "-inf"), ("K_MAX", "inf"),
                                            ("K_COARSE", "nan"), ("K_COARSE", "-inf")])
    def test_non_finite_k_range_exits_at_load(self, tmp_path, capsys, monkeypatch,
                                              key, value):
        monkeypatch.setenv(f"EHMAC_{key}", value)
        out = tmp_path / "out"
        assert run(["solve", "--preset", "table2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and len(err.splitlines()) == 1
        assert key.lower() in err
        assert not out.exists()

    @pytest.mark.parametrize("key, command", [
        ("ZETA", ["bound", "--preset", "table1"]),
        ("LAM", ["simulate", "--preset", "fig1"]),
        ("N0", ["bound", "--preset", "table1"]),
    ])
    def test_infinite_harvest_or_noise_exits_at_load(self, tmp_path, capsys, monkeypatch,
                                                    key, command):
        # an infinite zeta printed 0.0 ceilings, and an infinite lam overflowed
        # in the arrival sampler
        monkeypatch.setenv(f"EHMAC_{key}", "inf")
        out = tmp_path / "out"
        assert run(command + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and len(err.splitlines()) == 1
        assert key.lower() in err
        assert not out.exists()

    def test_infinite_start_rate_exits_at_load(self, tmp_path, capsys, monkeypatch):
        # an infinite p(0+) once started the solve and failed with E_DOMAIN
        monkeypatch.setenv("EHMAC_P0PLUS_VALUES", "inf")
        out = tmp_path / "out"
        assert run(["solve", "--preset", "table1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and len(err.splitlines()) == 1
        assert "p0plus_values" in err
        assert not out.exists()

    def test_long_k_scan_exits_at_load(self, tmp_path, capsys, monkeypatch):
        # 2e13 planned solves; rejected by the load, before --out or any scan
        monkeypatch.setattr(cli, "best_k_search", _no_scan)
        cfg = tmp_path / "s.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 1.0\nk_values = 0\n"
                       "grid_n = 64\nbest_k = true\nk_min = -1e12\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and len(err.splitlines()) == 1
        assert "k_step" in err and "cap" in err
        assert not out.exists()
        with pytest.raises(ConfigError, match="k_step"):
            ExperimentConfig(k_min=-1e12).validate()

    def test_infinite_burn_in_names_burn_in(self, tmp_path, capsys, monkeypatch):
        # the simulator settings blamed the horizon for an infinite burn-in
        monkeypatch.setenv("EHMAC_BURN_IN", "inf")
        out = tmp_path / "out"
        assert run(["bound", "--preset", "table1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and len(err.splitlines()) == 1
        assert "burn_in" in err and "horizon" not in err
        assert not out.exists()

    def test_env_override_names_the_key(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EHMAC_THETA_TOL", "-1")
        out = tmp_path / "out"
        assert run(["sweep", "--preset", "fig1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and len(err.splitlines()) == 1
        assert "theta_tol" in err
        assert not out.exists()


class TestSweepCommand:
    def test_stdout_rows_in_grid_order(self, tmp_path, capsys):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 0.5, 1.0\nk_values = 0\n"
                       "p0plus_values = 0.01\ngrid_n = 128\n", encoding="utf-8")
        assert run(["sweep", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[0] for line in out[1:]] == ["0.5", "1.0"]

    def test_workers_match_serial(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 0.5, 1.0\nk_values = 0\n"
                       "p0plus_values = 0.01, 0.1\ngrid_n = 128\n", encoding="utf-8")
        out1 = tmp_path / "serial"
        out2 = tmp_path / "parallel"
        assert run(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run(["sweep", "--config", str(cfg), "--out", str(out2),
                    "--workers", "2"]) == 0
        assert read_csv(out1 / "summary.csv") == read_csv(out2 / "summary.csv")

    @pytest.mark.parametrize("caps, workers, sizes", [
        ("2.0", 8, []),  # one job runs in this process
        ("0.5, 1.0, 2.0", 8, [3]),  # never more processes than jobs
        ("0.5, 1.0, 2.0", 2, [2]),
    ])
    def test_pool_never_outnumbers_the_jobs(self, tmp_path, pool_sizes, caps, workers,
                                            sizes):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"schema_version = 1\ncapacities = {caps}\ngrid_n = 64\n"
                       "k_values = 0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["sweep", "--config", str(cfg), "--out", str(out),
                    "--workers", str(workers)]) == 0
        assert pool_sizes == sizes
        assert len(read_csv(out / "summary.csv")) == 1 + caps.count(",") + 1

    def test_workers_above_the_cap_exit_at_load(self, tmp_path, capsys, monkeypatch,
                                               pool_sizes):
        # a pool forks all its processes at the first job, so a huge count is
        # refused before any job starts
        monkeypatch.setenv("EHMAC_WORKERS", str(WORKERS_CAP + 1))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(CELL_CFG, encoding="utf-8")
        out = tmp_path / "out"
        assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and len(err.splitlines()) == 1
        assert f"above the cap of {WORKERS_CAP}" in err
        assert pool_sizes == [] and not out.exists()


class TestSimulateCommand:
    def test_constant_policy_run(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("schema_version = 1\ncapacities = inf\nnode_count = 1\n"
                       "policy_level = 2.0\nhorizon = 4000\nreplications = 2\n"
                       "burn_in = 20\nlevel_probes = 1.0\n", encoding="utf-8")
        out = tmp_path / "simout"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "stats.txt").read_text(encoding="utf-8")
        assert "atom" in text
        assert (out / "crossing_balance.csv").exists()
        assert (out / "cdf_node0.csv").exists()

    def test_stats_json_matches_returned_stats(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("schema_version = 1\ncapacities = 2.0\nnode_count = 2\n"
                        "policy_level = 1.5\nhorizon = 2000\nreplications = 2\n",
                        encoding="utf-8")
        out = tmp_path / "simout"
        stats = cli.cmd_simulate(load_config(path, env={}), out)
        record = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert set(record) == {"window", "replications", "throughput", "throughput_se",
                               "nodes", "window_arrivals", "merged_intervals",
                               "sampled_intervals"}
        assert (record["window"], record["replications"]) == (stats.window, 2)
        assert (record["throughput"], record["throughput_se"]) == (stats.throughput,
                                                                    stats.throughput_se)
        assert len(record["nodes"]) == 2
        for k, node in enumerate(record["nodes"]):
            assert set(node) == {"atom", "atom_se", "mean_power", "mean_power_se",
                                 "power_variance", "power_variance_se", "overflow_rate",
                                 "overflow_rate_se"}
            for name, value in node.items():
                assert value == getattr(stats, name)[k], name
        assert record["window_arrivals"] == stats.window_arrivals.tolist()
        assert min(record["window_arrivals"]) > 0
        assert record["merged_intervals"] == stats.merged_intervals
        assert 0 < record["sampled_intervals"] == stats.sampled_intervals

    def test_policy_file_round_trip(self, tmp_path):
        # solve writes a policy; simulate consumes it
        scfg = tmp_path / "s.cfg"
        scfg.write_text("schema_version = 1\ncapacities = 1.0\nk_values = 0\n"
                        "p0plus_values = 0.01\ngrid_n = 128\n", encoding="utf-8")
        out = tmp_path / "solved"
        assert run(["solve", "--config", str(scfg), "--out", str(out)]) == 0
        pol_file = out / "L1_K0_p00.01" / "policy_node0.csv"
        simcfg = tmp_path / "sim.cfg"
        simcfg.write_text("schema_version = 1\ncapacities = 1.0\nnode_count = 2\n"
                          f"policy_file = {pol_file}\nhorizon = 2000\n"
                          "replications = 2\nburn_in = 20\n", encoding="utf-8")
        simout = tmp_path / "simout"
        assert run(["simulate", "--config", str(simcfg), "--out", str(simout)]) == 0

    def test_missing_policy_file(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 1.0\n"
                       "policy_file = /missing/pol.csv\nhorizon = 100\n"
                       "burn_in = 10\n", encoding="utf-8")
        assert run(["simulate", "--config", str(cfg), "--out",
                    str(tmp_path / "o")]) == 1
        assert "error[E_IO]" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"# p0plus = abc\n0 1\n1 1\n", b"# p0plus = 0.5\n0 1\n1 x\n",
        b"# p0plus = 0.5\n0 1\n1 1 1\n", b"# p0plus = 0.5\n0 1\n\xff\xfe 1\n",
    ], ids=["header", "row", "ragged_row", "not_utf8"])
    def test_unreadable_policy_file_writes_nothing(self, tmp_path, capsys, content):
        pol = tmp_path / "pol.csv"
        pol.write_bytes(content)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 2.0\nnode_count = 2\n"
                       f"policy_file = {pol}\nhorizon = 200\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[E_DOMAIN]") and len(err.splitlines()) == 1
        assert str(pol) in err
        assert not out.exists()

    def test_unresolvable_tail_writes_nothing(self, tmp_path, capsys):
        # a top rate 1e-6 above the mean input rate: the analytic law would
        # need about 1e9 cells, and it fails after the simulation ran
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("schema_version = 1\ncapacities = inf\nnode_count = 1\n"
                       "policy_level = 1.000001\nhorizon = 200\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[E_OVERFLOW]") and len(err.splitlines()) == 1
        assert "cells" in err
        assert not out.exists()

    def test_nonstationary_policy_writes_nothing(self, tmp_path, capsys):
        # a release rate of 0.5 against a mean input rate of 1: the battery
        # grows without bound, so there is no law to compare with
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("schema_version = 1\ncapacities = inf\nnode_count = 1\n"
                       "policy_level = 0.5\nhorizon = 2000\nburn_in = 10\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[E_DOMAIN]") and "no stationary law" in err
        assert not out.exists()

    @pytest.mark.parametrize("lines", [
        "node_count = 2\npolicy_level = 1e200\n",  # the rate's square overflows
        "policy_level = 1e-320\n",  # its drain time to empty overflows
        "lam = 1e300\npolicy_level = 1.5\n",  # more arrivals than a sample may plan
    ], ids=["huge_rate", "tiny_rate", "huge_arrival_rate"])
    def test_out_of_range_run_writes_nothing(self, tmp_path, capsys, lines):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 2.0\nhorizon = 200\n" + lines,
                       encoding="utf-8")
        out = tmp_path / "o"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[E_DOMAIN]") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_infinite_horizon_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("schema_version = 1\ncapacities = inf\nnode_count = 1\n"
                       "policy_level = 2.0\nhorizon = inf\nburn_in = 10\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error[E_CONFIG]" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("schema_version = 1\ncapacities = inf\nnode_count = 1\n"
                       "policy_level = 2.0\nhorizon = 100\nburn_in = 10\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        assert run(["simulate", "--config", str(cfg), "--out", str(out),
                    "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_run_settings_rejected_at_load(self, tmp_path, capsys):
        # no policy_file and no policy_level: a policy would be solved first
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 1.0\nk_values = 0\n"
                       "grid_n = 64\nhorizon = inf\nburn_in = 10\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error[E_CONFIG]" in capsys.readouterr().err
        assert not (out / "policy_solved.csv").exists()
        assert not out.exists()

    @pytest.mark.parametrize("line, code", [
        ("capacities = inf", "E_USAGE"),
        ("k_values =", "E_CONFIG"),
        ("p0plus_values =", "E_CONFIG"),
        ("init_policies =", "E_CONFIG"),
    ])
    def test_unsolvable_policy_rejected_before_out(self, tmp_path, capsys, line, code):
        # no policy_file and no policy_level: the first cell would be solved
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("schema_version = 1\ncapacities = 1.0\ngrid_n = 64\n"
                       f"horizon = 200\nburn_in = 10\n{line}\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[{code}]") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_seed_override_changes_draws(self, tmp_path):
        base = ("schema_version = 1\ncapacities = inf\nnode_count = 1\n"
                "policy_level = 2.0\nhorizon = 1000\nreplications = 1\n"
                "burn_in = 10\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(base, encoding="utf-8")
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"o{seed}"
            assert run(["simulate", "--config", str(cfg), "--out", str(out),
                        "--seed", seed]) == 0
            outs.append((out / "stats.txt").read_text(encoding="utf-8"))
        assert outs[0] != outs[1]
