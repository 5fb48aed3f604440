"""CLI tests: config plumbing, sweep mechanics, CSV format, slope estimators."""

import csv
import io
import itertools
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import ivporacle
from ivporacle import (
    MODES,
    ContractViolationError,
    DivergenceError,
    ExperimentConfig,
    SolveConfig,
    StationaryStartError,
    SweepRow,
    catalog,
    estimate_cost_exponent,
    estimate_order,
    rows_to_csv,
    run_sweep,
    solve,
    sup_error,
)
from ivporacle import cli
from ivporacle.cli import CSV_COLUMNS, SETTINGS, ConfigError, _build_parser, _config_from_args, main


def make_row(n, sup_error, mode="det_values", classical=0, queries=0, seed=0):
    return SweepRow(problem="scalar-exponential", mode=mode, r=0, rho=1.0, n=n,
                    h=1.0 / n, seed=seed, sup_error=sup_error,
                    classical_evals=classical, oracle_queries=queries,
                    repetitions=0, wall_time=0.0)


def per_cell_sweep(config):
    """The sweep as one solve and audit per ``(problem, mode, r, rho, n, seed)``
    cell, seeds included: the oracle of ``run_sweep``'s reuse of unboosted cells."""
    rows = []
    for name, mode, r, rho, n, seed in itertools.product(
            config.problems, config.modes, config.r_values, config.rho_values, config.n_values, config.seeds):
        problem = catalog(name, r=r, rho=rho, eta=config.eta, interval=config.interval)
        a, b = problem.interval
        flag, err = "", math.nan
        try:
            traj = solve(problem, SolveConfig(n=n, mode=mode, delta=config.delta, seed=seed,
                                              cost_constant=config.cost_constant, c=config.c))
            ledger = traj.ledger
            err = sup_error(traj, problem.reference, config.samples_per_step)
        except (DivergenceError, StationaryStartError) as exc:
            flag = f"divergence:step={exc.step}" if isinstance(exc, DivergenceError) else "stationary-start"
            ledger = exc.ledger
        rows.append(SweepRow(problem=name, mode=mode, r=r, rho=rho, n=n, h=(b - a) / n, seed=seed,
                             sup_error=err, classical_evals=ledger.classical_evals,
                             oracle_queries=ledger.oracle_queries, repetitions=ledger.repetitions,
                             wall_time=0.0, error=flag))
    return rows


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.modes == ("det_exact",)
        assert cfg.out == "-"

    @pytest.mark.parametrize("kwargs", [
        dict(modes=("simpson",)),
        dict(n_values=()),
        dict(n_values=(0,)),
        dict(delta=0.5),
        dict(samples_per_step=1),
        dict(problems=()),
        dict(seeds=()),
        dict(modes=()),
        dict(r_values=()),
        dict(rho_values=()),
        dict(seeds=(0, -1)),
        dict(delta="0.1"),
        dict(n_values=("8",)),
        dict(n_values=(2.5,)),
        dict(samples_per_step="8"),
        dict(samples_per_step=2.5),
        dict(cost_constant=math.nan),
        dict(cost_constant="4"),
        dict(c=-1.0),
        dict(timing="false"),
        dict(timing=1),
        dict(problems=("lorenz",)),
        dict(problems=("logistic:cos-pi",)),
        dict(r_values=(2.5,)),
        dict(r_values=(4,)),
        dict(rho_values=("1",)),
        dict(rho_values=(0.0,)),
        dict(eta="x"),
        dict(eta=math.nan),
        dict(interval=(1.0,)),
        dict(interval=(1.0, 0.0)),
        dict(n_values=np.array([8, 16])),  # its truth value is ambiguous
        dict(problems="logistic"),  # not split into characters
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_a_string_is_not_a_list_setting(self):
        with pytest.raises(ConfigError, match="problems must be a non-empty tuple or list, got 'logistic'"):
            ExperimentConfig(problems="logistic")


class TestRunSweep:
    def test_cartesian_row_count(self):
        cfg = ExperimentConfig(n_values=(8, 16), seeds=(0, 1))
        rows = run_sweep(cfg)
        assert len(rows) == 4
        assert [(row.n, row.seed) for row in rows] == [(8, 0), (8, 1), (16, 0), (16, 1)]

    def test_deterministic_mode_ignores_seed(self):
        cfg = ExperimentConfig(n_values=(8,), seeds=(3, 17))
        rows = run_sweep(cfg)
        assert rows[0].sup_error == rows[1].sup_error

    def test_ledger_columns_filled(self):
        cfg = ExperimentConfig(modes=("randomized",), n_values=(8,))
        row = run_sweep(cfg)[0]
        assert row.classical_evals > 0
        assert row.oracle_queries > 0
        assert row.repetitions > 0
        assert math.isfinite(row.sup_error)

    def test_divergence_becomes_flagged_row(self):
        cfg = ExperimentConfig(problems=("scalar-quadratic",), r_values=(1,),
                               n_values=(64,), seeds=(0, 1, 2), interval=(0.0, 2.0))
        rows = run_sweep(cfg)
        assert [row.seed for row in rows] == [0, 1, 2]
        for row in rows:  # solved once, flagged at every seed
            assert row.error == "divergence:step=33"
            assert math.isnan(row.sup_error)
            # charged up to the diverging step: 34 steps of one f value, one f'
            # and one det_exact functional
            assert (row.classical_evals, row.oracle_queries, row.repetitions) == (68, 34, 0)

    def test_unboosted_cells_solved_once_with_per_cell_bytes(self, monkeypatch):
        """32 cells x 3 seeds: the 16 unboosted cells are solved once, the 16
        boosted ones at each seed, and the CSV equals the per-cell loop's."""
        cfg = ExperimentConfig(problems=("logistic", "integration-reduction"), modes=MODES,
                               r_values=(0, 1), n_values=(8, 16), seeds=(0, 1, 2))
        want = rows_to_csv(per_cell_sweep(cfg))
        calls = []
        monkeypatch.setattr(cli, "solve", lambda problem, scfg: calls.append(scfg) or solve(problem, scfg))
        rows = run_sweep(cfg)
        assert len(rows) == 96 and len(calls) == 64
        assert rows_to_csv(rows) == want

    def test_stationary_start_becomes_flagged_row(self):
        # logistic f(1) = 0; scalar-exponential f(1) = 1 still runs
        cfg = ExperimentConfig(problems=("logistic", "scalar-exponential"), modes=("randomized",),
                               n_values=(8,), eta=1.0)
        flagged, ok = run_sweep(cfg)
        assert flagged.error == "stationary-start"
        assert math.isnan(flagged.sup_error)
        # step 0's f value, which the check reads, is all that was charged
        assert (flagged.classical_evals, flagged.oracle_queries, flagged.repetitions) == (1, 0, 0)
        assert ok.problem == "scalar-exponential" and ok.error == ""
        assert math.isfinite(ok.sup_error)

    def test_wall_time_zero_without_timing(self):
        rows = run_sweep(ExperimentConfig(n_values=(8,)))
        assert rows[0].wall_time == 0.0

    def test_wall_time_recorded_with_timing(self):
        rows = run_sweep(ExperimentConfig(n_values=(8,), seeds=(0, 1, 2), timing=True))
        assert rows[0].wall_time > 0.0
        # the det_exact cell is solved once: its rows share that solve's time
        assert [(row.seed, row.wall_time) for row in rows] == [(seed, rows[0].wall_time) for seed in (0, 1, 2)]


class TestCsv:
    def test_header_matches_row_fields(self):
        text = rows_to_csv([])
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        assert text.splitlines()[0] == ("problem,mode,r,rho,n,h,seed,sup_error,"
                                        "classical_evals,oracle_queries,repetitions,"
                                        "wall_time,error")

    def test_float_cells_use_repr(self):
        row = make_row(3, sup_error=0.1)
        line = rows_to_csv([row]).splitlines()[1]
        assert "0.3333333333333333" in line  # h = 1/3 to full precision
        assert line.endswith(",0.0,")

    def test_byte_identical_reruns(self):
        cfg = ExperimentConfig(modes=("quantum_sim",), n_values=(8, 16), seeds=(0, 1))
        assert rows_to_csv(run_sweep(cfg)) == rows_to_csv(run_sweep(cfg))

    def test_numpy_scalar_settings_write_numbers(self):
        """Each cell is written as ``str`` writes it, so a sweep of numpy
        scalars writes the bytes of the same sweep of Python scalars."""
        modes = ("det_exact", "randomized")
        numpy_cfg = ExperimentConfig(modes=modes, n_values=tuple(np.array([8, 16])),
                                     rho_values=(np.float64(1.0),), delta=np.float64(0.1),
                                     seeds=(np.uint64(0),))
        python_cfg = ExperimentConfig(modes=modes, n_values=(8, 16), rho_values=(1.0,), delta=0.1, seeds=(0,))
        text = rows_to_csv(run_sweep(numpy_cfg))
        assert text == rows_to_csv(run_sweep(python_cfg))
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [(float(row["h"]), float(row["rho"])) for row in rows] == [(0.125, 1.0), (0.0625, 1.0)] * 2


class TestEstimateOrder:
    def test_exact_square_law(self):
        rows = [make_row(n, (1.0 / n) ** 2) for n in (8, 16, 32, 64)]
        assert estimate_order(rows) == pytest.approx(2.0, abs=1e-12)

    def test_intercept_absorbed(self):
        rows = [make_row(n, 5.0 * (1.0 / n) ** 3) for n in (8, 16, 32)]
        assert estimate_order(rows) == pytest.approx(3.0, abs=1e-12)

    def test_median_over_seeds(self):
        # one wild seed per n must not move the estimate
        rows = []
        for n in (8, 16, 32):
            rows += [make_row(n, (1.0 / n) ** 2, seed=s) for s in range(4)]
            rows += [make_row(n, 1e3, seed=99)]
        assert estimate_order(rows) == pytest.approx(2.0, abs=1e-12)

    def test_needs_three_grid_sizes(self):
        rows = [make_row(n, 1.0 / n) for n in (8, 16)]
        with pytest.raises(ContractViolationError):
            estimate_order(rows)

    def test_real_third_order_sweep(self):
        cfg = ExperimentConfig(r_values=(1,), n_values=(8, 16, 32, 64, 128))
        slope = estimate_order(run_sweep(cfg))
        assert 2.7 <= slope <= 3.5


class TestEstimateCostExponent:
    def test_exact_power_law_unboosted(self):
        rows = [make_row(n, 0.1, classical=int(n ** 1.5)) for n in (4, 16, 64, 256)]
        assert estimate_cost_exponent(rows) == pytest.approx(1.5, abs=1e-12)

    def test_boosted_log_factor_divided_out(self):
        rows = [make_row(n, 0.1, mode="randomized",
                         classical=int(n ** 2) * int(math.log2(n) + 2))
                for n in (4, 16, 64)]
        assert estimate_cost_exponent(rows, delta=0.25) == pytest.approx(2.0, abs=1e-12)

    def test_needs_rows_and_grid(self):
        with pytest.raises(ContractViolationError):
            estimate_cost_exponent([])
        with pytest.raises(ContractViolationError):
            estimate_cost_exponent([make_row(8, 0.1, classical=10)])

    @pytest.mark.parametrize("delta", [0.0, 0.5, -0.1, math.nan, "0.1", True])
    def test_delta_domain(self, delta):
        rows = [make_row(n, 0.1, mode="randomized", classical=n) for n in (4, 16, 64)]
        with pytest.raises(ContractViolationError):
            estimate_cost_exponent(rows, delta=delta)


CONFIG_TEXT = """\
[experiment]
problems = scalar-exponential
modes = det_exact, det_values
r = 0
rho = 1.0
n = 8, 16
delta = 0.2
seeds = 0
samples_per_step = 4
timing = false

[problem]
eta = 2.0
interval = 0.0, 1.0
"""


def _python(*args):
    """A fresh interpreter, warnings as errors, importing this package."""
    src = os.path.dirname(os.path.dirname(ivporacle.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error", *args], capture_output=True, text=True, env=env, timeout=60)


class TestMain:
    def test_module_entry_point_runs_without_warnings(self):
        proc = _python("-m", "ivporacle", "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.startswith("usage: ivporacle")

    def test_package_import_leaves_the_sweep_driver_until_used(self):
        script = "\n".join([
            "import sys, ivporacle",
            "assert 'ivporacle.cli' not in sys.modules",
            "from ivporacle import errors, problem, quad, solver, taylor",
            "modules = (errors, problem, taylor, quad, solver)",
            "public = {name for module in modules for name in module.__all__}",
            "assert set(ivporacle.__all__) == public | set(ivporacle._CLI_NAMES) | {'__version__'}",
            "assert len(ivporacle.__all__) == len(set(ivporacle.__all__))",
            "assert not hasattr(ivporacle, 'quantum_reference')",
            "names = dir(ivporacle)",
            "assert all(getattr(ivporacle, name) is not None and name in names for name in ivporacle.__all__)",
            "assert 'ivporacle.cli' in sys.modules and ivporacle.cli is sys.modules['ivporacle.cli']",
            "assert set(ivporacle._CLI_NAMES) == set(ivporacle.cli.__all__) - {'main'}",
            "scope = {}",
            "exec('from ivporacle import *', scope)",
            "assert all(scope[name] is getattr(ivporacle, name) for name in ivporacle.__all__)",
            "assert scope['run_sweep'] is ivporacle.cli.run_sweep",
        ])
        proc = _python("-c", script)
        assert proc.returncode == 0, proc.stderr

    def test_config_file_drives_sweep(self, tmp_path, capsys):
        cfg_file = tmp_path / "sweep.ini"
        cfg_file.write_text(CONFIG_TEXT)
        assert main(["--config", str(cfg_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("problem,mode")
        assert len(lines) == 1 + 2 * 2  # two modes, two grid sizes

    def test_flags_override_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "sweep.ini"
        cfg_file.write_text(CONFIG_TEXT)
        assert main(["--config", str(cfg_file), "--mode", "det_exact", "--n-grid", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert ",det_exact," in lines[1]

    def test_output_file_and_reproducibility(self, tmp_path):
        args = ["--problem", "scalar-exponential", "--mode", "quantum_sim",
                "--n-grid", "8,16", "--seeds", "0,1"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("args", [
        ["--problem", "lorenz"],
        ["--mode", "simpson"],
        ["--delta", "0.9"],
        ["--config", "/nonexistent/sweep.ini"],
        ["--n-grid", "8,abc"],
        ["--r", "4"],
        ["--delta", "abc"],
        ["--samples-per-step", "many"],
        ["--problem", ""],
        ["--r", ""],
    ])
    def test_bad_input_exits_2(self, args, capsys):
        assert main(args + ["--n-grid", "8"] if args[0] != "--n-grid" else args) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_seed_exits_2_before_any_cell(self, monkeypatch, capsys):
        solves = []
        monkeypatch.setattr(ivporacle.cli, "solve", lambda *args: solves.append(args))
        assert main(["--seeds", "0,-1", "--n-grid", "8"]) == 2
        out = capsys.readouterr()
        assert solves == [] and out.out == ""
        assert "error: seed must be a non-negative 64-bit integer, got -1" in out.err

    @pytest.mark.parametrize("text", [
        "[experiment]\nproblems = logistic\nr = 1\nn = 8\n[problem]\ninterval = 0.0, 1e-160\n",
        "[experiment]\nr = 3\nn = 1\n[problem]\ninterval = 0.0, 1e100\n",
    ], ids=["residual-scale", "step-power"])
    def test_unusable_step_size_exits_2(self, text, tmp_path, capsys):
        """A step size whose power overflows is a DomainError: ``error:``,
        exit code 2 and no CSV, not an OverflowError's traceback."""
        cfg_file, out = tmp_path / "sweep.ini", tmp_path / "sweep.csv"
        cfg_file.write_text(text)
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: step size h = ") and "overflows" in captured.err

    @pytest.mark.parametrize("exc", [BrokenPipeError(32, "Broken pipe"), OSError(28, "No space left on device")])
    def test_failed_stdout_write_exits_2(self, exc, monkeypatch, capsys):
        def write(text):
            raise exc
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=write))
        assert main(["--n-grid", "8"]) == 2
        assert capsys.readouterr().err == f"error: {exc}\n"

    def test_stationary_start_does_not_abort(self, tmp_path, capsys):
        cfg_file = tmp_path / "sweep.ini"
        cfg_file.write_text("[experiment]\nproblems = logistic\nn = 8, 16\n[problem]\neta = 1\n")
        assert main(["--config", str(cfg_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert all(line.endswith(",stationary-start") for line in lines[1:])

    def test_order_report_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["--n-grid", "8,16,32,64", "--out", str(out), "--report", "order"]) == 0
        err = capsys.readouterr().err
        assert "order problem=scalar-exponential" in err
        slope = float(err.rsplit("slope=", 1)[1])
        assert 1.7 <= slope <= 2.5


# Every setting with the INI section and key and the flag it is documented
# under, a value from the file, and a different value from the flag
# (None for INI-only settings).
SETTING_CASES = {
    "problems": ("experiment", "problems", "logistic", ("logistic",),
                 ["--problem", "scalar-quadratic,logistic"], ("scalar-quadratic", "logistic")),
    "modes": ("experiment", "modes", "det_values", ("det_values",),
              ["--mode", "randomized,quantum_sim"], ("randomized", "quantum_sim")),
    "r_values": ("experiment", "r", "1, 2", (1, 2), ["--r", "3"], (3,)),
    "rho_values": ("experiment", "rho", "0.5", (0.5,), ["--rho", "0.25,1"], (0.25, 1.0)),
    "n_values": ("experiment", "n", "4, 8", (4, 8), ["--n-grid", "16"], (16,)),
    "delta": ("experiment", "delta", "0.2", 0.2, ["--delta", "0.05"], 0.05),
    "seeds": ("experiment", "seeds", "3, 4", (3, 4), ["--seeds", "5"], (5,)),
    "samples_per_step": ("experiment", "samples_per_step", "4", 4, ["--samples-per-step", "6"], 6),
    "out": ("experiment", "out", "a.csv", "a.csv", ["--out", "b.csv"], "b.csv"),
    "timing": ("experiment", "timing", "false", False, ["--timing"], True),
    "cost_constant": ("experiment", "cost_constant", "2.5", 2.5, None, None),
    "c": ("experiment", "c", "5.0", 5.0, None, None),
    "eta": ("problem", "eta", "0.3", 0.3, None, None),
    "interval": ("problem", "interval", "0.0, 2.0", (0.0, 2.0), None, None),
}
# Flags a setting's case needs to make a valid sweep: rho < 1 needs r >= 1.
SETTING_CONTEXT = {"rho_values": ["--r", "1"]}


@pytest.mark.parametrize("name,setting", SETTINGS, ids=[name for name, _ in SETTINGS])
def test_setting_from_file_and_flag(name, setting, tmp_path):
    section, key, text, value, flag_argv, flag_value = SETTING_CASES[name]
    assert (setting.section, setting.key) == (section, key)
    assert setting.flag == (flag_argv[0] if flag_argv else None)
    cfg_file = tmp_path / "one.ini"
    cfg_file.write_text(f"[{section}]\n{key} = {text}\n")
    context = SETTING_CONTEXT.get(name, [])
    from_file = _config_from_args(_build_parser().parse_args(["--config", str(cfg_file)] + context))
    assert getattr(from_file, name) == value
    if flag_argv:
        both = _config_from_args(_build_parser().parse_args(["--config", str(cfg_file)] + context + flag_argv))
        assert getattr(both, name) == flag_value
