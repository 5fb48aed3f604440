"""Experiment driver: parameter sweeps, CSV emission, slope estimation.

A sweep runs the solver over the cross product of problems, modes,
smoothness pairs, grid sizes and seeds, recording one CSV row per cell.
Rows are emitted in a fixed deterministic order and, with timing disabled
(the default), reruns of the same configuration produce byte-identical
output.  ``estimate_order`` and ``estimate_cost_exponent`` fit log-log
slopes to the recorded errors and costs; both aggregate over seeds by the
median so single outlier runs of the probabilistic modes cannot tilt the
fit.

Configuration comes from an INI file (section ``[experiment]``, optional
``[problem]`` overrides) with command-line flags taking precedence.  Both
are read through one spec: the :class:`Setting` in each
:class:`ExperimentConfig` field's metadata.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import io
import math
import sys
import time
from itertools import product
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    DivergenceError,
    DomainError,
    StationaryStartError,
    UnknownProblemError,
    check_count,
    check_real,
)
from .problem import catalog, catalog_names
from .solver import BOOSTED_MODES, MODES, SolveConfig, solve, sup_error

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "run_sweep",
    "rows_to_csv",
    "estimate_order",
    "estimate_cost_exponent",
    "main",
]


class ConfigError(ValueError):
    """Malformed experiment configuration or config file."""


def _list_of(convert):
    def parse(text: str) -> tuple:
        return tuple(convert(part.strip()) for part in text.split(",") if part.strip())
    return parse


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


class Setting(NamedTuple):
    """Where a settable field is read from, and the converter from text that
    the INI file and the flag share."""

    section: str
    key: str
    flag: Optional[str]  # None for settings only the INI file can give
    convert: Callable[[str], object]
    help: str = ""


def _setting(default, *spec):
    return dataclasses.field(default=default, metadata={"setting": Setting(*spec)})


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Cross product defining one sweep, plus output options.

    Every field is settable; its metadata holds its :class:`Setting`.
    """

    problems: tuple[str, ...] = _setting(
        ("scalar-exponential",), "experiment", "problems", "--problem", _list_of(str),
        f"comma-separated problem names (known: {', '.join(catalog_names())})")
    modes: tuple[str, ...] = _setting(("det_exact",), "experiment", "modes", "--mode", _list_of(str),
                                      f"comma-separated solver modes ({', '.join(MODES)})")
    r_values: tuple[int, ...] = _setting((0,), "experiment", "r", "--r", _list_of(int),
                                         "comma-separated derivative orders, e.g. 0,1,2")
    rho_values: tuple[float, ...] = _setting((1.0,), "experiment", "rho", "--rho", _list_of(float),
                                             "comma-separated Holder exponents, e.g. 1.0")
    n_values: tuple[int, ...] = _setting((8, 16, 32, 64), "experiment", "n", "--n-grid", _list_of(int),
                                         "comma-separated step counts, e.g. 8,16,32")
    delta: float = _setting(SolveConfig.delta, "experiment", "delta", "--delta", float,
                            "overall failure budget in (0, 1/2)")
    seeds: tuple[int, ...] = _setting((0,), "experiment", "seeds", "--seeds", _list_of(int),
                                      "comma-separated seeds, e.g. 0,1,2")
    samples_per_step: int = _setting(8, "experiment", "samples_per_step", "--samples-per-step", int,
                                     "error-grid density per piece (>= 2)")
    out: str = _setting("-", "experiment", "out", "--out", str, "CSV output path, '-' for stdout")
    timing: bool = _setting(False, "experiment", "timing", "--timing", _boolean,
                            "record wall times (breaks byte-for-byte reproducibility)")
    cost_constant: float = _setting(SolveConfig.cost_constant, "experiment", "cost_constant", None, float)
    c: float = _setting(SolveConfig.c, "experiment", "c", None, float)
    eta: Optional[float] = _setting(None, "problem", "eta", None, float)
    interval: Optional[tuple[float, float]] = _setting(None, "problem", "interval", None, _list_of(float))

    def __post_init__(self):
        for name in ("problems", "modes", "r_values", "rho_values", "n_values", "seeds"):
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)) or not value:  # an array's truth value is ambiguous
                raise ConfigError(f"{name} must be a non-empty tuple or list, got {value!r}")
        if not self.out:
            raise ConfigError("out must be a path or '-'")
        if not isinstance(self.timing, bool):  # a truthy string would record wall times
            raise ConfigError(f"timing must be a bool, got {self.timing!r}")
        # The problem and solver settings are checked by the code that reads them.
        try:
            _problems(self)
            for mode, n, seed in product(self.modes, self.n_values, self.seeds):
                SolveConfig(n=n, mode=mode, delta=self.delta, seed=seed,
                            cost_constant=self.cost_constant, c=self.c)
            check_count("samples_per_step", self.samples_per_step, 2)  # sup_error's rule
        except (ContractViolationError, DomainError, UnknownProblemError) as exc:
            raise ConfigError(str(exc)) from None


def _problems(config: ExperimentConfig) -> dict:
    """The sweep's problems, keyed by ``(name, r, rho)``."""
    return {(name, r, rho): catalog(name, r=r, rho=rho, eta=config.eta, interval=config.interval)
            for name, r, rho in product(config.problems, config.r_values, config.rho_values)}


SETTINGS = tuple((f.name, f.metadata["setting"]) for f in dataclasses.fields(ExperimentConfig))


@dataclasses.dataclass(frozen=True)
class SweepRow:
    """One sweep cell; fields double as the CSV column order."""

    problem: str
    mode: str
    r: int
    rho: float
    n: int
    h: float
    seed: int
    sup_error: float
    classical_evals: int
    oracle_queries: int
    repetitions: int
    wall_time: float
    error: str = ""


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))


def run_sweep(config: ExperimentConfig) -> list[SweepRow]:
    """Run every sweep cell; divergence and a stationary start become flagged
    rows with the ledger charged before the failure, not a crash.  Only the
    boosted modes read the seed, so a cell of another mode is solved once and
    its row repeated for each later seed, ``wall_time`` included."""
    problems = _problems(config)
    rows = []
    for problem_name, mode, r, rho, n in product(
            config.problems, config.modes, config.r_values, config.rho_values, config.n_values):
        problem = problems[problem_name, r, rho]
        a, b = problem.interval
        for j, seed in enumerate(config.seeds):
            if j and mode not in BOOSTED_MODES:
                rows.append(dataclasses.replace(rows[-1], seed=seed))
                continue
            scfg = SolveConfig(n=n, mode=mode, delta=config.delta, seed=seed,
                               cost_constant=config.cost_constant, c=config.c)
            start = time.perf_counter()
            err_flag = ""
            err_value = math.nan
            try:
                traj = solve(problem, scfg)
                ledger = traj.ledger
                err_value = sup_error(traj, problem.reference, config.samples_per_step)
            except (DivergenceError, StationaryStartError) as exc:
                err_flag = (f"divergence:step={exc.step}" if isinstance(exc, DivergenceError)
                            else "stationary-start")
                ledger = exc.ledger
            wall = time.perf_counter() - start if config.timing else 0.0
            rows.append(SweepRow(
                problem=problem_name, mode=mode, r=r, rho=rho, n=n, h=(b - a) / n, seed=seed,
                sup_error=err_value,
                classical_evals=ledger.classical_evals, oracle_queries=ledger.oracle_queries,
                repetitions=ledger.repetitions,
                wall_time=wall, error=err_flag,
            ))
    return rows


def rows_to_csv(rows: Iterable[SweepRow]) -> str:
    """Serialize rows with a header; each cell as ``str`` writes it ('.' decimals), LF endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([getattr(row, name) for name in CSV_COLUMNS] for row in rows)
    return buf.getvalue()


def _median_by_n(rows: Sequence[SweepRow], value) -> tuple[np.ndarray, np.ndarray]:
    by_n: dict[int, list[float]] = {}
    for row in rows:
        v = value(row)
        if math.isfinite(v):
            by_n.setdefault(row.n, []).append(v)
    ns = sorted(by_n)
    return np.array(ns, dtype=float), np.array([float(np.median(by_n[n])) for n in ns])


def estimate_order(rows: Sequence[SweepRow]) -> float:
    """Empirical convergence order from a single-group sweep.

    Fits ``log2(sup_error)`` against ``log2(h)`` by least squares after
    taking the per-``n`` median over seeds; the slope is the order.  Needs
    at least three distinct grid sizes with finite positive errors.
    """
    ns, errs = _median_by_n(rows, lambda row: row.sup_error)
    keep = errs > 0
    ns, errs = ns[keep], errs[keep]
    if len(ns) < 3:
        raise ContractViolationError("estimate_order needs at least 3 distinct n values")
    hs = np.array([next(r.h for r in rows if r.n == n) for n in ns])
    slope = np.polyfit(np.log2(hs), np.log2(errs), 1)[0]
    return float(slope)


def estimate_cost_exponent(rows: Sequence[SweepRow], delta: float = 0.1) -> float:
    """Empirical cost-vs-n exponent from a single-group sweep.

    Total cost is ``classical_evals + oracle_queries`` (median over seeds).
    For the boosted modes the cost is divided by ``log2(n) + log2(1/delta)``
    first, removing the repetition factor so the slope isolates the power
    law.
    """
    check_real("delta", delta, 0, 0.5)  # SolveConfig's rule
    if not rows:
        raise ContractViolationError("estimate_cost_exponent needs rows")
    mode = rows[0].mode
    ns, costs = _median_by_n(rows, lambda row: float(row.classical_evals + row.oracle_queries))
    if len(ns) < 3:
        raise ContractViolationError("estimate_cost_exponent needs at least 3 distinct n values")
    if mode in BOOSTED_MODES:
        costs = costs / (np.log2(ns) + math.log2(1.0 / delta))
    slope = np.polyfit(np.log2(ns), np.log2(costs), 1)[0]
    return float(slope)


# --------------------------------------------------------------------------
# configuration plumbing


def _convert(setting: Setting, text: str, source: str):
    try:
        return setting.convert(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {source}: {exc}") from exc


def _config_from_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    return {name: _convert(s, parser.get(s.section, s.key), f"[{s.section}] {s.key}")
            for name, s in SETTINGS if parser.has_option(s.section, s.key)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivporacle",
        description="Sweep the oracle-corrected Taylor solver over problems, modes and grids; "
                    "emit one CSV row per (problem, mode, r, rho, n, seed) cell.",
    )
    parser.add_argument("--config", metavar="FILE", help="INI config file; flags override its values")
    for name, s in SETTINGS:
        if s.flag is None:
            continue
        if s.convert is _boolean:
            # A switch: present means "true", parsed like the INI text.
            parser.add_argument(s.flag, dest=name, action="store_const", const="true", help=s.help)
        else:
            parser.add_argument(s.flag, dest=name, metavar=s.key.upper(), help=s.help)
    parser.add_argument("--report", choices=("order", "cost"),
                        help="after the sweep, print a per-group slope estimate to stderr")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values = _config_from_file(args.config) if args.config is not None else {}
    for name, s in SETTINGS:
        text = getattr(args, name, None)
        if text is not None:
            values[name] = _convert(s, text, s.flag)
    return ExperimentConfig(**values)


def _print_report(rows: list[SweepRow], kind: str, delta: float) -> None:
    groups: dict[tuple, list[SweepRow]] = {}
    for row in rows:
        groups.setdefault((row.problem, row.mode, row.r, row.rho), []).append(row)
    for (problem, mode, r, rho), group in groups.items():
        try:
            if kind == "order":
                value = estimate_order(group)
            else:
                value = estimate_cost_exponent(group, delta=delta)
        except ContractViolationError as exc:
            print(f"# {kind} problem={problem} mode={mode} r={r} rho={rho}: {exc}", file=sys.stderr)
            continue
        print(f"# {kind} problem={problem} mode={mode} r={r} rho={rho} slope={value:.4f}",
              file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        rows = run_sweep(config)
        text = rows_to_csv(rows)
        if config.out == "-":
            sys.stdout.write(text)
        else:
            with open(config.out, "w", newline="") as fh:
                fh.write(text)
    except (ConfigError, ContractViolationError, DomainError, UnknownProblemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report:
        _print_report(rows, args.report, config.delta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
