"""One benchmark run of one workload, in a process of its own.

``run.py`` starts this file with single-threaded BLAS and ``src/`` on the
path; see ``README.md`` for the workloads and metrics.  The run is a closed
loop: one caller issues the workload's fixed request list back to back
("a pass") until ``--seconds`` would be exceeded, with at least two passes
so exact counts can be compared.  Every output is checked: each solve or
sweep cell must stay under its error ceiling from ``ceilings.json`` and
repeat bit for bit in every pass; the sweep's CSV must repeat byte for byte
and its ``det_exact`` order fits must lie in ``r + rho + [0.7, 1.5]``.

The last line of standard output is the JSON result; ``#`` lines before it
give every metric with its unit, the failure ratio and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# Requests are (mode, problem, r, n) with rho = 1.
# boosted: large per-call budgets and k = 34-40 repetitions, so oracles and
# boosting dominate; the 2-d quantum cell exercises quantum_reference.
BOOSTED = (
    ("randomized", "scalar-exponential", 0, 512),
    ("randomized", "integration-reduction:cos-pi", 3, 256),
    ("randomized", "logistic", 1, 256),
    ("quantum_sim", "scalar-exponential", 1, 1024),
    ("quantum_sim", "integration-reduction:cos-pi", 3, 256),
    ("quantum_sim", "logistic", 0, 256),
)
# deterministic: no boosting at all; Taylor data, eval_partial and the
# det_exact reference quadrature do the work.
DETERMINISTIC = (
    ("det_values", "integration-reduction:cos-pi", 3, 1024),
    ("det_values", "logistic", 1, 1024),
    ("det_values", "scalar-exponential", 0, 1024),
    ("det_exact", "integration-reduction:cos-pi", 1, 1024),
    ("det_exact", "logistic", 3, 256),
    ("det_exact", "scalar-exponential", 3, 1024),
)
# sweep: 192 small CLI cells, where per-call overhead, the CSV and the audit
# dominate rather than per-sample arithmetic.
SWEEP_PROBLEMS = ("scalar-exponential", "logistic", "integration-reduction:cos-pi")
SWEEP_MODES = ("det_exact", "det_values", "randomized", "quantum_sim")
SWEEP_R = (0, 1)
SWEEP_N = (8, 16, 32, 64)
SWEEP_SEEDS = 2

WORKLOADS = ("boosted", "deterministic", "sweep")
#: The smoke check runs every request at n / 16 and the sweep on 3 grid sizes.
SMOKE_N_DIVISOR = 16
SMOKE_SWEEP_N = (8, 16, 32)
WARMUP_N = 8
SETUP_REPEATS = 20
SEED_SALT = 0x1F0AC1E

#: An untraced pass runs the reference kernel before an operation once this
#: many seconds have passed since its last run, and once at each end.
REFERENCE_EVERY_S = 0.5
#: Wall-clock values printed beside the bounded metrics, which use kernel units.
WALL_CLOCK_UNITS = {"pass_s": "s", "steps_per_s": "1/s", "reference_s": "s"}

ORDER_LINE = re.compile(r"# order problem=(\S+) mode=(\S+) r=(\d+) rho=(\S+) slope=(\S+)$")
ORDER_WINDOW = (0.7, 1.5)


def cell_key(mode: str, problem: str, r: int, n: int) -> str:
    return f"{mode}|{problem}|{r}|{n}"


def requests_for(workload: str, smoke: bool) -> tuple:
    if workload == "sweep":
        ns = SMOKE_SWEEP_N if smoke else SWEEP_N
        return tuple((m, p, r, n) for p, m, r, n in itertools.product(
            SWEEP_PROBLEMS, SWEEP_MODES, SWEEP_R, ns))
    base = BOOSTED if workload == "boosted" else DETERMINISTIC
    if not smoke:
        return base
    return tuple((m, p, r, n // SMOKE_N_DIVISOR) for m, p, r, n in base)


def expected_keys(workload: str, smoke: bool) -> list[str]:
    """Sorted cell keys of one pass: each request once, or once per seed in the sweep."""
    copies = SWEEP_SEEDS if workload == "sweep" else 1
    return sorted(cell_key(*req) for req in requests_for(workload, smoke) for _ in range(copies))


def solve_seeds(workload_seed: int, count: int) -> list[int]:
    """Per-request solve seeds, a function of the workload seed only."""
    state = np.random.SeedSequence([SEED_SALT, workload_seed]).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


@dataclasses.dataclass
class Op:
    """One solve or sweep cell: the unit that is attempted and may fail."""

    key: str
    mode: str
    n: int
    error: float = math.nan
    ledger: tuple = ()
    fingerprint: str = ""
    failure: str = ""


@dataclasses.dataclass
class Pass:
    ops: list
    wall_s: float
    solve_s: float
    traced: bool
    tracer: spans.Tracer | None = None
    stats: dict | None = None
    csv_bytes: bytes = b""
    failure: str = ""
    ref_s: float = math.nan

    @property
    def steps(self) -> int:
        return sum(op.n for op in self.ops if not op.failure)


# --------------------------------------------------------------------------
# reference kernel
#
# The same pass took up to 1.6x longer a few minutes later on a 2-vCPU VM
# shared with other tenants, because the host slowed, so timed end-to-end
# metrics are given in units of this fixed computation.  The host's speed
# also changed within a second, so the kernel is timed throughout every
# untraced pass and after every set-up: timed only at both ends of a pass,
# it gave twice the run-to-run spread.  It uses no ivporacle code: no
# change to the package can move it.


def reference_kernel() -> float:
    """Fixed work like the package's: interpreter loops and small numpy calls."""
    a = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for i in range(15000):
        acc += float(np.dot(a, a[::-1])) + i % 7
    table: dict[int, int] = {}
    for i in range(150000):
        table[i % 97] = table.get(i % 97, 0) + i
    return acc + sum(table.values())


class Reference:
    """Reference-kernel times taken during one pass or set-up."""

    def __init__(self):
        self.times: list[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        start = perf_counter()
        if force or start - self._last >= REFERENCE_EVERY_S:
            reference_kernel()
            self._last = perf_counter()
            self.times.append(self._last - start)

    def before(self, fn):
        """``fn`` preceded by a sample, for the solves the CLI makes."""
        def sampled(*args, **kwargs):
            self.sample()
            return fn(*args, **kwargs)
        return sampled


# --------------------------------------------------------------------------
# set-up and passes


def set_up(workload: str, smoke: bool):
    """Import ivporacle afresh, build the problems, warm up once per mode."""
    for name in [m for m in sys.modules if m == "ivporacle" or m.startswith("ivporacle.")]:
        del sys.modules[name]
    iv = importlib.import_module("ivporacle")
    requests = requests_for(workload, smoke)
    problems = {(p, r): iv.catalog(p, r=r) for _, p, r, _ in requests}
    warmed = set()
    for mode, p, r, _ in requests:
        if mode not in warmed:
            warmed.add(mode)
            problem = problems[(p, r)]
            iv.sup_error(iv.solve(problem, iv.SolveConfig(n=WARMUP_N, mode=mode)), problem.reference)
    return iv, problems


def timed_set_ups(workload: str, smoke: bool):
    """``SETUP_REPEATS`` set-ups, each followed by a run of the reference
    kernel.  Returns the last set-up's package and problems, the set-up
    times, and each in units of the kernel run that followed it."""
    ref = Reference()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        iv, problems = set_up(workload, smoke)
        setup_times.append(perf_counter() - start)
        ref.sample(force=True)
    return iv, problems, setup_times, [s / k for s, k in zip(setup_times, ref.times)]


def solve_pass(iv, requests, problems, seeds, tracer: spans.Tracer, ref: Reference | None) -> list[Op]:
    ops = []
    for (mode, p, r, n), seed in zip(requests, seeds):
        if ref:
            ref.sample()
        problem = problems[(p, r)]
        op = Op(cell_key(mode, p, r, n), mode, n)
        try:
            traj = tracer.call("solver.solve", iv.solve, problem, iv.SolveConfig(n=n, mode=mode, seed=seed))
            op.error = tracer.call("solver.sup_error", iv.sup_error, traj, problem.reference)
        except Exception as exc:  # a raising solve is a failed operation, not a crashed run
            op.failure = f"{type(exc).__name__}: {exc}"
        else:
            led = traj.ledger
            op.ledger = (led.classical_evals, led.oracle_queries, led.repetitions)
            op.fingerprint = hashlib.sha256(traj.endpoints.tobytes()).hexdigest()
        ops.append(op)
    return ops


def sweep_argv(seeds, smoke: bool, out: str) -> list[str]:
    ns = SMOKE_SWEEP_N if smoke else SWEEP_N
    return ["--problem", ",".join(SWEEP_PROBLEMS), "--mode", ",".join(SWEEP_MODES),
            "--r", ",".join(map(str, SWEEP_R)), "--n-grid", ",".join(map(str, ns)),
            "--seeds", ",".join(map(str, seeds)), "--out", out, "--report", "order"]


def check_orders(report: str) -> str:
    """Failure text unless every det_exact group's slope is in its window."""
    seen = 0
    for line in report.splitlines():
        match = ORDER_LINE.match(line)
        if not match or match.group(2) != "det_exact":
            continue
        seen += 1
        order = int(match.group(3)) + float(match.group(4))
        slope = float(match.group(5))
        if not order + ORDER_WINDOW[0] <= slope <= order + ORDER_WINDOW[1]:
            return f"det_exact order {slope} outside window for {line}"
    expected = len(SWEEP_PROBLEMS) * len(SWEEP_R)
    return "" if seen == expected else f"{seen} det_exact order fits reported, expected {expected}"


def sweep_pass(iv, seeds, smoke: bool, tracer: spans.Tracer):
    """One CLI sweep; returns its cells, CSV bytes and any pass-level failure."""
    fd, out = tempfile.mkstemp(suffix=".csv", dir=OUT_DIR)
    os.close(fd)
    report = io.StringIO()
    try:
        with contextlib.redirect_stderr(report):
            code = tracer.call("cli.main", iv.cli.main, sweep_argv(seeds, smoke, out))
        with open(out, "rb") as fh:
            data = fh.read()
    finally:
        os.remove(out)
    ops = []
    for row in csv.DictReader(io.StringIO(data.decode())):
        n = int(row["n"])
        op = Op(cell_key(row["mode"], row["problem"], int(row["r"]), n), row["mode"], n,
                error=float(row["sup_error"]),
                ledger=(int(row["classical_evals"]), int(row["oracle_queries"]), int(row["repetitions"])),
                fingerprint=row["sup_error"], failure=f"cell flagged {row['error']}" if row["error"] else "")
        ops.append(op)
    failure = f"cli exit code {code}" if code != 0 else check_orders(report.getvalue())
    return ops, data, failure


def run_pass(iv, workload, problems, seeds, smoke, traced) -> Pass:
    """One pass; an untraced one also samples the reference kernel, whose time
    is left out of the pass's wall time."""
    tracer = spans.Tracer()
    ref = None if traced else Reference()
    patches = spans.FULL if traced else (spans.SOLVE_ONLY if workload == "sweep" else ())
    with tracer.installed(patches):
        if ref:
            ref.sample(force=True)
            if workload == "sweep":
                # Outside the solve span; the tracer restores the original on exit.
                iv.cli.solve = ref.before(iv.cli.solve)
        start = perf_counter()
        if workload == "sweep":
            ops, data, failure = sweep_pass(iv, seeds, smoke, tracer)
        else:
            ops, data, failure = solve_pass(iv, requests_for(workload, smoke), problems, seeds,
                                            tracer, ref), b"", ""
        wall = perf_counter() - start
        if ref:
            wall -= sum(ref.times[1:])
            ref.sample(force=True)
    result = Pass(ops=ops, wall_s=wall, solve_s=float(tracer.durations("solver.solve").sum()),
                  traced=traced, csv_bytes=data, failure=failure,
                  ref_s=statistics.fmean(ref.times) if ref else math.nan)
    if traced:
        result.tracer, result.stats = tracer, spans.layer_stats(tracer)
    return result


# --------------------------------------------------------------------------
# checks


def load_ceilings() -> dict:
    with open(os.path.join(HERE, "ceilings.json")) as fh:
        return json.load(fh)


def ceiling_for(ceilings: dict, op: Op) -> float:
    ref = ceilings["reference_error"].get(op.key)
    if ref is None:
        return math.nan
    return ceilings["headroom"][op.mode] * ref + ceilings["floor"]


def judge(passes: list[Pass], ceilings: dict, expected: list[str]) -> int:
    """Mark failed operations in place and return how many failed.

    ``expected`` is the sorted list of cell keys one pass must produce.  A
    pass that produced others fails as a whole, and each operation it is
    missing is added to it as a failed one.
    """
    first = passes[0]
    failed = 0
    for p in passes:
        if sorted(op.key for op in p.ops) != expected:
            p.failure = p.failure or f"{len(p.ops)} operations, not the {len(expected)} expected"
            p.ops += [Op("missing", "", 0, failure=p.failure)
                      for _ in range(len(expected) - len(p.ops))]
        if first.csv_bytes != p.csv_bytes:
            p.failure = p.failure or "CSV bytes differ from the first pass"
        for op, ref in zip(p.ops, first.ops):
            if op.failure:
                continue
            ceiling = ceiling_for(ceilings, op)
            if not op.error <= ceiling:  # also catches NaN errors and cells without a ceiling
                op.failure = f"sup_error {op.error!r} above ceiling {ceiling!r}"
            elif (op.ledger, op.fingerprint) != (ref.ledger, ref.fingerprint):
                op.failure = "result or ledger differs from the first pass"
        for op in p.ops:
            if p.failure and not op.failure:
                op.failure = p.failure
            failed += bool(op.failure)
    return failed


# --------------------------------------------------------------------------
# metrics


def ledger_totals(p: Pass) -> tuple:
    return tuple(sum(op.ledger[i] for op in p.ops if op.ledger) for i in range(3))


def end_to_end_metrics(untraced: list[Pass], setup_times: list[float], setup_refs: list[float]) -> dict:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "setup_ref": statistics.median(setup_refs),
        "pass_s": statistics.median(p.wall_s for p in untraced),
        "steps_per_s": statistics.median(p.steps / p.solve_s for p in untraced),
        "pass_ref": statistics.median(p.wall_s / p.ref_s for p in untraced),
        "steps_per_ref": statistics.median(p.steps * p.ref_s / p.solve_s for p in untraced),
        "reference_s": statistics.median(p.ref_s for p in untraced),
        "peak_rss_mb": rss_kib / 1024.0,
    }


def layer_metrics(p: Pass) -> dict:
    layers = p.stats["layers"]

    def field(name, key):
        return layers.get(name, {}).get(key, 0)

    metrics = {}
    for name in {span for _, _, span in spans.FULL} | {"cli.main"}:
        metrics[f"{name}.calls"] = field(name, "calls")
        metrics[f"{name}.self_s"] = field(name, "self_s")
    metrics["problem.eval_rhs.points"] = field("problem.eval_rhs", "work")
    ref_calls = field("quad.integrate_reference", "calls")
    metrics["quad.integrate_reference.exhausted_ratio"] = (
        p.stats["reference_exhausted"] / ref_calls if ref_calls else 0.0)
    classical, queries, reps = ledger_totals(p)
    metrics.update({"solver.ledger.classical_evals": classical,
                    "solver.ledger.oracle_queries": queries,
                    "solver.ledger.repetitions": reps,
                    "trace.solve_s": p.stats["solve_s"]})
    return metrics


def per_layer_metrics(untraced: list[Pass], traced: list[Pass], declared: list[str]) -> tuple[dict, str]:
    """Median per-layer metrics over traced passes, and any check failure.

    The check fails unless the declared ``*.self_s`` metrics, taken within
    ``solver.solve``, add up to the traced solve time: a span opening inside
    ``solve`` that ``declared`` leaves out makes them fall short.
    """
    per_pass = [layer_metrics(p) for p in traced]
    # Counts repeat exactly (checked below), so only times need a median.
    metrics = {name: statistics.median(m[name] for m in per_pass) if name.endswith("_s")
               else per_pass[0][name] for name in per_pass[0]}
    untraced_s = statistics.median(p.wall_s for p in untraced)
    traced_s = statistics.median(p.wall_s for p in traced)
    metrics.update({"trace.untraced_pass_s": untraced_s, "trace.traced_pass_s": traced_s,
                    "trace.overhead_s": traced_s - untraced_s})
    problem = ""
    exact = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in per_pass]
    if any(e != exact[0] for e in exact):
        problem = "per-layer counts differ between traced passes"
    suffix = ".self_s"
    layers = [name[:-len(suffix)] for name in declared if name.endswith(suffix)]
    for p in traced:
        covered = sum(p.stats["solve_self_s"].get(name, 0.0) for name in layers)
        gap = abs(covered - p.stats["solve_s"])
        if gap > 1e-9 * max(1.0, p.stats["solve_s"]):
            problem = problem or f"declared layer self times miss the traced solve time by {gap} s"
    return metrics, problem


def write_spans(p: Pass, workload: str) -> None:
    """Write the last traced pass's spans for offline inspection."""
    tracer = p.tracer
    np.savez(os.path.join(OUT_DIR, f"spans-{workload}.npz"), names=np.array(tracer.names),
             name_id=np.frombuffer(tracer.name_id, dtype=np.int32),
             parent=np.frombuffer(tracer.parent, dtype=np.int32),
             work=np.frombuffer(tracer.work, dtype=np.int64),
             start=np.frombuffer(tracer.start), end=np.frombuffer(tracer.end))


# --------------------------------------------------------------------------
# environment stamp


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 over the package sources, which identifies checkouts without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(args) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "git_commit": git_commit(), "src_sha256": src_digest(),
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


# --------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="reduced request sizes, for checking the benchmark itself")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure(args, iv, problems) -> list[Pass]:
    """Passes until the next would end after ``--seconds``.

    Untraced runs make at least two passes.  Traced runs start untraced,
    traced, traced (two traced passes to compare counts) and then alternate.
    """
    seeds = solve_seeds(args.seed, SWEEP_SEEDS if args.workload == "sweep"
                        else len(requests_for(args.workload, args.smoke)))
    plan = ("U", "T", "T") if args.trace else ("U", "U")
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        if len(passes) < len(plan):
            traced = plan[len(passes)] == "T"
        else:
            traced = bool(args.trace) and not passes[-1].traced
        passes.append(run_pass(iv, args.workload, problems, seeds, args.smoke, traced))
        if len(passes) >= len(plan) and perf_counter() - start + passes[-1].wall_s > args.seconds:
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    ceilings = load_ceilings()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    iv, problems, setup_times, setup_refs = timed_set_ups(args.workload, args.smoke)
    if os.path.dirname(os.path.abspath(iv.__file__)) != os.path.join(SRC, "ivporacle"):
        raise SystemExit(f"ivporacle imported from {iv.__file__}, not from {SRC}")

    passes = measure(args, iv, problems)
    failed = judge(passes, ceilings, expected_keys(args.workload, args.smoke))
    attempted = sum(len(p.ops) for p in passes)
    untraced = [p for p in passes if not p.traced]
    problem = ""
    if args.trace:
        traced = [p for p in passes if p.traced]
        values, problem = per_layer_metrics(untraced, traced, [m["name"] for m in declared])
        write_spans(traced[-1], args.workload)
    else:
        values = end_to_end_metrics(untraced, setup_times, setup_refs)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print("# env " + json.dumps(environment(args), sort_keys=True))
    print(f"# passes {len(passes)} ({len(untraced)} untraced), operations per pass {len(passes[0].ops)}, "
          f"wall s {[round(p.wall_s, 4) for p in passes]}, set-up s {[round(t, 4) for t in setup_times]}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    for name, unit in WALL_CLOCK_UNITS.items():
        if name in values and name not in metrics:
            print(f"# {name} = {values[name]!r} {unit} (wall clock, not bounded)")
    print(f"# fail_ratio = {failed / max(attempted, 1)!r} ({failed} of {attempted} operations failed)")
    for p in passes:
        for op in p.ops:
            if op.failure:
                print(f"# failed {op.key}: {op.failure}")
    if problem:
        print(f"# check failed: {problem}")
    for p in passes:
        if p.failure:
            print(f"# failed pass: {p.failure}")
    correct = failed == 0 and not problem and not any(p.failure for p in passes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
