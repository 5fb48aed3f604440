"""Measure the per-cell sup_error table behind the benchmark's error ceilings.

    PYTHONPATH=src python3 perfbench/calibrate.py

Writes ``perfbench/ceilings.json``: for every cell the benchmark runs, at
full and smoke size, the largest sup_error seen over ``SEEDS`` workload
seeds (one for the deterministic workload, whose results ignore the seed).
A run fails a cell whose error exceeds ``headroom[mode] * error + floor``.
The table records the solver as it was when the benchmark was defined;
regenerating it in a change to the solver would hide that change's errors.
"""

from __future__ import annotations

import json
import os

import bench
import spans

#: Workload seeds for calibration start here, away from the small seeds
#: benchmark runs use, so the ceilings are tested on seeds they never saw.
FIRST_SEED = 10_000
SEEDS = 16
#: Deterministic modes repeat their error up to rounding.  A quantum_sim step
#: whose boosting fails (the solve's delta budget) is still off by at most
#: 10 eps1, against at most eps1 when it succeeds; both stochastic modes get
#: 10x, which covers one such step.
HEADROOM = {"det_exact": 1.5, "det_values": 1.5, "randomized": 10.0, "quantum_sim": 10.0}
FLOOR = 1e-13


def errors(workload: str, smoke: bool, seed: int) -> list[bench.Op]:
    iv, problems = bench.set_up(workload, smoke)
    tracer = spans.Tracer()
    if workload == "sweep":
        ops, _, failure = bench.sweep_pass(iv, bench.solve_seeds(seed, bench.SWEEP_SEEDS), smoke, tracer)
        if failure:
            raise SystemExit(f"sweep seed {seed}: {failure}")
        return ops
    requests = bench.requests_for(workload, smoke)
    return bench.solve_pass(iv, requests, problems, bench.solve_seeds(seed, len(requests)), tracer, None)


def main() -> None:
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    worst: dict[str, float] = {}
    for workload in bench.WORKLOADS:
        seeds = 1 if workload == "deterministic" else SEEDS
        for smoke in (False, True):
            for seed in range(FIRST_SEED, FIRST_SEED + seeds):
                for op in errors(workload, smoke, seed):
                    if op.failure:
                        raise SystemExit(f"{op.key} seed {seed}: {op.failure}")
                    worst[op.key] = max(worst.get(op.key, 0.0), op.error)
    table = {"headroom": HEADROOM, "floor": FLOOR, "seeds": SEEDS,
             "reference_error": dict(sorted(worst.items()))}
    with open(os.path.join(bench.HERE, "ceilings.json"), "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
