"""Smoke check of the benchmark itself, at reduced size.

    python3 perfbench/smoke.py

Runs ``run.py --smoke`` on every workload, untraced and traced, and checks
that the last line is a well-formed result in which every metric declared in
``BENCHMARK.json`` appears with its declared unit, no operation failed, and
every pass made all of the workload's operations.
Then runs the benchmark in a directory holding only ``BENCHMARK.json`` and
``perfbench/``, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import bench

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace), "--smoke"],
                          cwd=root, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, trace: int) -> None:
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    passes = int(re.search(r"^# passes (\d+) ", done.stdout, re.M).group(1))
    per_pass = len(bench.expected_keys(workload, smoke=True))
    assert result["attempted"] == passes * per_pass, (result["attempted"], passes, per_pass)
    declared = spec["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"]), workload
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], (m["name"], emitted)
        assert isinstance(emitted["value"], (int, float)), (m["name"], emitted)
    print(f"ok {workload} trace={trace}: {len(declared)} metrics, {result['attempted']} operations")


def check_bare_directory(spec: dict) -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        done = run(bare, "deterministic", 0)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    print(f"ok bare directory: exit {done.returncode}, no result")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare_directory(spec)


if __name__ == "__main__":
    main()
