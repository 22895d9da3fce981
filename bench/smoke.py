"""Smoke test for the benchmark itself.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json on a single round of instances, once
untraced and once traced, and checks that the last stdout line carries
exactly the metrics BENCHMARK.json names, each with its unit, that every
op's output passed its check, and that the runner refuses to run (non-zero
exit, no result line) in a copy that holds only BENCHMARK.json and the
benchmark's own files.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 300


def run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result['failed']} wrong ops"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, f"{where}: metric names differ"
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], f"{where}: {metric['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), f"{where}: {metric['name']}"
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), f"{where}: {metric['name']} not printed with its unit"
    print(f"ok  {where}: {result['attempted']} ops")


def check_stripped(spec: dict) -> None:
    """Without the package sources the runner must fail and print no result."""
    stripped = os.path.join(ROOT, ".bench_out", f"stripped-{os.getpid()}")
    try:
        os.makedirs(stripped)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(stripped, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(stripped, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    assert proc.returncode != 0, "stripped copy: exit 0"
    assert '"metrics"' not in proc.stdout, "stripped copy: printed a result"
    print(f"ok  stripped copy: exit {proc.returncode}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
    check_stripped(spec)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
