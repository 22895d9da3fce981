"""The benchmark still runs against this source tree.

``bench/spans.py`` finds what it traces by name (the layer modules' public
functions and ``solver._objective``), so a rename in ``src/`` would silently
zero its per-layer counters; these tests make it fail instead.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from circmaxent import BadInput, random_feasible_band

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600


def run_bench(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def test_bench_smoke_script():
    proc = run_bench(os.path.join("bench", "smoke.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_run_counts_solver_work():
    proc = run_bench(os.path.join("bench", "run.py"), "--workload", "short_period", "--seed", "0",
                     "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    evals = metrics["solver.evals"]["value"]
    assert evals > 0
    assert evals >= metrics["solver.iterations"]["value"]


def test_instance_generator_is_pinned():
    # every benchmark instance is a random_feasible_band draw; a change to
    # its arithmetic or to its use of rng changes the workloads
    rng = np.random.default_rng(7)
    digest = hashlib.sha256()
    for m in (1, 2, 3, 5, 10):
        for n in range(4):
            for N in (2 * n + 2, 9, 16, 33):
                if N >= 2 * n + 2:
                    digest.update(random_feasible_band(m, n, N, rng).blocks.tobytes())
    assert digest.hexdigest() == "016747615d98b9f844d1eddc2de938be77c62a23187d49b441cee130546f938a"


def test_instance_generator_rejects_sizes_before_drawing():
    # m = 0 failed inside numpy, n = -1 with an IndexError
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    for m, n in ((0, 1), (1, -1)):
        with pytest.raises(BadInput):
            random_feasible_band(m, n, 8, rng)
    assert rng.bit_generator.state == state
