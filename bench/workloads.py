"""The three workloads: instance generation and the ops that run them.

An op is one library ``solve(band, N)`` followed by ``verify_solution``, or
one in-process ``circmaxent.cli.main([...])`` command.  Every op times only
the program's own work; its output is then checked by ``oracle`` (numpy
only) and classified as

* answered -- a verified completion or a correct feasibility verdict;
* unanswered -- the program stopped without an answer but did not lie
  (solver status other than "converged", exit code 3, ``feasible: null``);
* wrong -- an exception, a completion that fails the check, a verdict that
  contradicts the known answer, or an exit code the instance rules out.

Instances come from ``--seed`` only.  Each workload's list is built as
repeated rounds with a fixed kind mix, so any prefix the timed loop reaches
has the same mix, and the quantiles fall inside one kind's cluster of op
times rather than between two (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

import oracle

# Enough rounds that a 40 s run never comes back to the start of the list.
ROUNDS = {"short_period": 40, "long_period": 60, "cli_mixed": 40}

# (m, n); shares 0.1, 0.1, 0.6, 0.2 of the ops, so the median falls in the
# middle of the (3,2) cluster of op times and p90 in the middle of (5,3).
SHORT_ROUND = ((1, 1), (2, 1)) + ((3, 2),) * 6 + ((5, 3),) * 2
# (m, n, N); C and D twice, so the median falls inside C and p90 inside D.
LONG_ROUND = ((5, 3, 1024), (10, 2, 1024), (5, 3, 4096), (5, 3, 4096), (10, 2, 4096), (10, 2, 4096))
SHORT_MAX_N = 16
# Short-period solves take up to about 2,000 gradient steps; the budget
# bounds a rare slow one (it ends unanswered, status "max_iter") so that one
# seed cannot stretch a run.
SHORT_BUDGET = 2500
LONG_GEN_MAX_N = 16
# N = 2048 rather than 4096: half the op time, so twice the samples per run
# for p90, which falls on this kind.
CLI_LONG = (10, 2, 2048)
CLI_BUDGET = 2000
# Near-boundary scalar band that plain gradient descent cannot finish in
# CLI_BUDGET iterations (it runs 100k library iterations without converging).
BUDGET_BAND = (1.0, -0.90)
BUDGET_N = 9
FEAS_N = 7
IPS_CLASSES = ((1, 1), (2, 1), (1, 2), (2, 2))
IPS_MAX_N = 24


@dataclass
class Outcome:
    answered: bool
    wrong: bool
    row: dict = field(default_factory=dict)


@dataclass
class Op:
    kind: str
    m: int
    n: int
    N: int
    command: str
    run: Callable[[], tuple]  # () -> (seconds, Outcome)


def library_op(cm, kind: str, blocks, N: int, max_iter=None) -> Op:
    blocks = np.array(blocks, dtype=float)
    m, n = blocks.shape[1], blocks.shape[0] - 1
    band = cm.BandData(m, n, blocks)
    config = cm.SolverConfig(max_iter=max_iter) if max_iter is not None else None

    def run():
        t0 = perf_counter()
        try:
            result = cm.solve(band, N, config)
            report = cm.verify_solution(result, band)
        except Exception as exc:  # any raise from the program is a wrong op
            return perf_counter() - t0, Outcome(False, True, {"status": "exception", "error": repr(exc)})
        dt = perf_counter() - t0
        row = {
            "status": result.status,
            "iterations": result.iterations,
            "backtracks": result.line_search_backtracks_total,
            "lib_band_residual": report.band_residual,
            "lib_dempster_residual": report.dempster_residual,
        }
        if result.status != "converged":
            return dt, Outcome(False, False, row)
        check = oracle.check_completion(result.sigma.first_row, blocks)
        row.update(check_fields(check))
        return dt, Outcome(check["ok"], not check["ok"], row)

    budget = "" if max_iter is None else f", max_iter={max_iter}"
    return Op(kind, m, n, N, f"solve(band m={m} n={n}, N={N}{budget}) + verify_solution", run)


def check_fields(check: dict) -> dict:
    return {
        "band_residual": check["band_residual"],
        "dempster_residual": check["dempster_residual"],
        "min_eig": check["min_eig"],
    }


def write_problem(path: str, blocks, N: int) -> str:
    blocks = np.asarray(blocks, dtype=float)
    payload = {
        "m": blocks.shape[1],
        "n": blocks.shape[0] - 1,
        "N": N,
        "blocks": [b.reshape(-1).tolist() for b in blocks],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _judge_solve(code: int, out_path: str, blocks, N: int) -> Outcome:
    """Every solve instance here is feasible by construction, so exit 2
    ("infeasible") is wrong and exit 3 (budget exhausted) is unanswered."""
    if code not in (0, 3):
        return Outcome(False, True, {})
    with open(out_path) as fh:
        payload = json.load(fh)
    diag = payload.get("diagnostics", {})
    fields = {"iterations": diag.get("iterations"), "status": diag.get("status")}
    if code == 3:
        return Outcome(False, False, fields)
    m = blocks.shape[1]
    row = np.asarray(payload["first_block_row"], dtype=float).reshape(N, m, m)
    check = oracle.check_completion(row, blocks)
    fields.update(check_fields(check))
    return Outcome(check["ok"], not check["ok"], fields)


def _judge_feas(code: int, out_path: str, known: bool) -> Outcome:
    if code != 0:
        return Outcome(False, True, {})
    with open(out_path) as fh:
        payload = json.load(fh)
    verdict = payload.get("feasible")
    fields = {"verdict": verdict, "known": known}
    evidence = payload.get("evidence") or {}
    fields.update(iterations=evidence.get("iterations"), status=evidence.get("status"))
    if verdict is None:
        return Outcome(False, False, fields)
    return Outcome(verdict is known, verdict is not known, fields)


def cli_op(cm, kind: str, argv: list, in_path: str, out_path: str, blocks, N: int, judge) -> Op:
    blocks = np.asarray(blocks, dtype=float)
    m, n = blocks.shape[1], blocks.shape[0] - 1

    def run():
        sink_out, sink_err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                code = cm.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a raise or argparse exit is a wrong op
            dt = perf_counter() - t0
            return dt, Outcome(False, True, {"exit": None, "error": repr(exc)})
        dt = perf_counter() - t0
        bytes_out = os.path.getsize(out_path) if os.path.exists(out_path) else 0
        try:
            outcome = judge(code, out_path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome = Outcome(False, True, {"error": repr(exc)})
        finally:
            if os.path.exists(out_path):
                os.remove(out_path)
        outcome.row.update(exit=code, bytes_in=os.path.getsize(in_path), bytes_out=bytes_out)
        return dt, outcome

    return Op(kind, m, n, N, "circmaxent " + " ".join(os.path.basename(a) for a in argv), run)


def _short_period(cm, rng, rounds: int, workdir: str) -> list:
    ops = []
    for _ in range(rounds):
        for m, n in SHORT_ROUND:
            N = int(rng.integers(2 * n + 2, SHORT_MAX_N + 1))
            band = cm.random_feasible_band(m, n, N, rng)
            ops.append(library_op(cm, f"m{m}n{n}", band.blocks, N, SHORT_BUDGET))
    return ops


def _long_period(cm, rng, rounds: int, workdir: str) -> list:
    ops = []
    for _ in range(rounds):
        for m, n, N in LONG_ROUND:
            n_gen = int(rng.integers(2 * n + 2, LONG_GEN_MAX_N + 1))
            band = cm.random_feasible_band(m, n, n_gen, rng)
            ops.append(library_op(cm, f"m{m}n{n}N{N}", band.blocks, N))
    return ops


def _channel_band(rng, rhos) -> np.ndarray:
    """(Sigma_0, Sigma_1) = (Q D Q^T, Q D diag(rhos) Q^T): scalar channels
    with lag-one correlations ``rhos`` in a random orthonormal basis."""
    m = len(rhos)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    d = rng.uniform(0.5, 2.0, m)
    return np.stack([q @ np.diag(d) @ q.T, q @ np.diag(d * np.asarray(rhos)) @ q.T])


def _known_feasible(rhos, N: int) -> bool:
    """Feasible iff every channel is; each answer carries a witness
    completion or a dual certificate, so the label does not rest on the
    package's own feasibility code."""
    witnesses = [oracle.scalar_bw1_witness(r, N) for r in rhos]
    certificates = [oracle.scalar_bw1_certificate(1.0, r, N) for r in rhos]
    if all(w is not None for w in witnesses):
        return True
    if any(c is not None for c in certificates):
        return False
    raise ValueError(f"no witness or certificate for channels {rhos} at N={N}")


def _near_boundary_rho(rng, N: int) -> float:
    """Lag-one correlation within 3% of one of the two feasibility bounds,
    on either side of the lower one."""
    lower = float(np.cos(2.0 * np.pi * (N // 2) / N))
    side = int(rng.integers(3))
    if side == 0:
        return float(1.0 - rng.uniform(0.005, 0.03))
    if side == 1:
        return float(lower * (1.0 - rng.uniform(0.005, 0.03)))
    return float(lower * (1.0 + rng.uniform(0.005, 0.03)))


def _cli_mixed(cm, rng, rounds: int, workdir: str) -> list:
    out_path = os.path.join(workdir, "out.json")
    budget_blocks = np.array([[[BUDGET_BAND[0]]], [[BUDGET_BAND[1]]]])
    budget_in = write_problem(os.path.join(workdir, "budget.json"), budget_blocks, BUDGET_N)
    ops = []
    for r in range(rounds):
        # solve --method ips on a small dense problem
        m, n = IPS_CLASSES[r % len(IPS_CLASSES)]
        N = int(rng.integers(2 * n + 2, IPS_MAX_N + 1))
        blocks = cm.random_feasible_band(m, n, N, rng).blocks
        path = write_problem(os.path.join(workdir, f"ips{r}.json"), blocks, N)
        ops.append(cli_op(cm, "solve_ips", ["solve", path, "--method", "ips", "-o", out_path], path, out_path,
                          blocks, N, lambda c, o, b=blocks, N=N: _judge_solve(c, o, b, N)))
        # feas on a scalar bandwidth-1 band: the closed-form path
        N = int(rng.integers(5, 16))
        rho = _near_boundary_rho(rng, N)
        blocks = np.array([[[1.0]], [[rho]]])
        path = write_problem(os.path.join(workdir, f"fs{r}.json"), blocks, N)
        known = _known_feasible([rho], N)
        ops.append(cli_op(cm, "feas_scalar", ["feas", path, "-o", out_path], path, out_path,
                          blocks, N, lambda c, o, k=known: _judge_feas(c, o, k)))
        # solve with a 2000-iteration budget on the near-boundary scalar band;
        # twice, so the median of the round falls on this seed-independent op
        for _ in range(2):
            ops.append(cli_op(cm, "solve_budget", ["solve", budget_in, "--max-iter", str(CLI_BUDGET), "-o", out_path],
                              budget_in, out_path, budget_blocks, BUDGET_N,
                              lambda c, o: _judge_solve(c, o, budget_blocks, BUDGET_N)))
        # feas on a two-channel band with one channel near a bound
        rhos = [_near_boundary_rho(rng, FEAS_N), float(rng.uniform(-0.5, 0.9))]
        blocks = _channel_band(rng, rhos)
        path = write_problem(os.path.join(workdir, f"fm{r}.json"), blocks, FEAS_N)
        known = _known_feasible(rhos, FEAS_N)
        ops.append(cli_op(cm, "feas_matrix", ["feas", path, "-o", out_path], path, out_path,
                          blocks, FEAS_N, lambda c, o, k=known: _judge_feas(c, o, k)))
        # solve on a long-period file
        m, n, N = CLI_LONG
        blocks = cm.random_feasible_band(m, n, int(rng.integers(2 * n + 2, LONG_GEN_MAX_N + 1)), rng).blocks
        path = write_problem(os.path.join(workdir, f"long{r}.json"), blocks, N)
        ops.append(cli_op(cm, "solve_long", ["solve", path, "-o", out_path], path, out_path,
                          blocks, N, lambda c, o, b=blocks, N=N: _judge_solve(c, o, b, N)))
    return ops


MAKERS = {"short_period": _short_period, "long_period": _long_period, "cli_mixed": _cli_mixed}


def build(name: str, cm, seed: int, workdir: str, smoke: bool = False) -> list:
    """The ops of workload ``name`` from ``seed``; ``smoke`` keeps a single round."""
    rng = np.random.default_rng([seed, list(MAKERS).index(name)])
    os.makedirs(workdir, exist_ok=True)
    return MAKERS[name](cm, rng, 1 if smoke else ROUNDS[name], workdir)
