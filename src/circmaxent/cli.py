"""Command-line front end: problem I/O, solver orchestration, sweeps.

Problem files are JSON: {"m", "n", "N", "blocks"} with n+1 blocks of m*m
scalars row-major (Sigma_0 first).  Solution files carry the first block row
of the completion plus diagnostics, and Newton and GD solutions the
precision band K_0..K_n, the first-row blocks of the completion's banded
inverse, as compact one-line JSON.  Every JSON file is written by ``_emit``,
which has orjson format the numpy arrays themselves: each float is the
shortest text that ``json.loads`` reparses to the same bits, and a payload
holding a float that is not finite is refused (ValueError) before anything
is written, as orjson would write it as null.  ``solve`` runs damped
Newton on the precision band by default (``--method gd`` is the paper's
gradient descent), and ``feas`` decides the generic case with the same
Newton solve.  ``solve`` and ``bench`` take their methods from the one
list ``METHODS``, and ``compare`` runs the fixed rows ``_COMPARE_RUNS`` of
it; all four run, time and verify every solve through ``_run_method``
(a baseline's dense iterate projected onto circulants), so ``feas`` answers
true only for a verified witness, and ``_STATUS`` says what each status
means to ``solve`` and ``feas``.  ``compare`` measures distances between
circulant first rows, so no mN x mN matrix is built for any result.

Exit codes: 0 converged/answered, 1 I/O or parse error, 2 infeasible, by a
solve's certificate or up front (the closed form for a scalar bandwidth-1
band with sigma_0 > 0, else the block-Toeplitz test of the band's AR fit,
which ``extend`` reads too), 3 budget exhausted, no further progress or a band on the
boundary (status "boundary"), or a baseline of ``solve``, ``compare`` or
``bench`` that cannot start.  Diagnostics never change exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
import time

import numpy as np

from .blockcirc import BandData, BlockCirculant, _array, _check_sizes, circulant_average
from .errors import BadInput, CircMaxentError, NoConvergence, NotPositiveDefinite, RequiresFullR
from .feasibility import eig_affine_forms, scalar_bw1_feasible
from .generate import random_feasible_band
from .ips import ips_solve, sk1_solve
from .solver import SolverConfig, solve, verify_solution
from .toeplitz import circulant_approx, solve_yule_walker

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_MAXITER = 3
# a solve status -> (the exit code of solve, the verdict of feas): K is the
# witness of a converged solve and the certificate of an infeasible one
_STATUS = {"converged": (EXIT_OK, True), "infeasible": (EXIT_INFEASIBLE, False),
           **dict.fromkeys(("max_iter", "stalled", "boundary"), (EXIT_MAXITER, None))}
# the methods of solve, compare and bench: the dual solves, which take a
# start and return a precision band, then the dense scaling baselines
METHODS = ("newton", "gd", "ips", "sk1")
_DUAL = ("newton", "gd")
# compare's (method, start) rows; the Newton row, the most accurate, is the
# reference of its distances
_COMPARE_RUNS = (("gd", "toeplitz"), ("gd", "identity"), ("newton", "toeplitz"), ("ips", ""))


def _load_problem(path):
    with open(path) as fh:
        raw = json.load(fh)
    try:
        m, n, N, blocks = (raw[key] for key in ("m", "n", "N", "blocks"))
        _check_sizes(m, n, N)
        blocks = _array(blocks, "blocks", (n + 1, m * m))
    except (KeyError, TypeError) as exc:
        raise BadInput(f"problem file {path}: missing or malformed field ({exc})") from exc
    except BadInput as exc:
        raise type(exc)(f"problem file {path}: {exc}") from exc
    return BandData(m, n, blocks.reshape(n + 1, m, m)), N


def _rows(blocks: np.ndarray) -> np.ndarray:
    """A stack of blocks as one C-contiguous row of entries per block,
    row-major: the shape the files carry, and the layout orjson writes."""
    return np.ascontiguousarray(blocks).reshape(len(blocks), -1)


def _finite(value) -> bool:
    """Whether every float in a payload of dicts, lists, arrays and scalars
    is finite."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    return not isinstance(value, float) or math.isfinite(value)


def _emit(payload: dict, out: str) -> None:
    """Write ``payload`` as one line of compact JSON to the file ``out``,
    or to stdout for "-".

    orjson formats the numpy arrays themselves: each float is its shortest
    text that ``json.loads`` reparses to the same bits, -0.0 and subnormals
    included.  The bytes go to the file as they are, and are decoded only
    for stdout.  Raises ValueError, before it writes anything, if a float
    in the payload is not finite: orjson would write it as null."""
    import orjson  # at the first write, so that importing this module does not load it

    if not _finite(payload):
        raise ValueError("payload holds a float that is not finite, which JSON cannot carry")
    data = orjson.dumps(payload, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)
    if out == "-":
        sys.stdout.write(data.decode())
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def _emit_solution(sigma: BlockCirculant, diagnostics: dict, out: str, K=None) -> None:
    """Write a solution file: ``m``, ``N``, the completion's first block row
    as N rows of m*m entries, ``diagnostics`` and, given K, its
    ``precision_band`` as n+1 such rows (see ``_emit``)."""
    payload = {"m": sigma.m, "N": sigma.N, "first_block_row": _rows(sigma.first_row),
               "diagnostics": diagnostics}
    if K is not None:
        payload["precision_band"] = _rows(K)
    _emit(payload, out)


_TOEPLITZ_NOT_PD = ("the band's block-Toeplitz matrix, a principal submatrix of every "
                    "completion, is not positive definite")


class _Infeasible(Exception):
    """A band refused before any solve: it has no completion (exit 2)."""


def _upfront_verdict(band: BandData, N: int) -> tuple:
    """(feasible, reason, verdict) as decided before any solve: the closed
    form ``verdict`` for a scalar bandwidth-1 band with sigma_0 > 0, its
    domain, else the block-Toeplitz test of the AR fit (``solve_yule_walker``).
    ``feasible`` is None, with no reason or verdict, if the solve must decide."""
    if band.m == band.n == 1 and band.blocks[0, 0, 0] > 0:
        sigma0, sigma1 = band.blocks[:, 0, 0]
        verdict = scalar_bw1_feasible(sigma0, sigma1, N)
        reason = None if verdict.feasible else (
            f"sigma_1={float(sigma1)!r} outside ({verdict.lower!r}, {verdict.upper!r}) for N={N}")
        return verdict.feasible, reason, verdict
    try:
        solve_yule_walker(band)
    except NotPositiveDefinite:
        return False, _TOEPLITZ_NOT_PD, None
    return None, None, None


def _run_method(band, N, method, init, tol, max_iter, max_cycles, trace=None):
    """Run one method on the band, time it and verify its completion:
    a newton or gd solve against the precision band it returns, a baseline
    by factoring its circulant (see ``verify_solution``).

    ``tol`` is the method's tolerance, ``max_iter`` the step budget of
    newton and gd, ``max_cycles`` the cycle budget of ips and sk1.  Returns
    (sigma, K, diagnostics, seconds): the completion as a BlockCirculant,
    baseline iterates projected onto circulants; the precision band, None
    for the baselines; the diagnostics a solution file carries; and the
    seconds spent in the method alone, without the verification.
    """
    t0 = time.perf_counter()
    if method in _DUAL:
        cfg = SolverConfig(eta=tol, max_iter=max_iter, trace=trace)
        result = solve(band, N, cfg, init=init, method=method)
        seconds = time.perf_counter() - t0
        solution, sigma, K = result, result.sigma, result.K
        iterations, grad_norm, jbar = result.iterations, result.final_grad_norm, result.objective
        status, init_mode = result.status, result.init_mode
    else:
        runner = ips_solve if method == "ips" else sk1_solve
        scaled = runner(band, N, tol=tol, max_cycles=max_cycles)
        seconds = time.perf_counter() - t0
        sigma = circulant_average(scaled.sigma, band.m)
        solution, K = sigma, None
        iterations, grad_norm, jbar, status, init_mode = scaled.cycles, None, None, "converged", method
    report = verify_solution(solution, band)
    diagnostics = {"iterations": iterations, "grad_norm": grad_norm, "jbar": jbar,
                   "band_residual": report.band_residual, "dempster_residual": report.dempster_residual,
                   "entropy": report.entropy, "status": status, "init": init_mode}
    return sigma, K, diagnostics, seconds


def _solvable_problem(path) -> tuple:
    """The band and N of a problem file that the up-front test does not refuse."""
    band, N = _load_problem(path)
    reason = _upfront_verdict(band, N)[1]
    if reason is not None:
        raise _Infeasible(reason)
    return band, N


def cmd_solve(args) -> int:
    band, N = _solvable_problem(args.input)
    # the baselines write no trace
    traced = args.trace and args.method in _DUAL
    with open(args.trace, "w") if traced else contextlib.nullcontext() as trace:
        sigma, K, diagnostics, _ = _run_method(band, N, args.method, args.init, args.tol,
                                               args.max_iter, args.max_cycles, trace)
    _emit_solution(sigma, diagnostics, args.output, K)
    return _STATUS[diagnostics["status"]][0]


def cmd_extend(args) -> int:
    band, n_file = _load_problem(args.input)
    N = n_file if args.N is None else args.N
    # the band extension's AR fit factors the block-Toeplitz matrix
    try:
        approx = circulant_approx(band, N)
    except NotPositiveDefinite as exc:
        raise _Infeasible(_TOEPLITZ_NOT_PD) from exc
    try:
        pd, offband = True, verify_solution(approx, band).dempster_residual
    except NotPositiveDefinite:
        pd, offband = False, None
    diagnostics = {"pd": pd, "inverse_offband_norm": offband}
    _emit_solution(approx, diagnostics, args.output)
    return EXIT_OK


def cmd_feas(args) -> int:
    band, N = _load_problem(args.input)
    feasible, reason, verdict = _upfront_verdict(band, N)
    payload = {"N": N, "m": band.m, "n": band.n, "feasible": feasible, "margin": None, "bounds": None}
    if verdict is not None:
        payload.update(margin=verdict.margin, bounds=[verdict.lower, verdict.upper])
    elif reason is not None:
        payload["reason"] = reason
    else:
        _, K, diagnostics, _ = _run_method(band, N, "newton", "toeplitz", tol=None,
                                           max_iter=args.budget, max_cycles=None)
        payload["feasible"] = _STATUS[diagnostics["status"]][1]
        payload["evidence"] = {**diagnostics, "precision_band": _rows(K)}
    if band.m == 1:
        payload["forms"] = [{"k": f.k, "constant": f.constant, "distances": f.distances,
                             "coeffs": f.coeffs} for f in eig_affine_forms(band, N)]
    _emit(payload, args.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    band, N = _solvable_problem(args.input)
    rows = [(method, init, *_run_method(band, N, method, init, args.tol, args.max_iter, args.max_cycles))
            for method, init in _COMPARE_RUNS]
    # the same ratio as between the dense circulants
    ref = next(row[2].first_row for row in rows if row[0] == "newton")
    ref_norm = np.linalg.norm(ref)
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["method", "init", "iterations", "seconds", "band_residual",
         "dempster_residual", "rel_dist_to_newton"]
    )
    for method, init, sigma, _, diag, seconds in rows:
        dist = float(np.linalg.norm(sigma.first_row - ref) / ref_norm)
        writer.writerow(
            [method, init, diag["iterations"], f"{seconds:.6f}", repr(diag["band_residual"]),
             repr(diag["dempster_residual"]), repr(dist)]
        )
    return EXIT_OK


def cmd_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    band = random_feasible_band(args.m, args.n, max(args.N), rng)
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["N", "m", "n", "method", "init", "iterations", "seconds",
         "band_residual", "dempster_residual"]
    )
    starts = ["toeplitz", "identity"] if args.init == "both" else [args.init]
    for N in args.N:
        for method in args.method:
            for init in starts if method in _DUAL else [""]:
                _, _, diag, seconds = _run_method(band, N, method, init, args.tol,
                                                  args.max_iter, args.max_cycles)
                writer.writerow(
                    [N, args.m, args.n, method, init, diag["iterations"], f"{seconds:.6f}",
                     repr(diag["band_residual"]), repr(diag["dempster_residual"])]
                )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once; ``main`` runs ``cmd_<command>``."""
    parser = argparse.ArgumentParser(
        prog="circmaxent",
        description="Maximum-entropy completion of banded block-circulant covariances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="problem file (JSON)")
        p.add_argument("-o", "--output", default="-", help="output path, '-' for stdout")

    def add_budget(p):
        p.add_argument("--tol", type=float, default=None,
                       help="gd: stop on the whitened gradient norm ||L^-1 G_d L^-T||, Sigma_0 = L L^T "
                            "(default 1e-8 ||L^-1 T_n L^-T||; newton stops on its decrement and ignores it); "
                            "ips, sk1: clique or off-pattern tolerance (default 1e-9)")
        p.add_argument("--max-iter", type=int, default=1_000_000, help="newton, gd: step budget")
        p.add_argument("--max-cycles", type=int, default=2000, help="ips, sk1: cycle budget")

    p = sub.add_parser("solve", help="compute the maximum-entropy completion")
    add_common(p)
    p.add_argument("--init", choices=["toeplitz", "identity"], default="toeplitz")
    p.add_argument("--method", choices=METHODS, default="newton")
    add_budget(p)
    p.add_argument("--trace", default=None, help="newton, gd: per-iteration CSV trace file; ips, sk1 write none")

    p = sub.add_parser("extend", help="circulant approximant from the band extension")
    add_common(p)
    p.add_argument("--N", type=int, default=None, help="completion size (defaults to the file's N)")

    p = sub.add_parser("feas", help="feasibility analysis")
    add_common(p)
    p.add_argument("--budget", type=int, default=2000, help="solver iterations for the generic case")

    p = sub.add_parser("compare", help="run GD (both inits), Newton and IPS on one problem")
    p.add_argument("input", help="problem file (JSON)")
    add_budget(p)

    p = sub.add_parser("bench", help="random-instance sweep, CSV to stdout")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, nargs="+", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", nargs="+", choices=METHODS, default=["gd"])
    p.add_argument("--init", choices=["toeplitz", "identity", "both"], default="both",
                   help="start of the newton and gd runs")
    add_budget(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up by name at each call, so a replaced module global runs
        return globals()[f"cmd_{args.command}"](args)
    except _Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NoConvergence, RequiresFullR) as exc:
        # a baseline that runs out of cycles or cannot start proves nothing
        print(f"no further progress: {exc}", file=sys.stderr)
        return EXIT_MAXITER
    except (OSError, json.JSONDecodeError, CircMaxentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
