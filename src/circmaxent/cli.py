"""Command-line front end: problem I/O, solver orchestration, sweeps.

Problem files are JSON: {"m", "n", "N", "blocks"} with n+1 blocks of m*m
scalars row-major (Sigma_0 first).  Solution files carry the first block row
of the completion plus diagnostics, and Newton and GD solutions the
precision band K_0..K_n, the first-row blocks of the completion's banded
inverse, as compact one-line JSON.  Floats are serialized with Python's
shortest round-trip representation, which reparses bit-exactly.  ``solve``
runs damped Newton on the precision band by default (``--method gd`` is the
paper's gradient descent), and ``feas`` decides the generic case with the
same Newton solve.  ``solve``, ``compare`` and ``bench`` run, time and
verify every method through ``_run_method``, which projects a baseline's
dense iterate onto circulants; ``compare`` measures distances between
circulant first rows, so no mN x mN matrix is built for any result.

Exit codes: 0 converged/answered, 1 I/O or parse error, 2 infeasible, by
a solve's certificate or up front (``solve`` and ``compare`` decide a scalar
bandwidth-1 band by its closed form, and reject any band whose block-Toeplitz
matrix is not positive definite, as ``extend`` does), 3 iteration or cycle
budget exhausted or no further progress, including a baseline that cannot
start.  Diagnostics never change exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time

import numpy as np

from .blockcirc import BandData, BlockCirculant, circulant_average
from .errors import BadInput, CircMaxentError, NoConvergence, NotPositiveDefinite, RequiresFullR
from .feasibility import eig_affine_forms, scalar_bw1_feasible
from .generate import random_feasible_band
from .ips import ips_solve, sk1_solve
from .solver import SolverConfig, solve, verify_solution
from .toeplitz import circulant_approx

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_MAXITER = 3
# exit code of a solve that ran, by its status
_STATUS_EXIT = {"converged": EXIT_OK, "infeasible": EXIT_INFEASIBLE, "max_iter": EXIT_MAXITER, "stalled": EXIT_MAXITER}


def _size(value) -> int:
    """A size read from a problem file: a JSON integer, or a float with an
    integral value.  Bools and fractions are malformed."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"size {value!r} is not an integer")


def _load_problem(path):
    with open(path) as fh:
        raw = json.load(fh)
    try:
        m, n, N = (_size(raw[key]) for key in ("m", "n", "N"))
        blocks = np.asarray(raw["blocks"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInput(f"problem file {path}: missing or malformed field ({exc})") from exc
    if m < 1 or n < 0 or N < 2:
        raise BadInput(f"problem file {path}: m={m}, n={n}, N={N} out of range")
    if N < 2 * n + 2:
        raise BadInput(f"problem file {path}: N={N} < 2n+2={2 * n + 2}")
    if blocks.shape != (n + 1, m * m):
        raise BadInput(f"problem file {path}: blocks have shape {blocks.shape}, expected {(n + 1, m * m)}")
    return BandData(m, n, blocks.reshape(n + 1, m, m)), N


def _solution_payload(sigma: BlockCirculant, diagnostics: dict, K=None) -> dict:
    payload = {
        "m": sigma.m,
        "N": sigma.N,
        "first_block_row": [blk.reshape(-1).tolist() for blk in sigma.first_row],
        "diagnostics": diagnostics,
    }
    if K is not None:
        payload["precision_band"] = [blk.reshape(-1).tolist() for blk in K]
    return payload


def _emit(payload: dict, out: str) -> None:
    # compact: with an indent CPython falls back to its pure-Python encoder
    text = json.dumps(payload)
    if out == "-":
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


_TOEPLITZ_NOT_PD = ("the band's block-Toeplitz matrix, a principal submatrix of every "
                    "completion, is not positive definite")


def _toeplitz_pd(band: BandData) -> bool:
    """Whether the (n+1)-block Toeplitz matrix of the band is positive
    definite; if it is not, no completion is."""
    try:
        np.linalg.cholesky(band.toeplitz())
    except np.linalg.LinAlgError:
        return False
    return True


def _infeasible_reason(band: BandData, N: int) -> str | None:
    """Why the band has no completion of size N, when that is decided up
    front: the closed form for scalar bandwidth 1, else the block-Toeplitz
    test.  None means the solve has to decide."""
    if band.m == 1 and band.n == 1:
        verdict = scalar_bw1_feasible(band.blocks[0, 0, 0], band.blocks[1, 0, 0], N)
        if verdict.feasible:
            return None
        return (f"sigma_1={float(band.blocks[1, 0, 0])!r} outside "
                f"({verdict.lower!r}, {verdict.upper!r}) for N={N}")
    return None if _toeplitz_pd(band) else _TOEPLITZ_NOT_PD


def _run_method(band, N, method, init, args, trace=None):
    """Run one method on the band, time it and verify its completion:
    a newton or gd solve against the precision band it returns, a baseline
    by factoring its circulant (see ``verify_solution``).

    ``args`` supplies ``tol``, ``max_iter`` (newton, gd) and ``max_cycles``
    (ips, sk1).  Returns (sigma, K, diagnostics, seconds): the completion as
    a BlockCirculant, baseline iterates projected onto circulants; the
    precision band, None for the baselines; the diagnostics a solution file
    carries; and the seconds spent in the method alone, without the
    verification.
    """
    t0 = time.perf_counter()
    if method in ("newton", "gd"):
        cfg = SolverConfig(eta=args.tol, max_iter=args.max_iter, trace=trace)
        result = solve(band, N, cfg, init=init, method=method)
        seconds = time.perf_counter() - t0
        solution, sigma, K = result, result.sigma, result.K
        iterations, grad_norm, jbar = result.iterations, result.final_grad_norm, result.objective
        status, init_mode = result.status, result.init_mode
    else:
        runner = ips_solve if method == "ips" else sk1_solve
        scaled = runner(band, N, tol=1e-9 if args.tol is None else args.tol, max_cycles=args.max_cycles)
        seconds = time.perf_counter() - t0
        sigma = circulant_average(scaled.sigma, band.m)
        solution, K = sigma, None
        iterations, grad_norm, jbar, status, init_mode = scaled.cycles, None, None, "converged", method
    report = verify_solution(solution, band)
    diagnostics = {
        "iterations": iterations,
        "grad_norm": grad_norm,
        "jbar": jbar,
        "band_residual": report.band_residual,
        "dempster_residual": report.dempster_residual,
        "entropy": report.entropy,
        "status": status,
        "init": init_mode,
    }
    return sigma, K, diagnostics, seconds


def cmd_solve(args) -> int:
    band, N = _load_problem(args.input)
    reason = _infeasible_reason(band, N)
    if reason is not None:
        print(f"infeasible: {reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    # the baselines write no trace
    traced = args.trace and args.method in ("newton", "gd")
    with open(args.trace, "w") if traced else contextlib.nullcontext() as trace:
        try:
            sigma, K, diagnostics, _ = _run_method(band, N, args.method, args.init, args, trace)
        except (NoConvergence, RequiresFullR) as exc:
            # a baseline that runs out of cycles or cannot start proves nothing
            print(f"no further progress: {exc}", file=sys.stderr)
            return EXIT_MAXITER
    _emit(_solution_payload(sigma, diagnostics, K), args.output)
    return _STATUS_EXIT[diagnostics["status"]]


def cmd_extend(args) -> int:
    band, n_file = _load_problem(args.input)
    N = n_file if args.N is None else args.N
    # the band extension needs the AR fit, which needs a PD Toeplitz matrix
    if not _toeplitz_pd(band):
        print(f"infeasible: {_TOEPLITZ_NOT_PD}", file=sys.stderr)
        return EXIT_INFEASIBLE
    approx = circulant_approx(band, N)
    try:
        pd, offband = True, verify_solution(approx, band).dempster_residual
    except NotPositiveDefinite:
        pd, offband = False, None
    diagnostics = {"pd": pd, "inverse_offband_norm": offband}
    _emit(_solution_payload(approx, diagnostics), args.output)
    return EXIT_OK


def cmd_feas(args) -> int:
    band, N = _load_problem(args.input)
    payload = {"N": N, "m": band.m, "n": band.n, "feasible": None, "margin": None, "bounds": None}
    if band.m == 1 and band.n == 1:
        verdict = scalar_bw1_feasible(band.blocks[0, 0, 0], band.blocks[1, 0, 0], N)
        payload.update(feasible=verdict.feasible, margin=verdict.margin, bounds=[verdict.lower, verdict.upper])
    elif not _toeplitz_pd(band):
        payload.update(feasible=False, reason=_TOEPLITZ_NOT_PD)
    else:
        result = solve(band, N, SolverConfig(max_iter=args.budget), method="newton")
        # K is the witness of a converged solve, the certificate of an infeasible one
        payload["feasible"] = {"converged": True, "infeasible": False}.get(result.status)
        payload["evidence"] = {
            "status": result.status,
            "iterations": result.iterations,
            "grad_norm": result.final_grad_norm,
            "precision_band": [blk.reshape(-1).tolist() for blk in result.K],
        }
    if band.m == 1:
        payload["forms"] = [
            {
                "k": f.k,
                "constant": f.constant,
                "distances": f.distances.tolist(),
                "coeffs": f.coeffs.tolist(),
            }
            for f in eig_affine_forms(band, N)
        ]
    _emit(payload, args.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    band, N = _load_problem(args.input)
    reason = _infeasible_reason(band, N)
    if reason is not None:
        print(f"infeasible: {reason}", file=sys.stderr)
        return EXIT_INFEASIBLE
    rows = [(method, init, *_run_method(band, N, method, init, args))
            for method, init in (("gd", "toeplitz"), ("gd", "identity"), ("ips", ""))]
    # the same ratio as between the dense circulants
    ref = rows[0][2].first_row
    ref_norm = np.linalg.norm(ref)
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["method", "init", "iterations", "seconds", "band_residual",
         "dempster_residual", "rel_dist_to_gd_toeplitz"]
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
    gd_inits = ["toeplitz", "identity"] if args.init == "both" else [args.init]
    for N in args.N:
        for method in args.method:
            for init in gd_inits if method == "gd" else [""]:
                _, _, diag, seconds = _run_method(band, N, method, init, args)
                writer.writerow(
                    [N, args.m, args.n, method, init, diag["iterations"], f"{seconds:.6f}",
                     repr(diag["band_residual"]), repr(diag["dempster_residual"])]
                )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circmaxent",
        description="Maximum-entropy completion of banded block-circulant covariances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="problem file (JSON)")
        p.add_argument("-o", "--output", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("solve", help="compute the maximum-entropy completion")
    add_common(p)
    p.add_argument("--init", choices=["toeplitz", "identity"], default="toeplitz")
    p.add_argument("--method", choices=["newton", "gd", "ips", "sk1"], default="newton")
    p.add_argument("--tol", type=float, default=None,
                   help="gradient-norm stopping threshold (newton: an extra stop)")
    p.add_argument("--max-iter", type=int, default=1_000_000)
    p.add_argument("--max-cycles", type=int, default=2000)
    p.add_argument("--trace", default=None, help="per-iteration CSV trace file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("extend", help="circulant approximant from the band extension")
    add_common(p)
    p.add_argument("--N", type=int, default=None, help="completion size (defaults to the file's N)")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("feas", help="feasibility analysis")
    add_common(p)
    p.add_argument("--budget", type=int, default=2000, help="solver iterations for the generic case")
    p.set_defaults(func=cmd_feas)

    p = sub.add_parser("compare", help="run GD (both inits) and IPS on one problem")
    p.add_argument("input", help="problem file (JSON)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=1_000_000)
    p.add_argument("--max-cycles", type=int, default=2000)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="random-instance sweep, CSV to stdout")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, nargs="+", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", nargs="+", choices=["gd", "ips", "sk1"], default=["gd"])
    p.add_argument("--init", choices=["toeplitz", "identity", "both"], default="both")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=1_000_000)
    p.add_argument("--max-cycles", type=int, default=2000)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, CircMaxentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
