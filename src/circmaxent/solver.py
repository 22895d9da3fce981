"""Gradient descent on the reduced dual of the circulant completion problem.

The maximum-entropy completion of a banded symmetric block-circulant
covariance is recovered from a dual variable: one symmetric matrix Lambda of
(n+1) x (n+1) blocks whose circulant band projection must stay positive
definite.  The dual objective is

    Tr(Lambda T_n) - log det project_band_gram(Lambda, N),

a convex function on that open domain.  It depends on Lambda only through
its block-diagonal sums, which are N times the band K_0..K_n of the
projection (the circulant precision), and it is strictly convex in K, so the
minimizing band, and with it the completion, is unique.  ``solve`` iterates
on K, an (n+1, m, m) array, taking exactly the gradient step in Lambda
reduced to the band; Lambda appears only in the adapters (``DualVariable``,
``init_lambda``, ``dual_objective``, ``dual_gradient``, ``lambda_star``).
The completion is the inverse of the projection, so its own inverse is
banded block-circulant by construction and the band constraint holds at the
level of the final gradient norm.  An evaluation touches only the
floor(N/2)+1 frequency blocks Psi_0..Psi_{N/2}: it forms them straight from
the n+1 band blocks through a cached phase table, factors them with one
batched Cholesky for the log-determinant, and the gradient inverts the same
blocks and reads the n+1 inverse lags back through the conjugate table.
That is O(m^3 N + m^2 n N) per iteration with no FFT; one real inverse FFT
builds the completion at exit.  No mN x mN dense matrix is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Optional, Union

import numpy as np

from .blockcirc import (
    BandData,
    BlockCirculant,
    _band_lags,
    _band_spectrum,
    _block_toeplitz,
    _cholesky_blocks,
    _dual_band,
    _factored_entropy,
    _half_logdet,
    _sym,
    circ_inverse,
    circ_logdet,
    circulant_average,
    leading_band,
    project_band_gram,
)
from .errors import BadInput, BandTooWide, InfeasibleStart, NotPositiveDefinite
from .toeplitz import phi_inverse_coeffs, solve_yule_walker

# Decreases below ~16 eps times the objective's terms cannot be read off it;
# the line search then reuses the last validated step instead of testing.
_NOISE_EPS = 16.0 * float(np.finfo(float).eps)
# Initial line-search step, reset every iteration.
_STEP0 = 1.0
# A dual iterate whose Lambda's Frobenius norm passes this cap is "diverged".
_LAMBDA_CAP = 1e10


@dataclass(frozen=True)
class DualVariable:
    """Symmetric dual matrix of (n+1) x (n+1) blocks of size m."""

    m: int
    n: int
    value: np.ndarray

    def __post_init__(self):
        size = (self.n + 1) * self.m
        value = np.asarray(self.value, dtype=float)
        if value.shape != (size, size):
            raise BadInput(f"dual matrix shape {value.shape} != {(size, size)}")
        object.__setattr__(self, "value", _sym(value))

    def project(self, N: int) -> BlockCirculant:
        return project_band_gram(self.value, self.m, self.n, N)

    def is_feasible(self, N: int) -> bool:
        """Membership in the dual domain: the band projection is PD."""
        try:
            circ_logdet(self.project(N))
        except NotPositiveDefinite:
            return False
        return True


@dataclass
class SolverConfig:
    """Backtracking gradient descent parameters.

    ``eta`` is the gradient-norm stopping threshold (Frobenius norm, a cheap
    equivalent of the spectral norm up to dimension constants); when None it
    defaults to 1e-8 * max(1, ||T_n||_F) at solve time.  The line-search step
    resets to 1 every iteration.
    """

    alpha: float = 0.3
    beta: float = 0.5
    eta: Optional[float] = None
    max_iter: int = 1_000_000
    trace: Optional[IO[str]] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise BadInput(f"alpha={self.alpha} outside (0, 0.5)")
        if not 0.0 < self.beta < 1.0:
            raise BadInput(f"beta={self.beta} outside (0, 1)")
        if self.max_iter < 0:
            raise BadInput(f"max_iter={self.max_iter} is negative")


@dataclass
class SolverResult:
    """Outcome of one dual descent run.

    ``status`` is one of "converged", "max_iter", "diverged" (dual norm blew
    past the cap; the problem is likely infeasible) or "stalled" (progress
    fell below floating-point resolution).  ``sigma`` is always the
    completion implied by the final iterate.
    """

    lambda_star: DualVariable
    sigma: BlockCirculant
    iterations: int
    final_grad_norm: float
    objective_trace: list = field(default_factory=list)
    line_search_backtracks_total: int = 0
    converged: bool = False
    status: str = ""
    init_mode: str = ""


@dataclass(frozen=True)
class SolutionReport:
    """Residuals of a candidate completion against the given band."""

    band_residual: float
    dempster_residual: float
    entropy: float


def dual_objective(lam: DualVariable, band: BandData, N: int) -> float:
    """Tr(Lambda T_n) - log det of the band projection; +inf outside the
    domain (so backtracking line searches shrink straight through it)."""
    return _objective(lam.value, band.toeplitz(), band.m, band.n, N)


def dual_gradient(lam: DualVariable, band: BandData, N: int) -> np.ndarray:
    """Gradient T_n - E^T (projection)^{-1} E of the dual objective.

    Raises
    ------
    NotPositiveDefinite
        If the iterate is outside the dual domain.
    """
    return _sym(band.toeplitz() - leading_band(circ_inverse(lam.project(N)), band.n))


def _objective(value: np.ndarray, T: np.ndarray, m: int, n: int, N: int) -> float:
    """The dual objective at a full Lambda with T = T_n, or at a band K with
    T = the weighted data band D (see ``solve``): sum(value * T) is
    Tr(Lambda T_n) in either form.  A full Lambda is reduced to its band
    first; the log-determinant comes from the Cholesky factors of the band's
    floor(N/2)+1 frequency blocks."""
    K = _dual_band(value, m, n, N)
    if not np.isfinite(K).all():
        return math.inf
    try:
        logdet = _half_logdet(_cholesky_blocks(_band_spectrum(K, N), "objective"), N)
    except NotPositiveDefinite:
        return math.inf
    return float(np.sum(value * T)) - logdet


def _gradient(K: np.ndarray, data: np.ndarray, m: int, n: int, N: int):
    """Band gradient G_d = Sigma_d^T - sigma_d at a band K inside the dual
    domain (``data`` holds the Sigma_d^T), and the frequency blocks
    Psi_0..Psi_{N/2} of the completion sigma, the inverse of K's circulant,
    that the lags sigma_d were read off; their ``np.fft.irfft`` of length N
    is sigma's first row.  G_d is block (i, i+d) of the gradient in Lambda."""
    inv = np.linalg.inv(_band_spectrum(K, N))
    G = data - _band_lags(inv, n, N)
    G[0] = _sym(G[0])
    return G, inv


def _band_norm(B: np.ndarray) -> float:
    """Frobenius norm of the symmetric block-Toeplitz matrix with first block
    row B, where block d appears n+1-d times on each side of the diagonal."""
    cw = 2.0 * np.arange(len(B), 0, -1)
    cw[0] = len(B)
    return math.sqrt(float(np.einsum("d,dij,dij->", cw, B, B)))


def _lift(K: np.ndarray, N: int) -> DualVariable:
    """The block-Toeplitz dual with band projection K: block (i, i+d) is
    (N / (n+1-d)) * K_d."""
    w = np.arange(len(K), 0, -1.0)[:, None, None]
    return DualVariable(K.shape[1], len(K) - 1, _block_toeplitz((N / w) * K))


def init_lambda(band: BandData, N: int, mode: str = "toeplitz") -> DualVariable:
    """Starting dual variable.

    "identity" returns the identity matrix (always in the domain: its band
    projection is ((n+1)/N) I).  "toeplitz" inverts the projection formulas
    under a block-Toeplitz ansatz so that the projection's band equals the
    Laurent coefficients of the extension's inverse spectral density, i.e.
    the limit the optimal projection approaches as N grows; block (i, i+d)
    is (N / (n+1-d)) * M_d^T.  Membership in the dual domain is not checked
    here (see ``DualVariable.is_feasible``); ``solve`` checks its start.
    """
    m, n = band.m, band.n
    if N < 2 * n + 2:
        raise BandTooWide(f"N={N} < 2n+2={2 * n + 2}")
    if mode == "identity":
        return DualVariable(m, n, np.eye((n + 1) * m))
    if mode == "toeplitz":
        return _lift(np.swapaxes(phi_inverse_coeffs(solve_yule_walker(band)).M, 1, 2), N)
    raise BadInput(f"unknown init mode {mode!r}")


def solve(
    band: BandData,
    N: int,
    config: Optional[SolverConfig] = None,
    init: Union[str, DualVariable] = "toeplitz",
) -> SolverResult:
    """Minimize the dual objective by backtracking gradient descent.

    Descends along the negative gradient with Armijo backtracking (the
    objective evaluates to +inf outside the domain, so the line search also
    enforces feasibility) and stops when the gradient's Frobenius norm drops
    to ``eta``.  The start is reduced to its band K, which is the iterate;
    ``lambda_star`` is the block-Toeplitz Lambda of the final band.  Returns
    the completion ``sigma`` = inverse of the final band projection: its
    inverse is banded block-circulant by construction and its band matches
    the data to a tolerance tied to ``eta``.

    A result is always returned; non-convergence is flagged in ``status``
    (see SolverResult).  If the Toeplitz warm start is infeasible the solver
    falls back to the identity start and reports it; any other infeasible
    start raises InfeasibleStart.
    """
    cfg = config if config is not None else SolverConfig()
    m, n = band.m, band.n
    # The gradient step in Lambda moves the block sum N K_d by the w_d =
    # n+1-d gradient blocks on its diagonal, and Tr(Lambda T_n) = sum(K * D)
    # since block d of T_n sits once on the diagonal and twice off it.
    w = np.arange(n + 1, 0, -1.0)[:, None, None]
    data = np.swapaxes(band.blocks, 1, 2)
    D = 2.0 * N * data
    D[0] *= 0.5
    eta = cfg.eta if cfg.eta is not None else 1e-8 * max(1.0, _band_norm(data))

    if isinstance(init, DualVariable):
        lam, init_mode = init, "custom"
    else:
        lam, init_mode = init_lambda(band, N, init), init
    K = _dual_band(lam.value, m, n, N)
    f = _objective(K, D, m, n, N)
    if not math.isfinite(f):
        if init_mode != "toeplitz":
            raise InfeasibleStart(f"{init_mode} start lies outside the dual domain for N={N}")
        K = np.zeros_like(K)
        K[0] = (n + 1) / N * np.eye(m)  # the identity start's band
        init_mode = "identity (fallback from toeplitz)"
        f = _objective(K, D, m, n, N)
    G, inv = _gradient(K, data, m, n, N)
    gnorm = _band_norm(G)
    trace = [f]
    backtracks = 0
    iterations = 0
    status = None
    t_acc = None  # last Armijo-validated step

    if cfg.trace is not None:
        cfg.trace.write("iter,jbar,grad_norm,step\n")
        cfg.trace.write(f"0,{f!r},{gnorm!r},0.0\n")

    while gnorm > eta:
        if iterations >= cfg.max_iter:
            status = "max_iter"
            break
        slope = -(gnorm ** 2)  # Tr(grad^T direction) for direction = -grad
        # f is Tr(K D) - logdet, so its rounding error scales with the
        # larger of the two terms, not with f itself.
        noise = _NOISE_EPS * max(1.0, abs(f), abs(float(np.vdot(K, D))))
        # Armijo test when the predicted decrease is readable off f; below
        # that resolution step at the last validated scale and test only
        # that the point stays in the domain.
        armijo = cfg.alpha * _STEP0 * (-slope) >= noise or t_acc is None
        t = _STEP0 if armijo else t_acc
        step = (w / N) * G
        f_new = _objective(K - t * step, D, m, n, N)
        while (f_new > f + cfg.alpha * t * slope) if armijo else not math.isfinite(f_new):
            t *= cfg.beta
            backtracks += 1
            if t < 1e-18:
                status = "stalled"
                break
            f_new = _objective(K - t * step, D, m, n, N)
        if status is not None:
            break
        if armijo:
            t_acc = t
        K = K - t * step
        f = f_new
        G, inv = _gradient(K, data, m, n, N)
        gnorm = _band_norm(G)
        iterations += 1
        trace.append(f)
        if cfg.trace is not None:
            cfg.trace.write(f"{iterations},{f!r},{gnorm!r},{t!r}\n")
        if _band_norm((N / w) * K) > _LAMBDA_CAP:
            status = "diverged"
            break
    if status is None:
        status = "converged"

    return SolverResult(
        lambda_star=_lift(K, N),
        sigma=BlockCirculant(m, N, np.fft.irfft(inv, n=N, axis=0)),
        iterations=iterations,
        final_grad_norm=gnorm,
        objective_trace=trace,
        line_search_backtracks_total=backtracks,
        converged=status == "converged",
        status=status,
        init_mode=init_mode,
    )


def verify_solution(solution, band: BandData) -> SolutionReport:
    """Residual report for a completion.

    Accepts a SolverResult, a BlockCirculant, or a dense symmetric matrix
    (baseline iterates; projected onto circulants first).  Reports the
    relative band residual, the Dempster residual (largest off-band block of
    the freshly computed inverse, relative to its diagonal block), and the
    Gaussian entropy of the completion, both from one factorization of its
    frequency blocks, which raises NotPositiveDefinite if it is not PD.
    """
    if isinstance(solution, SolverResult):
        sigma = solution.sigma
    elif isinstance(solution, BlockCirculant):
        sigma = solution
    else:
        sigma = circulant_average(np.asarray(solution, dtype=float), band.m)
    data = np.swapaxes(band.blocks, 1, 2)
    band_res = _band_norm(sigma.first_row[: band.n + 1] - data) / _band_norm(data)
    head, entropy = _factored_entropy(sigma, "verify_solution")
    kinv = np.fft.irfft(np.linalg.inv(head), n=sigma.N, axis=0)  # first row
    off = kinv[band.n + 1: sigma.N - band.n]
    ref = float(np.linalg.norm(kinv[0]))
    dempster = float(np.linalg.norm(off, axis=(1, 2)).max() / ref) if len(off) else 0.0
    return SolutionReport(band_residual=band_res, dempster_residual=dempster, entropy=entropy)
