"""Gradient descent on the reduced dual of the circulant completion problem.

The maximum-entropy completion of a banded symmetric block-circulant
covariance is recovered from a dual variable: one symmetric matrix of
(n+1) x (n+1) blocks whose circulant band projection must stay positive
definite.  The dual objective is

    Tr(Lambda T_n) - log det project_band_gram(Lambda, N),

a convex function on that open domain.  It depends on Lambda only through
the block-diagonal sums that the projection forms, so it is strictly convex
in those sums but flat along directions of Lambda that leave them
unchanged; the minimizing projection, and with it the completion, is
unique.  At the minimizer the completion is the inverse of the projection,
so its own inverse is banded block-circulant by construction and the band
constraint holds at the level of the final gradient norm.  Each iteration
costs O(m^3 N + m^2 N log N): the projection is a block sum, the
log-determinant and the leading inverse band go through the frequency
blocks, and no mN x mN dense matrix is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Optional, Union

import numpy as np

from .blockcirc import (
    BandData,
    BlockCirculant,
    _sym,
    circ_inverse,
    circ_logdet,
    circulant_average,
    gaussian_entropy,
    leading_band,
    project_band_gram,
)
from .errors import BadInput, BandTooWide, InfeasibleStart, NotPositiveDefinite
from .toeplitz import phi_inverse_coeffs, solve_yule_walker

# Decreases below ~16 eps |f| cannot be read off the objective; the line
# search then reuses the last validated step instead of testing.
_NOISE_EPS = 16.0 * float(np.finfo(float).eps)
# Initial line-search step, reset every iteration.
_STEP0 = 1.0
# A dual iterate whose Frobenius norm passes this cap is reported "diverged".
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

    @classmethod
    def identity(cls, m: int, n: int) -> "DualVariable":
        return cls(m, n, np.eye((n + 1) * m))

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
    return _gradient(lam.value, band.toeplitz(), band.m, band.n, N)[0]


def _gradient(value: np.ndarray, T: np.ndarray, m: int, n: int, N: int):
    """The gradient at ``value`` and the inverse of the band projection it
    was read from (the completion implied by ``value``)."""
    sigma = circ_inverse(project_band_gram(value, m, n, N))
    return _sym(T - leading_band(sigma, n)), sigma


def _objective(value: np.ndarray, T: np.ndarray, m: int, n: int, N: int) -> float:
    proj = project_band_gram(value, m, n, N)
    try:
        logdet = circ_logdet(proj)
    except NotPositiveDefinite:
        return math.inf
    return float(np.sum(value * T)) - logdet


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
        return DualVariable.identity(m, n)
    if mode == "toeplitz":
        M = phi_inverse_coeffs(solve_yule_walker(band)).M
        size = (n + 1) * m
        value = np.zeros((size, size))
        for i in range(n + 1):
            for j in range(n + 1):
                d = abs(j - i)
                # super-diagonal block M_d^T makes the projection's first
                # row carry the limiting inverse band (M_d^T at distance d)
                x = (N / (n + 1 - d)) * M[d].T
                value[i * m:(i + 1) * m, j * m:(j + 1) * m] = x if j >= i else x.T
        return DualVariable(m, n, value)
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
    enforces feasibility), stops when the gradient's Frobenius norm drops to
    ``eta``, and symmetrizes the iterate after every update.  Returns the
    completion ``sigma`` = inverse of the final band projection: its inverse
    is banded block-circulant by construction and its band matches the data
    to a tolerance tied to ``eta``.

    A result is always returned; non-convergence is flagged in ``status``
    (see SolverResult).  If the Toeplitz warm start is infeasible the solver
    falls back to the identity start and reports it; any other infeasible
    start raises InfeasibleStart.
    """
    cfg = config if config is not None else SolverConfig()
    m, n = band.m, band.n
    if N < 2 * n + 2:
        raise BandTooWide(f"N={N} < 2n+2={2 * n + 2}")
    T = band.toeplitz()
    eta = cfg.eta if cfg.eta is not None else 1e-8 * max(1.0, float(np.linalg.norm(T)))

    if isinstance(init, DualVariable):
        value, init_mode = init.value, "custom"
    else:
        value, init_mode = init_lambda(band, N, init).value, init
    f = _objective(value, T, m, n, N)
    if not math.isfinite(f):
        if init_mode != "toeplitz":
            raise InfeasibleStart(f"{init_mode} start lies outside the dual domain for N={N}")
        value = DualVariable.identity(m, n).value
        init_mode = "identity (fallback from toeplitz)"
        f = _objective(value, T, m, n, N)
    g, sigma = _gradient(value, T, m, n, N)
    gnorm = float(np.linalg.norm(g))
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
        noise = _NOISE_EPS * max(1.0, abs(f))
        # Armijo test when the predicted decrease is readable off f; below
        # that resolution step at the last validated scale and test only
        # that the point stays in the domain.
        armijo = cfg.alpha * _STEP0 * (-slope) >= noise or t_acc is None
        t = _STEP0 if armijo else t_acc
        f_new = _objective(value - t * g, T, m, n, N)
        while (f_new > f + cfg.alpha * t * slope) if armijo else not math.isfinite(f_new):
            t *= cfg.beta
            backtracks += 1
            if t < 1e-18:
                status = "stalled"
                break
            f_new = _objective(value - t * g, T, m, n, N)
        if status is not None:
            break
        if armijo:
            t_acc = t
        value = _sym(value - t * g)
        f = f_new
        g, sigma = _gradient(value, T, m, n, N)
        gnorm = float(np.linalg.norm(g))
        iterations += 1
        trace.append(f)
        if cfg.trace is not None:
            cfg.trace.write(f"{iterations},{f!r},{gnorm!r},{t!r}\n")
        if float(np.linalg.norm(value)) > _LAMBDA_CAP:
            status = "diverged"
            break
    if status is None:
        status = "converged"

    lam_star = DualVariable(m, n, value)
    return SolverResult(
        lambda_star=lam_star,
        sigma=sigma,
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
    Gaussian entropy of the completion.
    """
    if isinstance(solution, SolverResult):
        sigma = solution.sigma
    elif isinstance(solution, BlockCirculant):
        sigma = solution
    else:
        sigma = circulant_average(np.asarray(solution, dtype=float), band.m)
    T = band.toeplitz()
    band_res = float(np.linalg.norm(leading_band(sigma, band.n) - T) / np.linalg.norm(T))
    kinv = circ_inverse(sigma)
    off = kinv.first_row[band.n + 1: sigma.N - band.n]
    ref = float(np.linalg.norm(kinv.first_row[0]))
    dempster = float(max(np.linalg.norm(blk) for blk in off) / ref) if len(off) else 0.0
    return SolutionReport(
        band_residual=band_res,
        dempster_residual=dempster,
        entropy=gaussian_entropy(sigma),
    )
