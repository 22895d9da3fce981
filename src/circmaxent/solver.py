"""Descent on the reduced dual of the circulant completion problem.

The maximum-entropy completion of a banded symmetric block-circulant
covariance is recovered from a dual variable: one symmetric matrix Lambda of
(n+1) x (n+1) blocks whose circulant band projection must stay positive
definite.  The dual objective is

    Tr(Lambda T_n) - log det project_band_gram(Lambda, N),

a convex function on that open domain.  It depends on Lambda only through
its block-diagonal sums, which are N times the band K_0..K_n of the
projection (the circulant precision, the bilateral AR model of the
completion), and it is strictly convex in K, so the minimizing band, and
with it the completion, is unique.  ``solve`` starts from a band and
iterates on K, an (n+1, m, m) array, and returns the final band as ``K``.
A full Lambda is read only by ``dual_gradient`` and built only by
``init_lambda``.

One backtracking loop takes one of two steps.  ``method="gd"``, the
default, is the paper's algorithm: exactly the gradient step in Lambda
reduced to the band, stopped at a gradient norm ``eta``.  ``method="newton"``
is damped Newton on the p = m(m+1)/2 + n m^2 band entries: the Hessian is
assembled in the lag domain from the same inverse frequency blocks as the
gradient, in O(n m^4 N), and factored by Cholesky; the solve stops on the
squared Newton decrement, which is affine invariant, so the stopping rule
and the step count do not depend on the scale of the data.

The completion is the inverse of the projection, so its own inverse is
banded block-circulant by construction and the band constraint holds at the
level of the final gradient norm.  Each point the loop visits is evaluated
once: ``_objective`` forms the floor(N/2)+1 frequency blocks
Psi_0..Psi_{N/2} straight from the n+1 band blocks through a cached phase
table, factors them with one batched Cholesky for the log-determinant, and
returns the blocks with the objective and its linear term Tr(K D).  At an
accepted point the gradient inverts those same blocks and reads the n+1
inverse lags back through the conjugate table, the Newton step reuses the
inverse blocks, and the line search's noise floor reuses the linear term;
a rejected trial costs one spectrum and one Cholesky.  That is
O(m^3 N + m^2 n N) per gradient step with no FFT; one real inverse FFT
builds the completion at exit.  ``verify_solution`` checks a result against
the band it returns: one spectrum and one Cholesky of K, one real FFT of the
completion and two batched block products, O(m^3 N + m^2 N log N) with no
inverse.  No mN x mN dense matrix is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Optional

import numpy as np

from .blockcirc import (
    BandData,
    BlockCirculant,
    _band_lags,
    _band_norm,
    _band_spectrum,
    _block_toeplitz,
    _cholesky_blocks,
    _dual_band,
    _factored,
    _half_logdet,
    _hessian_lags,
    _sym,
)
from .errors import BadInput, BandTooWide, NotPositiveDefinite
from .toeplitz import phi_inverse_coeffs, solve_yule_walker

LOG_2PI = float(np.log(2.0 * np.pi))
# Armijo sufficient-decrease fraction and backtracking factor.
_ALPHA = 0.3
_BETA = 0.5
# Decreases below ~16 eps times the objective's terms cannot be read off it;
# the line search then reuses the last validated step instead of testing.
_NOISE_EPS = 16.0 * float(np.finfo(float).eps)
# Initial line-search step, reset every iteration.
_STEP0 = 1.0
# A budget guard on N max|K| max|data|, not a verdict: data on the boundary
# of the feasible set have no strict certificate, and their K grows unbounded.
_LAMBDA_CAP = 1e10
# Newton stops when half its squared decrement, a bound on f - f* near the
# optimum, falls to this.
_DECREMENT_TOL = 1e-20
# f is self-concordant, so at a squared Newton decrement below
# ((1 - 2 alpha) / 4)^2 the full step passes the Armijo test in exact
# arithmetic (Boyd & Vandenberghe 9.6.4) and lands inside the domain, and
# the decrement then falls quadratically.  There Newton takes the full step
# untested: near the domain's boundary f's rounding error can exceed the
# predicted decrease, and the test would fail on rounding alone.
_FULL_STEP = ((1.0 - 2.0 * _ALPHA) / 4.0) ** 2


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


@dataclass
class SolverConfig:
    """Backtracking descent parameters.

    ``eta`` is the gradient-norm stopping threshold (Frobenius norm, a cheap
    equivalent of the spectral norm up to dimension constants).  For
    gradient descent it defaults, when None, to 1e-8 * ||T_n||_F at solve
    time, relative at every scale of the data; Newton stops on its
    decrement and uses ``eta`` only when it is given, as an extra stop.
    The line-search step resets to 1 every iteration.  A negative or NaN
    ``eta``, which no gradient norm can meet, an infinite one, which any
    start meets, and a negative ``max_iter`` raise BadInput; ``eta = 0`` is
    legal.
    """

    eta: Optional[float] = None
    max_iter: int = 1_000_000
    trace: Optional[IO[str]] = None

    def __post_init__(self):
        if self.max_iter < 0:
            raise BadInput(f"max_iter={self.max_iter} is negative")
        if self.eta is not None and not 0 <= self.eta < math.inf:
            raise BadInput(f"eta={self.eta!r} is not a finite non-negative number")


@dataclass
class SolverResult:
    """Outcome of one dual descent run.

    ``status`` is one of "converged", "max_iter", "infeasible" (K certifies
    that the data have no completion; see ``solve``) or "stalled" (progress
    fell below floating-point resolution, the Newton system was singular or
    not finite, or K passed the cap).  ``K`` is the final iterate, the
    precision band K_0..K_n (n+1, m, m), and ``sigma`` the completion it
    implies, the inverse of K's banded block-circulant C(K).  ``objective``
    is the dual objective f at K; a ``SolverConfig.trace`` sink receives f at
    every iterate.
    """

    K: np.ndarray
    sigma: BlockCirculant
    iterations: int
    final_grad_norm: float
    objective: float
    line_search_backtracks_total: int = 0
    converged: bool = False
    status: str = ""
    init_mode: str = ""


@dataclass(frozen=True)
class SolutionReport:
    """Residuals of a candidate completion against the given band.

    ``dempster_residual`` is max_l ||L_l^H S_l L_l - I||_F for a
    SolverResult, checked against its precision band, where a value below 1
    certifies the completion positive definite, and the largest off-band
    block of the inverse, relative to its diagonal block, for a bare
    BlockCirculant (see ``verify_solution``).
    """

    band_residual: float
    dempster_residual: float
    entropy: float


def dual_gradient(lam: DualVariable, band: BandData, N: int) -> np.ndarray:
    """Gradient T_n - E^T (projection)^{-1} E of the dual objective: the
    block-Toeplitz matrix of the band gradient at Lambda's band.

    Raises
    ------
    NotPositiveDefinite
        If the iterate is outside the dual domain.
    """
    psi = _band_spectrum(_dual_band(lam.value, band.m, band.n, N), N)
    _cholesky_blocks(psi, "dual_gradient")
    return _block_toeplitz(_gradient(psi, np.swapaxes(band.blocks, 1, 2), N)[0])


def _objective(value: np.ndarray, T: np.ndarray, m: int, n: int, N: int, parts: bool = False):
    """The dual objective at a full Lambda with T = T_n, or at a band K with
    T = the weighted data band D (see ``solve``): vdot(value, T) is
    Tr(Lambda T_n) in either form.  A full Lambda is reduced to its band
    first; the log-determinant comes from the Cholesky factors of the band's
    floor(N/2)+1 frequency blocks.  +inf outside the dual domain.

    With ``parts`` it returns (f, psi, lin): the objective, the frequency
    blocks it factored (None outside the domain) and the linear term
    Tr(Lambda T_n), which the gradient and the line search's noise floor
    reuse, so that each point is evaluated once."""
    K = _dual_band(value, m, n, N)
    # T is finite, so a non-finite entry of value makes lin NaN or infinite
    # (0 * inf is NaN): lin doubles as the finiteness test of K
    f, psi, lin = math.inf, None, float(np.vdot(value, T))
    if math.isfinite(lin):
        psi = _band_spectrum(K, N)
        try:
            f = lin - _half_logdet(_cholesky_blocks(psi, "objective"), N)
        except NotPositiveDefinite:
            psi = None
    return (f, psi, lin) if parts else f


def _gradient(psi: np.ndarray, data: np.ndarray, N: int):
    """Band gradient G_d = Sigma_d^T - sigma_d at a band inside the dual
    domain, from its frequency blocks ``psi`` (``data`` holds the
    Sigma_d^T), and the frequency blocks Psi_0..Psi_{N/2} of the completion
    sigma, the inverse of the band's circulant, that the lags sigma_d were
    read off; their ``np.fft.irfft`` of length N is sigma's first row.  G_d
    is block (i, i+d) of the gradient in Lambda."""
    inv = np.linalg.inv(psi)
    G = data - _band_lags(inv, len(data) - 1, N)
    G[0] = _sym(G[0])
    return G, inv


@lru_cache(maxsize=64)
def _newton_coords(m: int, n: int) -> tuple:
    """Index tables for the p = m(m+1)/2 + n m^2 Newton unknowns, K_0's
    upper triangle and then K_1..K_n.

    In the flattened two-sided lags (E_-n, ..., E_n), E_-d = E_d^T, unknown
    i sits at i1[i] and at its mirror i2[i], with weight c[i] = 1/2 on K_0's
    diagonal, where the two coincide, and 1 elsewhere.  ``hidx`` (4, p, p)
    locates the lag Hessian's entries at (i1, i1), (i1, i2), (i2, i1) and
    (i2, i2) in the flattened ``_hessian_lags`` stack: block (k, j) of that
    Hessian is V_{j-k}, and V_{k-j}^T below the diagonal.
    """
    P = m * m
    idx = np.arange((2 * n + 1) * P).reshape(2 * n + 1, m, m)
    upper = np.triu_indices(m)
    i1 = np.concatenate([idx[n][upper], idx[n + 1:].ravel()])
    i2 = np.concatenate([idx[n].T[upper], idx[:n][::-1].swapaxes(1, 2).ravel()])
    c = np.where(i1 == i2, 0.5, 1.0)
    # the Hessian's block layout, with the flat position of each entry
    flat = _block_toeplitz(np.arange((2 * n + 1) * P * P).reshape(2 * n + 1, P, P))
    hidx = np.stack([flat[np.ix_(a, b)] for a in (i1, i2) for b in (i1, i2)])
    for arr in (i1, i2, c, hidx):
        arr.setflags(write=False)
    return i1, i2, c, hidx


def _newton_step(G: np.ndarray, inv: np.ndarray, N: int) -> tuple:
    """Newton step on the band at a point with band gradient G and inverse
    frequency blocks ``inv`` (see ``_gradient``): the band H^{-1} g, with g
    and H the gradient and Hessian of the objective in the band unknowns,
    and the squared Newton decrement g . H^{-1} g.  The Hessian is
    assembled in the lag domain (``_hessian_lags``) and factored by
    Cholesky.  A singular or non-finite system gives (None, nan)."""
    n, m = len(G) - 1, G.shape[1]
    i1, i2, c, hidx = _newton_coords(m, n)
    # solved for the scaled blocks inv / s: H / s^2 and g / s are O(1) at
    # any scale of the data
    s = float(np.abs(inv).max())
    H = c[:, None] * _hessian_lags(inv / s, n, N).ravel()[hidx].sum(axis=0) * c
    # the gradient in the two-sided lags is N G_d at lag d and N G_d^T at -d
    g2 = (N / s) * np.concatenate([np.swapaxes(G[:0:-1], 1, 2), G]).reshape(-1)
    g = c * (g2[i1] + g2[i2])
    try:
        L = np.linalg.cholesky(H)
        y = np.linalg.solve(L, g)
        x = np.linalg.solve(L.T, y) / s
    except np.linalg.LinAlgError:
        return None, math.nan
    step = np.zeros(len(g2))
    step[i1] += c * x
    step[i2] += c * x
    lam2 = float(y @ y) if np.isfinite(x).all() else math.nan
    return step[n * m * m:].reshape(n + 1, m, m), lam2


def _lift(K: np.ndarray, N: int) -> DualVariable:
    """The block-Toeplitz dual with band projection K: block (i, i+d) is
    (N / (n+1-d)) * K_d."""
    w = np.arange(len(K), 0, -1.0)[:, None, None]
    return DualVariable(K.shape[1], len(K) - 1, _block_toeplitz((N / w) * K))


def _start(band: BandData, N: int, mode: str) -> np.ndarray:
    """Starting band K_0..K_n for ``solve``.

    "identity" is ((n+1)/N) I, 0, ..., 0, the band of the identity Lambda
    (always in the domain).  "toeplitz" is the Laurent coefficients of the
    band extension's inverse spectral density, K_d = M_d^T, the limit the
    optimal band approaches as N grows; it raises NotPositiveDefinite when
    the band's block-Toeplitz matrix is not positive definite.  Membership
    in the dual domain is not checked here; ``solve`` checks its start.
    """
    m, n = band.m, band.n
    if N < 2 * n + 2:
        raise BandTooWide(f"N={N} < 2n+2={2 * n + 2}")
    if mode == "identity":
        K = np.zeros((n + 1, m, m))
        K[0] = (n + 1) / N * np.eye(m)
        return K
    if mode == "toeplitz":
        return np.swapaxes(phi_inverse_coeffs(solve_yule_walker(band)), 1, 2)
    raise BadInput(f"unknown init mode {mode!r}")


def init_lambda(band: BandData, N: int, mode: str = "toeplitz") -> DualVariable:
    """Starting dual variable: the block-Toeplitz Lambda whose band
    projection is ``solve``'s start band for ``mode`` ("identity" or
    "toeplitz"); block (i, i+d) is (N / (n+1-d)) * K_d.  For "identity" that
    is the identity matrix up to rounding.  Unlike ``solve``, it does not
    fall back: "toeplitz" raises NotPositiveDefinite when the band's
    block-Toeplitz matrix is not positive definite."""
    return _lift(_start(band, N, mode), N)


def solve(
    band: BandData,
    N: int,
    config: Optional[SolverConfig] = None,
    init: str = "toeplitz",
    method: str = "gd",
) -> SolverResult:
    """Minimize the dual objective by backtracking descent.

    ``method="gd"`` descends along the negative gradient and stops when the
    gradient's Frobenius norm drops to ``eta``.  ``method="newton"`` takes
    the Newton step on the band and stops when half the squared Newton
    decrement drops to 1e-20, or when the decrement stops falling in the
    full-step regime, where rounding sets its floor; a given ``eta`` also
    stops it.  Both backtrack on Armijo (the objective evaluates to +inf
    outside the domain, so the line search also enforces feasibility).  The
    iterate is the band K, started from ``init``, "toeplitz" or "identity"
    (see ``_start``).  Returns the final band ``K`` and the
    completion ``sigma`` = inverse of the final band projection: its
    inverse is banded block-circulant by construction and its band matches
    the data to a tolerance tied to ``eta``.

    A result is always returned; non-convergence is flagged in ``status``
    (see SolverResult), and "converged" requires a finite stopping value.
    C(K) is PD at every iterate, so Tr(K D) = Tr(C(K) Sigma) > 0 for any
    completion Sigma, and Tr(K D) < 0 beyond rounding at the start or an
    accepted iterate ends the solve as "infeasible" with K the certificate.
    A singular Newton system, or K past a cap relative to the data, ends
    it as "stalled".  When the toeplitz start cannot be formed (the band's
    block-Toeplitz matrix is not positive definite) or lies outside the
    dual domain, the solve starts from the identity, which always lies
    inside, and reports "identity (fallback from toeplitz)" as its
    ``init_mode``.  So every band gets a result: the completion, a
    certificate that there is none, or a status saying why neither.
    """
    cfg = config if config is not None else SolverConfig()
    if method not in ("gd", "newton"):
        raise BadInput(f"unknown method {method!r}")
    newton = method == "newton"
    m, n = band.m, band.n
    # The gradient step in Lambda moves the block sum N K_d by the w_d =
    # n+1-d gradient blocks on its diagonal, and Tr(Lambda T_n) = sum(K * D)
    # since block d of T_n sits once on the diagonal and twice off it.
    wN = np.arange(n + 1, 0, -1.0)[:, None, None] / N
    data = np.swapaxes(band.blocks, 1, 2)
    D = 2.0 * N * data
    D[0] *= 0.5
    eta = cfg.eta if cfg.eta is not None else 1e-8 * _band_norm(data)
    data_max = float(np.abs(data).max())

    init_mode = init
    try:
        K = _start(band, N, init)
    except NotPositiveDefinite:  # the toeplitz start needs a PD block-Toeplitz matrix
        f = math.inf
    else:
        f, psi, lin = _objective(K, D, m, n, N, parts=True)
    if not math.isfinite(f):
        # only a toeplitz start gets here: the identity is always inside
        K = _start(band, N, "identity")
        init_mode = "identity (fallback from toeplitz)"
        f, psi, lin = _objective(K, D, m, n, N, parts=True)
    G, inv = _gradient(psi, data, N)
    gnorm = _band_norm(G)
    backtracks = 0
    iterations = 0
    status = None
    # last Armijo-validated step; Newton's natural step is 1 throughout
    t_acc = _STEP0 if newton else None
    lam2_prev = math.inf

    if cfg.trace is not None:
        cfg.trace.write("iter,jbar,grad_norm,step\n")
        cfg.trace.write(f"0,{f!r},{gnorm!r},0.0\n")

    while True:
        # 1e-12 vdot(|K|, |D|) bounds lin's rounding; lin < 0 first: a feasible solve pays one test
        if lin < 0 and lin < -1e-12 * float(np.vdot(np.abs(K), np.abs(D))):
            status = "infeasible"
            break
        if newton:
            step, lam2 = _newton_step(G, inv, N)
            slope = -lam2
            # The decrement is affine invariant, so its tolerances are
            # absolute.  In the full-step regime a decrement that stops
            # falling is at its rounding floor.
            armijo = lam2 > _FULL_STEP
            done = lam2 / 2 <= _DECREMENT_TOL or (not armijo and lam2 >= lam2_prev)
            done = done or (cfg.eta is not None and gnorm <= eta)
            lam2_prev = lam2
        else:
            step = wN * G
            slope = -(gnorm ** 2)  # Tr(grad^T direction) for direction = -grad
            # f is Tr(K D) - logdet, so its rounding error scales with the
            # larger of the two terms, not with f itself.
            noise = _NOISE_EPS * max(1.0, abs(f), abs(lin))
            # Armijo test when the predicted decrease is readable off f;
            # below that resolution step at the last validated scale and
            # test only that the point stays in the domain.
            armijo = _ALPHA * _STEP0 * (-slope) >= noise or t_acc is None
            done = gnorm <= eta
        if not math.isfinite(slope):
            status = "stalled"
            break
        if done:
            break
        if iterations >= cfg.max_iter:
            status = "max_iter"
            break
        if N * float(np.abs(K).max()) * data_max > _LAMBDA_CAP:
            status = "stalled"
            break
        t = _STEP0 if armijo else t_acc
        trial = K - t * step
        f_new, psi, lin = _objective(trial, D, m, n, N, parts=True)
        while (f_new > f + _ALPHA * t * slope) if armijo else not math.isfinite(f_new):
            t *= _BETA
            backtracks += 1
            if t < 1e-18:
                status = "stalled"
                break
            trial = K - t * step
            f_new, psi, lin = _objective(trial, D, m, n, N, parts=True)
        if status is not None:
            break
        if armijo and not newton:
            t_acc = t
        K, f = trial, f_new
        G, inv = _gradient(psi, data, N)
        gnorm = _band_norm(G)
        iterations += 1
        if cfg.trace is not None:
            cfg.trace.write(f"{iterations},{f!r},{gnorm!r},{t!r}\n")
    if status is None:
        status = "converged"

    return SolverResult(
        K=K,
        sigma=BlockCirculant(m, N, np.fft.irfft(inv, n=N, axis=0)),
        iterations=iterations,
        final_grad_norm=gnorm,
        objective=f,
        line_search_backtracks_total=backtracks,
        converged=status == "converged",
        status=status,
        init_mode=init_mode,
    )


def verify_solution(solution, band: BandData) -> SolutionReport:
    """Residual report for a completion.

    Accepts a SolverResult or a BlockCirculant (a baseline's dense iterate
    is projected onto circulants by ``circulant_average`` first).  Both get
    the relative band residual.

    A SolverResult is checked against the precision band K it returns,
    without factoring or inverting the completion: the batched Cholesky
    factors L_l of K's frequency blocks Psi_l are the PD test of K and give
    the entropy, 0.5 (mN (1 + log 2 pi) - log det C(K)), and the Dempster
    residual is max_l ||L_l^H S_l L_l - I||_F, with S_l the frequency
    blocks of the completion.  That is a congruence, so a residual below 1
    proves the completion's symmetric part positive definite, and one of 1
    or more raises NotPositiveDefinite.

    A BlockCirculant is factored instead: its Dempster residual is the
    largest off-band block of its freshly computed inverse, relative to the
    inverse's diagonal block, and its entropy comes from the same
    factorization of its frequency blocks, which raises NotPositiveDefinite
    if it is not PD.

    Raises BadInput if the block sizes of the completion, the band or K
    disagree, and BandTooWide if N < 2n + 2.
    """
    result = solution if isinstance(solution, SolverResult) else None
    sigma = solution.sigma if result is not None else solution
    m, n, N = band.m, band.n, sigma.N
    if sigma.m != m:
        raise BadInput(f"completion blocks are {sigma.m} x {sigma.m}, band blocks {m} x {m}")
    if N < 2 * n + 2:
        raise BandTooWide(f"N={N} < 2n+2={2 * n + 2}")
    data = np.swapaxes(band.blocks, 1, 2)
    # both ratios are taken on arrays scaled to a largest |entry| of 1, so
    # their squared norms neither under- nor overflow at any data scale
    s = float(np.abs(data).max())
    band_res = _band_norm((sigma.first_row[: n + 1] - data) / s) / _band_norm(data / s)
    if result is None:
        head, logdet = _factored(sigma, "verify_solution")
        kinv = np.fft.irfft(np.linalg.inv(head), n=N, axis=0)  # first row
        kinv /= np.abs(kinv).max()
        off = kinv[n + 1: N - n]
        ref = float(np.linalg.norm(kinv[0]))
        dempster = float(np.linalg.norm(off, axis=(1, 2)).max() / ref)
    else:
        if np.shape(result.K) != (n + 1, m, m):
            raise BadInput(f"precision band shape {np.shape(result.K)} != {(n + 1, m, m)}")
        chol = _cholesky_blocks(_band_spectrum(result.K, N), "verify_solution")
        logdet = -_half_logdet(chol, N)
        # R is O(1) at any data scale; a completion far from K's inverse,
        # or not finite, reads inf or nan here and fails the test below
        with np.errstate(over="ignore", invalid="ignore"):
            R = np.conj(np.swapaxes(chol, 1, 2)) @ np.fft.rfft(sigma.first_row, axis=0) @ chol
            R[:, np.arange(m), np.arange(m)] -= 1.0
            r = R.reshape(len(R), -1).view(float)  # real and imaginary parts
            dempster = math.sqrt(float(np.einsum("lk,lk->l", r, r).max()))
        if not dempster < 1.0:
            raise NotPositiveDefinite(
                f"verify_solution: Dempster residual {dempster!r} is not below 1, "
                "so the completion is not shown to be positive definite")
    entropy = 0.5 * logdet + 0.5 * (m * N) * (1.0 + LOG_2PI)
    return SolutionReport(band_residual=band_res, dempster_residual=dempster, entropy=entropy)
