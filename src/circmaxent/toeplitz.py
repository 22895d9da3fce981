"""Maximum-entropy band extension of block-Toeplitz covariance data.

Fitting an order-n matrix autoregression to the given lags (a Yule-Walker
solve) yields the unique entropy-maximizing Toeplitz extension: the extended
lags follow the AR recursion, and the inverse spectral density is a Laurent
polynomial of degree n whose coefficients feed both the circulant approximant
and the solver warm start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockcirc import BandData, BlockCirculant, _band_row, _block_toeplitz, _sym
from .errors import BadInput, BandTooWide, NotPositiveDefinite, Unstable


def _require_spd(mat: np.ndarray, what: str) -> None:
    try:
        np.linalg.cholesky(_sym(mat))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{what} is not positive definite") from exc


def _spd_inverse(mat: np.ndarray) -> np.ndarray:
    _require_spd(mat, "matrix")
    return _sym(np.linalg.inv(mat))


def _sym_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (deterministic)."""
    w, v = np.linalg.eigh(_sym(mat))
    return _sym((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)


def spectral_radius(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


@dataclass(frozen=True)
class LevinsonSolution:
    """Matrix AR coefficients and innovation covariance from the band.

    ``coeffs[k]`` is the k-th AR coefficient (coeffs[0] = I); they satisfy
    [coeffs[0] .. coeffs[n]] @ T_n = [innovation, 0, ..., 0].
    """

    m: int
    n: int
    coeffs: np.ndarray      # (n+1, m, m), coeffs[0] = I
    innovation: np.ndarray  # (m, m) symmetric positive definite


@dataclass(frozen=True)
class ArStateSpace:
    """Companion-form realization of the minimum-phase spectral factor.

    State dimension is n*m; satisfies P = A P A^T + B B^T and
    Cbar^T = A P C^T + B D^T.  The extended covariance lags are
    Sigma_k = C A^(k-1) Cbar^T for k >= 1.
    """

    A: np.ndarray     # (nm, nm) companion, spectral radius < 1
    B: np.ndarray     # (nm, m)
    C: np.ndarray     # (m, nm)
    D: np.ndarray     # (m, m)
    Cbar: np.ndarray  # (m, nm)
    P: np.ndarray     # (nm, nm) symmetric PSD


@dataclass(frozen=True)
class PhiInverseCoeffs:
    """Laurent coefficients M_0..M_n of the inverse spectral density.

    The inverse of the extension's spectral density is
    M_0 + sum_j M_j z^j + sum_j M_j^T z^(-j); M_0 is symmetric.
    """

    m: int
    n: int
    M: np.ndarray  # (n+1, m, m)


def solve_yule_walker(band: BandData) -> LevinsonSolution:
    """Fit the order-n matrix AR model to the band.

    Solved as one direct block linear system of size n*m (the bandwidths of
    interest are small); the normalization coeffs[0] = I makes ``innovation``
    the one-step prediction error covariance.

    Raises
    ------
    NotPositiveDefinite
        If the block-Toeplitz matrix of the band fails factorization.
    """
    m, n = band.m, band.n
    # The AR equations contract the coefficient row against the lag pattern
    # Sigma_{j-k} (block (k, j)), the blockwise transpose of the band's
    # Toeplitz pattern; reversing the block order maps one onto the other,
    # so either is positive definite exactly when the other is.
    T = _block_toeplitz(band.blocks)
    _require_spd(T, "block-Toeplitz band matrix")
    coeffs = np.zeros((n + 1, m, m))
    coeffs[0] = np.eye(m)
    if n > 0:
        gram = T[: n * m, : n * m]
        rhs = -np.hstack(list(band.blocks[1:]))  # -(Sigma_1 ... Sigma_n)
        x = np.linalg.solve(gram, rhs.T).T  # solves X @ gram = rhs
        coeffs[1:] = x.reshape(m, n, m).swapaxes(0, 1)
    innovation = band.blocks[0].copy()
    for k in range(1, n + 1):
        innovation += coeffs[k] @ band.blocks[k].T
    innovation = _sym(innovation)
    _require_spd(innovation, "innovation covariance")
    return LevinsonSolution(m, n, coeffs, innovation)


def phi_inverse_coeffs(ls: LevinsonSolution) -> PhiInverseCoeffs:
    """Laurent coefficients of the inverse spectral density:
    M_j = sum_k coeffs[k]^T innovation^{-1} coeffs[k+j]."""
    lam_inv = _spd_inverse(ls.innovation)
    M = np.zeros((ls.n + 1, ls.m, ls.m))
    for j in range(ls.n + 1):
        for k in range(ls.n + 1 - j):
            M[j] += ls.coeffs[k].T @ lam_inv @ ls.coeffs[k + j]
    M[0] = _sym(M[0])
    return PhiInverseCoeffs(ls.m, ls.n, M)


def solve_lyapunov(a: np.ndarray, q: np.ndarray, max_doublings: int = 80) -> np.ndarray:
    """Solve the discrete Lyapunov equation P = A P A^T + Q.

    Direct Kronecker-vectorization solve for state dimension <= 30, squaring
    (doubling) iteration above; exact at desk scale, scalable beyond.

    Raises
    ------
    Unstable
        If the spectral radius of A is >= 1.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    d = a.shape[0]
    if a.shape != (d, d) or q.shape != (d, d):
        raise BadInput("A and Q must be square and of equal size")
    if d == 0:
        return np.zeros((0, 0))
    rho = spectral_radius(a)
    if rho >= 1.0:
        raise Unstable(f"spectral radius {rho:.6g} >= 1")
    if d <= 30:
        lhs = np.eye(d * d) - np.kron(a, a)
        p = np.linalg.solve(lhs, q.reshape(-1)).reshape(d, d)
        return _sym(p)
    s = _sym(q).copy()
    mk = a.copy()
    for _ in range(max_doublings):
        term = mk @ s @ mk.T
        s += term
        if np.abs(term).max() <= 1e-16 * max(1.0, np.abs(s).max()):
            break
        mk = mk @ mk
    else:
        raise Unstable("doubling iteration did not converge")
    return _sym(s)


def ar_state_space(ls: LevinsonSolution) -> ArStateSpace:
    """Companion realization of the AR spectral factor, with its state
    covariance from the Lyapunov equation."""
    m, n = ls.m, ls.n
    d = n * m
    a = np.zeros((d, d))
    if n > 1:
        a[: d - m, m:] = np.eye(d - m)
    c = np.zeros((m, d))
    for k in range(n):
        c[:, k * m:(k + 1) * m] = -ls.coeffs[n - k]
    if n > 0:
        a[d - m:, :] = c
    half = _sym_sqrt_psd(ls.innovation)
    b = np.zeros((d, m))
    if n > 0:
        b[d - m:, :] = half
    p = solve_lyapunov(a, b @ b.T)
    cbar = (a @ p @ c.T + b @ half.T).T
    return ArStateSpace(A=a, B=b, C=c, D=half, Cbar=cbar, P=p)


def extend_covariances(band: BandData, K: int) -> np.ndarray:
    """Extended covariance lags Sigma_(n+1)..Sigma_K of the band's AR model.

    Fits the model (``solve_yule_walker``) and runs its recursion
    Sigma_k = -sum_j coeffs[j] Sigma_(k-j) for k > n, starting from the
    given lags; these are the state-space lags C A^(k-1) Cbar^T of
    ``ar_state_space``.

    Raises
    ------
    NotPositiveDefinite
        If the band's block-Toeplitz matrix is not positive definite.
    """
    n = band.n
    if K <= n:
        raise BadInput(f"K={K} must exceed the bandwidth n={n}")
    coeffs = solve_yule_walker(band).coeffs
    lags = np.concatenate([band.blocks, np.zeros((K - n, band.m, band.m))])
    for k in range(n + 1, K + 1):
        lags[k] = -sum(coeffs[j] @ lags[k - j] for j in range(1, n + 1))
    return lags[n + 1:]


def circulant_approx(band: BandData, N: int) -> BlockCirculant:
    """Block-circulant approximant of the maximum-entropy completion.

    Wraps the Toeplitz band extension around the circle: the first block row
    carries the given band, the extended lags out to the midpoint, and their
    mirror images; for N even the central block is the sum of the midpoint
    lag and its transpose.  As N grows the inverse of this matrix tends to a
    banded block-circulant exponentially fast (the extension lags decay at
    the spectral-factor rate), so it approaches the exact completion.

    Raises
    ------
    BandTooWide
        If N < 2n + 2.
    NotPositiveDefinite
        If the band's block-Toeplitz matrix is not positive definite.
    """
    if N < 2 * band.n + 2:
        raise BandTooWide(f"N={N} < 2n+2={2 * band.n + 2}")
    lags = np.concatenate([band.blocks, extend_covariances(band, N // 2)])
    return BlockCirculant(band.m, N, _band_row(np.swapaxes(lags, 1, 2), N))


def band_from_ar(coeffs: np.ndarray, innovation: np.ndarray) -> BandData:
    """Covariance band of the stationary AR model with the given coefficients.

    The inverse direction of ``solve_yule_walker``: useful for generating
    feasible problem instances with a prescribed spectral-factor radius.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0] - 1
    m = coeffs.shape[1]
    if coeffs.shape != (n + 1, m, m):
        raise BadInput("coeffs must be a stack of n+1 square blocks")
    if np.abs(coeffs[0] - np.eye(m)).max() > 1e-12:
        raise BadInput("coeffs[0] must be the identity")
    ls = LevinsonSolution(m, n, coeffs, _sym(np.asarray(innovation, dtype=float)))
    ss = ar_state_space(ls)
    blocks = np.zeros((n + 1, m, m))
    blocks[0] = _sym(ss.C @ ss.P @ ss.C.T + ss.D @ ss.D.T)
    x = ss.Cbar.T
    for k in range(1, n + 1):
        blocks[k] = ss.C @ x
        x = ss.A @ x
    return BandData(m, n, blocks)
