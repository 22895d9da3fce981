"""Maximum-entropy band extension of block-Toeplitz covariance data.

Fitting an order-n matrix autoregression to the given lags (a Yule-Walker
solve) yields the unique entropy-maximizing Toeplitz extension: the extended
lags follow the AR recursion, and the inverse spectral density is a Laurent
polynomial of degree n whose coefficients feed both the circulant approximant
and the solver warm start.
"""

from __future__ import annotations

import numpy as np

from .blockcirc import (BandData, BlockCirculant, _array, _band_row, _block_toeplitz, _check_sizes,
                        _check_type, _cholesky_blocks, _count, _sym)
from .errors import BadInput, Unstable


def spectral_radius(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _companion(coeffs: np.ndarray) -> np.ndarray:
    """Companion matrix (nm x nm) of the AR coefficients: identities on the
    block superdiagonal and -[coeffs[n] .. coeffs[1]] in the last block row.
    Its eigenvalues are the roots of the model; it is stable exactly when
    its spectral radius is below 1."""
    n, m = coeffs.shape[0] - 1, coeffs.shape[1]
    a = np.eye(n * m, k=m)
    if n:
        a[-m:] = -np.hstack(coeffs[:0:-1])
    return a


def _ar_model(coeffs, innovation) -> tuple:
    """An AR model as the arrays (coeffs, innovation) (``blockcirc._array``):
    n+1 square m x m blocks, n >= 0, and an m x m innovation whose symmetric
    part is PD (``_cholesky_blocks``), tested here for both AR entries."""
    coeffs = _array(coeffs, "coeffs", (None, None, None))
    m, n = coeffs.shape[2], len(coeffs) - 1
    _check_sizes(m, n)
    coeffs, innovation = _array(coeffs, "coeffs", (n + 1, m, m)), _array(innovation, "innovation", (m, m))
    _cholesky_blocks(_sym(innovation), "innovation covariance")
    return coeffs, innovation


def solve_yule_walker(band: BandData) -> tuple:
    """Fit the order-n matrix AR model to the band: the pair (coeffs,
    innovation) that ``band_from_ar`` takes.  ``coeffs`` (n+1, m, m) has
    coeffs[0] = I and [coeffs[0] .. coeffs[n]] @ T_n = [innovation, 0, ...,
    0], so ``innovation`` is the one-step prediction error covariance.

    Solved as one direct block linear system of size n*m (the bandwidths of
    interest are small).

    Raises
    ------
    NotPositiveDefinite
        If the block-Toeplitz matrix of the band fails factorization.
    """
    _check_type(band, BandData, "band")
    m, n = band.m, band.n
    # The AR equations contract the coefficient row against the lag pattern
    # Sigma_{j-k} (block (k, j)), the blockwise transpose of the band's
    # Toeplitz pattern; reversing the block order maps one onto the other,
    # so either is positive definite exactly when the other is.
    T = _block_toeplitz(band.blocks)
    _cholesky_blocks(_sym(T), "block-Toeplitz band matrix")
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
    _cholesky_blocks(innovation, "innovation covariance")
    return coeffs, innovation


def phi_inverse_coeffs(coeffs: np.ndarray, innovation: np.ndarray) -> np.ndarray:
    """Laurent coefficients M_0..M_n (n+1, m, m) of the inverse spectral
    density of the AR model (coeffs, innovation) (see
    ``solve_yule_walker``), M_j = sum_k coeffs[k]^T innovation^{-1} coeffs[k+j].

    The inverse of the extension's spectral density is
    M_0 + sum_j M_j z^j + sum_j M_j^T z^(-j); M_0 is symmetric.
    """
    coeffs, innovation = _ar_model(coeffs, innovation)
    lam_inv = _sym(np.linalg.inv(innovation))
    M = np.zeros(coeffs.shape)
    for j in range(len(M)):
        for k in range(len(M) - j):
            M[j] += coeffs[k].T @ lam_inv @ coeffs[k + j]
    M[0] = _sym(M[0])
    return M


def extend_covariances(band: BandData, K: int) -> np.ndarray:
    """Extended covariance lags Sigma_(n+1)..Sigma_K of the band's AR model.

    Fits the model (``solve_yule_walker``) and runs its recursion
    Sigma_k = -sum_j coeffs[j] Sigma_(k-j) for k > n, starting from the
    given lags: the AR equations of ``solve_yule_walker`` continued past
    lag n, where the innovation term vanishes.  K is a count > n (``_count``).

    Raises
    ------
    NotPositiveDefinite
        If the band's block-Toeplitz matrix is not positive definite.
    """
    _check_type(band, BandData, "band")
    n = band.n
    K = _count(K, "K", n + 1)
    coeffs = solve_yule_walker(band)[0]
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
    _check_type(band, BandData, "band")
    _check_sizes(band.m, band.n, N)
    lags = np.concatenate([band.blocks, extend_covariances(band, N // 2)])
    return BlockCirculant(band.m, N, _band_row(np.swapaxes(lags, 1, 2), N))


def band_from_ar(coeffs: np.ndarray, innovation: np.ndarray) -> BandData:
    """Covariance band of the stationary AR model with the given coefficients.

    The inverse direction of ``solve_yule_walker``: the same equations
    sum_j coeffs[j] Sigma_(k-j) = delta_k innovation, k = 0..n, with
    Sigma_(-d) = Sigma_d^T, solved for the lags instead of the coefficients.
    Useful for generating feasible problem instances with a prescribed
    spectral-factor radius.

    Raises
    ------
    NotPositiveDefinite
        If the innovation covariance is not positive definite (tested first).
    Unstable
        If the companion matrix has spectral radius >= 1.
    """
    coeffs, innovation = _ar_model(coeffs, innovation)
    n, m = len(coeffs) - 1, coeffs.shape[1]
    if np.abs(coeffs[0] - np.eye(m)).max() > 1e-12:
        raise BadInput("coeffs[0] must be the identity")
    rho = spectral_radius(_companion(coeffs))
    if rho >= 1.0:
        raise Unstable(f"spectral radius {rho:.6g} >= 1")
    # Row-major vec: vec(A X) = kron(A, I) vec(X), vec(X^T) = swap vec(X).
    mm = m * m
    swap = np.eye(mm).reshape(m, m, m, m).swapaxes(0, 1).reshape(mm, mm)
    lhs = np.zeros((n + 1, mm, n + 1, mm))
    for k in range(n + 1):
        for j in range(n + 1):
            a = np.kron(coeffs[j], np.eye(m))
            lhs[k, :, abs(k - j)] += a if k >= j else a @ swap
    rhs = np.zeros((n + 1, mm))
    rhs[0] = _sym(innovation).ravel()
    blocks = np.linalg.solve(lhs.reshape(-1, (n + 1) * mm), rhs.ravel()).reshape(n + 1, m, m)
    blocks[0] = _sym(blocks[0])
    return BandData(m, n, blocks)
