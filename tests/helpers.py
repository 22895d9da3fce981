"""Shared oracles and generators for the test suite.

Everything here goes through dense numpy linear algebra on materialized
matrices, independent of the package's spectral code paths.
"""

import numpy as np

from circmaxent import BadInput, BandData, BlockCirculant, DualVariable, NonRealSpectrum, Spectrum


def sym(a):
    return 0.5 * (a + a.T)


def random_symmetric_circulant(m, N, rng, scale=1.0):
    """Random symmetric block-circulant via its first row."""
    row = np.zeros((N, m, m))
    row[0] = sym(rng.standard_normal((m, m))) * scale
    for k in range(1, N // 2 + (N % 2)):
        b = rng.standard_normal((m, m)) * scale
        row[k] = b
        row[N - k] = b.T
    if N % 2 == 0:
        row[N // 2] = sym(rng.standard_normal((m, m))) * scale
    return BlockCirculant(m, N, row)


def random_spd_circulant(m, N, rng, margin=0.5):
    """Random symmetric positive definite block-circulant (dense-checked)."""
    c = random_symmetric_circulant(m, N, rng, scale=0.5)
    dense = sym(c.to_dense())
    lift = margin - np.linalg.eigvalsh(dense).min()
    row = c.first_row.copy()
    if lift > 0:
        row[0] += lift * np.eye(m)
    return BlockCirculant(m, N, row)


def dft_spectrum_direct(c):
    """O(N^2) direct evaluation of the block DFT (reference for the FFT path)."""
    ell = np.arange(c.N)
    w = np.exp(-2j * np.pi * np.outer(ell, ell) / c.N)
    psi = np.einsum("lk,kab->lab", w, c.first_row)
    return Spectrum(c.m, c.N, psi)


def spectrum_to_circulant(s, rtol=1e-9):
    """Inverse transform; requires conjugate symmetry Psi_{N-l} = conj(Psi_l)."""
    mirror = np.conj(s.psi[(-np.arange(s.N)) % s.N])
    scale = max(1.0, float(np.abs(s.psi).max()))
    if np.abs(s.psi - mirror).max() > rtol * scale:
        raise NonRealSpectrum("spectrum violates conjugate symmetry; no real circulant matches")
    row = np.fft.ifft(s.psi, axis=0)
    return BlockCirculant(s.m, s.N, row.real)


def circ_matmul(a, b):
    """Product of two block-circulants via cyclic block convolution.

    Exact in the first-row representation (no transform round-off); structure
    is preserved by construction.
    """
    if a.N != b.N or a.m != b.m:
        raise BadInput("operand shapes differ")
    k = np.arange(a.N)
    idx = (k[:, None] - k[None, :]) % a.N  # (k - j) mod N
    return BlockCirculant(a.m, a.N, np.einsum("jab,kjbc->kac", a.first_row, b.first_row[idx]))


def is_banded(c, b, tol=0.0):
    """True when blocks at circular distance > b vanish."""
    for k in range(b + 1, c.N - b):
        if np.abs(c.first_row[k]).max() > tol:
            return False
    return True


def is_hermitian(s, rtol=1e-12):
    """True when every frequency block is Hermitian to ``rtol``."""
    dev = np.abs(s.psi - 0.5 * (s.psi + np.conj(np.swapaxes(s.psi, -1, -2)))).max()
    scale = max(1.0, float(np.abs(s.psi).max()))
    return float(dev) <= rtol * scale


def dense_embed_dual(lam, m, n, N):
    """mN x mN matrix with lam in the leading corner, zeros elsewhere."""
    out = np.zeros((m * N, m * N))
    out[: (n + 1) * m, : (n + 1) * m] = lam
    return out


def dense_circulant_basis(m, N):
    """A basis of the symmetric block-circulant subspace, as dense matrices."""
    basis = []
    for d in range(N // 2 + 1):
        mirror = (N - d) % N
        for p in range(m):
            for q in range(m):
                if d in (0, mirror) and p > q:
                    continue  # symmetric block; lower triangle is dependent
                row = np.zeros((N, m, m))
                row[d][p, q] += 1.0
                if d in (0, mirror):
                    row[d][q, p] += 1.0
                else:
                    row[mirror][q, p] += 1.0
                basis.append(BlockCirculant(m, N, row).to_dense())
    return basis


def random_feasible_dual(band, N, rng, spread=0.25):
    """Random dual variable inside the domain (rejection from the identity)."""
    size = (band.n + 1) * band.m
    while True:
        cand = DualVariable(
            band.m, band.n, np.eye(size) + spread * sym(rng.standard_normal((size, size)))
        )
        if cand.is_feasible(N):
            return cand
        spread *= 0.5


def white_noise_band(m, n):
    blocks = np.zeros((n + 1, m, m))
    blocks[0] = np.eye(m)
    return BandData(m, n, blocks)


def scalar_band(values):
    arr = np.asarray(values, dtype=float).reshape(-1, 1, 1)
    return BandData(1, len(arr) - 1, arr)
