"""Block-circulant matrix algebra on the first-block-row representation.

A symmetric block-circulant matrix with N block rows/columns of m x m real
blocks is stored as its first block row only (N*m^2 scalars); the block in
position (i, j) of the full matrix is ``first_row[(j - i) mod N]``.  The
block DFT diagonalizes every such matrix, so inversion, log-determinant and
the positive-definiteness test all reduce to work on N Hermitian m x m
frequency blocks.  Dense mN x mN matrices are only materialized by
``to_dense`` (oracles and baselines), never on the solver path.

Transform convention: the frequency blocks are

    Psi_l = sum_k first_row[k] * exp(-2j*pi*l*k / N),

which for a symmetric matrix coincides with transforming the transposed
first-block-column; the dense reconstruction tests pin the convention by
checking V Psi V* against the assembled matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadInput, BandTooWide, NonRealSpectrum, NotPositiveDefinite

LOG_2PI = float(np.log(2.0 * np.pi))


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _hermitize(psi: np.ndarray) -> np.ndarray:
    return 0.5 * (psi + np.conj(np.swapaxes(psi, -1, -2)))


def _band_row(band: np.ndarray, N: int) -> np.ndarray:
    """First block row of the symmetric block-circulant with band blocks
    ``band`` (n+1, m, m): row[d] = band[d], row[N-d] = band[d]^T, zeros
    elsewhere.  Where the band meets its mirror (the central block of an
    even N = 2n) the two are summed."""
    n = band.shape[0] - 1
    row = np.zeros((N,) + band.shape[1:])
    row[: n + 1] = band
    row[N - n:] += np.swapaxes(band[:0:-1], 1, 2)
    return row


def _block_toeplitz(row: np.ndarray) -> np.ndarray:
    """Symmetric block-Toeplitz matrix with first block row ``row`` (k, m, m):
    block (i, j) is row[j - i] on and above the diagonal, row[i - j]^T below."""
    k, m = row.shape[0], row.shape[1]
    i = np.arange(k)
    d = i[None, :] - i[:, None]
    blocks = np.where((d >= 0)[:, :, None, None], row[np.abs(d)], np.swapaxes(row, 1, 2)[np.abs(d)])
    return blocks.transpose(0, 2, 1, 3).reshape(k * m, k * m)


def _cholesky_blocks(psi: np.ndarray, what: str) -> np.ndarray:
    """Batched Cholesky of Hermitian frequency blocks; the PD test."""
    if not np.all(np.isfinite(psi)):
        raise NotPositiveDefinite(f"{what}: non-finite frequency blocks")
    try:
        return np.linalg.cholesky(_hermitize(psi))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{what}: a frequency block is not positive definite") from exc


@dataclass(frozen=True)
class BlockCirculant:
    """Symmetric block-circulant matrix stored as its first block row."""

    m: int
    N: int
    first_row: np.ndarray  # (N, m, m)

    def __post_init__(self):
        row = np.asarray(self.first_row, dtype=float)
        if self.N < 2:
            raise BadInput(f"need at least 2 block rows, got N={self.N}")
        if row.shape != (self.N, self.m, self.m):
            raise BadInput(f"first_row shape {row.shape} != {(self.N, self.m, self.m)}")
        object.__setattr__(self, "first_row", row)

    @classmethod
    def identity(cls, m: int, N: int) -> "BlockCirculant":
        row = np.zeros((N, m, m))
        row[0] = np.eye(m)
        return cls(m, N, row)

    def to_dense(self) -> np.ndarray:
        """Assemble the full mN x mN matrix (test/baseline use only)."""
        i = np.arange(self.N)
        idx = (i[None, :] - i[:, None]) % self.N  # (j - i) mod N
        blocks = self.first_row[idx]  # (N, N, m, m)
        return blocks.transpose(0, 2, 1, 3).reshape(self.N * self.m, self.N * self.m)

    def is_symmetric(self, rtol: float = 1e-12) -> bool:
        mirror = np.swapaxes(self.first_row[(-np.arange(self.N)) % self.N], -1, -2)
        scale = max(1.0, float(np.abs(self.first_row).max()))
        return float(np.abs(self.first_row - mirror).max()) <= rtol * scale


@dataclass(frozen=True)
class Spectrum:
    """Frequency blocks of a block-circulant matrix (DFT of the first row)."""

    m: int
    N: int
    psi: np.ndarray  # (N, m, m) complex

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        if psi.shape != (self.N, self.m, self.m):
            raise BadInput(f"psi shape {psi.shape} != {(self.N, self.m, self.m)}")
        object.__setattr__(self, "psi", psi)


@dataclass(frozen=True)
class BandData:
    """The given central band: blocks Sigma_0..Sigma_n, Sigma_0 symmetric."""

    m: int
    n: int
    blocks: np.ndarray  # (n+1, m, m)

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=float)
        if self.m < 1 or self.n < 0:
            raise BadInput(f"need m >= 1 and n >= 0, got m={self.m}, n={self.n}")
        if blocks.shape != (self.n + 1, self.m, self.m):
            raise BadInput(f"blocks shape {blocks.shape} != {(self.n + 1, self.m, self.m)}")
        if not np.all(np.isfinite(blocks)):
            raise BadInput("band blocks must be finite")
        scale = max(1.0, float(np.abs(blocks[0]).max()))
        if np.abs(blocks[0] - blocks[0].T).max() > 1e-12 * scale:
            raise BadInput("Sigma_0 must be symmetric")
        blocks = blocks.copy()
        blocks[0] = _sym(blocks[0])
        object.__setattr__(self, "blocks", blocks)

    def toeplitz(self) -> np.ndarray:
        """Dense symmetric block-Toeplitz matrix of the band (size (n+1)m)."""
        return _block_toeplitz(np.swapaxes(self.blocks, 1, 2))

    def embed_circulant(self, N: int) -> BlockCirculant:
        """Banded block-circulant with this band and zeros elsewhere."""
        if N < 2 * self.n + 2:
            raise BandTooWide(f"N={N} < 2n+2={2 * self.n + 2}")
        return BlockCirculant(self.m, N, _band_row(np.swapaxes(self.blocks, 1, 2), N))


def dft_spectrum(c: BlockCirculant) -> Spectrum:
    """Frequency blocks of a block-circulant matrix.

    Computed with a mixed-radix FFT over the block index (valid for any N).
    For symmetric input every block is Hermitian.
    """
    return Spectrum(c.m, c.N, np.fft.fft(c.first_row, axis=0))


def spectrum_to_circulant(s: Spectrum, rtol: float = 1e-9) -> BlockCirculant:
    """Inverse transform; requires conjugate symmetry Psi_{N-l} = conj(Psi_l)."""
    mirror = np.conj(s.psi[(-np.arange(s.N)) % s.N])
    scale = max(1.0, float(np.abs(s.psi).max()))
    if np.abs(s.psi - mirror).max() > rtol * scale:
        raise NonRealSpectrum("spectrum violates conjugate symmetry; no real circulant matches")
    row = np.fft.ifft(s.psi, axis=0)
    return BlockCirculant(s.m, s.N, row.real)


def circ_inverse(c: BlockCirculant) -> BlockCirculant:
    """Inverse of a symmetric positive definite block-circulant.

    Inverts only the first floor(N/2)+1 = ceil((N+1)/2) frequency blocks and
    completes the rest by conjugate symmetry.

    Raises
    ------
    NotPositiveDefinite
        If any frequency block fails Cholesky factorization.
    """
    s = dft_spectrum(c)
    h = c.N // 2
    head = _hermitize(s.psi[: h + 1])
    _cholesky_blocks(head, "circ_inverse")
    inv_head = np.linalg.inv(head)
    psi_inv = np.empty_like(s.psi)
    psi_inv[: h + 1] = inv_head
    psi_inv[h + 1:] = np.conj(inv_head[1: c.N - h][::-1])
    return spectrum_to_circulant(Spectrum(c.m, c.N, psi_inv))


def circ_logdet(c: BlockCirculant) -> float:
    """log det of a symmetric positive definite block-circulant.

    Equals the sum over frequencies of log det Psi_l; computed from batched
    Cholesky factors so the value is real by construction.
    """
    s = dft_spectrum(c)
    chol = _cholesky_blocks(s.psi, "circ_logdet")
    diag = np.einsum("lii->li", chol).real
    return float(2.0 * np.sum(np.log(diag)))


def gaussian_entropy(c: BlockCirculant) -> float:
    """Differential entropy of a zero-mean Gaussian with this covariance."""
    dim = c.m * c.N
    return 0.5 * circ_logdet(c) + 0.5 * dim * (1.0 + LOG_2PI)


def project_band_gram(lam: np.ndarray, m: int, n: int, N: int) -> BlockCirculant:
    """Orthogonal projection of the bordered dual matrix onto circulants.

    ``lam`` is a symmetric matrix of (n+1) x (n+1) blocks of size m.  The
    projection of the mN x mN matrix that carries ``lam`` in its leading
    corner (zeros elsewhere) onto symmetric block-circulants is banded, with
    first-row block at distance d equal to the average over the N cyclic
    shifts, i.e. (1/N) * sum_i lam[i, i+d] for 0 <= d <= n and zero for
    n < d < N - n.  ``lam`` may also be given as that band itself, an
    (n+1, m, m) stack of the first n+1 first-row blocks.

    Raises
    ------
    BandTooWide
        If N < 2n + 2, where the band and its mirror would overlap.
    """
    if N < 2 * n + 2:
        raise BandTooWide(f"N={N} < 2n+2={2 * n + 2}")
    lam = np.asarray(lam, dtype=float)
    size = (n + 1) * m
    if lam.shape == (size, size):
        blocks = lam.reshape(n + 1, m, n + 1, m).swapaxes(1, 2)  # blocks[i, j] = block (i, j)
        lam = np.stack([blocks.diagonal(d).sum(-1) for d in range(n + 1)]) / N
    elif lam.shape != (n + 1, m, m):
        raise BadInput(f"dual matrix shape {lam.shape} != {(size, size)} or band {(n + 1, m, m)}")
    return BlockCirculant(m, N, _band_row(lam, N))


def leading_band(c: BlockCirculant, n: int) -> np.ndarray:
    """Leading (n+1) x (n+1) block principal submatrix, assembled from the
    first row: block (i, j) = first_row[j - i] for j >= i."""
    if n + 1 > c.N:
        raise BadInput(f"n+1={n + 1} exceeds N={c.N}")
    return _sym(_block_toeplitz(c.first_row[: n + 1]))


def leading_inverse_band(c: BlockCirculant, n: int) -> np.ndarray:
    """First n+1 block rows/columns of the inverse of a SPD block-circulant."""
    return leading_band(circ_inverse(c), n)


def circulant_average(dense: np.ndarray, m: int) -> BlockCirculant:
    """Orthogonal projection of a dense symmetric matrix onto block-circulants.

    Averages the m x m blocks along each circulant block diagonal.  Used to
    read a circulant out of baseline iterates; the solver never calls it.
    """
    dense = np.asarray(dense, dtype=float)
    if dense.shape[0] != dense.shape[1] or dense.shape[0] % m:
        raise BadInput(f"dense shape {dense.shape} is not square in m={m} blocks")
    N = dense.shape[0] // m
    blocks = dense.reshape(N, m, N, m).transpose(0, 2, 1, 3)  # (i, j, m, m)
    i = np.arange(N)
    j = (i[:, None] + i[None, :]) % N  # j[i, k] = (i + k) mod N
    return BlockCirculant(m, N, blocks[i[:, None], j].mean(axis=0))
