"""Block-circulant matrix algebra on the first-block-row representation.

A symmetric block-circulant matrix with N block rows/columns of m x m real
blocks is stored as its first block row only (N*m^2 scalars); the block in
position (i, j) of the full matrix is ``first_row[(j - i) mod N]``.  The
block DFT diagonalizes every such matrix, so inversion, log-determinant and
the positive-definiteness test all reduce to work on Hermitian m x m
frequency blocks.  A real symmetric matrix has Psi_{N-l} = conj(Psi_l), so
only the floor(N/2)+1 blocks Psi_0..Psi_{N/2} are ever formed: from the
first row with a real FFT, or, for a matrix banded to distance n, straight
from its n+1 band blocks.  Dense mN x mN matrices are only materialized by
``to_dense`` (oracles and baselines), never on the solver path.  A full
bordered dual matrix enters only through ``_dual_band``, which reduces it to
its band.

Transform convention: the frequency blocks are

    Psi_l = sum_k first_row[k] * exp(-2j*pi*l*k / N),

which for a symmetric matrix coincides with transforming the transposed
first-block-column; the dense reconstruction tests pin the convention by
checking V Psi V* against the assembled matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadInput, BandTooWide, NotPositiveDefinite


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


@lru_cache(maxsize=64)
def _norm_weights(k: int) -> np.ndarray:
    """Multiplicity of block d of a first block row of k blocks in its
    symmetric block-Toeplitz matrix: k for d = 0, 2(k-d) for the blocks that
    appear k-d times on each side of the diagonal."""
    cw = 2.0 * np.arange(k, 0, -1)
    cw[0] = k
    cw.setflags(write=False)
    return cw


def _band_norm(B: np.ndarray) -> float:
    """Frobenius norm of the symmetric block-Toeplitz matrix with first block
    row B."""
    return math.sqrt(float(np.einsum("d,dij,dij->", _norm_weights(len(B)), B, B)))


def _cholesky_blocks(psi: np.ndarray, what: str) -> np.ndarray:
    """Batched Cholesky of Hermitian matrices, such as frequency blocks;
    the PD test, which rejects non-finite input.  Reads the lower triangles
    only."""
    if not np.isfinite(psi).all():
        raise NotPositiveDefinite(f"{what}: non-finite entries")
    try:
        return np.linalg.cholesky(psi)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{what} is not positive definite") from exc


@lru_cache(maxsize=64)
def _half_weights(N: int) -> np.ndarray:
    """Multiplicity w_l of Psi_l, l = 0..floor(N/2), in the full spectrum:
    1 for l = 0 and l = N/2 (even N), 2 for the conjugate pairs between."""
    w = np.full(N // 2 + 1, 2.0)
    w[0] = 1.0
    if N % 2 == 0:
        w[-1] = 1.0
    w.setflags(write=False)
    return w


@lru_cache(maxsize=64)
def _phase_tables(n: int, N: int) -> tuple:
    """Forward table exp(-2j pi l d / N), shape (h+1, n+1), and backward
    table (w_l / N) exp(+2j pi l d / N), shape (n+1, h+1), for
    l = 0..h = floor(N/2) and d = 0..n."""
    # l d mod N in integers keeps every phase argument below 2 pi
    ld = np.outer(np.arange(N // 2 + 1), np.arange(n + 1)) % N
    fwd = np.exp(-2j * np.pi * ld / N)
    back = np.ascontiguousarray((_half_weights(N)[:, None] / N * np.conj(fwd)).T)
    fwd.setflags(write=False)
    back.setflags(write=False)
    return fwd, back


@lru_cache(maxsize=64)
def _logdet_weights(N: int, m: int) -> np.ndarray:
    """2 w_l for each of the m Cholesky diagonal entries of Psi_l, shape
    (h+1, m): log det is their dot product with the diagonal's logs."""
    w = np.repeat(2.0 * _half_weights(N)[:, None], m, axis=1)
    w.setflags(write=False)
    return w


def _half_logdet(chol: np.ndarray, N: int) -> float:
    """log det of the full matrix from the Cholesky factors of Psi_0..Psi_h."""
    diag = chol.diagonal(axis1=1, axis2=2).real
    return float(np.vdot(_logdet_weights(N, chol.shape[1]), np.log(diag)))


def _band_spectrum(K: np.ndarray, N: int) -> np.ndarray:
    """Frequency blocks Psi_0..Psi_h, h = floor(N/2), of the symmetric
    block-circulant whose first row starts with the band K (n+1, m, m)
    (K_0 symmetric) and is zero at distances n < d < N-n:
    Psi_l = P_l + P_l^H - K_0 with P_l = sum_d exp(-2j pi l d / N) K_d.
    The blocks are Hermitian to the last bit."""
    n1, m = K.shape[0], K.shape[1]
    P = (_phase_tables(n1 - 1, N)[0] @ K.reshape(n1, m * m)).reshape(-1, m, m)
    psi = P + P.conj().swapaxes(1, 2)
    psi -= K[0]
    return psi


def _band_lags(inv: np.ndarray, n: int, N: int) -> np.ndarray:
    """First n+1 first-row blocks of the real circulant whose frequency
    blocks Psi_0..Psi_h are ``inv`` (h+1, m, m):
    row_d = (1/N) sum_l w_l Re(exp(+2j pi l d / N) inv_l)."""
    m = inv.shape[1]
    back = _phase_tables(n, N)[1]
    return (back @ inv.reshape(-1, m * m)).real.reshape(n + 1, m, m)


def _hessian_lags(inv: np.ndarray, n: int, N: int) -> np.ndarray:
    """Blocks V_0..V_2n (2n+1, m^2, m^2) of the Hessian of -log det C(K) in
    the two-sided band lags, from the inverse frequency blocks
    G_l = Psi_l^{-1} (``inv``, (h+1, m, m)):

        V_s = sum_{l=0}^{N-1} exp(+2j pi l s / N) conj(G_l) (x) G_l,

    real since G_{N-l} = conj(G_l).  The second derivative along a band
    direction E is sum_{j,k} vec(E_j) . V_{k-j} vec(E_k) over lags
    j, k = -n..n, with E_{-d} = E_d^T, V_{-s} = V_s^T and row-major vec.
    One real product of a (2n+1) m^2 x 2(h+1) and a 2(h+1) x m^2 matrix:
    O(n m^4 N) time and O(n m^2 N) memory, with no per-unknown frequency
    blocks."""
    h1, m = inv.shape[0], inv.shape[1]
    At = np.ascontiguousarray(inv.reshape(h1, m * m).T.conj())  # conj(G_l)[a, c] at [(a, c), l]
    left = (N * _phase_tables(2 * n, N)[1])[:, None, :] * At  # (2n+1, m^2, h+1)
    # Re(x y) = [Re x, Im x] . [Re y, -Im y], read off the interleaved float views
    M = left.view(float).reshape(-1, 2 * h1) @ At.view(float).T
    # M[s] is indexed ((a, c), (b, e)) for conj(G)[a, c] G[b, e]
    return M.reshape(2 * n + 1, m, m, m, m).transpose(0, 1, 3, 2, 4).reshape(2 * n + 1, m * m, m * m)


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

    def to_dense(self) -> np.ndarray:
        """Assemble the full mN x mN matrix (test/baseline use only)."""
        i = np.arange(self.N)
        idx = (i[None, :] - i[:, None]) % self.N  # (j - i) mod N
        blocks = self.first_row[idx]  # (N, N, m, m)
        return blocks.transpose(0, 2, 1, 3).reshape(self.N * self.m, self.N * self.m)


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
        # a norm that under- or overflows leaves every relative tolerance
        # of the solve and of its verification meaningless
        if not 0.0 < _band_norm(blocks) < math.inf:
            raise BadInput("band norm is zero or not representable in floating point")
        if np.abs(blocks[0] - blocks[0].T).max() > 1e-12 * float(np.abs(blocks[0]).max()):
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


def _factored(c: BlockCirculant, what: str) -> tuple:
    """Frequency blocks Psi_0..Psi_{N/2} of ``c`` (one real FFT, Hermitian
    by construction) and log det c, read off their batched Cholesky factors,
    which are the PD test.

    Raises
    ------
    NotPositiveDefinite
        If any frequency block fails Cholesky factorization.
    """
    head = _hermitize(np.fft.rfft(c.first_row, axis=0))
    return head, _half_logdet(_cholesky_blocks(head, what), c.N)


def circ_inverse(c: BlockCirculant) -> BlockCirculant:
    """Inverse of a symmetric positive definite block-circulant.

    Inverts the frequency blocks Psi_0..Psi_{N/2} and transforms back with
    the real inverse FFT, whose output is real by construction.

    Raises
    ------
    NotPositiveDefinite
        If any frequency block fails Cholesky factorization.
    """
    head = _factored(c, "circ_inverse")[0]
    return BlockCirculant(c.m, c.N, np.fft.irfft(np.linalg.inv(head), n=c.N, axis=0))


def circ_logdet(c: BlockCirculant) -> float:
    """log det of a symmetric positive definite block-circulant.

    Equals the sum over frequencies of log det Psi_l; Psi_{N-l} is the
    conjugate of Psi_l, so only Psi_0..Psi_{N/2} are factored, by batched
    Cholesky, and weighted by their multiplicity.  Real by construction.
    """
    return _factored(c, "circ_logdet")[1]


def _dual_band(lam: np.ndarray, m: int, n: int, N: int) -> np.ndarray:
    """The band K_0..K_n (n+1, m, m) of ``project_band_gram(lam, m, n, N)``:
    K_d = (1/N) sum_i lam[i, i+d] for a bordered dual matrix ``lam``, or
    ``lam`` itself when it is given as that band."""
    if N < 2 * n + 2:
        raise BandTooWide(f"N={N} < 2n+2={2 * n + 2}")
    lam = np.asarray(lam, dtype=float)
    size = (n + 1) * m
    if lam.shape == (size, size):
        blocks = lam.reshape(n + 1, m, n + 1, m).swapaxes(1, 2)  # blocks[i, j] = block (i, j)
        return np.stack([blocks.diagonal(d).sum(-1) for d in range(n + 1)]) / N
    if lam.shape != (n + 1, m, m):
        raise BadInput(f"dual matrix shape {lam.shape} != {(size, size)} or band {(n + 1, m, m)}")
    return lam


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
    return BlockCirculant(m, N, _band_row(_dual_band(lam, m, n, N), N))


def leading_inverse_band(c: BlockCirculant, n: int) -> np.ndarray:
    """First n+1 block rows/columns of the inverse of a SPD block-circulant,
    assembled from the inverse's first row: block (i, j) = row[j - i] for
    j >= i."""
    if n + 1 > c.N:
        raise BadInput(f"n+1={n + 1} exceeds N={c.N}")
    return _sym(_block_toeplitz(circ_inverse(c).first_row[: n + 1]))


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
