"""Block-circulant matrix algebra on the first-block-row representation.

A symmetric block-circulant matrix with N block rows/columns of m x m real
blocks is stored as its first block row only (N*m^2 scalars); the block in
position (i, j) of the full matrix is ``first_row[(j - i) mod N]``.  The
block DFT diagonalizes every such matrix, so inversion, log-determinant and
the positive-definiteness test all reduce to work on Hermitian m x m
frequency blocks.  A real symmetric matrix has Psi_{N-l} = conj(Psi_l), so
only the floor(N/2)+1 blocks Psi_0..Psi_{N/2} are ever formed: from the
first row with a real FFT, or, for a matrix banded to distance n, straight
from its n+1 band blocks.  Likewise the first row itself has only
floor(N/2)+1 distinct blocks, row[N-d] = row[d]^T; ``_mirror`` owns that
symmetry and makes every first row the package computes (an inverse FFT,
an average) exactly mirrored, so that every completion is symmetric to the
last bit.  Dense mN x mN matrices are only materialized by
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
from operator import index

import numpy as np

from .errors import BadInput, BandTooWide, NotPositiveDefinite


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _hermitize(psi: np.ndarray) -> np.ndarray:
    return 0.5 * (psi + np.conj(np.swapaxes(psi, -1, -2)))


def _count(x, what: str, low=0) -> int:
    """The count rule: ``x`` as an integer >= ``low`` (``operator.index``;
    not a bool), else BadInput naming ``what``.  Every count goes through it."""
    try:
        if type(x) is bool:
            raise TypeError  # operator.index reads True and False as 1 and 0
        x = index(x)
    except TypeError:
        raise BadInput(f"{what}={x!r} is not an integer") from None
    if x < low:
        raise BadInput(f"need {what} >= {low}, got {what}={x}")
    return x


def _check_sizes(m: int, n: int, *N: int) -> None:
    """The size rule: counts m >= 1, n >= 0 and, given N, N >= 2n+2, so that
    band and mirror do not overlap (a smaller N is BandTooWide).  Every entry
    that takes a size calls it, the solver at each evaluation."""
    _count(m, "m", 1)
    _count(n, "n")
    for size in N:
        if _count(size, "N", -math.inf) < 2 * n + 2:
            raise BandTooWide(f"N={size} < 2n+2={2 * n + 2}")


def _array(x, what: str, *shapes: tuple) -> np.ndarray:
    """The array rule: ``x``, an array or nested lists, as a real float64
    array of one of ``shapes``, where None is a length the caller does not
    know.  A ragged, complex or non-numeric (numeric strings too) ``x``, one
    with a bool anywhere (numpy reads a bool among numbers as a number), or
    one of another shape, raises BadInput.  Every entry that takes an array
    calls it; a float64 ndarray of an exact shape passes two tests."""
    if type(x) is not np.ndarray or x.dtype != np.float64:
        try:
            a = np.asarray(x)
        except ValueError:
            raise BadInput(f"{what} is ragged, not an array") from None
        if a.dtype.kind not in "iuf":
            raise BadInput(f"{what} holds {a.dtype} entries, not real numbers")
        if type(x) is not np.ndarray and any(isinstance(v, (bool, np.bool_)) for v in np.asarray(x, object).flat):
            raise BadInput(f"{what} holds a bool among its numbers")
        x = a.astype(float, copy=False)
    elif x.shape in shapes:
        return x
    for shape in shapes:
        if len(shape) == x.ndim and all(k is None or k == size for k, size in zip(shape, x.shape)):
            return x
    raise BadInput(f"{what} shape {x.shape} != {' or '.join(str(s).replace('None', '*') for s in shapes)}")


def _real(x, what: str) -> float:
    """The number rule: ``x`` as a float, the array rule on a 0-d value, so
    a bool, a string or a complex number raises BadInput."""
    return float(_array(x, what, ()))


def _tolerance(x, what: str) -> float:
    """The tolerance rule: ``x`` as a real number (``_real``) in [0, inf),
    since no residual meets a negative or NaN one and any meets inf."""
    if not 0 <= (x := _real(x, what)) < math.inf:
        raise BadInput(f"{what}={x!r} is not a finite non-negative number")
    return x


def _check_type(x, cls: type, what: str) -> None:
    """The type rule, at every public entry that takes a record: BadInput
    naming ``what`` unless ``x`` is a ``cls``, never an AttributeError."""
    if not isinstance(x, cls):
        raise BadInput(f"{what} {x!r} is not a {cls.__name__}")


def _option(x, choices: tuple, what: str) -> str:
    """The option rule: ``x`` as one of the strings ``choices``, else
    BadInput naming ``what``.  Only a string is compared: ``==`` and ``in``
    on an array compare elementwise and escape as ValueError."""
    if not isinstance(x, str) or x not in choices:
        raise BadInput(f"unknown {what} {x!r}")
    return x


def _band_row(band: np.ndarray, N: int) -> np.ndarray:
    """First block row of the symmetric block-circulant with band blocks
    ``band`` (n+1, m, m): row[d] = band[d], row[N-d] = band[d]^T, zeros
    elsewhere.  Where the band meets its mirror (the central block of an
    even N = 2n) the two are summed; elsewhere the mirror is copied, so the
    row is mirrored to the bit, signed zeros included."""
    n = band.shape[0] - 1
    row = np.zeros((N,) + band.shape[1:])
    row[: n + 1] = band
    mirror = np.swapaxes(band[:0:-1], 1, 2)  # blocks N-n..N-1
    if N == 2 * n:
        row[n] += mirror[0]
        mirror = mirror[1:]
    row[N - len(mirror):] = mirror
    return row


def _mirror(row: np.ndarray) -> np.ndarray:
    """Make a first block row (N, m, m) that of a symmetric block-circulant
    to the last bit, in place, and return it: row[N-d] = row[d]^T for
    0 < d < N/2, keeping the lower half (so band blocks 1..n keep their
    bits), and blocks 0 and N/2 (even N) symmetrized.  Allocates no
    full-size array."""
    N = len(row)
    h = (N - 1) // 2
    row[N - h:] = np.swapaxes(row[h:0:-1], 1, 2)
    row[0] = _sym(row[0])
    if N % 2 == 0:
        row[N // 2] = _sym(row[N // 2])
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


@dataclass(frozen=True)
class BlockCirculant:
    """Symmetric block-circulant matrix stored as its first block row.

    Every row the package computes is mirrored exactly by ``_mirror``;
    the class itself takes any row and does not check it."""

    m: int
    N: int
    first_row: np.ndarray  # (N, m, m)

    def __post_init__(self):
        _check_sizes(self.m, 0, self.N)
        object.__setattr__(self, "first_row", _array(self.first_row, "first_row", (self.N, self.m, self.m)))

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
        _check_sizes(self.m, self.n)
        blocks = _array(self.blocks, "blocks", (self.n + 1, self.m, self.m))
        # a non-finite block has a non-finite norm, and a norm that under- or
        # overflows leaves every relative tolerance of the solve meaningless
        if not 0.0 < _band_norm(blocks) < math.inf:
            raise BadInput("band blocks must be finite, with a band norm that neither under- nor overflows")
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
        _check_sizes(self.m, self.n, N)
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
    the real inverse FFT, whose output is real by construction and is
    mirrored exactly (``_mirror``).

    Raises
    ------
    NotPositiveDefinite
        If any frequency block fails Cholesky factorization.
    """
    _check_type(c, BlockCirculant, "matrix")
    head = _factored(c, "circ_inverse")[0]
    return BlockCirculant(c.m, c.N, _mirror(np.fft.irfft(np.linalg.inv(head), n=c.N, axis=0)))


def circ_logdet(c: BlockCirculant) -> float:
    """log det of a symmetric positive definite block-circulant.

    Equals the sum over frequencies of log det Psi_l; Psi_{N-l} is the
    conjugate of Psi_l, so only Psi_0..Psi_{N/2} are factored, by batched
    Cholesky, and weighted by their multiplicity.  Real by construction.
    """
    _check_type(c, BlockCirculant, "matrix")
    return _factored(c, "circ_logdet")[1]


def _dual_band(lam: np.ndarray, m: int, n: int, N: int) -> np.ndarray:
    """The band K_0..K_n (n+1, m, m) of ``project_band_gram(lam, m, n, N)``:
    K_d = (1/N) sum_i lam[i, i+d] for a bordered dual matrix ``lam``, or
    ``lam`` itself when it is given as that band."""
    _check_sizes(m, n, N)
    lam = _array(lam, "dual matrix", (n + 1, m, m), ((n + 1) * m, (n + 1) * m))
    if lam.ndim == 2:
        blocks = lam.reshape(n + 1, m, n + 1, m).swapaxes(1, 2)  # blocks[i, j] = block (i, j)
        return np.stack([blocks.diagonal(d).sum(-1) for d in range(n + 1)]) / N
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
    _check_type(c, BlockCirculant, "matrix")
    _check_sizes(c.m, n, c.N)
    return _sym(_block_toeplitz(circ_inverse(c).first_row[: n + 1]))


def circulant_average(dense: np.ndarray, m: int) -> BlockCirculant:
    """Orthogonal projection of a dense symmetric matrix onto block-circulants.

    Averages the m x m blocks along each circulant block diagonal, and
    mirrors the averages exactly (``_mirror``): block diagonal N-d of a
    symmetric matrix holds the transposes of diagonal d.  Used to read a
    circulant out of baseline iterates; the solver never calls it.
    """
    _check_sizes(m, 0)
    dense = _array(dense, "dense matrix", (None, None))
    N = len(dense) // m
    dense = _array(dense, f"dense matrix of {m} x {m} blocks", (N * m, N * m))
    blocks = dense.reshape(N, m, N, m).transpose(0, 2, 1, 3)  # (i, j, m, m)
    i = np.arange(N)
    j = (i[:, None] + i[None, :]) % N  # j[i, k] = (i + k) mod N
    return BlockCirculant(m, N, _mirror(blocks[i[:, None], j].mean(axis=0)))
