"""Shared oracles and generators for the test suite.

The oracles go through dense numpy linear algebra on materialized matrices,
independent of the package's spectral code paths.  Two helpers are thin
adapters to the package instead: ``band_spectrum_full`` (the band kernel,
which tests compare against the oracles) and ``in_dual_domain`` (the
package's PD test, used to sample dual variables).
"""

from dataclasses import dataclass

import numpy as np

from circmaxent import (
    BadInput,
    BandData,
    BlockCirculant,
    DualVariable,
    NotPositiveDefinite,
    circ_inverse,
    circ_logdet,
    project_band_gram,
)
from circmaxent.blockcirc import _band_spectrum


def sym(a):
    return 0.5 * (a + a.T)


def identity_circulant(m, N):
    row = np.zeros((N, m, m))
    row[0] = np.eye(m)
    return BlockCirculant(m, N, row)


def is_symmetric(c, rtol=1e-12):
    """True when the block-circulant with first row ``c.first_row`` is a
    symmetric matrix: row[N-k] = row[k]^T to ``rtol``."""
    mirror = np.swapaxes(c.first_row[(-np.arange(c.N)) % c.N], -1, -2)
    scale = max(1.0, float(np.abs(c.first_row).max()))
    return float(np.abs(c.first_row - mirror).max()) <= rtol * scale


def is_mirrored(row):
    """True when a first block row (N, m, m) is exactly that of a symmetric
    matrix: row[d] equals row[-d mod N]^T to the bit, signed zeros
    included, for every d."""
    bits = np.asarray(row, dtype=float).view(np.int64)
    N = len(bits)
    return all(np.array_equal(bits[d], bits[-d % N].T) for d in range(N))


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
    """O(N^2) direct evaluation of the block DFT, all N frequency blocks
    Psi_l = sum_k first_row[k] exp(-2j pi l k / N)."""
    ell = np.arange(c.N)
    w = np.exp(-2j * np.pi * np.outer(ell, ell) / c.N)
    return np.einsum("lk,kab->lab", w, c.first_row)


def band_spectrum_full(c):
    """All N frequency blocks of a symmetric block-circulant through the
    package's band kernel: its first floor(N/2)+1 first-row blocks are the
    band (the central block of an even N halved, since the kernel adds the
    band's mirror), and Psi_{N-l} = conj(Psi_l) fills in the rest."""
    K = c.first_row[: c.N // 2 + 1].copy()
    if c.N % 2 == 0:
        K[-1] *= 0.5
    head = _band_spectrum(K, c.N)
    return np.concatenate([head, np.conj(head[1:(c.N + 1) // 2][::-1])])


def spectrum_to_circulant(psi, rtol=1e-9):
    """Inverse transform of N frequency blocks (N, m, m); requires
    conjugate symmetry Psi_{N-l} = conj(Psi_l)."""
    N, m = psi.shape[0], psi.shape[1]
    mirror = np.conj(psi[(-np.arange(N)) % N])
    scale = max(1.0, float(np.abs(psi).max()))
    if np.abs(psi - mirror).max() > rtol * scale:
        raise ValueError("spectrum violates conjugate symmetry; no real circulant matches")
    return BlockCirculant(m, N, np.fft.ifft(psi, axis=0).real)


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


def is_hermitian(psi, rtol=1e-12):
    """True when every frequency block is Hermitian to ``rtol``."""
    dev = np.abs(psi - 0.5 * (psi + np.conj(np.swapaxes(psi, -1, -2)))).max()
    scale = max(1.0, float(np.abs(psi).max()))
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


def in_dual_domain(lam, N):
    """Membership of a DualVariable in the dual domain: its band projection
    is positive definite."""
    try:
        circ_logdet(project_band_gram(lam.value, lam.m, lam.n, N))
    except NotPositiveDefinite:
        return False
    return True


def random_feasible_dual(band, N, rng, spread=0.25):
    """Random dual variable inside the domain (rejection from the identity)."""
    size = (band.n + 1) * band.m
    while True:
        cand = DualVariable(
            band.m, band.n, np.eye(size) + spread * sym(rng.standard_normal((size, size)))
        )
        if in_dual_domain(cand, N):
            return cand
        spread *= 0.5


def spectral_lags(coeffs, Q, K, L=4096):
    """Lags Sigma_0..Sigma_K of the AR model sum_j coeffs[j] y_(t-j) = e_t,
    cov(e_t) = Q: the inverse DFT of the spectral density L(z)^-1 Q L(z)^-H,
    L(z) = sum_j coeffs[j] z^j, on an L-point grid of the unit circle
    (aliasing error of the order of the model's radius to the power L)."""
    h = np.linalg.inv(np.fft.fft(np.asarray(coeffs, dtype=float), n=L, axis=0))
    phi = h @ np.asarray(Q, dtype=float) @ np.conj(np.swapaxes(h, 1, 2))
    return np.fft.ifft(phi, axis=0)[: K + 1].real


@dataclass(frozen=True)
class CandidateReport:
    pd: bool
    min_eig: float


def check_candidate(first_row):
    """Positive definiteness of a full scalar circulant given its
    palindromic first row (row[k] = row[N-k]), from its eigenvalues, the
    real parts of the row's DFT."""
    row = np.asarray(first_row, dtype=float)
    if row.ndim != 1 or len(row) < 2:
        raise BadInput("expected a 1-D first row of length >= 2")
    min_eig = float(np.fft.fft(row).real.min())
    return CandidateReport(pd=min_eig > 0.0, min_eig=min_eig)


def white_noise_band(m, n):
    blocks = np.zeros((n + 1, m, m))
    blocks[0] = np.eye(m)
    return BandData(m, n, blocks)


def scalar_band(values):
    arr = np.asarray(values, dtype=float).reshape(-1, 1, 1)
    return BandData(1, len(arr) - 1, arr)


def completion_residuals(first_row, blocks):
    """Dense oracle for a completion's first block row (N, m, m) against
    the band Sigma_0..Sigma_n: the band residual (relative Frobenius
    mismatch of first_row[d] with Sigma_d^T) and the Dempster residual
    (largest off-band block of the dense inverse's first block row relative
    to its diagonal block).  Both are ratios, taken after dividing by the
    data's largest |entry|, so any representable scale reads the same."""
    blocks = np.asarray(blocks, dtype=float)
    scale = np.abs(blocks).max()
    row = np.asarray(first_row, dtype=float) / scale
    data = np.swapaxes(blocks, 1, 2) / scale
    n, m, N = len(blocks) - 1, blocks.shape[1], len(row)
    band_res = np.linalg.norm(row[: n + 1] - data) / np.linalg.norm(data)
    inv = np.linalg.inv(BlockCirculant(m, N, row).to_dense())
    inv_row = inv[:m].reshape(m, N, m).swapaxes(0, 1)
    off = inv_row[n + 1: N - n]
    dempster = max((np.linalg.norm(b) for b in off), default=0.0) / np.linalg.norm(inv_row[0])
    return float(band_res), float(dempster)


def certificate_holds(K, band, N):
    """Dense oracle for a certificate of infeasibility: the banded
    block-circulant C(K) of the precision band K (n+1, m, m) is positive
    definite, and its pairing Tr(C(K) Sigma) with the data, which is the same
    for every completion Sigma since C(K) is banded, is negative.  A PD
    C(K) pairs positively with every PD Sigma, so no completion exists
    (theorem of alternatives)."""
    C, lin, _ = dual_pairing(K, band, N)
    return bool(np.linalg.eigvalsh(C).min() > 0 and lin < 0)


def dual_pairing(K, band, N):
    """(C, lin, lin0) on dense matrices: the banded block-circulant C =
    C(K), its pairing lin = Tr(C Sigma) with the data, the same for every
    completion Sigma since C is banded, and lin0 = Tr(C (I_N x Sigma_0)) =
    N tr(K_0 Sigma_0).  With Sigma_0 = L L^T and C PD, lin / lin0 bounds the
    smallest eigenvalue of every whitened completion (I_N x L^-1) Sigma
    (I_N x L^-T) from above."""
    C = project_band_gram(np.asarray(K, dtype=float), band.m, band.n, N).to_dense()
    lin = float(np.trace(C @ band.embed_circulant(N).to_dense()))
    lin0 = float(np.trace(C @ np.kron(np.eye(N), band.blocks[0])))
    return C, lin, lin0


def boundary_holds(K, band, N, tol=1e-8):
    """Dense oracle for a boundary certificate: C(K) is positive definite
    and |Tr(C(K) Sigma)| < tol |N tr(K_0 Sigma_0)|, so every completion,
    whitened by Sigma_0, has a smallest eigenvalue below tol (see
    ``dual_pairing``)."""
    C, lin, lin0 = dual_pairing(K, band, N)
    return bool(np.linalg.eigvalsh(C).min() > 0 and abs(lin) < tol * abs(lin0))


def channel_band(rng, rhos):
    """(Sigma_0, Sigma_1) = (Q D Q^T, Q D diag(rhos) Q^T): independent
    scalar channels with lag-one correlations ``rhos`` in a random
    orthonormal basis Q, with random variances D.  Feasible at N exactly
    when every channel is (``scalar_bw1_feasible``)."""
    m = len(rhos)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    d = rng.uniform(0.5, 2.0, m)
    return np.stack([q @ np.diag(d) @ q.T, q @ np.diag(d * np.asarray(rhos)) @ q.T])


def known_answer_band(m, n, N, rng, margin):
    """``random_feasible_band``'s construction with its margin as an
    argument: a random banded circulant precision whose frequency blocks'
    smallest eigenvalue is shifted to ``margin`` exactly, and the band of its
    inverse.  That inverse has a banded inverse, so it is the band's maxent
    completion.  Returns (band, completion, cond), cond the completion's
    condition number."""
    K = np.zeros((n + 1, m, m))
    K[0] = np.eye(m) + 0.3 * sym(rng.standard_normal((m, m)))
    for d in range(1, n + 1):
        K[d] = rng.standard_normal((m, m)) * 0.4 / (d + 1)
    K[0] += (margin - np.linalg.eigvalsh(_band_spectrum(K, N)).min()) * np.eye(m)
    eigs = np.linalg.eigvalsh(_band_spectrum(K, N))
    sigma = circ_inverse(project_band_gram(K, m, n, N))
    return BandData(m, n, np.swapaxes(sigma.first_row[: n + 1], 1, 2)), sigma, eigs.max() / eigs.min()


def refuse_trial_factors(monkeypatch):
    """Make every point a solve tries after its start fail the PD test: the
    objective's first Cholesky, the start's, passes and every later one
    raises NotPositiveDefinite, so each trial lies outside the domain."""
    import circmaxent.solver as solver

    cholesky = solver._cholesky_blocks
    seen = []

    def refuse(psi, what):
        if what == "objective":
            seen.append(what)
            if len(seen) > 1:
                raise NotPositiveDefinite("objective: trial refused")
        return cholesky(psi, what)

    monkeypatch.setattr(solver, "_cholesky_blocks", refuse)


def line_change(K, S, t, band, N):
    """Dense oracle for the change f(K - t S) - f(K) of the dual objective
    f(K) = Tr(C(K) Sigma) - log det C(K) along a band direction S, in its
    eigenvalue form, which reads no difference of f: with C(K) = L L^T and
    mu the eigenvalues of L^-1 C(S) L^-T, it is t slope + sum_i psi(t mu_i),
    psi(x) = -log(1 - x) - x, where slope = -Tr(C(S) Sigma) + sum_i mu_i is
    the derivative at t = 0.  Returns (change, slope, noise); the change is
    inf where t max mu >= 1, that is where C(K - t S) is not PD.  The slope
    is a difference of two terms that cancel as the gradient falls, and
    noise = mN eps sum_ij |C(S)_ij Sigma_ij|, the size of a rounding of its
    first term, bounds its rounding error up to a small factor."""
    C, _, _ = dual_pairing(K, band, N)
    CS, lin_S, _ = dual_pairing(S, band, N)
    Li = np.linalg.inv(np.linalg.cholesky(C))
    mu = np.linalg.eigvalsh(sym(Li @ CS @ Li.T))
    slope = -lin_S + float(mu.sum())
    noise = band.m * N * float(np.finfo(float).eps) * float(np.sum(np.abs(CS * band.embed_circulant(N).to_dense())))
    x = t * mu
    if x.max() >= 1.0:
        return np.inf, slope, noise
    return t * slope + float(np.sum(-np.log1p(-x) - x)), slope, noise
