"""Correctness checks that use numpy only, never the package under test.

A completion is given by its first block row ``row`` (N, m, m): block k is
Sigma(0, k) of the symmetric block-circulant.  The band ``blocks``
(n+1, m, m) follows the problem-file convention, so ``row[k] == blocks[k].T``
for 0 <= k <= n.  A completion passes when

* every Hermitian frequency block of ``row`` is positive definite,
* its band matches ``blocks`` to ``BAND_RTOL`` relative Frobenius error, and
* the off-band blocks of its inverse, at circular distance n+1 .. N-n-1,
  vanish to ``OFFBAND_RTOL`` relative to the inverse's diagonal block.

Feasibility verdicts are checked against answers fixed by construction: a
feasible band is read off a positive definite circulant, an infeasible one
comes with a dual certificate that is checked here.
"""

from __future__ import annotations

import math

import numpy as np

BAND_RTOL = 1e-6
OFFBAND_RTOL = 1e-6


def frequency_blocks(row: np.ndarray) -> np.ndarray:
    """Hermitian parts of the block DFT of a first block row, shape (N, m, m)."""
    psi = np.fft.fft(row, axis=0)
    return 0.5 * (psi + np.conj(np.swapaxes(psi, -1, -2)))


def check_completion(row, blocks) -> dict:
    """Residuals of a completion and whether it passes.

    Returns a dict with ``ok``, ``min_eig`` (smallest frequency-block
    eigenvalue relative to the largest), ``band_residual`` and
    ``dempster_residual``.
    """
    row = np.asarray(row, dtype=float)
    blocks = np.asarray(blocks, dtype=float)
    N, m = row.shape[0], row.shape[1]
    n = blocks.shape[0] - 1
    out = {"ok": False, "min_eig": math.nan, "band_residual": math.nan, "dempster_residual": math.nan}
    if row.shape != (N, m, m) or blocks.shape[1:] != (m, m) or N < 2 * n + 2:
        return out
    if not np.all(np.isfinite(row)):
        return out
    want = np.concatenate([blocks[:1], np.swapaxes(blocks[1:], -1, -2)])
    out["band_residual"] = float(np.linalg.norm(row[: n + 1] - want) / np.linalg.norm(want))
    psi = frequency_blocks(row)
    eig = np.linalg.eigvalsh(psi)
    top = float(np.abs(eig).max())
    out["min_eig"] = float(eig.min()) / top if top > 0 else math.nan
    if not out["min_eig"] > 0:
        return out
    inv_row = np.fft.ifft(np.linalg.inv(psi), axis=0).real
    off = inv_row[n + 1: N - n]
    ref = float(np.linalg.norm(inv_row[0]))
    out["dempster_residual"] = float(np.linalg.norm(off, axis=(1, 2)).max() / ref) if len(off) else 0.0
    out["ok"] = out["band_residual"] <= BAND_RTOL and out["dempster_residual"] <= OFFBAND_RTOL
    return out


def scalar_bw1_witness(rho: float, N: int):
    """First row of a positive definite scalar circulant with c_0 = 1 and
    c_1 = c_{N-1} = rho, or None when this construction has none.

    For rho > 0 the row is rho everywhere off the diagonal (eigenvalues
    1 - rho and 1 + (N-1) rho).  For rho <= 0 it is the identity plus a
    multiple of cos(2 pi h k / N), h = floor(N/2), whose eigenvalues are
    1 - a and 1 - a + a N / 2 (or 1 - a + a N for even N); with
    a = rho / cos(2 pi h / N) this is PD exactly when a < 1.
    """
    k = np.arange(N)
    if 0.0 < rho < 1.0:
        row = np.full(N, rho)
    else:
        h = N // 2
        a = rho / math.cos(2.0 * math.pi * h / N)
        if not 0.0 <= a < 1.0:
            return None
        row = a * np.cos(2.0 * math.pi * h * k / N)
    row[0] = 1.0
    return row if float(np.fft.fft(row).real.min()) > 0 else None


def scalar_bw1_certificate(sigma0: float, sigma1: float, N: int):
    """Dual certificate of infeasibility for scalar bandwidth-1 data, or None.

    K is the banded circulant with k_0 = -min_l cos(2 pi l / N) and
    k_1 = k_{N-1} = 1/2.  Its eigenvalues k_0 + cos(2 pi l / N) are all
    nonnegative, so <K, Sigma> > 0 for every positive definite Sigma; the
    band fixes <K, Sigma> = N (k_0 sigma_0 + sigma_1), so a nonpositive value
    rules out every completion.
    """
    k0 = -float(np.cos(2.0 * np.pi * np.arange(N) / N).min())
    inner = N * (k0 * sigma0 + sigma1)
    return {"k0": k0, "k1": 0.5, "inner": inner} if inner <= 0 else None
