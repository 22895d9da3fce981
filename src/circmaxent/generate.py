"""Random feasible problem instances for benchmarks and tests.

Feasibility is guaranteed by construction: draw a random banded symmetric
block-circulant precision, load its diagonal until positive definite, invert
it and read off the band — the inverse itself is then a positive definite
circulant completion of that band.  The AR route draws random stable
autoregression coefficients instead, which pins the spectral-factor radius
(useful for decay studies where the band must not depend on N).
"""

from __future__ import annotations

import numpy as np

from .blockcirc import BandData, BlockCirculant, _band_row, _hermitize, _sym, circ_inverse, dft_spectrum
from .errors import BadInput
from .toeplitz import _companion, band_from_ar, spectral_radius

# Smallest frequency-block eigenvalue the loaded precision is pushed to.
_MARGIN = 0.3


def random_feasible_band(m: int, n: int, N: int, rng) -> BandData:
    """Band of the inverse of a random banded circulant precision."""
    if N < 2 * n + 2:
        raise BadInput(f"N={N} < 2n+2={2 * n + 2}")
    band = np.zeros((n + 1, m, m))
    band[0] = np.eye(m) + 0.3 * _sym(rng.standard_normal((m, m)))
    for d in range(1, n + 1):
        band[d] = rng.standard_normal((m, m)) * 0.4 / (d + 1)
    prec = BlockCirculant(m, N, _band_row(band, N))
    eigs = np.linalg.eigvalsh(_hermitize(dft_spectrum(prec).psi))
    lift = _MARGIN - float(eigs.min())
    if lift > 0:
        band[0] += lift * np.eye(m)
        prec = BlockCirculant(m, N, _band_row(band, N))
    sigma = circ_inverse(prec)
    return BandData(m, n, np.swapaxes(sigma.first_row[: n + 1], 1, 2))


def random_stable_ar(m: int, n: int, rng, radius: float = 0.6):
    """Random AR coefficients rescaled to the requested companion radius.

    Scaling coefficient k by s^k scales every root of the matrix polynomial
    by s, so the radius is hit exactly (up to the eigenvalue computation).
    Returns (coeffs, innovation).
    """
    if not 0.0 < radius < 1.0:
        raise BadInput(f"radius={radius} outside (0, 1)")
    coeffs = np.zeros((n + 1, m, m))
    coeffs[0] = np.eye(m)
    for k in range(1, n + 1):
        coeffs[k] = rng.standard_normal((m, m)) * 0.5 / k
    if n > 0:
        rho = spectral_radius(_companion(coeffs))
        if rho > 0:
            s = radius / rho
            for k in range(1, n + 1):
                coeffs[k] *= s ** k
    g = rng.standard_normal((m, m))
    innovation = g @ g.T + 0.5 * np.eye(m)
    return coeffs, innovation


def random_ar_band(m: int, n: int, rng, radius: float = 0.6) -> BandData:
    """Covariance band of a random stable AR model (radius pinned)."""
    coeffs, innovation = random_stable_ar(m, n, rng, radius=radius)
    return band_from_ar(coeffs, innovation)
