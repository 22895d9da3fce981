"""Feasibility analysis for the circulant completion problem.

For scalar data with bandwidth 1 there is a sharp closed-form test: a
positive definite circulant completion of (sigma_0, sigma_1) at size N
exists iff |sigma_1| < sigma_0 for N even, and
cos((N-1)pi/N) * sigma_0 < sigma_1 < sigma_0 for N odd.  For general scalar
bands the eigenvalues of any symmetric circulant completion are affine in
the unknown entries, so the feasible set is an intersection of half-spaces;
the affine forms are exposed for region analysis.  Matrix-valued feasibility
is delegated to the solver (plus the sufficient condition of a positive
definite circulant approximant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockcirc import BandData, _check_sizes, _check_type, _real
from .errors import BadInput


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Closed-form verdict with signed distance of sigma_1 to the boundary."""

    feasible: bool
    margin: float
    lower: float
    upper: float


@dataclass(frozen=True)
class AffineEigForm:
    """One circulant eigenvalue as an affine function of the unknown entries.

    The eigenvalue at frequency k is
        constant + sum_d coeffs[d] * x_d
    over the unknown circular distances ``distances`` (n+1 .. floor(N/2)).
    """

    k: int
    constant: float
    distances: np.ndarray
    coeffs: np.ndarray


def scalar_bw1_feasible(sigma0: float, sigma1: float, N: int) -> FeasibilityVerdict:
    """Closed-form feasibility test for scalar bandwidth-1 data.

    Raises
    ------
    BadInput
        For N < 4 (as BandTooWide), a sigma that is not a real number,
        sigma0 outside (0, inf) or a non-finite sigma1.
    """
    _check_sizes(1, 1, N)
    sigma0, sigma1 = _real(sigma0, "sigma0"), _real(sigma1, "sigma1")
    if not (0 < sigma0 < math.inf and math.isfinite(sigma1)):
        raise BadInput(f"need finite sigma1 and 0 < sigma0 < inf, got sigma0={sigma0}, sigma1={sigma1}")
    if N % 2 == 0:
        lower, upper = -sigma0, sigma0
    else:
        lower, upper = math.cos((N - 1) * math.pi / N) * sigma0, sigma0
    margin = min(upper - sigma1, sigma1 - lower)
    return FeasibilityVerdict(feasible=margin > 0, margin=margin, lower=lower, upper=upper)


def eig_affine_forms(band: BandData, N: int) -> list:
    """Eigenvalues of scalar circulant completions as affine forms.

    Returns the ceil((N+1)/2) distinct forms (conjugate pairs merged),
    indexed k = 0 .. floor(N/2).  The unknown at circular distance d enters
    form k with coefficient 2 cos(2 pi k d / N), halved when d = N/2 (that
    entry appears once per row); the constant term collects the given band
    the same way.

    Raises
    ------
    BadInput
        For matrix-valued data (m > 1), where eigenvalues are not affine in
        the unknowns.
    """
    _check_type(band, BandData, "band")
    if band.m != 1:
        raise BadInput("affine eigenvalue forms exist only for scalar data")
    n = band.n
    _check_sizes(band.m, n, N)
    sig = band.blocks[:, 0, 0]
    k = np.arange(N // 2 + 1)
    distances = k[n + 1:]
    # cos(2 pi k d / N) for k, d = 0..floor(N/2); k d mod N in integers keeps
    # every argument below 2 pi
    cos = np.cos(2.0 * np.pi * (np.outer(k, k) % N) / N)
    const = sig[0] + cos[:, 1:n + 1] @ (2.0 * sig[1:])
    coeffs = np.where(2 * distances == N, 1.0, 2.0) * cos[:, n + 1:]
    return [AffineEigForm(k=i, constant=float(const[i]), distances=distances, coeffs=coeffs[i])
            for i in range(len(k))]
