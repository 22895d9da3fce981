"""Band extension machinery: Yule-Walker in both directions (band to AR
model and AR model to band), extension, approximant."""

import numpy as np
import pytest

from circmaxent import (
    BadInput,
    BandData,
    BandTooWide,
    NotPositiveDefinite,
    Unstable,
    band_from_ar,
    circ_inverse,
    circulant_approx,
    extend_covariances,
    phi_inverse_coeffs,
    random_stable_ar,
    solve_yule_walker,
)
from helpers import is_symmetric, scalar_band, spectral_lags, white_noise_band


def lag(band, d):
    """Sigma_d with the stationarity convention Sigma_{-d} = Sigma_d^T."""
    return band.blocks[d] if d >= 0 else band.blocks[-d].T


def ar_equation_residual(model, band):
    """max_j || sum_k A_k Sigma_{j-k} - delta_{j0} innovation || (definition)
    for the AR model (coeffs, innovation)."""
    coeffs, innovation = model
    worst = 0.0
    for j in range(band.n + 1):
        acc = np.zeros((band.m, band.m))
        for k in range(band.n + 1):
            acc += coeffs[k] @ lag(band, j - k)
        if j == 0:
            acc -= innovation
        worst = max(worst, np.abs(acc).max())
    return worst


class TestYuleWalker:
    def test_white_noise(self):
        coeffs, innovation = solve_yule_walker(white_noise_band(2, 3))
        assert np.abs(coeffs[1:]).max() == 0.0
        assert np.abs(innovation - np.eye(2)).max() == 0.0

    def test_scalar_hand_case(self):
        coeffs, innovation = solve_yule_walker(scalar_band([1.0, 0.5]))
        assert abs(coeffs[1, 0, 0] + 0.5) < 1e-14
        assert abs(innovation[0, 0] - 0.75) < 1e-14

    def test_residual_random(self):
        rng = np.random.default_rng(21)
        coeffs, innov = random_stable_ar(2, 3, rng, radius=0.6)
        band = band_from_ar(coeffs, innov)
        model = solve_yule_walker(band)
        scale = max(1.0, np.abs(band.toeplitz()).max())
        assert ar_equation_residual(model, band) <= 1e-9 * scale
        assert np.linalg.eigvalsh(model[1]).min() > 0

    def test_stable_ar_radius_must_lie_in_the_unit_interval(self):
        rng = np.random.default_rng(23)
        # a radius that is not a real number is refused too ("0.5" and 0.5j
        # raised TypeError)
        for radius in (0.0, 1.0, -0.5, 1.5, float("nan"), "0.5", True, 0.5j):
            with pytest.raises(BadInput):
                random_stable_ar(2, 1, rng, radius=radius)

    def test_round_trip_recovers_model(self):
        rng = np.random.default_rng(22)
        for m, n in [(1, 2), (2, 1), (2, 2), (3, 2)]:
            coeffs, innov = random_stable_ar(m, n, rng, radius=0.55)
            fit_coeffs, fit_innov = solve_yule_walker(band_from_ar(coeffs, innov))
            assert np.abs(fit_coeffs - coeffs).max() < 1e-10
            assert np.abs(fit_innov - innov).max() < 1e-10

    def test_indefinite_band_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            solve_yule_walker(scalar_band([1.0, 1.1]))


class TestPhiInverseCoeffs:
    def test_white_noise(self):
        M = phi_inverse_coeffs(*solve_yule_walker(white_noise_band(2, 2)))
        assert np.abs(M[0] - np.eye(2)).max() == 0.0
        assert np.abs(M[1:]).max() == 0.0

    def test_scalar_hand_case(self):
        M = phi_inverse_coeffs(*solve_yule_walker(scalar_band([1.0, 0.5])))
        assert abs(M[0, 0, 0] - 5.0 / 3.0) < 1e-12
        assert abs(M[1, 0, 0] + 2.0 / 3.0) < 1e-12

    def test_fourier_extraction_oracle(self):
        # recover the Laurent coefficients of L(theta)^H Lam^-1 L(theta) by
        # numerical Fourier integration on a uniform grid
        rng = np.random.default_rng(23)
        coeffs, innov = random_stable_ar(2, 2, rng, radius=0.5)
        fit_coeffs, fit_innov = solve_yule_walker(band_from_ar(coeffs, innov))
        M = phi_inverse_coeffs(fit_coeffs, fit_innov)
        grid = 64
        thetas = 2 * np.pi * np.arange(grid) / grid
        lam_inv = np.linalg.inv(fit_innov)
        acc = np.zeros((len(fit_coeffs), 2, 2), complex)
        for theta in thetas:
            l_val = sum(c * np.exp(-1j * theta * k) for k, c in enumerate(fit_coeffs))
            phi_inv = l_val.conj().T @ lam_inv @ l_val
            for j in range(len(fit_coeffs)):
                acc[j] += phi_inv * np.exp(1j * theta * j) / grid
        # coefficient of exp(-j theta j) is M_j
        assert np.abs(acc.real - M).max() < 1e-12
        assert np.abs(acc.imag).max() < 1e-12

    def test_m0_symmetric(self):
        rng = np.random.default_rng(24)
        coeffs, innov = random_stable_ar(3, 2, rng)
        M = phi_inverse_coeffs(*solve_yule_walker(band_from_ar(coeffs, innov)))
        assert np.abs(M[0] - M[0].T).max() < 1e-12


class TestExtendCovariances:
    def test_white_noise_zeros(self):
        ext = extend_covariances(white_noise_band(2, 2), 8)
        assert np.abs(ext).max() == 0.0

    def test_scalar_ar1_closed_form(self):
        ext = extend_covariances(scalar_band([1.0, 0.5]), 10)
        ks = np.arange(2, 11)
        assert np.abs(ext[:, 0, 0] - 0.5 ** ks).max() < 1e-13

    def test_ar_recursion(self):
        # band and recursion reproduce the lags of the model's spectral density
        rng = np.random.default_rng(28)
        coeffs, innov = random_stable_ar(2, 2, rng, radius=0.6)
        band = band_from_ar(coeffs, innov)
        lags = np.concatenate([band.blocks, extend_covariances(band, 12)])
        expect = spectral_lags(coeffs, innov, 12)
        assert np.linalg.norm(lags - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_extension_keeps_toeplitz_pd(self):
        rng = np.random.default_rng(29)
        band = band_from_ar(*random_stable_ar(2, 2, rng, radius=0.6))
        ext = extend_covariances(band, 12)
        blocks = np.concatenate([band.blocks, ext])
        for K in range(band.n + 1, 13):
            big = BandData(2, K, blocks[: K + 1]).toeplitz()
            assert np.linalg.eigvalsh(big).min() > 0

    def test_spectral_factorization_consistency(self):
        # truncated lag transform matches L^-1 Lam L^-H on a frequency grid
        rng = np.random.default_rng(30)
        band = band_from_ar(*random_stable_ar(2, 1, rng, radius=0.5))
        coeffs, innovation = solve_yule_walker(band)
        K = 200
        ext = extend_covariances(band, K)
        lags = [band.blocks[k] for k in range(band.n + 1)] + list(ext)
        for theta in np.linspace(0.1, np.pi, 9):
            phi_lags = lags[0].astype(complex)
            for d in range(1, K + 1):
                phi_lags = phi_lags + lags[d] * np.exp(-1j * theta * d)
                phi_lags = phi_lags + lags[d].T * np.exp(1j * theta * d)
            l_val = sum(c * np.exp(-1j * theta * k) for k, c in enumerate(coeffs))
            l_inv = np.linalg.inv(l_val)
            phi_fact = l_inv @ innovation @ l_inv.conj().T
            assert np.abs(phi_lags - phi_fact).max() < 1e-4


class TestCirculantApprox:
    def test_white_noise_identity(self):
        for N in (6, 9):
            approx = circulant_approx(white_noise_band(2, 2), N)
            assert np.abs(approx.to_dense() - np.eye(2 * N)).max() < 1e-14

    def test_scalar_ar1_row(self):
        approx = circulant_approx(scalar_band([1.0, 0.4]), 9)
        expect = [1.0, 0.4, 0.4 ** 2, 0.4 ** 3, 0.4 ** 4, 0.4 ** 4, 0.4 ** 3, 0.4 ** 2, 0.4]
        assert np.abs(approx.first_row.ravel() - expect).max() < 1e-14

    def test_even_central_block_is_sum(self):
        rng = np.random.default_rng(31)
        band = band_from_ar(*random_stable_ar(2, 1, rng, radius=0.6))
        N = 8
        ext = extend_covariances(band, N // 2)
        approx = circulant_approx(band, N)
        sig = ext[N // 2 - band.n - 1]
        assert np.abs(approx.first_row[N // 2] - (sig.T + sig)).max() < 1e-13
        assert is_symmetric(approx, 1e-12)

    def test_offband_inverse_decays_below_1e6_by_64(self):
        rng = np.random.default_rng(32)
        band = band_from_ar(*random_stable_ar(1, 1, rng, radius=0.6))
        inv = circ_inverse(circulant_approx(band, 64))
        off = inv.first_row[band.n + 1: 64 - band.n]
        rel = max(np.linalg.norm(b) for b in off) / np.linalg.norm(inv.first_row[0])
        assert rel < 1e-6

    def test_offband_norm_non_increasing(self):
        rng = np.random.default_rng(33)
        band = band_from_ar(*random_stable_ar(2, 2, rng, radius=0.65))
        norms = []
        for N in (16, 32, 64, 128):
            inv = circ_inverse(circulant_approx(band, N))
            off = inv.first_row[band.n + 1: N - band.n]
            norms.append(max(np.linalg.norm(b) for b in off) / np.linalg.norm(inv.first_row[0]))
        assert all(norms[i + 1] <= norms[i] for i in range(len(norms) - 1))

    def test_band_too_wide(self):
        with pytest.raises(BandTooWide):
            circulant_approx(scalar_band([1.0, 0.2]), 3)

    def test_band_preserved_exactly(self):
        rng = np.random.default_rng(34)
        band = band_from_ar(*random_stable_ar(2, 2, rng, radius=0.5))
        approx = circulant_approx(band, 12)
        assert np.abs(approx.first_row[0] - band.blocks[0]).max() == 0.0
        for k in range(1, band.n + 1):
            assert np.abs(approx.first_row[k] - band.blocks[k].T).max() == 0.0
            assert np.abs(approx.first_row[12 - k] - band.blocks[k]).max() == 0.0


class TestZeroBandwidth:
    def test_degenerate_band_end_to_end(self):
        blocks = np.array([[[2.0, 0.3], [0.3, 1.5]]])
        band = BandData(2, 0, blocks)
        assert np.abs(solve_yule_walker(band)[1] - blocks[0]).max() == 0.0
        assert np.abs(extend_covariances(band, 5)).max() == 0.0
        # K > n is checked as the size rule for N = 2K, and 2 * True is an
        # integer: a bool K gave one lag here
        for K in (True, False, 1.0, "1", 1j):
            with pytest.raises(BadInput):
                extend_covariances(band, K)
        approx = circulant_approx(band, 6)
        expect = np.kron(np.eye(6), blocks[0])
        assert np.abs(approx.to_dense() - expect).max() == 0.0


class TestBandFromAr:
    def test_spectral_oracle_grid(self):
        rng = np.random.default_rng(36)
        for m in (1, 2, 3):
            for n in range(4):
                for radius in (0.3, 0.6, 0.9):
                    coeffs, innov = random_stable_ar(m, n, rng, radius=radius)
                    band = band_from_ar(coeffs, innov)
                    expect = spectral_lags(coeffs, innov, n)
                    assert np.linalg.norm(band.blocks - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_unstable_rejected(self):
        with pytest.raises(Unstable):
            band_from_ar([[[1.0]], [[-1.01]]], [[1.0]])
        # the model is monic, coeffs[0] = I, which the companion matrix's
        # root test does not read
        with pytest.raises(BadInput, match="identity"):
            band_from_ar([[[2.0]], [[0.5]]], [[1.0]])

    def test_indefinite_innovation_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            band_from_ar([[[1.0]], [[-0.5]]], [[-1.0]])

    def test_matches_long_simulation(self):
        # independent oracle: simulate the autoregression and estimate lags
        rng = np.random.default_rng(35)
        coeffs, innov = random_stable_ar(2, 1, rng, radius=0.5)
        band = band_from_ar(coeffs, innov)
        steps = 200_000
        chol = np.linalg.cholesky(innov)
        noise = rng.standard_normal((steps, 2)) @ chol.T
        y = np.zeros((steps, 2))
        for t in range(1, steps):
            y[t] = noise[t] - coeffs[1] @ y[t - 1]
        y = y[1000:]
        sig0 = y.T @ y / len(y)
        sig1 = y[1:].T @ y[:-1] / (len(y) - 1)
        assert np.abs(sig0 - band.blocks[0]).max() < 0.05
        assert np.abs(sig1 - band.blocks[1]).max() < 0.05
