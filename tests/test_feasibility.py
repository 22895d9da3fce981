"""Closed-form feasibility, affine eigenvalue forms, candidate checks."""

import math

import numpy as np
import pytest

from circmaxent import (
    BadInput,
    SolverConfig,
    eig_affine_forms,
    scalar_bw1_feasible,
    solve,
)
from circmaxent.blockcirc import BlockCirculant
from helpers import band_spectrum_full, certificate_holds, check_candidate, scalar_band


def cosine_mix_row(sigma0, sigma1, N):
    """PD-candidate completion: blend of the extremal cosine row and a
    diagonal bump, matching (sigma0, sigma1) exactly.

    The pure cosine row at the top frequency attains the odd-N boundary; any
    sigma1 strictly inside blends with positive diagonal weight, giving a
    strictly PD circulant.
    """
    k0 = (N - 1) // 2
    bound = math.cos(2 * math.pi * k0 / N)
    a = sigma1 / (sigma0 * bound)
    row = np.array([a * sigma0 * math.cos(2 * math.pi * k0 * d / N) for d in range(N)])
    row[0] = sigma0
    return row


class TestScalarBw1:
    def test_paper_case_n7_infeasible(self):
        verdict = scalar_bw1_feasible(1.0, -0.91, 7)
        assert not verdict.feasible
        assert abs(verdict.lower - (-0.9010)) < 1e-4

    def test_paper_case_n9_feasible(self):
        verdict = scalar_bw1_feasible(1.0, -0.91, 9)
        assert verdict.feasible
        assert abs(verdict.lower - (-0.9397)) < 1e-4

    def test_zero_offdiagonal_always_feasible(self):
        for N in range(4, 16):
            assert scalar_bw1_feasible(1.0, 0.0, N).feasible

    def test_even_bound(self):
        assert scalar_bw1_feasible(2.0, -1.999, 8).feasible
        assert not scalar_bw1_feasible(2.0, -2.0, 8).feasible
        assert not scalar_bw1_feasible(2.0, 2.1, 8).feasible

    def test_margin_is_signed_distance(self):
        verdict = scalar_bw1_feasible(1.0, 0.0, 10)
        assert verdict.feasible and abs(verdict.margin - 1.0) < 1e-14
        # infeasible: negative margin equals the overshoot past the bound
        verdict = scalar_bw1_feasible(1.0, -0.91, 7)
        assert abs(verdict.margin - (-0.91 - math.cos(6 * math.pi / 7))) < 1e-12
        assert verdict.margin < 0

    def test_bad_input(self):
        with pytest.raises(BadInput):
            scalar_bw1_feasible(1.0, 0.2, 3)
        # non-finite data answered feasible=False with margin nan, and True
        # with margin inf; a string or complex value raised TypeError and a
        # bool sigma1 was read as 1
        for sigma0, sigma1 in ((0.0, 0.2), (math.nan, 0.3), (1.0, math.nan), (math.inf, 0.3),
                               (1.0, "0.3"), ("1", 0.3), (1.0, 0.3 + 0j), (1.0, 1j), (1.0, True), (True, 0.3)):
            with pytest.raises(BadInput):
                scalar_bw1_feasible(sigma0, sigma1, 8)


class TestAffineForms:
    def test_count_and_indices(self):
        for N in (7, 8, 9, 12):
            forms = eig_affine_forms(scalar_band([1.0, 0.1]), N)
            assert len(forms) == (N + 1) // 2 + (1 - N % 2)  # ceil((N+1)/2)
            assert [f.k for f in forms] == list(range(N // 2 + 1))

    def test_paper_n7_coefficients(self):
        forms = eig_affine_forms(scalar_band([1.0, -0.91]), 7)
        assert abs(forms[0].constant - (-0.82)) < 1e-4
        assert np.abs(forms[0].coeffs - [2.0, 2.0]).max() < 1e-12
        assert abs(forms[1].constant - (-0.134751)) < 1e-4
        assert np.abs(forms[1].coeffs - [-0.445042, -1.80194]).max() < 1e-4
        assert abs(forms[2].constant - 1.40499) < 1e-4
        assert np.abs(forms[2].coeffs - [-1.80194, 1.24698]).max() < 1e-4
        assert abs(forms[3].constant - 2.63976) < 1e-4
        assert np.abs(forms[3].coeffs - [1.24698, -0.445042]).max() < 1e-4

    def test_paper_n9_coefficients(self):
        forms = eig_affine_forms(scalar_band([1.0, -0.91]), 9)
        assert abs(forms[1].constant - (-0.394201)) < 1e-4
        assert np.abs(forms[1].coeffs - [0.347296, -1.0, -1.87939]).max() < 1e-4
        assert abs(forms[2].constant - 0.68396) < 1e-4
        assert np.abs(forms[2].coeffs - [-1.87939, -1.0, 1.53209]).max() < 1e-4
        assert abs(forms[3].constant - 1.91) < 1e-4
        assert np.abs(forms[3].coeffs - [-1.0, 2.0, -1.0]).max() < 1e-4
        assert abs(forms[4].constant - 2.71024) < 1e-4
        assert np.abs(forms[4].coeffs - [1.53209, -1.0, 0.347296]).max() < 1e-4

    def test_consistency_with_spectrum(self):
        rng = np.random.default_rng(70)
        for N in (6, 7, 9, 10):
            n = 1
            band = scalar_band([1.5, 0.3])
            forms = eig_affine_forms(band, N)
            num_unknown = len(forms[0].distances)
            x = rng.uniform(-0.3, 0.3, size=num_unknown)
            row = np.zeros(N)
            row[0] = band.blocks[0, 0, 0]
            row[1] = row[N - 1] = band.blocks[1, 0, 0]
            for d, val in zip(forms[0].distances, x):
                row[d] = val
                row[N - d] = val
            psi = band_spectrum_full(BlockCirculant(1, N, row.reshape(N, 1, 1)))[:, 0, 0]
            for f in forms:
                assert abs(f.constant + f.coeffs @ x - psi[f.k].real) < 1e-12

    def test_matches_the_loop_definition(self):
        # the forms as a loop over k and d, the arguments 2 pi (k d mod N) / N
        # reduced in integers; the vectorized forms sum the constant in
        # another order, so they agree to rounding
        for sig, N in (([1.0], 6), ([1.0, -0.91], 7), ([2.0, 0.5, -0.2, 0.1], 64),
                       ([1.0, 0.3, 0.1], 65), ([1.0, 0.4], 1001)):
            n = len(sig) - 1
            forms = eig_affine_forms(scalar_band(sig), N)
            for f in forms:
                cos = [math.cos(2.0 * math.pi * (f.k * d % N) / N) for d in range(N // 2 + 1)]
                const = sig[0] + sum(2.0 * cos[j] * sig[j] for j in range(1, n + 1))
                coeffs = [(1.0 if 2 * d == N else 2.0) * cos[d] for d in range(n + 1, N // 2 + 1)]
                assert f.distances.tolist() == list(range(n + 1, N // 2 + 1))
                assert abs(f.constant - const) <= 1e-14
                assert np.abs(f.coeffs - coeffs).max() <= 1e-15

    def test_matrix_data_rejected(self):
        from helpers import white_noise_band

        with pytest.raises(BadInput):
            eig_affine_forms(white_noise_band(2, 1), 8)


class TestCheckCandidate:
    def test_identity_row(self):
        report = check_candidate([1.0, 0.0, 0.0, 0.0])
        assert report.pd and abs(report.min_eig - 1.0) < 1e-14

    def test_n4_completion_margin(self):
        # eigenvalues of Circ(1, .3, x, .3) are 1.6+x, 1-x (twice), 0.4+x;
        # the minimum is 0.4+x, confirmed by the dense eigenvalue oracle
        x = 0.155744
        row = [1.0, 0.3, x, 0.3]
        report = check_candidate(row)
        assert report.pd
        dense_min = np.linalg.eigvalsh(
            BlockCirculant(1, 4, np.reshape(row, (4, 1, 1))).to_dense()
        ).min()
        assert abs(report.min_eig - dense_min) < 1e-10
        assert abs(report.min_eig - (0.4 + x)) < 1e-12

    def test_infeasible_n7_grid_has_no_pd_point(self):
        # paper's empty-intersection example: no (x, y) in [-1, 1]^2 works
        forms = eig_affine_forms(scalar_band([1.0, -0.91]), 7)
        grid = np.linspace(-1.0, 1.0, 81)
        xs, ys = np.meshgrid(grid, grid)
        min_eig = np.full_like(xs, np.inf)
        for f in forms:
            min_eig = np.minimum(min_eig, f.constant + f.coeffs[0] * xs + f.coeffs[1] * ys)
        assert min_eig.max() < 0

    def test_grid_values_match_check_candidate(self):
        forms = eig_affine_forms(scalar_band([1.0, -0.91]), 7)
        x, y = 0.3, -0.2
        row = [1.0, -0.91, x, y, y, x, -0.91]
        report = check_candidate(row)
        by_forms = min(f.constant + f.coeffs @ [x, y] for f in forms)
        assert abs(report.min_eig - by_forms) < 1e-12


class TestBoundarySharpness:
    @pytest.mark.parametrize("N", [5, 7, 9])
    def test_odd_bound_flips_at_epsilon(self, N):
        bound = math.cos((N - 1) * math.pi / N)
        for eps, expect in [(-1e-6, True), (1e-6, False)]:
            sigma1 = bound * (1 + eps)  # eps<0 moves inside (less negative)
            verdict = scalar_bw1_feasible(1.0, sigma1, N)
            assert verdict.feasible == expect
            if expect:
                # analytic candidate completion is strictly PD
                report = check_candidate(cosine_mix_row(1.0, sigma1, N))
                assert report.pd
            else:
                # no grid point, including the near-extremal candidates, is PD
                forms = eig_affine_forms(scalar_band([1.0, sigma1]), N)
                dim = len(forms[0].distances)
                base = cosine_mix_row(1.0, bound, N)[forms[0].distances]
                offsets = np.linspace(-0.02, 0.02, 21)
                grids = np.meshgrid(*([offsets] * dim))
                pts = np.stack([g.ravel() for g in grids], axis=1) + base
                coarse = np.meshgrid(*([np.linspace(-1, 1, 13)] * dim))
                pts = np.vstack([pts, np.stack([g.ravel() for g in coarse], axis=1)])
                vals = np.full(len(pts), np.inf)
                for f in forms:
                    vals = np.minimum(vals, f.constant + pts @ f.coeffs)
                assert vals.max() <= 0


class TestSolverAgreement:
    def test_verdict_matches_solver(self):
        for sigma1 in (-0.8, -0.4, 0.0, 0.45, 0.8):
            for N in (8, 11, 16):
                verdict = scalar_bw1_feasible(1.0, sigma1, N)
                res = solve(
                    scalar_band([1.0, sigma1]), N, SolverConfig(eta=1e-6, max_iter=30_000)
                )
                assert verdict.feasible  # all grid points are inside the bounds
                assert res.converged

    def test_newton_certifies_near_bounds(self):
        # sigma_1 within 3% of either bound, on both sides, plus one point
        # 7e-6 past the lower bound: Newton may call a band infeasible only
        # with a certificate, and must agree with the closed form
        points = [(-0.9397, 9)]
        for N in range(5, 16):
            for bound in (scalar_bw1_feasible(1.0, 0.0, N).lower, 1.0):
                points += [(bound * f, N) for f in (0.97, 0.99, 0.995, 1.005, 1.01, 1.03)]
        for sigma1, N in points:
            band = scalar_band([1.0, sigma1])
            res = solve(band, N, SolverConfig(max_iter=2000), method="newton")
            feasible = scalar_bw1_feasible(1.0, sigma1, N).feasible
            assert res.status == ("converged" if feasible else "infeasible"), (sigma1, N)
            if not feasible:
                assert certificate_holds(res.K, band, N), (sigma1, N)

    def test_infeasible_grid_never_converges(self):
        for sigma1, N in [(-0.95, 7), (-0.96, 9), (-0.99, 11)]:
            assert not scalar_bw1_feasible(1.0, sigma1, N).feasible
            res = solve(scalar_band([1.0, sigma1]), N, SolverConfig(max_iter=2500))
            assert not res.converged
