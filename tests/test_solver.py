"""Dual gradient descent: objective, gradient, warm starts, convergence."""

import io
import math

import numpy as np
import pytest

from circmaxent import (
    BadInput,
    BandData,
    DualVariable,
    InfeasibleStart,
    NotPositiveDefinite,
    SolverConfig,
    dual_gradient,
    dual_objective,
    gaussian_entropy,
    init_lambda,
    ips_solve,
    project_band_gram,
    random_feasible_band,
    solve,
    verify_solution,
)
from circmaxent.solver import _gradient, _objective
from helpers import is_banded, random_feasible_dual, scalar_band, sym, white_noise_band


def max_det_x_oracle(sigma0, sigma1):
    """Root of the determinant-profile derivative for the scalar N=4 case.

    Eigenvalues of Circ(s0, s1, x, s1) are s0 + 2 s1 + x, s0 - x (twice),
    s0 - 2 s1 + x; the log product is strictly concave in x on the PD
    interval, so bisection on its derivative pins the maximizer.
    """

    def dlogdet(x):
        return (
            1.0 / (sigma0 + 2 * sigma1 + x)
            - 2.0 / (sigma0 - x)
            + 1.0 / (sigma0 - 2 * sigma1 + x)
        )

    lo = -sigma0 + 2 * abs(sigma1) + 1e-9
    hi = sigma0 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dlogdet(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDualObjective:
    def test_white_noise_value(self):
        # T = I, lam = (N/(n+1)) I projects to the identity: value = N m
        m, n, N = 2, 2, 12
        band = white_noise_band(m, n)
        lam = DualVariable(m, n, (N / (n + 1)) * np.eye((n + 1) * m))
        assert abs(dual_objective(lam, band, N) - N * m) < 1e-10

    def test_outside_domain_is_inf(self):
        band = white_noise_band(1, 1)
        lam = DualVariable(1, 1, -np.eye(2))
        assert dual_objective(lam, band, 6) == math.inf
        # in band form: a negative frequency block, a non-finite band
        m, n, N = 2, 1, 9
        D = np.zeros((n + 1, m, m))
        K = np.stack([np.eye(m), 0.6 * np.eye(m)])  # eigenvalues 1 + 1.2 cos
        assert _objective(K, D, m, n, N) == math.inf
        K[1, 0, 1] = np.nan
        assert _objective(K, D, m, n, N) == math.inf
        assert _objective(np.full((4, 4), np.inf), np.eye(4), m, n, N) == math.inf

    def test_dense_oracle(self):
        rng = np.random.default_rng(40)
        band = random_feasible_band(1, 1, 4, rng)
        lam = random_feasible_dual(band, 4, rng)
        expect = np.sum(lam.value * band.toeplitz()) - np.linalg.slogdet(
            project_band_gram(lam.value, 1, 1, 4).to_dense()
        )[1]
        assert abs(dual_objective(lam, band, 4) - expect) < 1e-10


class TestDualGradient:
    def test_white_noise_stationary(self):
        m, n, N = 2, 1, 8
        band = white_noise_band(m, n)
        lam = DualVariable(m, n, (N / (n + 1)) * np.eye((n + 1) * m))
        assert np.abs(dual_gradient(lam, band, N)).max() < 1e-12

    def test_outside_domain_raises(self):
        band = white_noise_band(1, 1)
        with pytest.raises(NotPositiveDefinite):
            dual_gradient(DualVariable(1, 1, -np.eye(2)), band, 6)

    def test_finite_differences(self):
        rng = np.random.default_rng(41)
        checked = 0
        for m in (1, 2):
            for n in (1, 2, 3):
                for N in (8, 12, 16):
                    band = random_feasible_band(m, n, N, rng)
                    lam = random_feasible_dual(band, N, rng)
                    T = band.toeplitz()
                    g = dual_gradient(lam, band, N)
                    size = (n + 1) * m
                    h = 1e-5
                    fd = np.zeros_like(g)
                    for i in range(size):
                        for j in range(i, size):
                            e = np.zeros((size, size))
                            e[i, j] = e[j, i] = 1.0
                            d = (
                                _objective(lam.value + h * e, T, m, n, N)
                                - _objective(lam.value - h * e, T, m, n, N)
                            ) / (2 * h)
                            fd[i, j] = fd[j, i] = d / (2.0 if i != j else 1.0)
                    assert np.linalg.norm(fd - g) <= 1e-5 * np.linalg.norm(g)
                    # the band form solve iterates on: K = the projection's
                    # band, D = N c_d Sigma_d^T with c = (1, 2, ..., 2)
                    K = lam.project(N).first_row[: n + 1]
                    S = np.swapaxes(band.blocks, 1, 2)
                    D = N * np.array([1.0] + [2.0] * n)[:, None, None] * S
                    f = dual_objective(lam, band, N)
                    assert abs(_objective(K, D, m, n, N) - f) <= 1e-12 * max(1.0, abs(f))
                    G = _gradient(K, S, m, n, N)[0]
                    assert np.abs(G.swapaxes(0, 1).reshape(m, -1) - g[:m]).max() <= 1e-12
                    checked += 1
        assert checked >= 18


class TestHalfSpectrumKernel:
    # the objective, gradient and completion of a band, read off its
    # floor(N/2)+1 frequency blocks, against the dense mN x mN matrix
    CASES = [(2, 1, 9), (3, 2, 11), (1, 3, 15), (2, 2, 7),  # odd N
             (2, 2, 12), (3, 1, 16), (1, 1, 10),  # even N
             (2, 1, 4), (3, 2, 6), (1, 3, 8)]  # N = 2n + 2

    def test_dense_reference(self):
        rng = np.random.default_rng(55)
        for m, n, N in self.CASES:
            band = random_feasible_band(m, n, N, rng)
            S = np.swapaxes(band.blocks, 1, 2)
            D = N * np.array([1.0] + [2.0] * n)[:, None, None] * S
            for lam in (random_feasible_dual(band, N, rng), init_lambda(band, N, "identity")):
                K = lam.project(N).first_row[: n + 1]
                dense = project_band_gram(K, m, n, N).to_dense()
                f = np.sum(K * D) - np.linalg.slogdet(dense)[1]
                row = np.linalg.inv(dense)[:m].reshape(m, N, m).swapaxes(0, 1)
                tol = 1e-12 * max(1.0, abs(f))
                assert abs(_objective(K, D, m, n, N) - f) <= tol
                assert abs(_objective(lam.value, band.toeplitz(), m, n, N) - f) <= tol
                G, inv = _gradient(K, S, m, n, N)
                expect = S - row[: n + 1]
                expect[0] = sym(expect[0])
                assert np.linalg.norm(G - expect) <= 1e-12 * np.linalg.norm(row[: n + 1])
                completion = np.fft.irfft(inv, n=N, axis=0)
                assert np.linalg.norm(completion - row) <= 1e-12 * np.linalg.norm(row)


class TestInitLambda:
    def test_white_noise_modes(self):
        m, n, N = 2, 1, 8
        band = white_noise_band(m, n)
        ident = init_lambda(band, N, "identity")
        proj_i = ident.project(N)
        assert np.abs(proj_i.first_row[0] - (n + 1) / N * np.eye(m)).max() < 1e-14
        warm = init_lambda(band, N, "toeplitz")
        proj_t = warm.project(N)
        assert np.abs(proj_t.first_row[0] - np.eye(m)).max() < 1e-13
        assert np.abs(proj_t.first_row[1:]).max() < 1e-13
        assert ident.is_feasible(N) and warm.is_feasible(N)

    def test_scalar_projection_band_hits_inverse_coeffs(self):
        band = scalar_band([1.0, 0.5])
        lam = init_lambda(band, 12, "toeplitz")
        proj = lam.project(12)
        assert abs(proj.first_row[0, 0, 0] - 5.0 / 3.0) < 1e-12
        assert abs(proj.first_row[1, 0, 0] + 2.0 / 3.0) < 1e-12
        assert np.abs(proj.first_row[2:11]).max() < 1e-12

    def test_matrix_projection_band_transposed_coeffs(self):
        from circmaxent import phi_inverse_coeffs, solve_yule_walker

        rng = np.random.default_rng(42)
        band = random_feasible_band(2, 2, 12, rng)
        M = phi_inverse_coeffs(solve_yule_walker(band)).M
        proj = init_lambda(band, 12, "toeplitz").project(12)
        assert np.abs(proj.first_row[0] - M[0]).max() < 1e-12
        for d in (1, 2):
            assert np.abs(proj.first_row[d] - M[d].T).max() < 1e-12

    def test_unknown_mode(self):
        with pytest.raises(BadInput):
            init_lambda(white_noise_band(1, 1), 6, "random")

    def test_warm_start_beats_identity(self):
        rng = np.random.default_rng(43)
        band = random_feasible_band(2, 1, 16, rng)
        warm = solve(band, 16, init="toeplitz")
        cold = solve(band, 16, init="identity")
        assert warm.converged and cold.converged
        assert warm.iterations < cold.iterations


class TestSolve:
    def test_white_noise_immediate(self):
        band = white_noise_band(2, 1)
        res = solve(band, 10)
        assert res.converged
        assert res.iterations <= 1
        assert np.abs(res.sigma.to_dense() - np.eye(20)).max() < 1e-12

    def test_zero_bandwidth_block_diagonal(self):
        blocks = np.array([[[2.0, 0.3], [0.3, 1.5]]])
        band = BandData(2, 0, blocks)
        res = solve(band, 6)
        assert res.converged and res.iterations == 0
        expect = np.kron(np.eye(6), blocks[0])
        assert np.abs(res.sigma.to_dense() - expect).max() < 1e-12

    def test_infeasible_custom_start_rejected(self):
        band = white_noise_band(1, 1)
        with pytest.raises(InfeasibleStart):
            solve(band, 6, init=DualVariable(1, 1, -np.eye(2)))

    def test_scalar_n4_matches_determinant_oracle(self):
        x_star = max_det_x_oracle(1.0, 0.3)
        assert abs(x_star - (-1 + math.sqrt(1.72)) / 2) < 1e-12  # closed form agrees
        band = scalar_band([1.0, 0.3])
        res = solve(band, 4, SolverConfig(eta=1e-12))
        assert res.converged
        assert abs(res.sigma.first_row[2, 0, 0] - x_star) < 1e-8
        assert abs(res.sigma.first_row[1, 0, 0] - 0.3) < 1e-10

    def test_near_boundary_feasible_converges(self):
        # sigma_1 = -0.91 at N=9 sits inside the odd-N bound cos(8 pi / 9)
        band = scalar_band([1.0, -0.91])
        res = solve(band, 9, SolverConfig(eta=1e-6))
        assert res.converged
        assert verify_solution(res, band).band_residual < 1e-5

    def test_infeasible_does_not_converge(self):
        band = scalar_band([1.0, -0.95])
        res = solve(band, 7, SolverConfig(max_iter=3000))
        assert not res.converged
        assert res.status in ("max_iter", "diverged")

    def test_unique_optimum_from_three_starts(self):
        rng = np.random.default_rng(44)
        band = random_feasible_band(2, 2, 12, rng)
        res_t = solve(band, 12, init="toeplitz")
        res_i = solve(band, 12, init="identity")
        res_r = solve(band, 12, init=random_feasible_dual(band, 12, rng))
        assert res_r.init_mode == "custom"
        ref = res_t.sigma.to_dense()
        for other in (res_i, res_r):
            dist = np.linalg.norm(other.sigma.to_dense() - ref) / np.linalg.norm(ref)
            assert dist <= 1e-6

    def test_descent_is_strict_with_armijo(self):
        # eta above the objective's noise floor: every step is Armijo-checked
        rng = np.random.default_rng(45)
        band = random_feasible_band(2, 1, 10, rng)
        res = solve(band, 10, SolverConfig(eta=1e-5), init="identity")
        assert res.converged
        trace = res.objective_trace
        assert len(trace) == res.iterations + 1
        assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_gradient_norm_at_solution(self):
        rng = np.random.default_rng(46)
        band = random_feasible_band(1, 2, 10, rng)
        res = solve(band, 10)
        g = dual_gradient(res.lambda_star, band, 10)
        eta = 1e-8 * max(1.0, np.linalg.norm(band.toeplitz()))
        assert np.linalg.norm(g) <= eta

    def test_convexity_probe(self):
        rng = np.random.default_rng(47)
        band = random_feasible_band(2, 2, 12, rng)
        T = band.toeplitz()
        size = 6
        hits = 0
        while hits < 10:
            a = random_feasible_dual(band, 12, rng, spread=0.3)
            b = random_feasible_dual(band, 12, rng, spread=0.3)
            theta = rng.uniform(0.05, 0.95)
            mid = DualVariable(2, 2, theta * a.value + (1 - theta) * b.value)
            if not mid.is_feasible(12):
                continue
            fa = _objective(a.value, T, 2, 2, 12)
            fb = _objective(b.value, T, 2, 2, 12)
            fm = _objective(mid.value, T, 2, 2, 12)
            assert fm <= theta * fa + (1 - theta) * fb + 1e-10
            hits += 1

    def test_solution_inverse_is_banded_circulant(self):
        rng = np.random.default_rng(48)
        band = random_feasible_band(2, 1, 12, rng)
        res = solve(band, 12)
        proj = project_band_gram(res.lambda_star.value, 2, 1, 12)
        assert is_banded(proj, band.n)  # structural: exact zeros off band
        prod = res.sigma.to_dense() @ proj.to_dense()
        assert np.abs(prod - np.eye(24)).max() < 1e-8

    def test_equal_block_sums_give_the_same_solve(self):
        # the dual depends on Lambda only through its block-diagonal sums:
        # the block-Toeplitz lift and the first-block-row embedding of the
        # same sums are the same start
        rng = np.random.default_rng(53)
        m, n, N = 2, 2, 12
        band = random_feasible_band(m, n, N, rng)
        sums = N * random_feasible_dual(band, N, rng).project(N).first_row[: n + 1]
        lift = np.zeros(((n + 1) * m, (n + 1) * m))
        first_row = np.zeros_like(lift)
        for d in range(n + 1):
            first_row[:m, d * m:(d + 1) * m] = sums[d]
            first_row[d * m:(d + 1) * m, :m] = sums[d].T
            for i in range(n + 1 - d):
                lift[i * m:(i + 1) * m, (i + d) * m:(i + d + 1) * m] = sums[d] / (n + 1 - d)
                lift[(i + d) * m:(i + d + 1) * m, i * m:(i + 1) * m] = sums[d].T / (n + 1 - d)
        res_l = solve(band, N, init=DualVariable(m, n, lift))
        res_f = solve(band, N, init=DualVariable(m, n, first_row))
        assert res_l.converged and res_l.iterations > 1
        assert (res_l.status, res_l.iterations) == (res_f.status, res_f.iterations)
        ref = res_l.sigma.first_row
        assert np.linalg.norm(res_f.sigma.first_row - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_iterates_on_the_band(self, monkeypatch):
        # the iteration reads neither the dense T_n nor the dense leading
        # band of the completion
        import circmaxent.blockcirc as blockcirc
        import circmaxent.solver as solver

        def refuse(*args):
            raise AssertionError("solve must not assemble the leading band")

        monkeypatch.setattr(BandData, "toeplitz", refuse)
        monkeypatch.setattr(blockcirc, "leading_band", refuse)
        monkeypatch.setattr(solver, "leading_band", refuse, raising=False)
        band = random_feasible_band(2, 1, 10, np.random.default_rng(54))
        for init in ("toeplitz", "identity"):
            res = solve(band, 10, init=init)
            assert res.converged and res.iterations > 1

    def test_trace_sink_csv(self):
        rng = np.random.default_rng(49)
        band = random_feasible_band(1, 1, 8, rng)
        sink = io.StringIO()
        solve(band, 8, SolverConfig(eta=1e-6, trace=sink), init="identity")
        lines = sink.getvalue().strip().splitlines()
        assert lines[0] == "iter,jbar,grad_norm,step"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert len(lines) >= 3
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 4
            float(fields[1]), float(fields[2]), float(fields[3])

    def test_config_validation(self):
        with pytest.raises(BadInput):
            SolverConfig(alpha=0.7)
        with pytest.raises(BadInput):
            SolverConfig(beta=1.0)
        with pytest.raises(BadInput):
            SolverConfig(max_iter=-1)

    def test_one_inversion_per_point(self, monkeypatch):
        # a 0-iteration solve factors the start's floor(N/2)+1 frequency
        # blocks once for the objective and inverts the same blocks once for
        # the gradient and the completion; it takes no full-length block DFT
        import circmaxent.blockcirc as blockcirc

        band = random_feasible_band(3, 2, 12, np.random.default_rng(52))
        calls = []

        def refuse(*args, **kwargs):
            raise AssertionError("solve must not take a full-length block DFT")

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                if np.shape(a) == (513, 3, 3):
                    calls.append(name)
                return fn(a, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(blockcirc, "dft_spectrum", refuse)
        monkeypatch.setattr(np.fft, "fft", refuse)
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        res = solve(band, 1024)
        assert res.converged and res.iterations == 0
        assert sorted(calls) == ["cholesky", "inv"]


class TestVerifySolution:
    def test_white_noise_zero_residuals(self):
        band = white_noise_band(2, 1)
        res = solve(band, 8)
        report = verify_solution(res, band)
        assert report.band_residual == 0.0
        assert report.dempster_residual == 0.0
        assert abs(report.entropy - gaussian_entropy(res.sigma)) == 0.0

    def test_converged_residual_levels(self):
        rng = np.random.default_rng(50)
        band = random_feasible_band(2, 2, 16, rng)
        report = verify_solution(solve(band, 16), band)
        assert report.band_residual <= 1e-6
        assert report.dempster_residual <= 1e-6

    def test_ips_solution_cross_check(self):
        rng = np.random.default_rng(51)
        band = random_feasible_band(1, 2, 12, rng)
        res = solve(band, 12)
        scaled = ips_solve(band, 12, tol=1e-10)
        report = verify_solution(scaled.sigma, band)  # dense input path
        assert report.band_residual <= 1e-6
        assert report.dempster_residual <= 1e-6
        dist = np.linalg.norm(scaled.sigma - res.sigma.to_dense()) / np.linalg.norm(scaled.sigma)
        assert dist <= 1e-5


class TestSolverPathStructure:
    def test_no_dense_materialization_in_solver_module(self):
        # the iteration must stay in first-row/frequency-block form; dense
        # assembly belongs to oracles, baselines and debug dumps only
        import ast
        import circmaxent.solver as mod

        source = ast.parse(open(mod.__file__).read())
        dense_calls = [
            node
            for node in ast.walk(source)
            if isinstance(node, ast.Attribute) and node.attr in ("to_dense", "circulant_average")
        ]
        # circulant_average appears once, in verify_solution's baseline path
        assert all(n.attr != "to_dense" for n in dense_calls)


class TestDualVariable:
    def test_symmetrized_on_construction(self):
        raw = np.array([[1.0, 2.0], [0.0, 3.0]])
        lam = DualVariable(1, 1, raw)
        assert np.abs(lam.value - sym(raw)).max() == 0.0

    def test_feasibility_predicate(self):
        assert DualVariable(1, 1, np.eye(2)).is_feasible(6)
        assert not DualVariable(1, 1, -np.eye(2)).is_feasible(6)

    def test_shape_checked(self):
        with pytest.raises(BadInput):
            DualVariable(2, 1, np.eye(3))
