"""Dual gradient descent: objective, gradient, warm starts, convergence."""

import copy
import dataclasses
import functools
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from circmaxent import (
    BadInput,
    BandData,
    BandTooWide,
    BlockCirculant,
    DualVariable,
    NotPositiveDefinite,
    SolverConfig,
    circ_logdet,
    circulant_average,
    dual_gradient,
    init_lambda,
    ips_solve,
    project_band_gram,
    random_feasible_band,
    solve,
    verify_solution,
)
from circmaxent.blockcirc import _band_spectrum, _block_toeplitz, _dual_band
from circmaxent.solver import (
    LOG_2PI,
    _ALPHA,
    _certified_length,
    _decrement_bound,
    _gd_metric,
    _gd_step,
    _gradient,
    _hessian_lags,
    _lift,
    _newton_step,
    _objective,
    _scale_exponent,
    _start,
)
from helpers import (
    boundary_holds,
    certificate_holds,
    completion_residuals,
    dual_pairing,
    in_dual_domain,
    is_banded,
    known_answer_band,
    line_change,
    random_feasible_dual,
    refuse_trial_factors,
    scalar_band,
    sym,
    white_noise_band,
)


def band_gradient(K, data, N):
    """``_gradient`` at a band K, from its frequency blocks."""
    return _gradient(_band_spectrum(K, N), data, N)


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


# Band (m = 5, n = 3) on which the line search trapped itself at N = 15 when
# its noise floor scaled with |f| alone: near the optimum f ~ 6.1 is the
# difference of a linear term ~ 75 and a log-determinant ~ 69, so a
# predicted decrease that looked readable off f was rounding.
# Generated by random_feasible_band(5, 3, 15, rng) as the tenth instance of
# np.random.default_rng([309, 0]) (bench/workloads.py, short_period).
TRAP_BAND = np.array(
    [
        0.5155461269945207, -0.17688869119958717, 0.04168387949771889, -0.19401465135023224,
        -0.012989784648853, -0.17688869119958717, 0.48820503332623627, -0.09027799711477763,
        0.17747438240233715, 0.021337193935115382, 0.04168387949771889, -0.09027799711477763,
        0.42050522075674834, -0.006729544010658442, -0.04279821625812111, -0.19401465135023224,
        0.17747438240233715, -0.006729544010658442, 0.5306838267273387, 0.0003926739998648676,
        -0.012989784648853, 0.021337193935115382, -0.04279821625812111, 0.0003926739998648676,
        0.48529847807580934, -0.17147503056953237, 0.18359674253125297, -0.10335342207683504,
        0.1443208469484708, 0.06861163285133251, 0.1455006472652675, -0.14609220707543122,
        0.05380137553702262, -0.09764177908610536, -0.027723389949937408, -0.059957758962669964,
        0.0770567837521099, -0.046343633314027785, 0.050534144936962185, -0.0064405108665069695,
        0.1676848276893863, -0.1416674918571447, 0.08221966034871514, -0.11113435908901692,
        -0.09571583505199872, 0.03683124304399225, -0.025138268048031064, -0.005691079442621355,
        -0.052203364215476424, 0.014680844756058466, 0.16388587411986463, -0.15096778941518912,
        0.0651124262304242, -0.1341913703505397, 0.009665163438730561, -0.07852757536774616,
        0.0689698905992853, -0.07638107881449202, 0.04347665120960687, -0.012749951321008642,
        0.005989096022892326, -0.0009570031996454564, 0.01258262416271235, -0.015827582279875338,
        -0.033462315733250717, -0.13745480554070466, 0.17209796051875614, -0.07346014962890482,
        0.1010639601665162, 0.01826398092614872, -0.03887943057053511, 0.0003943021954547987,
        0.0074760660430939685, 0.03239245473788121, 0.010629751245578635, -0.0920733065286457,
        0.09448931819713001, -0.07426570922746493, 0.08345656224056251, 0.024724406519143316,
        0.06234673166385348, -0.048771657079484915, 0.04476024401719599, -0.041171904438624556,
        -0.0028627602454607973, 0.0036982348392361696, 0.00014470314707328477, -0.01079067671098608,
        -0.012430097492795562, 0.005487070033826431, 0.10672546845073828, -0.08090284856872847,
        0.04702420512816996, -0.07991917683087098, -0.045476472113106424, 0.022182897946977555,
        -0.04460815726010036, 0.030027387038513376, -0.037166241945253434, -0.013136420225092907,
    ]
).reshape(4, 5, 5)


# Band (m = 5, n = 3) on which whitened GD's untested unit steps made the
# gradient norm grow at N = 9: near the optimum the unit step is longer than
# 2 over the largest whitened curvature, and the objective's rounding hides
# the rise, so the solve ran out of its 2,500 steps.  Generated by
# random_feasible_band(5, 3, 9, rng) in bench/workloads.py's short_period
# list of seed 3102 (op 209).
RISE_BAND = np.array(
    [
        0.6482139632413638, -0.0918548866269629, 0.1213357045723592, -0.16278612760247144,
        0.23740468458753522, -0.0918548866269629, 0.896352437377172, 0.10031026141081606,
        0.40550916366696943, -0.26391365553390467, 0.1213357045723592, 0.10031026141081606,
        0.5422179278777117, 0.05409542539790974, 0.042565849559617966, -0.16278612760247144,
        0.40550916366696943, 0.05409542539790974, 1.0526203135732883, -0.3468308956086285,
        0.23740468458753522, -0.26391365553390467, 0.042565849559617966, -0.3468308956086285,
        0.8182697340562659, 0.06440100954142372, 0.19077279663008692, 0.2072280946621846,
        0.0353203199980865, 0.03202290971532874, 0.06011851660302153, -0.014333023330361176,
        -0.21757386093986816, -0.0944585358705338, -0.004985589346720566, -0.04241026958055651,
        0.07290193023832112, 0.012315100214856985, 0.07568793734485611, -0.12237152297519256,
        -0.05022120234559419, 0.28256055452099965, -0.25167521131564924, 0.20904928553989305,
        -0.1019227615178313, 0.0016122461571980347, -0.01836274190066795, 0.1711191744524534,
        -0.0560798644558161, 0.09566300309509991, 0.0233309240735993, -0.03676815625843117,
        0.00641562954329641, -0.0333091643521503, -0.014232385962100665, 0.17173843429852712,
        -0.08574571011377319, 0.09656025565397355, -0.2105481842994526, 0.33447886655363895,
        0.1014043792791689, -0.137907179540098, -0.05535243332926581, -0.09235760501381489,
        0.07114709129983551, 0.2525714003012082, -0.07568175372308421, -0.017680541060853493,
        -0.0974426062371968, 0.2953638087407541, -0.02110645285580458, -0.15244247793990767,
        -0.0001419380772392293, -0.02425757208393622, -0.09727637146088501, 0.14216811653621275,
        -0.09933211774350667, 0.031179404640247054, -0.05349331838182403, 0.14793411498354117,
        -0.02200494059318584, 0.06348470792612206, 0.14843108815731476, -0.016582927890444157,
        0.06104996720593007, 0.06373943990849767, 0.04177138801425198, 0.1108677943750207,
        0.04055718045062485, 0.08530229534076332, -0.02594575011481688, 0.17903626739226564,
        0.1570786929395537, 0.05999105306812465, 0.09028777755488772, 0.12730184470616315,
        -0.10484054865683161, 0.020297429136006472, 0.032757146200384654, 0.0743802789347155,
    ]
).reshape(4, 5, 5)


class TestDualObjective:
    def test_white_noise_value(self):
        # T = I, lam = (N/(n+1)) I projects to the identity: value = N m
        m, n, N = 2, 2, 12
        band = white_noise_band(m, n)
        lam = DualVariable(m, n, (N / (n + 1)) * np.eye((n + 1) * m))
        assert abs(_objective(lam.value, band.toeplitz(), m, n, N) - N * m) < 1e-10

    def test_outside_domain_is_inf(self):
        band = white_noise_band(1, 1)
        lam = DualVariable(1, 1, -np.eye(2))
        assert _objective(lam.value, band.toeplitz(), 1, 1, 6) == math.inf
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
        assert abs(_objective(lam.value, band.toeplitz(), 1, 1, 4) - expect) < 1e-10


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
                    K = project_band_gram(lam.value, m, n, N).first_row[: n + 1]
                    S = np.swapaxes(band.blocks, 1, 2)
                    D = N * np.array([1.0] + [2.0] * n)[:, None, None] * S
                    f = _objective(lam.value, T, m, n, N)
                    assert abs(_objective(K, D, m, n, N) - f) <= 1e-12 * max(1.0, abs(f))
                    G = band_gradient(K, S, N)[0]
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
                K = project_band_gram(lam.value, m, n, N).first_row[: n + 1]
                dense = project_band_gram(K, m, n, N).to_dense()
                f = np.sum(K * D) - np.linalg.slogdet(dense)[1]
                row = np.linalg.inv(dense)[:m].reshape(m, N, m).swapaxes(0, 1)
                tol = 1e-12 * max(1.0, abs(f))
                assert abs(_objective(K, D, m, n, N) - f) <= tol
                assert abs(_objective(lam.value, band.toeplitz(), m, n, N) - f) <= tol
                G, inv = band_gradient(K, S, N)
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
        proj_i = project_band_gram(ident.value, m, n, N)
        assert np.abs(proj_i.first_row[0] - (n + 1) / N * np.eye(m)).max() < 1e-14
        warm = init_lambda(band, N, "toeplitz")
        proj_t = project_band_gram(warm.value, m, n, N)
        assert np.abs(proj_t.first_row[0] - np.eye(m)).max() < 1e-13
        assert np.abs(proj_t.first_row[1:]).max() < 1e-13
        assert in_dual_domain(ident, N) and in_dual_domain(warm, N)

    def test_scalar_projection_band_hits_inverse_coeffs(self):
        band = scalar_band([1.0, 0.5])
        lam = init_lambda(band, 12, "toeplitz")
        proj = project_band_gram(lam.value, 1, 1, 12)
        assert abs(proj.first_row[0, 0, 0] - 5.0 / 3.0) < 1e-12
        assert abs(proj.first_row[1, 0, 0] + 2.0 / 3.0) < 1e-12
        assert np.abs(proj.first_row[2:11]).max() < 1e-12

    def test_matrix_projection_band_transposed_coeffs(self):
        from circmaxent import phi_inverse_coeffs, solve_yule_walker

        rng = np.random.default_rng(42)
        band = random_feasible_band(2, 2, 12, rng)
        M = phi_inverse_coeffs(*solve_yule_walker(band))
        proj = project_band_gram(init_lambda(band, 12, "toeplitz").value, 2, 2, 12)
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

    def test_converged_is_the_status(self):
        # one fact in the record: a converged field kept its value when
        # dataclasses.replace changed the status
        res = solve(white_noise_band(2, 1), 10)
        assert res.converged and res.status == "converged"
        assert not dataclasses.replace(res, status="stalled").converged
        with pytest.raises(TypeError):
            dataclasses.replace(res, converged=True)

    def test_zero_bandwidth_block_diagonal(self):
        blocks = np.array([[[2.0, 0.3], [0.3, 1.5]]])
        band = BandData(2, 0, blocks)
        res = solve(band, 6)
        assert res.converged and res.iterations == 0
        expect = np.kron(np.eye(6), blocks[0])
        assert np.abs(res.sigma.to_dense() - expect).max() < 1e-12

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
        # both methods end at a band that certifies infeasibility
        band = scalar_band([1.0, -0.95])
        for method in ("gd", "newton"):
            res = solve(band, 7, SolverConfig(max_iter=3000), method=method)
            assert not res.converged
            assert res.status == "infeasible"
            assert certificate_holds(res.K, band, 7)

    def test_unique_optimum_from_three_starts(self):
        # two starts of GD and one Newton solve reach the same completion
        rng = np.random.default_rng(44)
        band = random_feasible_band(2, 2, 12, rng)
        res_t = solve(band, 12, init="toeplitz")
        res_i = solve(band, 12, init="identity")
        res_n = solve(band, 12, method="newton")
        ref = res_t.sigma.to_dense()
        for other in (res_i, res_n):
            dist = np.linalg.norm(other.sigma.to_dense() - ref) / np.linalg.norm(ref)
            assert dist <= 1e-6

    def test_descent_is_strict_with_armijo(self):
        # eta above the objective's noise floor: every step is Armijo-checked
        rng = np.random.default_rng(45)
        band = random_feasible_band(2, 1, 10, rng)
        sink = io.StringIO()
        res = solve(band, 10, SolverConfig(eta=1e-5, trace=sink), init="identity")
        assert res.converged
        trace = [float(line.split(",")[1]) for line in sink.getvalue().splitlines()[1:]]
        assert len(trace) == res.iterations + 1 and trace[-1] == res.objective
        assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_gradient_norm_at_solution(self):
        rng = np.random.default_rng(46)
        band = random_feasible_band(1, 2, 10, rng)
        res = solve(band, 10)
        g = dual_gradient(_lift(res.K, 10), band, 10)
        eta = 1e-8 * np.linalg.norm(band.toeplitz())
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
            if not in_dual_domain(mid, 12):
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
        proj = project_band_gram(res.K, 2, 1, 12)
        assert is_banded(proj, band.n)  # structural: exact zeros off band
        prod = res.sigma.to_dense() @ proj.to_dense()
        assert np.abs(prod - np.eye(24)).max() < 1e-8

    def test_iterates_on_the_band(self, monkeypatch):
        # from its start to its result, solve builds no full dual matrix:
        # neither the dense T_n nor a block-Toeplitz Lambda from a band
        import circmaxent.solver as solver

        def refuse(*args):
            raise AssertionError("solve must not assemble a full dual matrix")

        monkeypatch.setattr(BandData, "toeplitz", refuse)
        monkeypatch.setattr(solver, "_lift", refuse)
        monkeypatch.setattr(solver, "_block_toeplitz", refuse)
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

    def test_gd_stalls_at_the_step_floor(self, monkeypatch):
        # with every trial's Cholesky refused no trial lies in the domain, so
        # the line search halves the certified first step, 0.80, to its
        # floor 1e-18 > 0.80 * 2^-60 and the solve ends "stalled" at its
        # start, which is still a verified completion
        refuse_trial_factors(monkeypatch)
        band = BandData(1, 1, 1e10 * np.array([1.0, 0.3]).reshape(2, 1, 1))
        result = solve(band, 8, method="gd")
        assert (result.status, result.iterations, result.line_search_backtracks_total) == ("stalled", 0, 60)
        assert result.init_mode == "toeplitz"
        assert np.array_equal(result.K, _start(band, 8, "toeplitz"))
        verify_solution(result, band)

    def test_gd_stalls_on_a_non_finite_step(self, monkeypatch):
        # an infinite Armijo fraction makes the certified length NaN; the
        # step floor reads NaN as below it (a floor of `t < 1e-18` never
        # did, and the solve halved NaN without end)
        import circmaxent.solver as solver

        monkeypatch.setattr(solver, "_ALPHA", math.inf)
        result = solve(BandData(1, 1, np.array([1.0, 0.3]).reshape(2, 1, 1)), 8, SolverConfig(max_iter=100))
        assert (result.status, result.iterations, result.line_search_backtracks_total) == ("stalled", 0, 1)

    def test_config_validation(self):
        # no gradient norm meets a negative or NaN eta, so GD would run out
        # its whole budget; any start, however far off, meets an infinite one.
        # With a NaN or infinite budget `iterations >= max_iter` never holds,
        # so a GD solve that cannot converge would never stop.
        # A bool is no count of steps (True was a budget of one), and no
        # tolerance either (True was accepted); a string or a complex eta
        # escaped as TypeError, and a trace with no write method escaped
        # from solve as AttributeError.
        for kwargs in ({"max_iter": -1}, {"max_iter": math.nan}, {"max_iter": math.inf}, {"max_iter": 2.5},
                       {"max_iter": True}, {"max_iter": False},
                       {"eta": -1e-8}, {"eta": math.nan}, {"eta": math.inf},
                       {"eta": True}, {"eta": False}, {"eta": "1"}, {"eta": 1j}, {"trace": 3}):
            with pytest.raises(BadInput):
                SolverConfig(**kwargs)
        assert SolverConfig(eta=0.0).eta == 0.0
        assert SolverConfig(eta=np.float64(1e-6)).eta == 1e-6
        assert SolverConfig(max_iter=0).max_iter == 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            SolverConfig().eta = 1e-6

    def test_unrepresentable_scale_rejected(self):
        # the band (1, 0.3) s at s = 1e200 has a squared norm that overflows
        # (the solve used to report "converged" with an infinite gradient
        # norm), at s = 1e-200 one that underflows to zero (it reported
        # "converged" and verify_solution divided by zero)
        for s in (1e200, 1e-200):
            with pytest.raises(BadInput):
                solve(BandData(1, 1, s * np.array([1.0, 0.3]).reshape(2, 1, 1)), 8,
                      SolverConfig(max_iter=20000))

    def test_small_feasible_band_not_infeasible(self):
        # a feasible band at a small scale has a large K, which the test on
        # delta = Tr(K D) / |N tr(K_0 Sigma_0)| may not take for
        # infeasibility or the boundary: delta is invariant under rescaling
        for s in (1e-10, 1e-12):
            band = BandData(1, 1, s * np.array([1.0, 0.3]).reshape(2, 1, 1))
            res = solve(band, 8, SolverConfig(eta=1e-30, max_iter=50))
            assert res.status == "max_iter"

    def test_gd_scale_free(self):
        # GD's step, its certified length and its stop do not change with
        # the scale of the data, so the band (1, 0.3) s takes the same steps
        # at every scale to the s-times completion.  The plain gradient step
        # stalled at its start at 1e10 and could not converge in 200 steps
        # at 1e-10 and 1e-100
        base = np.array([1.0, 0.3]).reshape(2, 1, 1)
        ref = solve(BandData(1, 1, base), 8)
        assert ref.converged and ref.iterations == 28
        for s in (1e10, 1e-10, 1e-100):
            res = solve(BandData(1, 1, s * base), 8, SolverConfig(max_iter=200))
            assert res.converged and res.iterations == ref.iterations
            assert np.abs(res.sigma.first_row / s - ref.sigma.first_row).max() <= 1e-12

    @pytest.mark.parametrize("method", ["gd", "newton"])
    @pytest.mark.parametrize("band, N", [
        pytest.param(scalar_band([1.0, 1.01]), 9, id="scalar"),
        pytest.param(BandData(2, 1, np.array([np.eye(2), np.diag([-1.02, 0.3])])), 8, id="two_channel"),
    ])
    def test_toeplitz_start_falls_back(self, method, band, N):
        # the block-Toeplitz matrix of these bands is not PD, so there is no
        # toeplitz start: the solve starts from the identity and certifies
        # the band infeasible instead of raising
        res = solve(band, N, method=method)
        assert res.init_mode == "identity (fallback from toeplitz)"
        assert res.status == "infeasible"
        assert certificate_holds(res.K, band, N)

    def test_rounding_trap_converges(self):
        res = solve(BandData(5, 3, TRAP_BAND), 15, SolverConfig(max_iter=2500))
        assert res.converged

    def test_gradient_rise_halves_the_untested_step(self):
        # whitened GD's untested unit step made the gradient norm grow on
        # this band (3,500 steps), and a rule that halved the step on a rise
        # brought it to 742; the certified step, which is never untested,
        # takes 317 and needs no such rule
        res = solve(BandData(5, 3, RISE_BAND), 9, SolverConfig(max_iter=2500))
        assert res.converged and res.iterations <= 1000

    def test_one_inversion_per_point(self, monkeypatch):
        # a 0-iteration solve factors the start's floor(N/2)+1 frequency
        # blocks once for the objective and inverts the same blocks once for
        # the gradient and the completion; it takes no full-length block DFT
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

        monkeypatch.setattr(np.fft, "fft", refuse)
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        res = solve(band, 1024)
        assert res.converged and res.iterations == 0
        assert sorted(calls) == ["cholesky", "inv"]

    @pytest.mark.parametrize("method, band, N", [
        ("gd", random_feasible_band(2, 2, 8, np.random.default_rng(62)), 8),
        ("newton", scalar_band([1.0, -0.91]), 9),
    ])
    def test_one_spectrum_per_point(self, monkeypatch, method, band, N):
        # every point the loop evaluates forms its frequency blocks once:
        # the start, each accepted step and each backtrack; the gradient
        # and the next step reuse the accepted trial's blocks.  A step of
        # either method also forms its own blocks, for its certified length,
        # and no f test rejects its trial, so it takes no backtrack (Newton's
        # Armijo test on f backtracked on the near-boundary band)
        import circmaxent.solver as solver

        calls = []

        def counted(K, N):
            calls.append(N)
            return _band_spectrum(K, N)

        monkeypatch.setattr(solver, "_band_spectrum", counted)
        res = solve(band, N, method=method)
        assert res.converged and res.init_mode == "toeplitz" and res.iterations > 1
        assert res.line_search_backtracks_total == 0
        assert len(calls) == 1 + 2 * res.iterations + res.line_search_backtracks_total
        calls.clear()
        dual_gradient(init_lambda(band, N), band, N)
        assert len(calls) == 1


def _interior_point(band, N):
    """A generic point of the dual domain: midway between the identity
    start and the optimum (the domain is convex)."""
    return 0.5 * (_start(band, N, "identity") + solve(band, N, method="newton").K)


def _two_sided(E):
    """Flattened two-sided lags (E_-n, ..., E_n), E_-d = E_d^T, of a band."""
    return np.concatenate([np.swapaxes(E[:0:-1], 1, 2), E]).reshape(-1)


# data on the boundary of the feasible set: (1, cos 6pi/7) and (1, cos 8pi/9)
# at the odd-N bound, (1, +-1), and a two-channel band with one channel at
# the bound
BOUNDARY_BANDS = [
    (scalar_band([1.0, math.cos(6 * math.pi / 7)]), 7),
    (scalar_band([1.0, math.cos(8 * math.pi / 9)]), 9),
    (scalar_band([1.0, 1.0]), 8),
    (scalar_band([1.0, -1.0]), 8),
    (BandData(2, 1, np.array([np.eye(2), np.diag([math.cos(6 * math.pi / 7), 0.3])])), 7),
]
# odd N, even N and N = 2n+2, where the band meets its mirror
NEWTON_CASES = [(2, 1, 7), (1, 2, 9), (3, 2, 8), (2, 1, 10), (2, 2, 6), (1, 3, 8), (3, 1, 4)]


class TestNewton:
    @pytest.mark.parametrize("margin", [1e-5, 1e-6, 1e-7])
    def test_ill_conditioned_known_answers(self, margin):
        # the toeplitz start of these bands has frequency blocks of condition
        # ~1e11, where the Hessian's Cholesky can fail (it did on all eight
        # (3, 2, 12) bands at margin 1e-6, which then ended "stalled" after
        # 0 steps); the solve restarts from the identity instead.  At margin
        # 1e-7 three bands stalled in the damped phase while an Armijo test
        # on f chose Newton's lengths; the certified length converges all 40
        eps = np.finfo(float).eps
        for m, n, N in ((1, 1, 8), (2, 1, 9), (3, 2, 12), (5, 3, 15), (10, 2, 64)):
            for seed in range(8):
                band, sigma, cond = known_answer_band(m, n, N, np.random.default_rng(seed), margin)
                res = solve(band, N, method="newton")
                err = np.linalg.norm(res.sigma.first_row - sigma.first_row) / np.linalg.norm(sigma.first_row)
                assert res.converged and err <= 100 * cond * eps, (m, n, N, seed, res.status)
                if margin == 1e-6 and (m, n, N) == (3, 2, 12):
                    assert res.init_mode == "identity (fallback from toeplitz)"

    def test_no_false_convergence_at_margin_1e8(self):
        # past completion condition 1e8 a solve may stop short of the
        # answer (5 of these 40 end "stalled"), but a "converged" one is
        # within the known-answer bound.  The damped step's slope is read
        # off the gradient and the step: taken as -lambda^2, it let the
        # seed-3 (3, 2, 12) band report "converged" at 173 cond eps.  The
        # Newton system is the symmetrized Hessian: factoring the lower
        # triangle of its computed H, whose triangles differ by rounding,
        # converged 28.  Statuses, not step counts, as the step counts
        # depend on the BLAS thread count
        eps = np.finfo(float).eps
        converged = 0
        for m, n, N in ((1, 1, 8), (2, 1, 9), (3, 2, 12), (5, 3, 15), (10, 2, 64)):
            for seed in range(8):
                band, sigma, cond = known_answer_band(m, n, N, np.random.default_rng(seed), 1e-8)
                res = solve(band, N, method="newton")
                if res.converged:
                    converged += 1
                    err = np.linalg.norm(res.sigma.first_row - sigma.first_row) / np.linalg.norm(sigma.first_row)
                    assert err <= 100 * cond * eps, (m, n, N, seed, err / (cond * eps))
        assert converged >= 35

    def test_restarts_where_a_toeplitz_run_finds_no_descent_step(self):
        # this band's Hessian factors at the toeplitz start and fails at
        # iteration 1; a restart only at iteration 0 ended the solve
        # "stalled" after 1 step, 2.6e13 cond eps from the answer.  The
        # count covers the whole solve, so the restart's trace row repeats
        # the iteration at which it restarted
        eps = np.finfo(float).eps
        band, sigma, cond = known_answer_band(3, 2, 12, np.random.default_rng(21), 1e-5)
        sink = io.StringIO()
        res = solve(band, 12, SolverConfig(trace=sink), method="newton")
        err = np.linalg.norm(res.sigma.first_row - sigma.first_row) / np.linalg.norm(sigma.first_row)
        assert res.converged and err <= 100 * cond * eps
        assert res.init_mode == "identity (fallback from toeplitz)"
        rows = [line.split(",")[0] for line in sink.getvalue().splitlines()[1:]]
        assert rows[:3] == ["0", "1", "1"] and rows[3:] == [str(i) for i in range(2, res.iterations + 1)]

    @pytest.mark.parametrize("m, n, N", NEWTON_CASES)
    def test_hessian_lags_finite_differences(self, m, n, N):
        # the lag-domain Hessian applied to a band direction is N times the
        # directional derivative of the band gradient
        rng = np.random.default_rng(600 + 10 * m + N)
        band = random_feasible_band(m, n, N, rng)
        data = np.swapaxes(band.blocks, 1, 2)
        K = _interior_point(band, N)
        inv = band_gradient(K, data, N)[1]
        E = rng.standard_normal(K.shape)
        E[0] = sym(E[0])
        hv = (_block_toeplitz(_hessian_lags(inv, n, N)) @ _two_sided(E)).reshape(2 * n + 1, m, m)[n:]
        h = 1e-5
        fd = N * (band_gradient(K + h * E, data, N)[0] - band_gradient(K - h * E, data, N)[0]) / (2 * h)
        assert np.abs(hv - fd).max() <= 1e-6 * np.abs(hv).max()

    @pytest.mark.parametrize("m, n, N", NEWTON_CASES)
    def test_step_solves_the_newton_system(self, m, n, N):
        # along the step the gradient falls by itself to first order, and
        # the decrement is the gradient's pairing with the step
        rng = np.random.default_rng(700 + 10 * m + N)
        band = random_feasible_band(m, n, N, rng)
        data = np.swapaxes(band.blocks, 1, 2)
        K = _interior_point(band, N)
        G, inv = band_gradient(K, data, N)
        step, lam2 = _newton_step(G, inv, N)
        assert np.array_equal(step[0], step[0].T)
        h = 1e-5
        dG = (band_gradient(K + h * step, data, N)[0] - band_gradient(K - h * step, data, N)[0]) / (2 * h)
        assert np.abs(dG - G).max() <= 1e-6 * np.abs(G).max()
        pairing = N * (np.vdot(G[0], step[0]) + 2.0 * np.vdot(G[1:], step[1:]))
        assert lam2 > 0 and abs(lam2 - pairing) <= 1e-10 * lam2

    @pytest.mark.parametrize("m, n, N", [(10, 2, 1024), (5, 3, 4096)])
    def test_certified_start_builds_no_hessian(self, m, n, N, monkeypatch):
        # at long period the toeplitz start is optimal to rounding, and the
        # decrement bound certifies it from the factors the objective
        # already has: Newton stops where GD does, at the same bits, and
        # neither assembles nor indexes a Hessian
        import circmaxent.solver as solver

        band = random_feasible_band(m, n, N, np.random.default_rng(5))
        gd = solve(band, N)

        def refuse(*args):
            raise AssertionError("Newton built a Hessian at a certified start")

        monkeypatch.setattr(solver, "_hessian_lags", refuse)
        monkeypatch.setattr(solver, "_newton_coords", refuse)
        res = solve(band, N, method="newton")
        assert res.status == gd.status == "converged" and res.iterations == gd.iterations == 0
        assert np.array_equal(res.K, gd.K)
        assert np.array_equal(res.sigma.first_row, gd.sigma.first_row)

    @pytest.mark.parametrize("m, n, N", [(10, 2, 1024), (5, 3, 4096)])
    def test_gd_stop_at_start_builds_nothing(self, m, n, N, monkeypatch):
        # GD builds its metric at the first point it steps from, so a solve
        # that stops at its start builds none (one built before the stop
        # test took the long-period benchmark from 66 to 18.5 solves a
        # second) and returns the same bits
        import circmaxent.solver as solver

        band = random_feasible_band(m, n, N, np.random.default_rng(5))
        ref = solve(band, N)

        def refuse(*args):
            raise AssertionError("GD built a metric at the start it stops at")

        monkeypatch.setattr(solver, "_hessian_lags", refuse)
        res = solve(band, N)
        assert (res.status, res.iterations) == ("converged", 0)
        assert res.K.tobytes() == ref.K.tobytes()
        assert res.sigma.first_row.tobytes() == ref.sigma.first_row.tobytes()

    def test_singular_system_stalls(self, monkeypatch):
        import circmaxent.solver as solver

        band = random_feasible_band(2, 1, 9, np.random.default_rng(61))
        for bad in (0.0, math.nan):
            monkeypatch.setattr(solver, "_hessian_lags", lambda inv, n, N, v=bad: np.full((2 * n + 1, 4, 4), v))
            res = solve(band, 9, method="newton")
            assert res.status == "stalled" and not res.converged

    def test_unknown_method(self):
        with pytest.raises(BadInput):
            solve(white_noise_band(1, 1), 8, method="bfgs")

    def test_does_not_read_eta(self):
        # Newton stops on its affine-invariant decrement alone.  A given eta
        # was an extra, absolute stop on the gradient norm, so the step count
        # depended on the data's scale: (1, -0.91) at N = 9 stopped after 6
        # steps with eta = 1e-6 and after 7 without it
        near = scalar_band([1.0, -0.91]).blocks
        cases = [(BandData(1, 1, s * near), 9) for s in (1e-3, 1.0, 1e3)]
        cases.append((random_feasible_band(3, 2, 12, np.random.default_rng(7)), 12))
        for band, N in cases:
            given = solve(band, N, SolverConfig(eta=1e-6), method="newton")
            default = solve(band, N, method="newton")
            assert given.converged and given.iterations == default.iterations
            assert np.array_equal(given.K, default.K)

    def test_near_boundary_in_few_steps(self):
        # GD needs 96,041 steps here
        band = scalar_band([1.0, -0.91])
        res = solve(band, 9, method="newton")
        assert res.converged and res.iterations <= 20
        assert verify_solution(res, band).band_residual <= 1e-9

    def test_boundary_band_ends_with_certificate(self):
        # data exactly on the boundary of the feasible set have only
        # singular completions and no strict certificate of infeasibility:
        # lin stays positive while delta = lin / |N tr(K_0 Sigma_0)| falls
        # to 0.  The solve ends "boundary", with K certifying that every
        # whitened completion has a smallest eigenvalue below 1e-8.  The
        # budget cap this replaced ended (1, cos 6pi/7) at N = 7 "stalled"
        # after 2,071 steps
        for band, N in BOUNDARY_BANDS:
            res = solve(band, N, SolverConfig(max_iter=100_000), method="newton")
            assert res.status == "boundary" and res.iterations <= 100
            assert boundary_holds(res.K, band, N)
            gd = solve(band, N, SolverConfig(max_iter=2000))
            assert gd.status != "converged"

    def test_congruent_band_converges(self):
        # a feasible band mapped by the block congruence diag(1/s, 1, s) Q:
        # the budget cap on N max|K| max|data| this replaced ended the
        # solve "stalled" after 0 iterations at s = 1e3 and 1e4
        rng = np.random.default_rng(7)
        band = random_feasible_band(3, 2, 12, rng)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        for s in (10.0, 1e3, 1e4):
            M = np.diag([1 / s, 1.0, s]) @ Q
            blocks = M @ band.blocks @ M.T
            blocks[0] = sym(blocks[0])
            mapped = BandData(3, 2, blocks)
            res = solve(mapped, 12, method="newton")
            assert res.converged and res.iterations <= 5
            assert verify_solution(res, mapped).band_residual <= 1e-9

    @pytest.mark.parametrize("method", ["gd", "newton"])
    @pytest.mark.parametrize("d", [-0.5, -2.0, 0.0])
    def test_sigma0_not_pd_infeasible(self, method, d):
        # Sigma_0 = diag(1, d) is a diagonal block of every completion, so
        # none exists; N tr(K_0 Sigma_0) may take any sign, and the solve
        # still ends "infeasible" on Tr(K D) < 0 alone
        band = BandData(2, 1, np.array([np.diag([1.0, d]), 0.1 * np.eye(2)]))
        res = solve(band, 8, method=method)
        assert res.status == "infeasible"
        assert certificate_holds(res.K, band, 8)

    def test_full_step_trap_converges(self, monkeypatch):
        # a decrement whose rounding floor lies above the tolerance (forced
        # here by a zero tolerance) must end the solve once it stops
        # falling, a few steps after the default tolerance does, not run it
        # to its budget of 100.  The damped phase takes certified lengths
        # of 0.50-0.87 where full steps once passed an Armijo test on f, so
        # the default solve takes 23 steps (17 with that test)
        import circmaxent.solver as solver

        band = scalar_band([1.0, 0.999])
        counts = []
        for tol in (solver._DECREMENT_TOL, 0.0):
            monkeypatch.setattr(solver, "_DECREMENT_TOL", tol)
            res = solve(band, 8, SolverConfig(max_iter=100), init="identity", method="newton")
            assert res.converged
            assert completion_residuals(res.sigma.first_row, band.blocks)[0] <= 1e-9
            counts.append(res.iterations)
        assert counts[0] <= 25 and counts[1] <= counts[0] + 5

    def test_scale_free(self):
        # Newton's steps are affine invariant: the band (1, 0.3) s gives the
        # same rescaled completion in the same number of steps at any scale
        # (the plain gradient step, before GD was whitened, reported
        # "converged" at residual 2.6e-4 at 1e-100 and 1e-8, and "stalled"
        # at 1e100; see test_gd_scale_free)
        base = np.array([1.0, 0.3]).reshape(2, 1, 1)
        ref = solve(BandData(1, 1, base), 8, method="newton")
        assert ref.converged
        for s in (1e-100, 1e-8, 1e8, 1e100):
            res = solve(BandData(1, 1, s * base), 8, method="newton")
            assert res.converged and res.iterations == ref.iterations
            assert np.abs(res.sigma.first_row / s - ref.sigma.first_row).max() <= 1e-10
        # at the edges of the range: the same completion or no "converged"
        for s in (1e-160, 1e150):
            res = solve(BandData(1, 1, s * base), 8, method="newton")
            if res.converged:
                assert np.abs(res.sigma.first_row / s - ref.sigma.first_row).max() <= 1e-10
                assert completion_residuals(res.sigma.first_row, s * base)[0] <= 1e-8

    def test_agrees_with_gd_and_ips(self):
        # the instances of acceptance criteria 3 and 4; GD at eta = 1e-11
        # runs on every third criterion-3 instance, where it is fast
        rng = np.random.default_rng(303)
        cases = [(random_feasible_band(m, n, N, rng), N, k % 3 == 0)
                 for k, (m, n, N) in enumerate((m, n, N) for m in (1, 2, 3) for n in (1, 2, 3)
                                               for N in (8, 12, 16, 20, 24, 32))]
        rng = np.random.default_rng(404)
        for m, n, N in [(1, 1, 8), (1, 1, 16), (1, 2, 12), (1, 2, 24), (1, 3, 32), (1, 3, 48),
                        (2, 1, 8), (2, 1, 16), (2, 2, 12), (2, 2, 24), (2, 3, 10), (2, 3, 16),
                        (3, 1, 8), (3, 1, 16), (3, 2, 10), (3, 2, 16), (3, 3, 8), (3, 3, 12),
                        (1, 2, 40), (2, 2, 20)]:
            cases.append((random_feasible_band(m, n, N, rng), N, True))
        for band, N, with_gd in cases:
            newton = solve(band, N, method="newton")
            assert newton.converged
            ref = newton.sigma.first_row
            others = [circulant_average(ips_solve(band, N, tol=1e-12).sigma, band.m).first_row]
            if with_gd:
                others.append(solve(band, N, SolverConfig(eta=1e-11)).sigma.first_row)
            for row in others:
                assert np.linalg.norm(row - ref) <= 1e-8 * np.linalg.norm(ref)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 10), st.integers(0, 2**32 - 1))
def test_delta_bounds_whitened_eigenvalue(m, n, extra, seed):
    # delta = Tr(C(K) Sigma) / |N tr(K_0 Sigma_0)|, the number that ends a
    # solve as "boundary" or "infeasible", bounds the smallest eigenvalue of
    # every whitened completion from above at every K in the dual domain,
    # and it does not change when the band and K are mapped by a scale and
    # a block congruence
    N = 2 * n + 2 + extra
    rng = np.random.default_rng(seed)
    band = random_feasible_band(m, n, N, rng)
    K = _dual_band(random_feasible_dual(band, N, rng).value, m, n, N)
    _, lin, lin0 = dual_pairing(K, band, N)
    delta = lin / abs(lin0)
    res = solve(band, N, method="newton")
    assert res.converged
    Linv = np.kron(np.eye(N), np.linalg.inv(np.linalg.cholesky(band.blocks[0])))
    white = Linv @ res.sigma.to_dense() @ Linv.T
    assert delta >= np.linalg.eigvalsh(sym(white)).min() - 1e-12
    s = 10.0 ** rng.uniform(-50, 50)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((m, m)))[0] for _ in range(2))
    M = Q1 * rng.uniform(0.5, 2.0, m) @ Q2  # singular values in [0.5, 2]
    Minv = np.linalg.inv(M)
    blocks = s * (M @ band.blocks @ M.T)
    blocks[0] = sym(blocks[0])
    _, lin, lin0 = dual_pairing(Minv.T @ K @ Minv / s, BandData(m, n, blocks), N)
    assert abs(lin / abs(lin0) - delta) <= 1e-12 * abs(delta)


def _normalized(blocks, K):
    """The band ``solve`` iterates on, the data divided by c = 4^k
    (``_scale_exponent``), and the point K c on it."""
    k = _scale_exponent(blocks)
    return np.ldexp(blocks, -2 * k), np.ldexp(K, 2 * k)


@seed(27)
@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 16), st.sampled_from(["toeplitz", "identity"]),
       st.sampled_from(["gd", "newton"]), st.integers(0, 4), st.integers(-150, 150), st.integers(0, 2**32 - 1))
@example(1, 1, 6, "toeplitz", "newton", 4, -150, 0)
def test_decrement_bound(m, n, extra, init, method, steps, e, draw):
    # the bound that lets Newton stop without a Hessian is at least the
    # squared decrement _newton_step computes, at a start or after a few
    # steps, on the band solve iterates on, the data divided by its power of
    # 4, and it is the same at every scale of the data: the band is scaled
    # by s, the power of two nearest 10^e, so the normalized band and point
    # are exact up to a factor 2 and any difference is the bound's own
    # rounding.  On raw data near the optimum |G|^2 underflows at
    # s = 1e-150 (the example) and certifies a point that is not optimal;
    # test_solve_is_exact_under_powers_of_4 covers that scale end to end
    N = min(2 * n + 2 + extra, 20)
    band = random_feasible_band(m, n, N, np.random.default_rng(draw))
    K = solve(band, N, SolverConfig(max_iter=steps), init=init, method=method).K
    s = 2.0 ** round(e * math.log2(10.0))
    bounds = []
    for blocks, point in (_normalized(band.blocks, K), _normalized(s * band.blocks, K / s)):
        data = np.swapaxes(blocks, 1, 2)
        D = 2.0 * N * data
        D[0] *= 0.5
        _, psi, chol, _ = _objective(point, D, m, n, N, parts=True)
        G, inv = _gradient(psi, data, N)
        bound = _decrement_bound(G, inv, chol, N)
        assert _newton_step(G, inv, N)[1] <= (1.0 + 1e-12) * bound
        bounds.append(bound)
    assert abs(bounds[1] - bounds[0]) <= 1e-12 * bounds[0]


@seed(28)
@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 16), st.integers(0, 4), st.integers(-500, 500),
       st.sampled_from(["gd", "newton"]), st.integers(0, 2**32 - 1))
def test_certified_step_passes_armijo(m, n, extra, steps, k, method, draw):
    # the certified length of either method's step passes the Armijo test
    # on the exact change of f along it, read by a dense eigenvalue oracle
    # with no difference of f, at the start or after a few steps of a solve
    # of the data at scale 2^k, on the band the solve iterates on, the data
    # divided by its power of 4; Newton's is capped at 1; and the slope
    # the rule reads off the gradient is the oracle's.  The oracle's slope
    # is a difference of two terms, so near the optimum it carries its own
    # rounding, ``noise``: at a toeplitz start optimal to rounding its error
    # reached 1.4 times the slope, and at most 4.4 noise in 400 GD draws
    N = min(2 * n + 2 + extra, 20)
    blocks = 2.0 ** k * random_feasible_band(m, n, N, np.random.default_rng(draw)).blocks
    res = solve(BandData(m, n, blocks), N, SolverConfig(max_iter=steps), method=method)
    blocks, K = _normalized(blocks, res.K)
    band = BandData(m, n, blocks)
    data = np.swapaxes(blocks, 1, 2)
    G, inv = band_gradient(K, data, N)
    if method == "gd":
        start = _start(band, N, "toeplitz" if res.init_mode == "toeplitz" else "identity")
        step = _gd_step(G, _gd_metric(band_gradient(start, data, N)[1], N))
        slope, t = _certified_length(G, step, inv, N, math.inf)
    else:
        step = _newton_step(G, inv, N)[0]
        slope, t = _certified_length(G, step, inv, N, 1.0)
        assert 0.0 < t <= 1.0
    change, oracle_slope, noise = line_change(K, step, t, band, N)
    assert math.isfinite(change)  # the trial is in the domain
    assert change <= _ALPHA * t * slope + 1e-12 * abs(t * slope) + 8 * t * noise
    assert abs(slope - oracle_slope) <= 1e-10 * abs(slope) + 8 * noise


@seed(32)
@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 8), st.sampled_from(["toeplitz", "identity"]),
       st.sampled_from(["gd", "newton"]), st.integers(-120, 120), st.integers(0, 2**32 - 1))
def test_solve_is_exact_under_powers_of_4(m, n, extra, init, method, j, draw):
    # solve owns the data's scale: it divides the band by the power of 4
    # that puts its largest |entry| in [0.5, 2) and maps the answer back
    # exactly, so a band scaled by s = 4^j is solved from either start in
    # the same steps to K / s and sigma s, to the bit.  The identity start
    # was ((n+1)/N) I whatever the data's scale, so the step counts from it
    # moved with the scale
    N = 2 * n + 2 + extra
    band = random_feasible_band(m, n, N, np.random.default_rng(draw))
    budget = SolverConfig(max_iter=3000)
    ref = solve(band, N, budget, init=init, method=method)
    s = 4.0 ** j
    res = solve(BandData(m, n, s * band.blocks), N, budget, init=init, method=method)
    assert (res.status, res.iterations, res.init_mode) == (ref.status, ref.iterations, ref.init_mode)
    assert res.K.tobytes() == (ref.K / s).tobytes()
    assert res.sigma.first_row.tobytes() == (ref.sigma.first_row * s).tobytes()
    assert res.final_grad_norm == ref.final_grad_norm
    shift = m * N * math.log(s)  # f gains mN log s, up to the rounding of the sum
    assert abs(res.objective - ref.objective - shift) <= 1e-13 * (abs(ref.objective) + abs(shift))


@pytest.mark.parametrize("method", ["gd", "newton"])
def test_identity_start_at_every_scale(method):
    # the identity start is the identity of the band divided by its power
    # of 4, so it sits at the data's own unit: GD and Newton from it
    # converge at every scale to the rescaled completion.  From the unit
    # identity GD raised ZeroDivisionError at 1e-150 and 1e-100 and ran out
    # of a 20,000-step budget from 1e8 up, and so did Newton at 1e150.
    # GD's completion is as close as its stop eta allows
    band = random_feasible_band(2, 1, 8, np.random.default_rng(3))
    ref = solve(band, 8, init="identity", method=method)
    budget, tol = (250, 1e-7) if method == "gd" else (15, 1e-10)
    for s in (1e-150, 1e-100, 1e-8, 1e8, 1e100, 1e150):
        res = solve(BandData(2, 1, s * band.blocks), 8, SolverConfig(max_iter=budget), init="identity",
                    method=method)
        assert res.converged, (s, res.status)
        assert np.abs(res.sigma.first_row / s - ref.sigma.first_row).max() <= tol * np.abs(ref.sigma.first_row).max()


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 3), st.integers(1, 2), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_time_reversal(m, n, extra, seed):
    # the time-reversed process has the lags Sigma_d^T, and its completion
    # is the transposed one, row[d]^T.  Newton gets there in the same steps
    # to rounding, GD to its stopping tolerance (its step counts are pinned
    # by test_gd_time_reversal_step_counts).
    N = 2 * n + 2 + extra
    band = random_feasible_band(m, n, N, np.random.default_rng(seed))
    reversed_band = BandData(m, n, np.swapaxes(band.blocks, 1, 2))
    for method, tol in (("newton", 1e-12), ("gd", 1e-8)):
        forward, backward = solve(band, N, method=method), solve(reversed_band, N, method=method)
        assert forward.status == backward.status == "converged"
        if method == "newton":
            assert forward.iterations == backward.iterations
        want = np.swapaxes(forward.sigma.first_row, 1, 2)
        assert np.abs(backward.sigma.first_row - want).max() <= tol * np.abs(want).max()


def test_gd_time_reversal_step_counts():
    # GD takes as many steps on a band as on its time reversal.  The bands
    # are every tenth of the family seed s = 0..149, m = 2 + s mod 2,
    # n = 1 + (s div 2) mod 2, N = 2n + 2 + (s div 4) mod 7, and the five
    # on which the plain gradient step took other counts (400 against 401
    # at s = 35, 757 against 756 at s = 59); whitened, all 150 agree
    for s in sorted({*range(0, 150, 10), 35, 59, 65, 86, 145}):
        m, n = 2 + s % 2, 1 + (s // 2) % 2
        N = 2 * n + 2 + (s // 4) % 7
        band = random_feasible_band(m, n, N, np.random.default_rng(s))
        forward = solve(band, N, SolverConfig(max_iter=5000))
        backward = solve(BandData(m, n, np.swapaxes(band.blocks, 1, 2)), N, SolverConfig(max_iter=5000))
        assert forward.converged and backward.converged
        assert forward.iterations == backward.iterations, s


@functools.lru_cache(maxsize=None)
def _gd_references():
    """GD on the unit-scale bands of ``test_gd_is_scale_and_congruence_free``:
    (1, 0.3) at N = 8 and the seed-7 (3, 2) band at N = 12."""
    scalar = solve(BandData(1, 1, np.array([1.0, 0.3]).reshape(2, 1, 1)), 8)
    band = random_feasible_band(3, 2, 12, np.random.default_rng(7))
    return scalar, band, solve(band, 12)


@seed(8)
@settings(deadline=None, max_examples=40)
@given(st.integers(-150, 150), st.floats(0.0, 4.0), st.integers(0, 2**32 - 1))
def test_gd_is_scale_and_congruence_free(e, c, draw):
    # GD's step, its certified length and its stop do not change under a
    # scale or block congruence of the data, so a band scaled by s = 10^e,
    # or mapped by M = 10^(e/3) diag(d) Q with Q a random rotation and d of
    # condition 10^c <= 1e4, takes the same steps as at unit scale to the
    # mapped completion (e/3 keeps the mapped band's norm representable).
    # So does a general congruence M = 10^(e/3) Q1 diag(d) Q2 of condition
    # 10^(3c/4) <= 1e3, to the rounding of the mapped data, about
    # cond(M)^2 eps.  The plain gradient step stalled or ran out of budget
    # at every scale but 1, and on the rotated band at condition 100;
    # whitened GD with an Armijo test on f converged on 2 of 30 general maps
    scalar, band, ref = _gd_references()
    s = 10.0 ** e
    budget = SolverConfig(max_iter=1000)  # a solve that cannot converge ends
    res = solve(BandData(1, 1, s * np.array([1.0, 0.3]).reshape(2, 1, 1)), 8, budget)
    assert res.converged and res.iterations == scalar.iterations == 28
    assert np.abs(res.sigma.first_row / s - scalar.sigma.first_row).max() <= 1e-12
    rng = np.random.default_rng(draw)
    d = 10.0 ** np.array([0.0, rng.uniform(0.0, c), c])
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    g = 10.0 ** np.array([0.0, rng.uniform(0.0, 0.75 * c), 0.75 * c])
    for M, tol in ((10.0 ** (e / 3) * d[:, None] * Q1, 1e-12),
                   (10.0 ** (e / 3) * (Q1 * g) @ Q2, 10 * (g[-1] / g[0]) ** 2 * np.finfo(float).eps)):
        blocks = M @ band.blocks @ M.T
        blocks[0] = sym(blocks[0])
        res = solve(BandData(3, 2, blocks), 12, budget)
        want = M @ ref.sigma.first_row @ M.T
        assert res.converged and res.iterations == ref.iterations == 110
        assert np.abs(res.sigma.first_row - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize("draw", [1018, 1044])
def test_gd_metric_is_positive_definite_at_condition_1e4(draw):
    # a general congruence M = Q1 diag(g) Q2 of condition 1e4 gives GD's
    # metric block V0 a condition near 1e16.  Its plain inverse was not PD:
    # the step pointed uphill and the solve ended "stalled" after 3 steps
    # (draw 1018), or restarted from the identity and ran out of budget
    # (draw 1044).  Applied through the Cholesky factor of V0 the step is a
    # descent one, and the solve reaches the mapped completion to the
    # rounding of the mapped data, about cond(M)^2 eps.  The step count is
    # not pinned: the stop reads a gradient whose rounding is near eta
    band = _gd_references()[1]
    rng = np.random.default_rng(draw)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    g = 10.0 ** np.array([0.0, rng.uniform(0.0, 4.0), 4.0])
    M = (Q1 * g) @ Q2
    blocks = M @ band.blocks @ M.T
    blocks[0] = sym(blocks[0])
    res = solve(BandData(3, 2, blocks), 12, SolverConfig(max_iter=2000))
    want = M @ _gd_references()[2].sigma.first_row @ M.T
    assert res.converged, (res.status, res.iterations)
    tol = 10 * np.linalg.cond(M) ** 2 * np.finfo(float).eps
    assert np.abs(res.sigma.first_row - want).max() <= tol * np.abs(want).max()


class TestVerifySolution:
    def test_white_noise_zero_residuals(self):
        band = white_noise_band(2, 1)
        res = solve(band, 8)
        report = verify_solution(res, band)
        assert report.band_residual == 0.0
        assert report.dempster_residual == 0.0
        assert abs(report.entropy - 0.5 * 16 * (1.0 + LOG_2PI)) <= 1e-12 * report.entropy

    def test_converged_residual_levels(self):
        rng = np.random.default_rng(50)
        band = random_feasible_band(2, 2, 16, rng)
        report = verify_solution(solve(band, 16), band)
        assert report.band_residual <= 1e-6
        assert report.dempster_residual <= 1e-6

    def test_scale_safe_norms(self):
        # at 1e-160 the Dempster reference norm of the inverse (~1e160)
        # overflowed when squared (a RuntimeWarning, an error in this
        # suite) and the squared band norms went subnormal
        base = np.array([1.0, 0.3]).reshape(2, 1, 1)
        ref = solve(BandData(1, 1, base), 8, method="newton")
        want = verify_solution(ref.sigma, BandData(1, 1, base))
        for s in (1e-160, 1e150):
            report = verify_solution(BlockCirculant(1, 8, s * ref.sigma.first_row), BandData(1, 1, s * base))
            assert abs(report.band_residual - want.band_residual) <= 1e-15
            assert abs(report.dempster_residual - want.dempster_residual) <= 1e-15

    def test_scale_safe_solver_result(self):
        # K scales as 1/s, so the band check's products L^H S L stay O(1)
        base = np.array([1.0, 0.3]).reshape(2, 1, 1)
        want = verify_solution(solve(BandData(1, 1, base), 8, method="newton"), BandData(1, 1, base))
        for s in (1e-160, 1e150):
            band = BandData(1, 1, s * base)
            report = verify_solution(solve(band, 8, method="newton"), band)
            assert abs(report.band_residual - want.band_residual) <= 1e-14
            assert abs(report.dempster_residual - want.dempster_residual) <= 1e-14

    def test_ips_solution_cross_check(self):
        rng = np.random.default_rng(51)
        band = random_feasible_band(1, 2, 12, rng)
        res = solve(band, 12)
        scaled = ips_solve(band, 12, tol=1e-10)
        report = verify_solution(circulant_average(scaled.sigma, band.m), band)
        assert report.band_residual <= 1e-6
        assert report.dempster_residual <= 1e-6
        dist = np.linalg.norm(scaled.sigma - res.sigma.to_dense()) / np.linalg.norm(scaled.sigma)
        assert dist <= 1e-5

    @staticmethod
    def _count_calls(monkeypatch, names):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in names:
            mod = np.fft if "fft" in name else np.linalg
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        return calls

    def test_factors_the_completion_once(self, monkeypatch):
        # a bare completion: one real FFT and one batched Cholesky serve the
        # PD test, the Dempster residual's inverse and the entropy
        band = random_feasible_band(2, 1, 16, np.random.default_rng(53))
        res = solve(band, 64)
        want = 0.5 * circ_logdet(res.sigma) + 0.5 * (2 * 64) * (1.0 + LOG_2PI)
        calls = self._count_calls(monkeypatch, ("rfft", "cholesky", "inv"))
        report = verify_solution(res.sigma, band)
        assert sorted(calls) == ["cholesky", "inv", "rfft"]
        assert report.entropy == want

    def test_solver_result_factors_only_its_band(self, monkeypatch):
        # a solve is checked against its precision band: one real FFT of the
        # completion, with no inverse and no inverse FFT, and the Cholesky
        # factors of K's frequency blocks that the solve already has.  The
        # result is frozen, so they belong to its K while K is read-only: a
        # shallow copy reuses them, while a replaced K or a deep copy (whose
        # K is writable) is factored again and reads the same report
        band = random_feasible_band(2, 1, 16, np.random.default_rng(53))
        res = solve(band, 64)
        want = 0.5 * circ_logdet(res.sigma) + 0.5 * (2 * 64) * (1.0 + LOG_2PI)
        calls = self._count_calls(monkeypatch, ("rfft", "irfft", "cholesky", "inv"))
        report = verify_solution(res, band)
        assert sorted(calls) == ["rfft"]
        assert abs(report.entropy - want) <= 1e-13 * abs(want)
        assert report.dempster_residual <= 1e-13
        # a solve's K reads an immutable buffer, so it cannot be made
        # writable again, edited and frozen under the factors it keeps
        with pytest.raises(ValueError):
            res.K.setflags(write=True)
        calls.clear()
        assert verify_solution(copy.copy(res), band) == report
        assert calls == ["rfft"]
        for other in (dataclasses.replace(res, K=res.K.copy()), copy.deepcopy(res)):
            calls.clear()
            assert verify_solution(other, band) == report
            assert sorted(calls) == ["cholesky", "rfft"]
        with pytest.raises(ValueError):
            res.K[0, 0, 0] = 0.0
        for name, value in (("K", res.K.copy()), ("status", "stalled"), ("_factors", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(res, name, value)

    @pytest.mark.parametrize("call", [
        lambda band, res: solve(None, 8),
        lambda band, res: solve(band, 8, "x"),
        lambda band, res: solve(band, 8, SolverConfig(trace=3)),
        lambda band, res: verify_solution(42, band),
        lambda band, res: verify_solution(res, "x"),
        lambda band, res: verify_solution(res, None),
    ], ids=["solve-band", "solve-config", "solve-trace", "verify-solution", "verify-band-str", "verify-band-none"])
    def test_wrong_types_are_bad_input(self, call):
        # each escaped as AttributeError; only package errors leave solve
        # and verify_solution
        band = scalar_band([1.0, 0.3])
        with pytest.raises(BadInput):
            call(band, solve(band, 8))

    def test_sees_a_corrupted_precision_band(self):
        band = random_feasible_band(2, 1, 16, np.random.default_rng(53))
        res = solve(band, 64)
        assert verify_solution(res, band).dempster_residual <= 1e-13
        K = res.K.copy()
        K[1, 0, 1] *= 1.0 + 1e-6
        # the factoring path never reads K, so it cannot see this
        assert verify_solution(dataclasses.replace(res, K=K), band).dempster_residual > 1e-8

    def test_non_pd_completion_raises(self):
        band = random_feasible_band(2, 1, 16, np.random.default_rng(53))
        res = solve(band, 64)
        row = res.sigma.first_row.copy()
        # shift the smallest frequency-block eigenvalue to -0.01
        row[0] -= (np.linalg.eigvalsh(np.fft.fft(row, axis=0)).min() + 0.01) * np.eye(2)
        bad = BlockCirculant(2, 64, row)
        for solution in (bad, dataclasses.replace(res, sigma=bad)):
            with pytest.raises(NotPositiveDefinite):
                verify_solution(solution, band)

    def test_non_finite_precision_band_raises(self):
        # a NaN in K reaches the Cholesky test as a non-finite frequency
        # block, which is refused before any factorization
        band = random_feasible_band(2, 1, 16, np.random.default_rng(53))
        res = solve(band, 16)
        K = res.K.copy()
        K[1, 0, 1] = np.nan
        with pytest.raises(NotPositiveDefinite, match="non-finite"):
            verify_solution(dataclasses.replace(res, K=K), band)

    def test_mismatched_input(self):
        band = random_feasible_band(2, 1, 16, np.random.default_rng(53))
        res = solve(band, 16)
        other = random_feasible_band(3, 1, 16, np.random.default_rng(53))
        with pytest.raises(BadInput):
            verify_solution(res, other)
        with pytest.raises(BadInput):
            verify_solution(res.sigma, other)
        with pytest.raises(BadInput):
            verify_solution(dataclasses.replace(res, K=res.K[:1]), band)
        # at N < 2n+2 the band and its mirror overlap: no off-band block
        # is left to test, which read as a Dempster residual of 0
        row = np.zeros((3, 2, 2))
        row[0] = np.eye(2)
        with pytest.raises(BandTooWide):
            verify_solution(BlockCirculant(2, 3, row), band)

    def test_dempster_cross_check(self):
        # criterion 3's seed on part of its grid: the dense oracle confirms
        # the banded inverse that the band check certifies, and the entropy
        # matches the factoring path
        rng = np.random.default_rng(303)
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                for N in (8, 16, 32):
                    band = random_feasible_band(m, n, N, rng)
                    res = solve(band, N)
                    assert res.converged
                    report = verify_solution(res, band)
                    band_res, dempster = completion_residuals(res.sigma.first_row, band.blocks)
                    assert band_res <= 1e-6 and dempster <= 1e-6
                    assert report.band_residual <= 1e-6
                    assert report.dempster_residual <= 1e-12
                    factored = verify_solution(res.sigma, band).entropy
                    assert abs(report.entropy - factored) <= 1e-13 * abs(factored)


class TestSolverPathStructure:
    def test_no_dense_materialization_in_solver_module(self):
        # the iteration must stay in first-row/frequency-block form; dense
        # assembly belongs to oracles, baselines and debug dumps only
        import ast
        import pathlib

        import circmaxent.solver as mod

        source = ast.parse(pathlib.Path(mod.__file__).read_text())
        dense_calls = [
            node
            for node in ast.walk(source)
            if isinstance(node, ast.Attribute) and node.attr in ("to_dense", "circulant_average")
        ]
        # verify_solution takes circulants only; callers project a baseline's
        # dense iterate with circulant_average first
        assert not dense_calls


class TestDualVariable:
    def test_symmetrized_on_construction(self):
        raw = np.array([[1.0, 2.0], [0.0, 3.0]])
        lam = DualVariable(1, 1, raw)
        assert np.abs(lam.value - sym(raw)).max() == 0.0

    def test_feasibility_predicate(self):
        assert in_dual_domain(DualVariable(1, 1, np.eye(2)), 6)
        assert not in_dual_domain(DualVariable(1, 1, -np.eye(2)), 6)

    def test_shape_checked(self):
        with pytest.raises(BadInput):
            DualVariable(2, 1, np.eye(3))
