"""Block-circulant algebra against dense linear-algebra oracles."""

from dataclasses import replace

import numpy as np
import pytest

from circmaxent import (
    BadInput,
    BandData,
    BandTooWide,
    BlockCirculant,
    DualVariable,
    NotPositiveDefinite,
    PatternGraph,
    SolverConfig,
    band_cliques,
    band_from_ar,
    circ_inverse,
    circ_logdet,
    circulant_approx,
    circulant_average,
    dual_gradient,
    eig_affine_forms,
    extend_covariances,
    init_lambda,
    ips_solve,
    leading_inverse_band,
    phi_inverse_coeffs,
    project_band_gram,
    random_ar_band,
    random_feasible_band,
    random_stable_ar,
    scalar_bw1_feasible,
    sk1_solve,
    solve,
    solve_yule_walker,
    verify_solution,
)
from circmaxent.solver import _objective
from helpers import (
    band_spectrum_full,
    circ_matmul,
    dense_circulant_basis,
    dense_embed_dual,
    dft_spectrum_direct,
    identity_circulant,
    is_banded,
    is_hermitian,
    is_mirrored,
    is_symmetric,
    random_spd_circulant,
    random_symmetric_circulant,
    spectrum_to_circulant,
    sym,
)

LOG_2PI = np.log(2.0 * np.pi)


def entropy(c):
    """Gaussian entropy of a completion, as ``verify_solution`` reports it
    (the band it checks against does not enter the entropy)."""
    return verify_solution(c, BandData(c.m, 0, c.first_row[:1])).entropy


class TestDftSpectrum:
    def test_identity_spectrum(self):
        c = identity_circulant(3, 5)
        assert np.abs(band_spectrum_full(c) - np.eye(3)).max() < 1e-14

    def test_scalar_n4_formula(self):
        # first row (1, 0.3, x, 0.3): psi_k = 1 + 0.6 cos(pi k / 2) + x cos(pi k)
        x = 0.17
        c = BlockCirculant(1, 4, np.array([1.0, 0.3, x, 0.3]).reshape(4, 1, 1))
        psi = band_spectrum_full(c)[:, 0, 0]
        k = np.arange(4)
        expect = 1.0 + 0.6 * np.cos(np.pi * k / 2) + x * np.cos(np.pi * k)
        assert np.abs(psi - expect).max() < 1e-14

    def test_scalar_n7_zero_frequency(self):
        # row (1, -0.91, x, y, y, x, -0.91): psi_0 = -0.82 + 2x + 2y
        x, y = 0.12, -0.08
        row = np.array([1.0, -0.91, x, y, y, x, -0.91]).reshape(7, 1, 1)
        psi0 = band_spectrum_full(BlockCirculant(1, 7, row))[0, 0, 0]
        assert abs(psi0 - (-0.82 + 2 * x + 2 * y)) < 1e-14

    def test_dense_fourier_reconstruction(self):
        # V Psi V* must reassemble the matrix (pins the transform convention)
        rng = np.random.default_rng(3)
        for m, N in [(1, 5), (2, 6), (3, 7)]:
            c = random_symmetric_circulant(m, N, rng)
            psi = band_spectrum_full(c)
            v = np.kron(
                np.exp(-2j * np.pi * np.outer(np.arange(N), np.arange(N)) / N) / np.sqrt(N),
                np.eye(m),
            )
            big = np.zeros((m * N, m * N), complex)
            for ell in range(N):
                big[ell * m:(ell + 1) * m, ell * m:(ell + 1) * m] = psi[ell]
            rec = v @ big @ v.conj().T
            assert np.abs(rec - c.to_dense()).max() < 1e-12

    def test_fft_matches_direct_reference(self):
        rng = np.random.default_rng(4)
        for m in (1, 2, 3):
            for N in range(2, 17):
                c = random_symmetric_circulant(m, N, rng)
                a = band_spectrum_full(c)
                b = dft_spectrum_direct(c)
                assert np.abs(a - b).max() < 1e-11 * max(1.0, np.abs(a).max())

    def test_symmetric_gives_hermitian_blocks(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 3):
            for N in (2, 5, 8, 13, 16):
                c = random_symmetric_circulant(m, N, rng)
                assert is_hermitian(band_spectrum_full(c), 1e-12)


class TestSpectrumToCirculant:
    def test_identity_blocks(self):
        c = spectrum_to_circulant(np.tile(np.eye(2, dtype=complex), (6, 1, 1)))
        assert np.abs(c.first_row[0] - np.eye(2)).max() < 1e-14
        assert np.abs(c.first_row[1:]).max() < 1e-14

    def test_constant_real_spectrum(self):
        blk = np.array([[2.0, 0.5], [0.7, 1.0]])
        c = spectrum_to_circulant(np.tile(blk.astype(complex), (5, 1, 1)))
        assert np.abs(c.first_row[0] - blk).max() < 1e-14
        assert np.abs(c.first_row[1:]).max() < 1e-14

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for m in (1, 2, 3):
            for N in range(2, 17):
                c = random_symmetric_circulant(m, N, rng)
                back = spectrum_to_circulant(band_spectrum_full(c))
                scale = max(1.0, np.abs(c.first_row).max())
                assert np.abs(back.first_row - c.first_row).max() < 1e-12 * scale

    def test_rejects_non_conjugate_symmetric(self):
        psi = np.zeros((4, 1, 1), complex)
        psi[:, 0, 0] = [1.0, 2.0 + 1j, 1.0, 0.5 - 0.2j]  # psi_3 != conj(psi_1)
        with pytest.raises(ValueError):
            spectrum_to_circulant(psi)


class TestInverse:
    def test_identity(self):
        c = identity_circulant(2, 7)
        inv = circ_inverse(c)
        assert np.abs(inv.to_dense() - np.eye(14)).max() < 1e-13

    def test_scalar_alpha_identity(self):
        row = np.zeros((6, 1, 1))
        row[0] = 2.5
        inv = circ_inverse(BlockCirculant(1, 6, row))
        assert abs(inv.first_row[0, 0, 0] - 1 / 2.5) < 1e-14
        assert np.abs(inv.first_row[1:]).max() < 1e-15

    def test_scalar_n4_dense_oracle(self):
        c = BlockCirculant(1, 4, np.array([2.0, 0.5, 0.0, 0.5]).reshape(4, 1, 1))
        expect = np.linalg.inv(c.to_dense())
        assert np.abs(circ_inverse(c).to_dense() - expect).max() < 1e-12

    def test_product_check(self):
        rng = np.random.default_rng(7)
        for m, N in [(1, 9), (2, 8), (3, 12), (2, 16)]:
            c = random_spd_circulant(m, N, rng)
            prod = circ_matmul(c, circ_inverse(c))
            err = np.linalg.norm(prod.to_dense() - np.eye(m * N))
            assert err <= 1e-10 * m * N

    def test_not_positive_definite(self):
        row = np.zeros((4, 1, 1))
        row[0] = 1.0
        row[1] = row[3] = 0.9  # eigenvalue 1 + 1.8 cos(theta) dips negative
        with pytest.raises(NotPositiveDefinite):
            circ_inverse(BlockCirculant(1, 4, row))

    def test_dense_oracle_up_to_64(self):
        rng = np.random.default_rng(8)
        for m, N in [(1, 64), (2, 32), (3, 21), (4, 16), (2, 7), (3, 9), (1, 15)]:
            c = random_spd_circulant(m, N, rng)
            expect = np.linalg.inv(c.to_dense())
            got = circ_inverse(c).to_dense()
            assert np.abs(got - expect).max() < 1e-8 * np.abs(expect).max()


class TestLogdetEntropy:
    def test_identity_zero(self):
        assert abs(circ_logdet(identity_circulant(3, 4))) < 1e-14

    def test_scalar_alpha(self):
        row = np.zeros((5, 1, 1))
        row[0] = 3.0
        assert abs(circ_logdet(BlockCirculant(1, 5, row)) - 5 * np.log(3.0)) < 1e-12

    def test_dense_oracle(self):
        rng = np.random.default_rng(9)
        for m, N in [(2, 6), (1, 16), (3, 10), (2, 32), (4, 16), (1, 64), (2, 7), (3, 9), (1, 15)]:
            c = random_spd_circulant(m, N, rng)
            expect = np.linalg.slogdet(c.to_dense())[1]
            assert abs(circ_logdet(c) - expect) < 1e-8 * max(1.0, abs(expect))

    def test_not_pd_raises(self):
        row = np.zeros((4, 2, 2))
        row[0] = -np.eye(2)
        with pytest.raises(NotPositiveDefinite):
            circ_logdet(BlockCirculant(2, 4, row))

    def test_entropy_identity(self):
        # m=1, N=2 identity: logdet 0, dimension 2
        c = identity_circulant(1, 2)
        assert abs(entropy(c) - (1.0 + LOG_2PI)) < 1e-12

    def test_entropy_alpha_dim2(self):
        alpha = 1.7
        row = np.zeros((2, 1, 1))
        row[0] = alpha
        c = BlockCirculant(1, 2, row)
        assert abs(entropy(c) - (np.log(alpha) + 1.0 + LOG_2PI)) < 1e-12

    def test_entropy_dense_oracle(self):
        rng = np.random.default_rng(10)
        c = random_spd_circulant(2, 9, rng)
        dim = 18
        expect = 0.5 * np.linalg.slogdet(c.to_dense())[1] + 0.5 * dim * (1 + LOG_2PI)
        assert abs(entropy(c) - expect) < 1e-9


class TestProjectBandGram:
    def test_identity_dual(self):
        m, n, N = 2, 2, 10
        proj = project_band_gram(np.eye((n + 1) * m), m, n, N)
        assert np.abs(proj.first_row[0] - (n + 1) / N * np.eye(m)).max() < 1e-14
        assert np.abs(proj.first_row[1:]).max() < 1e-15

    def test_scalar_hand_case(self):
        # lam = [[a, b], [b, d]], N=4 -> row ((a+d)/4, b/4, 0, b/4)
        a, b, d = 2.0, 3.0, 5.0
        proj = project_band_gram(np.array([[a, b], [b, d]]), 1, 1, 4)
        assert np.abs(proj.first_row.ravel() - [(a + d) / 4, b / 4, 0.0, b / 4]).max() < 1e-14

    def test_matches_dense_shift_average(self):
        rng = np.random.default_rng(11)
        for m, n, N in [(1, 1, 4), (2, 1, 6), (2, 2, 8), (3, 2, 9)]:
            size = (n + 1) * m
            lam = sym(rng.standard_normal((size, size)))
            proj = project_band_gram(lam, m, n, N)
            # oracle: average the embedded matrix over all cyclic block shifts
            big = dense_embed_dual(lam, m, n, N)
            shift = np.kron(np.roll(np.eye(N), 1, axis=0), np.eye(m))
            acc = np.zeros_like(big)
            cur = big.copy()
            for _ in range(N):
                acc += cur
                cur = shift @ cur @ shift.T
            assert np.abs(proj.to_dense() - acc / N).max() < 1e-12

    def test_orthogonality_on_basis(self):
        rng = np.random.default_rng(12)
        for m, n, N in [(1, 1, 4), (2, 1, 6), (1, 2, 8)]:
            size = (n + 1) * m
            lam = sym(rng.standard_normal((size, size)))
            residual = dense_embed_dual(lam, m, n, N) - project_band_gram(lam, m, n, N).to_dense()
            for basis_el in dense_circulant_basis(m, N):
                assert abs(np.sum(residual * basis_el)) < 1e-10

    def test_adjoint_identity(self):
        # <P(X), C> = <X, C> for circulant C and the bordered X
        rng = np.random.default_rng(13)
        m, n, N = 2, 1, 6
        size = (n + 1) * m
        lam = sym(rng.standard_normal((size, size)))
        x = dense_embed_dual(lam, m, n, N)
        px = project_band_gram(lam, m, n, N).to_dense()
        c = random_symmetric_circulant(m, N, rng).to_dense()
        assert abs(np.sum(px * c) - np.sum(x * c)) < 1e-10

    def test_idempotent_on_image(self):
        # spread the projected band back into a block-Toeplitz dual; the
        # projection must reproduce the same circulant
        rng = np.random.default_rng(14)
        m, n, N = 2, 2, 10
        size = (n + 1) * m
        lam = sym(rng.standard_normal((size, size)))
        proj = project_band_gram(lam, m, n, N)
        respread = np.zeros((size, size))
        for i in range(n + 1):
            for j in range(n + 1):
                d = abs(j - i)
                x = (N / (n + 1 - d)) * proj.first_row[d]
                respread[i * m:(i + 1) * m, j * m:(j + 1) * m] = x if j >= i else x.T
        again = project_band_gram(respread, m, n, N)
        assert np.abs(again.first_row - proj.first_row).max() < 1e-12

    def test_band_too_wide(self):
        with pytest.raises(BandTooWide):
            project_band_gram(np.eye(3), 1, 2, 5)  # needs N >= 6


class TestLeadingInverseBand:
    def test_identity(self):
        c = identity_circulant(2, 6)
        out = leading_inverse_band(c, 2)
        assert np.abs(out - np.eye(6)).max() < 1e-13

    def test_scalar_alpha(self):
        row = np.zeros((7, 1, 1))
        row[0] = 4.0
        out = leading_inverse_band(BlockCirculant(1, 7, row), 2)
        assert np.abs(out - np.eye(3) / 4.0).max() < 1e-14

    def test_scalar_n5_dense_oracle(self):
        c = BlockCirculant(1, 5, np.array([2.0, 0.4, 0.0, 0.0, 0.4]).reshape(5, 1, 1))
        expect = np.linalg.inv(c.to_dense())[:2, :2]
        assert np.abs(leading_inverse_band(c, 1) - expect).max() < 1e-12

    def test_random_dense_oracle(self):
        rng = np.random.default_rng(15)
        for m, n, N in [(2, 2, 9), (3, 1, 8)]:
            c = random_spd_circulant(m, N, rng)
            size = (n + 1) * m
            expect = np.linalg.inv(c.to_dense())[:size, :size]
            assert np.abs(leading_inverse_band(c, n) - expect).max() < 1e-10


class TestStructureClosure:
    def test_matmul_matches_dense(self):
        rng = np.random.default_rng(16)
        a = random_symmetric_circulant(2, 7, rng)
        b = random_symmetric_circulant(2, 7, rng)
        prod = circ_matmul(a, b)
        assert np.abs(prod.to_dense() - a.to_dense() @ b.to_dense()).max() < 1e-12

    def test_inverse_stays_circulant(self):
        rng = np.random.default_rng(18)
        c = random_spd_circulant(2, 8, rng)
        inv = circ_inverse(c)
        assert isinstance(inv, BlockCirculant)
        assert is_symmetric(inv, 1e-10)

    def test_circulant_average_recovers_circulant(self):
        rng = np.random.default_rng(19)
        c = random_symmetric_circulant(2, 6, rng)
        back = circulant_average(c.to_dense(), 2)
        assert np.abs(back.first_row - c.first_row).max() < 1e-13


class TestContainers:
    def test_symmetry_predicate(self):
        rng = np.random.default_rng(20)
        c = random_symmetric_circulant(2, 8, rng)
        assert is_symmetric(c)
        row = c.first_row.copy()
        row[1] += 0.5
        assert not is_symmetric(BlockCirculant(2, 8, row))

    def test_banded_predicate(self):
        band = BandData(2, 1, np.stack([np.eye(2), 0.3 * np.eye(2)]))
        c = band.embed_circulant(8)
        assert is_banded(c, 1)
        assert not is_banded(c, 0)

    def test_band_data_requires_symmetric_head(self):
        with pytest.raises(BadInput):
            BandData(2, 0, np.array([[[1.0, 0.5], [0.0, 1.0]]]))
        # the tolerance is relative to Sigma_0 at every scale
        for s in (1.0, 1e-20):
            with pytest.raises(BadInput):
                BandData(2, 0, s * np.array([[[1.0, 0.5], [0.1, 1.0]]]))
        # rounding-level asymmetry is still averaged away
        head = BandData(2, 0, 1e-20 * np.array([[[1.0, 0.5], [0.5 * (1 + 1e-14), 1.0]]])).blocks[0]
        assert head[0, 1] == head[1, 0]

    def test_toeplitz_assembly(self):
        s0 = np.array([[2.0, 0.3], [0.3, 1.5]])
        s1 = np.array([[0.4, 0.1], [-0.2, 0.5]])
        t = BandData(2, 1, np.stack([s0, s1])).toeplitz()
        assert np.abs(t[:2, :2] - s0).max() == 0
        assert np.abs(t[2:, :2] - s1).max() == 0
        assert np.abs(t[:2, 2:] - s1.T).max() == 0
        assert np.abs(t - t.T).max() == 0

    def test_embed_requires_room(self):
        band = BandData(1, 2, np.array([2.0, 0.5, 0.2]).reshape(3, 1, 1))
        with pytest.raises(BandTooWide):
            band.embed_circulant(5)

    def test_band_data_rejects_non_finite_or_empty_blocks(self):
        for bad in (np.nan, np.inf, -np.inf):
            blocks = np.stack([np.eye(2), 0.3 * np.eye(2)])
            blocks[1, 0, 1] = bad
            with pytest.raises(BadInput):
                BandData(2, 1, blocks)
        with pytest.raises(BadInput):
            BandData(1, 0, np.array([[[np.nan]]]))
        with pytest.raises(BadInput):
            BandData(0, 1, np.zeros((2, 0, 0)))


def _size_entries():
    """Every public entry that takes a size, as (its smallest legal sizes,
    call of them): m for m x m blocks, a bandwidth n, N block rows and the
    K lags of ``extend_covariances``.  The band is scalar with n = 2, so
    N = 2n + 2 = 6; ``scalar_bw1_feasible`` has n = 1 and ``BlockCirculant``
    n = 0."""
    band = BandData(1, 2, np.array([1.0, 0.3, 0.1]).reshape(3, 1, 1))
    lam = init_lambda(band, 6)

    def identity(N):
        row = np.zeros((max(int(N), 1), 1, 1))
        row[0] = 1.0
        return BlockCirculant(1, N, row)

    def ar_model(m, n):
        coeffs = np.zeros((n + 1, m, m))
        coeffs[:1] = np.eye(m)
        return coeffs, np.eye(m)

    def rng():
        return np.random.default_rng(0)

    mn, mnN, N6 = {"m": 1, "n": 2}, {"m": 1, "n": 2, "N": 6}, {"N": 6}
    return {
        "BandData": (mn, lambda m, n: BandData(m, n, band.blocks)),
        "BlockCirculant": ({"m": 1, "N": 2}, lambda m, N: BlockCirculant(m, N, np.ones((2, 1, 1)))),
        "DualVariable": (mn, lambda m, n: DualVariable(m, n, np.eye(3))),
        "embed_circulant": (N6, band.embed_circulant),
        "project_band_gram": (mnN, lambda m, n, N: project_band_gram(band.blocks, m, n, N)),
        "leading_inverse_band": ({"n": 2}, lambda n: leading_inverse_band(identity(6), n)),
        "circulant_average": ({"m": 1}, lambda m: circulant_average(np.eye(6), m)),
        "scalar_bw1_feasible": ({"N": 4}, lambda N: scalar_bw1_feasible(1.0, 0.3, N)),
        "eig_affine_forms": (N6, lambda N: eig_affine_forms(band, N)),
        "random_feasible_band": (mnN, lambda m, n, N: random_feasible_band(m, n, N, rng())),
        "random_stable_ar": (mn, lambda m, n: random_stable_ar(m, n, rng())),
        "random_ar_band": (mn, lambda m, n: random_ar_band(m, n, rng())),
        "band_from_ar": (mn, lambda m, n: band_from_ar(*ar_model(m, n))),
        "PatternGraph.banded": (mnN, PatternGraph.banded),
        "band_cliques": (mnN, lambda m, n, N: band_cliques(N, n, m)),
        "ips_solve": (N6, lambda N: ips_solve(band, N)),
        "sk1_solve": (N6, lambda N: sk1_solve(band, N)),
        "solve": (N6, lambda N: solve(band, N, method="newton")),
        "init_lambda": (N6, lambda N: init_lambda(band, N)),
        "dual_gradient": (N6, lambda N: dual_gradient(lam, band, N)),
        "verify_solution": (N6, lambda N: verify_solution(identity(N), band)),
        "circulant_approx": (N6, lambda N: circulant_approx(band, N)),
        "extend_covariances": ({"K": 3}, lambda K: extend_covariances(band, K)),
    }


@pytest.mark.parametrize("entry", sorted(_size_entries()))
def test_size_rule_has_one_owner(entry):
    # one blockcirc check refuses m = 0, n = -1, K <= n and any size that is
    # not an integer, bools included, with BadInput, where they used to raise
    # TypeError, IndexError or ZeroDivisionError, or return an empty result
    legal, call = _size_entries()[entry]
    for size, value in legal.items():
        refused = {"m": [0], "n": [-1], "N": [], "K": [value - 1]}[size]
        if entry != "band_from_ar":  # it reads m and n off an array's shape
            # operator.index reads a bool as 0 or 1, so the rule refuses bools
            refused += [float(value), True, False]
        for bad in refused:
            with pytest.raises(BadInput):
                call(**{**legal, size: bad})
    assert call(**legal) is not None


@pytest.mark.parametrize("entry", sorted(e for e, (legal, _) in _size_entries().items() if "N" in legal))
def test_width_rule_has_one_owner(entry):
    # N >= 2n + 2 keeps the band apart from its circulant mirror; every
    # entry refuses a smaller N with the same error, which is a BadInput
    legal, call = _size_entries()[entry]
    for N in (legal["N"] - 2, legal["N"] - 1):
        with pytest.raises(BandTooWide) as exc:
            call(**{**legal, "N": N})
        assert isinstance(exc.value, BadInput)
    call(**legal)


def _count_entries():
    """Every count that is not a size, as (its name, its least value, a
    legal value, call of it), on the scalar band (1, 0.3) with n = 1 at
    N = 6, where K > n."""
    band = BandData(1, 1, np.array([1.0, 0.3]).reshape(2, 1, 1))
    return {
        "SolverConfig.max_iter": ("max_iter", 0, 0, lambda x: SolverConfig(max_iter=x)),
        "ips_solve.max_cycles": ("max_cycles", 0, 200, lambda x: ips_solve(band, 6, max_cycles=x)),
        "sk1_solve.max_cycles": ("max_cycles", 0, 200, lambda x: sk1_solve(band, 6, max_cycles=x)),
        "extend_covariances.K": ("K", 2, 2, lambda x: extend_covariances(band, x)),
    }


@pytest.mark.parametrize("entry", sorted(_count_entries()))
def test_count_rule_has_one_owner(entry):
    # the size rule's count test (blockcirc._count) checks every budget and
    # lag count too, with a message that names the count: the baselines
    # reported a "budget of -1 steps", and K = n was reported against n
    what, low, legal, call = _count_entries()[entry]
    for bad in (True, np.True_, 2.5, "3", None, -1, low - 1):
        with pytest.raises(BadInput, match=rf"\b{what}="):
            call(bad)
    assert call(legal) is not None
    assert call(np.int64(legal)) is not None


def _array_entries():
    """Every public entry that takes an array, as (its smallest legal array,
    call of it), the other arguments fixed: a scalar band with n = 1 at
    N = 4, and the AR model with coefficients (1, 0.5) and innovation 1."""
    band = BandData(1, 1, np.array([1.0, 0.3]).reshape(2, 1, 1))
    coeffs, innovation = np.array([1.0, 0.5]).reshape(2, 1, 1), np.eye(1)
    result = solve(band, 4, method="newton")
    start = np.array([0.5, 0.0]).reshape(2, 1, 1)  # the identity start at N = 4
    D = 2.0 * 4 * band.blocks
    D[0] *= 0.5

    def dual(x):
        lam = DualVariable(1, 1, np.eye(2))
        object.__setattr__(lam, "value", x)  # past the DualVariable's own check
        return lam

    return {
        "BandData": (band.blocks, lambda x: BandData(1, 1, x)),
        "BlockCirculant": (band.blocks, lambda x: BlockCirculant(1, 2, x)),
        "DualVariable": (np.eye(2), lambda x: DualVariable(1, 1, x)),
        "project_band_gram.band": (start, lambda x: project_band_gram(x, 1, 1, 4)),
        "project_band_gram.matrix": (np.eye(2), lambda x: project_band_gram(x, 1, 1, 4)),
        # it reads only the dual's value, which a DualVariable has checked
        "dual_gradient": (np.eye(2), lambda x: dual_gradient(dual(x), band, 4)),
        "_objective": (start, lambda x: _objective(x, D, 1, 1, 4)),
        "circulant_average": (np.eye(2), lambda x: circulant_average(x, 1)),
        "band_from_ar.coeffs": (coeffs, lambda x: band_from_ar(x, innovation)),
        "band_from_ar.innovation": (innovation, lambda x: band_from_ar(coeffs, x)),
        "phi_inverse_coeffs.coeffs": (coeffs, lambda x: phi_inverse_coeffs(x, innovation)),
        "phi_inverse_coeffs.innovation": (innovation, lambda x: phi_inverse_coeffs(coeffs, x)),
        "verify_solution.K": (result.K, lambda x: verify_solution(replace(result, K=x), band)),
    }


@pytest.mark.parametrize("entry", sorted(_array_entries()))
def test_array_rule_has_one_owner(entry):
    # one blockcirc function converts every array a caller passes in; these
    # inputs raised ValueError, IndexError, AttributeError or ComplexWarning,
    # or lost their imaginary part, a bool array was read as 0 and 1, and
    # numpy reads a bool among numbers as a number
    legal, call = _array_entries()[entry]
    refused = {
        "bool": legal != 0,
        "bool lists": (legal != 0).tolist(),
        "a bool among numbers": np.array([*legal.ravel()[:-1].tolist(), True], object).reshape(legal.shape).tolist(),
        "ragged": [legal.tolist(), 0.0],
        "strings": legal.astype(str).tolist(),  # numeric strings, which numpy would read
        "complex": legal * (1 + 1j),
        "1-D": legal.ravel(),
        "wrong length": np.concatenate([legal, legal[..., :1]], axis=-1),
    }
    for bad in refused.values():
        with pytest.raises(BadInput):
            call(bad)
    assert call(legal) is not None
    assert call(legal.tolist()) is not None


def _type_entries():
    """Every public entry that takes a record, beside ``solve`` and
    ``verify_solution``, as a call with a wrong type in its place; each
    raised AttributeError."""
    band = BandData(1, 1, np.array([1.0, 0.3]).reshape(2, 1, 1))
    return {
        "extend_covariances": lambda: extend_covariances(None, 3),
        "circulant_approx": lambda: circulant_approx("x", 8),
        "solve_yule_walker": lambda: solve_yule_walker(None),
        "ips_solve": lambda: ips_solve(None, 8),
        "sk1_solve": lambda: sk1_solve(None, 8),
        "init_lambda": lambda: init_lambda(None, 8),
        "dual_gradient": lambda: dual_gradient(None, band, 8),
        "eig_affine_forms": lambda: eig_affine_forms(None, 8),
        "circ_inverse": lambda: circ_inverse(None),
        "circ_logdet": lambda: circ_logdet("x"),
        "leading_inverse_band": lambda: leading_inverse_band(None, 1),
    }


@pytest.mark.parametrize("entry", sorted(_type_entries()))
def test_type_rule_has_one_owner(entry):
    # blockcirc._check_type refuses a record of the wrong type at every entry
    with pytest.raises(BadInput, match="is not a "):
        _type_entries()[entry]()


def _option_entries():
    """Every string option, as (a legal value, call of it), on the scalar
    band (1, 0.3) at N = 8."""
    band = BandData(1, 1, np.array([1.0, 0.3]).reshape(2, 1, 1))
    return {
        "solve.init": ("identity", lambda x: solve(band, 8, init=x, method="newton")),
        "solve.method": ("newton", lambda x: solve(band, 8, method=x)),
        "init_lambda.mode": ("identity", lambda x: init_lambda(band, 8, mode=x)),
    }


@pytest.mark.parametrize("entry", sorted(_option_entries()))
def test_option_rule_has_one_owner(entry):
    # blockcirc._option compares only strings: an array was compared with
    # == and in, elementwise, and escaped as ValueError ("the truth value
    # of an array ... is ambiguous")
    legal, call = _option_entries()[entry]
    for bad in (np.ones((2, 2)), np.array([legal, legal]), [legal], None, 1, legal.encode(), "bfgs"):
        with pytest.raises(BadInput, match="unknown "):
            call(bad)
    assert call(legal) is not None
    assert call(np.str_(legal)) is not None


def test_negative_bandwidth_is_bad_input():
    # n = -1 gave 8 empty cliques and a zero circulant
    with pytest.raises(BadInput):
        band_cliques(8, -1, 1)
    with pytest.raises(BadInput):
        project_band_gram(np.zeros((0, 1, 1)), 1, -1, 8)
    with pytest.raises(BadInput):
        PatternGraph.banded(1, -1, 8)


def _completions():
    """Every way the package returns a completion, as (name, call of N)
    on a feasible (2, 2) band; N = 6 is 2n + 2."""
    band = random_feasible_band(2, 2, 9, np.random.default_rng(44))
    spd = {N: random_spd_circulant(2, N, np.random.default_rng(N)) for N in (6, 9, 10)}
    # white noise: its extended lags are -0.0, which the mirror must keep
    white = BandData(2, 2, np.stack([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))]))
    return {
        "newton": lambda N: solve(band, N, method="newton").sigma,
        "gd": lambda N: solve(band, N, method="gd").sigma,
        "circ_inverse": lambda N: circ_inverse(spd[N]),
        "ips": lambda N: circulant_average(ips_solve(band, N).sigma, 2),
        "sk1": lambda N: circulant_average(sk1_solve(band, N).sigma, 2),
        "extend": lambda N: circulant_approx(band, N),
        "extend_white": lambda N: circulant_approx(white, N),
    }


@pytest.mark.parametrize("entry", sorted(_completions()))
def test_every_completion_is_mirrored(entry):
    # a symmetric block-circulant has row[N-d] = row[d]^T; the package's
    # rows hold it to the bit (the solve's inverse FFT left none of the
    # mirror pairs of a (10, 2, 2048) completion bit-equal)
    call = _completions()[entry]
    for N in (6, 9, 10):
        assert is_mirrored(call(N).first_row), N
