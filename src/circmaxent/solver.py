"""Descent on the reduced dual of the circulant completion problem.

The maximum-entropy completion of a banded symmetric block-circulant
covariance is recovered from a dual variable: one symmetric matrix Lambda of
(n+1) x (n+1) blocks whose circulant band projection must stay positive
definite.  The dual objective is

    Tr(Lambda T_n) - log det project_band_gram(Lambda, N),

a convex function on that open domain.  It depends on Lambda only through
its block-diagonal sums, which are N times the band K_0..K_n of the
projection (the circulant precision, the bilateral AR model of the
completion), and it is strictly convex in K, so the minimizing band, and
with it the completion, is unique.  ``solve`` starts from a band and
iterates on K, an (n+1, m, m) array, and returns the final band as ``K``.
A full Lambda is read only by ``dual_gradient`` and built only by
``init_lambda``.

The data's scale has one owner: ``solve`` divides the band by c = 4^k,
which puts its largest |entry| in [0.5, 2) (``_scale_exponent``), iterates
on those O(1) numbers, and at exit maps K by 1/c, the completion by c, the
Cholesky factors of K's frequency blocks by 2^-k and f by + 2k mN log 2.
Products with powers of 2 are exact, and so is the square root of 4^k,
so a band scaled by 4^j is solved in the same steps to K / 4^j and
sigma 4^j to the bit.  No helper below rescales for the data's scale.

One loop takes one of two steps, and one rule sets the length of both:
f is self-concordant, so ``_certified_length`` bounds the change of f
along a step from one spectrum of it and takes a length that passes the
Armijo test in exact arithmetic and stays inside the domain.  No
difference of f is read, and the trial's Cholesky is the only test.
``method="gd"``, the default, is the paper's gradient descent, steepest
descent in a fixed metric (Boyd & Vandenberghe, *Convex Optimization*,
9.4.1): the lag-0 block V0 of the Hessian at the first point GD steps
from (``_gd_metric``), so the step on K_d is N V0^-1 vec(G_d).  It stops
when the Sigma_0-whitened gradient norm ||L^-1 G_d L^-T||, Sigma_0 = L L^T,
reaches ``eta``, so its steps and stop do not change under a block
congruence of the data in exact arithmetic, nor in floating point up to
condition 1e4, where the mapped data's own rounding, about cond^2 eps,
moves the completion.  ``method="newton"`` is damped Newton on the
p = m(m+1)/2 + n m^2 band entries, its Hessian assembled in the lag domain
from the gradient's inverse frequency blocks in O(n m^4 N) and factored
by Cholesky.  It takes the certified length capped at 1 and stops on its
affine-invariant squared decrement, or, with no Hessian, on an upper
bound of it read off the gradient and the factors the iterate has
(``_decrement_bound``, O(m^2 N)), so a long-period toeplitz start,
optimal to rounding, costs what GD's does.

The completion is the inverse of the projection, so its own inverse is
banded block-circulant by construction and the band constraint holds at the
level of the final gradient norm.  Each point the loop visits is evaluated
once: ``_objective`` forms the floor(N/2)+1 frequency blocks
Psi_0..Psi_{N/2} straight from the n+1 band blocks through a cached phase
table, factors them with one batched Cholesky for the log-determinant, and
returns the blocks and their factors with the objective and its linear term
Tr(K D).  At an accepted point the gradient inverts those same blocks and
reads the n+1 inverse lags back through the conjugate table, and the
Newton step and the certified length reuse the inverse blocks, the length
with one more spectrum, of the step; a rejected trial costs one spectrum
and one Cholesky.  That is O(m^3 N + m^2 n N) per gradient step with no
FFT, and O(m^4 N + m^6) once for GD's metric; one real inverse FFT builds
the completion at exit, and ``blockcirc._mirror`` makes its first row
exactly that of a symmetric matrix, row[N-d] = row[d]^T.
``verify_solution`` checks a result against the band it returns, with the
Cholesky factors of K's frequency blocks from the solve's last evaluation:
one real FFT of the completion and two batched block products,
O(m^2 N log N + m^3 N) with no inverse (any other result costs one
spectrum and one Cholesky of K more).  No mN x mN dense matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, Optional

import numpy as np

from .blockcirc import (
    BandData,
    BlockCirculant,
    _array,
    _band_lags,
    _band_norm,
    _band_spectrum,
    _block_toeplitz,
    _check_sizes,
    _check_type,
    _cholesky_blocks,
    _count,
    _dual_band,
    _factored,
    _half_logdet,
    _half_weights,
    _mirror,
    _option,
    _phase_tables,
    _sym,
    _tolerance,
)
from .errors import BadInput, NotPositiveDefinite
from .toeplitz import phi_inverse_coeffs, solve_yule_walker

LOG_2PI = float(np.log(2.0 * np.pi))
# Armijo sufficient-decrease fraction and backtracking factor.
_ALPHA = 0.3
_BETA = 0.5
# Tr(K D) < this |N tr(K_0 Sigma_0)| ends a solve (see ``solve``): every whitened
# completion then has condition number > 1e8 ~ 1/sqrt(eps), half its digits lost.
# No division, so a Sigma_0 that is not PD is "infeasible" only on Tr(K D) < 0.
_DELTA_TOL = 1e-8
# Newton stops when half its squared decrement, a bound on f - f* near the
# optimum, falls to this.
_DECREMENT_TOL = 1e-20
# At a squared Newton decrement below ((1 - 2 alpha) / 4)^2, lambda <= 0.1,
# the certified length (``_certified_length``) is 1, since r <= lambda, and
# the decrement falls quadratically (Boyd & Vandenberghe 9.6.4): there a
# decrement that stops falling is at its rounding floor.
_FULL_STEP = ((1.0 - 2.0 * _ALPHA) / 4.0) ** 2


@dataclass(frozen=True)
class DualVariable:
    """Symmetric dual matrix of (n+1) x (n+1) blocks of size m."""

    m: int
    n: int
    value: np.ndarray

    def __post_init__(self):
        _check_sizes(self.m, self.n)
        object.__setattr__(self, "value", _sym(_array(self.value, "dual matrix", ((self.n + 1) * self.m,) * 2)))


@dataclass(frozen=True)
class SolverConfig:
    """Descent parameters.

    ``eta`` is gradient descent's stop on the Frobenius norm of the
    whitened gradient, ||L^-1 G_d L^-T|| in the weights of T_n, with
    Sigma_0 = L L^T (a cheap equivalent of the spectral norm up to
    dimension constants), and 1e-8 * ||L^-1 T_n L^-T||_F at solve time when
    None: both read the same at any scale or block congruence of the data.
    Where Sigma_0 is not PD there is no completion to whiten by, and L = I
    on the band ``solve`` normalizes.  Newton does not read it.  No step
    length is a parameter (see ``_certified_length``).  An ``eta`` that
    breaks the tolerance rule (``blockcirc._tolerance``: a real number in
    [0, inf)), a ``max_iter`` that is not a count >= 0
    (``blockcirc._count``) and a ``trace`` with no ``write`` method raise
    BadInput; ``eta = 0`` and ``max_iter = 0`` are legal.
    """

    eta: Optional[float] = None
    max_iter: int = 1_000_000
    trace: Optional[IO[str]] = None

    def __post_init__(self):
        _count(self.max_iter, "max_iter")
        if self.eta is not None:
            _tolerance(self.eta, "eta")
        if self.trace is not None and not callable(getattr(self.trace, "write", None)):
            raise BadInput(f"trace {self.trace!r} has no write method")


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one dual descent run.

    ``status`` is one of "converged", "max_iter", "infeasible" or "boundary"
    (K certifies that no completion exists, or that every whitened one is
    singular to within 1e-8; see ``solve``) or "stalled" (progress fell
    below rounding, or the Newton system was singular or not finite), and
    ``converged`` reads it: it is no field, so no record can disagree.
    ``K`` is the final iterate, the precision band K_0..K_n (n+1, m, m),
    and ``sigma`` the completion it implies, the inverse of K's banded
    block-circulant C(K).  ``final_grad_norm`` is the whitened gradient
    norm at K under both methods (see ``SolverConfig.eta``), as is the
    trace's ``grad_norm``.  ``objective`` is the dual objective f at K; a
    ``SolverConfig.trace`` sink receives f at every iterate, and as
    ``step`` the length of the step that reached it: its certified length,
    which for GD can exceed 1.  ``line_search_backtracks_total`` counts
    the halvings of a step after a trial fails the PD test, which the
    certified length rules out in exact arithmetic.  The record is frozen,
    and a solve's own result carries the Cholesky factors of K's frequency
    blocks, which ``verify_solution`` reuses while ``K`` is read-only: not
    after ``copy.deepcopy`` or ``dataclasses.replace``.  K, sigma, f and the
    factors are mapped back to the data's units (see the module docstring).  A
    solve's ``K`` is over an immutable buffer, so ``K.setflags(write=True)``
    raises ValueError: the factors stay those of its entries.
    """

    K: np.ndarray
    sigma: BlockCirculant
    iterations: int
    final_grad_norm: float
    objective: float
    line_search_backtracks_total: int = 0
    status: str = ""
    init_mode: str = ""
    # the Cholesky factors of K's floor(N/2)+1 frequency blocks, set by solve
    _factors: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass(frozen=True)
class SolutionReport:
    """Residuals of a candidate completion against the given band.

    ``dempster_residual`` is max_l ||L_l^H S_l L_l - I||_F for a
    SolverResult, checked against its precision band, where a value below 1
    certifies the completion positive definite, and the largest off-band
    block of the inverse, relative to its diagonal block, for a bare
    BlockCirculant (see ``verify_solution``).
    """

    band_residual: float
    dempster_residual: float
    entropy: float


def dual_gradient(lam: DualVariable, band: BandData, N: int) -> np.ndarray:
    """Gradient T_n - E^T (projection)^{-1} E of the dual objective: the
    block-Toeplitz matrix of the band gradient at Lambda's band.

    Raises
    ------
    NotPositiveDefinite
        If the iterate is outside the dual domain.
    """
    _check_type(lam, DualVariable, "dual")
    _check_type(band, BandData, "band")
    psi = _band_spectrum(_dual_band(lam.value, band.m, band.n, N), N)
    _cholesky_blocks(psi, "dual_gradient")
    return _block_toeplitz(_gradient(psi, np.swapaxes(band.blocks, 1, 2), N)[0])


def _objective(value: np.ndarray, T: np.ndarray, m: int, n: int, N: int, parts: bool = False):
    """The dual objective at a full Lambda with T = T_n, or at a band K with
    T = the weighted data band D (see ``solve``): vdot(value, T) is
    Tr(Lambda T_n) in either form.  A full Lambda is reduced to its band
    first; the log-determinant comes from the Cholesky factors of the band's
    floor(N/2)+1 frequency blocks.  +inf outside the dual domain.

    With ``parts`` it returns (f, psi, chol, lin): the objective, the
    frequency blocks it factored and their Cholesky factors (both None
    outside the domain) and the linear term Tr(Lambda T_n).  The gradient
    inverts the blocks, ``verify_solution`` reuses the factors of the point
    a solve returns, and the boundary test reuses the linear term, so that
    each point is evaluated once."""
    K = _dual_band(value, m, n, N)
    # T is finite, so a non-finite entry of value makes lin NaN or infinite
    # (0 * inf is NaN): lin doubles as the finiteness test of K
    f, psi, chol, lin = math.inf, None, None, float(np.vdot(value, T))
    if math.isfinite(lin):
        psi = _band_spectrum(K, N)
        try:
            chol = _cholesky_blocks(psi, "objective")
        except NotPositiveDefinite:
            psi = None
        else:
            f = lin - _half_logdet(chol, N)
    return (f, psi, chol, lin) if parts else f


def _gradient(psi: np.ndarray, data: np.ndarray, N: int):
    """Band gradient G_d = Sigma_d^T - sigma_d at a band inside the dual
    domain, from its frequency blocks ``psi`` (``data`` holds the
    Sigma_d^T), and the frequency blocks Psi_0..Psi_{N/2} of the completion
    sigma, the inverse of the band's circulant, that the lags sigma_d were
    read off; their ``np.fft.irfft`` of length N is sigma's first row.  G_d
    is block (i, i+d) of the gradient in Lambda."""
    inv = np.linalg.inv(psi)
    G = data - _band_lags(inv, len(data) - 1, N)
    G[0] = _sym(G[0])
    return G, inv


def _hessian_lags(inv: np.ndarray, n: int, N: int) -> np.ndarray:
    """Blocks V_0..V_2n (2n+1, m^2, m^2) of the Hessian of -log det C(K) in
    the two-sided band lags, from the inverse frequency blocks
    G_l = Psi_l^{-1} (``inv``, (h+1, m, m)):

        V_s = sum_{l=0}^{N-1} exp(+2j pi l s / N) conj(G_l) (x) G_l,

    real since G_{N-l} = conj(G_l).  The second derivative along a band
    direction E is sum_{j,k} vec(E_j) . V_{k-j} vec(E_k) over lags
    j, k = -n..n, with E_{-d} = E_d^T, V_{-s} = V_s^T and row-major vec.
    One real product of a (2n+1) m^2 x 2(h+1) and a 2(h+1) x m^2 matrix:
    O(n m^4 N) time and O(n m^2 N) memory, with no per-unknown frequency
    blocks."""
    h1, m = inv.shape[0], inv.shape[1]
    At = np.ascontiguousarray(inv.reshape(h1, m * m).T.conj())  # conj(G_l)[a, c] at [(a, c), l]
    left = (N * _phase_tables(2 * n, N)[1])[:, None, :] * At  # (2n+1, m^2, h+1)
    # Re(x y) = [Re x, Im x] . [Re y, -Im y], read off the interleaved float views
    M = left.view(float).reshape(-1, 2 * h1) @ At.view(float).T
    # M[s] is indexed ((a, c), (b, e)) for conj(G)[a, c] G[b, e]
    return M.reshape(2 * n + 1, m, m, m, m).transpose(0, 1, 3, 2, 4).reshape(2 * n + 1, m * m, m * m)


def _gd_metric(inv: np.ndarray, N: int) -> Optional[np.ndarray]:
    """GD's metric at the point with inverse frequency blocks ``inv``: the
    lag-0 block V0 = sum_l conj(inv_l) (x) inv_l of the Hessian
    (``_hessian_lags``), the curvature of f along one lag, as the m^2 x m^2
    P = N V0^-1.  P = N Li^T Li with Li = L^-1, V0 = L L^T by the PD test,
    so vec(G) . P vec(G) >= 0 however ill-conditioned V0 is, which a
    computed inverse of V0 does not ensure past condition 1/eps; V0 is
    symmetrized first, as near that condition the rounding of its computed
    triangles decides the test.  None where V0 fails it."""
    try:
        Li = np.linalg.inv(_cholesky_blocks(_sym(_hessian_lags(inv, 0, N)[0]), "GD metric"))
    except NotPositiveDefinite:
        return None
    return N * (Li.T @ Li)


def _gd_step(G: np.ndarray, P: np.ndarray) -> np.ndarray:
    """GD's step on the band at a point with band gradient G: S_d =
    N V0^-1 vec(G_d), one product of the n+1 row-major vecs with the metric
    P of ``_gd_metric``.  It is the Newton step with the Hessian's lag-0
    blocks alone, as the gradient of f is N G_0 on K_0 and 2 N G_d on K_d,
    whose curvature is 2 V0 (block Jacobi), and a Hessian frozen where GD
    starts to step."""
    step = (G.reshape(len(G), -1) @ P).reshape(G.shape)
    step[0] = _sym(step[0])
    return step


def _certified_length(G: np.ndarray, step: np.ndarray, inv: np.ndarray, N: int, cap: float) -> tuple:
    """The slope and the certified length (slope, t) of a descent step S on
    the band, GD's or Newton's, at a point with band gradient G and inverse
    frequency blocks ``inv``, with t at most ``cap``: 1 for Newton, inf for
    GD.

    slope = -N (<G_0, S_0> + 2 sum_{d>=1} <G_d, S_d>) is the derivative of
    f(K - t S) at t = 0.  Along that line, exactly,

        f(K - t S) - f(K) = t slope + sum_l w_l sum_i psi(t mu_li),

    psi(x) = -log(1 - x) - x, with mu_li the eigenvalues of
    L_l^-1 Psi_l(S) L_l^-H over the frequency blocks Psi_l = L_l L_l^H of K
    and their multiplicities w_l.  f is self-concordant (Boyd & Vandenberghe,
    *Convex Optimization*, 9.6; Nesterov, *Introductory Lectures*, 4.1):
    psi(x) <= x^2 / (2 (1 - |x|)) for |x| < 1, and with
    q = sum_l w_l tr((Psi_l^-1 Psi_l(S))^2) = sum w mu^2 and
    r = max_l sqrt(tr((Psi_l^-1 Psi_l(S))^2)) >= max |mu| the length
    t = c / (q + c r), c = 2 (1 - _ALPHA) |slope|, passes the Armijo test
    f(K - t S) <= f(K) + _ALPHA t slope in exact arithmetic and keeps
    t max mu < 1, inside the domain.  No difference of f is read, so the
    test holds at every scale of f, and so does any shorter length.  For
    Newton's step q = lambda^2 = -slope and r <= lambda, so t >= 1 where
    lambda <= 2/7.  One spectrum of S and one batched product with ``inv``:
    O(m^3 N + m^2 n N)."""
    slope = -N * (2.0 * float(np.vdot(G, step)) - float(np.vdot(G[0], step[0])))
    X = inv @ _band_spectrum(step, N)
    tr = np.einsum("lij,lji->l", X, X).real  # tr(X_l^2) = sum_i mu_li^2 >= 0
    c = 2.0 * (1.0 - _ALPHA) * abs(slope)
    t = c / (float(_half_weights(N) @ tr) + c * math.sqrt(max(float(tr.max()), 0.0)))
    return slope, min(t, cap)  # a NaN t stays NaN: min keeps its first argument


@lru_cache(maxsize=64)
def _newton_coords(m: int, n: int) -> tuple:
    """Index tables for the p = m(m+1)/2 + n m^2 Newton unknowns, K_0's
    upper triangle and then K_1..K_n.

    In the flattened two-sided lags (E_-n, ..., E_n), E_-d = E_d^T, unknown
    i sits at i1[i] and at its mirror i2[i], with weight c[i] = 1/2 on K_0's
    diagonal, where the two coincide, and 1 elsewhere.  ``hidx`` (4, p, p)
    locates the lag Hessian's entries at (i1, i1), (i1, i2), (i2, i1) and
    (i2, i2) in the flattened ``_hessian_lags`` stack: block (k, j) of that
    Hessian is V_{j-k}, and V_{k-j}^T below the diagonal.
    """
    P = m * m
    idx = np.arange((2 * n + 1) * P).reshape(2 * n + 1, m, m)
    upper = np.triu_indices(m)
    i1 = np.concatenate([idx[n][upper], idx[n + 1:].ravel()])
    i2 = np.concatenate([idx[n].T[upper], idx[:n][::-1].swapaxes(1, 2).ravel()])
    c = np.where(i1 == i2, 0.5, 1.0)
    # the Hessian's block layout, with the flat position of each entry
    flat = _block_toeplitz(np.arange((2 * n + 1) * P * P).reshape(2 * n + 1, P, P))
    hidx = np.stack([flat[np.ix_(a, b)] for a in (i1, i2) for b in (i1, i2)])
    for arr in (i1, i2, c, hidx):
        arr.setflags(write=False)
    return i1, i2, c, hidx


def _decrement_bound(G: np.ndarray, inv: np.ndarray, chol: np.ndarray, N: int) -> float:
    """An upper bound on the squared Newton decrement g . H^{-1} g of
    ``_newton_step`` at a point with band gradient G, inverse frequency
    blocks ``inv`` and Cholesky factors ``chol`` of its frequency blocks
    Psi_l, with no Hessian: g . H^{-1} g <= |g|^2 / lambda_min(H).

    Along a band direction E with lags E_-n..E_n, H's quadratic form is
    sum_l tr(Psi_l^-1 E_l Psi_l^-1 E_l) >= sum_l ||E_l||^2 / lambda_max(Psi_l)^2
    over all N frequencies, and by Parseval over the 2n+1 distinct lags
    (N >= 2n+2) sum_l ||E_l||^2 = N sum_d ||E_d||^2 >= N |x|^2 for the
    Newton unknowns x.  So lambda_min(H) >= N / max_l lambda_max(Psi_l)^2,
    and lambda_max(Psi_l) <= tr Psi_l = ||L_l||_F^2.  In the unknowns,
    |g|^2 = N^2 (4 sum_{d>0} ||G_d||^2 + 2 ||G_0||^2 - sum_a (G_0)_aa^2).
    ``solve`` calls it on its normalized band, where no square under- or
    overflows: on raw data at scale 1e-150, |G|^2 near the optimum
    underflows to 0 and would certify any point."""
    d0 = np.diagonal(G[0])
    g2 = 4.0 * float(np.vdot(G[1:], G[1:])) + 2.0 * float(np.vdot(G[0], G[0])) - float(d0 @ d0)
    r = chol.reshape(len(chol), -1).view(float)  # real and imaginary parts
    top = float(np.einsum("lk,lk->l", r, r).max())  # max_l tr Psi_l
    return N * g2 * top * top


def _newton_step(G: np.ndarray, inv: np.ndarray, N: int) -> tuple:
    """Newton step on the band at a point with band gradient G and inverse
    frequency blocks ``inv`` (see ``_gradient``): the band H^{-1} g, with g
    and H the gradient and Hessian of the objective in the band unknowns,
    and the squared Newton decrement g . H^{-1} g.  The Hessian is
    assembled in the lag domain (``_hessian_lags``), symmetrized, as its
    computed triangles differ by rounding, and factored by the PD test
    ``_cholesky_blocks``; a system that fails it gives (None, nan).
    ``solve`` calls it only where ``_decrement_bound`` cannot certify the
    point optimal.

    The system is solved for inv / s, s = max|inv|, as H / s^2 and g / s.
    In exact arithmetic that changes nothing on the band ``solve``
    normalizes; it stays for its rounding, without which the boundary band
    (I, diag(cos 6pi/7, 0.3)) at N = 7 ends "stalled" at delta 2.9e-8, not
    "boundary"."""
    n, m = len(G) - 1, G.shape[1]
    i1, i2, c, hidx = _newton_coords(m, n)
    s = float(np.abs(inv).max())
    H = _sym(c[:, None] * _hessian_lags(inv / s, n, N).ravel()[hidx].sum(axis=0) * c)
    # the gradient in the two-sided lags is N G_d at lag d and N G_d^T at -d
    g2 = (N / s) * np.concatenate([np.swapaxes(G[:0:-1], 1, 2), G]).reshape(-1)
    g = c * (g2[i1] + g2[i2])
    try:
        L = _cholesky_blocks(H, "Newton system")
    except NotPositiveDefinite:
        return None, math.nan
    y = np.linalg.solve(L, g)
    x = np.linalg.solve(L.T, y) / s
    step = np.zeros(len(g2))
    step[i1] += c * x
    step[i2] += c * x
    lam2 = float(y @ y) if np.isfinite(x).all() else math.nan
    return step[n * m * m:].reshape(n + 1, m, m), lam2


def _lift(K: np.ndarray, N: int) -> DualVariable:
    """The block-Toeplitz dual with band projection K: block (i, i+d) is
    (N / (n+1-d)) * K_d."""
    w = np.arange(len(K), 0, -1.0)[:, None, None]
    return DualVariable(K.shape[1], len(K) - 1, _block_toeplitz((N / w) * K))


def _scale_exponent(x: np.ndarray) -> int:
    """The k = e // 2, e the ``math.frexp`` exponent of max|x|, for which
    x / 4^k has its largest |entry| in [0.5, 2); 0 there already.  Division
    by a power of the radix is exact (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2.1)."""
    return math.frexp(float(np.abs(x).max()))[1] // 2


def _start(band: BandData, N: int, mode: str) -> np.ndarray:
    """Starting band K_0..K_n for ``solve``.

    "identity" is ((n+1)/(N c)) I, 0, ..., 0, c = 4^k the band's scale
    (``_scale_exponent``): the band of the identity Lambda of the band
    divided by c, in the domain and at the data's unit.  "toeplitz" is the
    Laurent coefficients of the band extension's inverse spectral density,
    K_d = M_d^T, the limit the optimal band approaches as N grows; it
    raises NotPositiveDefinite when the band's block-Toeplitz matrix is not
    positive definite.  Membership in the dual domain is not checked here;
    ``solve`` checks its start.
    """
    m, n = band.m, band.n
    _check_sizes(m, n, N)
    if _option(mode, ("identity", "toeplitz"), "init mode") == "toeplitz":
        return np.swapaxes(phi_inverse_coeffs(*solve_yule_walker(band)), 1, 2)
    K = np.zeros((n + 1, m, m))
    K[0] = np.ldexp((n + 1) / N, -2 * _scale_exponent(band.blocks)) * np.eye(m)
    return K


def init_lambda(band: BandData, N: int, mode: str = "toeplitz") -> DualVariable:
    """Starting dual variable: the block-Toeplitz Lambda whose band
    projection is ``solve``'s start band for ``mode`` ("identity" or
    "toeplitz"); block (i, i+d) is (N / (n+1-d)) * K_d.  For "identity" that
    is I / c up to rounding, c = 4^k the band's scale (see ``_start``), the
    start from which ``solve`` also restarts.  Unlike ``solve``, it does not
    fall back: "toeplitz" raises NotPositiveDefinite when the band's
    block-Toeplitz matrix is not positive definite."""
    _check_type(band, BandData, "band")
    return _lift(_start(band, N, mode), N)


def solve(
    band: BandData,
    N: int,
    config: Optional[SolverConfig] = None,
    init: str = "toeplitz",
    method: str = "gd",
) -> SolverResult:
    """Minimize the dual objective by descent from the band ``init``,
    "toeplitz" or "identity" (see ``_start``).

    ``method="gd"`` steps along N V0^-1 vec(G_d) (``_gd_metric``, built
    once the start has failed the stop test) and stops when the
    Sigma_0-whitened gradient norm drops to ``eta`` (see SolverConfig).
    ``method="newton"`` takes the Newton step, capped at 1, and stops when
    half the squared decrement drops to 1e-20, when the decrement stops
    falling in the full-step regime, where rounding sets its floor, or,
    before any Hessian is built, when half of ``_decrement_bound`` does;
    it does not read ``eta``.  Both take ``_certified_length``.  A trial
    that fails the PD test, which that length rules out in exact
    arithmetic, halves the step, and a step below 1e-18 or not finite ends
    the solve "stalled".  Returns the final band ``K``, immutable (see
    SolverResult), and the completion ``sigma``, the inverse of C(K): its
    inverse is banded by construction, its band matches the data to a
    tolerance tied to the stop, and its first row is mirrored exactly.

    A result is always returned; non-convergence is flagged in ``status``
    (see SolverResult), and "converged" requires a finite stopping value.
    C(K) is PD at every iterate, so delta = Tr(K D) / |N tr(K_0 Sigma_0)|
    bounds from above the smallest eigenvalue of every completion whitened
    by Sigma_0 (weak duality), at any scale or block congruence of the
    data.  At the start and each accepted iterate, delta < -1e-8 ends the
    solve "infeasible" and any other delta < 1e-8 "boundary", with K the
    certificate.  GD in practice never gets there: on (1, cos 6pi/7) at
    N = 7 and four other boundary bands it ends "max_iter" after 20,000
    steps with delta still 0.003-0.02, so use newton where the data may
    lie on the boundary.

    When the toeplitz start cannot be formed (the band's block-Toeplitz
    matrix is not PD) or lies outside the domain, or a toeplitz run at any
    iterate finds no descent step (a singular Newton system, a GD metric
    that fails the PD test, a slope not downhill), the solve restarts, once,
    from the identity, which always lies inside, and reports "identity
    (fallback from toeplitz)" as its ``init_mode``.  ``iterations`` and
    ``max_iter`` count the whole solve, so the restart's trace row repeats
    the iteration number at which it restarted.

    Raises BadInput if ``band`` is no BandData, ``config`` no SolverConfig,
    ``init`` or ``method`` not one of its strings (``blockcirc._option``),
    or N not a size for the band.
    """
    cfg = config if config is not None else SolverConfig()
    _check_type(band, BandData, "band")
    _check_type(cfg, SolverConfig, "config")
    newton = _option(method, ("gd", "newton"), "method") == "newton"
    m, n = band.m, band.n
    _check_sizes(m, n, N)
    # the one owner of the data's scale (see the module docstring)
    k = _scale_exponent(band.blocks)
    band = BandData(m, n, np.ldexp(band.blocks, -2 * k))
    shift = 2 * k * m * N * math.log(2.0)
    # Tr(Lambda T_n) = sum(K * D), since block d of T_n sits once on the
    # diagonal and twice off it.
    data = np.swapaxes(band.blocks, 1, 2)
    D = 2.0 * N * data
    D[0] *= 0.5
    # GD stops on the Sigma_0-whitened norm ||L^-1 G_d L^-T||, Sigma_0 =
    # L L^T, so its stop and the reported gradient norm do not change under
    # a block congruence of the data.  A Sigma_0 that is not PD has no
    # completion; there L = I.
    try:
        Li = np.linalg.inv(_cholesky_blocks(data[0], "Sigma_0"))
    except NotPositiveDefinite:
        Li = np.eye(m)
    eta = cfg.eta if cfg.eta is not None else 1e-8 * _band_norm(Li @ data @ Li.T)

    init_mode = init
    try:
        K = _start(band, N, init)
    except NotPositiveDefinite:  # the toeplitz start needs a PD block-Toeplitz matrix
        f = math.inf
    else:
        f, psi, chol, lin = _objective(K, D, m, n, N, parts=True)
    backtracks = 0
    iterations = 0
    status = None
    t = 0.0
    lam2_prev = math.inf
    metric = None  # GD's, from the first point it steps from

    if cfg.trace is not None:
        cfg.trace.write("iter,jbar,grad_norm,step\n")

    while True:
        if not math.isfinite(f):
            # only a toeplitz run gets here, from a start outside the domain
            # or from an iterate with no descent step: the identity is
            # always inside
            K = _start(band, N, "identity")
            init_mode = "identity (fallback from toeplitz)"
            f, psi, chol, lin = _objective(K, D, m, n, N, parts=True)
            metric = None
            lam2_prev = math.inf
        # K is accepted: keep its factors, drop its blocks once inverted
        G, inv = _gradient(psi, data, N)
        psi = None
        gnorm = _band_norm(Li @ G @ Li.T)
        if cfg.trace is not None:
            cfg.trace.write(f"{iterations},{f + shift!r},{gnorm!r},{t!r}\n")
        bound = _DELTA_TOL * abs(float(np.vdot(K[0], D[0])))
        if lin < bound:
            status = "boundary"
            if lin < -bound:
                status = "infeasible"
            break
        if newton:
            # the certificate: a decrement bound at the stop ends the solve
            # where the decrement would, with no Hessian built
            if _decrement_bound(G, inv, chol, N) / 2 <= _DECREMENT_TOL:
                break
            step, lam2 = _newton_step(G, inv, N)
            # The decrement is affine invariant, so its tolerances are
            # absolute.  In the full-step regime a decrement that stops
            # falling is at its rounding floor.
            if lam2 / 2 <= _DECREMENT_TOL or lam2_prev <= lam2 <= _FULL_STEP:
                break
            lam2_prev = lam2
        elif gnorm <= eta:
            break
        if iterations >= cfg.max_iter:
            status = "max_iter"
            break
        if not newton:
            if metric is None:
                metric = _gd_metric(inv, N)
            step = None if metric is None else _gd_step(G, metric)
        # One step rule for both methods: the certified length passes the
        # Armijo test in exact arithmetic, so a trial faces only the PD test.
        # A singular Newton system, a GD metric that fails the PD test or a
        # slope that is not finite or not downhill gives no descent step.
        slope, t = (math.nan, 0.0) if step is None else _certified_length(
            G, step, inv, N, 1.0 if newton else math.inf)
        if not slope <= 0:
            if init_mode == "toeplitz":
                f = math.inf  # restart from the identity
                continue
            status = "stalled"
            break
        trial = K - t * step
        f_new, psi, chol_new, lin = _objective(trial, D, m, n, N, parts=True)
        while not math.isfinite(f_new):
            t *= _BETA
            backtracks += 1
            if not t >= 1e-18:  # NaN too
                status = "stalled"
                break
            trial = K - t * step
            f_new, psi, chol_new, lin = _objective(trial, D, m, n, N, parts=True)
        if status is not None:
            break
        K, f, chol = trial, f_new, chol_new
        iterations += 1
    if status is None:
        status = "converged"

    row = np.fft.irfft(inv, n=N, axis=0)
    if k:  # back to the data's units: K / c, sigma c and the factors / 2^k
        np.ldexp(K, -2 * k, out=K)
        np.ldexp(row, 2 * k, out=row)
        np.ldexp(chol.view(float), -k, out=chol.view(float))
    result = SolverResult(
        K=np.frombuffer(K.tobytes()).reshape(K.shape),
        sigma=BlockCirculant(m, N, _mirror(row)),
        iterations=iterations,
        final_grad_norm=gnorm,
        objective=f + shift,
        line_search_backtracks_total=backtracks,
        status=status,
        init_mode=init_mode,
    )
    object.__setattr__(result, "_factors", chol)
    return result


def verify_solution(solution, band: BandData) -> SolutionReport:
    """Residual report for a completion.

    Accepts a SolverResult or a BlockCirculant (a baseline's dense iterate
    is projected onto circulants by ``circulant_average`` first).  Both get
    the relative band residual.

    A SolverResult is checked against the precision band K it returns,
    without factoring or inverting the completion: the batched Cholesky
    factors L_l of K's frequency blocks Psi_l are the PD test of K and give
    the entropy, 0.5 (mN (1 + log 2 pi) - log det C(K)), and the Dempster
    residual is max_l ||L_l^H S_l L_l - I||_F, with S_l the frequency
    blocks of the completion.  That is a congruence, so a residual below 1
    proves the completion's symmetric part positive definite, and one of 1
    or more raises NotPositiveDefinite.  The factors are those ``solve``
    computed, which a frozen result carries for its own K and N, while K
    is read-only, as a solve's own K always is; any other result (a
    ``copy.deepcopy``, one built by hand or by ``dataclasses.replace``) has
    K's blocks formed and factored here, to the same bits.  The completion
    always gets its own real FFT.

    A BlockCirculant is factored instead: its Dempster residual is the
    largest off-band block of its freshly computed inverse, relative to the
    inverse's diagonal block, and its entropy comes from the same
    factorization of its frequency blocks, which raises NotPositiveDefinite
    if it is not PD.

    Raises BadInput if ``solution`` is neither record, or carries no
    BlockCirculant, if ``band`` is no BandData, or if the block sizes of
    the completion, the band or K disagree, and BandTooWide if N < 2n + 2.
    """
    result = solution if isinstance(solution, SolverResult) else None
    sigma = solution.sigma if result is not None else solution
    _check_type(sigma, BlockCirculant, "completion")
    _check_type(band, BandData, "band")
    m, n, N = band.m, band.n, sigma.N
    _array(sigma.first_row, "completion", (N, m, m))
    _check_sizes(m, n, N)
    data = np.swapaxes(band.blocks, 1, 2)
    # both ratios are taken on arrays scaled to a largest |entry| of 1, so
    # their squared norms neither under- nor overflow at any data scale
    s = float(np.abs(data).max())
    band_res = _band_norm((sigma.first_row[: n + 1] - data) / s) / _band_norm(data / s)
    if result is None:
        head, logdet = _factored(sigma, "verify_solution")
        kinv = np.fft.irfft(np.linalg.inv(head), n=N, axis=0)  # first row
        kinv /= np.abs(kinv).max()
        off = kinv[n + 1: N - n]
        ref = float(np.linalg.norm(kinv[0]))
        dempster = float(np.linalg.norm(off, axis=(1, 2)).max() / ref)
    else:
        K = _array(result.K, "precision band", (n + 1, m, m))
        if result._factors is not None and not K.flags.writeable:
            chol = result._factors  # the solve's own factorization of K
        else:
            chol = _cholesky_blocks(_band_spectrum(K, N), "verify_solution")
        logdet = -_half_logdet(chol, N)
        # R is O(1) at any data scale; a completion far from K's inverse,
        # or not finite, reads inf or nan here and fails the test below
        with np.errstate(over="ignore", invalid="ignore"):
            R = np.conj(np.swapaxes(chol, 1, 2)) @ np.fft.rfft(sigma.first_row, axis=0) @ chol
            R[:, np.arange(m), np.arange(m)] -= 1.0
            r = R.reshape(len(R), -1).view(float)  # real and imaginary parts
            dempster = math.sqrt(float(np.einsum("lk,lk->l", r, r).max()))
        if not dempster < 1.0:
            raise NotPositiveDefinite(
                f"verify_solution: Dempster residual {dempster!r} is not below 1, "
                "so the completion is not shown to be positive definite")
    entropy = 0.5 * logdet + 0.5 * (m * N) * (1.0 + LOG_2PI)
    return SolutionReport(band_residual=band_res, dempster_residual=dempster, entropy=entropy)
