"""Iterative proportional scaling baselines on the banded circulant pattern.

Two classic coordinate-wise schemes for the maximum-determinant completion
of a partially specified covariance, specialized to the scalar index pattern
of a banded symmetric block-circulant: one cycles over the cliques of the
pattern graph adjusting the precision so clique marginals match the data
(IPS proper), the other cycles over the cliques of the complement graph
adjusting the covariance so the corresponding precision entries vanish.
Both operate on dense mN x mN matrices with one full factorization per
clique update; they serve as correctness oracles and performance foils for
the dual gradient solver, not as the fast path.  Which entries are given
is read off ``blockcirc._band_row``, the writer that embeds the band, so
the pattern graph and the off-pattern mask cannot disagree with the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blockcirc import (BandData, BlockCirculant, _band_row, _check_sizes, _check_type, _cholesky_blocks, _count,
                        _sym, _tolerance)
from .errors import NoConvergence, NotPositiveDefinite, RequiresFullR
from .toeplitz import circulant_approx


def _band_mask(m: int, n: int, N: int) -> np.ndarray:
    """Which entries of the mN x mN matrix a band of n+1 blocks of size m
    gives: the nonzero pattern of its banded block-circulant, written by the
    same ``_band_row`` that embeds the data.  Its diagonal is given."""
    _check_sizes(m, n, N)
    return BlockCirculant(m, N, _band_row(np.ones((n + 1, m, m)), N)).to_dense() != 0


@dataclass(frozen=True)
class PatternGraph:
    """Graph of the specified scalar entries, adjacency stored as bitmasks.

    Vertices are the scalar indices 0..mN-1; (u, v) is an edge when the
    circular distance between their block indices is at most n (u != v),
    that is when entry (u, v) is given (see ``_band_mask``).  The edge set
    is invariant under index shifts by m (mod mN).
    """

    m: int
    N: int
    adj: tuple  # per-vertex bitmask over vertices

    @classmethod
    def banded(cls, m: int, n: int, N: int) -> "PatternGraph":
        """The pattern graph of a band of n+1 blocks of size m at N blocks.

        Raises
        ------
        BandTooWide
            If N < 2n + 2, where the band and its mirror would overlap.
        """
        near = _band_mask(m, n, N) & ~np.eye(m * N, dtype=bool)
        rows = np.packbits(near, axis=1, bitorder="little")  # bit v of row u is entry (u, v)
        return cls(m, N, tuple(int.from_bytes(row.tobytes(), "little") for row in rows))

    @property
    def vertex_count(self) -> int:
        return self.m * self.N

    def complement_adjacency(self) -> tuple:
        full = (1 << self.vertex_count) - 1
        return tuple((full & ~a) & ~(1 << u) for u, a in enumerate(self.adj))


@dataclass(frozen=True)
class CliqueSet:
    """Vertex subsets inducing complete subgraphs; canonical sorted order."""

    cliques: tuple  # of sorted vertex tuples

    def __len__(self):
        return len(self.cliques)

    def max_size(self) -> int:
        return max(len(c) for c in self.cliques)

    def as_set(self) -> frozenset:
        return frozenset(self.cliques)


def _canonical(cliques) -> tuple:
    return tuple(sorted(tuple(sorted(c)) for c in cliques))


def band_cliques(N: int, n: int, m: int) -> CliqueSet:
    """The N band windows, the cliques of the banded circulant pattern
    graph that ``ips_solve`` cycles over.

    Each window is the scalar index window covering n+1 consecutive blocks
    {i, ..., i+n} (mod N), of size m(n+1).  The windows cover every given
    entry, and for N >= 3n+1 they are exactly the maximal cliques; for
    2n+2 <= N <= 3n there are more (at n = 2, N = 6 also the blocks
    {0, 2, 4}).
    """
    _check_sizes(m, n, N)
    windows = []
    for i in range(N):
        w = []
        for p in range(n + 1):
            b = (i + p) % N
            w.extend(range(b * m, (b + 1) * m))
        windows.append(tuple(w))
    return CliqueSet(_canonical(windows))


def bron_kerbosch(adj) -> CliqueSet:
    """All maximal cliques, each listed once (pivoting variant).

    ``adj`` is the sequence of per-vertex adjacency bitmasks, such as
    ``PatternGraph.adj`` or ``complement_adjacency()``.  Exponential worst
    case; intended for desk-size graphs.
    """
    adj = tuple(adj)
    nverts = len(adj)
    out = []

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def expand(r, p, x):
        if p == 0 and x == 0:
            out.append(tuple(bits(r)))
            return
        pivot = max(bits(p | x), key=lambda u: (p & adj[u]).bit_count())
        cand = p & ~adj[pivot]
        for v in bits(cand):
            vb = 1 << v
            expand(r | vb, p & adj[v], x & adj[v])
            p &= ~vb
            x |= vb

    expand(0, (1 << nverts) - 1, 0)
    return CliqueSet(_canonical(out))


@dataclass(frozen=True)
class ScalingResult:
    """Converged dense completion with its cycle count."""

    sigma: np.ndarray
    cycles: int


def ips_solve(band: BandData, N: int, tol: Optional[float] = None, max_cycles: int = 2000) -> ScalingResult:
    """Iterative proportional scaling over the band cliques.

    Starting from the identity precision, each step adds to the precision on
    the current clique the difference between the inverse of the target
    clique marginal and the inverse of the current one; the precision stays
    exactly zero off the banded circulant pattern throughout.  Cycles until
    every clique marginal matches the data to ``tol`` (None: 1e-9) in
    Frobenius norm.  ``tol`` follows the tolerance rule
    (``blockcirc._tolerance``) and ``max_cycles`` the count rule; a
    ``band`` that is no BandData is BadInput.

    Raises
    ------
    NoConvergence
        After ``max_cycles`` full cycles (infeasibility suspected).
    """
    _check_type(band, BandData, "band")
    _count(max_cycles, "max_cycles")
    tol = _tolerance(1e-9 if tol is None else tol, "tol")
    m, n = band.m, band.n
    cliques = [np.array(c) for c in band_cliques(N, n, m).cliques]
    given = band.embed_circulant(N).to_dense()
    # the given-entry submatrix on each window (a symmetric permutation of
    # the band's block-Toeplitz matrix, in the clique's index order)
    targets = [given[np.ix_(c, c)] for c in cliques]
    target_invs = [_sym(np.linalg.inv(t)) for t in targets]
    eye = np.eye(m * N)
    K = eye.copy()
    deviation = np.inf
    for cycle in range(1, max_cycles + 1):
        for c, tinv in zip(cliques, target_invs):
            marginal = np.linalg.solve(K, eye[:, c])[c]
            K[np.ix_(c, c)] += tinv - _sym(np.linalg.inv(_sym(marginal)))
        sigma = _sym(np.linalg.inv(K))
        deviation = max(
            np.linalg.norm(sigma[np.ix_(c, c)] - t) for c, t in zip(cliques, targets)
        )
        if deviation <= tol:
            return ScalingResult(sigma=sigma, cycles=cycle)
    raise NoConvergence(f"clique marginal deviation {deviation:.3e} > {tol:.3e} after {max_cycles} cycles")


def sk1_solve(band: BandData, N: int, tol: Optional[float] = None, max_cycles: int = 2000) -> ScalingResult:
    """Covariance-side scaling over the complement-graph cliques.

    Each step replaces the conditional covariance of the current complement
    clique (given the rest) by its diagonal, which zeroes the corresponding
    off-diagonal precision entries while leaving every specified entry of
    the covariance untouched.  Starts from the circulant approximant of the
    band extension, a completion that already agrees with the band, and
    stops when the off-pattern precision is below ``tol`` (None: 1e-9)
    relative to the whole.  The arguments follow ``ips_solve``'s rules.

    Raises
    ------
    RequiresFullR
        If that approximant is not positive definite at this N.
    NoConvergence
        After ``max_cycles`` cycles.
    """
    _check_type(band, BandData, "band")
    _count(max_cycles, "max_cycles")
    tol = _tolerance(1e-9 if tol is None else tol, "tol")
    m, n = band.m, band.n
    compl = [np.array(c) for c in bron_kerbosch(PatternGraph.banded(m, n, N).complement_adjacency()).cliques]
    sigma = circulant_approx(band, N).to_dense()
    try:
        _cholesky_blocks(sigma, "circulant approximant")
    except NotPositiveDefinite as exc:
        raise RequiresFullR("the circulant approximant is not a positive definite starting completion") from exc
    offband = ~_band_mask(m, n, N)  # the diagonal lies inside the band
    eye = np.eye(m * N)
    deviation = np.inf
    for cycle in range(1, max_cycles + 1):
        for c in compl:
            prec_c = np.linalg.solve(sigma, eye[:, c])[c]  # clique block of the precision
            cond_cov = _sym(np.linalg.inv(_sym(prec_c)))
            sigma[np.ix_(c, c)] += np.diag(np.diag(cond_cov)) - cond_cov
        K = np.linalg.inv(sigma)
        deviation = np.linalg.norm(K[offband]) / np.linalg.norm(K)
        if deviation <= tol:
            return ScalingResult(sigma=_sym(sigma), cycles=cycle)
    raise NoConvergence(f"off-pattern precision residual {deviation:.3e} > {tol:.3e} after {max_cycles} cycles")
