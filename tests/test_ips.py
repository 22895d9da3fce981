"""Pattern graph, clique enumeration, and the scaling baselines."""

import math
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circmaxent import (
    BadInput,
    NoConvergence,
    PatternGraph,
    RequiresFullR,
    band_cliques,
    bron_kerbosch,
    circulant_average,
    ips_solve,
    random_feasible_band,
    sk1_solve,
    solve,
    verify_solution,
)
from circmaxent.errors import BandTooWide
from helpers import scalar_band, white_noise_band


def to_networkx(adj):
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    for u in range(len(adj)):
        for v in range(u + 1, len(adj)):
            if adj[u] >> v & 1:
                g.add_edge(u, v)
    return g


class TestPatternGraph:
    def test_no_self_loops_and_symmetric(self):
        g = PatternGraph.banded(2, 1, 6)
        for u in range(g.vertex_count):
            assert not g.adj[u] >> u & 1
            for v in range(g.vertex_count):
                assert bool(g.adj[u] >> v & 1) == bool(g.adj[v] >> u & 1)

    def test_shift_invariance(self):
        m, n, N = 2, 1, 6
        g = PatternGraph.banded(m, n, N)
        total = m * N
        for u in range(total):
            for v in range(total):
                a = bool(g.adj[u] >> v & 1)
                b = bool(g.adj[(u + m) % total] >> ((v + m) % total) & 1)
                assert a == b

    def test_edges_follow_block_distance(self):
        m, n, N = 2, 2, 8
        g = PatternGraph.banded(m, n, N)
        for u in range(m * N):
            for v in range(m * N):
                if u == v:
                    continue
                bu, bv = u // m, v // m
                dist = min((bu - bv) % N, (bv - bu) % N)
                assert bool(g.adj[u] >> v & 1) == (dist <= n)

    def test_complement(self):
        g = PatternGraph.banded(1, 1, 6)
        comp = g.complement_adjacency()
        for u in range(6):
            assert (g.adj[u] | comp[u]) == ((1 << 6) - 1) & ~(1 << u)
            assert g.adj[u] & comp[u] == 0


@st.composite
def patterns(draw):
    """(m, n, N) with N at least 2n+2, the smallest size the band fits."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    return m, n, draw(st.integers(2 * n + 2, 20))


@settings(deadline=None)
@given(patterns())
def test_pattern_graph_properties(pattern):
    m, n, N = pattern
    g = PatternGraph.banded(m, n, N)
    comp = g.complement_adjacency()
    dim = m * N
    for u in range(dim):
        for v in range(dim):
            dist = min((u // m - v // m) % N, (v // m - u // m) % N)
            assert bool(g.adj[u] >> v & 1) == (u != v and dist <= n)
        # the graph and its complement split the off-diagonal pairs
        assert g.adj[u] & comp[u] == 0
        assert g.adj[u] | comp[u] == ((1 << dim) - 1) & ~(1 << u)
    for window in band_cliques(N, n, m).cliques:
        assert all(g.adj[u] >> v & 1 for u in window for v in window if u != v)
    with pytest.raises(BandTooWide):
        PatternGraph.banded(m, n, 2 * n + 1)
    with pytest.raises(BandTooWide):
        band_cliques(2 * n + 1, n, m)


class TestBandCliques:
    def test_table_sizes_n2(self):
        cs = band_cliques(30, 2, 1)
        assert len(cs) == 30
        assert cs.max_size() == 3

    def test_table_sizes_n8(self):
        cs = band_cliques(30, 8, 1)
        assert len(cs) == 30
        assert cs.max_size() == 9

    def test_block_window_case(self):
        cs = band_cliques(8, 1, 2)
        assert len(cs) == 8
        assert cs.max_size() == 4
        expected = frozenset(
            tuple(sorted((2 * i + j) % 16 for j in range(4))) for i in range(8)
        )
        assert cs.as_set() == expected

    def test_windows_equal_bron_kerbosch(self):
        for N, n, m in [(8, 1, 2), (12, 2, 1), (10, 1, 1), (30, 3, 1), (9, 2, 2)]:
            g = PatternGraph.banded(m, n, N)
            assert bron_kerbosch(g.adj).as_set() == band_cliques(N, n, m).as_set()

    def test_windows_are_the_maximal_cliques_from_3n_plus_1(self):
        # below N = 3n+1 the pattern graph has more maximal cliques than the
        # N windows (at n = 2, N = 6 also the blocks {0, 2, 4}); the windows
        # still cover every edge, that is every given entry IPS matches
        for n in range(1, 7):
            for N in range(2 * n + 2, 4 * n + 3):
                g = PatternGraph.banded(1, n, N)
                windows = band_cliques(N, n, 1).as_set()
                assert (bron_kerbosch(g.adj).as_set() == windows) == (N >= 3 * n + 1), (n, N)
                covered = [0] * N
                for w in windows:
                    for u in w:
                        covered[u] |= sum(1 << v for v in w if v != u)
                assert tuple(covered) == g.adj, (n, N)

    def test_band_too_wide(self):
        with pytest.raises(BandTooWide):
            band_cliques(5, 2, 1)

    def test_negative_bandwidth(self):
        # n = -1 gave N empty cliques
        with pytest.raises(BadInput):
            band_cliques(8, -1, 1)


class TestBronKerbosch:
    def test_complete_graph(self):
        full = [(0b1111 & ~(1 << u)) for u in range(4)]
        cs = bron_kerbosch(full)
        assert cs.cliques == ((0, 1, 2, 3),)

    def test_paper_complement_counts(self):
        g2 = PatternGraph.banded(1, 2, 30)
        cs2 = bron_kerbosch(g2.complement_adjacency())
        assert (len(cs2), cs2.max_size()) == (4608, 10)
        g8 = PatternGraph.banded(1, 8, 30)
        cs8 = bron_kerbosch(g8.complement_adjacency())
        assert (len(cs8), cs8.max_size()) == (175, 3)

    def test_matches_networkx_on_random_graphs(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            nverts = int(rng.integers(5, 13))
            adj = [0] * nverts
            for u in range(nverts):
                for v in range(u + 1, nverts):
                    if rng.random() < 0.45:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            mine = bron_kerbosch(adj).as_set()
            ref = frozenset(tuple(sorted(c)) for c in nx.find_cliques(to_networkx(adj)))
            assert mine == ref

    def test_matches_networkx_on_pattern_complements(self):
        for n in (2, 5, 8):
            g = PatternGraph.banded(1, n, 20)
            comp = g.complement_adjacency()
            mine = bron_kerbosch(comp).as_set()
            ref = frozenset(tuple(sorted(c)) for c in nx.find_cliques(to_networkx(comp)))
            assert mine == ref


class TestIpsSolve:
    def test_white_noise_one_cycle(self):
        band = white_noise_band(1, 1)
        res = ips_solve(band, 6, tol=1e-12)
        assert res.cycles == 1
        assert np.abs(res.sigma - np.eye(6)).max() < 1e-12

    def test_agrees_with_gradient_solver_n4(self):
        band = scalar_band([1.0, 0.3])
        gd = solve(band, 4)
        scaled = ips_solve(band, 4, tol=1e-11)
        rel = np.linalg.norm(scaled.sigma - gd.sigma.to_dense()) / np.linalg.norm(scaled.sigma)
        assert rel <= 1e-5

    def test_entropy_matches_gradient_solver(self):
        rng = np.random.default_rng(61)
        band = random_feasible_band(2, 1, 10, rng)
        gd = solve(band, 10)
        scaled = ips_solve(band, 10, tol=1e-10)
        h_gd = verify_solution(gd, band).entropy
        h_ips = verify_solution(circulant_average(scaled.sigma, band.m), band).entropy
        assert h_ips <= h_gd + 1e-6
        assert h_gd <= h_ips + 1e-6

    def test_precision_structurally_banded(self):
        rng = np.random.default_rng(62)
        m, n, N = 1, 2, 10
        band = random_feasible_band(m, n, N, rng)
        res = ips_solve(band, N, tol=1e-10)
        prec = np.linalg.inv(res.sigma)
        g = PatternGraph.banded(m, n, N)
        for u in range(m * N):
            for v in range(m * N):
                if u != v and not g.adj[u] >> v & 1:
                    assert abs(prec[u, v]) < 1e-9

    def test_given_entries_held(self):
        rng = np.random.default_rng(63)
        band = random_feasible_band(2, 1, 8, rng)
        res = ips_solve(band, 8, tol=1e-11)
        r = band.embed_circulant(8).to_dense()
        mask = r != 0
        assert np.abs((res.sigma - r)[mask]).max() < 1e-9

    def test_no_convergence_when_infeasible(self):
        band = scalar_band([1.0, -0.91])
        with pytest.raises(NoConvergence):
            ips_solve(band, 7, tol=1e-9, max_cycles=50)


@pytest.mark.parametrize("runner", [ips_solve, sk1_solve])
def test_budget_is_checked(runner):
    # no deviation meets a negative or NaN tol, so the run used all its
    # cycles; any meets an infinite one.  A budget of zero is legal, one
    # that is not an integer, a bool included, is not (2.5 raised TypeError).
    # A tol that is not a real number is refused too: True converged in one
    # cycle at a tolerance of 1, "1" and 1j raised TypeError.
    band = scalar_band([1.0, 0.3])
    for tol, max_cycles in ((-1.0, 10), (math.nan, 10), (math.inf, 10), (True, 10), ("1", 10), (1j, 10), (1e-9, -1),
                            (1e-9, math.nan), (1e-9, math.inf), (1e-9, 2.5), (1e-9, True), (1e-9, False)):
        with pytest.raises(BadInput):
            runner(band, 8, tol=tol, max_cycles=max_cycles)
    with pytest.raises(NoConvergence):
        runner(band, 8, tol=0.0, max_cycles=0)


@pytest.mark.parametrize("runner", [ips_solve, sk1_solve])
def test_default_tolerance(runner):
    # None reads as the baselines' default, 1e-9; it raised TypeError
    band = scalar_band([1.0, 0.3])
    default, explicit = runner(band, 8, tol=None), runner(band, 8, tol=1e-9)
    assert default.cycles == explicit.cycles
    assert np.array_equal(default.sigma, explicit.sigma)


class TestSk1Solve:
    def test_white_noise_fixed_point(self):
        band = white_noise_band(1, 1)
        res = sk1_solve(band, 6, tol=1e-12)
        assert res.cycles == 1
        assert np.abs(res.sigma - np.eye(6)).max() < 1e-12

    def test_agrees_with_ips(self):
        band = scalar_band([1.0, 0.2])
        a = sk1_solve(band, 6, tol=1e-10)
        b = ips_solve(band, 6, tol=1e-10)
        rel = np.linalg.norm(a.sigma - b.sigma) / np.linalg.norm(b.sigma)
        assert rel <= 1e-5

    def test_block_case_agrees_with_ips(self):
        rng = np.random.default_rng(64)
        band = random_feasible_band(2, 1, 8, rng)
        a = sk1_solve(band, 8, tol=1e-10)
        b = ips_solve(band, 8, tol=1e-10)
        rel = np.linalg.norm(a.sigma - b.sigma) / np.linalg.norm(b.sigma)
        assert rel <= 1e-5

    def test_requires_pd_start(self):
        # infeasible data: the band extension approximant cannot be PD
        band = scalar_band([1.0, -0.91])
        with pytest.raises(RequiresFullR):
            sk1_solve(band, 7)

    def test_ips_faster_for_small_bandwidth(self):
        # small n: few pattern cliques, many complement cliques
        rng = np.random.default_rng(65)
        band = random_feasible_band(1, 2, 20, rng)
        t0 = time.perf_counter()
        ips_solve(band, 20, tol=1e-9)
        t_ips = time.perf_counter() - t0
        t0 = time.perf_counter()
        sk1_solve(band, 20, tol=1e-9)
        t_sk1 = time.perf_counter() - t0
        assert t_ips < t_sk1
