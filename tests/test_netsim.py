import numpy as np
import pytest
from fractions import Fraction

from csnc.mathcore import Seed, gaussian_matrix, matrix_rank, rademacher_matrix
from csnc.netsim import (
    TransferMatrix,
    build_example_topology,
    derive_transfer_matrix,
    direct_transfer_matrix,
    network_uses,
    transmit,
)
from csnc.precoder import draw_onoff


class TestBuildExampleTopology:
    def test_complete_bipartite_at_probability_one(self):
        topo = build_example_topology(5, 3, 1.0, Seed(0))
        assert topo.shape == (3, 5) and np.all(topo == 1.0)

    def test_expected_in_degree(self):
        # each intermediate sees Binomial(N, 1/3) sources
        topo = build_example_topology(300, 30, 1.0 / 3.0, Seed(7))
        indeg = topo.sum(axis=1)
        assert abs(indeg.mean() - 100) <= 3 * np.sqrt(300 * (1 / 3) * (2 / 3))

    def test_determinism(self):
        a = build_example_topology(20, 4, 0.5, Seed(3))
        b = build_example_topology(20, 4, 0.5, Seed(3))
        assert np.array_equal(a, b)

    def test_low_connectivity_rejected(self):
        with pytest.raises(ValueError):
            build_example_topology(10, 3, 0.2, Seed(0))

    @pytest.mark.parametrize("prob", [1.5, float("inf"), float("nan")], ids=["high", "inf", "nan"])
    def test_connectivity_outside_range_rejected(self, prob):
        # NaN fails both one-sided comparisons, so the range is checked as one interval
        with pytest.raises(ValueError):
            build_example_topology(10, 3, prob, Seed(0))


def _edge_loop(N, m, prob, seed):
    """Edge list and first-layer mask built edge by edge: the reference for the array code."""
    present = seed.rng().random((m, N)) < prob
    edges = [(i, N + j) for j in range(m) for i in range(N) if present[j, i]]
    edges += [(N + j, N + m) for j in range(m)]
    src_index = {node: i for i, node in enumerate(range(N))}
    mid_index = {node: j for j, node in enumerate(range(N, N + m))}
    mask = np.zeros((m, N))
    n_edges = 0
    for a, b in edges:
        if a in src_index and b in mid_index:
            mask[mid_index[b], src_index[a]] = 1.0
            n_edges += 1
    return edges, mask, n_edges


class TestTopologyMatchesEdgeLoop:
    @pytest.mark.parametrize("seed_index", range(4))
    @pytest.mark.parametrize("family", ["rademacher"])
    def test_bit_identical_to_the_edge_loop(self, seed_index, family):
        N, m, m2 = 60, 12, 9
        s = Seed(31, seed_index)
        topo = build_example_topology(N, m, 0.4, s.child(0))
        _, mask, n_edges = _edge_loop(N, m, 0.4, s.child(0))
        assert np.array_equal(topo, mask)
        tm = derive_transfer_matrix(topo, m2, family, s.child(1))
        G1, G2 = tm.decomposition
        coeffs = rademacher_matrix(m, N, s.child(1).child(1))
        G2_ref = (1.0 / np.sqrt(m * (n_edges / (m * N)))) * gaussian_matrix(m2, m, s.child(1).child(2))
        assert np.array_equal(G1, coeffs * mask)
        assert np.array_equal(G2, G2_ref)
        assert np.array_equal(tm.G, G2_ref @ (coeffs * mask))


class TestDeriveTransferMatrix:
    def test_one_path_network(self):
        tm = derive_transfer_matrix(np.ones((1, 1)), 1, "rademacher", Seed(5))
        G1, G2 = tm.decomposition
        assert tm.G.shape == (1, 1)
        assert abs(G1[0, 0]) == 1.0
        assert np.allclose(tm.G, G2 @ G1)

    def test_rademacher_coefficients_on_complete_layer(self):
        topo = build_example_topology(8, 3, 1.0, Seed(2))
        tm = derive_transfer_matrix(topo, 3, "rademacher", Seed(4))
        G1, _ = tm.decomposition
        assert set(np.unique(G1)) <= {-1.0, 1.0}

    def test_decomposition_consistency(self):
        topo = build_example_topology(30, 8, 0.5, Seed(9))
        tm = derive_transfer_matrix(topo, 6, "rademacher", Seed(10))
        G1, G2 = tm.decomposition
        err = np.linalg.norm(tm.G - G2 @ G1) / np.linalg.norm(tm.G)
        assert err < 1e-10

    def test_full_rank_with_high_probability(self):
        hits = 0
        for i in range(20):
            topo = build_example_topology(60, 12, 1.0 / 3.0, Seed(11, i))
            tm = derive_transfer_matrix(topo, 12, "rademacher", Seed(12, i))
            if matrix_rank(tm.G) == 12:
                hits += 1
        assert hits >= 19

    def test_unit_entry_variance_normalization(self):
        topo = build_example_topology(200, 40, 0.5, Seed(13))
        tm = derive_transfer_matrix(topo, 40, "rademacher", Seed(14))
        v = tm.G.var()
        assert 0.7 < v < 1.4

    def test_gaussian_coefficient_family_rejected(self):
        topo = build_example_topology(10, 3, 0.5, Seed(0))
        with pytest.raises(ValueError, match="coefficient family"):
            derive_transfer_matrix(topo, 3, "gaussian", Seed(0))

    def test_m2_cannot_exceed_m(self):
        topo = build_example_topology(10, 3, 0.5, Seed(0))
        with pytest.raises(ValueError):
            derive_transfer_matrix(topo, 4, "rademacher", Seed(0))

    @pytest.mark.parametrize("incidence", [
        [[1.0, 0.5], [0.0, 1.0]], [[1.0, 2.0], [0.0, 1.0]], [[1.0, -1.0], [0.0, 1.0]],
        [[1.0, np.nan], [0.0, 1.0]], [1.0, 0.0],
    ], ids=["half", "two", "minus-one", "nan", "1-d"])
    def test_invalid_incidence_rejected(self, incidence):
        with pytest.raises(ValueError):
            derive_transfer_matrix(np.array(incidence), 1, "rademacher", Seed(0))


class TestDirectTransferMatrix:
    def test_draws_the_seeded_gaussian_matrix(self):
        tm = direct_transfer_matrix(5, 12, Seed(3))
        assert tm.decomposition is None
        assert np.array_equal(tm.G, gaussian_matrix(5, 12, Seed(3)))

    @pytest.mark.parametrize("m2, N", [(0, 4), (4, 0)])
    def test_empty_dimension_rejected(self, m2, N):
        with pytest.raises(ValueError, match="need m2 >= 1 and N >= 1"):
            direct_transfer_matrix(m2, N, Seed(3))


class TestTransmit:
    def test_noiseless_identity(self):
        tm = TransferMatrix(np.eye(6))
        y = Seed(1).rng().normal(size=6)
        z = transmit(tm, np.ones(6), y, 0.0, Seed(2).rng())
        assert np.array_equal(z, y)

    def test_noiseless_matches_multiply_oracle(self):
        tm = direct_transfer_matrix(5, 12, Seed(3))
        pat = draw_onoff(12, 0.6, Seed(4).rng())
        y = Seed(5).rng().normal(size=12)
        z = transmit(tm, pat, y, 0.0, Seed(6).rng())
        assert np.linalg.norm(z - tm.G @ (pat * y)) < 1e-12

    def test_noise_variance(self):
        # zero signal, unit sigma: pooled sample variance near 1
        tm = direct_transfer_matrix(100, 4, Seed(7))
        pat = np.ones(4)
        samples = np.concatenate(
            [
                transmit(tm, pat, np.zeros(4), 1.0, Seed(8, i).rng())
                for i in range(1000)
            ]
        )
        assert samples.size == 100_000
        assert abs(samples.var() - 1.0) < 0.03

    def test_noise_covariance_is_white(self):
        tm = TransferMatrix(np.eye(4))
        pat = np.ones(4)
        sigma = 0.5
        Z = np.stack(
            [
                transmit(tm, pat, np.zeros(4), sigma, Seed(10, i).rng())
                for i in range(10_000)
            ]
        )
        cov = np.cov(Z.T)
        assert np.all(np.abs(np.diag(cov) - sigma**2) < 0.05 * sigma**2)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.05 * sigma**2

    def test_linearity_when_noiseless(self):
        tm = direct_transfer_matrix(7, 10, Seed(11))
        pat = draw_onoff(10, 0.5, Seed(12).rng())
        rng = Seed(13).rng()
        for _ in range(10):
            y1, y2 = rng.normal(size=10), rng.normal(size=10)
            a, b = rng.normal(), rng.normal()
            lhs = transmit(tm, pat, a * y1 + b * y2, 0.0, Seed(0).rng())
            rhs = a * transmit(tm, pat, y1, 0.0, Seed(0).rng()) + b * transmit(tm, pat, y2, 0.0, Seed(0).rng())
            assert np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(rhs)) < 1e-10

    def test_determinism(self):
        tm = direct_transfer_matrix(5, 8, Seed(14))
        pat = draw_onoff(8, 0.5, Seed(15).rng())
        y = Seed(16).rng().normal(size=8)
        a = transmit(tm, pat, y, 0.3, Seed(17).rng())
        b = transmit(tm, pat, y, 0.3, Seed(17).rng())
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        tm = direct_transfer_matrix(5, 8, Seed(18))
        with pytest.raises(ValueError):
            transmit(tm, np.ones(8), np.ones(7), 0.0, Seed(0).rng())

    @pytest.mark.parametrize("pattern", [
        [1.0, 0.5, 0.0, 1.0], [1.0, 2.0, 0.0, 1.0], [1.0, np.nan, 0.0, 1.0], [[1.0, 1.0, 1.0, 1.0]], [1.0, 1.0, 1.0],
    ], ids=["half", "two", "nan", "2-d", "short"])
    def test_invalid_pattern_rejected(self, pattern):
        tm = direct_transfer_matrix(3, 4, Seed(19))
        with pytest.raises(ValueError):
            transmit(tm, pattern, np.ones(4), 0.0, Seed(0).rng())

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")], ids=["negative", "nan", "inf"])
    def test_invalid_sigma_rejected(self, sigma):
        tm = direct_transfer_matrix(3, 4, Seed(20))
        with pytest.raises(ValueError):
            transmit(tm, np.ones(4), np.ones(4), sigma, Seed(0).rng())


class TestNetworkUses:
    def test_product_over_min_cut(self):
        assert network_uses(10, 6, 3) == Fraction(20)

    def test_one_use_per_time_index(self):
        assert network_uses(9, 4, 4) == Fraction(9)

    def test_zero_time_indices(self):
        assert network_uses(0, 5, 2) == Fraction(0)

    def test_exact_rational(self):
        assert network_uses(3, 5, 7) == Fraction(15, 7)

    def test_zero_m_rejected(self):
        with pytest.raises(ValueError):
            network_uses(3, 5, 0)
