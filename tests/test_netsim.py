import numpy as np
import pytest
from fractions import Fraction

from csnc.mathcore import Seed, matrix_rank
from csnc.netsim import (
    ChannelModel,
    NetworkTopology,
    build_example_topology,
    derive_transfer_matrix,
    direct_transfer_matrix,
    network_uses,
    transmit,
)
from csnc.precoder import OnOffPattern, draw_onoff


class TestBuildExampleTopology:
    def test_complete_bipartite_at_probability_one(self):
        topo = build_example_topology(5, 3, 1.0, Seed(0))
        first_stage = [(a, b) for a, b in topo.edges if b in topo.intermediate_nodes]
        assert len(first_stage) == 15

    def test_expected_in_degree(self):
        # each intermediate sees Binomial(N, 1/3) sources
        topo = build_example_topology(300, 30, 1.0 / 3.0, Seed(7))
        indeg = np.zeros(30)
        for a, b in topo.edges:
            if b in topo.intermediate_nodes:
                indeg[b - 300] += 1
        assert abs(indeg.mean() - 100) <= 3 * np.sqrt(300 * (1 / 3) * (2 / 3))

    def test_determinism(self):
        a = build_example_topology(20, 4, 0.5, Seed(3))
        b = build_example_topology(20, 4, 0.5, Seed(3))
        assert a.edges == b.edges

    def test_low_connectivity_rejected(self):
        with pytest.raises(ValueError):
            build_example_topology(10, 3, 0.2, Seed(0))

    def test_layers_wired_to_receiver(self):
        topo = build_example_topology(6, 2, 0.5, Seed(1))
        recv = topo.receiver_nodes[0]
        second_stage = [e for e in topo.edges if e[1] == recv]
        assert len(second_stage) == 2
        assert topo.source_nodes == list(range(6))
        assert topo.intermediate_nodes == [6, 7]


class TestDeriveTransferMatrix:
    def test_one_path_network(self):
        topo = NetworkTopology(3, [(0, 1), (1, 2)], [0], [1], [2])
        tm = derive_transfer_matrix(topo, 1, "rademacher", Seed(5))
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

    def test_m2_cannot_exceed_m(self):
        topo = build_example_topology(10, 3, 0.5, Seed(0))
        with pytest.raises(ValueError):
            derive_transfer_matrix(topo, 4, "rademacher", Seed(0))


class TestTransmit:
    def test_noiseless_identity(self):
        tm = direct_transfer_matrix(6, 6, Seed(0), family="identity")
        y = Seed(1).rng().normal(size=6)
        z = transmit(tm, OnOffPattern(np.ones(6), 1.0), y, ChannelModel(0.0), Seed(2))
        assert np.array_equal(z, y)

    def test_noiseless_matches_multiply_oracle(self):
        tm = direct_transfer_matrix(5, 12, Seed(3))
        pat = draw_onoff(12, 0.6, Seed(4))
        y = Seed(5).rng().normal(size=12)
        z = transmit(tm, pat, y, ChannelModel(0.0), Seed(6))
        assert np.linalg.norm(z - tm.G @ (pat.diag * y)) < 1e-12

    def test_noise_variance(self):
        # zero signal, unit sigma: pooled sample variance near 1
        tm = direct_transfer_matrix(100, 4, Seed(7))
        pat = OnOffPattern(np.ones(4), 1.0)
        samples = np.concatenate(
            [
                transmit(tm, pat, np.zeros(4), ChannelModel(1.0), Seed(8, i))
                for i in range(1000)
            ]
        )
        assert samples.size == 100_000
        assert abs(samples.var() - 1.0) < 0.03

    def test_noise_covariance_is_white(self):
        tm = direct_transfer_matrix(4, 4, Seed(9), family="identity")
        pat = OnOffPattern(np.ones(4), 1.0)
        sigma = 0.5
        Z = np.stack(
            [
                transmit(tm, pat, np.zeros(4), ChannelModel(sigma), Seed(10, i))
                for i in range(10_000)
            ]
        )
        cov = np.cov(Z.T)
        assert np.all(np.abs(np.diag(cov) - sigma**2) < 0.05 * sigma**2)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.05 * sigma**2

    def test_linearity_when_noiseless(self):
        tm = direct_transfer_matrix(7, 10, Seed(11))
        pat = draw_onoff(10, 0.5, Seed(12))
        rng = Seed(13).rng()
        for _ in range(10):
            y1, y2 = rng.normal(size=10), rng.normal(size=10)
            a, b = rng.normal(), rng.normal()
            lhs = transmit(tm, pat, a * y1 + b * y2, ChannelModel(0.0), Seed(0))
            rhs = a * transmit(tm, pat, y1, ChannelModel(0.0), Seed(0)) + b * transmit(
                tm, pat, y2, ChannelModel(0.0), Seed(0)
            )
            assert np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(rhs)) < 1e-10

    def test_determinism(self):
        tm = direct_transfer_matrix(5, 8, Seed(14))
        pat = draw_onoff(8, 0.5, Seed(15))
        y = Seed(16).rng().normal(size=8)
        a = transmit(tm, pat, y, ChannelModel(0.3), Seed(17))
        b = transmit(tm, pat, y, ChannelModel(0.3), Seed(17))
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        tm = direct_transfer_matrix(5, 8, Seed(18))
        with pytest.raises(ValueError):
            transmit(tm, OnOffPattern(np.ones(8), 1.0), np.ones(7), ChannelModel(0.0), Seed(0))


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
