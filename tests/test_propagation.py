import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hyperprop import (InvalidConfigError, PropagationConfig, ShapeError,
                       build_hypergraph, edge_average, node_average,
                       propagate)

import oracles
from util import (bernoulli_hypergraph, ordinary_graph, random_hypergraph,
                  random_signal)


@pytest.fixture
def chain():
    """v1 = {u1, u2}, v2 = {u2, u3}."""
    h, _ = build_hypergraph([("u1", "v1"), ("u2", "v1"),
                             ("u2", "v2"), ("u3", "v2")])
    return h


@pytest.fixture
def chain_iso():
    """Same chain plus an isolated node u4."""
    h, _ = build_hypergraph(
        [("u1", "v1"), ("u2", "v1"), ("u2", "v2"), ("u3", "v2")],
        node_universe=["u1", "u2", "u3", "u4"])
    return h


def all_variant_configs():
    return [PropagationConfig(variant="row"),
            PropagationConfig(variant="column"),
            PropagationConfig(variant="symmetric"),
            PropagationConfig(variant="alpha", alpha=0.3)]


class TestAggregation:
    def test_edge_average_hand_example(self, chain):
        np.testing.assert_allclose(
            edge_average(chain, np.array([1.0, 0.0, 0.0])), [0.5, 0.0])

    def test_edge_average_of_ones_is_ones(self, chain):
        np.testing.assert_array_equal(
            edge_average(chain, np.ones(3)), np.ones(2))

    def test_edge_average_of_zero_is_zero(self, chain):
        np.testing.assert_array_equal(
            edge_average(chain, np.zeros(3)), np.zeros(2))

    def test_node_average_hand_example(self, chain):
        np.testing.assert_allclose(
            node_average(chain, np.array([0.5, 0.0])), [0.5, 0.25, 0.0])

    def test_node_average_of_ones_is_ones(self, chain):
        np.testing.assert_array_equal(
            node_average(chain, np.ones(2)), np.ones(3))

    def test_isolated_node_row_is_zero(self, chain_iso):
        rng = np.random.default_rng(0)
        out = node_average(chain_iso, rng.normal(size=(2, 3)))
        np.testing.assert_array_equal(out[3], 0.0)

    def test_shape_mismatch(self, chain):
        with pytest.raises(ShapeError):
            edge_average(chain, np.zeros(5))
        with pytest.raises(ShapeError):
            node_average(chain, np.zeros(3))

    def test_non_finite_rejected(self, chain):
        with pytest.raises(ValueError):
            edge_average(chain, np.array([1.0, np.nan, 0.0]))
        with pytest.raises(ValueError):
            propagate(chain, np.array([np.inf, 0.0, 0.0]),
                      PropagationConfig())


class TestLayer:
    def test_row_layer_hand_example(self, chain):
        np.testing.assert_allclose(
            propagate(chain, np.array([1.0, 0.0, 0.0]), PropagationConfig()),
            [0.5, 0.25, 0.0], atol=1e-15)

    def test_layer_equals_aggregation_composition(self, chain):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(
            propagate(chain, x, PropagationConfig()),
            node_average(chain, edge_average(chain, x)))

    def test_singleton_edges_are_identity(self):
        h, _ = build_hypergraph([(f"u{i}", f"v{i}") for i in range(5)])
        x = np.random.default_rng(2).normal(size=(5, 3))
        for variant in ("row", "column", "symmetric"):
            out = propagate(h, x, PropagationConfig(variant=variant))
            np.testing.assert_allclose(out, x, atol=1e-12)

    def test_alpha_half_equals_row(self):
        rng = np.random.default_rng(3)
        half = PropagationConfig(variant="alpha", alpha=0.5)
        for _ in range(50):
            h = bernoulli_hypergraph(rng)
            x = random_signal(rng, h.n_nodes)
            np.testing.assert_allclose(
                propagate(h, x, half), propagate(h, x, PropagationConfig()),
                atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        for cfg in all_variant_configs():
            for _ in range(20):
                h = bernoulli_hypergraph(rng)
                x = random_signal(rng, h.n_nodes, max_cols=2)
                z = rng.normal(size=x.shape)
                a, b = rng.normal(size=2)
                lhs = propagate(h, a * x + b * z, cfg)
                rhs = (a * propagate(h, x, cfg)
                       + b * propagate(h, z, cfg))
                np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_input_not_mutated(self, chain):
        # later layers scale and blend their own arrays in place, never x
        x = np.array([[1.0, 0.5], [0.0, 2.0], [0.0, 0.0]])
        for cfg in all_variant_configs():
            propagate(chain, x[:, 0], cfg)
            for signal in (x, x[:, 0], x[:, 1:]):
                for nodes in (None, [2, 0]):
                    propagate(chain, signal, replace(cfg, layers=3),
                              nodes=nodes)
        np.testing.assert_array_equal(x, [[1.0, 0.5], [0.0, 2.0], [0.0, 0.0]])

    def test_1d_and_2d_round_trip(self, chain):
        x1 = np.array([1.0, 0.0, 0.0])
        out1 = propagate(chain, x1, PropagationConfig())
        out2 = propagate(chain, x1[:, None], PropagationConfig())
        assert out1.ndim == 1 and out2.shape == (3, 1)
        np.testing.assert_array_equal(out1, out2[:, 0])


class TestMultiLayer:
    def test_layers_are_repeated_one_layer_calls(self, chain_iso):
        x = np.random.default_rng(5).normal(size=(4, 2))
        for cfg in all_variant_configs():
            once = x
            for _ in range(3):
                once = propagate(chain_iso, once, cfg)
            np.testing.assert_array_equal(
                propagate(chain_iso, x, replace(cfg, layers=3)), once)

    def test_two_layer_hand_example(self, chain):
        # frozen from the dense reference: applying D^-1 H B^-1 H^T twice
        # to [1, 0, 0] gives [0.375, 0.25, 0.125]
        x = np.array([1.0, 0.0, 0.0])
        expected = oracles.dense_propagate_layer(
            chain, oracles.dense_propagate_layer(chain, x))
        np.testing.assert_allclose(expected, [0.375, 0.25, 0.125], atol=1e-15)
        out = propagate(chain, x, PropagationConfig(layers=2))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_constant_signal_is_fixed_point(self, chain):
        for layers in (1, 2, 5):
            out = propagate(chain, np.full(3, 3.25),
                            PropagationConfig(layers=layers))
            np.testing.assert_allclose(out, 3.25, atol=1e-12)

    def test_row_range_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            h = bernoulli_hypergraph(rng)
            x = rng.random(h.n_nodes)  # entries in [0, 1]
            out = propagate(h, x, PropagationConfig(layers=3))
            assert out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12

    def test_column_variant_preserves_column_sums(self):
        rng = np.random.default_rng(7)
        cfg = PropagationConfig(variant="column", layers=2)
        for _ in range(20):
            h, _ = ordinary_graph(rng)  # no isolated nodes
            x = random_signal(rng, h.n_nodes)
            out = propagate(h, x, cfg)
            np.testing.assert_allclose(out.sum(axis=0), x.sum(axis=0),
                                       atol=1e-9)


class TestDenseEquivalence:
    def test_sparse_matches_dense_all_variants(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            h = bernoulli_hypergraph(rng)
            x = random_signal(rng, h.n_nodes)
            for cfg in all_variant_configs():
                np.testing.assert_allclose(
                    propagate(h, x, cfg),
                    oracles.dense_propagate_layer(h, x, cfg), atol=1e-10)

    def test_ordinary_graph_kernel_identity(self):
        # with every edge of degree 2, H B^-1 H^T == (A + D) / 2
        rng = np.random.default_rng(9)
        for _ in range(20):
            h, adjacency = ordinary_graph(rng)
            degree = np.diag(adjacency.sum(axis=1))
            np.testing.assert_allclose(
                oracles.dense_kernel(h), 0.5 * (adjacency + degree),
                atol=1e-12)

    def test_row_variant_is_half_lazy_walk(self):
        # on ordinary graphs one layer equals (D^-1 A X + X) / 2
        rng = np.random.default_rng(10)
        for _ in range(20):
            h, adjacency = ordinary_graph(rng)
            x = random_signal(rng, h.n_nodes)
            inv_deg = 1.0 / adjacency.sum(axis=1)
            expected = 0.5 * (inv_deg[:, None] * (adjacency @ x)) + 0.5 * x
            np.testing.assert_allclose(propagate(h, x, PropagationConfig()),
                                       expected, atol=1e-10)

    def test_size_guard(self):
        h, _ = build_hypergraph(
            [(i, i % 600) for i in range(2000)],
            node_universe=range(2000))
        assert h.n_nodes * h.n_edges > 1_000_000
        with pytest.raises(oracles.SizeGuardError):
            oracles.dense_propagate_layer(h, np.zeros(2000))
        with pytest.raises(oracles.SizeGuardError):
            oracles.dense_kernel(h)


def composed_layer(h, x, cfg):
    """One layer as the plain per-variant product chain, in the engine's
    order of operations, so the sparse result must match it bit for bit."""
    H, Ht = h.node_edge_matrix, h.edge_node_matrix
    deg = h.node_degree.astype(np.float64)
    inv_d, half = np.zeros_like(deg), np.zeros_like(deg)
    np.divide(1.0, deg, out=inv_d, where=deg > 0)
    np.divide(1.0, deg ** 0.5, out=half, where=deg > 0)
    inv_d, half = inv_d[:, None], half[:, None]
    b = h.edge_degree[:, None]
    if cfg.variant == "row":
        return inv_d * (H @ ((Ht @ x) / b))
    if cfg.variant == "column":
        return H @ ((Ht @ (inv_d * x)) / b)
    if cfg.variant == "symmetric":
        return half * (H @ ((Ht @ (half * x)) / b))
    a = cfg.alpha
    return 2.0 * a * (inv_d * (H @ ((Ht @ x) / b))) + (1.0 - 2.0 * a) * x


class TestBitwiseComposition:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["row", "column", "symmetric", "alpha"])
    def test_propagate_equals_composition_exactly(self, variant, layers):
        cfg = PropagationConfig(variant=variant, layers=layers,
                                alpha=0.3 if variant == "alpha" else None)
        rng = np.random.default_rng(layers)
        graphs = [random_hypergraph(300, 60, 1500, seed=s) for s in range(3)]
        graphs += [bernoulli_hypergraph(rng) for _ in range(10)]
        for h in graphs:
            x = random_signal(rng, h.n_nodes)
            expected = x
            for _ in range(layers):
                expected = composed_layer(h, expected, cfg)
            assert np.array_equal(propagate(h, x, cfg), expected)

    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("variant", ["row", "column", "symmetric", "alpha"])
    def test_columns_propagate_as_if_alone(self, variant, layers):
        cfg = PropagationConfig(variant=variant, layers=layers,
                                alpha=0.3 if variant == "alpha" else None)
        rng = np.random.default_rng(10 + layers)
        graphs = [random_hypergraph(300, 60, 1500, seed=s) for s in range(3)]
        graphs += [bernoulli_hypergraph(rng) for _ in range(5)]
        for h in graphs:
            x = rng.normal(size=(h.n_nodes, 6))
            x[:, :3] = rng.random((h.n_nodes, 3)) < 0.2  # one-vs-rest seeds
            batch = propagate(h, x, cfg)
            for j in range(x.shape[1]):
                assert np.array_equal(batch[:, j], propagate(h, x[:, j], cfg))


class TestNodes:
    """``nodes=`` returns exactly the selected rows of the full result."""

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["row", "column", "symmetric", "alpha"])
    def test_rows_equal_full_result_exactly(self, variant, layers):
        cfg = PropagationConfig(variant=variant, layers=layers,
                                alpha=0.3 if variant == "alpha" else None)
        rng = np.random.default_rng(20 + layers)
        graphs = [random_hypergraph(300, 60, 1500, seed=s) for s in range(2)]
        graphs += [bernoulli_hypergraph(rng) for _ in range(8)]  # isolated nodes
        for h in graphs:
            n = h.n_nodes
            x = random_signal(rng, n)
            full = propagate(h, x, cfg)
            isolated = np.flatnonzero(h.node_degree == 0)
            for idx in (np.arange(n), np.sort(rng.choice(n, n // 2)),
                        rng.permutation(n)[:n // 3],        # unsorted
                        rng.integers(0, n, size=2 * n),     # repeated
                        isolated, np.array([], dtype=np.int64)):
                out = propagate(h, x, cfg, nodes=idx)
                assert out.shape == (len(idx), x.shape[1])
                assert np.array_equal(out, full[idx])
            assert np.array_equal(propagate(h, x[:, 0], cfg, nodes=[n - 1, 0]),
                                  full[[n - 1, 0], 0])

    def test_empty_list(self, chain):
        out = propagate(chain, np.ones(3), PropagationConfig(), nodes=[])
        assert out.shape == (0,)

    @pytest.mark.parametrize("nodes", [[-1], [0, 3], [[0, 1]],
                                       [True, False, True], [0.5], 1,
                                       [[0], [2]]])
    def test_bad_node_ids_rejected(self, chain, nodes):
        # scipy would wrap -1 to the last row, read a mask as ids 0, 1 and
        # return a scalar id's row as a 1-row matrix
        with pytest.raises(ShapeError):
            propagate(chain, np.ones(3), PropagationConfig(), nodes=nodes)


class TestMemory:
    """A layer holds one node matrix: the previous layer's signal is freed
    before the scatter allocates the next, except where the alpha residual
    still needs it."""

    @pytest.mark.parametrize("dtype", [np.float64, bool])
    @pytest.mark.parametrize("variant,bound", [
        ("row", 1.5), ("column", 1.5), ("symmetric", 1.5), ("alpha", 2.5)])
    def test_peak_is_one_node_matrix(self, variant, bound, dtype):
        h = random_hypergraph(4000, 400, 20000, seed=0)
        d = 16
        x = np.random.default_rng(0).random((h.n_nodes, d)) < 0.3
        x = x.astype(dtype)
        cfg = PropagationConfig(variant=variant, layers=3,
                                alpha=0.3 if variant == "alpha" else None)
        # warm-up: any first-call setup in numpy or scipy stays out of
        # the measured peak; the degree scales are built with the graph
        propagate(h, x, cfg)
        tracemalloc.start()
        try:
            propagate(h, x, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * h.n_nodes * d * 8


class TestConfig:
    def test_alpha_required_in_open_interval(self):
        for bad in (None, 0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidConfigError):
                PropagationConfig(variant="alpha", alpha=bad)
        PropagationConfig(variant="alpha", alpha=0.5)

    def test_alpha_rejected_elsewhere(self):
        with pytest.raises(InvalidConfigError):
            PropagationConfig(variant="row", alpha=0.5)

    def test_layers_at_least_one(self):
        for bad in (0, -1):
            with pytest.raises(InvalidConfigError):
                PropagationConfig(layers=bad)

    def test_unknown_variant(self):
        with pytest.raises(InvalidConfigError):
            PropagationConfig(variant="diag")
