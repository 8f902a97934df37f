import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperprop import (VARIANTS, InvalidConfigError, PropagationConfig,
                       ShapeError, build_hypergraph, edge_average,
                       node_average, propagate)

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


@st.composite
def graphs(draw, max_nodes=40, max_edges=15):
    """A random hypergraph whose last nodes, and any the draw misses,
    are isolated; some draws give a 300-node graph with 1500
    incidences, whose rows are long and sparse."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.integers(0, 4)) == 0:
        return random_hypergraph(300, 60, 1500, seed=seed)
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, max_nodes))
    m = draw(st.integers(1, max_edges))
    member = rng.random((n, m)) < draw(st.sampled_from([0.1, 0.3, 0.6]))
    member[n - draw(st.integers(0, 2)):] = False
    rows, cols = member.nonzero()
    pairs = list(zip(rows.tolist(), cols.tolist())) or [(0, 0)]
    h, _ = build_hypergraph(pairs, node_universe=range(n))
    return h


@st.composite
def signals(draw, n_rows):
    """A float signal of 1 to 6 columns: normal values, 0/1 seeds or both."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    x = rng.normal(size=(n_rows, d))
    kind = draw(st.sampled_from(["normal", "seed", "mixed"]))
    if kind != "normal":
        seeds = (rng.random((n_rows, d)) < 0.3).astype(np.float64)
        x = seeds if kind == "seed" else np.where(rng.random(d) < 0.5,
                                                  seeds, x)
    return x


@st.composite
def configs(draw, variants=VARIANTS):
    variant = draw(st.sampled_from(variants))
    alpha = draw(st.floats(0.05, 0.95)) if variant == "alpha" else None
    return PropagationConfig(variant=variant, layers=draw(st.integers(1, 3)),
                             alpha=alpha)


@st.composite
def cases(draw, variants=VARIANTS):
    """``(h, x, config)`` for one generated propagation."""
    h = draw(graphs())
    return h, draw(signals(h.n_nodes)), draw(configs(variants))


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


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

    def test_row_range_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            h = bernoulli_hypergraph(rng)
            x = rng.random(h.n_nodes)  # entries in [0, 1]
            out = propagate(h, x, PropagationConfig(layers=3))
            assert out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12

class TestDenseEquivalence:
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


def dense_layers(h, x, cfg):
    for _ in range(cfg.layers):
        x = oracles.dense_propagate_layer(h, x, cfg)
    return x


class TestProperties:
    """Propagation laws on generated graphs with isolated nodes."""

    @PROPERTY
    @given(case=cases())
    def test_sparse_matches_dense(self, case):
        h, x, cfg = case
        np.testing.assert_allclose(propagate(h, x, cfg),
                                   dense_layers(h, x, cfg), atol=1e-10)

    @PROPERTY
    @given(h=graphs(), value=st.floats(-10, 10), layers=st.integers(1, 5))
    def test_constant_signal_is_fixed_point_of_row(self, h, value, layers):
        # an isolated node receives nothing, so its row is 0
        out = propagate(h, np.full(h.n_nodes, value),
                        PropagationConfig(layers=layers))
        expected = np.where(h.node_degree > 0, value, 0.0)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    @PROPERTY
    @given(case=cases(variants=["column"]))
    def test_column_preserves_column_sums(self, case):
        # the mass on isolated nodes is scaled by 1/0 := 0 and lost
        h, x, cfg = case
        kept = x[h.node_degree > 0].sum(axis=0)
        np.testing.assert_allclose(propagate(h, x, cfg).sum(axis=0), kept,
                                   rtol=1e-12, atol=1e-9)

    @PROPERTY
    @given(case=cases(), data=st.data())
    def test_linearity(self, case, data):
        h, x, cfg = case
        z = data.draw(signals(h.n_nodes))[:, :1]
        a, b = data.draw(st.tuples(st.floats(-3, 3), st.floats(-3, 3)))
        np.testing.assert_allclose(
            propagate(h, a * x + b * z, cfg),
            a * propagate(h, x, cfg) + b * propagate(h, z, cfg), atol=1e-10)

    @PROPERTY
    @given(case=cases())
    def test_columns_propagate_as_if_alone(self, case):
        h, x, cfg = case
        batch = propagate(h, x, cfg)
        for j in range(x.shape[1]):
            assert np.array_equal(batch[:, j], propagate(h, x[:, j], cfg))

    @PROPERTY
    @given(case=cases(variants=["row", "alpha"]), data=st.data())
    def test_given_edge_means_equal_the_gather(self, case, data):
        h, x, cfg = case
        if data.draw(st.booleans()):
            x = x[:, 0]
        if data.draw(st.booleans()) and np.isin(x, (0.0, 1.0)).all():
            x = x.astype(bool)  # a seed, as the harness passes it
        nodes = data.draw(st.one_of(
            st.none(), st.lists(st.integers(0, h.n_nodes - 1), max_size=8)))
        assert np.array_equal(
            propagate(h, x, cfg, nodes=nodes, edge_means=edge_average(h, x)),
            propagate(h, x, cfg, nodes=nodes))


class TestHGNN:
    """``symmetric`` is the HGNN operator of Feng et al. 2019."""

    @PROPERTY
    @given(h=graphs(), data=st.data(), layers=st.integers(1, 3))
    def test_symmetric_equals_hgnn_operator(self, h, data, layers):
        x = data.draw(signals(h.n_nodes))
        expected = np.linalg.matrix_power(oracles.hgnn_operator(h), layers) @ x
        out = propagate(h, x, PropagationConfig(variant="symmetric",
                                                layers=layers))
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_isolated_node_rows_and_columns_are_zero(self, chain_iso):
        op = oracles.hgnn_operator(chain_iso)
        assert not op[3].any() and not op[:, 3].any()


class TestEdgeMeans:
    """``propagate(..., edge_means=)`` takes the first layer's
    ``B^-1 H^T x``."""

    @pytest.mark.parametrize("variant", ["column", "symmetric"])
    def test_rejected_where_the_gather_is_scaled(self, chain, variant):
        x = np.array([1.0, 0.0, 0.0])
        with pytest.raises(InvalidConfigError):
            propagate(chain, x, PropagationConfig(variant=variant),
                      edge_means=edge_average(chain, x))

    @pytest.mark.parametrize("means", [np.zeros(3), np.zeros((2, 1)),
                                       np.zeros((2, 2, 1)), [0.5]])
    def test_shape_must_be_that_of_the_gather(self, chain, means):
        with pytest.raises(ShapeError):
            propagate(chain, np.array([1.0, 0.0, 0.0]), PropagationConfig(),
                      edge_means=means)

    def test_x_rows_still_checked(self, chain):
        with pytest.raises(ShapeError):
            propagate(chain, np.zeros(4), PropagationConfig(),
                      edge_means=np.zeros(2))

    def test_non_finite_means_rejected(self, chain):
        with pytest.raises(ValueError):
            propagate(chain, np.zeros(3), PropagationConfig(),
                      edge_means=np.array([0.5, np.nan]))

    def test_row_reads_only_the_means(self, chain):
        # x is shape-checked only: the first layer starts from the means
        out = propagate(chain, np.zeros((3, 1), dtype=bool),
                        PropagationConfig(), edge_means=[[0.5], [0.0]])
        np.testing.assert_array_equal(out, [[0.5], [0.25], [0.0]])

    @pytest.mark.parametrize("nodes", [None, [5, 0, 299, 5, 17]])
    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_row_takes_a_placeholder_for_x(self, ndim, nodes, layers):
        # the harness passes a zero-byte read-only view, not a seed
        h = random_hypergraph(300, 60, 1500, seed=0)
        x = np.random.default_rng(0).random((h.n_nodes, 4)) < 0.3
        x = x[:, 0] if ndim == 1 else x
        cfg = PropagationConfig(layers=layers)
        placeholder = np.broadcast_to(np.False_, x.shape)
        assert not placeholder.flags.writeable
        got = propagate(h, placeholder, cfg, nodes=nodes,
                        edge_means=edge_average(h, x))
        assert np.array_equal(got, propagate(h, x, cfg, nodes=nodes))

    @pytest.mark.parametrize("shape", [(301, 4), (299, 4), (300, 3), (300,),
                                       (300, 4, 1)])
    def test_placeholder_of_another_shape_rejected(self, shape):
        h = random_hypergraph(300, 60, 1500, seed=0)
        means = edge_average(h, np.ones((h.n_nodes, 4)))
        with pytest.raises(ShapeError):
            propagate(h, np.broadcast_to(np.False_, shape),
                      PropagationConfig(), edge_means=means)

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_alpha_still_reads_x(self, ndim):
        # the residual blends x in, so a placeholder changes the result
        h = random_hypergraph(300, 60, 1500, seed=0)
        x = np.random.default_rng(0).random((h.n_nodes, 4)) < 0.3
        x = x[:, 0] if ndim == 1 else x
        cfg = PropagationConfig(variant="alpha", alpha=0.3, layers=2)
        means = edge_average(h, x)
        want = propagate(h, x, cfg)
        assert np.array_equal(propagate(h, x, cfg, edge_means=means), want)
        got = propagate(h, np.broadcast_to(np.False_, x.shape), cfg,
                        edge_means=means)
        assert not np.array_equal(got, want)

    @pytest.mark.parametrize("cfg", [
        PropagationConfig(layers=2),
        PropagationConfig(variant="alpha", alpha=0.3, layers=2)])
    def test_inputs_not_mutated(self, chain, cfg):
        x = np.array([[1.0], [0.0], [0.0]])
        means = edge_average(chain, x)
        propagate(chain, x, cfg, nodes=[2, 0], edge_means=means)
        np.testing.assert_array_equal(x, [[1.0], [0.0], [0.0]])
        np.testing.assert_array_equal(means, [[0.5], [0.0]])


class TestSignalDtypes:
    """Boolean and integer signals need no finiteness scan and give the
    results of their float64 copies bit for bit."""

    @pytest.mark.parametrize("dtype", [bool, np.int8])
    @pytest.mark.parametrize("cfg", all_variant_configs(), ids=VARIANTS)
    def test_equal_to_float_copy(self, dtype, cfg):
        h = random_hypergraph(300, 60, 1500, seed=0)
        x = np.random.default_rng(0).random((h.n_nodes, 3)) < 0.3
        x = x.astype(dtype)
        cfg = replace(cfg, layers=2)
        want = propagate(h, x.astype(np.float64), cfg)
        assert np.array_equal(propagate(h, x, cfg), want)
        assert np.array_equal(edge_average(h, x), edge_average(h, x * 1.0))

    def test_float_nan_still_rejected(self, chain):
        x = np.array([[1.0], [np.nan], [0.0]])
        with pytest.raises(ValueError):
            propagate(chain, x, PropagationConfig())
        with pytest.raises(ValueError):
            propagate(chain, x.astype(np.float32), PropagationConfig())

    @pytest.mark.parametrize("values", [
        [1 + 1j, 0, 0.5j], ["1", "0", "2"], [b"1", b"0", b"2"],
        np.array([1, None, 0], dtype=object)],
        ids=["complex", "str", "bytes", "object"])
    def test_other_dtypes_rejected(self, chain, values):
        # complex would drop its imaginary part, strings would be parsed
        x = np.asarray(values)
        r = np.resize(x, chain.n_edges)
        means = edge_average(chain, np.ones(3))
        for call in (lambda: propagate(chain, x, PropagationConfig()),
                     lambda: propagate(chain, x, PropagationConfig(),
                                       edge_means=means),
                     lambda: propagate(chain, np.ones(3), PropagationConfig(),
                                       edge_means=r),
                     lambda: edge_average(chain, x),
                     lambda: node_average(chain, r)):
            with pytest.raises(ShapeError,
                               match=re.escape(f"got dtype {x.dtype}")):
                call()


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
    @pytest.mark.parametrize("variant,bound,given_means", [
        ("row", 1.5, False), ("column", 1.5, False),
        ("symmetric", 1.5, False), ("alpha", 2.5, False),
        ("row", 1.5, True), ("alpha", 2.5, True)])
    def test_peak_is_one_node_matrix(self, variant, bound, given_means,
                                     dtype):
        h = random_hypergraph(4000, 400, 20000, seed=0)
        d = 16
        x = np.random.default_rng(0).random((h.n_nodes, d)) < 0.3
        x = x.astype(dtype)
        cfg = PropagationConfig(variant=variant, layers=3,
                                alpha=0.3 if variant == "alpha" else None)
        # the caller's edge means are allocated outside the measured peak
        kwargs = {"edge_means": edge_average(h, x)} if given_means else {}
        # warm-up: any first-call setup in numpy or scipy stays out of
        # the measured peak; the degree scales are built with the graph
        propagate(h, x, cfg, **kwargs)
        tracemalloc.start()
        try:
            propagate(h, x, cfg, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * h.n_nodes * d * 8


class TestConfig:
    def test_alpha_required_in_open_interval(self):
        # a string would be accepted by float() and written to reports
        for bad in (None, 0.0, 1.0, -0.2, 1.5, float("nan"), "0.5"):
            with pytest.raises(InvalidConfigError):
                PropagationConfig(variant="alpha", alpha=bad)
        PropagationConfig(variant="alpha", alpha=0.5)

    def test_alpha_rejected_elsewhere(self):
        with pytest.raises(InvalidConfigError):
            PropagationConfig(variant="row", alpha=0.5)

    def test_layers_at_least_one(self):
        # True would be taken as 1
        for bad in (0, -1, True):
            with pytest.raises(InvalidConfigError):
                PropagationConfig(layers=bad)

    def test_unknown_variant(self):
        with pytest.raises(InvalidConfigError):
            PropagationConfig(variant="diag")
