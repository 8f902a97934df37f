import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from hyperprop import (EmptyGraphError, Hypergraph, IdMap, PropagationConfig,
                       build_hypergraph, fit_naive_bayes,
                       naive_bayes_log_odds, node_average, propagate)

from oracles import scipy_csr
from util import bernoulli_hypergraph, incidence_arrays, random_hypergraph

PAIRS = [("a", "e1"), ("b", "e1"), ("b", "e2"), ("c", "e2")]


def csr_rows(ptr, adj):
    """Each row of a CSR layout as a list of column indices."""
    return [adj[ptr[i]:ptr[i + 1]] for i in range(len(ptr) - 1)]


class TestBuild:
    def test_small_example_counts(self):
        h, maps = build_hypergraph(PAIRS)
        assert h.n_nodes == 3
        assert h.n_edges == 2
        assert h.node_degree.tolist() == [1, 2, 1]
        assert h.edge_degree.tolist() == [2, 2]
        assert h.nnz == 4

    def test_duplicate_pairs_collapse(self):
        h, _ = build_hypergraph([("a", "e1"), ("a", "e1")])
        assert (h.n_nodes, h.n_edges, h.nnz) == (1, 1, 1)
        assert h.node_edge_matrix.data.tolist() == [1.0]  # binary, not 2

    def test_empty_stream_rejected(self):
        with pytest.raises(EmptyGraphError):
            build_hypergraph([])
        with pytest.raises(EmptyGraphError):
            build_hypergraph([], node_universe=["a", "b"])

    @pytest.mark.parametrize("pairs", [[("a", "e", "x")],
                                       [("a", "e"), ("b", "e", "x")],
                                       [("a", "e"), ("b",)]])
    def test_pairs_must_have_two_ids(self, pairs):
        with pytest.raises(ValueError):
            build_hypergraph(pairs)

    def test_first_appearance_indexing(self):
        _, maps = build_hypergraph(PAIRS)
        assert maps.node_ids.ids == ("a", "b", "c")
        assert maps.edge_ids.ids == ("e1", "e2")
        assert maps.node_ids.lookup(["b"]).tolist() == [1]
        assert maps.edge_ids.id_of(1) == "e2"

    def test_node_universe_adds_isolated_nodes(self):
        h, maps = build_hypergraph(PAIRS, node_universe=["z", "a", "b", "c"])
        assert h.n_nodes == 4
        (z,) = maps.node_ids.lookup(["z"])
        assert h.node_degree[z] == 0
        assert h.node_edge_matrix[z].nnz == 0

    def test_adjacency_views_sorted(self):
        # feed pairs in scrambled order; stored rows must come out sorted
        pairs = [("n", "e3"), ("n", "e1"), ("n", "e2"), ("m", "e1")]
        h, _ = build_hypergraph(pairs)
        node_ptr, node_adj, edge_ptr, edge_adj = incidence_arrays(h)
        for row in (csr_rows(node_ptr, node_adj)
                    + csr_rows(edge_ptr, edge_adj)):
            assert row == sorted(row)

    def test_arrays_immutable(self):
        h, _ = build_hypergraph(PAIRS)
        arrays = [h.node_degree, h.edge_degree]
        for matrix in (h.node_edge_matrix, h.edge_node_matrix):
            arrays += [matrix.data, matrix.indices, matrix.indptr]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 99
        with pytest.raises(AttributeError):
            h.node_edge_matrix = None

    def test_adjacency_is_the_matrix_storage(self):
        # H^T is the CSC view of H: each incidence is stored once
        h, _ = build_hypergraph(PAIRS)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(h.node_edge_matrix, name),
                                    getattr(h.edge_node_matrix, name)), name
        assert np.array_equal(h.edge_node_matrix.toarray(),
                              h.node_edge_matrix.toarray().T)

    def test_transpose_view_products_match_its_csr_form(self):
        # both sum each edge's members in ascending node order
        rng = np.random.default_rng(19)
        for _ in range(20):
            h = bernoulli_hypergraph(rng)
            ht = h.edge_node_matrix.tocsr()
            for width in range(1, 9):
                x = rng.normal(size=(h.n_nodes, width))
                assert np.array_equal(h.edge_node_matrix @ x, ht @ x)

    def test_constructor_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="empty hyperedges"):
            Hypergraph([0, 1], [0, 0], 2, 2)   # edge 1 has no member
        with pytest.raises(ValueError):
            Hypergraph([0, -1], [0, 1], 2, 2)  # negative node index
        with pytest.raises(ValueError):
            Hypergraph([0, 1], [0, 2], 2, 2)   # edge index out of range

    @pytest.mark.parametrize("nodes,edges", [
        ([0.7, 1.2], [0, 1]),  # truncated to nodes 0 and 1
        ([0, 1], [0, 1.9]),  # truncated to edges 0 and 1
        ([True, False], [0, 1]),  # read as nodes 1 and 0
        ([0, 1], np.array([False, True])),  # read as edges 0 and 1
    ])
    def test_constructor_rejects_non_integer_indices(self, nodes, edges):
        with pytest.raises(ValueError, match="must be integers"):
            Hypergraph(nodes, edges, 2, 2)

    @pytest.mark.parametrize("n_nodes,n_edges", [(2**62, 2), (2**61 + 1, 4),
                                                 (3, 2**62)])
    def test_constructor_rejects_grid_past_int64_keys(self, n_nodes, n_edges):
        # node * n_edges + edge would overflow int64
        with pytest.raises(ValueError, match=r"n_nodes \* n_edges must be "
                                             r"below 2\*\*63"):
            Hypergraph([0], [0], n_nodes, n_edges)

    def test_constructor_rejects_unequal_lengths(self):
        # a single edge index would otherwise broadcast over every node
        with pytest.raises(ValueError, match="2 node, 1 edge indices"):
            Hypergraph([0, 1], [0], 2, 1)


@st.composite
def incidence_pairs(draw):
    """Index pairs in any order, repeats and isolated nodes included."""
    n_nodes = draw(st.integers(0, 12))
    n_edges = draw(st.integers(0, 8))
    size = draw(st.integers(0, 40)) if n_nodes and n_edges else 0
    nodes = draw(st.lists(st.integers(0, max(n_nodes - 1, 0)),
                          min_size=size, max_size=size))
    edges = draw(st.lists(st.integers(0, max(n_edges - 1, 0)),
                          min_size=size, max_size=size))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint8, np.uint64]))
    return (np.array(nodes, dtype=dtype), np.array(edges, dtype=dtype),
            n_nodes, n_edges)


class TestCsrOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=incidence_pairs())
    def test_csr_arrays_equal_scipys_route(self, case):
        """The CSR arrays equal scipy's COO to CSR conversion with repeats
        summed: the same values and dtypes, whatever the order of the
        pairs; a graph with an empty edge is refused."""
        want = scipy_csr(*case)
        if (np.bincount(want[1], minlength=case[3]) == 0).any():
            with pytest.raises(ValueError, match="empty hyperedges"):
                Hypergraph(*case)
            return
        h = Hypergraph(*case)
        got = h.node_edge_matrix
        assert got.has_canonical_format
        for arr, ref in zip((got.indptr, got.indices, got.data), want):
            assert arr.dtype == ref.dtype
            assert arr.tolist() == ref.tolist()
            assert not arr.flags.writeable

    def test_build_in_memory_bounded_per_incidence(self):
        # int32 indices, as the loaders give them.  One int64 key array,
        # compacted, divided in place and counted, peaks at 22.6 bytes per
        # incidence, the built graph included; the sorted keys beside int64
        # rows and columns peaked at 38.6
        rng = np.random.default_rng(0)
        nodes = rng.integers(40_000, size=200_000).astype(np.int32)
        edges = rng.integers(4_000, size=200_000).astype(np.int32)
        edges[:4_000] = np.arange(4_000)  # no empty edge
        tracemalloc.start()
        try:
            h = Hypergraph(nodes, edges, 40_000, 4_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * h.nnz


class TestIdMap:
    def test_bijection(self):
        im = IdMap(["x", "y", "x", "z"])
        assert im.lookup(["x", "y", "x", "z"]).tolist() == [0, 1, 0, 2]
        assert len(im) == 3
        assert im.ids == ("x", "y", "z")
        assert im.ids is im.ids  # the stored tuple, not a copy
        for k in ("x", "y", "z"):
            assert im.id_of(im.lookup([k])[0]) == k
        assert "w" not in im

    def test_bulk_lookup(self):
        im = IdMap(["a", "b", "a"])
        assert im.lookup(["b", "missing", "a", "b"]).tolist() == [1, -1, 0, 1]
        assert im.lookup([]).dtype == np.intp


class TestStructureInvariants:
    def test_transpose_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = bernoulli_hypergraph(rng, max_nodes=100, max_edges=100)
            node_ptr, node_adj, edge_ptr, edge_adj = incidence_arrays(h)
            rebuilt = [[] for _ in range(h.n_nodes)]
            for j, members in enumerate(csr_rows(edge_ptr, edge_adj)):
                for i in members:
                    rebuilt[i].append(j)
            assert rebuilt == csr_rows(node_ptr, node_adj)

    def test_degree_sums_equal_nnz(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            h = bernoulli_hypergraph(rng)
            assert h.node_degree.sum() == h.nnz
            assert h.edge_degree.sum() == h.nnz
            assert (h.edge_degree >= 1).all()

    def test_order_insensitive_up_to_id_order(self):
        rng = np.random.default_rng(13)
        pairs = [(f"n{i}", f"e{j}") for i in range(12) for j in range(8)
                 if rng.random() < 0.3]
        h1, m1 = build_hypergraph(pairs)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        h2, m2 = build_hypergraph(shuffled)
        as_ids = lambda h, m: {
            (m.node_ids.id_of(i), m.edge_ids.id_of(j))
            for i, row in enumerate(csr_rows(*incidence_arrays(h)[:2]))
            for j in row
        }
        assert as_ids(h1, m1) == as_ids(h2, m2)

    def test_identical_id_order_gives_identical_arrays(self):
        rng = np.random.default_rng(17)
        pairs = [(f"n{i}", f"e{j}") for i in range(10) for j in range(6)
                 if rng.random() < 0.4]
        tail = list(pairs)
        rng.shuffle(tail)
        h1, _ = build_hypergraph(pairs)
        h2, _ = build_hypergraph(pairs + tail)  # same first appearances
        assert incidence_arrays(h1) == incidence_arrays(h2)


class TestImmutable:
    """A graph is built whole: using it, from any number of threads,
    changes nothing it holds."""

    @staticmethod
    def graph():
        # nodes 300-319 are isolated
        coo = random_hypergraph(300, 60, 1500, seed=2).node_edge_matrix.tocoo()
        return Hypergraph(coo.row, coo.col, 320, 60)

    def test_threads_change_nothing(self):
        h = self.graph()
        before = dict(vars(h))
        rng = np.random.default_rng(0)
        x = rng.random((h.n_nodes, 3))
        r = rng.random((h.n_edges, 3))
        labels = rng.integers(-1, 2, size=(h.n_nodes, 3))
        ranked = rng.permutation(h.n_nodes)[:40]
        configs = [PropagationConfig(variant=v, layers=2,
                                     alpha=0.3 if v == "alpha" else None)
                   for v in ("row", "column", "symmetric", "alpha")]

        def use(_):
            for cfg in configs:
                propagate(h, x, cfg)
                propagate(h, x, cfg, nodes=ranked)
            node_average(h, r)
            model = fit_naive_bayes(h, labels)
            naive_bayes_log_odds(model, h)
            naive_bayes_log_odds(model, h, ranked)

        # more threads than cores, switching often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(use, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        after = vars(h)
        assert after.keys() == before.keys()
        for name, value in after.items():
            assert value is before[name], name
            # a graph holds arrays only, so nothing it holds can grow
            if sp.issparse(value):
                arrays = [value.data, value.indices, value.indptr]
            else:
                assert isinstance(value, np.ndarray), name
                arrays = [value]
            for arr in arrays:
                assert not arr.flags.writeable, name

    def test_arrays_own_their_memory(self):
        # summing the duplicate pairs leaves scipy's arrays as views over
        # longer, writable ones
        coo = random_hypergraph(300, 60, 1500, seed=2).node_edge_matrix.tocoo()
        h = Hypergraph(np.r_[coo.row, coo.row[:500]],
                       np.r_[coo.col, coo.col[:500]], 320, 60)
        assert h.nnz == coo.nnz
        for name, value in vars(h).items():
            arrays = ([value.data, value.indices, value.indptr]
                      if sp.issparse(value) else [value])
            for arr in arrays:
                base = arr.base
                while base is not None:  # nothing writes through a base
                    assert not base.flags.writeable, name
                    assert base.size == arr.size, name
                    base = base.base

    @pytest.mark.parametrize("name,power", [("inv_node_degree", 1.0),
                                            ("inv_sqrt_node_degree", 0.5)])
    def test_degree_scales(self, name, power):
        h = self.graph()
        scale = getattr(h, name)
        assert scale.shape == (h.n_nodes, 1) and scale.dtype == np.float64
        deg = h.node_degree.astype(np.float64)
        want = np.zeros(h.n_nodes)
        want[deg > 0] = 1.0 / deg[deg > 0] ** power
        assert np.array_equal(scale[:, 0], want)
        assert (h.node_degree[300:] == 0).all() and (scale[300:] == 0).all()


class TestRandomHypergraph:
    def test_exact_nnz_and_no_empty_edges(self):
        h = random_hypergraph(200, 40, 500, seed=3)
        assert (h.n_nodes, h.n_edges, h.nnz) == (200, 40, 500)
        assert h.edge_degree.min() >= 1

    def test_deterministic(self):
        a = random_hypergraph(100, 20, 300, seed=5)
        b = random_hypergraph(100, 20, 300, seed=5)
        assert incidence_arrays(a) == incidence_arrays(b)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            random_hypergraph(10, 5, 4, seed=0)   # nnz < n_edges
        with pytest.raises(ValueError):
            random_hypergraph(2, 2, 5, seed=0)    # nnz > n * m

    def test_rejects_grid_past_int64_keys(self):
        # node * n_edges + edge keys would overflow int64 deep inside
        with pytest.raises(ValueError, match=r"n_nodes \* n_edges must be "
                                             r"below 2\*\*63"):
            random_hypergraph(2**62, 4, 4, seed=0)
