"""Shared random-instance generators for the test suite."""

import numpy as np

from hyperprop import Hypergraph, build_hypergraph


def bernoulli_hypergraph(rng, max_nodes=50, max_edges=30, p=0.2):
    """Random hypergraph: each (node, edge) incidence drawn iid with prob p.

    Edges that draw no members simply do not exist; every node of the
    universe exists, so isolated nodes are common.  Always yields at least
    one incidence pair.
    """
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(1, max_edges + 1))
    rows, cols = (rng.random((n, m)) < p).nonzero()
    pairs = list(zip(rows.tolist(), cols.tolist()))
    if not pairs:
        pairs = [(0, 0)]
    h, _ = build_hypergraph(pairs, node_universe=range(n))
    return h


def incidence_arrays(h):
    """The CSR ``indptr``/``indices`` of ``H`` and of ``H^T``, as four lists.

    ``H^T`` is stored only as a view of ``H``; its CSR form is built here,
    so two graphs compare equal on all four only if both directions of
    traversal agree.  Lists compare with ``==`` whatever the index dtype.
    """
    ht = h.edge_node_matrix.tocsr()
    return tuple(a.tolist() for a in (h.node_edge_matrix.indptr,
                                      h.node_edge_matrix.indices,
                                      ht.indptr, ht.indices))


def random_signal(rng, n_rows, max_cols=4):
    d = int(rng.integers(1, max_cols + 1))
    return rng.normal(size=(n_rows, d))


def ordinary_graph(rng, max_nodes=30, extra_edges=20):
    """Random simple graph encoded as degree-2 hyperedges, no isolated nodes.

    A path over all nodes guarantees positive degree everywhere; extra
    distinct edges are sprinkled on top.  Returns the hypergraph plus the
    dense simple-graph adjacency matrix.
    """
    n = int(rng.integers(3, max_nodes + 1))
    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(extra_edges):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((min(int(i), int(j)), max(int(i), int(j))))
    pairs = []
    for e, (i, j) in enumerate(sorted(edges)):
        pairs.append((i, e))
        pairs.append((j, e))
    h, _ = build_hypergraph(pairs, node_universe=range(n))
    adjacency = np.zeros((n, n))
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1.0
    return h, adjacency


def random_hypergraph(n_nodes: int, n_edges: int, nnz: int, seed: int) -> Hypergraph:
    """Seeded random hypergraph with exactly ``nnz`` distinct incidences.

    Each hyperedge receives one guaranteed member node, then the remaining
    ``nnz - n_edges`` incidences are sampled uniformly without replacement
    from the rest of the (node, edge) grid.  Nodes missed by sampling stay
    isolated.

    Raises
    ------
    ValueError
        If ``nnz < n_edges`` or ``nnz > n_nodes * n_edges``, or if the
        grid has ``2**63`` cells or more: sampled cells are int64 keys.
    """
    if n_nodes < 1 or n_edges < 1:
        raise ValueError("need at least one node and one edge")
    if n_nodes * n_edges >= 2**63:
        raise ValueError(f"n_nodes * n_edges must be below 2**63, "
                         f"got {n_nodes * n_edges}")
    if not n_edges <= nnz <= n_nodes * n_edges:
        raise ValueError(f"nnz must lie in [{n_edges}, {n_nodes * n_edges}]")
    rng = np.random.default_rng(seed)
    base = rng.integers(0, n_nodes, size=n_edges) * n_edges + np.arange(n_edges)
    extras = np.empty(0, dtype=np.int64)
    need = nnz - n_edges
    while extras.size < need:
        draw = rng.integers(0, n_nodes, size=2 * (need - extras.size) + 16) * n_edges
        draw += rng.integers(0, n_edges, size=draw.size)
        extras = np.setdiff1d(np.union1d(extras, draw), base)
    if extras.size > need:
        extras = rng.choice(extras, size=need, replace=False)
    keys = np.concatenate([base, extras])
    return Hypergraph(keys // n_edges, keys % n_edges, n_nodes, n_edges)


def scaled_before_gather(h: Hypergraph, x, variant: str) -> np.ndarray:
    """``S x``, ``S`` the degree scale ``variant`` applies before its first
    gather, so ``edge_average(h, scaled_before_gather(h, x, variant))`` is
    the ``edge_means=`` of ``propagate``; written out here, not read from
    the engine's table."""
    x = np.asarray(x)
    scale = {"column": h.inv_node_degree,
             "symmetric": h.inv_sqrt_node_degree}.get(variant)
    if scale is None:
        return x
    return (scale[:, 0] if x.ndim == 1 else scale) * x
