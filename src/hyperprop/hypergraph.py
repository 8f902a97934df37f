"""Immutable hypergraph structure stored as two CSR incidence matrices.

A hypergraph is a set of nodes plus a family of hyperedges, each hyperedge
an arbitrary nonempty subset of nodes.  The structure is equivalent to a
binary incidence matrix ``H`` of shape ``(n_nodes, n_edges)`` with
``H[i, j] = 1`` iff node ``i`` belongs to hyperedge ``j``.  A
:class:`Hypergraph` stores exactly ``H`` and ``H^T`` as scipy CSR
matrices: node -> incident edges (rows of ``H``) and hyperedge -> member
nodes (rows of ``H^T``), so either direction of traversal is contiguous.
The two matrices share one float64 buffer of ones as their values, and
their index arrays use the dtype scipy picks, int32 whenever the sizes
fit.

Instances are deeply immutable (attributes cannot be rebound and every
array, values included, is read-only) and safe to share across threads.

:func:`build_hypergraph` interns in-memory pairs of hashable ids with one
dict pass per side.  File loaders intern ids from the file bytes instead
and pass :class:`InternedPairs`; either way a node universe is merged
against the distinct node ids only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, repeat
from typing import Hashable, Iterable

import numpy as np
import scipy.sparse as sp

from .errors import EmptyGraphError, ShapeError


class IdMap:
    """Bijection between external identifiers and dense indices ``[0, n)``.

    Indices follow first appearance in ``ids``, so construction is
    deterministic.  The map is immutable: its ids are held as one tuple.
    """

    __slots__ = ("_index", "_ids")

    def __init__(self, ids: Iterable[Hashable]):
        self._ids: tuple = tuple(dict.fromkeys(ids))
        self._index: dict[Hashable, int] = dict(
            zip(self._ids, range(len(self._ids))))

    def lookup(self, keys: Iterable[Hashable]) -> np.ndarray:
        """Dense index of each of ``keys``, -1 for a key not in the map."""
        keys = list(keys)
        return np.fromiter(map(self._index.get, keys, repeat(-1)),
                           dtype=np.intp, count=len(keys))

    def id_of(self, index: int) -> Hashable:
        """External identifier stored at dense ``index``."""
        return self._ids[index]

    @property
    def ids(self) -> tuple:
        """All identifiers, in dense-index order."""
        return self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index


@dataclass(frozen=True)
class IdMaps:
    """External-identifier maps for the two index spaces of a hypergraph."""

    node_ids: IdMap
    edge_ids: IdMap


@dataclass(frozen=True, eq=False, init=False)
class Hypergraph:
    """Hypergraph stored as its incidence matrix and that matrix's transpose.

    Parameters
    ----------
    node_ptr, node_adj : 1-D integer arrays
        CSR layout of the node -> edge view. ``node_adj[node_ptr[i]:
        node_ptr[i+1]]`` are the hyperedges incident to node ``i``, strictly
        increasing.
    edge_ptr, edge_adj : 1-D integer arrays
        CSR layout of the hyperedge -> node view, same convention.

    The incidence is stored once, as two scipy CSR matrices built from the
    validated arrays, :attr:`node_edge_matrix` (``H``) and
    :attr:`edge_node_matrix` (``H^T``), sharing one float64 buffer of ones
    as values.  The four array attributes read their ``indptr``/``indices``
    back, in the index dtype scipy picks (int32 when the sizes fit).
    Integer arrays are taken over, not copied, and made read-only.  The
    degree arrays are computed once, at construction, and each power of
    ``D^-1`` once, on first use (:meth:`inv_node_degree`).

    Incidence is binary: a given (node, edge) pair is stored at most once.
    Every hyperedge has at least one member node; isolated nodes (degree 0)
    are legal.  Use :func:`build_hypergraph` rather than constructing
    directly from arrays.
    """

    node_edge_matrix: sp.csr_matrix
    edge_node_matrix: sp.csr_matrix
    node_degree: np.ndarray  # edges per node: the diagonal of D
    edge_degree: np.ndarray  # member nodes per edge: the diagonal of B
    _inv_degree: dict  # power -> D^-power column, filled on first use

    def __init__(self, node_ptr, node_adj, edge_ptr, edge_adj):
        arrays = [np.asarray(a) for a in (node_ptr, node_adj, edge_ptr, edge_adj)]
        node_ptr, node_adj, edge_ptr, edge_adj = (
            a if a.dtype.kind == "i" else a.astype(np.int64) for a in arrays)
        n_nodes, n_edges = node_ptr.size - 1, edge_ptr.size - 1
        _check_csr(node_ptr, node_adj, n_edges, "node")
        _check_csr(edge_ptr, edge_adj, n_nodes, "edge")
        if node_adj.size != edge_adj.size:
            raise ValueError("node and edge views disagree on incidence count")
        if n_edges and np.diff(edge_ptr).min() < 1:
            raise ValueError("empty hyperedges are not allowed")
        ones = _read_only(np.ones(node_adj.size))
        for name, matrix in (
                ("node_edge_matrix", sp.csr_matrix(
                    (ones, node_adj, node_ptr), shape=(n_nodes, n_edges))),
                ("edge_node_matrix", sp.csr_matrix(
                    (ones, edge_adj, edge_ptr), shape=(n_edges, n_nodes)))):
            for arr in (matrix.data, matrix.indices, matrix.indptr):
                arr.setflags(write=False)
            object.__setattr__(self, name, matrix)
        object.__setattr__(self, "node_degree",
                           _read_only(np.diff(self.node_ptr)))
        object.__setattr__(self, "edge_degree",
                           _read_only(np.diff(self.edge_ptr)))
        object.__setattr__(self, "_inv_degree", {})

    # -- storage views ----------------------------------------------------

    @property
    def node_ptr(self) -> np.ndarray:
        """Row offsets of ``H``: node ``i``'s edges start at ``node_ptr[i]``."""
        return self.node_edge_matrix.indptr

    @property
    def node_adj(self) -> np.ndarray:
        """Hyperedge indices of ``H``, node by node."""
        return self.node_edge_matrix.indices

    @property
    def edge_ptr(self) -> np.ndarray:
        """Row offsets of ``H^T``: edge ``j``'s members start at ``edge_ptr[j]``."""
        return self.edge_node_matrix.indptr

    @property
    def edge_adj(self) -> np.ndarray:
        """Node indices of ``H^T``, hyperedge by hyperedge."""
        return self.edge_node_matrix.indices

    # -- sizes ------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.node_edge_matrix.shape[0]

    @property
    def n_edges(self) -> int:
        return self.node_edge_matrix.shape[1]

    @property
    def nnz(self) -> int:
        """Number of (node, edge) incidences; equals both degree sums."""
        return self.node_adj.size

    def inv_node_degree(self, power: float = 1.0) -> np.ndarray:
        """``deg(u)^-power`` per node as a read-only ``(n_nodes, 1)`` column.

        Isolated nodes get 0 (the pseudo-inverse convention ``1/0 := 0``),
        so they send and receive nothing through ``D^-power``.  Computed
        once per graph and power; threads racing on the first call compute
        equal arrays and keep one of them.
        """
        scale = self._inv_degree.get(power)
        if scale is None:
            deg = self.node_degree.astype(np.float64)
            inv = np.zeros_like(deg)
            np.divide(1.0, deg**power, out=inv, where=deg > 0)
            scale = self._inv_degree.setdefault(power, _read_only(inv[:, None]))
        return scale

    # -- traversal --------------------------------------------------------

    def edges_of(self, node: int) -> np.ndarray:
        """Sorted hyperedge indices incident to ``node`` (read-only view)."""
        return self.node_adj[self.node_ptr[node]:self.node_ptr[node + 1]]

    def nodes_of(self, edge: int) -> np.ndarray:
        """Sorted member node indices of ``edge`` (read-only view)."""
        return self.edge_adj[self.edge_ptr[edge]:self.edge_ptr[edge + 1]]

    def __repr__(self) -> str:
        return (f"Hypergraph(n_nodes={self.n_nodes}, n_edges={self.n_edges}, "
                f"nnz={self.nnz})")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_nodes(nodes, h: Hypergraph) -> np.ndarray:
    """``nodes`` as an int64 array of node ids in ``[0, n_nodes)``.

    Raises :class:`ShapeError` for a non-integer array, such as a boolean
    mask (numpy would read it as ids 0 and 1), and for an id outside the
    range (numpy would wrap a negative id or raise ``IndexError``).
    """
    arr = np.asarray(nodes)
    if arr.size and arr.dtype.kind not in "iu":
        raise ShapeError(f"node ids must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    bad = (arr < 0) | (arr >= h.n_nodes)
    if bad.any():
        raise ShapeError(f"node id {arr[bad][0]} outside [0, {h.n_nodes})")
    return arr


def _check_csr(ptr, adj, n_cols, what):
    if ptr.ndim != 1 or adj.ndim != 1 or ptr.size < 1:
        raise ValueError(f"malformed {what} CSR arrays")
    if ptr[0] != 0 or ptr[-1] != adj.size or np.any(np.diff(ptr) < 0):
        raise ValueError(f"{what}_ptr is not a valid offset array")
    if adj.size:
        if adj.min() < 0 or adj.max() >= n_cols:
            raise ValueError(f"{what}_adj index out of range")
        # strictly increasing within each row <=> sorted and duplicate-free
        inner = np.ones(adj.size, dtype=bool)
        starts = ptr[1:-1]
        inner[starts[starts < adj.size]] = False
        if np.any(adj[1:][inner[1:]] <= adj[:-1][inner[1:]]):
            raise ValueError(f"{what}_adj rows must be strictly increasing")


def _structure_from_indices(nodes, edges, n_nodes, n_edges) -> Hypergraph:
    """Build a Hypergraph from parallel (node, edge) index arrays.

    Duplicate pairs collapse (incidence is binary).
    """
    h = sp.csr_matrix((np.ones(len(nodes)), (nodes, edges)),
                      shape=(n_nodes, n_edges))
    h.sum_duplicates()
    ht = h.T.tocsr()
    return Hypergraph(h.indptr, h.indices, ht.indptr, ht.indices)


@dataclass(frozen=True)
class InternedPairs:
    """(node, edge) pairs given as indices into each side's distinct ids.

    Pair ``i`` is ``(node_ids[nodes[i]], edge_ids[edges[i]])``; each id
    list holds distinct ids in first-appearance order, so its index arrays
    number them by first appearance.  ``len()`` is the number of pairs.
    """

    node_ids: list
    nodes: np.ndarray
    edge_ids: list
    edges: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)


def _intern(keys) -> tuple[list, np.ndarray]:
    """Intern a sequence of keys: its distinct keys and each key's index.

    One dict pass maps every key to the position of its first occurrence;
    a key's dense index is the rank of that position among all of them.
    """
    first: dict[Hashable, int] = {}
    at = np.fromiter(map(first.setdefault, keys, count()), dtype=np.intp,
                     count=len(keys))
    rank = np.empty(len(keys), dtype=np.intp)
    rank[np.fromiter(first.values(), dtype=np.intp, count=len(first))] = (
        np.arange(len(first)))
    return list(first), rank[at]


def build_hypergraph(
    pairs: Iterable[tuple[Hashable, Hashable]] | InternedPairs,
    node_universe: Iterable[Hashable] | None = None,
) -> tuple[Hypergraph, IdMaps]:
    """Construct a hypergraph from a stream of (node id, edge id) pairs.

    Parameters
    ----------
    pairs : iterable of (node identifier, edge identifier), or InternedPairs
        Arbitrary hashable identifiers, interned here with one dict pass
        per side; :func:`~hyperprop.io.load_incidence` passes its file's
        pairs already interned.  Duplicate pairs collapse silently; dense
        indices follow first appearance in the stream.
    node_universe : iterable of node identifiers, optional
        Identifiers interned (in the given order) before reading ``pairs``,
        so that nodes carrying labels but appearing in no incidence pair
        still exist, with degree 0.  Only the distinct node ids of
        ``pairs`` are looked up in it.

    Returns
    -------
    (Hypergraph, IdMaps)

    Raises
    ------
    EmptyGraphError
        If ``pairs`` yields nothing.
    """
    if not isinstance(pairs, InternedPairs):
        nodes, edges = list(zip(*pairs, strict=True)) or ((), ())
        pairs = InternedPairs(*_intern(nodes), *_intern(edges))
    if not len(pairs):
        raise EmptyGraphError("incidence stream contains no (node, edge) pairs")
    universe = () if node_universe is None else node_universe
    node_map = IdMap(chain(universe, pairs.node_ids))
    edge_map = IdMap(pairs.edge_ids)
    h = _structure_from_indices(node_map.lookup(pairs.node_ids)[pairs.nodes],
                                pairs.edges, len(node_map), len(edge_map))
    return h, IdMaps(node_ids=node_map, edge_ids=edge_map)


def random_hypergraph(n_nodes: int, n_edges: int, nnz: int, seed: int) -> Hypergraph:
    """Seeded random hypergraph with exactly ``nnz`` distinct incidences.

    Each hyperedge receives one guaranteed member node, then the remaining
    ``nnz - n_edges`` incidences are sampled uniformly without replacement
    from the rest of the (node, edge) grid.  Intended for benchmarks and
    scaling experiments; nodes missed by sampling stay isolated.

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
    return _structure_from_indices(keys // n_edges, keys % n_edges,
                                   n_nodes, n_edges)
