"""Immutable hypergraph structure stored as one CSR incidence matrix.

A hypergraph is a set of nodes plus a family of hyperedges, each hyperedge
an arbitrary nonempty subset of nodes.  The structure is equivalent to a
binary incidence matrix ``H`` of shape ``(n_nodes, n_edges)`` with
``H[i, j] = 1`` iff node ``i`` belongs to hyperedge ``j``.  A
:class:`Hypergraph` stores exactly ``H``, as a scipy CSR matrix (node ->
incident edges), and exposes ``H^T`` as ``H``'s CSC view, which shares
its arrays: each incidence is stored once.  The CSR arrays come from
one sort of the int64 keys ``node * n_edges + edge``, with repeats
dropped, not from scipy's COO conversion; their index dtype is the one
scipy picks, int32 whenever the sizes fit.  Index arrays that are not
integers, such as floats or booleans, are refused, not truncated.

Instances are deeply immutable (attributes cannot be rebound and every
array, values included, is read-only with no writable array beneath it;
the degree scales are built with the graph) and safe to share across
threads.

:func:`build_hypergraph` interns in-memory pairs of hashable ids with one
dict pass per side.  File loaders intern ids from the file bytes instead
and pass :class:`InternedPairs`, whose node ids may already start with a
node universe's (see :mod:`hyperprop.io`); otherwise a node universe is
merged against the distinct node ids only, and with no universe the
pairs' indices are used as they are.
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
        index: dict[Hashable, int] = dict.fromkeys(ids)
        self._ids: tuple = tuple(index)
        index.update(zip(self._ids, range(len(self._ids))))  # no new keys
        self._index = index

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
    """Hypergraph stored as its incidence matrix ``H``.

    Parameters
    ----------
    nodes, edges : 1-D integer arrays of equal length
        Incidence ``k`` puts node ``nodes[k]`` in hyperedge ``edges[k]``.
        Duplicate pairs collapse (incidence is binary).
    n_nodes, n_edges : int
        Sizes of the two index spaces; isolated nodes (degree 0) are
        legal, but every hyperedge needs at least one member node.

    :attr:`node_edge_matrix` is ``H`` as a canonical scipy CSR matrix
    (rows sorted, no duplicates) with float64 ones as values, and
    :attr:`edge_node_matrix` is ``H^T``, the CSC view of the same arrays,
    which copies nothing.  Both sum each edge's members in ascending node
    order.  The degree arrays and the scales ``D^-1``
    (:attr:`inv_node_degree`) and ``D^-1/2`` (:attr:`inv_sqrt_node_degree`),
    ``(n_nodes, 1)`` columns that are 0 on isolated nodes (``1/0 := 0``),
    are computed once, at construction.

    Raises
    ------
    ValueError
        For index arrays that are not 1-D integer arrays of equal length,
        an index outside ``[0, n_nodes)`` or ``[0, n_edges)``, sizes with
        ``n_nodes * n_edges >= 2**63`` (the int64 keys of the CSR sort
        would overflow), or a hyperedge with no member node.
    """

    node_edge_matrix: sp.csr_matrix
    edge_node_matrix: sp.csc_matrix  # H.T: a view of node_edge_matrix
    node_degree: np.ndarray  # edges per node: the diagonal of D
    edge_degree: np.ndarray  # member nodes per edge: the diagonal of B
    inv_node_degree: np.ndarray  # D^-1 as a column
    inv_sqrt_node_degree: np.ndarray  # D^-1/2 as a column

    def __init__(self, nodes, edges, n_nodes: int, n_edges: int):
        if int(n_nodes) * int(n_edges) >= 2**63:  # the keys below are int64
            raise ValueError("n_nodes * n_edges must be below 2**63")
        nodes = _check_indices(nodes, n_nodes, ValueError)
        edges = _check_indices(edges, n_edges, ValueError)
        if nodes.size != edges.size:
            raise ValueError(f"{nodes.size} node, {edges.size} edge indices")
        # one sort of the exact keys node * n_edges + edge: H in CSR order
        key = np.multiply(nodes, n_edges, dtype=np.int64)
        np.add(key, edges, out=key, casting="unsafe")
        key.sort()
        new = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        rows, cols = np.divmod(key[new], n_edges)  # duplicate pairs collapse
        del key, new
        idx = (np.int32 if max(n_nodes, n_edges, nodes.size) < 2**31
               else np.int64)  # scipy's choice: int32 while the sizes fit
        indptr = np.r_[0, np.bincount(rows, minlength=n_nodes).cumsum()]
        h = sp.csr_matrix(tuple(map(_read_only, (  # scipy keeps views of them
            np.ones(cols.size), cols.astype(idx), indptr.astype(idx)))),
            shape=(n_nodes, n_edges))
        edge_degree = np.bincount(h.indices, minlength=n_edges)
        if n_edges and edge_degree.min() < 1:
            raise ValueError("empty hyperedges are not allowed")
        node_degree = np.diff(h.indptr)
        object.__setattr__(self, "node_edge_matrix", h)
        object.__setattr__(self, "edge_node_matrix", h.T)
        object.__setattr__(self, "node_degree", _read_only(node_degree))
        object.__setattr__(self, "edge_degree", _read_only(edge_degree))
        deg = node_degree.astype(np.float64)
        for name, power in (("inv_node_degree", 1.0),
                            ("inv_sqrt_node_degree", 0.5)):
            inv = np.zeros_like(deg)
            np.divide(1.0, deg**power, out=inv, where=deg > 0)
            object.__setattr__(self, name, _read_only(inv)[:, None])

    @property
    def n_nodes(self) -> int:
        return self.node_edge_matrix.shape[0]

    @property
    def n_edges(self) -> int:
        return self.node_edge_matrix.shape[1]

    @property
    def nnz(self) -> int:
        """Number of (node, edge) incidences; equals both degree sums."""
        return self.node_edge_matrix.nnz

    def __repr__(self) -> str:
        return (f"Hypergraph(n_nodes={self.n_nodes}, n_edges={self.n_edges}, "
                f"nnz={self.nnz})")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_indices(indices, size: int, error=ShapeError) -> np.ndarray:
    """``indices`` as a 1-D integer array of indices in ``[0, size)``.

    Raises ``error`` for any other shape, for a non-integer array, such
    as a boolean mask (numpy would read it as indices 0 and 1) or floats
    (which would be truncated), and for an index outside the range (numpy
    would wrap a negative index or raise ``IndexError``).
    """
    arr = np.asarray(indices)
    if arr.ndim != 1:
        raise error(f"indices must be 1-D, got {arr.ndim}-D")
    if not arr.size:
        return arr.astype(np.int64)  # an empty list is float64
    if arr.dtype.kind not in "iu":
        raise error(f"indices must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= size:
        bad = arr[(arr < 0) | (arr >= size)][0]
        raise error(f"index {bad} outside [0, {size})")
    return arr


@dataclass(frozen=True)
class InternedPairs:
    """(node, edge) pairs given as indices into each side's distinct ids.

    Pair ``i`` is ``(node_ids[nodes[i]], edge_ids[edges[i]])``; each id
    list holds distinct ids, and ``len()`` is the number of pairs.
    ``edge_ids`` are in first-appearance order.  So are ``node_ids``, or
    they start with a node universe's distinct ids, in its order, and go
    on with the ids first seen in the pairs: universe ids that no pair
    uses become isolated nodes, with degree 0.
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

    The ids are mapped to dense indices and the index pairs handed to
    :class:`Hypergraph`, which stores them once, as the CSR matrix ``H``.

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
        ``pairs`` are looked up in it; with no universe nothing is looked
        up.

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
    nodes = (pairs.nodes if node_universe is None  # distinct ids: as they are
             else node_map.lookup(pairs.node_ids)[pairs.nodes])
    edge_map = IdMap(pairs.edge_ids)
    h = Hypergraph(nodes, pairs.edges, len(node_map), len(edge_map))
    return h, IdMaps(node_ids=node_map, edge_ids=edge_map)

