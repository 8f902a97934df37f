"""Immutable hypergraph structure stored as one CSR incidence matrix.

A hypergraph is a set of nodes plus a family of hyperedges, each hyperedge
an arbitrary nonempty subset of nodes.  The structure is equivalent to a
binary incidence matrix ``H`` of shape ``(n_nodes, n_edges)`` with
``H[i, j] = 1`` iff node ``i`` belongs to hyperedge ``j``.  A
:class:`Hypergraph` stores exactly ``H``, as a scipy CSR matrix (node ->
incident edges), and exposes ``H^T`` as ``H``'s CSC view, which shares
its arrays: each incidence is stored once.  Its index arrays use the
dtype scipy picks, int32 whenever the sizes fit.

Instances are deeply immutable (attributes cannot be rebound and every
array, values included, is read-only with no writable array beneath it;
the degree scales are built with the graph) and safe to share across
threads.

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
        For an index outside ``[0, n_nodes)`` or ``[0, n_edges)`` (scipy's
        check), or a hyperedge with no member node.
    """

    node_edge_matrix: sp.csr_matrix
    edge_node_matrix: sp.csc_matrix  # H.T: a view of node_edge_matrix
    node_degree: np.ndarray  # edges per node: the diagonal of D
    edge_degree: np.ndarray  # member nodes per edge: the diagonal of B
    inv_node_degree: np.ndarray  # D^-1 as a column
    inv_sqrt_node_degree: np.ndarray  # D^-1/2 as a column

    def __init__(self, nodes, edges, n_nodes: int, n_edges: int):
        h = sp.csr_matrix((np.ones(len(nodes)), (nodes, edges)),
                          shape=(n_nodes, n_edges))
        h.sum_duplicates()
        # arrays of exactly nnz entries that own their memory: scipy's are
        # views over writable arrays, longer if pairs were summed
        h.data = np.ones(h.nnz)
        if h.indices.base is not None:
            h.indices = h.indices.copy()
        for arr in (h.data, h.indices, h.indptr):
            arr.setflags(write=False)
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


def _check_nodes(nodes, h: Hypergraph) -> np.ndarray:
    """``nodes`` as a 1-D int64 array of node ids in ``[0, n_nodes)``.

    Raises :class:`ShapeError` for any other shape, for a non-integer
    array, such as a boolean mask (numpy would read it as ids 0 and 1),
    and for an id outside the range (numpy would wrap a negative id or
    raise ``IndexError``).
    """
    arr = np.asarray(nodes)
    if arr.ndim != 1:
        raise ShapeError(f"nodes must be 1-D, got {arr.ndim}-D")
    if arr.size and arr.dtype.kind not in "iu":
        raise ShapeError(f"node ids must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    bad = (arr < 0) | (arr >= h.n_nodes)
    if bad.any():
        raise ShapeError(f"node id {arr[bad][0]} outside [0, {h.n_nodes})")
    return arr


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
    h = Hypergraph(node_map.lookup(pairs.node_ids)[pairs.nodes], pairs.edges,
                   len(node_map), len(edge_map))
    return h, IdMaps(node_ids=node_map, edge_ids=edge_map)

