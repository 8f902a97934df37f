"""Sparse averaging signal propagation over hypergraphs.

One propagation layer averages a node signal into the hyperedges and then
averages the hyperedge values back into the nodes.  In matrix form, with
incidence ``H``, node-degree matrix ``D`` and edge-degree matrix ``B``,
the basic (row-normalized) layer is::

    X' = D^-1 H B^-1 H^T X

computed as two sparse passes, never materializing the ``n x n`` kernel
``H B^-1 H^T``.  Three further normalizations are provided:

``column``
    ``X' = H B^-1 H^T D^-1 X`` -- rows of X are pre-scaled by ``1/deg(u)``,
    edge averages are then *summed* (not averaged) back into nodes.
``symmetric``
    ``X' = D^-1/2 H B^-1 H^T D^-1/2 X``.
``alpha``
    ``X' = 2a * D^-1 H B^-1 H^T X + (1 - 2a) * X`` for ``a in (0, 1)``,
    the hypergraph form of classic label propagation; ``a = 1/2`` reduces
    to the ``row`` variant.

Degree reciprocals follow the pseudo-inverse convention ``1/0 := 0``
(:attr:`Hypergraph.inv_node_degree` and ``inv_sqrt_node_degree``, built
with the graph), so isolated nodes send and receive nothing through the
kernel: their rows stay 0 under ``row``/``column``/``symmetric``, while
the ``alpha`` residual term keeps ``(1 - 2a) * x`` there.

Signals are plain float arrays: shape ``(n_nodes,)`` or ``(n_nodes, d)``
on the node side, ``(n_edges,)`` or ``(n_edges, d)`` on the edge side.
All functions are pure; inputs are never modified.

:func:`propagate` holds one ``n_nodes x d`` matrix at a time besides the
caller's input: each layer frees the previous signal before its scatter
allocates the next, and scales its own arrays in place.  Its peak is
that matrix plus the ``n_edges x d`` edge averages; ``alpha`` holds one
more node matrix, the previous signal its residual blends in.  A signal
of another dtype (a boolean seed, say) is converted once, and the copy
counts as the first layer's matrix; boolean and integer signals skip the
finiteness scan, since they cannot hold NaN or inf.  ``row`` and
``alpha`` start each layer with the gather ``B^-1 H^T x``, so a caller
that already has its first result passes it as ``edge_means=`` and that
gather is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InvalidConfigError, ShapeError
from .hypergraph import Hypergraph, _check_nodes

VARIANTS = ("row", "column", "symmetric", "alpha")


@dataclass(frozen=True)
class PropagationConfig:
    """Variant selector plus layer count for :func:`propagate`.

    ``alpha`` is required (in the open interval (0, 1)) when
    ``variant == "alpha"`` and must be left ``None`` otherwise.
    """

    variant: str = "row"
    layers: int = 1
    alpha: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidConfigError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if (isinstance(self.layers, bool)
                or not isinstance(self.layers, (int, np.integer))
                or self.layers < 1):
            raise InvalidConfigError("layers must be an integer >= 1")
        # a numpy scalar would fail only when a report is written
        object.__setattr__(self, "layers", int(self.layers))
        if self.variant == "alpha":
            if (not isinstance(self.alpha, Real)
                    or not 0.0 < float(self.alpha) < 1.0):
                raise InvalidConfigError(
                    "alpha variant requires alpha in the open interval (0, 1)")
            object.__setattr__(self, "alpha", float(self.alpha))
        elif self.alpha is not None:
            raise InvalidConfigError(
                f"alpha is only meaningful for the alpha variant, "
                f"not {self.variant!r}")


def _signal_2d(values, n_rows: int, side: str):
    """``values`` as an array with ``n_rows`` rows, 1-D input as one
    column, in its own dtype, which must be boolean, integer or real
    float: a complex signal would lose its imaginary part, and strings
    would be parsed.

    Returns ``(array, was_1d)`` so callers can hand back the caller's ndim.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise ShapeError(f"{side} signal must be boolean, integer or real "
                         f"float, got dtype {arr.dtype}")
    was_1d = arr.ndim == 1
    if was_1d:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ShapeError(f"{side} signal must be 1-D or 2-D, got {arr.ndim}-D")
    if arr.shape[0] != n_rows:
        raise ShapeError(
            f"{side} signal has {arr.shape[0]} rows, expected {n_rows}")
    return arr, was_1d


def _as_float(arr: np.ndarray, side: str) -> np.ndarray:
    """``arr`` converted to float64 and checked finite.

    Boolean and integer input cannot hold NaN or inf, so only other
    dtypes are scanned.
    """
    exact = arr.dtype.kind in "biu"
    arr = arr.astype(np.float64, copy=False)
    if not exact and not np.all(np.isfinite(arr)):
        raise ValueError(f"{side} signal contains non-finite entries")
    return arr


def _as_signal(values, n_rows: int, side: str):
    """:func:`_signal_2d`, converted to float64 and checked finite."""
    arr, was_1d = _signal_2d(values, n_rows, side)
    return _as_float(arr, side), was_1d


# variant -> (the Hypergraph degree scale applied after the kernel, the
# one applied before it, whether the alpha residual blend follows)
_LAYER_SHAPES = {
    "row": ("inv_node_degree", None, False),
    "column": (None, "inv_node_degree", False),
    "symmetric": ("inv_sqrt_node_degree", "inv_sqrt_node_degree", False),
    "alpha": ("inv_node_degree", None, True),
}
# the variants whose layer starts with the gather B^-1 H^T x, and so take
# its first result as propagate(..., edge_means=)
_GATHER_FIRST = frozenset(
    variant for variant, (_, before, _) in _LAYER_SHAPES.items()
    if before is None)


def _edge_mean(h: Hypergraph, x2: np.ndarray) -> np.ndarray:
    r = h.edge_node_matrix @ x2
    r /= h.edge_degree[:, None]
    return r


def _scatter(incidence, r: np.ndarray, scale) -> np.ndarray:
    """The scatter ``H r`` over the given rows of ``H``, times ``scale``
    (a node degree column, or None) in place."""
    out = incidence @ r
    if scale is not None:
        out *= scale
    return out


def edge_average(h: Hypergraph, x) -> np.ndarray:
    """Average a node signal into hyperedges.

    Each hyperedge receives the mean of the signal over its member nodes:
    ``r_j = (1 / deg(v_j)) * sum_{u_i in v_j} x_i``, per column.

    Parameters
    ----------
    h : Hypergraph
    x : array of shape (n_nodes,) or (n_nodes, d)

    Returns
    -------
    ndarray with ``n_edges`` rows and the input's dimensionality.
    """
    x2, was_1d = _as_signal(x, h.n_nodes, "node")
    r = _edge_mean(h, x2)
    return r[:, 0] if was_1d else r


def node_average(h: Hypergraph, r) -> np.ndarray:
    """Average a hyperedge signal back into nodes.

    ``x_k = (1 / deg(u_k)) * sum_{v_j containing u_k} r_j``; rows of
    isolated nodes (degree 0) come out all zero.

    Parameters
    ----------
    h : Hypergraph
    r : array of shape (n_edges,) or (n_edges, d)
    """
    r2, was_1d = _as_signal(r, h.n_edges, "edge")
    out = _scatter(h.node_edge_matrix, r2, h.inv_node_degree)
    return out[:, 0] if was_1d else out


def propagate(h: Hypergraph, x, config: PropagationConfig,
              nodes=None, *, edge_means=None) -> np.ndarray:
    """Apply ``config.layers`` propagation layers to an initial signal.

    Every variant runs the same layer; a per-variant table says which
    degree scales and residual it applies.  Returns the final signal
    only; intermediates are not retained.

    Parameters
    ----------
    nodes : int array, optional
        Node indices whose rows to return, in the given order (repeats
        allowed); all nodes when omitted.  The last layer's scatter
        ``H e``, its node degree scale and the alpha residual then run on
        these rows only, and the result equals
        ``propagate(h, x, config)[nodes]`` bit for bit: a CSR product sums
        each row on its own, in stored order.
    edge_means : array, optional
        The first layer's edge averages ``B^-1 H^T x``, with the shape of
        ``edge_average(h, x)``, for the ``row`` and ``alpha`` variants,
        whose layer starts with them.  The first gather is then skipped,
        and ``x`` gives the shape: only the alpha residual reads its
        values, so for ``row`` any array of that shape serves, such as
        the read-only ``np.broadcast_to(np.False_, x.shape)``.  For a 0/1
        ``x`` the averages are member counts divided by the edge degree,
        which a caller may count without a product; float64 sums 0/1
        values exactly, so the result is bitwise equal.

    Raises
    ------
    ShapeError
        If ``x`` does not have ``n_nodes`` rows, ``edge_means`` does not
        have the shape of ``edge_average(h, x)``, or ``nodes`` is not a
        1-D integer array or holds an id outside ``[0, h.n_nodes)``.
    InvalidConfigError
        If ``edge_means`` is given for ``column`` or ``symmetric``, which
        scale ``x`` before the gather.
    """
    out_name, in_name, residual = _LAYER_SHAPES[config.variant]
    x2, was_1d = _signal_2d(x, h.n_nodes, "node")
    if edge_means is not None:
        if config.variant not in _GATHER_FIRST:
            raise InvalidConfigError(
                f"edge_means= is B^-1 H^T x, which the {config.variant!r} "
                f"variant does not gather: it scales x first")
        expected = (h.n_edges,) if was_1d else (h.n_edges, x2.shape[1])
        if np.shape(edge_means) != expected:
            raise ShapeError(f"edge_means has shape {np.shape(edge_means)}, "
                             f"expected {expected}")
        r, _ = _as_signal(edge_means, h.n_edges, "edge")
    # only the first gather and the alpha residual read x's values
    if edge_means is None or residual:
        x2 = _as_float(x2, "node")
    if nodes is not None:
        nodes = _check_nodes(nodes, h)
    out_scale = None if out_name is None else getattr(h, out_name)
    in_scale = None if in_name is None else getattr(h, in_name)
    scatter = h.node_edge_matrix
    # a converted copy of x (a boolean seed, say) is ours to scale in
    # place; x itself never is
    owned = isinstance(x, np.ndarray) and not np.may_share_memory(x2, x)
    for layer in range(config.layers):
        if layer or edge_means is None:
            if in_scale is not None:
                x2 = np.multiply(in_scale, x2, out=x2 if owned else None)
            r = _edge_mean(h, x2)
        if nodes is not None and layer == config.layers - 1:
            scatter = scatter[nodes]
            if out_scale is not None:
                out_scale = out_scale[nodes]
            if residual:
                x2 = x2[nodes]
        # only the alpha residual still needs the previous signal; any
        # other variant frees it before the scatter allocates the next one
        if not residual:
            x2 = None
        out = _scatter(scatter, r, out_scale)
        del r
        if residual:
            a = float(config.alpha)
            out *= 2.0 * a
            out += np.multiply(1.0 - 2.0 * a, x2, out=x2 if owned else None)
        x2, owned = out, True
        del out
    return x2[:, 0] if was_1d else x2
