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
(:meth:`Hypergraph.inv_node_degree`, computed once per graph), so
isolated nodes send and receive nothing through the kernel: their rows
stay 0 under ``row``/``column``/``symmetric``, while the ``alpha``
residual term keeps ``(1 - 2a) * x`` there.

Signals are plain float arrays: shape ``(n_nodes,)`` or ``(n_nodes, d)``
on the node side, ``(n_edges,)`` or ``(n_edges, d)`` on the edge side.
All functions are pure; inputs are never modified.

:func:`propagate` holds one ``n_nodes x d`` matrix at a time besides the
caller's input: each layer frees the previous signal before its scatter
allocates the next, and scales its own arrays in place.  Its peak is
that matrix plus the ``n_edges x d`` edge averages; ``alpha`` holds one
more node matrix, the previous signal its residual blends in.  A signal
of another dtype (a boolean seed, say) is converted once, and the copy
counts as the first layer's matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
        if not isinstance(self.layers, (int, np.integer)) or self.layers < 1:
            raise InvalidConfigError("layers must be an integer >= 1")
        if self.variant == "alpha":
            if self.alpha is None or not 0.0 < float(self.alpha) < 1.0:
                raise InvalidConfigError(
                    "alpha variant requires alpha in the open interval (0, 1)")
        elif self.alpha is not None:
            raise InvalidConfigError(
                f"alpha is only meaningful for the alpha variant, "
                f"not {self.variant!r}")


def _as_signal(values, n_rows: int, side: str):
    """Coerce to a 2-D float64 array with ``n_rows`` rows.

    Returns ``(array, was_1d)`` so callers can hand back the caller's ndim.
    """
    arr = np.asarray(values, dtype=np.float64)
    was_1d = arr.ndim == 1
    if was_1d:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ShapeError(f"{side} signal must be 1-D or 2-D, got {arr.ndim}-D")
    if arr.shape[0] != n_rows:
        raise ShapeError(
            f"{side} signal has {arr.shape[0]} rows, expected {n_rows}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{side} signal contains non-finite entries")
    return arr, was_1d


# variant -> (power of D^-1 applied after the kernel, power of D^-1
# applied before it, whether the alpha residual blend follows)
_LAYER_SHAPES = {
    "row": (1.0, None, False),
    "column": (None, 1.0, False),
    "symmetric": (0.5, 0.5, False),
    "alpha": (1.0, None, True),
}


def _edge_mean(h: Hypergraph, x2: np.ndarray) -> np.ndarray:
    r = h.edge_node_matrix @ x2
    r /= h.edge_degree[:, None]
    return r


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
    out = h.inv_node_degree() * (h.node_edge_matrix @ r2)
    return out[:, 0] if was_1d else out


def propagate_layer(h: Hypergraph, x, config: PropagationConfig | None = None) -> np.ndarray:
    """Apply a single propagation layer in the configured variant.

    Equivalent to ``node_average(h, edge_average(h, x))`` for the ``row``
    variant; see the module docstring for the other normalizations.
    ``config.layers`` is ignored here -- use :func:`propagate` for
    multi-layer runs.
    """
    return propagate(h, x, replace(config or PropagationConfig(), layers=1))


def propagate(h: Hypergraph, x, config: PropagationConfig,
              nodes=None) -> np.ndarray:
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

    Raises
    ------
    ShapeError
        If ``x`` does not have ``n_nodes`` rows, or ``nodes`` is not a
        1-D integer array or holds an id outside ``[0, h.n_nodes)``.
    """
    x2, was_1d = _as_signal(x, h.n_nodes, "node")
    if nodes is not None:
        nodes = _check_nodes(nodes, h)
    out_power, in_power, residual = _LAYER_SHAPES[config.variant]
    out_scale = None if out_power is None else h.inv_node_degree(out_power)
    in_scale = None if in_power is None else h.inv_node_degree(in_power)
    scatter = h.node_edge_matrix
    # a converted copy of x (a boolean seed, say) is ours to scale in
    # place; x itself never is
    owned = isinstance(x, np.ndarray) and not np.may_share_memory(x2, x)
    for layer in range(config.layers):
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
        out = scatter @ r
        del r
        if out_scale is not None:
            out *= out_scale
        if residual:
            a = float(config.alpha)
            out *= 2.0 * a
            out += np.multiply(1.0 - 2.0 * a, x2, out=x2 if owned else None)
        x2, owned = out, True
        del out
    return x2[:, 0] if was_1d else x2

