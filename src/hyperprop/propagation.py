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

Degree reciprocals follow the pseudo-inverse convention ``1/0 := 0``, so
isolated nodes send and receive nothing through the kernel: their rows
stay 0 under ``row``/``column``/``symmetric``, while the ``alpha``
residual term keeps ``(1 - 2a) * x`` there.

Signals are plain float arrays: shape ``(n_nodes,)`` or ``(n_nodes, d)``
on the node side, ``(n_edges,)`` or ``(n_edges, d)`` on the edge side.
All functions are pure; inputs are never modified.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfigError, ShapeError, SizeGuardError
from .hypergraph import Hypergraph

VARIANTS = ("row", "column", "symmetric", "alpha")

# dense references refuse anything bigger than this n_nodes * n_edges
DENSE_GUARD = 1_000_000


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


def _inv_node_degree(h: Hypergraph, power: float = 1.0) -> np.ndarray:
    """``deg(u)^-power`` with the 1/0 := 0 convention, as a column."""
    deg = h.node_degree.astype(np.float64)
    inv = np.zeros_like(deg)
    np.divide(1.0, deg**power, out=inv, where=deg > 0)
    return inv[:, None]


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
    out = _inv_node_degree(h) * (h.node_edge_matrix @ r2)
    return out[:, 0] if was_1d else out


def propagate_layer(h: Hypergraph, x, config: PropagationConfig | None = None) -> np.ndarray:
    """Apply a single propagation layer in the configured variant.

    Equivalent to ``node_average(h, edge_average(h, x))`` for the ``row``
    variant; see the module docstring for the other normalizations.
    ``config.layers`` is ignored here -- use :func:`propagate` for
    multi-layer runs.
    """
    return propagate(h, x, replace(config or PropagationConfig(), layers=1))


def propagate(h: Hypergraph, x, config: PropagationConfig) -> np.ndarray:
    """Apply ``config.layers`` propagation layers to an initial signal.

    Every variant runs the same layer; a per-variant table says which
    degree scales and residual it applies.  Returns the final signal
    only; intermediates are not retained.
    """
    x2, was_1d = _as_signal(x, h.n_nodes, "node")
    out_power, in_power, residual = _LAYER_SHAPES[config.variant]
    out_scale = None if out_power is None else _inv_node_degree(h, out_power)
    in_scale = None if in_power is None else _inv_node_degree(h, in_power)
    for _ in range(config.layers):
        out = h.node_edge_matrix @ _edge_mean(
            h, x2 if in_scale is None else in_scale * x2)
        if out_scale is not None:
            out *= out_scale
        if residual:
            a = float(config.alpha)
            out *= 2.0 * a
            out += (1.0 - 2.0 * a) * x2
        x2 = out
    return x2[:, 0] if was_1d else x2


# ---------------------------------------------------------------------------
# Dense reference path.  Used exclusively for equivalence testing: it
# materializes H, D^-1 and B^-1 as explicit dense matrices and multiplies
# them out, sharing nothing with the sparse two-pass code above.
# ---------------------------------------------------------------------------

def _guard_dense(h: Hypergraph):
    if h.n_nodes * h.n_edges > DENSE_GUARD:
        raise SizeGuardError(
            f"dense reference limited to n_nodes * n_edges <= {DENSE_GUARD}, "
            f"got {h.n_nodes} * {h.n_edges}")


def _dense_incidence(h: Hypergraph) -> np.ndarray:
    H = np.zeros((h.n_nodes, h.n_edges))
    for j in range(h.n_edges):
        H[h.nodes_of(j), j] = 1.0
    return H


def _dense_degree_inverses(h: Hypergraph):
    node_deg = h.node_degree.astype(np.float64)
    with np.errstate(divide="ignore"):
        dinv = np.where(node_deg > 0, 1.0 / node_deg, 0.0)
    return np.diag(dinv), np.diag(1.0 / h.edge_degree.astype(np.float64))


def dense_kernel(h: Hypergraph) -> np.ndarray:
    """Dense node-to-node kernel ``H B^-1 H^T``.

    Entry (i, k) counts the hyperedges containing both nodes, each weighted
    by the reciprocal of its degree.  Guarded to small graphs.
    """
    _guard_dense(h)
    H = _dense_incidence(h)
    _, binv = _dense_degree_inverses(h)
    return H @ binv @ H.T


def dense_propagate_layer(h: Hypergraph, x, config: PropagationConfig | None = None) -> np.ndarray:
    """Single propagation layer via explicit dense matrix products.

    Mathematically identical to :func:`propagate_layer`; intended only as
    an independent oracle in tests.  Raises :class:`SizeGuardError` when
    ``n_nodes * n_edges`` exceeds ``DENSE_GUARD``.
    """
    config = config or PropagationConfig()
    _guard_dense(h)
    x2, was_1d = _as_signal(x, h.n_nodes, "node")
    H = _dense_incidence(h)
    dinv, binv = _dense_degree_inverses(h)
    if config.variant == "row":
        out = dinv @ H @ binv @ H.T @ x2
    elif config.variant == "column":
        out = H @ binv @ H.T @ dinv @ x2
    elif config.variant == "symmetric":
        dhalf = np.sqrt(dinv)
        out = dhalf @ H @ binv @ H.T @ dhalf @ x2
    else:
        a = float(config.alpha)
        out = 2.0 * a * (dinv @ H @ binv @ H.T @ x2) + (1.0 - 2.0 * a) * x2
    return out[:, 0] if was_1d else out
