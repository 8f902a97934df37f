"""Multinomial Naive Bayes over hyperedge incidence features.

Each hyperedge is treated as one feature; a node's feature vector is the
one-hot row of the incidence matrix, so every (node, edge) incidence
counts as a single feature occurrence.  Likelihoods are estimated from
the labeled nodes with additive (Laplace) smoothing, and nodes are
scored by the log-posterior-odds of the positive class.  Log-odds rather
than probabilities keeps the score stable for nodes with hundreds of
incident edges.

The training labels are one array over all nodes, the way
:func:`propagate` takes a signal, with -1 on nodes left out; the edge
counts of class ``c`` are ``H^T [y == c]``.  A label matrix fits and
scores a batch, one model per column, each the one its column would fit
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingClassError, ShapeError
from .hypergraph import Hypergraph, _check_nodes


@dataclass(frozen=True, eq=False)
class NaiveBayesModel:
    """Fitted binary multinomial model, or a batch of ``d`` of them.

    ``class_log_prior`` has shape (2,) and ``feature_log_likelihood``
    shape (2, n_edges); row ``c`` exponentiates to a distribution over
    hyperedge features given class ``c``.  A batch appends a trailing
    axis of length ``d`` to both, one model per column.  Immutable once
    fitted.
    """

    class_log_prior: np.ndarray
    feature_log_likelihood: np.ndarray
    smoothing: float

    def __post_init__(self):
        for name in ("class_log_prior", "feature_log_likelihood"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_features(self) -> int:
        return self.feature_log_likelihood.shape[1]


def fit_naive_bayes(h: Hypergraph, labels,
                    smoothing: float = 1.0) -> NaiveBayesModel:
    """Fit the binary model on the labeled nodes.

    Parameters
    ----------
    h : Hypergraph
    labels : array of -1/0/1, shape ``(n_nodes,)`` or ``(n_nodes, d)``
        Binary label per node; ``-1`` leaves the node out of training.
        A 2-D array fits a batch of ``d`` models, one per column.
    smoothing : float, finite and >= 0
        Additive smoothing constant applied per feature (default 1.0).

    Raises
    ------
    MissingClassError
        If either class has no training node (in any column).
    ShapeError
        If ``labels`` is not 1-D or 2-D with one row per node.
    """
    labels = np.asarray(labels)
    if labels.ndim not in (1, 2) or labels.shape[0] != h.n_nodes:
        raise ShapeError(f"labels must be 1-D or 2-D with {h.n_nodes} rows, "
                         f"got shape {labels.shape}")
    if not ((labels == -1) | (labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be -1, 0 or 1")
    if not np.isfinite(smoothing) or smoothing < 0:
        raise ValueError(f"smoothing must be finite and >= 0, got {smoothing}")

    columns = labels.reshape(h.n_nodes, -1)
    counts = np.empty((2, h.n_edges, columns.shape[1]))
    class_sizes = np.empty((2, columns.shape[1]))
    for c in (0, 1):
        members = columns == c
        class_sizes[c] = members.sum(axis=0)
        if not class_sizes[c].all():
            raise MissingClassError(f"no training nodes with label {c}")
        # integer-valued, so exact whatever the summation order
        counts[c] = h.edge_node_matrix @ members.astype(np.float64)

    with np.errstate(divide="ignore"):
        fll = np.log(counts + smoothing)
        fll -= np.log(counts.sum(axis=1) + smoothing * h.n_edges)[:, None]
        prior = np.log(class_sizes / class_sizes.sum(axis=0))
    if labels.ndim == 1:
        fll, prior = fll[..., 0], prior[:, 0]
    return NaiveBayesModel(class_log_prior=prior,
                           feature_log_likelihood=fll,
                           smoothing=float(smoothing))


def naive_bayes_log_odds(model: NaiveBayesModel, h: Hypergraph,
                         nodes=None) -> np.ndarray:
    """Log-posterior-odds of the positive class for the given nodes.

    The score of a node is the prior log-odds plus the summed
    log-likelihood ratio of its incident edges; an isolated node scores
    exactly the prior log-odds.  Features with zero probability under
    *both* classes (possible only with ``smoothing == 0``) contribute
    nothing.

    Parameters
    ----------
    nodes : int array, optional
        Node indices to score; all nodes when omitted.

    Returns
    -------
    ndarray of shape ``(len(nodes),)``, or ``(len(nodes), d)`` for a
    batch of ``d`` models.

    Raises
    ------
    ShapeError
        If the model was fitted on a different edge universe, or ``nodes``
        is not a 1-D integer array of ids in ``[0, h.n_nodes)``.
    """
    if model.n_features != h.n_edges:
        raise ShapeError(
            f"model has {model.n_features} features, hypergraph has "
            f"{h.n_edges} edges")
    fll = model.feature_log_likelihood
    impossible = np.isneginf(fll[0]) & np.isneginf(fll[1])
    with np.errstate(invalid="ignore"):
        ratio = fll[1] - fll[0]
    ratio[impossible] = 0.0
    prior = model.class_log_prior[1] - model.class_log_prior[0]
    incidence = h.node_edge_matrix
    if nodes is not None:
        incidence = incidence[_check_nodes(nodes, h)]
    scores = incidence @ ratio
    scores += prior
    return scores
