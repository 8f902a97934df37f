"""Multinomial Naive Bayes over hyperedge incidence features.

Each hyperedge is treated as one feature; a node's feature vector is the
one-hot row of the incidence matrix, so every (node, edge) incidence
counts as a single feature occurrence.  Likelihoods are estimated from a
labeled training set with additive (Laplace) smoothing, and nodes are
scored by the log-posterior-odds of the positive class.  Log-odds rather
than probabilities keeps the score stable for nodes with hundreds of
incident edges.

Several binary models over one hypergraph can be fitted and scored as a
batch, one per column of a label matrix, the way :func:`propagate`
treats the columns of a signal; each column's model is the one its
labels would fit alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingClassError, ShapeError
from .hypergraph import Hypergraph


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


def fit_naive_bayes(h: Hypergraph, train_nodes, train_labels,
                    smoothing: float = 1.0) -> NaiveBayesModel:
    """Fit the binary model on a training subset of nodes.

    Parameters
    ----------
    h : Hypergraph
    train_nodes : int array
        Node indices of the training set.
    train_labels : array of 0/1, or 2-D array of -1/0/1
        Binary label per training node, aligned with ``train_nodes``.  A
        2-D array of shape ``(len(train_nodes), d)`` fits a batch of
        ``d`` models, one per column; ``-1`` leaves a node out of that
        column's training set.
    smoothing : float, >= 0
        Additive smoothing constant applied per feature (default 1.0).

    Raises
    ------
    MissingClassError
        If either class has no training node (in any column).
    """
    train_nodes = np.asarray(train_nodes, dtype=np.int64)
    train_labels = np.asarray(train_labels)
    if (train_nodes.ndim != 1 or train_labels.ndim not in (1, 2)
            or train_labels.shape[0] != train_nodes.size):
        raise ShapeError("train_labels must be 1-D or 2-D with one row per "
                         "entry of the 1-D train_nodes")
    if train_nodes.size == 0:
        raise MissingClassError("training set is empty")
    allowed = (train_labels == 0) | (train_labels == 1)
    if train_labels.ndim == 2:
        allowed |= train_labels == -1
    if not allowed.all():
        raise ValueError("train_labels must be binary (0/1), or -1/0/1 "
                         "when 2-D")
    if smoothing < 0:
        raise ValueError("smoothing must be >= 0")

    columns = train_labels.reshape(train_nodes.size, -1)
    # edge x training-entry incidence: a node listed twice counts twice
    incidence = h.node_edge_matrix[train_nodes].T
    counts = np.empty((2, h.n_edges, columns.shape[1]))
    class_sizes = np.empty((2, columns.shape[1]))
    for c in (0, 1):
        members = columns == c
        class_sizes[c] = members.sum(axis=0)
        if not class_sizes[c].all():
            raise MissingClassError(f"no training nodes with label {c}")
        # integer-valued, so exact whatever the summation order
        counts[c] = incidence @ members.astype(np.float64)

    with np.errstate(divide="ignore"):
        fll = np.log(counts + smoothing)
        fll -= np.log(counts.sum(axis=1) + smoothing * h.n_edges)[:, None]
        prior = np.log(class_sizes / class_sizes.sum(axis=0))
    if train_labels.ndim == 1:
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
        If the model was fitted on a different edge universe.
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
        incidence = incidence[np.asarray(nodes, dtype=np.int64)]
    scores = incidence @ ratio
    scores += prior
    return scores
