"""Ranking metrics: ROC-AUC and precision at k.

Both metrics depend on scores only through their ordering, so they are
invariant under any strictly increasing transform of the scores.  Each
takes either one ranking (1-D scores and labels, returning a float) or
a batch of rankings over the same items (2-D, one ranking per column,
returning one value per column); a column's value equals the value of
that column passed alone.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

from .errors import DegenerateLabelsError, ShapeError


def _check_scored(scores, labels):
    """Validated float scores and boolean labels, both shaped ``(n, d)``."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim not in (1, 2) or scores.shape != labels.shape:
        raise ShapeError("scores and labels must be equal-shape 1-D or 2-D "
                         "arrays")
    if scores.shape[0] == 0:
        raise ValueError("empty score array")
    if np.isnan(scores).any():
        raise ValueError("scores contain NaN")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be binary (0/1)")
    labels = labels == 1
    if scores.ndim == 1:
        return scores[:, None], labels[:, None]
    return scores, labels


def _per_ranking(values, scores):
    """A float for 1-D ``scores``, else the per-column array."""
    return float(values[0]) if np.ndim(scores) == 1 else values


def roc_auc(scores, labels):
    """Area under the ROC curve, Mann-Whitney formulation.

    The probability that a uniformly random positive outranks a uniformly
    random negative, with ties counting one half.  Computed via average
    ranks in O(n log n), for every column at once when 2-D.

    Raises
    ------
    DegenerateLabelsError
        If only one class is present (in any column).
    """
    s2, y2 = _check_scored(scores, labels)
    n_pos = y2.sum(axis=0)
    n_neg = y2.shape[0] - n_pos
    if not (n_pos.all() and n_neg.all()):
        raise DegenerateLabelsError("ROC-AUC needs both classes present")
    # average ranks are half-integers, so the sum is exact in any order
    rank_sum = (rankdata(s2, axis=0) * y2).sum(axis=0)
    return _per_ranking((rank_sum - n_pos * (n_pos + 1) / 2.0)
                        / (n_pos * n_neg), scores)


def precision_at_k(scores, labels, k: int):
    """Fraction of positives among the top ``min(k, n)`` scored items.

    Items are ranked by descending score; ties are broken by ascending
    position in the input arrays, which makes the result deterministic.
    Runs in O(n) per column: the top set is every score strictly above
    the ``min(k, n)``-th largest, then the lowest positions among the
    scores equal to it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s2, y2 = _check_scored(scores, labels)
    n = s2.shape[0]
    top = min(k, n)

    def hits(s, y):
        kth = np.partition(s, n - top)[n - top]
        above = s > kth
        tied = np.flatnonzero(s == kth)[:top - np.count_nonzero(above)]
        return np.count_nonzero(y[above]) + np.count_nonzero(y[tied])

    values = np.array([hits(s2[:, j], y2[:, j]) for j in range(s2.shape[1])])
    return _per_ranking(values / top, scores)
