"""Independent brute-force references used only by the tests.

These deliberately share no code with the production implementations
beyond the Hypergraph type itself: plain Python loops, probability-space
arithmetic, exhaustive pair enumeration.  Slow on purpose.

The exception is :func:`per_cell_report`, the reference for the batched
evaluation harness: it scores one (class, fold) cell at a time through
the public single-column functions.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from hyperprop import (MetricCell, MetricReport, SkippedCell, assign_folds,
                       binarize, fit_naive_bayes, naive_bayes_log_odds,
                       precision_at_k, propagate, roc_auc)

# the dense matrix-product layer lives next to the sparse engine and is
# re-exported here so tests wire every oracle through one module
from hyperprop.propagation import dense_kernel, dense_propagate_layer  # noqa: F401


def pairwise_auc(scores, labels):
    """ROC-AUC by enumerating every positive-negative pair, ties worth 1/2."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    if not pos or not neg:
        raise ValueError("need both classes")
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def exhaustive_precision_at_k(scores, labels, k):
    """Precision@k via a full sort on (-score, index) tuples."""
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    top = ranked[:min(k, len(ranked))]
    return sum(labels[i] for i in top) / len(top)


def count_bayes_log_odds(h, train_nodes, train_labels, smoothing, nodes):
    """Literal count-based Bayes posterior odds, probability space.

    Counts (node, edge) incidences per class with explicit loops, forms
    smoothed likelihoods, multiplies them out per node, and only takes the
    log at the very end.
    """
    m = h.n_edges
    counts = {0: [0] * m, 1: [0] * m}
    sizes = {0: 0, 1: 0}
    for node, label in zip(train_nodes, train_labels):
        sizes[label] += 1
        for e in h.edges_of(int(node)):
            counts[label][int(e)] += 1
    total = {c: sum(counts[c]) for c in (0, 1)}
    likelihood = {
        c: [(counts[c][e] + smoothing) / (total[c] + smoothing * m)
            for e in range(m)]
        for c in (0, 1)
    }
    prior = {c: sizes[c] / (sizes[0] + sizes[1]) for c in (0, 1)}
    out = []
    for node in nodes:
        odds = {c: prior[c] for c in (0, 1)}
        for e in h.edges_of(int(node)):
            for c in (0, 1):
                odds[c] *= likelihood[c][int(e)]
        out.append(math.log(odds[1]) - math.log(odds[0]))
    return np.array(out)


def _classification_cell(h, y, test_mask, task):
    y_test = y[test_mask]
    if y_test.min() == y_test.max():
        return None, "test fold contains a single class"
    if task.method == "propagation":
        x0 = np.where(~test_mask & (y == 1), 1.0, 0.0)
        t0 = time.perf_counter()
        scores = propagate(h, x0, task.propagation)
        micros = (time.perf_counter() - t0) * 1e6
        return (roc_auc(scores[test_mask], y_test), micros), None
    train_idx = np.flatnonzero(~test_mask)
    y_train = y[train_idx]
    if y_train.min() == y_train.max():
        return None, "training folds contain a single class"
    t0 = time.perf_counter()
    model = fit_naive_bayes(h, train_idx, y_train, task.smoothing)
    scores = naive_bayes_log_odds(model, h, np.flatnonzero(test_mask))
    micros = (time.perf_counter() - t0) * 1e6
    return (roc_auc(scores, y_test), micros), None


def _retrieval_cell(h, y, fold_mask, task, rng):
    train_pos = fold_mask & (y == 1)
    if not train_pos.any():
        return None, "training fold contains no positive nodes"
    test_mask = ~fold_mask
    y_test = y[test_mask]
    if task.method == "propagation":
        x0 = train_pos.astype(np.float64)
        t0 = time.perf_counter()
        scores = propagate(h, x0, task.propagation)
        micros = (time.perf_counter() - t0) * 1e6
        value = precision_at_k(scores[test_mask], y_test, task.top_k)
        return (value, micros), None
    pool = np.flatnonzero(~train_pos)
    pseudo_neg = rng.choice(pool, size=int(test_mask.sum()), replace=False)
    train_idx = np.concatenate([np.flatnonzero(train_pos), pseudo_neg])
    train_y = np.concatenate([np.ones(int(train_pos.sum()), dtype=np.int64),
                              np.zeros(pseudo_neg.size, dtype=np.int64)])
    t0 = time.perf_counter()
    model = fit_naive_bayes(h, train_idx, train_y, task.smoothing)
    scores = naive_bayes_log_odds(model, h, np.flatnonzero(test_mask))
    micros = (time.perf_counter() - t0) * 1e6
    return (precision_at_k(scores, y_test, task.top_k), micros), None


def per_cell_report(h, labels, task, *, dataset_name="", class_names=None,
                    n_jobs=1):
    """The k-fold harness run one (class, fold) cell at a time.

    Each cell binarizes its class, builds its own 1-D seed or training
    set and makes one single-column call per step, as the harness did
    before it was batched.  Pseudo-negatives come from the same seeded
    per-cell streams.
    """
    labels = np.asarray(labels)
    classes = [int(c) for c in np.unique(labels)]
    assignment = assign_folds(h.n_nodes, task.n_folds, task.seed)

    def compute(unit):
        class_pos, fold = unit
        y = binarize(labels, classes[class_pos])
        if task.task == "classification":
            return _classification_cell(h, y, assignment.folds == fold, task)
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=task.seed, spawn_key=(class_pos, fold)))
        return _retrieval_cell(h, y, assignment.folds == fold, task, rng)

    units = [(p, f) for p in range(len(classes)) for f in range(task.n_folds)]
    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            outcomes = list(pool.map(compute, units))
    else:
        outcomes = [compute(u) for u in units]

    cells, skipped = [], []
    for (class_pos, fold), (result, reason) in zip(units, outcomes):
        c = classes[class_pos]
        if result is None:
            skipped.append(SkippedCell(class_id=c, fold=fold, reason=reason))
        else:
            value, micros = result
            cells.append(MetricCell(class_id=c, fold=fold,
                                    value=value, micros=micros))

    params = {"folds": task.n_folds, "seed": task.seed}
    if task.task == "retrieval":
        params["top_k"] = task.top_k
    if task.method == "propagation":
        cfg = task.propagation
        params.update(variant=cfg.variant, layers=cfg.layers, alpha=cfg.alpha)
    else:
        params["smoothing"] = task.smoothing
    names = tuple(str(c) for c in classes) if class_names is None \
        else tuple(str(n) for n in class_names)
    return MetricReport(dataset=dataset_name, task=task.task,
                        method=task.method, metric=task.metric_name,
                        params=params, class_names=names,
                        cells=tuple(cells), skipped=tuple(skipped))
