"""Transductive evaluation harness: k-fold classification and retrieval.

Both protocols decompose a multiclass node-labeling into one-vs-rest
binary problems, assign every node to one of ``k`` seeded folds, and
average the metric first over folds within a class, then over classes.

Classification
    Each fold in turn is the hidden test set.  The scoring method sees the
    true binary labels of the other ``k - 1`` folds and is evaluated by
    ROC-AUC on the test fold.

Retrieval
    A single fold is the training set; the remaining ``k - 1`` folds are
    ranked.  Only the positives of the training fold carry signal (every
    other node is unknown), and the ranking is scored by precision at the
    top ``top_k`` positions.  The Naive Bayes method additionally samples
    seeded pseudo-negatives, as many as there are test nodes, from the
    non-training-positive pool.

(class, fold) cells are independent work units: the harness can run them
on a thread pool, and results are identical for any worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, InvalidFoldsError, ShapeError, UnknownClassError
from .hypergraph import Hypergraph
from .metrics import precision_at_k, roc_auc
from .naive_bayes import fit_naive_bayes, naive_bayes_log_odds
from .propagation import PropagationConfig, propagate

TASKS = ("classification", "retrieval")
METHODS = ("propagation", "naive-bayes")


@dataclass(frozen=True)
class FoldAssignment:
    """Seeded mapping of every node to exactly one of ``n_folds`` folds."""

    folds: np.ndarray
    n_folds: int
    seed: int

    def __post_init__(self):
        arr = np.asarray(self.folds, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "folds", arr)


def assign_folds(n_items: int, n_folds: int, seed: int) -> FoldAssignment:
    """Split ``n_items`` into ``n_folds`` near-equal seeded random folds.

    Fold sizes differ by at most one; the assignment is a pure function of
    ``(n_items, n_folds, seed)``.

    Raises
    ------
    InvalidFoldsError
        If ``n_folds < 2`` or ``n_folds > n_items``.
    """
    if n_folds < 2 or n_folds > n_items:
        raise InvalidFoldsError(
            f"fold count must be in [2, {n_items}], got {n_folds}")
    perm = np.random.default_rng(seed).permutation(n_items)
    folds = np.empty(n_items, dtype=np.int64)
    for f, chunk in enumerate(np.array_split(perm, n_folds)):
        folds[chunk] = f
    return FoldAssignment(folds=folds, n_folds=n_folds, seed=seed)


def binarize(labels, positive_class) -> np.ndarray:
    """One-vs-rest binary labels: 1 for ``positive_class``, else 0.

    Raises
    ------
    UnknownClassError
        If ``positive_class`` does not occur in ``labels``.
    """
    labels = np.asarray(labels)
    mask = labels == positive_class
    if not mask.any():
        raise UnknownClassError(f"class {positive_class!r} not present in labels")
    return mask.astype(np.int64)


@dataclass(frozen=True)
class TaskSpec:
    """Protocol settings for one evaluation run."""

    task: str
    method: str = "propagation"
    propagation: PropagationConfig = PropagationConfig()
    smoothing: float = 1.0
    n_folds: int = 10
    top_k: int = 100
    seed: int = 42

    def __post_init__(self):
        if self.task not in TASKS:
            raise InvalidConfigError(f"task must be one of {TASKS}")
        if self.method not in METHODS:
            raise InvalidConfigError(f"method must be one of {METHODS}")
        if self.n_folds < 2:
            raise InvalidConfigError("n_folds must be >= 2")
        if self.top_k < 1:
            raise InvalidConfigError("top_k must be >= 1")
        if self.smoothing < 0:
            raise InvalidConfigError("smoothing must be >= 0")

    @property
    def metric_name(self) -> str:
        return "auc" if self.task == "classification" else f"p_at_{self.top_k}"


@dataclass(frozen=True)
class MetricCell:
    """Metric value and method wall time for one (class, fold) pair."""

    class_id: int
    fold: int
    value: float
    micros: float


@dataclass(frozen=True)
class SkippedCell:
    """A (class, fold) pair whose metric was undefined, with the reason."""

    class_id: int
    fold: int
    reason: str


@dataclass(frozen=True)
class MetricReport:
    """Per-cell results plus two-stage aggregates for one harness run."""

    dataset: str
    task: str
    method: str
    metric: str
    params: dict
    class_names: tuple
    cells: tuple
    skipped: tuple = field(default_factory=tuple)

    def _class_means(self, attr: str) -> dict:
        """Mean of one cell attribute per class, in class-id order."""
        groups: dict[int, list] = {}
        for cell in self.cells:
            groups.setdefault(cell.class_id, []).append(getattr(cell, attr))
        return {c: sum(v) / len(v) for c, v in sorted(groups.items())}

    def _two_stage_mean(self, attr: str):
        by_class = self._class_means(attr)
        return sum(by_class.values()) / len(by_class) if by_class else None

    def per_class_mean(self) -> dict:
        """Mean metric per class over its non-skipped folds."""
        return self._class_means("value")

    def mean(self):
        """Mean over classes of the per-class fold means; None if no cells."""
        return self._two_stage_mean("value")

    def mean_micros(self):
        """Two-stage mean of per-cell wall times, mirroring :meth:`mean`."""
        return self._two_stage_mean("micros")

    def class_name(self, class_id: int) -> str:
        if self.class_names and 0 <= class_id < len(self.class_names):
            return str(self.class_names[class_id])
        return str(class_id)


def _cell_rng(seed: int, class_pos: int, fold: int) -> np.random.Generator:
    """Independent seeded stream for one (class, fold) work unit."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(class_pos, fold)))


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


def _run(h: Hypergraph, labels, task: TaskSpec, dataset_name, class_names,
         n_jobs) -> MetricReport:
    labels = np.asarray(labels)
    if labels.shape != (h.n_nodes,):
        raise ShapeError(
            f"labels must have shape ({h.n_nodes},), got {labels.shape}")
    classes = [int(c) for c in np.unique(labels)]
    assignment = assign_folds(h.n_nodes, task.n_folds, task.seed)

    def compute(unit):
        class_pos, fold = unit
        y = binarize(labels, classes[class_pos])
        if task.task == "classification":
            return _classification_cell(h, y, assignment.folds == fold, task)
        rng = _cell_rng(task.seed, class_pos, fold)
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


def run_classification(h: Hypergraph, labels, task: TaskSpec, *,
                       dataset_name: str = "", class_names=None,
                       n_jobs: int = 1) -> MetricReport:
    """Run the k-fold one-vs-rest classification protocol.

    For the propagation method, the initial signal marks training-fold
    positives with 1; training negatives and hidden test nodes are both 0.
    Cells whose ROC-AUC is undefined are recorded under ``skipped`` rather
    than dropped silently.
    """
    if task.task != "classification":
        raise InvalidConfigError("TaskSpec.task must be 'classification'")
    return _run(h, labels, task, dataset_name, class_names, n_jobs)


def run_retrieval(h: Hypergraph, labels, task: TaskSpec, *,
                  dataset_name: str = "", class_names=None,
                  n_jobs: int = 1) -> MetricReport:
    """Run the positive-only retrieval protocol scored by precision@k."""
    if task.task != "retrieval":
        raise InvalidConfigError("TaskSpec.task must be 'retrieval'")
    return _run(h, labels, task, dataset_name, class_names, n_jobs)
