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

A (class, fold) pair is one cell of the report.  The harness works in
(fold, class block) units: for one fold, a block of classes is scored
together as the columns of one signal matrix, with one propagation (or
one batched Naive Bayes fit and score) and one column-wise metric pass.
Every column gets the value it would get alone.  The known rows (the
training folds, or the training fold) give the seed or the Naive Bayes
labels, and only the other rows are ranked; while those are under half
the nodes (classification), the last propagation layer or the Naive
Bayes score runs on them alone.  A block holds as many classes as fit
one ``n_nodes x block`` float64 matrix in ``_BLOCK_BYTES``.  Units are
independent: the harness can run them on a thread pool, and results are
identical for any worker count and block size.  A cell's ``micros`` is
its equal share of its block's method time.
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

# cap on one n_nodes x block float64 signal matrix.  Measured on a 2 MiB
# L2 cache, 2 MiB blocks propagated slower than 1 MiB ones and raised the
# process's peak memory; much narrower blocks lose the batching gain.
_BLOCK_BYTES = 2**20


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
        if not np.isfinite(self.smoothing) or self.smoothing < 0:
            raise InvalidConfigError(
                f"smoothing must be finite and >= 0, got {self.smoothing}")

    @property
    def metric_name(self) -> str:
        return "auc" if self.task == "classification" else f"p_at_{self.top_k}"


@dataclass(frozen=True)
class MetricCell:
    """Metric value for one (class, fold) pair, with its equal share of
    the method wall time of its (fold, class block)."""

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
    """Per-cell results plus two-stage aggregates for one harness run.

    ``class_names[c]`` names class id ``c``; a class without one is
    named by its id."""

    dataset: str
    task: str
    method: str
    metric: str
    params: dict
    class_names: tuple
    cells: tuple
    skipped: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "class_names",
                           tuple(map(str, self.class_names or ())))

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
        if 0 <= class_id < len(self.class_names):
            return self.class_names[class_id]
        return str(class_id)


def _cell_rng(seed: int, class_pos: int, fold: int) -> np.random.Generator:
    """Independent seeded stream for one (class, fold) cell."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(class_pos, fold)))


def _skip_reasons(y, fold_mask, task) -> list:
    """Per class column of ``y``: why its cell in this fold is skipped, or None."""
    if task.task == "retrieval":
        return [None if any_pos else "training fold contains no positive nodes"
                for any_pos in y[fold_mask].any(axis=0)]
    test_pos, test_size = y[fold_mask].sum(axis=0), int(fold_mask.sum())
    train_pos, train_size = y.sum(axis=0) - test_pos, y.shape[0] - test_size
    reasons = []
    for tp, rp in zip(test_pos, train_pos):
        if tp in (0, test_size):
            reasons.append("test fold contains a single class")
        elif task.method == "naive-bayes" and rp in (0, train_size):
            reasons.append("training folds contain a single class")
        else:
            reasons.append(None)
    return reasons


def _score_block(h, y, fold_mask, task, rngs):
    """The metric per class column of ``y`` for one fold, ranking every
    row but the known ones: the other folds in classification, the fold
    itself in retrieval.  ``rngs`` yields one generator per column, drawn
    from only for retrieval's pseudo-negatives."""
    known = fold_mask if task.task == "retrieval" else ~fold_mask
    ranked = np.flatnonzero(~known)
    # a row copy of H pays off for one fold's rows, not for k - 1 folds'
    nodes = ranked if 2 * ranked.size < h.n_nodes else None
    seed = known[:, None] & y
    if task.method == "propagation":
        x0 = seed.astype(np.float64)
        t0 = time.perf_counter()
        scores = propagate(h, x0, task.propagation, nodes=nodes)
        micros = (time.perf_counter() - t0) * 1e6
    else:
        if task.task == "classification":
            train = np.where(known[:, None], y, np.int8(-1))
        else:
            train = np.where(seed, np.int8(1), np.int8(-1))
            for col, rng in enumerate(rngs):
                pool = np.flatnonzero(~seed[:, col])
                train[rng.choice(pool, size=ranked.size, replace=False), col] = 0
        t0 = time.perf_counter()
        model = fit_naive_bayes(h, train, task.smoothing)
        scores = naive_bayes_log_odds(model, h, nodes)
        micros = (time.perf_counter() - t0) * 1e6
    scores = scores[ranked] if nodes is None else scores
    if task.task == "classification":
        return roc_auc(scores, y[ranked]), micros
    return precision_at_k(scores, y[ranked], task.top_k), micros


def check_n_jobs(n_jobs: int) -> None:
    """Raise :class:`InvalidConfigError` unless ``n_jobs >= 1``."""
    if n_jobs < 1:
        raise InvalidConfigError(f"n_jobs must be >= 1, got {n_jobs}")


def _run(h: Hypergraph, labels, task: TaskSpec, dataset_name, class_names,
         n_jobs) -> MetricReport:
    check_n_jobs(n_jobs)
    labels = np.asarray(labels)
    if labels.shape != (h.n_nodes,):
        raise ShapeError(
            f"labels must have shape ({h.n_nodes},), got {labels.shape}")
    present = np.unique(labels)
    y = labels[:, None] == present  # n_nodes x classes, one-vs-rest
    assignment = assign_folds(h.n_nodes, task.n_folds, task.seed)
    width = max(1, _BLOCK_BYTES // (8 * h.n_nodes))

    outcomes = {}  # (class_pos, fold) -> (value, micros) or skip reason
    units = []
    for fold in range(task.n_folds):
        reasons = _skip_reasons(y, assignment.folds == fold, task)
        live = []
        for class_pos, reason in enumerate(reasons):
            if reason is None:
                live.append(class_pos)
            else:
                outcomes[class_pos, fold] = reason
        units += [(fold, live[i:i + width]) for i in range(0, len(live), width)]

    def compute(unit):
        fold, block = unit
        rngs = (_cell_rng(task.seed, class_pos, fold) for class_pos in block)
        return _score_block(h, y[:, block], assignment.folds == fold, task,
                            rngs)

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(compute, units))
    else:
        results = [compute(u) for u in units]
    for (fold, block), (values, micros) in zip(units, results):
        for class_pos, value in zip(block, values):
            outcomes[class_pos, fold] = (float(value), micros / len(block))

    cells, skipped = [], []
    for class_pos, c in enumerate(map(int, present)):
        for fold in range(task.n_folds):
            outcome = outcomes[class_pos, fold]
            if isinstance(outcome, str):
                skipped.append(SkippedCell(c, fold, outcome))
            else:
                cells.append(MetricCell(c, fold, *outcome))

    params = {"folds": task.n_folds, "seed": task.seed}
    if task.task == "retrieval":
        params["top_k"] = task.top_k
    if task.method == "propagation":
        cfg = task.propagation
        params.update(variant=cfg.variant, layers=cfg.layers, alpha=cfg.alpha)
    else:
        params["smoothing"] = task.smoothing
    return MetricReport(dataset=dataset_name, task=task.task,
                        method=task.method, metric=task.metric_name,
                        params=params, class_names=class_names,
                        cells=tuple(cells), skipped=tuple(skipped))


def run_classification(h: Hypergraph, labels, task: TaskSpec, *,
                       dataset_name: str = "", class_names=None,
                       n_jobs: int = 1) -> MetricReport:
    """Run the k-fold one-vs-rest classification protocol.

    For the propagation method, the initial signal marks training-fold
    positives with 1; training negatives and hidden test nodes are both 0.
    Cells whose ROC-AUC is undefined are recorded under ``skipped`` rather
    than dropped silently.  ``n_jobs`` (>= 1) threads share the
    (fold, class block) units.
    """
    if task.task != "classification":
        raise InvalidConfigError("TaskSpec.task must be 'classification'")
    return _run(h, labels, task, dataset_name, class_names, n_jobs)


def run_retrieval(h: Hypergraph, labels, task: TaskSpec, *,
                  dataset_name: str = "", class_names=None,
                  n_jobs: int = 1) -> MetricReport:
    """Run the positive-only retrieval protocol scored by precision@k.

    ``n_jobs`` (>= 1) threads share the (fold, class block) units.
    """
    if task.task != "retrieval":
        raise InvalidConfigError("TaskSpec.task must be 'retrieval'")
    return _run(h, labels, task, dataset_name, class_names, n_jobs)
