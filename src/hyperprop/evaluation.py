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

A (class, fold) pair is one cell of the report.  A run holds each
node's class position and fold, and one ``(classes, k)`` table of the
node count of every (class, fold) group, from which the skip rules read
every fold; it builds no label matrix over nodes and classes.  The
harness works in (fold, class block) units: for one fold, a block of
classes is scored together as the columns of one signal matrix, with one
propagation (or one batched Naive Bayes fit and score) and one
column-wise metric pass.  Every column gets the value it would get alone.
A unit compares the class positions of its known rows (the training
folds, or the training fold) with its block once, which gives the seed
or the Naive Bayes labels row-major, so no sparse product copies its
dense operand; the metric's labels come from the same comparison on the
ranked rows.  Only the other rows are ranked; while those are under half
the nodes (classification), the last propagation layer or the Naive
Bayes score runs on them alone.  A block holds as many classes as fit
one ``n_nodes x block`` float64 matrix in ``_BLOCK_BYTES``.  Units are
independent: the harness can run them on a thread pool, and results are
identical for any worker count and block size.  A cell's ``micros`` is
its equal share of its block's method time.

For ``row`` and ``alpha``, whose layer starts with the gather
``B^-1 H^T x``, the seed's first edge averages are counted, not
gathered.  Once per run the incidences' edge ids are read from ``H``'s
CSR arrays in (class, fold) order of their nodes; a unit counts each of
its classes over its known folds (every fold but the test fold in
classification, the training fold in retrieval) with ``bincount``,
divides by the edge degree and hands the result to :func:`propagate` as
``edge_means=``.  A unit's counts are its ``n_edges x block`` edge
averages, the array the gather would make, whatever the class count.
Float64 sums 0/1 values exactly, so this equals the gather bit for bit.
``column`` and ``symmetric`` get the boolean seed as is and gather it.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import InvalidConfigError, InvalidFoldsError, ShapeError, UnknownClassError
from .hypergraph import Hypergraph
from .metrics import precision_at_k, roc_auc
from .naive_bayes import fit_naive_bayes, naive_bayes_log_odds
from .propagation import _GATHER_FIRST, PropagationConfig, propagate

TASKS = ("classification", "retrieval")
METHODS = ("propagation", "naive-bayes")

# cap on one n_nodes x block float64 signal matrix.  scipy's sparse
# products cost less per nonzero and column the wider the block: on a
# 16k-node graph (2 vCPUs, 2 MiB L2) classification ran 0.39 s at 1 MiB
# (8 columns), 0.31 s at 2 MiB and 0.28 s at 3 MiB (24 columns).  At 3 MiB
# the harness allocates at most 5.2 MiB there, under the 12.7 MiB that
# loading the graph peaks at, and the process's peak RSS held at 70 MB
# up to 5 MiB; wider blocks save less and hold more.
_BLOCK_BYTES = 3 * 2**20


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
        for name, least in (("n_folds", 2), ("top_k", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise InvalidConfigError(
                    f"{name} must be an integer >= {least}, got {value!r}")
            # a numpy scalar would fail only when the report is written
            object.__setattr__(self, name, int(value))
        # at 0 a node with one edge seen only among positives and another
        # seen only among negatives scores inf - inf = NaN
        if (not isinstance(self.smoothing, Real)
                or not np.isfinite(self.smoothing) or self.smoothing <= 0):
            raise InvalidConfigError(
                f"smoothing must be finite and > 0, got {self.smoothing}")
        if isinstance(self.smoothing, np.generic):
            object.__setattr__(self, "smoothing", self.smoothing.item())

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


def _skip_reasons(sizes, fold, task) -> list:
    """Per class: why its cell in ``fold`` is skipped, or None.

    ``sizes[c, f]`` counts the nodes of class position ``c`` in fold
    ``f``."""
    in_fold = sizes[:, fold]
    if task.task == "retrieval":
        return [None if any_pos else "training fold contains no positive nodes"
                for any_pos in in_fold]
    test_size = int(in_fold.sum())
    train_size = int(sizes.sum()) - test_size
    reasons = []
    for tp, rp in zip(in_fold, sizes.sum(axis=1) - in_fold):
        if tp in (0, test_size):
            reasons.append("test fold contains a single class")
        elif task.method == "naive-bayes" and rp in (0, train_size):
            reasons.append("training folds contain a single class")
        else:
            reasons.append(None)
    return reasons


def _grouped_edges(h, group, sizes):
    """Every incidence's edge id, ordered stably by its node's ``group``,
    and where each group starts; ``sizes`` counts each group's nodes.
    The ids are read from ``H``'s CSR arrays, without its values."""
    order = np.argsort(group, kind="stable")
    ptr = h.node_edge_matrix.indptr
    degree = h.node_degree[order]
    ends = np.cumsum(degree, dtype=ptr.dtype)
    # an incidence's position in H.indices is its node's start there plus
    # its offset from its node's start in the grouped order
    take = np.repeat(ptr[order] - (ends - degree), degree)
    del order
    take += np.arange(h.nnz, dtype=take.dtype)
    firsts = np.concatenate(([0], np.cumsum(sizes)))  # each group's node
    starts = np.concatenate(([0], ends))[firsts]
    return h.node_edge_matrix.indices[take], starts


def _score_block(h, class_of, folds, fold, block, task, grouped=None):
    """The metric per class of ``block`` (class positions) in ``fold``,
    ranking every row but the known ones: the other folds in
    classification, the fold itself in retrieval.  ``grouped``, if given,
    is :func:`_grouped_edges`' result for the (class, fold) groups, from
    which the seed's first edge averages are counted."""
    k = task.n_folds
    if task.task == "retrieval":
        known, spans = folds == fold, [(fold, fold + 1)]
    else:
        known, spans = folds != fold, [(0, fold), (fold + 1, k)]
    ranked = np.flatnonzero(~known)
    # a row copy of H pays off for one fold's rows, not for k - 1 folds'
    nodes = ranked if 2 * ranked.size < h.n_nodes else None
    # row-major, so no sparse product copies it
    seed = np.where(known, class_of, -1)[:, None] == block
    if task.method == "propagation":
        t0 = time.perf_counter()
        means = None
        if grouped is not None:  # each class's count over its known folds
            edges, starts = grouped
            means = np.empty((h.n_edges, len(block)))
            for col, first in enumerate(np.multiply(block, k)):
                means[:, col] = sum(np.bincount(
                    edges[starts[first + a]:starts[first + b]],
                    minlength=h.n_edges) for a, b in spans)
            means /= h.edge_degree[:, None]
        scores = propagate(h, seed, task.propagation, nodes=nodes,
                           edge_means=means)
        micros = (time.perf_counter() - t0) * 1e6
    else:
        # on known rows the seed is the class indicator
        if task.task == "classification":
            train = np.where(known[:, None], seed, np.int8(-1))
        else:
            train = np.where(seed, np.int8(1), np.int8(-1))
            for col, class_pos in enumerate(block):
                pool = np.flatnonzero(~seed[:, col])
                rng = _cell_rng(task.seed, class_pos, fold)
                train[rng.choice(pool, size=ranked.size, replace=False), col] = 0
        t0 = time.perf_counter()
        model = fit_naive_bayes(h, train, task.smoothing)
        scores = naive_bayes_log_odds(model, h, nodes)
        micros = (time.perf_counter() - t0) * 1e6
    scores = scores[ranked] if nodes is None else scores
    y = class_of[ranked][:, None] == block
    if task.task == "classification":
        return roc_auc(scores, y), micros
    return precision_at_k(scores, y, task.top_k), micros


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
    # class ids are reported as ints, so 0.2 and 0.7 would both be class 0
    if labels.dtype.kind not in "biuf":
        raise ShapeError(
            f"labels must be integer class ids, got dtype {labels.dtype}")
    if labels.dtype.kind == "f":
        bad = np.flatnonzero(~np.isfinite(labels)
                             | (labels != np.trunc(labels)))
        if bad.size:
            raise ShapeError(f"labels must be integer class ids, got "
                             f"{float(labels[bad[0]])} at node {bad[0]}")
    present, class_of = np.unique(labels, return_inverse=True)
    k = task.n_folds
    folds = assign_folds(h.n_nodes, k, task.seed).folds
    # the run's one grouping: nodes by (class, fold)
    group = class_of * k + folds
    sizes = np.bincount(group, minlength=present.size * k)
    grouped = None
    if (task.method == "propagation"
            and task.propagation.variant in _GATHER_FIRST):
        grouped = _grouped_edges(h, group, sizes)
    del group
    sizes = sizes.reshape(present.size, k)
    width = max(1, _BLOCK_BYTES // (8 * h.n_nodes))

    outcomes = {}  # (class_pos, fold) -> (value, micros) or skip reason
    units = []
    for fold in range(k):
        live = []
        for class_pos, reason in enumerate(_skip_reasons(sizes, fold, task)):
            if reason is None:
                live.append(class_pos)
            else:
                outcomes[class_pos, fold] = reason
        units += [(fold, live[i:i + width]) for i in range(0, len(live), width)]

    def compute(unit):
        return _score_block(h, class_of, folds, *unit, task, grouped)

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
        for fold in range(k):
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
