"""Independent brute-force references used only by the tests.

These deliberately share no code with the production implementations
beyond the Hypergraph type itself: explicit dense matrix products, plain
Python loops, probability-space arithmetic, exhaustive pair enumeration.
Slow on purpose.

The exception is :func:`per_cell_report`, the reference for the batched
evaluation harness: it scores one (class, fold) cell at a time through
the public single-column functions.

:func:`row_load_incidence`, :func:`row_read_labels` and
:func:`row_load_signal` are the reference for ingestion: the row-by-row
``csv.reader`` loop the columnar reader replaced, with one dict lookup per
pair and the structure built from Python sets into plain CSR lists,
without the engine's ``Hypergraph``.  :func:`row_write_signal` is the
reference for the block writer: one ``csv.writer`` row per node.
"""

import csv
import io
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.stats import rankdata

from hyperprop import (EmptyGraphError, MetricCell, MetricReport,
                       MissingColumnError, ParseError, PropagationConfig,
                       SkippedCell, assign_folds, binarize,
                       fit_naive_bayes, naive_bayes_log_odds, precision_at_k,
                       propagate, roc_auc)

# the dense references refuse anything bigger than this n_nodes * n_edges
DENSE_GUARD = 1_000_000


class SizeGuardError(Exception):
    """A dense reference computation was requested on too large a graph."""


def _guard_dense(h):
    if h.n_nodes * h.n_edges > DENSE_GUARD:
        raise SizeGuardError(
            f"dense reference limited to n_nodes * n_edges <= {DENSE_GUARD}, "
            f"got {h.n_nodes} * {h.n_edges}")


def _edges_of(h, node):
    """Hyperedges incident to ``node``: its row of ``H``, read from CSR."""
    m = h.node_edge_matrix
    return m.indices[m.indptr[node]:m.indptr[node + 1]]


def _dense_incidence(h):
    H = np.zeros((h.n_nodes, h.n_edges))
    for i in range(h.n_nodes):
        H[i, _edges_of(h, i)] = 1.0
    return H


def _dense_degree_inverses(H):
    """``D^-1`` (with ``1/0 := 0``) and ``B^-1`` as diagonal matrices,
    the degrees counted from the dense incidence itself."""
    node_deg, edge_deg = H.sum(axis=1), H.sum(axis=0)
    with np.errstate(divide="ignore"):
        dinv = np.where(node_deg > 0, 1.0 / node_deg, 0.0)
    return np.diag(dinv), np.diag(1.0 / edge_deg)


def dense_kernel(h):
    """Dense node-to-node kernel ``H B^-1 H^T``.

    Entry (i, k) counts the hyperedges containing both nodes, each weighted
    by the reciprocal of its degree.  Guarded to small graphs.
    """
    _guard_dense(h)
    H = _dense_incidence(h)
    _, binv = _dense_degree_inverses(H)
    return H @ binv @ H.T


def dense_propagate_layer(h, x, config=None):
    """Single propagation layer via explicit dense matrix products.

    ``x`` is 1-D or 2-D, and the result has its shape.  Raises
    :class:`SizeGuardError` when ``n_nodes * n_edges`` exceeds
    ``DENSE_GUARD``.
    """
    config = config or PropagationConfig()
    _guard_dense(h)
    x = np.asarray(x, dtype=np.float64)
    H = _dense_incidence(h)
    dinv, binv = _dense_degree_inverses(H)
    if config.variant == "row":
        return dinv @ H @ binv @ H.T @ x
    if config.variant == "column":
        return H @ binv @ H.T @ dinv @ x
    if config.variant == "symmetric":
        dhalf = np.sqrt(dinv)
        return dhalf @ H @ binv @ H.T @ dhalf @ x
    a = float(config.alpha)
    return 2.0 * a * (dinv @ H @ binv @ H.T @ x) + (1.0 - 2.0 * a) * x


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


def rankdata_auc(scores, labels):
    """ROC-AUC from scipy's average ranks, 1-D or one value per column.

    The formula ``roc_auc`` used before it summed ranks by binary search;
    both rank sums are exact half-integers, so the two agree bit for bit.
    """
    s2, y2 = np.asarray(scores, dtype=np.float64), np.asarray(labels) == 1
    n_pos = y2.sum(axis=0)
    n_neg = y2.shape[0] - n_pos
    rank_sum = (rankdata(s2, axis=0) * y2).sum(axis=0)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


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
        for e in _edges_of(h, int(node)):
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
        for e in _edges_of(h, int(node)):
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
    y_train = y[~test_mask]
    if y_train.min() == y_train.max():
        return None, "training folds contain a single class"
    t0 = time.perf_counter()
    model = fit_naive_bayes(h, np.where(test_mask, -1, y), task.smoothing)
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
    train_y = np.where(train_pos, 1, -1)
    train_y[pseudo_neg] = 0
    t0 = time.perf_counter()
    model = fit_naive_bayes(h, train_y, task.smoothing)
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
    return MetricReport(dataset=dataset_name, task=task.task,
                        method=task.method, metric=task.metric_name,
                        params=params, class_names=class_names,
                        cells=tuple(cells), skipped=tuple(skipped))


def _open_rows(path):
    """Yield (line_number, row) from a delimited file, header first.

    The delimiter is detected from the header line: tab if present,
    otherwise comma.  A ``csv.Error`` (a field over the size limit)
    becomes a :class:`ParseError` at the row it stopped on.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ParseError(f"{path}: file is empty")
        delim = "\t" if "\t" in header_line else ","
        try:
            header = next(csv.reader([header_line], delimiter=delim))
        except csv.Error as exc:
            raise ParseError(f"{path}: line 1: {exc}") from exc
        yield 1, [c.strip() for c in header]
        reader = csv.reader(fh, delimiter=delim)
        lineno = 2
        while True:
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            if row:
                yield lineno, row
            lineno += 1


def row_read_pairs(path, columns):
    """The named columns of every data row, as tuples of stripped ids."""
    rows = _open_rows(path)
    _, header = next(rows)
    try:
        idx = [header.index(name) for name in columns]
    except ValueError as exc:
        raise MissingColumnError(
            f"{path}: header must name columns {columns}, got {header}"
        ) from exc
    out = []
    for lineno, row in rows:
        if len(row) != len(header):
            raise ParseError(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"got {len(row)}")
        values = [row[i].strip() for i in idx]
        if any(v == "" for v in values):
            raise ParseError(f"{path}: line {lineno}: empty identifier")
        out.append(tuple(values))
    return out


def row_load_incidence(path, node_universe=()):
    """``((node_ptr, node_adj, edge_ptr, edge_adj), node ids, edge ids)``.

    The four lists are the CSR layouts of ``H`` and ``H^T``.
    """
    node_index, edge_index = {}, {}
    for node in node_universe:
        node_index.setdefault(node, len(node_index))
    incidences = set()
    for node, edge in row_read_pairs(path, ("nodeId", "edgeId")):
        i = node_index.setdefault(node, len(node_index))
        j = edge_index.setdefault(edge, len(edge_index))
        incidences.add((i, j))
    if not incidences:
        raise EmptyGraphError("incidence stream contains no (node, edge) pairs")

    def csr(pairs, n_rows):
        members = [[] for _ in range(n_rows)]
        for a, b in sorted(pairs):
            members[a].append(b)
        ptr = [0]
        for m in members:
            ptr.append(ptr[-1] + len(m))
        return ptr, [b for m in members for b in m]

    arrays = (*csr(incidences, len(node_index)),
              *csr({(j, i) for i, j in incidences}, len(edge_index)))
    return arrays, tuple(node_index), tuple(edge_index)


def row_read_labels(path):
    """``(node ids, class ids, class names)`` as ``read_labels`` defines them."""
    seen = {}
    for node, label in row_read_pairs(path, ("nodeId", "label")):
        first = seen.setdefault(node, label)
        if first != label:
            raise ParseError(f"{path}: node {node!r} labeled both "
                             f"{first!r} and {label!r}")
    names = sorted(set(seen.values()))
    if all(_is_int(n) for n in names):
        names.sort(key=int)
    return (list(seen), [names.index(v) for v in seen.values()],
            tuple(names))


def row_load_signal(path):
    """``(node ids, values)`` as ``load_signal`` defines them.

    Each row is checked in turn for its field count, an empty id, a node
    seen before and, column by column, a value ``float`` rejects.
    """
    rows = _open_rows(path)
    _, header = next(rows)
    if "nodeId" not in header:
        raise MissingColumnError(f"{path}: header must name columns "
                                 f"{('nodeId',)}, got {header}")
    node_col = header.index("nodeId")
    if len(header) == 1:
        raise MissingColumnError(f"{path}: no signal columns besides nodeId")
    ids, values = [], []
    for lineno, row in rows:
        if len(row) != len(header):
            raise ParseError(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"got {len(row)}")
        node = row.pop(node_col).strip()
        if not node:
            raise ParseError(f"{path}: line {lineno}: empty identifier")
        if node in ids:
            raise ParseError(f"{path}: line {lineno}: duplicate node {node!r}")
        try:
            values.append([float(text) for text in row])
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}: non-numeric signal value") from None
        ids.append(node)
    if not ids:
        raise ParseError(f"{path}: no signal rows")
    return ids, values


def row_write_signal(node_ids, values):
    """The bytes ``write_signal`` writes: one ``csv.writer`` row per node."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    d = values.shape[1]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["nodeId"] + (["value"] if d == 1 else
                                  [f"value{i}" for i in range(d)]))
    for node_id, row in zip(node_ids, values, strict=True):
        writer.writerow([node_id] + [format(v, ".17g") for v in row])
    return buf.getvalue().encode("utf-8")


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True
