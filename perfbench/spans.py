"""Span recording around hyperprop's public functions, from outside ``src/``.

:func:`traced` rebinds public names where their callers look them up (the
module globals of ``hyperprop.cli``, ``hyperprop.io`` and
``hyperprop.evaluation``) with wrappers that record one :class:`Span` per
call, and restores the originals on exit.  A name missing from its module
is reported in :attr:`Recorder.absent` instead of failing the run.

:func:`layer_metrics` turns the spans of one CLI run into per-layer
metrics.  Self time is a span's duration minus the union of its
children's intervals, so children running on several threads at once are
not subtracted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# (module, name bound there, span name).  A function bound in two modules
# gets one span name, so a layer's calls are counted the same from either.
TARGETS = (
    ("hyperprop.cli", "load_dataset", "io.load_dataset"),
    ("hyperprop.cli", "load_incidence", "io.load_incidence"),
    ("hyperprop.cli", "run_classification", "evaluation.run"),
    ("hyperprop.cli", "run_retrieval", "evaluation.run"),
    ("hyperprop.cli", "propagate", "propagation.propagate"),
    ("hyperprop.cli", "write_report", "io.write"),
    ("hyperprop.cli", "write_signal", "io.write"),
    ("hyperprop.io", "load_incidence", "io.load_incidence"),
    ("hyperprop.io", "load_labels", "io.load_labels"),
    ("hyperprop.io", "build_hypergraph", "hypergraph.build"),
    ("hyperprop.evaluation", "propagate", "propagation.propagate"),
    ("hyperprop.evaluation", "roc_auc", "metrics.roc_auc"),
    ("hyperprop.evaluation", "precision_at_k", "metrics.precision_at_k"),
    ("hyperprop.evaluation", "fit_naive_bayes", "naive_bayes.fit"),
    ("hyperprop.evaluation", "naive_bayes_log_odds", "naive_bayes.score"),
    ("hyperprop.evaluation", "assign_folds", "evaluation.assign_folds"),
    ("hyperprop.evaluation", "binarize", "evaluation.binarize"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    run: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> str:
        """One JSONL line; attribute objects such as graphs print as repr."""
        return json.dumps({"id": self.id, "name": self.name,
                           "parent": self.parent, "thread": self.thread,
                           "run": self.run, "start": self.start,
                           "end": self.end, **self.attrs}, default=repr)


def _propagate_attrs(args, kwargs, result):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"columns": 1 if x.ndim == 1 else x.shape[1],
            "layers": config.layers, "variant": config.variant}


def _build_attrs(args, kwargs, result):
    pairs = args[0] if args else kwargs["pairs"]
    return {"pairs_in": len(pairs), "graph": result[0]}


def _score_attrs(args, kwargs, result):
    return {"scored": int(np.size(result))}


def _ranked_attrs(args, kwargs, result):
    return {"items": int(np.size(args[0] if args else kwargs["scores"]))}


def _report_attrs(args, kwargs, result):
    return {"cells": len(result.cells), "skipped": len(result.skipped)}


# what each span records about its call, beyond its interval
ATTRS = {
    "propagation.propagate": _propagate_attrs,
    "hypergraph.build": _build_attrs,
    "naive_bayes.score": _score_attrs,
    "metrics.precision_at_k": _ranked_attrs,
    "evaluation.run": _report_attrs,
}


class Recorder:
    """In-memory span store shared by every wrapper of one benchmark run.

    A span's parent is the innermost open span of its own thread; a span
    opened on a worker thread with nothing open there takes the innermost
    open span of the thread that opened the run.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.run = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._run_stack: list[int] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else \
            (self._run_stack[-1] if self._run_stack else None)
        s = Span(next(self._ids), name, parent, threading.get_ident(), self.run)
        self.spans.append(s)
        stack.append(s.id)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def cli_run(self, run: int):
        """Root span ``cli.main`` of one CLI run; worker threads attach here."""
        self.run = run
        self._run_stack = self._stack()
        with self.span("cli.main") as s:
            yield s

    def wrap(self, name, fn):
        describe = ATTRS.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if describe is not None:
                try:
                    s.attrs.update(describe(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    # the call's signature changed: keep the span, drop counts
                    s.attrs["describe_error"] = repr(exc)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


@contextlib.contextmanager
def traced(recorder: Recorder, targets=TARGETS):
    """Rebind ``targets`` to recording wrappers; restore them on exit."""
    saved = []
    try:
        for module_name, attr, span_name in targets:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                if f"{module_name}.{attr}" not in recorder.absent:
                    recorder.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span_name, original))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@contextlib.contextmanager
def mark_return(module, attr, marks: list):
    """Append ``perf_counter()`` to ``marks`` each time ``attr`` returns.

    The untraced run's only instrument: one timestamp at the loader's
    return splits a CLI run into set-up and work.
    """
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        marks.append(time.perf_counter())
        return result

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, covered = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > covered:
            total += end - max(start, covered)
            covered = end
    return total


def self_time(span: Span, children) -> float:
    """``span``'s duration minus the union of its children's intervals."""
    return span.duration - union_length(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
        if c.end > span.start and c.start < span.end)


def graph_bytes(h) -> int:
    """Bytes of every array a Hypergraph holds, cached matrices included.

    Arrays that are views of one buffer count that buffer once.
    """
    arrays = []
    for value in vars(h).values():
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif hasattr(value, "tocsr"):  # scipy sparse matrix
            arrays += [getattr(value, a) for a in ("data", "indices", "indptr")
                       if isinstance(getattr(value, a, None), np.ndarray)]
    owners = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners[id(a)] = a.nbytes
    return sum(owners.values())


def propagation_cost(h, layers, columns, variant):
    """Computed (flops, bytes moved) of one ``propagate`` call.

    Counts the four passes of each layer as CSR products and elementwise
    scales over float64 signals; bytes assume every operand is read from
    and written to memory once, with no cache reuse.  A model, not a
    measurement.
    """
    n, m, nnz, d = h.n_nodes, h.n_edges, h.nnz, columns
    idx = h.node_edge_matrix.indices.itemsize
    ptr = h.node_edge_matrix.indptr.itemsize
    flops = 4 * nnz * d + m * d + n * d
    moved = ((m + 1 + n + 1) * ptr + 2 * nnz * (idx + 8)  # both CSR operands
             + 2 * nnz * d * 8 + (m + n) * d * 8          # gathered reads, writes
             + (2 * m * d + m) * 8 + (2 * n * d + n) * 8)  # two degree scales
    if variant in ("column", "symmetric"):
        flops += n * d
        moved += (2 * n * d + n) * 8
    if variant == "alpha":
        flops += 3 * n * d
        moved += 3 * n * d * 8
    return flops * layers, moved * layers


def layer_metrics(spans, h) -> dict:
    """Per-layer metrics of one traced CLI run from its spans.

    ``h`` is the run's Hypergraph (or None); layers never called read 0.
    """
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def of(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in of(name))

    def selves(name):
        return sum(self_time(s, children.get(s.id, [])) for s in of(name))

    nnz = h.nnz if h is not None else 0
    props = of("propagation.propagate")
    described = [s for s in props if "variant" in s.attrs]
    layer_columns = sum(s.attrs["layers"] * s.attrs["columns"] for s in described)
    costs = [propagation_cost(h, s.attrs["layers"], s.attrs["columns"],
                              s.attrs["variant"])
             for s in described if h is not None]
    busy = total("propagation.propagate")
    pairs_in = sum(s.attrs.get("pairs_in", 0) for s in of("hypergraph.build"))
    runs = of("evaluation.run")
    run_span = sum(s.duration for s in runs)
    run_children = [c for s in runs for c in children.get(s.id, [])]
    return {
        "io.parse_s": selves("io.load_incidence"),
        "io.labels_s": total("io.load_labels"),
        "io.universe_s": selves("io.load_dataset"),
        "io.write_s": total("io.write"),
        "hypergraph.build_s": total("hypergraph.build"),
        "hypergraph.pairs_in": pairs_in,
        "hypergraph.nnz": nnz,
        "hypergraph.dup_collapsed": pairs_in - nnz,
        "hypergraph.bytes_per_nnz": graph_bytes(h) / nnz if nnz else 0.0,
        "propagation.calls": len(props),
        "propagation.busy_s": busy,
        "propagation.layer_columns": layer_columns,
        "propagation.ns_per_nnz_col": (busy * 1e9 / (layer_columns * nnz)
                                       if layer_columns and nnz else 0.0),
        "propagation.flops": sum(c[0] for c in costs),
        "propagation.bytes_moved": sum(c[1] for c in costs),
        "naive_bayes.fit_calls": len(of("naive_bayes.fit")),
        "naive_bayes.fit_s": total("naive_bayes.fit"),
        "naive_bayes.score_s": total("naive_bayes.score"),
        "naive_bayes.scored_nodes": sum(s.attrs.get("scored", 0)
                                        for s in of("naive_bayes.score")),
        "metrics.roc_auc_calls": len(of("metrics.roc_auc")),
        "metrics.roc_auc_s": total("metrics.roc_auc"),
        "metrics.precision_at_k_calls": len(of("metrics.precision_at_k")),
        "metrics.precision_at_k_s": total("metrics.precision_at_k"),
        "metrics.items_ranked": sum(s.attrs.get("items", 0)
                                    for s in of("metrics.precision_at_k")),
        "evaluation.cells": sum(s.attrs.get("cells", 0) for s in runs),
        "evaluation.skipped": sum(s.attrs.get("skipped", 0) for s in runs),
        "evaluation.binarize_calls": len(of("evaluation.binarize")),
        "evaluation.binarize_s": total("evaluation.binarize"),
        "evaluation.assign_folds_s": total("evaluation.assign_folds"),
        "evaluation.self_s": selves("evaluation.run"),
        "evaluation.concurrency": (sum(c.duration for c in run_children)
                                   / run_span if run_span else 0.0),
        "cli.self_s": selves("cli.main"),
    }
