"""File ingestion and report serialization.

Incidence files are delimiter-separated text (comma or tab, auto-detected
from the header) with required columns ``nodeId`` and ``edgeId`` in any
order; label files use ``nodeId`` and ``label``.  Every input file is read
in one pass into columns (see :class:`_Table`) and checked column-wise,
failing at the line of its first bad row.  Metric reports serialize to a
canonical JSON document (stable key order, lossless floats) or to CSV with
the fixed column order ``class,fold,metric,value,micros``.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import re
import warnings
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path

import numpy as np

from .errors import (MissingColumnError, MissingLabelError, ParseError,
                     UnknownNodeError)
from .evaluation import MetricReport
from .hypergraph import Hypergraph, IdMaps, build_hypergraph

_LINE_END = re.compile("\r\n?|\n")
_BLANK_LINES = re.compile("\n\n+")
# the characters that make csv's default dialect quote a field
_NEEDS_QUOTES = re.compile('[,"\r\n]')


@dataclass(frozen=True)
class DatasetBundle:
    """A loaded dataset: structure, identifier maps, dense labels."""

    name: str
    hypergraph: Hypergraph
    id_maps: IdMaps
    labels: np.ndarray
    class_names: tuple

    def __post_init__(self):
        arr = np.asarray(self.labels, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)


class _Table:
    """A delimited file parsed in one pass into columns.

    The file is read once as UTF-8 (a leading BOM is dropped) and its
    delimiter detected from the header line: tab if present, otherwise
    comma.  Data lines are tokenized all at once, by ``str.split`` when
    the data contain no ``"`` and by :mod:`csv` otherwise; both give the
    same fields, line numbers and field size limit, so the tokenizer never
    changes which files load.  Blank lines are skipped.

    The table holds the ``rows`` data rows before the first bad one, and
    ``lines[i]`` is the line number of row ``i``.  A check that finds a bad
    row calls :meth:`reject`, which cuts the rows there, and :meth:`done`
    raises the pending error: a file fails at its first bad row, with that
    row's message, as a row-by-row reader would.
    """

    def __init__(self, path):
        self.path = path
        text = _decode(path, Path(path).read_bytes())
        if not text:
            raise ParseError(f"{path}: file is empty")
        match = _LINE_END.search(text)
        cut = match.end() if match else len(text)
        delim = "\t" if "\t" in text[:cut] else ","
        try:
            header = next(csv.reader([text[:cut]], delimiter=delim))
        except csv.Error as exc:
            raise ParseError(f"{path}: line 1: {exc}") from exc
        self.header = [c.strip() for c in header]
        text = text[cut:]
        tokenize = _csv_tokens if '"' in text else _split_tokens
        tokens, counts, blank, stop, error = tokenize(text, delim)
        k = len(self.header)
        ragged = np.flatnonzero(~blank[:stop] & (counts[:stop] != k))
        if ragged.size:
            stop = int(ragged[0])
            error = f"expected {k} fields, got {counts[stop]}"
        self.error = None if error is None else ParseError(
            f"{path}: line {stop + 2}: {error}")  # the header is line 1
        self.lines = np.flatnonzero(~blank[:stop]) + 2
        self.rows = self.lines.size
        # rows before ``stop`` are well-formed, so the first ``rows * k``
        # tokens are their fields, row after row
        self._tokens = tokens

    def indexes(self, names):
        """Column index of each of ``names``."""
        try:
            return [self.header.index(name) for name in names]
        except ValueError as exc:
            raise MissingColumnError(
                f"{self.path}: header must name columns {names}, "
                f"got {self.header}") from exc

    def column(self, i):
        """The raw fields of column ``i``, one per row."""
        k = len(self.header)
        return self._tokens[i:self.rows * k:k]

    def ids(self, columns):
        """Whitespace-stripped identifier lists, one per column index.

        Stops at the first row with an empty identifier.
        """
        ids = [list(map(str.strip, self.column(i))) for i in columns]
        empty = [col.index("") for col in ids if "" in col]
        if empty:
            row = min(empty)
            self.reject(row, "empty identifier")
            ids = [col[:row] for col in ids]
        return ids

    def reject(self, row, message):
        """Drop data row ``row`` and every row after it, failing at ``row``."""
        self.rows = row
        self.error = ParseError(
            f"{self.path}: line {self.lines[row]}: {message}")

    def done(self):
        """Raise the error of the first bad row, if any."""
        if self.error is not None:
            raise self.error


def _decode(path, raw):
    if raw.startswith(codecs.BOM_UTF8):
        raw = raw[len(codecs.BOM_UTF8):]
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        line = (head.count(b"\n") + head.count(b"\r")
                - head.count(b"\r\n") + 1)
        raise ParseError(
            f"{path}: line {line}: invalid UTF-8: {exc.reason}") from exc


def _split_tokens(data, delim):
    """Tokenize quote-free data lines with one ``str.split``.

    Returns the flat token list (blank lines yield none), the tokens per
    line, which lines are blank, the number of lines read and the error
    that stopped the read.  Line ends are ``\\r\\n``, ``\\r`` and ``\\n``,
    as for :mod:`csv`.  Tokens are counted on the UTF-8 bytes, where the
    delimiter and the line end are single bytes.
    """
    data = data.replace("\r\n", "\n").replace("\r", "\n")
    raw = np.frombuffer(data.encode("utf-8"), dtype=np.uint8)
    ends = np.append(np.flatnonzero(raw == ord("\n")), raw.size)
    counts = np.diff(np.searchsorted(np.flatnonzero(raw == ord(delim)), ends),
                     prepend=0) + 1
    width = np.diff(ends, prepend=-1) - 1  # in bytes, so at least the chars
    del raw, ends
    stop, error = width.size, None
    limit = csv.field_size_limit()
    if (width > limit).any():
        lines = data.split("\n")
        for line in np.flatnonzero(width > limit):
            if max(map(len, lines[line].split(delim))) > limit:
                stop = int(line)
                error = f"field larger than field limit ({limit})"
                break
    blank = width == 0
    if blank[:-1].any():
        data = _BLANK_LINES.sub("\n", data).lstrip("\n")
    return data.replace("\n", delim).split(delim), counts, blank, stop, error


def _csv_tokens(data, delim):
    """Tokenize with :mod:`csv`; returns what :func:`_split_tokens` does."""
    rows, error = [], None
    try:
        rows.extend(csv.reader(io.StringIO(data, newline=""), delimiter=delim))
    except csv.Error as exc:
        error = str(exc)
    counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    return (list(chain.from_iterable(rows)), counts, counts == 0, len(rows),
            error)


def _read_ids(path, columns):
    table = _Table(path)
    ids = table.ids(table.indexes(columns))
    table.done()
    return ids


def load_incidence(path, node_universe=None) -> tuple[Hypergraph, IdMaps]:
    """Load a ``nodeId,edgeId`` incidence file.

    Duplicate rows collapse (incidence is binary).  ``node_universe``, an
    optional iterable of node identifiers, is interned ahead of the file
    contents so label-only isolated nodes exist with degree 0.
    """
    pairs = np.array(_read_ids(path, ("nodeId", "edgeId")), dtype=object).T
    return build_hypergraph(pairs, node_universe=node_universe)


def read_labels(path):
    """Parse a ``nodeId,label`` file once.

    Returns ``(node_ids, labels, class_names)``: the labeled node ids in
    first-appearance order, their dense class ids as an int array aligned
    with ``node_ids``, and the label value of each class id.  Class ids
    follow a numeric sort when every label parses as an integer, a
    lexicographic one otherwise.  A repeated row is ignored; a node
    labeled twice with different values raises :class:`ParseError`.
    """
    node_ids, labels = _read_ids(path, ("nodeId", "label"))
    seen: dict[str, str] = {}
    firsts = list(map(seen.setdefault, node_ids, labels))
    if firsts != labels:
        row = next(i for i, (a, b) in enumerate(zip(firsts, labels))
                   if a != b)
        raise ParseError(
            f"{path}: node {node_ids[row]!r} labeled both "
            f"{firsts[row]!r} and {labels[row]!r}")
    class_names = sorted(set(seen.values()))
    try:
        class_names.sort(key=int)
    except ValueError:
        pass
    class_id = dict(zip(class_names, count()))
    dense = np.fromiter(map(class_id.__getitem__, seen.values()),
                        dtype=np.int64, count=len(seen))
    return list(seen), dense, tuple(class_names)


def load_labels(path, id_maps: IdMaps):
    """Load per-node class ids aligned with a hypergraph's node indices.

    Every node of the universe must be labeled and every label must refer
    to a known node.  Returns ``(labels, class_names)`` where ``labels``
    is an int array over dense node indices and ``class_names`` maps the
    dense class ids back to the original label values.
    """
    node_ids, classes, class_names = read_labels(path)
    labels = np.full(len(id_maps.node_ids), -1, dtype=np.int64)
    for node_id, c in zip(node_ids, classes):
        if node_id not in id_maps.node_ids:
            raise UnknownNodeError(
                f"{path}: label for unknown node {node_id!r}")
        labels[id_maps.node_ids.index_of(node_id)] = c
    if (labels < 0).any():
        missing = id_maps.node_ids.id_of(int(np.argmin(labels)))
        raise MissingLabelError(f"node {missing!r} has no label in {path}")
    return labels, class_names


def load_dataset(incidence_path, labels_path, name=None) -> DatasetBundle:
    """Load a labeled dataset, using the label file as the node universe.

    Nodes that appear only in the incidence file would be unlabeled and
    are therefore rejected; nodes that carry a label but never occur in an
    incidence pair become isolated (degree 0) nodes.  Labeled nodes take
    the leading indices in label-file order, so one parse aligns them.
    """
    universe, labels, class_names = read_labels(labels_path)
    h, maps = load_incidence(incidence_path, node_universe=universe)
    if h.n_nodes > len(universe):  # first incidence-only node is unlabeled
        missing = maps.node_ids.id_of(len(universe))
        raise MissingLabelError(f"node {missing!r} has no label in {labels_path}")
    if name is None:
        name = Path(incidence_path).stem
    return DatasetBundle(name=str(name), hypergraph=h, id_maps=maps,
                         labels=labels, class_names=class_names)


def load_signal(path):
    """Load a per-node signal file: ``nodeId`` plus numeric columns.

    Returns ``(node_ids, values)`` with ``values`` of shape
    ``(len(node_ids), d)``; column order follows the file.
    """
    table = _Table(path)
    (node_col,) = table.indexes(("nodeId",))
    value_cols = [i for i in range(len(table.header)) if i != node_col]
    if not value_cols:
        raise MissingColumnError(f"{path}: no signal columns besides nodeId")
    (ids,) = table.ids([node_col])
    first_row: dict[str, int] = {}
    first = np.fromiter(map(first_row.setdefault, ids, count()),
                        dtype=np.intp, count=len(ids))
    repeats = np.flatnonzero(first != np.arange(len(ids)))
    if repeats.size:
        row = int(repeats[0])
        table.reject(row, f"duplicate node {ids[row]!r}")
        ids = ids[:row]
    columns = [table.column(i) for i in value_cols]
    try:
        values = np.array([list(map(float, col)) for col in columns])
    except ValueError:
        table.reject(min(map(_first_non_float, columns)),
                     "non-numeric signal value")
    table.done()
    if not ids:
        raise ParseError(f"{path}: no signal rows")
    return ids, np.ascontiguousarray(values.T)


def _first_non_float(texts):
    for i, text in enumerate(texts):
        try:
            float(text)
        except ValueError:
            return i
    return len(texts)


def write_signal(path, node_ids, values):
    """Write a per-node signal file (inverse of :func:`load_signal`)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    d = values.shape[1]
    header = ["nodeId"] + (["value"] if d == 1 else
                           [f"value{i}" for i in range(d)])
    ids = list(node_ids)
    try:
        plain = _NEEDS_QUOTES.search("".join(ids)) is None
    except TypeError:  # a non-str id: csv decides how it prints
        plain = False
    if not plain:
        ids = list(map(_csv_field, ids))
    line = "%s," + ",".join(["%.17g"] * d) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        # numpy rows, not values.tolist(), which holds every value as a
        # Python float at once
        fh.writelines(line % (node_id, *row)
                      for node_id, row in zip(ids, values))


def _csv_field(value) -> str:
    """``value`` as csv's default writer prints it ahead of more fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow((value, ""))
    return buf.getvalue()[:-3]  # drop the empty last field and the "\r\n"


def dataset_stats(bundle: DatasetBundle) -> dict:
    """Structural summary of a loaded dataset."""
    h = bundle.hypergraph
    isolated = int((h.node_degree == 0).sum())
    return {
        "name": bundle.name,
        "n_nodes": h.n_nodes,
        "n_edges": h.n_edges,
        "nnz": h.nnz,
        "n_isolated": isolated,
        "isolated_ratio": isolated / h.n_nodes,
        "n_classes": len(bundle.class_names),
        "mean_node_degree": float(h.node_degree.mean()),
        "mean_edge_degree": float(h.edge_degree.mean()),
    }


def check_stats(bundle: DatasetBundle, expected: dict) -> list[str]:
    """Compare loaded statistics against published characteristics.

    Mismatches are returned (and emitted as warnings), not raised: dataset
    releases drift, and a count difference should not block an experiment.
    """
    stats = dataset_stats(bundle)
    mismatches = []
    for key, want in expected.items():
        got = stats.get(key)
        if got != want:
            mismatches.append(f"{bundle.name}: {key} = {got}, expected {want}")
    for msg in mismatches:
        warnings.warn(msg, stacklevel=2)
    return mismatches


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def canonical_json_bytes(obj) -> bytes:
    """Stable JSON encoding: fixed key order, lossless floats, final newline.

    Serializing, parsing, and serializing again is byte-identical.
    """
    return (json.dumps(obj, ensure_ascii=False, indent=2,
                       separators=(",", ": "), allow_nan=False) + "\n").encode("utf-8")


def report_to_dict(report: MetricReport) -> dict:
    """JSON-ready view of a report.

    Per-cell wall times are deliberately absent here (they live in the CSV
    form): the JSON document is a pure function of inputs and seed, so two
    runs of the same experiment produce byte-identical files.
    """
    return {
        "dataset": report.dataset,
        "task": report.task,
        "method": report.method,
        "metric": report.metric,
        "params": dict(report.params),
        "classes": list(report.class_names),
        "cells": [
            {"class": report.class_name(c.class_id), "fold": c.fold,
             "value": c.value}
            for c in report.cells
        ],
        "skipped": [
            {"class": report.class_name(s.class_id), "fold": s.fold,
             "reason": s.reason}
            for s in report.skipped
        ],
        "per_class_mean": {
            report.class_name(c): v
            for c, v in report.per_class_mean().items()
        },
        f"mean_{report.metric}": report.mean(),
    }


def write_report(report: MetricReport, path, fmt: str = "json") -> None:
    """Serialize a report to ``path`` as canonical JSON or CSV.

    The CSV form has one row per (class, fold) cell followed by a single
    aggregate row (``class`` and ``fold`` both ``"mean"``); values carry
    17 significant digits and round-trip losslessly.
    """
    if fmt == "json":
        with open(path, "wb") as fh:
            fh.write(canonical_json_bytes(report_to_dict(report)))
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["class", "fold", "metric", "value", "micros"])
            for c in report.cells:
                writer.writerow([report.class_name(c.class_id), c.fold,
                                 report.metric, format(c.value, ".17g"),
                                 format(c.micros, ".17g")])
            mean = report.mean()
            micros = report.mean_micros()
            writer.writerow(["mean", "mean", report.metric,
                             "" if mean is None else format(mean, ".17g"),
                             "" if micros is None else format(micros, ".17g")])
    else:
        raise ValueError(f"unknown report format {fmt!r}")
