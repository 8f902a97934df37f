"""File ingestion and report serialization.

Incidence files are delimiter-separated text (comma or tab, auto-detected
from the header) with required columns ``nodeId`` and ``edgeId`` in any
order; label files use ``nodeId`` and ``label``.  Metric reports serialize
to a canonical JSON document (stable key order, lossless floats) or to CSV
with the fixed column order ``class,fold,metric,value,micros``.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (MissingColumnError, MissingLabelError, ParseError,
                     UnknownNodeError)
from .evaluation import MetricReport
from .hypergraph import Hypergraph, IdMaps, build_hypergraph


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


def _open_rows(path):
    """Yield (line_number, row) from a delimited file, header first.

    The delimiter is detected from the header line: tab if present,
    otherwise comma.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ParseError(f"{path}: file is empty")
        delim = "\t" if "\t" in header_line else ","
        reader = csv.reader([header_line], delimiter=delim)
        header = [c.strip() for c in next(reader)]
        yield 1, header
        for lineno, row in enumerate(csv.reader(fh, delimiter=delim), start=2):
            if not row:
                continue
            yield lineno, row


def _column_indexes(path, header, required):
    try:
        return [header.index(name) for name in required]
    except ValueError as exc:
        raise MissingColumnError(
            f"{path}: header must name columns {required}, got {header}"
        ) from exc


def _read_pairs(path, columns):
    rows = _open_rows(path)
    _, header = next(rows)
    idx = _column_indexes(path, header, columns)
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


def load_incidence(path, node_universe=None) -> tuple[Hypergraph, IdMaps]:
    """Load a ``nodeId,edgeId`` incidence file.

    Duplicate rows collapse (incidence is binary).  ``node_universe``, an
    optional iterable of node identifiers, is interned ahead of the file
    contents so label-only isolated nodes exist with degree 0.
    """
    pairs = _read_pairs(path, ("nodeId", "edgeId"))
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
    seen: dict[str, str] = {}
    for node_id, label in _read_pairs(path, ("nodeId", "label")):
        first = seen.setdefault(node_id, label)
        if first != label:
            raise ParseError(
                f"{path}: node {node_id!r} labeled both "
                f"{first!r} and {label!r}")
    class_names = sorted(set(seen.values()))
    try:
        class_names.sort(key=int)
    except ValueError:
        pass
    class_id = {name: i for i, name in enumerate(class_names)}
    labels = np.array([class_id[label] for label in seen.values()],
                      dtype=np.int64)
    return list(seen), labels, tuple(class_names)


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
    rows = _open_rows(path)
    _, header = next(rows)
    (node_col,) = _column_indexes(path, header, ("nodeId",))
    value_cols = [i for i in range(len(header)) if i != node_col]
    if not value_cols:
        raise MissingColumnError(f"{path}: no signal columns besides nodeId")
    ids, values = [], []
    seen = set()
    for lineno, row in rows:
        if len(row) != len(header):
            raise ParseError(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"got {len(row)}")
        node_id = row[node_col].strip()
        if node_id == "":
            raise ParseError(f"{path}: line {lineno}: empty identifier")
        if node_id in seen:
            raise ParseError(f"{path}: line {lineno}: duplicate node "
                             f"{node_id!r}")
        seen.add(node_id)
        try:
            values.append([float(row[i]) for i in value_cols])
        except ValueError as exc:
            raise ParseError(
                f"{path}: line {lineno}: non-numeric signal value") from exc
        ids.append(node_id)
    if not ids:
        raise ParseError(f"{path}: no signal rows")
    return ids, np.asarray(values, dtype=np.float64)


def write_signal(path, node_ids, values):
    """Write a per-node signal file (inverse of :func:`load_signal`)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    d = values.shape[1]
    header = ["nodeId"] + (["value"] if d == 1 else
                           [f"value{i}" for i in range(d)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for node_id, row in zip(node_ids, values):
            writer.writerow([node_id] + [format(v, ".17g") for v in row])


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
