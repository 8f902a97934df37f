"""File ingestion and report serialization.

Incidence files are delimiter-separated text (comma or tab, auto-detected
from the header) with required columns ``nodeId`` and ``edgeId`` in any
order; label files use ``nodeId`` and ``label``.  Every input file is read
in one pass into the byte range of each field (see :class:`_Table`) and
checked column-wise, failing at the line of its first bad row.  Each id
column is interned by :func:`_intern_column`, which decides once: a column
whose ids are all under 8 bytes and unpadded never becomes one Python
object per row, as equal ids are grouped by sorting one exact 64-bit key
per field and each distinct id is decoded once; any other id column is
decoded, stripped by ``str.strip`` and grouped by a dict.  Memory grows
with the bytes read.
Metric reports serialize to a canonical JSON document (stable key order,
lossless floats) or to CSV with the fixed column order
``class,fold,metric,value,micros``.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import re
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path

import numpy as np

from .errors import (MissingColumnError, MissingLabelError, ParseError,
                     ShapeError, UnknownNodeError)
from .evaluation import MetricReport
from .hypergraph import (Hypergraph, IdMaps, InternedPairs, _intern,
                         build_hypergraph)

_LINE_END = re.compile(rb"\r\n?|\n")
# the characters that make csv's default dialect quote a field
_NEEDS_QUOTES = re.compile('[,"\r\n]')
# zero bytes after a table's data, so 8 bytes can be read from any position
_PAD = 8
# bytes that may start or end a character str.isspace accepts: its ASCII
# whitespace, and every byte of a multi-byte character
_MAYBE_SPACE = np.array([chr(b).isspace() for b in range(128)] + [True] * 128)
_LOW = np.array([(1 << 8 * k) - 1 for k in range(8)], dtype=np.uint64)
# bytes that _decode gathers at once
_DECODE_BYTES = 1 << 18
# rows that write_signal formats with one % and writes at once
_WRITE_ROWS = 512


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
    """A delimited file parsed in one pass into byte ranges.

    The file is read once as bytes, checked to be UTF-8 (a leading BOM is
    dropped) and its delimiter detected from the header line: tab if
    present, otherwise comma.  Data lines are tokenized all at once into
    the byte range of every field: by delimiter and line-end positions
    when the data contain no ``"`` and by :mod:`csv` otherwise, whose
    fields are joined into a new buffer.  Both give the same fields, line
    numbers and field size limit, so the tokenizer never changes which
    files load.  Blank lines are skipped.

    The table holds the ``rows`` data rows before the first bad one, and
    ``lines[i]`` is the line number of row ``i``.  A check that finds a bad
    row calls :meth:`reject`, which keeps the earliest one, and :meth:`done`
    raises its error: a file fails at its first bad row, as a row-by-row
    reader would, whatever order the checks run in.  Of two checks that
    fail the same row, the first to run wins.
    """

    def __init__(self, path):
        self.path = path
        raw = Path(path).read_bytes()
        if raw.startswith(codecs.BOM_UTF8):
            raw = raw[len(codecs.BOM_UTF8):]
        _check_utf8(path, raw)
        if not raw:
            raise ParseError(f"{path}: file is empty")
        match = _LINE_END.search(raw)
        cut = match.end() if match else len(raw)
        line = raw[:cut].decode("utf-8")
        delim = "\t" if "\t" in line else ","
        try:
            header = next(csv.reader([line], delimiter=delim))
        except csv.Error as exc:
            raise ParseError(f"{path}: line 1: {exc}") from exc
        self.header = [c.strip() for c in header]
        data = raw[cut:]
        del raw
        tokenize = _csv_tokens if b'"' in data else _split_tokens
        data, starts, ends, counts, blank, stop, error = tokenize(data, delim)
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
        # fields are theirs, row after row
        self._raw = data + bytes(_PAD)
        self._buf = np.frombuffer(self._raw, dtype=np.uint8)
        self._starts, self._ends = starts, ends

    def indexes(self, names):
        """Column index of each of ``names``."""
        try:
            return [self.header.index(name) for name in names]
        except ValueError as exc:
            raise MissingColumnError(
                f"{self.path}: header must name columns {names}, "
                f"got {self.header}") from exc

    def _fields(self, i):
        """The byte ranges of column ``i``, one per row."""
        cut = slice(i, self.rows * len(self.header), len(self.header))
        return self._starts[cut], self._ends[cut]

    def column(self, i):
        """The raw fields of column ``i``, one str per row."""
        return _decode(self._raw, self._buf, *self._fields(i))

    def ids(self, i):
        """Column ``i``'s identifiers, whitespace-stripped and interned.

        Returns the distinct ids in first-appearance order and each row's
        index into them, and rejects the first row with an empty id.
        """
        ids, index, empty = _intern_column(self._raw, self._buf,
                                           *self._fields(i))
        self.reject(empty, "empty identifier")
        return ids, index

    def reject(self, row, message):
        """Fail at data row ``row`` unless an earlier row already fails.

        The rows from ``row`` on are dropped, so later checks skip them.
        """
        if row < self.rows:
            self.rows = row
            self.error = ParseError(
                f"{self.path}: line {self.lines[row]}: {message}")

    def done(self):
        """Raise the error of the first bad row, if any."""
        if self.error is not None:
            raise self.error


def _check_utf8(path, raw):
    if raw.isascii():
        return
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        line = (head.count(b"\n") + head.count(b"\r")
                - head.count(b"\r\n") + 1)
        raise ParseError(
            f"{path}: line {line}: invalid UTF-8: {exc.reason}") from exc


def _split_tokens(data, delim):
    """Tokenize quote-free data lines at delimiter and line-end bytes.

    Line ends are ``\\r\\n``, ``\\r`` and ``\\n``, as for :mod:`csv`; each is
    first rewritten as one ``\\n``, which keeps every line number.  In UTF-8
    the delimiter and ``\\n`` are single bytes that no other character
    contains.  Returns the buffer tokenized (``data`` so rewritten), each
    token's byte range (blank lines yield none), the tokens per line, which
    lines are blank, the number of lines read and the error that stopped
    the read.
    """
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    raw = np.frombuffer(data, dtype=np.uint8)
    sep = raw == ord(delim)
    sep |= raw == ord("\n")
    ends = np.append(np.flatnonzero(sep), raw.size)
    del sep
    line_end = np.append(raw[ends[:-1]] != ord(delim), True)
    starts = np.insert(ends[:-1] + 1, 0, 0)
    del raw
    last = np.flatnonzero(line_end)  # each line's last token
    counts = np.diff(last, prepend=-1)
    blank = ends[last] == starts[last - counts + 1]
    if blank[:-1].any():
        starts, ends = (a[np.repeat(~blank, counts)] for a in (starts, ends))
        last = np.cumsum(counts * ~blank) - 1
    stop, error = last.size, None
    limit = csv.field_size_limit()
    for token in np.flatnonzero(ends - starts > limit):  # bytes >= chars
        if len(data[starts[token]:ends[token]].decode("utf-8")) > limit:
            stop = int(np.searchsorted(last, token))
            error = f"field larger than field limit ({limit})"
            break
    return data, starts, ends, counts, blank, stop, error


def _csv_tokens(data, delim):
    """Tokenize with :mod:`csv`; returns what :func:`_split_tokens` does.

    The buffer returned is every field's UTF-8 bytes, back to back.
    """
    rows, error = [], None
    try:
        rows.extend(csv.reader(io.StringIO(data.decode("utf-8"), newline=""),
                               delimiter=delim))
    except csv.Error as exc:
        error = str(exc)
    counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    fields = list(chain.from_iterable(rows))
    joined = "".join(fields)
    if not joined.isascii():
        fields = map(str.encode, fields)
    sizes = np.fromiter(map(len, fields), dtype=np.intp, count=counts.sum())
    ends = np.cumsum(sizes)
    return (joined.encode("utf-8"), ends - sizes, ends, counts, counts == 0,
            len(rows), error)


def _intern_column(raw, buf, starts, ends):
    """The fields ``raw[starts[i]:ends[i]]``, stripped and interned.

    Returns the distinct ids in first-appearance order, each field's index
    into them and the row of the first empty id (the row count if none is).
    While every field is under 8 bytes and none starts or ends with a byte
    of a possible whitespace character, equal fields are grouped by sorting
    one exact 64-bit key each, their bytes and length, and each distinct id
    is decoded once; any other column is decoded, stripped and grouped by a
    dict.
    """
    lens = ends - starts
    full = lens > 0
    if lens.max(initial=0) >= 8 or (
            full & (_MAYBE_SPACE[buf[starts]] | _MAYBE_SPACE[buf[ends - 1]])
            ).any():
        texts = [text.strip() for text in _decode(raw, buf, starts, ends)]
        return *_intern(texts), texts.index("") if "" in texts else len(texts)
    words = np.ndarray((buf.size - _PAD + 1,), dtype="<u8", buffer=buf,
                       strides=(1,))  # the 8 bytes from each position on
    key = words[starts]
    key &= _LOW[lens]
    key |= lens.astype(np.uint64) << np.uint64(56)
    del lens
    order = np.argsort(key)
    key = key[order]
    head = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    del key
    first = (np.minimum.reduceat(order, np.flatnonzero(head)) if order.size
             else order)  # each group's first field
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(head) - 1
    order = np.argsort(first)  # groups by first appearance
    rank = np.empty(order.size, dtype=np.intp)
    rank[order] = np.arange(order.size)
    first = first[order]
    return (_decode(raw, buf, starts[first], ends[first]), rank[group],
            full.size if full.all() else int(np.argmin(full)))


def _decode(raw, buf, starts, ends):
    """The fields ``raw[starts[i]:ends[i]]`` as a list of str.

    About ``_DECODE_BYTES`` at a time, the fields are copied back to back
    with a newline after each and split after one decode, unless a field
    holds a newline (only a quoted one can).
    """
    slots = np.cumsum(ends - starts + 1)  # bytes through each field's "\n"
    cuts = np.searchsorted(slots, np.arange(
        _DECODE_BYTES, slots[-1] if slots.size else 0, _DECODE_BYTES))
    del slots
    texts = []
    for s, e in zip(np.split(starts, cuts), np.split(ends, cuts)):
        lens = e - s
        if not lens.size:
            continue
        slots = np.cumsum(lens + 1)  # where each field's "\n" goes, plus 1
        joined = buf[np.arange(slots[-1])
                     - np.repeat(slots - lens - 1 - s, lens + 1)]
        joined[slots - 1] = 0
        if (joined == ord("\n")).any():
            texts += [raw[a:b].decode("utf-8")
                      for a, b in zip(s.tolist(), e.tolist())]
        else:
            joined[slots - 1] = ord("\n")
            texts += joined[:-1].tobytes().decode("utf-8").split("\n")
    return texts


def _read_ids(path, columns):
    table = _Table(path)
    ids = [table.ids(i) for i in table.indexes(columns)]
    table.done()
    return ids


def _first_rows(index):
    """The row where each id of an interned column first appears."""
    seen = np.maximum.accumulate(index)  # ids are numbered by first row
    return np.flatnonzero(np.diff(seen, prepend=-1))


def load_incidence(path, node_universe=None) -> tuple[Hypergraph, IdMaps]:
    """Load a ``nodeId,edgeId`` incidence file.

    Duplicate rows collapse (incidence is binary).  ``node_universe``, an
    optional iterable of node identifiers, is interned ahead of the file
    contents so label-only isolated nodes exist with degree 0.
    """
    (node_ids, nodes), (edge_ids, edges) = _read_ids(path,
                                                     ("nodeId", "edgeId"))
    return build_hypergraph(InternedPairs(node_ids, nodes, edge_ids, edges),
                            node_universe=node_universe)


def read_labels(path):
    """Parse a ``nodeId,label`` file once.

    Returns ``(node_ids, labels, class_names)``: the labeled node ids in
    first-appearance order, their dense class ids as an int array aligned
    with ``node_ids``, and the label value of each class id.  Class ids
    follow a numeric sort when every label parses as an integer, a
    lexicographic one otherwise.  A repeated row is ignored; a node
    labeled twice with different values raises :class:`ParseError`.
    """
    (node_ids, nodes), (values, labels) = _read_ids(path, ("nodeId", "label"))
    firsts = labels[_first_rows(nodes)]
    clash = np.flatnonzero(firsts[nodes] != labels)
    if clash.size:
        row = clash[0]
        raise ParseError(
            f"{path}: node {node_ids[nodes[row]]!r} labeled both "
            f"{values[firsts[nodes[row]]]!r} and {values[labels[row]]!r}")
    class_names = sorted(values)
    try:
        class_names.sort(key=int)
    except ValueError:
        pass
    class_id = dict(zip(class_names, count()))
    dense = np.fromiter(map(class_id.__getitem__, values), dtype=np.int64,
                        count=len(values))
    return node_ids, dense[firsts], tuple(class_names)


def load_labels(path, id_maps: IdMaps):
    """Load per-node class ids aligned with a hypergraph's node indices.

    Every node of the universe must be labeled and every label must refer
    to a known node.  Returns ``(labels, class_names)`` where ``labels``
    is an int array over dense node indices and ``class_names`` maps the
    dense class ids back to the original label values.
    """
    node_ids, classes, class_names = read_labels(path)
    at = id_maps.node_ids.lookup(node_ids)
    unknown = np.flatnonzero(at < 0)
    if unknown.size:
        raise UnknownNodeError(
            f"{path}: label for unknown node {node_ids[unknown[0]]!r}")
    labels = np.full(len(id_maps.node_ids), -1, dtype=np.int64)
    labels[at] = classes
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
    ids, index = table.ids(node_col)
    repeats = np.flatnonzero(index != np.arange(index.size))
    if repeats.size:
        row = int(repeats[0])  # every row before it holds a new id
        table.reject(row, f"duplicate node {ids[index[row]]!r}")
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
    """Write a per-node signal file (inverse of :func:`load_signal`).

    ``values`` has shape ``(len(node_ids),)`` or ``(len(node_ids), d)``.
    The file is what csv's default writer makes of the header ``nodeId``,
    ``value`` (``value0`` ... ``value{d-1}`` when ``d != 1``) and one row
    per node: the id, then each value as ``%.17g``, so the file round-trips
    losslessly; rows end in ``\\r\\n``.  Rows are formatted and written
    :data:`_WRITE_ROWS` at a time, with one ``%`` and one write per block,
    so beyond a list of the ids the writer holds one block as Python floats
    and text, never the whole file.  A shape that does not match the ids raises
    :class:`ShapeError` before the file is opened.
    """
    values = np.asarray(values, dtype=np.float64)
    ids = list(node_ids)
    if values.ndim not in (1, 2):
        raise ShapeError(f"values must be 1-D or 2-D, got shape {values.shape}")
    if len(values) != len(ids):
        raise ShapeError(f"values have {len(values)} rows for {len(ids)} "
                         "node ids")
    if values.ndim == 1:
        values = values[:, None]
    d = values.shape[1]
    header = ["nodeId"] + (["value"] if d == 1 else
                           [f"value{i}" for i in range(d)])
    try:
        plain = _NEEDS_QUOTES.search("".join(ids)) is None
    except TypeError:  # a non-str id: csv decides how it prints
        plain = False
    if not plain:
        ids = list(map(_csv_field, ids))
    if "%" in "".join(ids):  # the ids become part of a %-template
        ids = [node_id.replace("%", "%%") for node_id in ids]
    row_end = ",%.17g" * d + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(ids), _WRITE_ROWS):
            block = slice(start, start + _WRITE_ROWS)
            template = row_end.join(ids[block]) + row_end
            fh.write(template % tuple(values[block].ravel().tolist()))


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
        "classes": [report.class_name(c) for c in sorted(
            {x.class_id for x in (*report.cells, *report.skipped)})],
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
