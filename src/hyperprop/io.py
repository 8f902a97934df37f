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
decoded, stripped by ``str.strip`` and grouped by a dict.  While a file
is read, the reader holds one padded copy of its bytes plus two offsets
per field, int32 while the copy is under 2 GiB and int64 above.
Metric reports serialize to a canonical JSON document (stable key order,
lossless floats) or to CSV with the fixed column order
``class,fold,metric,value,micros``.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import os
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

    The file is read once into one buffer with :data:`_PAD` zero bytes at
    its end, checked to be UTF-8 (a leading BOM is skipped) and its
    delimiter detected from the header line: tab if present, otherwise
    comma.  Data lines are tokenized all at once into the byte range of
    every field, offsets into that buffer: by delimiter and line-end
    positions when the data contain no ``"`` and by :mod:`csv` otherwise,
    whose fields are joined into a new buffer.  Both give the same fields,
    line numbers and field size limit, so the tokenizer never changes
    which files load.  Blank lines are skipped.  The offsets are int32
    while the buffer is under 2 GiB, int64 beyond.

    The table holds the ``rows`` data rows before the first bad one.  A
    check that finds a bad row calls :meth:`reject`, which keeps the
    earliest one, and :meth:`done` raises its error: a file fails at its
    first bad row, as a row-by-row reader would, whatever order the checks
    run in.  Of two checks that fail the same row, the first to run wins.
    A row's line number is worked out only for its error, from the
    positions of the blank lines.
    """

    def __init__(self, path):
        self.path = path
        buf, size = _read_padded(path)
        begin = len(codecs.BOM_UTF8) if buf.startswith(codecs.BOM_UTF8) else 0
        _check_utf8(path, buf, begin, size)
        if size == begin:
            raise ParseError(f"{path}: file is empty")
        match = _LINE_END.search(buf, begin, size)
        cut = match.end() if match else size
        line = buf[begin:cut].decode("utf-8")
        delim = "\t" if "\t" in line else ","
        try:
            header = next(csv.reader([line], delimiter=delim))
        except csv.Error as exc:
            raise ParseError(f"{path}: line 1: {exc}") from exc
        self.header = [c.strip() for c in header]
        quoted = buf.find(b'"', cut, size) >= 0
        tokenize = _csv_tokens if quoted else _split_tokens
        (self._buf, self._starts, self._ends, line_end, blank_lines, stop,
         error) = tokenize(buf, cut, size, delim)
        del buf
        # each blank line's count of data rows before it
        self._skips = blank_lines - np.arange(blank_lines.size)
        k = len(self.header)
        rows, last = _whole_rows(line_end, k)
        if error is not None and stop <= last:  # the read stopped first
            rows = rows if stop >= rows * k else stop // k
        elif last < line_end.size:
            error = f"expected {k} fields, got {last - rows * k + 1}"
        # rows before ``self.rows`` are well-formed, so the first
        # ``rows * k`` fields are theirs, row after row
        self.rows = rows
        self.error = None if error is None else ParseError(
            f"{path}: line {self._line(rows)}: {error}")

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

    def _line(self, row):
        """The line number of data row ``row``; the header is line 1."""
        return row + int(np.searchsorted(self._skips, row, side="right")) + 2

    def column(self, i):
        """The raw fields of column ``i``, one str per row."""
        return _decode(self._buf, *self._fields(i))

    def ids(self, i):
        """Column ``i``'s identifiers, whitespace-stripped and interned.

        Returns the distinct ids in first-appearance order and each row's
        index into them, and rejects the first row with an empty id.
        """
        ids, index, empty = _intern_column(self._buf, *self._fields(i))
        self.reject(empty, "empty identifier")
        return ids, index

    def reject(self, row, message):
        """Fail at data row ``row`` unless an earlier row already fails.

        The rows from ``row`` on are dropped, so later checks skip them.
        """
        if row < self.rows:
            self.rows = row
            self.error = ParseError(
                f"{self.path}: line {self._line(row)}: {message}")

    def done(self):
        """Raise the error of the first bad row, if any."""
        if self.error is not None:
            raise self.error


def _read_padded(path):
    """The bytes of ``path`` and :data:`_PAD` zero bytes, in one buffer.

    Returns the buffer and the file's size.
    """
    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size + _PAD)
        size = fh.readinto(buf)
        if size == len(buf):  # the file grew, or does not report its size
            buf += fh.read()
            size = len(buf)
            buf += bytes(_PAD)
        else:
            del buf[size + _PAD:]
    return buf, size


def _check_utf8(path, buf, begin, end):
    if buf.isascii():
        return
    try:
        str(memoryview(buf)[begin:end], "utf-8")
    except UnicodeDecodeError as exc:
        at = begin + exc.start
        line = (buf.count(b"\n", begin, at) + buf.count(b"\r", begin, at)
                - buf.count(b"\r\n", begin, at) + 1)
        raise ParseError(
            f"{path}: line {line}: invalid UTF-8: {exc.reason}") from exc


def _offset_type(size):
    """The dtype of offsets into a buffer of ``size`` bytes."""
    return np.int32 if size < 2**31 else np.int64


def _split_tokens(buf, begin, end, delim):
    """Tokenize the quote-free data lines ``buf[begin:end]``.

    Tokens end at delimiter and line-end bytes.  Line ends are ``\\r\\n``,
    ``\\r`` and ``\\n``, as for :mod:`csv`; in UTF-8 the delimiter, ``\\r``
    and ``\\n`` are single bytes that no other character contains.
    Returns the buffer as a uint8 array, each token's byte range in it
    (blank lines yield none), whether each token ends its line, the index
    of each blank line among all data lines, the first token not read and
    the error that stopped the read.
    """
    arr = np.frombuffer(buf, dtype=np.uint8)
    data = arr[begin:end]
    sep = data == ord(delim)
    sep |= data == ord("\n")
    has_cr = buf.find(b"\r", begin, end) >= 0
    if has_cr:
        cr = data == ord("\r")
        sep[1:] &= ~(cr[:-1] & (data[1:] == ord("\n")))  # \n of a \r\n
        sep |= cr
        del cr
    at = np.flatnonzero(sep)
    del sep
    ends = np.empty(at.size + 1, dtype=_offset_type(len(buf)))
    np.add(at, begin, out=ends[:-1], casting="unsafe")
    del at
    ends[-1] = end
    starts = np.empty_like(ends)
    starts[0] = begin
    np.add(ends[:-1], 1, out=starts[1:])
    if has_cr:  # a token after a \r\n starts one byte further on
        after = ends[:-1] + 1
        starts[1:] += (arr[after] == ord("\n")) & (arr[after - 1] == ord("\r"))
        del after
    line_end = arr[ends] != ord(delim)  # the last token reads a pad byte
    blank = ends == starts  # an empty token that is all of its line
    blank &= line_end
    blank[1:] &= line_end[:-1]
    if blank[:-1].any():
        lines = np.searchsorted(np.flatnonzero(line_end),
                                np.flatnonzero(blank))
        keep = ~blank
    else:  # at most the empty line after a final line end, before no row
        lines = np.empty(0, dtype=np.intp)
        keep = slice(blank.size - blank[-1])
    starts, ends, line_end = starts[keep], ends[keep], line_end[keep]
    del blank, keep
    stop, error = ends.size, None
    limit = csv.field_size_limit()
    for token in np.flatnonzero(ends - starts > limit):  # bytes >= chars
        if len(buf[starts[token]:ends[token]].decode("utf-8")) > limit:
            stop = int(token)
            error = f"field larger than field limit ({limit})"
            break
    return arr, starts, ends, line_end, lines, stop, error


def _csv_tokens(buf, begin, end, delim):
    """Tokenize with :mod:`csv`; returns what :func:`_split_tokens` does.

    The buffer returned is every field's UTF-8 bytes, back to back, and
    :data:`_PAD` zero bytes; the read stops after the last token.
    """
    rows, error = [], None
    text = str(memoryview(buf)[begin:end], "utf-8")
    try:
        rows.extend(csv.reader(io.StringIO(text, newline=""),
                               delimiter=delim))
    except csv.Error as exc:
        error = str(exc)
    del text
    counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    fields = list(chain.from_iterable(rows))
    del rows
    joined = "".join(fields)
    if not joined.isascii():
        fields = map(str.encode, fields)
    data = joined.encode("utf-8") + bytes(_PAD)
    del joined
    width = _offset_type(len(data))
    sizes = np.fromiter(map(len, fields), dtype=width, count=counts.sum())
    ends = np.cumsum(sizes, dtype=width)
    line_end = np.zeros(ends.size, dtype=bool)
    line_end[np.cumsum(counts[counts > 0]) - 1] = True
    return (np.frombuffer(data, dtype=np.uint8), ends - sizes, ends,
            line_end, np.flatnonzero(counts == 0), ends.size, error)


def _whole_rows(line_end, k):
    """The leading rows of ``k`` tokens, and the last token of the next.

    ``line_end[t]`` tells whether token ``t`` ends its line.  Returns the
    number of rows before the first that does not hold ``k`` tokens, and
    the index of that row's last token: the token count if every row
    holds ``k``.
    """
    rows = 0
    if k:
        whole = line_end[:line_end.size // k * k].reshape(-1, k)
        ok = whole[:, -1] & ~whole[:, :-1].any(axis=1)
        rows = ok.size if ok.all() else int(np.argmin(ok))
    if rows * k == line_end.size:
        return rows, line_end.size
    return rows, rows * k + int(np.argmax(line_end[rows * k:]))


def _intern_column(buf, starts, ends):
    """The fields ``buf[starts[i]:ends[i]]``, stripped and interned.

    Returns the distinct ids in first-appearance order, each field's index
    into them and the row of the first empty id (the row count if none is).
    While every field is under 8 bytes and none starts or ends with a byte
    of a possible whitespace character, equal fields are grouped by sorting
    one exact 64-bit key each, their bytes and length, and each distinct id
    is decoded once; the index then has the offsets' dtype.  Any other
    column is decoded, stripped and grouped by a dict.
    """
    lens = ends - starts
    full = lens > 0
    if lens.max(initial=0) >= 8 or (
            full & (_MAYBE_SPACE[buf[starts]] | _MAYBE_SPACE[buf[ends - 1]])
            ).any():
        texts = [text.strip() for text in _decode(buf, starts, ends)]
        return *_intern(texts), texts.index("") if "" in texts else len(texts)
    words = np.ndarray((buf.size - _PAD + 1,), dtype="<u8", buffer=buf,
                       strides=(1,))  # the 8 bytes from each position on
    key = words[starts]
    key &= _LOW[lens]
    key.view(np.uint8).reshape(-1, 8)[:, 7] = lens  # the top byte is 0
    del lens
    order = np.argsort(key)
    key = key[order]
    head = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    del key
    first = (np.minimum.reduceat(order, np.flatnonzero(head)) if order.size
             else order)  # each group's first field
    group = np.empty(order.size, dtype=starts.dtype)
    group[order] = np.cumsum(head, dtype=group.dtype) - 1
    order = np.argsort(first)  # groups by first appearance
    rank = np.empty(order.size, dtype=group.dtype)
    rank[order] = np.arange(order.size)
    first = first[order]
    return (_decode(buf, starts[first], ends[first]), rank[group],
            full.size if full.all() else int(np.argmin(full)))


def _decode(buf, starts, ends):
    """The fields ``buf[starts[i]:ends[i]]`` as a list of str.

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
            texts += [buf[a:b].tobytes().decode("utf-8")
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
    values = np.empty((table.rows, len(value_cols)))
    for j, i in enumerate(value_cols):
        texts = table.column(i)  # the rows before the first bad one
        try:
            values[:len(texts), j] = np.fromiter(
                map(float, texts), dtype=np.float64, count=len(texts))
        except ValueError:
            table.reject(_first_non_float(texts), "non-numeric signal value")
    table.done()
    if not ids:
        raise ParseError(f"{path}: no signal rows")
    return ids, values


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
