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
decoded, stripped by ``str.strip`` and grouped by a dict.  A node universe
of such ids, as a label file's ids usually are, is encoded into keys of
the same kind and sorted with the incidence file's node column, so its
ids come first, in its order, and only the node ids it lacks are decoded;
no node id is looked up in a dict.  While a file is read, the reader
holds one padded copy of its bytes plus two offsets per field, int32
while the copy is under 2 GiB and int64 above.
Signal files are written in blocks of whole rows, at most
:data:`_WRITE_VALUES` values each, each block's values as one byte matrix
that one pass turns into text: numpy formats zeros and the values of
magnitude in ``[1e-4, 1e17)``, byte for byte as ``%.17g`` does (see
:func:`_fixed_slots`), and one ``%`` per block fills in the ids and
formats the rest, so the file is what csv's writer makes of each value's
``%.17g`` text.  Metric reports serialize to a canonical JSON
document (stable key order, lossless floats) or to CSV with the fixed
column order ``class,fold,metric,value,micros``.
"""

from __future__ import annotations

import codecs
import csv
import functools
import io
import json
import os
import re
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path
from types import SimpleNamespace

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
# values that write_signal formats and writes at once, in whole rows (at
# least one); a block peaks at about 170 bytes per value, 2.3 MiB
_WRITE_VALUES = 2048 * 7


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

    def ids(self, i, universe=()):
        """Column ``i``'s identifiers, whitespace-stripped and interned.

        Returns the distinct ids in first-appearance order, each row's
        index into them and ``universe``, or None once its ids lead the
        distinct ids (see :func:`_intern_column`), and rejects the first
        row with an empty id.
        """
        empty, *ids = _intern_column(self._buf, *self._fields(i), universe)
        self.reject(empty, "empty identifier")
        return ids

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


def _intern_column(buf, starts, ends, universe=()):
    """The fields ``buf[starts[i]:ends[i]]``, stripped and interned.

    Returns the row of the first empty id (the row count if none is), the
    distinct ids in first-appearance order, each field's index into them
    and ``universe`` (a sequence of ids), or None once the distinct ids
    start with the universe's own.  While every field is under 8 bytes, equal
    fields are grouped by sorting one exact 64-bit key each (see
    :func:`_keys`), with the keys of a universe of short str ids ahead of
    them (see :func:`_universe_ahead`).  Unless a distinct key then starts
    or ends with a byte of a possible whitespace character, the ids are
    the universe's distinct ids, in its order, then the ids first seen in
    a field, each decoded once, and the index has the offsets' dtype.  Any
    other column is decoded, stripped and grouped by a dict, and the
    universe is left to the caller.
    """
    lens = ends - starts
    if keyed := lens.max(initial=0) < 8:
        empty = lens.size if lens.all() else int(np.argmin(lens))
        key = _universe_ahead(universe, _keys(buf, starts, lens))
        known = key.size - lens.size  # the universe's keys, if any
        order = np.argsort(key)
        key = key[order]
        head = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=head[1:])
        # equal fields have equal keys, so test each distinct key's first
        # and last byte; byte 7 is its length (and an empty one's last byte)
        kept = key[head].view(np.uint8).reshape(-1, 8)
        last = kept[np.arange(len(kept)), kept[:, 7].astype(np.intp) - 1]
        keyed = not (_MAYBE_SPACE[kept[:, 0]] | _MAYBE_SPACE[last]).any()
        del key, kept, last
    if not keyed:
        texts = [text.strip() for text in _decode(buf, starts, ends)]
        empty = texts.index("") if "" in texts else len(texts)
        return empty, *_intern(texts), universe or None
    first = (np.minimum.reduceat(order, np.flatnonzero(head)) if order.size
             else order)  # each group's first field
    group = np.empty(order.size, dtype=starts.dtype)
    group[order] = np.cumsum(head, dtype=group.dtype) - 1
    order = np.argsort(first)  # groups by first appearance
    rank = np.empty(order.size, dtype=group.dtype)
    rank[order] = np.arange(order.size)
    first = first[order]
    seen = int(np.searchsorted(first, known))  # the universe's groups
    ids = (list(universe[:seen]) if seen == known  # all distinct
           else [universe[i] for i in first[:seen].tolist()])
    first = first[seen:] - known
    return (empty, ids + _decode(buf, starts[first], ends[first]),
            rank[group[known:]], universe if known < len(universe) else None)


def _keys(buf, starts, lens):
    """One exact 64-bit key per field of under 8 bytes.

    The field ``buf[starts[i]:starts[i] + lens[i]]`` keys as its bytes,
    zero-filled, with its length in the top byte.
    """
    words = np.ndarray((buf.size - _PAD + 1,), dtype="<u8", buffer=buf,
                       strides=(1,))  # the 8 bytes from each position on
    key = words[starts] & _LOW[lens]
    key.view(np.uint8).reshape(-1, 8)[:, 7] = lens  # the top byte is 0
    return key


def _universe_ahead(universe, key):
    """``key`` after the :func:`_keys` of ``universe``'s ids.

    The ids are encoded once.  Returns ``key`` alone unless every id is a
    str of under 8 UTF-8 bytes with no newline.
    """
    try:
        data = ("\n".join(universe) + "\n").encode("utf-8")
    except (TypeError, UnicodeEncodeError):
        return key
    buf = np.frombuffer(data + bytes(_PAD), dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    lens = np.diff(ends, prepend=-1) - 1
    fits = ends.size == len(universe) and lens.max(initial=0) < 8
    return np.hstack((_keys(buf, ends - lens, lens), key)) if fits else key


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


def _read_ids(path, columns, universe=()):
    """Each of ``columns`` interned by :meth:`_Table.ids`, the first
    ahead of ``universe``."""
    table = _Table(path)
    ids = [table.ids(i, lead) for i, lead in zip(table.indexes(columns),
                                                 (universe, ()))]
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
    contents so label-only isolated nodes exist with degree 0: in the
    node column's key sort when its ids and the column's allow (see
    :func:`_intern_column`), by :func:`build_hypergraph` otherwise.
    """
    universe = () if node_universe is None else list(node_universe)
    (node_ids, nodes, universe), (edge_ids, edges, _) = _read_ids(
        path, ("nodeId", "edgeId"), universe)
    return build_hypergraph(InternedPairs(node_ids, nodes, edge_ids, edges),
                            node_universe=universe)


def read_labels(path):
    """Parse a ``nodeId,label`` file once.

    Returns ``(node_ids, labels, class_names)``: the labeled node ids in
    first-appearance order, their dense class ids as an int array aligned
    with ``node_ids``, and the label value of each class id.  Class ids
    follow a numeric sort when every label parses as an integer, a
    lexicographic one otherwise.  A repeated row is ignored; a node
    labeled twice with different values raises :class:`ParseError`.
    """
    (node_ids, nodes, _), (values, labels, _) = _read_ids(
        path, ("nodeId", "label"))
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
    ids, index, _ = table.ids(node_col)
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

    ``values`` has shape ``(len(node_ids),)`` or ``(len(node_ids), d)``
    with ``d >= 1``.  The file is what csv's default writer makes of the
    header ``nodeId``, ``value`` (``value0`` ... ``value{d-1}`` when
    ``d != 1``) and one row per node: the id, then each value as
    ``%.17g``, so the file round-trips losslessly; rows end in ``\\r\\n``.
    Rows are formatted by :func:`_signal_rows` and written in blocks of
    at most :data:`_WRITE_VALUES` values (at least one row), one write
    per block: zeros and values of magnitude in ``[1e-4, 1e17)``, which
    ``%.17g`` prints positionally, by numpy; exponent-style values
    (``|v| < 1e-4`` or ``>= 1e17``), inf, nan and subnormals by one
    Python ``%`` per block, which also fills in the ids.  Beyond a list
    of the ids the writer holds one block's arrays and text, about 170
    bytes per value plus a few copies of its ids' text, never the whole
    file however wide its rows or long its ids.  A shape that does not
    match the ids, or holds no values per row, raises :class:`ShapeError`
    before the file is opened.
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
    if d == 0:
        raise ShapeError("values have no columns: a signal file needs at "
                         "least one")
    header = ["nodeId"] + (["value"] if d == 1 else
                           [f"value{i}" for i in range(d)])
    try:
        plain = _NEEDS_QUOTES.search("".join(ids)) is None
    except TypeError:  # a non-str id: csv decides how it prints
        plain = False
    if not plain:
        ids = list(map(_csv_field, ids))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        rows = max(1, _WRITE_VALUES // d)
        for start in range(0, len(ids), rows):
            block = slice(start, start + rows)
            fh.write(_signal_rows(ids[block], values[block]))


def _csv_field(value) -> str:
    """``value`` as csv's default writer prints it ahead of more fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow((value, ""))
    return buf.getvalue()[:-3]  # drop the empty last field and the "\r\n"


# ---------------------------------------------------------------------------
# Signal formatting
# ---------------------------------------------------------------------------
#
# Each value of a block becomes one 24-byte slot: a comma and the value's
# %.17g text, or ",%.17g" for a value that Python formats, then _FILL
# bytes, which no ASCII text holds, so one pass drops them.  A slot that
# numpy formats is built as three little-endian words: byte 0 is the
# comma, byte 1 the sign ("-" or _FILL) and bytes 2 on the positional
# text, at most "0.000" and 17 digits.  The tables of _tables() are
# indexed by the decimal exponent E in [-4, 16] plus 4, and by a slot's
# length.

_FILL = 0xFF
_FILL_BYTE = bytes([_FILL])
_WORD = np.dtype("<u8")
_VELTKAMP = 2.0**27 + 1
# the slot of a value that Python formats
_PERCENT_SLOT = np.frombuffer(b",%.17g".ljust(24, _FILL_BYTE), dtype="V24")
# a row's id field, and the one of a block with values that Python formats
_ID_FIELD = np.frombuffer(b"%s\xff%%s", dtype=np.uint8).reshape(2, 3)
_ROW_END = np.frombuffer(b"\r\n", dtype=np.uint8)


@functools.cache
def _tables():
    """The numpy formatter's lookup tables, built on first use.

    A process that writes no signal builds none of them and pages in none
    of the numpy code that builds them, about 1 MB of RSS.
    """
    exp = np.arange(-4, 17)
    slot = np.arange(24)

    def word_columns(rows):
        """Rows of 24 bytes as three columns of words."""
        words = np.ascontiguousarray(rows, dtype=np.uint8).view(_WORD)
        return tuple(np.ascontiguousarray(words[:, i]) for i in range(3))

    t = SimpleNamespace()
    # 10**(16-E), exact up to 10**22, and its Veltkamp halves
    t.scale = (np.cumprod(np.full(21, 10.0)) / 10)[16 - exp]
    t.scale_hi = t.scale * _VELTKAMP - (t.scale * _VELTKAMP - t.scale)
    t.scale_lo = t.scale - t.scale_hi
    # the ASCII digits of 0000 ... 9999, first digit in the low byte
    digit = np.arange(ord("0"), ord("9") + 1, dtype=_WORD)
    t.digits4 = (digit[:, None, None, None] | digit[:, None, None] << 8
                 | digit[:, None] << 16 | digit << 24).ravel()
    # trailing zeros of 0000 ... 9999, 4 for 0000
    zero = np.zeros(10, dtype=np.int8)
    zero[0] = 1
    t.zeros4 = (zero * (1 + zero[:, None] * (1 + zero[:, None, None] * (
        1 + zero[:, None, None, None])))).ravel()
    # the 17 digits start at byte ``at``; for E >= 0 a "." goes after
    # E + 1 of them, for E < 0 they follow "0." and -1 - E zeros
    at = np.where(exp >= 0, 2, 3 - exp)
    t.shift = (8 * at).astype(_WORD)
    dot = np.where(exp >= 0, 3 + exp, 24)
    t.from_dot = word_columns((slot >= dot[:, None]) * 0xFF)
    prefix = np.zeros((21, 24), dtype=np.uint8)
    prefix[:, :2] = ord(","), _FILL
    prefix[exp >= 0, dot[exp >= 0]] = ord(".")
    prefix[(exp[:, None] < 0) & (slot >= 2) & (slot < at[:, None])] = ord("0")
    prefix[exp < 0, 3] = ord(".")
    t.prefix = word_columns(prefix)
    # slot length before trailing zeros go, and the digits after the point
    t.length = np.where(exp >= 0, 20, 20 - exp)
    t.fraction = 16 - exp
    # _FILL from byte L on, for a slot of length L
    t.tail = word_columns((slot >= np.arange(25)[:, None]) * _FILL)
    return t


def _signal_rows(ids, values):
    """The text of signal rows as bytes: ``ids[i]``, then ``values[i]``.

    ``ids`` are csv-ready str.  The values are laid out as one byte
    matrix, a row per id: an id field, a 24-byte slot per value and the
    row end, padded with _FILL bytes, which one pass then drops.  Zeros
    and magnitudes in ``[1e-4, 1e17)`` are formatted by
    :func:`_fixed_slots`.  Every other value, and any whose exponent
    :func:`_fixed_slots` could not fix, gets the slot ``,%.17g``.  The
    text is then a template: one ``%`` formats those values, if any,
    turning each id field ``%%s`` into ``%s``, and one ``%`` fills in the
    ids.  The matrix never holds an id, so its width is set by ``d``
    alone, and each id's text is copied a few times, however long it is.
    """
    rows, d = values.shape
    flat = values.ravel()
    mag = np.abs(flat)
    fixed = (mag >= 1e-4) & (mag < 1e17)
    fixed |= mag == 0
    at = np.flatnonzero(fixed)
    slots = np.repeat(_PERCENT_SLOT, flat.size)
    if at.size:
        fixed_slots, failed = _fixed_slots(flat[at], mag[at])
        slots[at] = fixed_slots
        failed = at[failed]
        fixed[failed] = False
        slots[failed] = _PERCENT_SLOT
        del fixed_slots, failed
    del mag, at
    other = flat[~fixed]
    matrix = np.empty((rows, 24 * d + 5), dtype=np.uint8)
    matrix[:, :3] = _ID_FIELD[int(other.size > 0)]
    matrix[:, 3:-2] = slots.view(np.uint8).reshape(rows, -1)
    matrix[:, -2:] = _ROW_END
    del slots, fixed
    template = matrix.tobytes().translate(None, _FILL_BYTE).decode("ascii")
    del matrix
    if other.size:  # "%%s" leaves "%s" for the ids
        template %= tuple(other.tolist())
    return (template % tuple(ids)).encode("utf-8")


def _fixed_slots(values, mag):
    """The 24-byte slots of ``values``, positional %.17g text.

    ``mag`` is ``abs(values)``, each 0 or in ``[1e-4, 1e17)``; it is
    overwritten.  The %.17g digits of a value ``v`` with decimal exponent
    ``E`` are the integer nearest to ``|v| * 10**(16 - E)``, ties to even.
    That product is formed exactly, as ``p + e`` by Dekker's TwoProduct,
    and it lies in ``[1e16, 1e17)`` for the right ``E``: ``E`` is
    estimated from ``log10`` and fixed once where the range test on
    ``(p, e)`` fails.  Then ``p`` is an even integer above 2**53, so the
    digits are ``p + rint(e)`` rounded as CPython does.  Also returns
    which values failed the range test twice; their slots are not valid.
    """
    t = _tables()
    zero = mag == 0
    mag[zero] = 1.0
    exp = np.log10(mag)
    np.floor(exp, out=exp)
    exp = exp.astype(np.intp)
    exp += 4
    np.clip(exp, 0, 20, out=exp)
    p, e = _scaled(mag, exp)
    low, high = _out_of_range(p, e)
    if low.any() or high.any():
        exp += high
        exp -= low
        np.clip(exp, 0, 20, out=exp)
        p, e = _scaled(mag, exp)
        low, high = _out_of_range(p, e)
    failed = low | high
    digits = p.astype(np.int64)
    digits += np.rint(e).astype(np.int64)
    del mag, p, e, low, high
    # the 17 digits: 1, then four groups of 4
    top = digits // 10**8
    low = digits - top * 10**8
    del digits
    lead = top // 10**4
    g2 = top - lead * 10**4
    g0 = lead // 10**4
    g1 = lead - g0 * 10**4
    g0 -= zero  # a zero is formatted as 1, then its digit turned to 0
    del zero
    g3 = low // 10**4
    g4 = low - g3 * 10**4
    trailing = t.zeros4[g4]
    more = np.flatnonzero(g4 == 0)  # the values whose zeros go on
    for group in g3, g2, g1:
        group = group[more]
        trailing[more] += t.zeros4[group]
        more = more[group == 0]
    fraction = t.fraction[exp]
    np.minimum(trailing, fraction, out=trailing)
    length = t.length[exp] - trailing
    length -= trailing == fraction  # no digits after the point: no point
    del trailing, fraction
    # the digits as 17 bytes, then shifted to their place in the slot
    q2, q4 = t.digits4[g2], t.digits4[g4]
    w0 = t.digits4[g1] << 8
    w0 |= q2 << 40
    w0 |= g0.view(_WORD)
    w0 += ord("0")
    w1 = t.digits4[g3] << 8
    w1 |= q2 >> 24
    w1 |= q4 << 40
    w2 = q4 >> 24
    del q2, q4, g0, g1, g2, g3, g4, top, low, lead
    shift = t.shift[exp]
    w2 <<= shift
    w2 |= w1 >> (64 - shift)
    w1 <<= shift
    w1 |= w0 >> (64 - shift)
    w0 <<= shift
    del shift
    # the bytes from the point on move up one
    words = w0, w1, w2
    m0, m1, m2 = (w & above[exp] for w, above in zip(words, t.from_dot))
    w0 ^= m0
    w0 |= m0 << 8
    w1 ^= m1
    w1 |= m1 << 8
    w1 |= m0 >> 56
    w2 ^= m2
    w2 |= m2 << 8
    w2 |= m1 >> 56
    del m0, m1, m2
    for w, prefix, tail in zip(words, t.prefix, t.tail):
        w |= prefix[exp]
        w |= tail[length]
    sign = values.view(_WORD) >> 63
    sign *= (_FILL ^ ord("-")) << 8
    w0 ^= sign
    slots = np.empty((values.size, 3), dtype=_WORD)
    for i, w in enumerate(words):
        slots[:, i] = w
    return slots.view("V24")[:, 0], failed


def _scaled(mag, exp):
    """``mag * 10**(16 - E)`` as ``p + e`` exactly (Dekker's TwoProduct)."""
    t = _tables()
    p = mag * t.scale[exp]
    split = mag * _VELTKAMP
    hi = split - (split - mag)
    lo = mag - hi
    scale_hi, scale_lo = t.scale_hi[exp], t.scale_lo[exp]
    e = hi * scale_hi - p
    e += hi * scale_lo
    e += lo * scale_hi
    e += lo * scale_lo
    return p, e


def _out_of_range(p, e):
    """Whether ``p + e < 1e16``, and whether ``p + e >= 1e17``."""
    return ((p < 1e16) | ((p == 1e16) & (e < 0)),
            (p > 1e17) | ((p == 1e17) & (e >= 0)))


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
