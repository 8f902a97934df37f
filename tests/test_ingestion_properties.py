"""Property-based ingestion suite: the columnar reader against the row loop.

Every generated incidence, label or signal file either loads to the same
structure, identifier order and labels as the row-by-row oracle in
``oracles.py``, or fails with the same error type and message (which
carries the line number).  Files mix duplicates, label-only nodes,
unicode ids (vertical tab, NEL and the line separator among them, which
``str.splitlines`` would split on and csv does not), ids of 9 to 40 bytes
sharing long prefixes, ids with an embedded or trailing NUL (``"a"`` and
``"a\\x00"`` are two ids), quoted ids holding the delimiter, quotes or
line ends, a BOM, tab or comma delimiters, ``\\n``/``\\r\\n``/``\\r``
line ends, blank lines, a missing final newline, ragged rows, empty ids
and, under a lowered csv field size limit, over-long fields.  Node
universes reach both of ``load_incidence``'s routes: short unpadded str
ids join the node column's key sort, and long, padded or newline-holding
ids and ids that are not str are merged by ``build_hypergraph``.
"""

import contextlib
import csv
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

import hyperprop.io
from hyperprop import HyperpropError, ParseError, load_incidence, load_signal
from hyperprop.io import read_labels
from oracles import row_load_incidence, row_load_signal, row_read_labels
from util import incidence_arrays

SPACE = ["\x0b", "\x85", "\u2028", " ", "\t", "\r", "\n"]
CORE = st.sampled_from(list("ab7é,\"\x00") + SPACE)
# long shared prefixes: ids then differ only after byte 8, 16 or more, and
# "a"*7 + "é" puts a two-byte character across the first 8-byte boundary
PREFIXES = ["a" * 8, "a" * 16, "a" * 7 + "é", "éé" * 4, "ab" * 12, "x" * 36]
IDS = st.builds(
    lambda pad, core, tail: pad + core + tail,
    st.text(st.sampled_from(SPACE), max_size=2),
    st.one_of(st.text(CORE, min_size=1, max_size=2),  # short ids repeat
              st.text(CORE, min_size=1, max_size=6),
              st.builds(str.__add__, st.sampled_from(PREFIXES),  # 9-40 bytes
                        st.text(CORE, min_size=1, max_size=2)),
              st.sampled_from(["a", "a\x00", "a\x00\x00", "\x00a"]),
              ).filter(str.strip),
    st.text(st.sampled_from(SPACE), max_size=2))
BLANK_IDS = st.text(st.sampled_from(SPACE), max_size=2)
LABELS = st.sampled_from(["0", "1", "10", " 2", "02", "x", "b,c"])
# signal values, some padded with whitespace float accepts
NUMBERS = st.one_of(
    st.floats().map(repr), st.integers().map(str),
    st.sampled_from(["-0", " 2e3 ", "1_0", "1e400", "-inf", "\u20281\x85"]))
VALUES = st.one_of(NUMBERS, st.sampled_from(["x", "1,5", "0x1", "1 2", '"3"']))
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def _render(field, delim, quote):
    if quote or any(c in field for c in (delim, '"', "\r", "\n")):
        return '"' + field.replace('"', '""') + '"'
    return field


@st.composite
def delimited_files(draw, columns, extra=IDS):
    """Bytes of a delimited file; ``columns`` maps each name to its values.

    Half the files hold one more column, ``weight``, of ``extra`` values.

    Half the files hold bad rows: short, long, or with an empty (or
    all-whitespace) identifier.  Half are quote-free: there the delimiter,
    quote and line-end characters in ids are swapped for others, which
    sends the file down the ``str.split`` tokenizer.
    """
    delim = draw(st.sampled_from([",", "\t"]))
    plain = draw(st.booleans())
    swap = str.maketrans({delim: "a", '"': "b", "\r": "\x85", "\n": "\u2028"})
    columns = dict(columns)
    if draw(st.booleans()):
        columns["weight"] = extra
    header = draw(st.permutations(list(columns)))
    quote_header = not plain and draw(st.booleans())
    lines = [delim.join(_render(c, delim, quote_header) for c in header)]
    kinds = ["row"] * 8 + ["blank"]
    if draw(st.booleans()):
        kinds += ["short", "long", "empty"]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
            continue
        fields = [draw(columns[c]) for c in header]
        if kind == "short":
            fields.pop()
        elif kind == "long":
            fields.append(draw(IDS))
        elif kind == "empty":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(BLANK_IDS)
        if plain:
            fields = [f.translate(swap) for f in fields]
        lines.append(delim.join(
            _render(f, delim, not plain and draw(st.integers(0, 9)) == 0)
            for f in fields))
    text = "".join(line + draw(LINE_ENDS) for line in lines)
    if not draw(st.booleans()):  # no final newline
        text = text[:-2] if text.endswith("\r\n") else text[:-1]
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode("utf-8")


@contextlib.contextmanager
def field_limit(limit):
    saved = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(saved)


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except HyperpropError as exc:
        return type(exc), str(exc)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(incidence=delimited_files({"nodeId": IDS, "edgeId": IDS}),
       labels=delimited_files({"nodeId": IDS, "label": LABELS}),
       limit=st.sampled_from([None, None, 7]))
def test_columnar_reader_matches_row_oracle(incidence, labels, limit):
    with tempfile.TemporaryDirectory() as tmp:
        inc_path, lab_path = Path(tmp, "incidence.csv"), Path(tmp, "labels.csv")
        inc_path.write_bytes(incidence)
        lab_path.write_bytes(labels)
        with field_limit(limit):
            got_labels = outcome(read_labels, lab_path)
            want_labels = outcome(row_read_labels, lab_path)
            universe = got_labels[1][0] if got_labels[0] == "ok" else None
            got = outcome(load_incidence, inc_path, node_universe=universe)
            want = outcome(row_load_incidence, inc_path, universe or ())

    assert got_labels[0] == want_labels[0]
    if got_labels[0] == "ok":
        node_ids, classes, class_names = got_labels[1]
        assert (node_ids, classes.tolist(), class_names) == want_labels[1]
        assert classes.dtype == np.int64
    else:
        assert got_labels[1] == want_labels[1]

    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    (h, maps), (arrays, node_ids, edge_ids) = got[1], want[1]
    assert maps.node_ids.ids == node_ids
    assert maps.edge_ids.ids == edge_ids
    assert incidence_arrays(h) == arrays


@settings(max_examples=200, deadline=None, derandomize=True)
@given(signal=st.one_of(*(delimited_files({"nodeId": IDS, "value": values},
                                          values)
                          for values in (NUMBERS, VALUES))),
       limit=st.sampled_from([None, None, None, 7]))
# rows that break two rules at once, which random files seldom hold
@example(signal=b"nodeId,value\na,1\na,x\n", limit=None)
@example(signal=b"nodeId,value\na,1\n ,x\n", limit=None)
@example(signal=b"nodeId,value\na,1\na,123456789\n", limit=7)
def test_signal_loader_matches_row_oracle(signal, limit):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "signal.csv")
        path.write_bytes(signal)
        with field_limit(limit):
            got = outcome(load_signal, path)
            want = outcome(row_load_signal, path)

    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    (ids, values), (want_ids, want_values) = got[1], want[1]
    assert ids == want_ids
    want_values = np.array(want_values, dtype=np.float64)
    assert values.shape == want_values.shape
    assert values.tobytes() == want_values.tobytes()  # nan and -0.0 too


# ids under 8 bytes; "é" at either end pads an id with a possible space byte
SHORT_IDS = st.text(st.sampled_from(list('ab7,"\x00é')), min_size=1,
                    max_size=3)
UNIVERSES = st.one_of(
    st.lists(SHORT_IDS, max_size=6),  # repeats too
    st.lists(st.one_of(SHORT_IDS, IDS), min_size=1, max_size=6),
    st.integers(0, 4).map(range))


@st.composite
def universes_and_incidence(draw):
    """A node universe and an incidence file whose node ids are drawn from
    it and from short ids of their own."""
    universe = draw(UNIVERSES)
    own = [u for u in universe if isinstance(u, str)]
    nodes = st.one_of(st.sampled_from(own), SHORT_IDS) if own else SHORT_IDS
    return universe, draw(delimited_files({"nodeId": nodes,
                                           "edgeId": SHORT_IDS}))


def raw_column(path, name):
    """Column ``name`` of every data row of a delimited file, unstripped."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        line = fh.readline()
        delim = "\t" if "\t" in line else ","
        header = [c.strip() for c in next(csv.reader([line], delimiter=delim))]
        return [row[header.index(name)]
                for row in csv.reader(fh, delimiter=delim) if row]


def joins_the_key_sort(ids):
    """Whether every id is a str of under 8 UTF-8 bytes, without a newline,
    neither starting nor ending with an ASCII space or a non-ASCII byte."""
    return all(isinstance(i, str) and len(i.encode()) < 8 and "\n" not in i
               and not (i and any(c.isspace() or not c.isascii()
                                  for c in (i[0], i[-1])))
               for i in ids)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=universes_and_incidence())
# short ids, repeated in the universe, with universe-only and
# incidence-only ids: the key route
@example(case=(["b", "a", "b", "zz"], b"nodeId,edgeId\na,x\nc,x\nb,y\n"))
# an id of 8 bytes, a padded id, a quoted id holding a newline and ids that
# are not str: today's route
@example(case=(["a", "abcdefgh"], b"nodeId,edgeId\na,x\nabcdefgh,y\n"))
@example(case=(["a", " b"], b"nodeId,edgeId\na,x\nb,y\n"))
@example(case=(["a", "b\nc"], b'nodeId,edgeId\na,x\n"b\nc",y\n'))
@example(case=(range(3), b"nodeId,edgeId\n0,x\n1,y\n"))
def test_universe_takes_the_route_its_ids_allow(case):
    """A universe of short unpadded str ids joins the incidence file's key
    sort, when the file's node ids allow it; any other universe is merged
    by ``build_hypergraph``, as before.  Either way the load equals the row
    oracle: IdMaps, CSR arrays, and errors with their line numbers."""
    universe, incidence = case
    build = mock.Mock(wraps=hyperprop.io.build_hypergraph)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "incidence.csv")
        path.write_bytes(incidence)
        with mock.patch.object(hyperprop.io, "build_hypergraph", build):
            got = outcome(load_incidence, path, node_universe=universe)
        want = outcome(row_load_incidence, path, universe)
        raw = raw_column(path, "nodeId") if got[0] == "ok" else None

    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    (h, maps), (arrays, node_ids, edge_ids) = got[1], want[1]
    assert maps.node_ids.ids == node_ids
    assert maps.edge_ids.ids == edge_ids
    assert incidence_arrays(h) == arrays
    key_route = build.call_args.kwargs["node_universe"] is None
    assert key_route == (not universe or joins_the_key_sort([*universe, *raw]))


# each kind of bad row, as the fields a row holds and the error it raises
BAD_ROWS = {
    "short": (["p1"], "expected 2 fields, got 1"),
    "long": (["p1", "a1", "x"], "expected 2 fields, got 3"),
    "empty": ([" ", "a1"], "empty identifier"),
    "over": (["x" * 17, "a1"], "field larger than field limit (16)"),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_first_bad_row_names_its_line(data):
    """The error names the line of the first bad row: every blank line and
    every line end, ``\\n``, ``\\r\\n`` or ``\\r``, counts as in a text
    editor, whichever tokenizer reads the file and whatever follows."""
    line_ends = data.draw(st.sampled_from([["\n"], ["\r\n"], ["\r"],
                                           ["\n", "\r\n", "\r"]]))
    quote = '"' if data.draw(st.booleans()) else ""
    before = data.draw(st.lists(st.sampled_from(["row", "blank"]),
                                max_size=12))
    bad = data.draw(st.sampled_from(sorted(BAD_ROWS)))
    after = data.draw(st.lists(st.sampled_from(["row", "blank",
                                                *BAD_ROWS]), max_size=4))
    lines = ["nodeId,edgeId"]
    for i, kind in enumerate(before + [bad] + after):
        fields = ([] if kind == "blank" else [f"p{i % 5}", f"a{i % 3}"]
                  if kind == "row" else BAD_ROWS[kind][0])
        lines.append(",".join(quote + f + quote for f in fields))
    text, end = "", ""
    for line in lines:
        # after a \r, a blank line's \n would make one \r\n line end
        end = data.draw(st.sampled_from(
            [e for e in line_ends if line or end != "\r" or e == "\r"]))
        text += line + end
    if data.draw(st.booleans()):  # no final line end
        text = text[:-len(end)]
    if data.draw(st.booleans()):
        text = "\ufeff" + text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "incidence.csv")
        path.write_bytes(text.encode("utf-8"))
        with field_limit(16):
            got = outcome(load_incidence, path)
    line = len(before) + 2  # the header is line 1
    assert got == (ParseError, f"{path}: line {line}: {BAD_ROWS[bad][1]}")
