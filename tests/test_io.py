import csv
import json
import os
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hyperprop.io
import hyperprop.hypergraph
from hyperprop import (IdMap, MetricCell, MetricReport, MissingColumnError,
                       MissingLabelError, ParseError, ShapeError,
                       UnknownNodeError,
                       dataset_stats, load_dataset, load_incidence,
                       load_labels, load_signal, write_report, write_signal)
from hyperprop.io import canonical_json_bytes, read_labels, report_to_dict
from oracles import row_load_incidence, row_write_signal
from util import incidence_arrays

INCIDENCE = "nodeId,edgeId\na,e1\nb,e1\nb,e2\nc,e2\n"
LABELS = "nodeId,label\na,art\nb,bio\nc,art\n"

# ids csv must quote, ids holding % (which a %-template must not read as a
# conversion), a vertical tab (not a csv line end) and ids that are not str
SIGNAL_IDS = st.one_of(
    st.text(st.sampled_from(list('ab%s,"\r\n\x0b é')), max_size=6),
    st.sampled_from(["%", "%s", "%%", "%.17g", "100%"]),
    st.integers(), st.floats())
SIGNAL_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-310]))


@st.composite
def signals(draw):
    """``(node ids, values)`` with 1-D or 2-D values and a row count at,
    or one off, a multiple of the writer's block of rows."""
    d = draw(st.integers(0, 4))  # 0: 1-D values
    block = hyperprop.io._WRITE_VALUES // max(d, 1)
    n = draw(st.sampled_from([0, 1, 2, block - 1, block, block + 1,
                              2 * block + 1]))
    shape = (n, d) if d else (n,)
    id_pool = draw(st.lists(SIGNAL_IDS, min_size=1, max_size=8))
    value_pool = np.array(draw(st.lists(SIGNAL_VALUES, min_size=1,
                                        max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = [id_pool[i] for i in rng.integers(len(id_pool), size=n)]
    return ids, value_pool[rng.integers(value_pool.size, size=shape)]


@pytest.fixture
def incidence_file(tmp_path):
    path = tmp_path / "incidence.csv"
    path.write_text(INCIDENCE)
    return path


@pytest.fixture
def labels_file(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(LABELS)
    return path


def small_report():
    return MetricReport(
        dataset="toy", task="classification", method="propagation",
        metric="auc", params={"folds": 10, "seed": 42},
        class_names=("art", "bio"),
        cells=(MetricCell(0, 0, 0.875, 12.5), MetricCell(1, 0, 0.75, 10.0)))


class TestLoadIncidence:
    def test_small_file(self, incidence_file):
        h, maps = load_incidence(incidence_file)
        assert (h.n_nodes, h.n_edges, h.nnz) == (3, 2, 4)
        assert maps.node_ids.ids == ("a", "b", "c")

    def test_duplicate_row_ignored(self, incidence_file, tmp_path):
        dup = tmp_path / "dup.csv"
        dup.write_text(INCIDENCE + "a,e1\n")
        h1, _ = load_incidence(incidence_file)
        h2, _ = load_incidence(dup)
        assert incidence_arrays(h1) == incidence_arrays(h2)

    def test_tab_delimiter_and_column_order(self, tmp_path):
        path = tmp_path / "tabs.tsv"
        path.write_text("edgeId\tnodeId\ne1\ta\ne1\tb\n")
        h, maps = load_incidence(path)
        assert (h.n_nodes, h.n_edges) == (2, 1)
        assert maps.edge_ids.ids == ("e1",)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("node,edge\na,e1\n")
        with pytest.raises(MissingColumnError):
            load_incidence(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("nodeId,edgeId\na,e1\nb\n")
        with pytest.raises(ParseError, match="line 3"):
            load_incidence(path)

    def test_empty_identifier_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("nodeId,edgeId\na,e1\n,e2\n")
        with pytest.raises(ParseError, match="line 3"):
            load_incidence(path)

    def test_loading_is_idempotent(self, incidence_file):
        h1, _ = load_incidence(incidence_file)
        h2, _ = load_incidence(incidence_file)
        assert incidence_arrays(h1) == incidence_arrays(h2)


class TestColumnarReader:
    """What the two tokenizers (quote-free ``str.split`` and csv) share."""

    @pytest.mark.parametrize("quoted", [False, True])
    def test_over_long_field_is_a_parse_error(self, tmp_path, quoted):
        too_long = "x" * (csv.field_size_limit() + 1)
        field = f'"{too_long}"' if quoted else too_long
        path = tmp_path / "long.csv"
        path.write_text(f"nodeId,edgeId\na,e1\n\n{field},e2\nb\n")
        with pytest.raises(ParseError, match=r"long\.csv: line 4: field "
                                             r"larger than field limit"):
            load_incidence(path)

    @pytest.mark.parametrize("quoted", [False, True])
    def test_field_at_the_limit_loads(self, tmp_path, quoted):
        longest = "x" * csv.field_size_limit()
        field = f'"{longest}"' if quoted else longest
        path = tmp_path / "limit.csv"
        path.write_text(f"nodeId,edgeId\n{field},e1\n")
        _, maps = load_incidence(path)
        assert maps.node_ids.ids == (longest,)

    def test_invalid_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\xef\xbb\xbfnodeId,edgeId\r\na,e1\rb,\xffe\n")
        with pytest.raises(ParseError, match=r"latin1\.csv: line 3: "
                                             r"invalid UTF-8"):
            load_incidence(path)

    def test_only_cr_and_lf_end_lines(self, tmp_path):
        # str.splitlines would also split at \x0b, \x1c, \x85 and \u2028
        ids = ["a\x0bb", "c\x1cd", "e\x85f", "g\u2028h"]
        path = tmp_path / "seps.csv"
        path.write_text("nodeId,edgeId\r\n"
                        + "".join(f"{i},e\r" for i in ids[:2])
                        + "".join(f"{i},e\n" for i in ids[2:]),
                        newline="")
        _, maps = load_incidence(path)
        assert maps.node_ids.ids == tuple(ids)

    @pytest.mark.parametrize("quote", [False, True])
    def test_blank_lines_skipped_but_counted(self, tmp_path, quote):
        q = '"' if quote else ""
        path = tmp_path / "blank.tsv"
        path.write_text(f"nodeId\tedgeId\n\n{q}a{q}\te1\r\n\r\n"
                        f"b\te1\n\nc\n", newline="")
        with pytest.raises(ParseError, match="line 7: expected 2 fields"):
            load_incidence(path)

    def test_quoted_ids_hold_delimiter_quote_and_newline(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('nodeId,edgeId\n"a,1",e1\n"b""\n2",e1\nc,e2\n'
                        'x,"e3"\n')
        _, maps = load_incidence(path)
        assert maps.node_ids.ids == ("a,1", 'b"\n2', "c", "x")
        assert maps.edge_ids.ids == ("e1", "e2", "e3")

    @pytest.mark.parametrize("text, message", [
        ("a,e1\n , e2\nb\n", "line 3: empty identifier"),
        ("a,e1\nb,\n,e2\n", "line 3: empty identifier"),  # the earlier
        ("a,e1\nb, \n,e2\n", "line 3: empty identifier"),  # of two columns
        ("a,e1\nb\n , e2\n", "line 3: expected 2 fields, got 1"),
        ("a,e1\nb,e1,x\n", "line 3: expected 2 fields, got 3"),
    ])
    def test_first_bad_row_decides_the_error(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text("nodeId,edgeId\n" + text)
        with pytest.raises(ParseError, match=message):
            load_incidence(path)

    @pytest.mark.parametrize("quoted", [False, True])
    def test_every_str_isspace_character_is_stripped(self, tmp_path, quoted):
        spaces = [chr(i) for i in range(sys.maxunicode + 1)
                  if chr(i).isspace()]
        if not quoted:  # line ends can only pad a quoted id
            spaces = [c for c in spaces if c not in "\r\n"]
        rows = []
        for i, c in enumerate(spaces):
            rows += [f"n{i}", c + f"n{i}", f"n{i}" + c, c + f"n{i}" + c,
                     c + " \t" + f"n{i}" + "\x0b" + c, f"n{i}{c}x"]
        field = (lambda v: '"' + v + '"') if quoted else (lambda v: v)
        path = tmp_path / "spaces.csv"
        path.write_text("nodeId,edgeId\n" + "".join(
            f"{field(v)},e{j % 3}\n" for j, v in enumerate(rows)),
            encoding="utf-8", newline="")
        _, maps = load_incidence(path)
        assert maps.node_ids.ids == tuple(dict.fromkeys(v.strip()
                                                        for v in rows))
        _, node_ids, _ = row_load_incidence(path)
        assert maps.node_ids.ids == node_ids
        for c in spaces:  # an id of whitespace alone is empty
            path.write_text(f"nodeId,edgeId\na,e\n{field(c)},e\n",
                            encoding="utf-8", newline="")
            with pytest.raises(ParseError, match="line 3: empty identifier"):
                load_incidence(path)

    def test_long_id_among_many_rows_in_memory_bounded_by_bytes(
            self, tmp_path):
        long_id = "é" + "x" * 99_998 + "é"  # 100,000 characters
        rows = [f"p{i % 20_000},a{i % 3_000}" for i in range(50_000)]
        rows[30_000:30_000] = [f"{long_id},a7", f"p5,{long_id}",
                               f" {long_id} ,a8"]
        path = tmp_path / "long.csv"
        path.write_text("nodeId,edgeId\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        tracemalloc.start()
        try:
            h, maps = load_incidence(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a rows x longest-id layout would need 50,000 x 100,000 bytes
        assert peak < 16 * 2**20
        want, node_ids, edge_ids = row_load_incidence(path)
        assert maps.node_ids.ids == node_ids
        assert maps.edge_ids.ids == edge_ids
        assert long_id in node_ids and long_id in edge_ids
        assert incidence_arrays(h) == want

    def test_many_rows_load_in_memory_bounded_by_the_file(self, tmp_path):
        # 120,000 rows of short ids over 16,000 nodes and 3,200 edges, as
        # in perfbench's classify-prop files
        rng = np.random.default_rng(0)
        nodes = rng.integers(16_000, size=120_000).tolist()
        edges = rng.integers(3_200, size=120_000).tolist()
        incidence = tmp_path / "incidence.csv"
        incidence.write_text("nodeId,edgeId\n" + "".join(
            f"p{u},a{e}\n" for u, e in zip(nodes, edges)))
        labels = tmp_path / "labels.csv"
        labels.write_text("nodeId,label\n" + "".join(
            f"p{u},c{u % 40}\n" for u in rng.permutation(16_000).tolist()))
        size = incidence.stat().st_size
        # held once, with two int32 offsets per field, the file peaks at
        # 5.4x its bytes (6.2x with the labels); a copy per tokenizing
        # step and int64 offsets would reach 8.6x (9.4x)
        for load, bound in [(lambda: load_incidence(incidence), 6),
                            (lambda: load_dataset(incidence, labels), 7)]:
            tracemalloc.start()
            try:
                load()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * size

    def test_node_column_with_universe_in_memory_bounded_per_row(
            self, tmp_path):
        # the universe's keys and the column's in one array, sorted with
        # no sorted copy, peak at 27.7 bytes a row; the column's keys
        # copied behind the universe's, beside the sorted copy and the
        # field lengths, peaked at 33.0
        rng = np.random.default_rng(0)
        nodes = rng.integers(40_000, size=200_000).tolist()
        path = tmp_path / "incidence.csv"
        path.write_text("nodeId,edgeId\n" + "".join(
            f"p{u},a{i % 4_000}\n" for i, u in enumerate(nodes)))
        universe = [f"p{u}" for u in rng.permutation(42_000).tolist()]
        table = hyperprop.io._Table(path)
        column = table.indexes(["nodeId"])[0]
        tracemalloc.start()
        try:
            ids, index, left = table.ids(column, universe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert left is None  # the universe joined the key sort
        assert ids[:len(universe)] == universe
        assert peak < 30 * len(nodes)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_reads_like_a_file(self, tmp_path):
        # a pipe reports no size, so its buffer grows as it is read
        text = "nodeId,edgeId\n" + "".join(f"p{i},a{i % 7}\n"
                                           for i in range(20_000))
        path = tmp_path / "incidence.csv"
        path.write_text(text)
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,),
                                  daemon=True)
        writer.start()
        try:
            h, maps = load_incidence(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        want, node_ids, edge_ids = row_load_incidence(path)
        assert (maps.node_ids.ids, maps.edge_ids.ids) == (node_ids, edge_ids)
        assert incidence_arrays(h) == want

    @pytest.mark.parametrize("text", [
        'nodeId,edgeId\r\na,e1\r\n\r\n"b",e2\rc,e1\n',
        "\ufeffnodeId\tedgeId\ra\te1\r\r\nb\te2\n\nc\te1",
        "nodeId,edgeId\na,e1\n\nb\n",
        'nodeId,edgeId\na,e1\n\n"b"\n',
    ])
    def test_int64_offsets_read_the_same(self, tmp_path, monkeypatch, text):
        # offsets are int32 below 2 GiB, int64 above: both give one table
        path = tmp_path / "incidence.csv"
        path.write_text(text, encoding="utf-8", newline="")

        def read():
            table = hyperprop.io._Table(path)
            columns = [table.ids(i) for i in table.indexes(("nodeId",
                                                            "edgeId"))]
            return table, [(ids, index.tolist()) for ids, index, _ in columns]

        narrow, want = read()
        monkeypatch.setattr(hyperprop.io, "_offset_type",
                            lambda size: np.int64)
        wide, got = read()
        assert narrow._starts.dtype == np.int32
        assert wide._starts.dtype == wide._ends.dtype == np.int64
        assert got == want
        assert (wide.rows, str(wide.error)) == (narrow.rows,
                                                str(narrow.error))

    @pytest.mark.parametrize("rows", [
        [f"{'a' * k},e{k % 3}" for k in (7, 8, 9, 16, 17, 8, 9)]
        + ["bbbbbbbb,e1", "aaaaaaaaé,e1", "aaaaaaa,e2"],  # lengths differ
        ["aaaaaaaax,e1", "aaaaaaaay,e2", "aaaaaaaax,e3"],  # same length
        ['"aaaaaaaa",bbb', '"aaaaaaaab",e'],  # the first id is followed by
        # the "b" the second ends with in the csv tokenizer's buffer
        [f"{'z' * 70}{c},e" for c in "1212"],
        ["aaaaaaaa,e", "aaaaaaab,e", "a,e", "aaaaaaaa,e"],  # 8 at most
        ["a,e", "a\x00,e", "\x00a,e", "a\x00\x00,e", "\x00,e", "a,e"],
        ["a,e", "a\x00,e", "a\x00\x00\x00\x00\x00\x00\x00\x00,e", "a,e"],
    ])
    def test_ids_group_exactly(self, tmp_path, rows):
        path = tmp_path / "long.csv"
        path.write_text("nodeId,edgeId\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        h, maps = load_incidence(path)
        want, node_ids, edge_ids = row_load_incidence(path)
        assert maps.node_ids.ids == node_ids
        assert maps.edge_ids.ids == edge_ids
        assert incidence_arrays(h) == want

    @pytest.fixture
    def dict_calls(self, monkeypatch):
        """The sizes of the columns the dict interner is given."""
        calls = []

        def counted(keys):
            calls.append(len(keys))
            return intern(keys)

        intern = hyperprop.io._intern
        monkeypatch.setattr(hyperprop.io, "_intern", counted)
        return calls

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    def test_short_unpadded_ids_skip_the_dict(self, tmp_path, dict_calls,
                                              line_end):
        # the dict interner gives the same ids about 5x slower, so only
        # the calls tell the two paths apart
        files = {
            "incidence.csv": ["nodeId,edgeId"]
            + [f"p{i},a{i % 45}" for i in range(300)],
            "labels.csv": ["nodeId,label"] + [f"p{i},c{i % 7}"
                                              for i in range(400)],
            "signal.csv": ["nodeId,value"] + [f"p{i},{i}.5"
                                              for i in range(300)]}
        for name, lines in files.items():
            (tmp_path / name).write_bytes(
                line_end.join(lines).encode() + line_end.encode())
        bundle = load_dataset(tmp_path / "incidence.csv",
                              tmp_path / "labels.csv")
        ids, _ = load_signal(tmp_path / "signal.csv")
        assert bundle.hypergraph.n_nodes == 400 and len(ids) == 300
        assert dict_calls == []

    @pytest.mark.parametrize("row", ["p1234567,a1", "p1,a1234567",
                                     " p1,a1", "p1,a1\t", "p1,\xa0a1"])
    def test_long_or_padded_ids_take_the_dict(self, tmp_path, dict_calls,
                                              row):
        path = tmp_path / "incidence.csv"
        path.write_text("nodeId,edgeId\np2,a2\n" + row + "\n",
                        encoding="utf-8")
        h, maps = load_incidence(path)
        assert dict_calls == [2]  # the one column that holds ``row``'s id
        want, node_ids, edge_ids = row_load_incidence(path)
        assert maps.node_ids.ids == node_ids
        assert maps.edge_ids.ids == edge_ids

    @pytest.fixture
    def decoded(self, monkeypatch):
        """Every field the decoder turns into a str."""
        texts = []

        def counted(buf, starts, ends):
            out = decode(buf, starts, ends)
            texts.extend(out)
            return out

        decode = hyperprop.io._decode
        monkeypatch.setattr(hyperprop.io, "_decode", counted)
        return texts

    @pytest.mark.parametrize("universe,new", [
        (None, ["p1", "p2", "p3"]),
        (["p3", "q", "p1", "p2"], []),  # it holds every node id
        (["p2", "q", "p2"], ["p1", "p3"]),  # a repeat, and ids it lacks
    ])
    def test_short_universe_spares_decoding_the_ids_it_holds(
            self, tmp_path, decoded, universe, new):
        path = tmp_path / "incidence.csv"
        path.write_text("nodeId,edgeId\np1,a1\np2,a1\np1,a2\np3,a2\np2,a2\n")
        h, maps = load_incidence(path, node_universe=universe)
        assert sorted(decoded) == sorted(new + ["a1", "a2"])
        want, node_ids, edge_ids = row_load_incidence(path, universe or ())
        assert maps.node_ids.ids == node_ids
        assert maps.edge_ids.ids == edge_ids
        assert incidence_arrays(h) == want

    def test_ragged_row_wins_over_a_later_label_conflict(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("nodeId,label\na,x\na,y\nb\n")
        with pytest.raises(ParseError, match="line 4: expected 2 fields"):
            read_labels(path)

    def test_first_label_conflict_reported(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("nodeId,label\na,x\nb,y\na,x\nb,z\na,w\n")
        with pytest.raises(ParseError,
                           match="node 'b' labeled both 'y' and 'z'"):
            read_labels(path)


class TestLoadLabels:
    def test_aligned_dense_labels(self, incidence_file, labels_file):
        _, maps = load_incidence(incidence_file)
        labels, names = load_labels(labels_file, maps)
        assert names == ("art", "bio")
        assert labels.tolist() == [0, 1, 0]

    def test_numeric_label_order(self, incidence_file, tmp_path):
        path = tmp_path / "num.csv"
        path.write_text("nodeId,label\na,10\nb,2\nc,2\n")
        _, maps = load_incidence(incidence_file)
        labels, names = load_labels(path, maps)
        assert names == ("2", "10")  # numeric, not lexicographic
        assert labels.tolist() == [1, 0, 0]

    def test_unknown_node_rejected(self, incidence_file, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(LABELS + "z,art\n")
        _, maps = load_incidence(incidence_file)
        with pytest.raises(UnknownNodeError):
            load_labels(path, maps)

    def test_first_unknown_node_in_file_order_named(self, incidence_file,
                                                    tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("nodeId,label\na,art\nz,bio\nb,bio\ny,art\nc,art\n")
        _, maps = load_incidence(incidence_file)
        with pytest.raises(UnknownNodeError) as info:
            load_labels(path, maps)
        assert str(info.value) == f"{path}: label for unknown node 'z'"

    def test_lowest_unlabeled_index_named(self, incidence_file, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("nodeId,label\nb,bio\n")  # a and c unlabeled
        _, maps = load_incidence(incidence_file)
        with pytest.raises(MissingLabelError) as info:
            load_labels(path, maps)
        assert str(info.value) == f"node 'a' has no label in {path}"

    def test_unlabeled_node_rejected(self, incidence_file, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("nodeId,label\na,art\nb,bio\n")
        _, maps = load_incidence(incidence_file)
        with pytest.raises(MissingLabelError):
            load_labels(path, maps)

    def test_conflicting_duplicate_rejected(self, incidence_file, tmp_path):
        path = tmp_path / "conflict.csv"
        path.write_text(LABELS + "a,bio\n")
        _, maps = load_incidence(incidence_file)
        with pytest.raises(ParseError):
            load_labels(path, maps)


class TestLoadDataset:
    def test_label_universe_adds_isolated_nodes(self, incidence_file, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(LABELS + "lonely,bio\n")
        bundle = load_dataset(incidence_file, path)
        assert bundle.hypergraph.n_nodes == 4
        stats = dataset_stats(bundle)
        assert stats["n_isolated"] == 1
        assert stats["n_classes"] == 2
        assert stats["mean_node_degree"] == pytest.approx(1.0)

    def test_incidence_only_node_rejected(self, incidence_file, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("nodeId,label\na,art\nb,bio\n")
        with pytest.raises(MissingLabelError, match="node 'c' has no label"):
            load_dataset(incidence_file, path)

    def test_conflicting_labels_rejected(self, incidence_file, tmp_path):
        path = tmp_path / "conflict.csv"
        path.write_text(LABELS + "a,bio\n")
        with pytest.raises(ParseError, match="labeled both 'art' and 'bio'"):
            load_dataset(incidence_file, path)


class TestLoadedIdMaps:
    @pytest.fixture
    def dataset(self, tmp_path):
        """An incidence file with repeats and a label file with a node of
        its own, "lonely", of short ids that take the key route."""
        incidence = tmp_path / "incidence.csv"
        incidence.write_text(INCIDENCE + "c,e2\nd,e3\n")
        labels = tmp_path / "labels.csv"
        labels.write_text(LABELS + "lonely,bio\nd,art\n")
        return incidence, labels

    def test_agree_with_maps_built_from_their_ids(self, dataset):
        # as the route tests watch ``build_hypergraph``, watch the module's
        # dicts: the load builds none, and a map's first lookup builds one
        with mock.patch.object(hyperprop.hypergraph, "dict", wraps=dict,
                               create=True) as made:
            maps = load_dataset(*dataset).id_maps
            assert made.mock_calls == []
            for loaded in maps.node_ids, maps.edge_ids:
                built = IdMap(loaded.ids)
                calls = made.call_count
                unknown = ["zz", "", None, 3]
                assert loaded.lookup(loaded.ids + tuple(unknown)).tolist() == (
                    built.lookup(loaded.ids + tuple(unknown)).tolist())
                assert made.call_count == calls + 1
                assert loaded.lookup(unknown).tolist() == [-1] * 4
                assert loaded.ids == built.ids
                assert len(loaded) == len(built) == len(set(loaded.ids))
                for i, key in enumerate(loaded.ids):
                    assert loaded.id_of(i) == built.id_of(i) == key
                    assert key in loaded and key in built
                for key in unknown:
                    assert key not in loaded and key not in built
                assert made.call_count == calls + 1  # built once, then kept
        assert maps.node_ids.ids == ("a", "b", "c", "lonely", "d")
        assert maps.edge_ids.ids == ("e1", "e2", "e3")

    def test_threads_build_one_consistent_lookup(self, tmp_path):
        # the dict is built by whichever thread looks up first; threads that
        # race there build equal dicts, so no lookup may see a partial one
        n = 20_000
        path = tmp_path / "incidence.csv"
        path.write_text("nodeId,edgeId\n" + "".join(
            f"p{i},a{i % 97}\n" for i in range(n)))
        _, maps = load_incidence(path)
        ids = maps.node_ids.ids
        want = dict(zip(ids, range(len(ids))))
        probes = [ids[i] for i in range(0, n, 7)] + ["q1", "p", "p20000"]
        expect = [want.get(k, -1) for k in probes]
        results = [None] * 8

        def work(slot):
            got = []
            for key in probes[slot::8]:
                got.append((maps.node_ids.lookup([key])[0].item(),
                            key in maps.node_ids))
            results[slot] = got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(slot,))
                       for slot in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for slot, got in enumerate(results):
            assert got == [(i, i >= 0) for i in expect[slot::8]]
        assert maps.node_ids.lookup(ids).tolist() == list(range(n))


class TestSignalFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "signal.csv"
        values = np.array([[0.1, 1 / 3], [2.0, -5.25]])
        write_signal(path, ["a", "b"], values)
        ids, loaded = load_signal(path)
        assert ids == ["a", "b"]
        np.testing.assert_array_equal(loaded, values)  # 17 digits: lossless

    def test_single_column_header(self, tmp_path):
        path = tmp_path / "signal.csv"
        write_signal(path, ["a"], np.array([1.5]))
        assert path.read_text().splitlines()[0] == "nodeId,value"

    def test_duplicate_node_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("nodeId,value\na,1\na,2\n")
        with pytest.raises(ParseError):
            load_signal(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nodeId,value\na,x\n")
        with pytest.raises(ParseError, match="line 2"):
            load_signal(path)

    @pytest.mark.parametrize("text, message", [
        ("a,1\nb,x\na,2\n", "line 3: non-numeric signal value"),
        ("a,1\na,x\nb,x\n", "line 3: duplicate node 'a'"),
        ("a,1\n ,x\na,2\n", "line 3: empty identifier"),
        ("a,1\nb,x,3\nb,2\n", "line 3: expected 2 fields, got 3"),
    ])
    def test_first_bad_row_decides_the_error(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text("nodeId,value\n" + text)
        with pytest.raises(ParseError, match=message):
            load_signal(path)

    def test_no_rows_rejected(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("nodeId,value\n\n")
        with pytest.raises(ParseError, match="no signal rows"):
            load_signal(path)

    def test_bytes_match_the_csv_writer(self, tmp_path):
        # csv quotes an id holding a delimiter, a quote or a line end
        ids = ["plain", 'a,"b"\nc', "d\re", "x y", 7]
        values = np.array([[0.1, -0.0], [1 / 3, 2.5e-300], [np.inf, -np.nan],
                           [1e17, 5.0], [-7.0, 0.0]])
        path = tmp_path / "signal.csv"
        write_signal(path, ids, values)
        assert path.read_bytes() == row_write_signal(ids, values)
        assert path.read_bytes().startswith(
            b'nodeId,value0,value1\r\nplain,0.10000000000000001,-0\r\n'
            b'"a,""b""\nc",0.33333333333333331,2.5e-300\r\n'
            b'"d\re",inf,nan\r\n')
        # one block of values numpy formats and values Python formats
        values = np.array([1e-5, 1.0, 12.5, -3e20, 1e-4, 0.99999999999999989,
                           -0.0])
        ids = ["%s", "b", "c", "100%", "e", "f", "g"]
        write_signal(path, ids, values)
        assert path.read_bytes() == row_write_signal(ids, values)
        assert path.read_bytes() == (
            b"nodeId,value\r\n%s,1.0000000000000001e-05\r\nb,1\r\n"
            b"c,12.5\r\n100%,-3e+20\r\ne,0.0001\r\n"
            b"f,0.99999999999999989\r\ng,-0\r\n")

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(signal=signals())
    def test_bytes_match_the_row_writer(self, tmp_path, signal):
        ids, values = signal
        path = tmp_path / "signal.csv"
        write_signal(path, ids, values)
        assert path.read_bytes() == row_write_signal(ids, values)

    def test_rows_wider_than_a_block_written_one_at_a_time(self, tmp_path):
        d = hyperprop.io._WRITE_VALUES + 1
        values = np.random.default_rng(0).random((3, d))
        values[1, ::2] = 1e-300  # a row Python formats in part
        ids = ["a", "100%", "c"]
        path = tmp_path / "signal.csv"
        write_signal(path, ids, values)
        assert path.read_bytes() == row_write_signal(ids, values)

    @pytest.mark.parametrize("n_ids, shape", [
        (3, (2, 1)), (1, (2,)), (0, (1, 3)), (2, (2, 1, 1)), (1, ()),
        (2, (2, 0)), (0, (0, 0)),  # no column: a file load_signal rejects
    ])
    def test_shape_mismatch_rejected_before_the_file(self, tmp_path, n_ids,
                                                     shape):
        path = tmp_path / "signal.csv"
        ids = [f"n{i}" for i in range(n_ids)]
        with pytest.raises(ShapeError):
            write_signal(path, ids, np.zeros(shape))
        assert not path.exists()

    def test_many_rows_in_memory_bounded_by_the_block(self, tmp_path):
        n, d = 100_000, 7
        ids = [f"n{i}" for i in range(n)]
        values = np.random.default_rng(0).random((n, d))
        path = tmp_path / "signal.csv"
        tracemalloc.start()
        try:
            write_signal(path, ids, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file is about 13 MB: as one str it would take as much, and
        # values.tolist() about 22 MB.  The writer's list of the ids and
        # their joined text take under 2 MB, one block of rows under 1 MB.
        assert path.stat().st_size > 12 * 2**20
        assert peak < 4 * 2**20

    def test_wide_rows_in_memory_bounded_by_the_block(self, tmp_path):
        n, d = 10_000, 100
        ids = [f"n{i}" for i in range(n)]
        values = np.random.default_rng(0).random((n, d))
        path = tmp_path / "signal.csv"
        tracemalloc.start()
        try:
            write_signal(path, ids, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block holds a fixed number of values, not of rows: 2048 rows
        # of 100 values would take about 35 MB
        assert path.stat().st_size > 18 * 2**20
        assert peak < 4 * 2**20

    def test_long_id_among_many_rows_in_memory_bounded_by_the_block(
            self, tmp_path):
        n, d = 5_000, 7
        ids = [f"n{i}" for i in range(n)]
        ids[3_000] = "é" + "x" * 99_998 + "é"  # 100,000 characters
        values = np.random.default_rng(0).random((n, d))
        path = tmp_path / "signal.csv"
        tracemalloc.start()
        try:
            write_signal(path, ids, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a rows x longest-id layout would need 2048 x 100,000 bytes
        assert peak < 4 * 2**20
        assert path.read_bytes() == row_write_signal(ids, values)

    def test_many_rows_read_in_memory_bounded_by_the_file(self, tmp_path):
        n, d = 50_000, 7
        values = np.random.default_rng(0).random((n, d))
        path = tmp_path / "signal.csv"
        write_signal(path, [f"n{i}" for i in range(n)], values)
        tracemalloc.start()
        try:
            ids, got = load_signal(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file is about 7 MB.  One column of values at a time as str,
        # converted straight into the array, peaks at 4.0x the file; all
        # of them as str and as lists of Python floats would reach 7.9x.
        assert peak < 5 * path.stat().st_size
        assert ids == [f"n{i}" for i in range(n)]
        assert got.tobytes() == values.tobytes()

    def test_plain_ids_bytes(self, tmp_path):
        path = tmp_path / "signal.csv"
        write_signal(path, ("u1", "u\x0b2"), np.array([1.5, 2.0]))
        assert path.read_bytes() == (b"nodeId,value\r\nu1,1.5\r\n"
                                     b"u\x0b2,2\r\n")


def written_texts(values):
    """Each value's text as the signal writer formats it, one row each."""
    values = np.asarray(values, dtype=np.float64)
    rows = hyperprop.io._signal_rows(["n"] * values.size, values[:, None])
    return [row[2:] for row in rows.split(b"\r\n")[:-1]]


def numpy_texts(values):
    """The text of the numpy formatter's slots, and which values failed."""
    values = np.asarray(values, dtype=np.float64)
    slots, failed = hyperprop.io._fixed_slots(values, np.abs(values))
    rows = slots.view(np.uint8).reshape(-1, 24)
    return [bytes(row[row != 0xFF][1:]) for row in rows], failed


def python_texts(values):
    return [format(v, ".17g").encode() for v in np.asarray(values).tolist()]


def adversarial_values():
    """Values where a %.17g formatter can go wrong, and their negations."""
    rng = np.random.default_rng(20)
    powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
    values = [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
              [1e-4, 1e16, 1e17, 0.0, 5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, np.inf, np.nan, 0.99999999999999989,
               9.9999999999999991e-05, 99999999999999984.0]]
    # a tie at the 18th digit: m / 2**j == m * 5**j / 10**j is exact, and
    # m * 5**j has 18 digits, the last a 5, while m is odd and below 2**53
    ties = []
    for j in range(2, 26):
        low, high = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
        for m in rng.integers(low, high, size=40).tolist():
            m |= 1
            if len(str(m * 5**j)) == 18:
                ties.append(m / 2**j)
    values.append(ties)
    values.append(rng.integers(1, 2**52, size=500) * 5e-324)  # subnormals
    values = np.concatenate([np.asarray(v, dtype=np.float64) for v in values])
    return np.concatenate([values, -values])


class TestSignalFormatter:
    """The writer's text of each value is ``format(v, ".17g")``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(), min_size=1, max_size=20))
    def test_any_float(self, values):
        assert written_texts(values) == python_texts(values)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(1e-4, 1e17, exclude_max=True),
                              st.booleans()), min_size=1, max_size=20))
    def test_positional_range_takes_the_numpy_path(self, pairs):
        values = [-v if negative else v for v, negative in pairs]
        texts, failed = numpy_texts(values)
        assert not failed.any()
        assert texts == python_texts(values)
        assert written_texts(values) == texts

    def test_adversarial_corpus(self):
        values = adversarial_values()
        assert written_texts(values) == python_texts(values)
        mag = np.abs(values)
        fixed = values[((mag >= 1e-4) & (mag < 1e17)) | (mag == 0)]
        assert fixed.size > 1000
        texts, failed = numpy_texts(fixed)
        assert not failed.any()
        assert texts == python_texts(fixed)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(21).integers(
            0, 2**64, size=20_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert written_texts(values) == python_texts(values)


class TestReports:
    def test_json_write_parse_write_is_byte_identical(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(small_report(), path, "json")
        raw = path.read_bytes()
        assert canonical_json_bytes(json.loads(raw)) == raw

    def test_json_aggregate_matches_cells(self, tmp_path):
        report = small_report()
        path = tmp_path / "report.json"
        write_report(report, path, "json")
        doc = json.loads(path.read_text())
        values = [c["value"] for c in doc["cells"]]
        assert doc["mean_auc"] == pytest.approx(sum(values) / len(values))
        assert doc["per_class_mean"] == {"art": 0.875, "bio": 0.75}

    def test_csv_one_cell_one_aggregate_row(self, tmp_path):
        report = MetricReport(
            dataset="toy", task="retrieval", method="propagation",
            metric="p_at_100", params={}, class_names=("art",),
            cells=(MetricCell(0, 0, 0.5, 3.0),))
        path = tmp_path / "report.csv"
        write_report(report, path, "csv")
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["class", "fold", "metric", "value", "micros"]
        assert len(rows) == 3  # header + 1 data + 1 aggregate
        assert rows[1][:4] == ["art", "0", "p_at_100", "0.5"]
        assert rows[2][0] == "mean" and rows[2][1] == "mean"

    def test_csv_values_round_trip_losslessly(self, tmp_path):
        value = 1 / 3 + 1e-16
        report = MetricReport(
            dataset="toy", task="classification", method="propagation",
            metric="auc", params={}, class_names=("c",),
            cells=(MetricCell(0, 0, value, 1.0),))
        path = tmp_path / "report.csv"
        write_report(report, path, "csv")
        rows = list(csv.reader(path.read_text().splitlines()))
        assert float(rows[1][3]) == value

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(small_report(), tmp_path / "r.xml", "xml")

    def test_report_dict_excludes_timings(self):
        doc = report_to_dict(small_report())
        assert "micros" not in json.dumps(doc)
