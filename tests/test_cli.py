import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperprop import cli, evaluation
from hyperprop.cli import main
from hyperprop.io import load_signal

CHAIN = "nodeId,edgeId\nu1,v1\nu2,v1\nu2,v2\nu3,v2\n"


@pytest.fixture
def chain_incidence(tmp_path):
    path = tmp_path / "incidence.csv"
    path.write_text(CHAIN)
    return path


@pytest.fixture
def cliques(tmp_path):
    """Separable two-component toy dataset."""
    per_side = 10
    inc = ["nodeId,edgeId"]
    lab = ["nodeId,label"]
    for i in range(per_side):
        inc.append(f"a{i},EA")
        lab.append(f"a{i},art")
        inc.append(f"b{i},EB")
        lab.append(f"b{i},bio")
    incidence = tmp_path / "toy_incidence.csv"
    labels = tmp_path / "toy_labels.csv"
    incidence.write_text("\n".join(inc) + "\n")
    labels.write_text("\n".join(lab) + "\n")
    return incidence, labels


def mean_from_stdout(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    line = [l for l in out if l.startswith("mean_metric=")][-1]
    return float(line.split("=", 1)[1])


class TestPropagate:
    def test_signal_file(self, chain_incidence, tmp_path, capsys):
        signal = tmp_path / "signal.csv"
        signal.write_text("nodeId,value\nu1,1\nu2,0\nu3,0\n")
        out = tmp_path / "out.csv"
        code = main(["propagate", "--incidence", str(chain_incidence),
                     "--signal", str(signal), "--output", str(out)])
        assert code == 0
        ids, values = load_signal(out)
        assert ids == ["u1", "u2", "u3"]
        np.testing.assert_allclose(values[:, 0], [0.5, 0.25, 0.0])

    def test_constant_signal_is_returned_unchanged(self, chain_incidence,
                                                   tmp_path):
        signal = tmp_path / "signal.csv"
        signal.write_text("nodeId,value\nu1,2\nu2,2\nu3,2\n")
        out = tmp_path / "out.csv"
        assert main(["propagate", "--incidence", str(chain_incidence),
                     "--signal", str(signal), "--layers", "3",
                     "--output", str(out)]) == 0
        _, values = load_signal(out)
        np.testing.assert_allclose(values[:, 0], 2.0, atol=1e-12)

    def test_label_derived_signal(self, cliques, tmp_path):
        incidence, labels = cliques
        out = tmp_path / "out.csv"
        assert main(["propagate", "--incidence", str(incidence),
                     "--labels", str(labels), "--output", str(out)]) == 0
        ids, values = load_signal(out)
        assert values.shape == (20, 2)  # one column per class
        np.testing.assert_allclose(values.sum(axis=1), 1.0)

    def test_label_signal_keeps_unlabeled_and_label_only_nodes(
            self, chain_incidence, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("nodeId,label\nu1,art\nu2,bio\nz,art\n")
        out = tmp_path / "out.csv"
        assert main(["propagate", "--incidence", str(chain_incidence),
                     "--labels", str(labels), "--output", str(out)]) == 0
        ids, values = load_signal(out)
        # u3 is in the incidence file only and starts from a zero row
        assert ids == ["u1", "u2", "z", "u3"]
        np.testing.assert_allclose(
            values, [[0.5, 0.5], [0.25, 0.5], [0.0, 0.0], [0.0, 0.5]])

    def test_header_only_label_file_exits_2(self, chain_incidence, tmp_path,
                                            capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("nodeId,label\n")
        out = tmp_path / "out.csv"
        code = main(["propagate", "--incidence", str(chain_incidence),
                     "--labels", str(labels), "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {labels}: no label rows\n"
        assert not out.exists()

    def test_zero_layers_rejected(self, chain_incidence, tmp_path, capsys):
        signal = tmp_path / "signal.csv"
        signal.write_text("nodeId,value\nu1,1\nu2,0\nu3,0\n")
        code = main(["propagate", "--incidence", str(chain_incidence),
                     "--signal", str(signal), "--layers", "0",
                     "--output", str(tmp_path / "out.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("sources", [
        [], ["--signal", "signal.csv", "--labels", "labels.csv"]],
        ids=["neither", "both"])
    def test_requires_signal_or_labels(self, chain_incidence, tmp_path,
                                       sources):
        with pytest.raises(SystemExit) as exc:
            main(["propagate", "--incidence", str(chain_incidence),
                  *sources, "--output", str(tmp_path / "out.csv")])
        assert exc.value.code == 2

    def test_missing_file(self, tmp_path):
        assert main(["propagate", "--incidence", str(tmp_path / "nope.csv"),
                     "--signal", str(tmp_path / "nope2.csv"),
                     "--output", str(tmp_path / "out.csv")]) == 2


class TestClassify:
    def test_separable_toy(self, cliques, tmp_path, capsys):
        incidence, labels = cliques
        report_path = tmp_path / "report.json"
        code = main(["classify", "--incidence", str(incidence),
                     "--labels", str(labels), "--output", str(report_path)])
        assert code == 0
        assert mean_from_stdout(capsys) == 1.0
        doc = json.loads(report_path.read_text())
        assert doc["mean_auc"] == 1.0
        assert doc["method"] == "propagation"

    def test_naive_bayes_method(self, cliques, capsys):
        incidence, labels = cliques
        code = main(["classify", "--incidence", str(incidence),
                     "--labels", str(labels), "--method", "naive-bayes"])
        assert code == 0
        assert mean_from_stdout(capsys) == 1.0

    def test_csv_report(self, cliques, tmp_path):
        incidence, labels = cliques
        report_path = tmp_path / "report.csv"
        assert main(["classify", "--incidence", str(incidence),
                     "--labels", str(labels), "--output", str(report_path),
                     "--format", "csv"]) == 0
        lines = report_path.read_text().splitlines()
        assert lines[0] == "class,fold,metric,value,micros"
        assert lines[-1].startswith("mean,mean,auc,")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_fewer_than_one_job_exits_2(self, cliques, capsys, jobs):
        incidence, labels = cliques
        code = main(["classify", "--incidence", str(incidence),
                     "--labels", str(labels), "--jobs", jobs])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_jobs must be >= 1")
        assert "Traceback" not in err

    def test_single_class_dataset_is_degenerate(self, tmp_path, capsys):
        (tmp_path / "i.csv").write_text("nodeId,edgeId\na,e\nb,e\nc,e\nd,e\n")
        (tmp_path / "l.csv").write_text(
            "nodeId,label\na,x\nb,x\nc,x\nd,x\n")
        code = main(["classify", "--incidence", str(tmp_path / "i.csv"),
                     "--labels", str(tmp_path / "l.csv"), "--folds", "2"])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err

    def test_reports_identical_across_jobs(self, cliques, tmp_path):
        incidence, labels = cliques
        outs = []
        for jobs in ("1", "3"):
            path = tmp_path / f"report_{jobs}.json"
            assert main(["classify", "--incidence", str(incidence),
                         "--labels", str(labels), "--jobs", jobs,
                         "--output", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestJobsDefault:
    """Without ``--jobs``, ``classify`` and ``retrieve`` run one worker per
    CPU the process may run on."""

    @pytest.fixture
    def three_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)

    @pytest.fixture
    def jobs_used(self, monkeypatch):
        seen = []
        for name in ("run_classification", "run_retrieval"):
            def spy(*args, runner=getattr(cli, name), **kwargs):
                seen.append(kwargs["n_jobs"])
                return runner(*args, **kwargs)
            monkeypatch.setattr(cli, name, spy)
        return seen

    @pytest.mark.parametrize("command", ["classify", "retrieve"])
    def test_default_writes_the_bytes_of_one_job(
            self, cliques, tmp_path, monkeypatch, three_cores, jobs_used,
            command):
        incidence, labels = cliques
        # one worker gets blocks of 2 columns, each of three 1 column
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * 20 * 2)
        outs = []
        for jobs in ([], ["--jobs", "1"]):
            path = tmp_path / f"report{len(jobs)}.json"
            assert main([command, "--incidence", str(incidence),
                         "--labels", str(labels), "--folds", "2",
                         "--output", str(path), *jobs]) == 0
            outs.append(path.read_bytes())
        assert jobs_used == [3, 1]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["classify", "retrieve"])
    def test_default_is_the_affinity_set(self, cliques, three_cores,
                                         jobs_used, command):
        incidence, labels = cliques
        assert main([command, "--incidence", str(incidence),
                     "--labels", str(labels)]) == 0
        assert main([command, "--incidence", str(incidence),
                     "--labels", str(labels), "--jobs", "2"]) == 0
        assert jobs_used == [3, 2]

    @pytest.mark.parametrize("count,jobs", [(3, 3), (None, 1)])
    def test_without_affinity_every_cpu(self, cliques, monkeypatch,
                                        jobs_used, count, jobs):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        incidence, labels = cliques
        assert main(["classify", "--incidence", str(incidence),
                     "--labels", str(labels)]) == 0
        assert jobs_used == [jobs]


class TestRetrieve:
    def test_separable_toy(self, cliques, tmp_path, capsys):
        incidence, labels = cliques
        report_path = tmp_path / "report.json"
        code = main(["retrieve", "--incidence", str(incidence),
                     "--labels", str(labels), "--folds", "2",
                     "--top-k", "3", "--layers", "3",
                     "--output", str(report_path)])
        assert code == 0
        assert mean_from_stdout(capsys) == 1.0
        doc = json.loads(report_path.read_text())
        assert doc["metric"] == "p_at_3"
        assert doc["params"]["top_k"] == 3


class TestArgumentErrors:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["transmogrify", "bench"])
    def test_unknown_subcommand_exits_2(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["propagate", "--signal", "x0.csv", "--layers", "0",
          "--output", "out.csv"],
         "layers must be an integer >= 1"),
        (["classify", "--labels", "labels.csv", "--variant", "alpha"],
         "alpha variant requires alpha in the open interval (0, 1)"),
        (["retrieve", "--labels", "labels.csv", "--method", "naive-bayes",
          "--smoothing", "nan"],
         "smoothing must be finite and > 0, got nan"),
        (["classify", "--labels", "labels.csv", "--method", "naive-bayes",
          "--smoothing", "0"],
         "smoothing must be finite and > 0, got 0.0"),
        (["classify", "--labels", "labels.csv", "--jobs", "0"],
         "n_jobs must be >= 1, got 0"),
        (["retrieve", "--labels", "labels.csv", "--jobs", "-1"],
         "n_jobs must be >= 1, got -1"),
        (["classify", "--labels", "labels.csv", "--method", "naive-bayes",
          "--layers", "0"],
         "layers must be an integer >= 1"),
        (["classify", "--labels", "labels.csv", "--seed", "-1"],
         "seed must be an integer >= 0, got -1"),
        (["retrieve", "--labels", "labels.csv", "--folds", "1"],
         "n_folds must be an integer >= 2, got 1"),
    ], ids=["layers", "alpha", "smoothing", "zero-smoothing", "jobs",
            "negative-jobs",
            "naive-bayes-layers", "negative-seed", "one-fold"])
    def test_bad_flag_fails_before_any_read(self, tmp_path, capsys, argv,
                                            message):
        missing = tmp_path / "missing.csv"
        assert main([*argv, "--incidence", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def run_cli(*argv):
    """``python -m hyperprop`` in a child process, so a traceback would show."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "hyperprop", *argv],
                          capture_output=True, text=True, env=env)


class TestMalformedInputExits2:
    def test_over_long_identifier(self, tmp_path):
        incidence = tmp_path / "incidence.csv"
        long_id = "x" * (csv.field_size_limit() + 1)
        incidence.write_text(f"nodeId,edgeId\nu1,v1\n{long_id},v1\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("nodeId,label\nu1,a\n")
        result = run_cli("propagate", "--incidence", str(incidence),
                         "--labels", str(labels),
                         "--output", str(tmp_path / "out.csv"))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert f"{incidence}: line 3: field larger than field limit" \
            in result.stderr

    @pytest.mark.parametrize("smoothing", ["nan", "inf"])
    def test_non_finite_smoothing(self, cliques, smoothing):
        incidence, labels = cliques
        result = run_cli("classify", "--incidence", str(incidence),
                         "--labels", str(labels), "--method", "naive-bayes",
                         "--smoothing", smoothing)
        assert result.returncode == 2
        assert result.stderr == (f"error: smoothing must be finite and > 0, "
                                 f"got {smoothing}\n")

    def test_zero_smoothing(self, cliques):
        # at 0 a node can score inf - inf = NaN, found only after all the work
        incidence, labels = cliques
        result = run_cli("classify", "--incidence", str(incidence),
                         "--labels", str(labels), "--method", "naive-bayes",
                         "--smoothing", "0")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr == \
            "error: smoothing must be finite and > 0, got 0.0\n"

    def test_invalid_utf8(self, tmp_path):
        incidence = tmp_path / "incidence.csv"
        incidence.write_text(CHAIN)
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"nodeId,label\nu1,a\nu2,\xff\n")
        result = run_cli("classify", "--incidence", str(incidence),
                         "--labels", str(labels))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert f"{labels}: line 3: invalid UTF-8" in result.stderr


# flag -> (valid values, invalid values)
FLAGS = {
    "--variant": (["row", "column", "symmetric"], ["diag"]),
    "--layers": (["1", "2"], ["0", "-1", "x"]),
    "--method": (["propagation", "naive-bayes"], ["svm"]),
    "--smoothing": (["1", "0.5"], ["0", "nan", "-1"]),
    "--seed": (["0", "7"], ["-1", "x"]),
    "--jobs": (["1", "2"], ["0"]),
    "--format": (["json", "csv"], ["xml"]),
}
NODES = list("abcdefgh")


def pick(draw, good, bad):
    """Mostly a valid value, one time in five an invalid one."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(bad))
    return draw(st.sampled_from(good))


@st.composite
def csv_files(draw, header, rows):
    """Bytes of a small delimited file holding ``rows``, one time in three
    broken: a wrong header, a ragged row, an empty id, bad UTF-8, or
    nothing at all."""
    lines = [header] + [",".join(row) for row in rows]
    fault = draw(st.sampled_from(
        [None] * 10 + ["header", "ragged", "empty", "utf8", "blank"]))
    if fault == "header":
        lines[0] = "node,thing"
    elif fault == "ragged":
        lines.append("a,b,c")
    elif fault == "empty":
        lines.append(f",{rows[0][1]}")
    elif fault == "blank":
        lines = []
    data = "\n".join(lines).encode()
    return data + b"\xff\n" if fault == "utf8" else data


def one_per_node(values):
    """Rows ``(node, value)`` for distinct nodes, in drawn order."""
    return st.lists(st.sampled_from(NODES), min_size=1, unique=True).flatmap(
        lambda nodes: st.tuples(*(st.tuples(st.just(n), values)
                                  for n in nodes)))


@st.composite
def cli_runs(draw):
    """An argv for one subcommand, and the files it names as ``{d}/...``.

    Labels usually cover every node; a missing or conflicting label, a
    bad flag value, a missing flag, file or directory, and an unknown
    flag each turn up now and then."""
    command = draw(st.sampled_from(["propagate", "classify", "retrieve"]))
    labels = [(n, draw(st.sampled_from("xyz"))) for n in NODES]
    if draw(st.integers(0, 5)) == 0:
        labels = labels[1:] + [(labels[1][0], "w")]
    edges = st.lists(st.tuples(st.sampled_from(NODES),
                               st.sampled_from(["e0", "e1", "e2"])),
                     min_size=1, max_size=16)
    files = {"incidence": draw(csv_files("nodeId,edgeId", draw(edges))),
             "labels": draw(csv_files("nodeId,label", labels)),
             "signal": draw(csv_files("nodeId,value", draw(one_per_node(
                 st.sampled_from(["0", "1", "0.5", "-2e3", "nan", "abc"])))))}
    sources = ["incidence", "labels"]
    if command == "propagate":
        sources = ["incidence", draw(st.sampled_from(["labels", "signal"]))]
    argv = [command]
    for name in sources:
        path = pick(draw, [f"{{d}}/{name}.csv"],
                    [None, "{d}/missing.csv", "{d}"])
        if path is not None:
            argv += [f"--{name}", path]
    output = pick(draw, ["{d}/out"], [None, "{d}/no/such/dir/out"])
    if output is not None and (command == "propagate"
                               or draw(st.booleans())):
        argv += ["--output", output]
    flags = ["--variant", "--layers"]
    if command != "propagate":
        flags = list(FLAGS)
        argv += ["--folds", pick(draw, ["2", "3"], ["1", "1000", "x"])]
    if command == "retrieve" and draw(st.booleans()):
        argv += ["--top-k", pick(draw, ["1", "5"], ["0"])]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3,
                              unique=True)):
        argv += [flag, pick(draw, *FLAGS[flag])]
    if draw(st.integers(0, 9)) == 0:
        argv += ["--variant", "alpha",
                 "--alpha", pick(draw, ["0.3"], ["1.5", "nan", "x"])]
    if draw(st.integers(0, 14)) == 0:
        argv += ["--bogus", "1"]
    return argv, files


class TestFuzz:
    """Generated argv and files: exit 0, 2 or 3, never a traceback."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(run=cli_runs())
    def test_exit_code_and_no_traceback(self, run):
        argv, files = run
        with tempfile.TemporaryDirectory() as d:
            for name, data in files.items():
                Path(d, f"{name}.csv").write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main([a.format(d=d) for a in argv])
                except SystemExit as exc:  # argparse rejected the argv
                    code = exc.code
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert err.getvalue().strip(), argv

    def test_malformed_file_in_a_child_process(self, cliques, tmp_path):
        incidence, labels = cliques
        broken = tmp_path / "broken.csv"
        broken.write_text(incidence.read_text() + "a0,EA,extra\n")
        result = run_cli("classify", "--incidence", str(broken),
                         "--labels", str(labels))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith(f"error: {broken}: line 22: ")
