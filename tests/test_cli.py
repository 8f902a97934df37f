import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
         "smoothing must be finite and >= 0, got nan"),
        (["classify", "--labels", "labels.csv", "--jobs", "0"],
         "n_jobs must be >= 1, got 0"),
        (["retrieve", "--labels", "labels.csv", "--jobs", "-1"],
         "n_jobs must be >= 1, got -1"),
        (["classify", "--labels", "labels.csv", "--method", "naive-bayes",
          "--layers", "0"],
         "layers must be an integer >= 1"),
    ], ids=["layers", "alpha", "smoothing", "jobs", "negative-jobs",
            "naive-bayes-layers"])
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
        assert result.stderr == (f"error: smoothing must be finite and >= 0, "
                                 f"got {smoothing}\n")

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
