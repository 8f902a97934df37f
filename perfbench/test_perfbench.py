"""Tests of the benchmark itself: generator, span recorder, smoke runs.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import bench
import gen
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SMOKE_SCALE = 0.05

# generator counts at benchmark scale, seed 0
FULL_COUNTS = {
    "classify-prop": {"nodes": 16000, "edges": 3200, "rows": 120000,
                      "distinct_pairs": 116400, "duplicate_rows": 3600,
                      "isolated_nodes": 800, "classes": 40},
    "retrieve-nb": {"nodes": 12500, "edges": 2500, "rows": 100000,
                    "distinct_pairs": 97000, "duplicate_rows": 3000,
                    "isolated_nodes": 625, "classes": 20},
    "propagate-labels": {"nodes": 30000, "edges": 3000, "rows": 150000,
                         "distinct_pairs": 145500, "duplicate_rows": 4500,
                         "isolated_nodes": 1500, "classes": 7},
}

# sha256 of each JSON report at SMOKE_SCALE, seed 0
SMOKE_PINS = {
    "classify-prop": {"0": "8e250f4e9fc600c83e32edec8d81ad2b"
                            "7b92b21cb576d1af6fd1340fbc6401d0"},
    "retrieve-nb": {"0": "d090316c64333b005687e817be99ec93"
                          "426a87b508e1ed84fb257c14de4e88b2"},
}


def test_generator_is_deterministic_per_seed():
    spec = WORKLOADS["classify-prop"].graph.scaled(SMOKE_SCALE)
    a, b, c = gen.generate(spec, 7), gen.generate(spec, 7), gen.generate(spec, 8)
    for field in ("labels", "nodes", "edges", "row_nodes", "row_edges",
                  "label_order"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.row_nodes, c.row_nodes)


@pytest.mark.parametrize("name", sorted(FULL_COUNTS))
def test_generator_counts_are_pinned(name):
    spec = WORKLOADS[name].graph
    counts = gen.generate(spec, 0).counts()
    assert counts == FULL_COUNTS[name]
    assert counts["rows"] == spec.rows
    assert counts["duplicate_rows"] == round(spec.duplicates * spec.rows)
    assert counts["isolated_nodes"] == round(spec.isolated * spec.n_nodes)
    assert counts["classes"] == spec.n_classes


def test_generated_files_hold_the_planted_pairs(tmp_path):
    spec = WORKLOADS["propagate-labels"].graph.scaled(SMOKE_SCALE)
    ds = gen.generate(spec, 3)
    gen.write(ds, tmp_path)
    rows = (tmp_path / "incidence.csv").read_text().splitlines()
    assert rows[0] == "nodeId,edgeId"
    pairs = {tuple(int(v[1:]) for v in r.split(",")) for r in rows[1:]}
    assert pairs == set(zip(ds.nodes.tolist(), ds.edges.tolist()))
    labels = (tmp_path / "labels.csv").read_text().splitlines()
    assert len(labels) == spec.n_nodes + 1


def test_traced_restores_the_originals():
    bound = {(m, a): getattr(__import__(m, fromlist=[a]), a)
             for m, a, _ in spans.TARGETS}
    recorder = spans.Recorder()
    with pytest.raises(RuntimeError):
        with spans.traced(recorder):
            for (m, a), fn in bound.items():
                wrapped = getattr(__import__(m, fromlist=[a]), a)
                assert wrapped is not fn and wrapped.__wrapped__ is fn
            raise RuntimeError("leave the block early")
    for (m, a), fn in bound.items():
        assert getattr(__import__(m, fromlist=[a]), a) is fn
    assert recorder.absent == []


def test_missing_name_is_reported_absent():
    recorder = spans.Recorder()
    with spans.traced(recorder, (("hyperprop.cli", "no_such_name", "x.y"),)):
        pass
    assert recorder.absent == ["hyperprop.cli.no_such_name"]


def test_changed_signature_keeps_the_span_and_drops_its_counts():
    recorder = spans.Recorder()
    build = recorder.wrap("hypergraph.build", lambda pairs: ("h", "maps"))
    assert build(iter([("a", "b")])) == ("h", "maps")  # pairs has no len()
    (span,) = recorder.spans
    assert "TypeError" in span.attrs["describe_error"]
    assert spans.layer_metrics(recorder.spans, None)["hypergraph.pairs_in"] == 0


def test_self_time_subtracts_the_union_of_children_across_threads():
    parent = spans.Span(0, "p", None, 1, 1, 0.0, 10.0)
    kids = [spans.Span(1, "a", 0, 1, 1, 1.0, 4.0),
            spans.Span(2, "b", 0, 2, 1, 2.0, 6.0),   # overlaps a, other thread
            spans.Span(3, "c", 0, 2, 1, 8.0, 9.0),
            spans.Span(4, "d", 0, 2, 1, 9.5, 12.0)]  # clipped at the parent
    assert spans.self_time(parent, kids) == pytest.approx(10 - 5 - 1 - 0.5)


def test_worker_thread_spans_attach_to_the_run():
    recorder = spans.Recorder()

    def work():
        with recorder.span("w"):
            pass

    with recorder.cli_run(1) as root:
        with recorder.span("evaluation.run") as run:
            t = threading.Thread(target=work)
            t.start()
            t.join(timeout=10)
            assert not t.is_alive()
    worker = [s for s in recorder.spans if s.name == "w"][0]
    assert run.parent == root.id
    assert worker.parent == run.id and worker.run == 1


def _smoke(name, trace, tmp_path):
    return bench.bench(name, seed=0, seconds=0, trace=trace, work_root=tmp_path,
                       scale=SMOKE_SCALE, pins=SMOKE_PINS, log=lambda *a: None)


def test_smoke_untraced_reports_every_end_to_end_metric(tmp_path):
    result = _smoke("classify-prop", False, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_run_passes_its_output_checks(name, tmp_path):
    result = _smoke(name, True, tmp_path)
    assert result["correct"] and result["failed"] == 0, result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(bench.PER_LAYER_UNITS)
    uses = {"propagation.calls": name != "retrieve-nb",
            "naive_bayes.fit_calls": name == "retrieve-nb",
            "metrics.roc_auc_calls": name == "classify-prop",
            "metrics.precision_at_k_calls": name.startswith("retrieve"),
            "evaluation.cells": name != "propagate-labels"}
    for key, used in uses.items():
        assert (metrics[key] > 0) == used, key
    assert metrics["evaluation.concurrency"] <= 1.0  # --jobs 1
    assert metrics["hypergraph.dup_collapsed"] > 0
    assert (tmp_path / f"{name}-0.spans.jsonl").stat().st_size > 0


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        bench.PER_LAYER_UNITS


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-prop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
