"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantity (run with ``pytest -v -s``).

Criterion 5 (published-dataset score reproduction) needs the citation
dataset files under ``data/`` (see scripts/prepare_citation_datasets.py);
when they are absent those tests skip and criterion 6's synthetic
qualitative checks stand in for them, as specified.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hyperprop import (PropagationConfig, TaskSpec, load_dataset,
                       precision_at_k, propagate, roc_auc, run_classification,
                       run_retrieval, dataset_stats)

import oracles
from util import (bernoulli_hypergraph, ordinary_graph, random_hypergraph,
                  random_signal)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _passed(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def all_variant_configs():
    return [PropagationConfig(variant="row"),
            PropagationConfig(variant="column"),
            PropagationConfig(variant="symmetric"),
            PropagationConfig(variant="alpha", alpha=0.25)]


def test_criterion_1_sparse_matches_dense_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        h = bernoulli_hypergraph(rng, max_nodes=50, max_edges=30, p=0.2)
        x = random_signal(rng, h.n_nodes, max_cols=4)
        for cfg in all_variant_configs():
            diff = np.abs(propagate(h, x, cfg)
                          - oracles.dense_propagate_layer(h, x, cfg)).max()
            worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    _passed(1, f"200 instances x 4 variants, max |sparse - dense| = "
               f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_ordinary_graph_label_propagation_reduction():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst_prop, worst_kernel = 0.0, 0.0
    for _ in range(100):
        h, adjacency = ordinary_graph(rng)
        x = random_signal(rng, h.n_nodes)
        inv_deg = 1.0 / adjacency.sum(axis=1)
        lazy_walk = 0.5 * (inv_deg[:, None] * (adjacency @ x)) + 0.5 * x
        worst_prop = max(worst_prop, float(
            np.abs(propagate(h, x, PropagationConfig()) - lazy_walk).max()))
        degree = np.diag(adjacency.sum(axis=1))
        worst_kernel = max(worst_kernel, float(
            np.abs(oracles.dense_kernel(h) - 0.5 * (adjacency + degree)).max()))
    elapsed = time.perf_counter() - t0
    assert worst_prop <= 1e-10
    assert worst_kernel <= 1e-12
    assert elapsed < 5.0
    _passed(2, f"100 ordinary graphs, layer vs half-lazy-walk "
               f"{worst_prop:.2e}, kernel vs (A+D)/2 {worst_kernel:.2e}, "
               f"{elapsed:.2f}s")


def test_criterion_3_alpha_half_reduces_to_row_variant():
    rng = np.random.default_rng(1003)
    half = PropagationConfig(variant="alpha", alpha=0.5)
    worst = 0.0
    for _ in range(50):
        h = bernoulli_hypergraph(rng)
        x = random_signal(rng, h.n_nodes)
        diff = np.abs(propagate(h, x, half)
                      - propagate(h, x, PropagationConfig())).max()
        worst = max(worst, float(diff))
    assert worst <= 1e-12
    _passed(3, f"50 instances, max |alpha(0.5) - row| = {worst:.2e}")


def test_criterion_4_metrics_match_enumeration_oracles():
    rng = np.random.default_rng(1004)
    t0 = time.perf_counter()
    worst_auc, worst_pk = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        worst_auc = max(worst_auc, abs(
            roc_auc(scores, labels) - oracles.pairwise_auc(scores, labels)))
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        scores = np.round(rng.normal(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        k = int(rng.integers(1, 50))
        worst_pk = max(worst_pk, abs(
            precision_at_k(scores, labels, k)
            - oracles.exhaustive_precision_at_k(scores, labels, k)))
    elapsed = time.perf_counter() - t0
    assert worst_auc <= 1e-12
    assert worst_pk == 0.0
    assert elapsed < 10.0
    _passed(4, f"1000 draws each: AUC dev {worst_auc:.2e}, "
               f"P@k dev {worst_pk:.2e}, {elapsed:.2f}s")


# -- criterion 5: published-dataset reproduction (skips without data) -------

CITATION_SETS = {
    "cora-ca": {
        "stats": {"n_nodes": 2708, "n_edges": 1072, "nnz": 4585,
                  "n_isolated": 320, "n_classes": 7},
        "classification_auc": (0.882, 0.03),
        "retrieval_p100": (0.721, 0.05),
        "naive_bayes_auc": (0.913, 0.03),
    },
    "citeseer": {
        "stats": {"n_nodes": 3312, "n_edges": 1079, "nnz": 3453,
                  "n_isolated": 1854, "n_classes": 6},
        "classification_auc": (0.646, 0.03),
        "retrieval_p100": (0.568, 0.05),
    },
}


def _load_citation(name):
    incidence = DATA_DIR / name / "incidence.csv"
    labels = DATA_DIR / name / "labels.csv"
    if not (incidence.exists() and labels.exists()):
        pytest.skip(f"{name} dataset files not present under {DATA_DIR}; "
                    f"criterion 5 replaced by criterion 6")
    return load_dataset(incidence, labels, name=name)


@pytest.mark.parametrize("name", sorted(CITATION_SETS))
def test_criterion_5_dataset_characteristics(name):
    bundle = _load_citation(name)
    stats = dataset_stats(bundle)
    expected = CITATION_SETS[name]["stats"]
    mismatched = {k: (stats[k], v) for k, v in expected.items()
                  if stats[k] != v}
    assert not mismatched
    _passed(5, f"{name} characteristics match: "
               + ", ".join(f"{k}={v}" for k, v in expected.items()))


@pytest.mark.parametrize("name", sorted(CITATION_SETS))
def test_criterion_5_classification_scores(name):
    bundle = _load_citation(name)
    t0 = time.perf_counter()
    spec = TaskSpec(task="classification",
                    propagation=PropagationConfig(layers=1))
    report = run_classification(bundle.hypergraph, bundle.labels, spec,
                                dataset_name=name)
    elapsed = time.perf_counter() - t0
    target, tol = CITATION_SETS[name]["classification_auc"]
    assert report.mean() == pytest.approx(target, abs=tol)
    assert elapsed < 120.0
    _passed(5, f"{name} 1-layer classification AUC {report.mean():.3f} "
               f"within {target}+-{tol}, {elapsed:.1f}s")


@pytest.mark.parametrize("name", sorted(CITATION_SETS))
def test_criterion_5_retrieval_scores(name):
    bundle = _load_citation(name)
    t0 = time.perf_counter()
    spec = TaskSpec(task="retrieval",
                    propagation=PropagationConfig(layers=3), top_k=100)
    report = run_retrieval(bundle.hypergraph, bundle.labels, spec,
                           dataset_name=name)
    elapsed = time.perf_counter() - t0
    target, tol = CITATION_SETS[name]["retrieval_p100"]
    assert report.mean() == pytest.approx(target, abs=tol)
    assert elapsed < 120.0
    _passed(5, f"{name} 3-layer retrieval P@100 {report.mean():.3f} "
               f"within {target}+-{tol}, {elapsed:.1f}s")


def test_criterion_5_naive_bayes_classification():
    bundle = _load_citation("cora-ca")
    t0 = time.perf_counter()
    spec = TaskSpec(task="classification", method="naive-bayes")
    report = run_classification(bundle.hypergraph, bundle.labels, spec,
                                dataset_name="cora-ca")
    elapsed = time.perf_counter() - t0
    target, tol = CITATION_SETS["cora-ca"]["naive_bayes_auc"]
    assert report.mean() == pytest.approx(target, abs=tol)
    assert elapsed < 120.0
    _passed(5, f"cora-ca Naive Bayes classification AUC "
               f"{report.mean():.3f} within {target}+-{tol}, {elapsed:.1f}s")


# -- criterion 6: synthetic qualitative stand-ins ---------------------------

def _two_cliques(per_side=10):
    from hyperprop import build_hypergraph
    pairs = [(f"a{i}", "EA") for i in range(per_side)]
    pairs += [(f"b{i}", "EB") for i in range(per_side)]
    h, _ = build_hypergraph(pairs)
    return h, np.array([1] * per_side + [0] * per_side)


def test_criterion_6_separable_and_random_orderings():
    h, labels = _two_cliques()
    cls = run_classification(
        h, labels, TaskSpec(task="classification", n_folds=10, seed=42))
    assert cls.mean() == 1.0
    ret = run_retrieval(
        h, labels, TaskSpec(task="retrieval", n_folds=2, top_k=3, seed=42))
    assert ret.mean() == 1.0

    rng = np.random.default_rng(1006)
    rows, cols = (rng.random((200, 40)) < 0.05).nonzero()
    from hyperprop import build_hypergraph
    hr, _ = build_hypergraph(list(zip(rows.tolist(), cols.tolist())),
                             node_universe=range(200))
    random_labels = rng.integers(0, 2, size=200)
    noise = run_classification(
        hr, random_labels, TaskSpec(task="classification", n_folds=10, seed=9))
    assert noise.mean() == pytest.approx(0.5, abs=0.1)

    # random-score baseline: P@100 concentrates at the positive rate
    rate = 0.3
    pk = []
    for _ in range(20):
        labels100 = (rng.random(4000) < rate).astype(int)
        pk.append(precision_at_k(rng.random(4000), labels100, 100))
    mean_pk = float(np.mean(pk))
    assert mean_pk == pytest.approx(rate, abs=0.05)
    _passed(6, f"separable AUC/P@k = 1.0/1.0, random-label AUC "
               f"{noise.mean():.3f}, random-baseline P@100 {mean_pk:.3f} "
               f"vs rate {rate}")


def test_criterion_7_linear_scaling_in_nnz_and_layers():
    # measurements are interleaved across the compared configurations so
    # transient machine noise cancels out of the ratios
    sizes = [100_000, 200_000, 400_000]
    instances = {}
    for nnz in sizes:
        h = random_hypergraph(nnz // 5, nnz // 50, nnz, seed=7)
        x = np.random.default_rng(0).random(h.n_nodes)
        instances[nnz] = (h, x)

    def interleaved_medians(cases, reps=60):
        for fn in cases.values():
            fn()  # warm-up
        samples = {key: [] for key in cases}
        for _ in range(reps):
            for key, fn in cases.items():
                t0 = time.perf_counter()
                fn()
                samples[key].append(time.perf_counter() - t0)
        return {key: statistics.median(s) for key, s in samples.items()}

    one_layer = PropagationConfig(layers=1)
    medians = interleaved_medians({
        nnz: (lambda hx=instances[nnz]: propagate(hx[0], hx[1], one_layer))
        for nnz in sizes
    })
    r21 = medians[200_000] / medians[100_000]
    r42 = medians[400_000] / medians[200_000]
    assert r21 <= 2.5
    assert r42 <= 2.5

    h, x = instances[200_000]
    layer_medians = interleaved_medians({
        layers: (lambda cfg=PropagationConfig(layers=layers):
                 propagate(h, x, cfg))
        for layers in (1, 2)
    })
    layer_ratio = layer_medians[2] / layer_medians[1]
    assert 1.5 <= layer_ratio <= 2.5
    _passed(7, f"nnz doubling ratios {r21:.2f}, {r42:.2f} (<= 2.5); "
               f"2-layer/1-layer {layer_ratio:.2f} in [1.5, 2.5]")


def test_criterion_8_cli_reports_byte_identical_across_jobs(tmp_path):
    inc = ["nodeId,edgeId"]
    lab = ["nodeId,label"]
    rng = np.random.default_rng(1008)
    for i in range(60):
        for j in rng.choice(12, size=rng.integers(1, 4), replace=False):
            inc.append(f"n{i},e{j}")
        lab.append(f"n{i},c{int(rng.integers(0, 3))}")
    (tmp_path / "incidence.csv").write_text("\n".join(inc) + "\n")
    (tmp_path / "labels.csv").write_text("\n".join(lab) + "\n")
    outputs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"report_jobs{jobs}.json"
        result = subprocess.run(
            [sys.executable, "-m", "hyperprop", "classify",
             "--incidence", str(tmp_path / "incidence.csv"),
             "--labels", str(tmp_path / "labels.csv"),
             "--folds", "5", "--seed", "11", "--jobs", jobs,
             "--output", str(out)],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("mean_metric=")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert "mean_auc" in doc
    _passed(8, f"classify reports byte-identical across --jobs (1 vs 4), "
               f"{len(outputs[0])} bytes")
