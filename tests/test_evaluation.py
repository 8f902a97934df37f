import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperprop import (VARIANTS, InvalidConfigError, InvalidFoldsError,
                       MetricCell, MetricReport, PropagationConfig,
                       ShapeError, TaskSpec, UnknownClassError, assign_folds,
                       binarize, build_hypergraph, evaluation,
                       run_classification, run_retrieval)
from hyperprop.io import canonical_json_bytes, report_to_dict

import oracles


def two_cliques(per_side=10):
    """Two disjoint hyperedge cliques; labels follow the component."""
    pairs = [(f"a{i}", "EA") for i in range(per_side)]
    pairs += [(f"b{i}", "EB") for i in range(per_side)]
    h, _ = build_hypergraph(pairs)
    labels = np.array([1] * per_side + [0] * per_side)
    return h, labels


def random_instance(rng, n=200, m=40, p=0.05):
    rows, cols = (rng.random((n, m)) < p).nonzero()
    h, _ = build_hypergraph(list(zip(rows.tolist(), cols.tolist())),
                            node_universe=range(n))
    return h, rng.integers(0, 2, size=n)


class TestAssignFolds:
    def test_one_node_per_fold(self):
        fa = assign_folds(10, 10, seed=0)
        assert np.bincount(fa.folds, minlength=10).tolist() == [1] * 10

    def test_near_equal_sizes(self):
        fa = assign_folds(10, 3, seed=0)
        assert sorted(np.bincount(fa.folds).tolist()) == [3, 3, 4]

    def test_deterministic(self):
        a = assign_folds(500, 10, seed=7)
        b = assign_folds(500, 10, seed=7)
        assert np.array_equal(a.folds, b.folds)
        c = assign_folds(500, 10, seed=8)
        assert not np.array_equal(a.folds, c.folds)

    def test_every_node_exactly_one_fold(self):
        fa = assign_folds(103, 10, seed=3)
        assert fa.folds.shape == (103,)
        assert fa.folds.min() >= 0 and fa.folds.max() == 9

    def test_invalid_counts(self):
        with pytest.raises(InvalidFoldsError):
            assign_folds(10, 1, seed=0)
        with pytest.raises(InvalidFoldsError):
            assign_folds(5, 6, seed=0)


class TestBinarize:
    def test_basic(self):
        assert binarize([0, 1, 2], 1).tolist() == [0, 1, 0]

    def test_all_positive(self):
        assert binarize([4, 4, 4], 4).tolist() == [1, 1, 1]

    def test_unknown_class(self):
        with pytest.raises(UnknownClassError):
            binarize([2, 2, 0], 1)


class TestMetricReport:
    def test_two_stage_mean(self):
        cells = (MetricCell(0, 0, 0.8, 1.0), MetricCell(0, 1, 0.6, 1.0),
                 MetricCell(1, 0, 1.0, 1.0))
        report = MetricReport(dataset="d", task="classification",
                              method="propagation", metric="auc", params={},
                              class_names=("0", "1"), cells=cells)
        assert report.per_class_mean() == {0: 0.7, 1: 1.0}
        assert report.mean() == pytest.approx(0.85)

    @pytest.mark.parametrize("offset", [0, 1])
    def test_classes_without_names_are_named_by_their_ids(self, offset):
        h, labels = two_cliques()
        report = run_classification(h, labels + offset,
                                    TaskSpec(task="classification", n_folds=2))
        doc = report_to_dict(report)
        names = [str(offset), str(offset + 1)]
        assert doc["classes"] == names
        assert {c["class"] for c in doc["cells"]} == set(names)
        assert doc["per_class_mean"] == dict.fromkeys(names, 1.0)

    def test_empty_report_has_no_mean(self):
        report = MetricReport(dataset="d", task="classification",
                              method="propagation", metric="auc", params={},
                              class_names=(), cells=())
        assert report.mean() is None


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            TaskSpec(task="clustering")
        with pytest.raises(InvalidConfigError):
            TaskSpec(task="retrieval", method="svm")
        with pytest.raises(InvalidConfigError):
            TaskSpec(task="retrieval", n_folds=1)
        with pytest.raises(InvalidConfigError):
            TaskSpec(task="retrieval", top_k=0)
        for smoothing in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidConfigError, match="smoothing"):
                TaskSpec(task="retrieval", smoothing=smoothing)

    @pytest.mark.parametrize("method", ["naive-bayes", "propagation"])
    def test_zero_smoothing_rejected(self, method):
        # Naive Bayes at 0 can score a node NaN; fit_naive_bayes still
        # accepts 0 for library use
        with pytest.raises(InvalidConfigError,
                           match=r"smoothing must be finite and > 0, got 0"):
            TaskSpec(task="classification", method=method, smoothing=0.0)

    def test_metric_names(self):
        assert TaskSpec(task="classification").metric_name == "auc"
        assert TaskSpec(task="retrieval", top_k=7).metric_name == "p_at_7"


class TestClassification:
    def test_separable_components_score_one(self):
        h, labels = two_cliques()
        spec = TaskSpec(task="classification", n_folds=10, seed=42)
        report = run_classification(h, labels, spec)
        assert report.cells  # some folds may be single-class, not all
        assert report.mean() == 1.0
        for cell in report.cells:
            assert cell.value == 1.0
            assert cell.micros > 0

    def test_separable_with_naive_bayes(self):
        h, labels = two_cliques()
        spec = TaskSpec(task="classification", method="naive-bayes",
                        n_folds=10, seed=42)
        report = run_classification(h, labels, spec)
        assert report.mean() == 1.0

    def test_random_labels_score_near_half(self):
        rng = np.random.default_rng(0)
        h, labels = random_instance(rng)
        spec = TaskSpec(task="classification", n_folds=10, seed=1)
        report = run_classification(h, labels, spec)
        assert abs(report.mean() - 0.5) < 0.1

    def test_rare_class_folds_are_skipped_and_recorded(self):
        pairs = [(f"n{i}", f"e{i % 4}") for i in range(15)]
        h, _ = build_hypergraph(pairs)
        labels = np.zeros(15, dtype=int)
        labels[:7] = 1
        labels[14] = 2  # a single-node class
        spec = TaskSpec(task="classification", n_folds=5, seed=0)
        report = run_classification(h, labels, spec)
        skipped = [s for s in report.skipped if s.class_id == 2]
        assert len(skipped) == 4  # the 4 folds whose test set lacks class 2
        assert all("single class" in s.reason for s in skipped)
        scored_folds = {c.fold for c in report.cells if c.class_id == 2}
        assert len(scored_folds) == 1

    def test_task_kind_enforced(self):
        h, labels = two_cliques(4)
        with pytest.raises(InvalidConfigError):
            run_classification(h, labels, TaskSpec(task="retrieval"))
        with pytest.raises(InvalidConfigError):
            run_retrieval(h, labels, TaskSpec(task="classification"))

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_fewer_than_one_job_rejected(self, jobs):
        h, labels = two_cliques(4)
        with pytest.raises(InvalidConfigError):
            run_classification(h, labels, TaskSpec(task="classification",
                                                   n_folds=2), n_jobs=jobs)
        with pytest.raises(InvalidConfigError):
            run_retrieval(h, labels, TaskSpec(task="retrieval", n_folds=2),
                          n_jobs=jobs)

    def test_label_shape_checked(self):
        h, labels = two_cliques(4)
        with pytest.raises(ShapeError):
            run_classification(h, labels[:-1],
                               TaskSpec(task="classification", n_folds=2))


class TestRetrieval:
    def test_shared_edge_retrieval_is_perfect(self):
        h, labels = two_cliques()
        spec = TaskSpec(task="retrieval", n_folds=2, top_k=3, seed=42)
        report = run_retrieval(h, labels, spec)
        assert report.cells
        assert report.mean() == 1.0

    def test_naive_bayes_path_runs_and_is_seeded(self):
        h, labels = two_cliques()
        spec = TaskSpec(task="retrieval", method="naive-bayes", n_folds=2,
                        top_k=3, seed=5)
        r1 = run_retrieval(h, labels, spec)
        r2 = run_retrieval(h, labels, spec)
        assert [c.value for c in r1.cells] == [c.value for c in r2.cells]

    def test_empty_training_fold_skipped(self):
        # class 2 has one node: the fold not containing it has no positives
        pairs = [(f"n{i}", f"e{i % 3}") for i in range(10)]
        h, _ = build_hypergraph(pairs)
        labels = np.zeros(10, dtype=int)
        labels[0] = 2
        spec = TaskSpec(task="retrieval", n_folds=2, top_k=2, seed=0)
        report = run_retrieval(h, labels, spec)
        skipped = [s for s in report.skipped if s.class_id == 2]
        assert len(skipped) == 1
        assert "no positive" in skipped[0].reason


class TestDeterminism:
    def test_reports_identical_across_job_counts(self):
        rng = np.random.default_rng(9)
        h, labels = random_instance(rng, n=120, m=30)
        for task, runner in (("classification", run_classification),
                             ("retrieval", run_retrieval)):
            for method in ("propagation", "naive-bayes"):
                spec = TaskSpec(task=task, method=method, n_folds=5,
                                top_k=10, seed=3)
                docs = [
                    canonical_json_bytes(report_to_dict(
                        runner(h, labels, spec, dataset_name="toy",
                               n_jobs=jobs)))
                    for jobs in (1, 4)
                ]
                assert docs[0] == docs[1]


def multiclass_instance():
    """Seeded graph with sparse class ids, a singleton and a rare class.

    Its reports skip cells for every reason the harness knows, and it has
    isolated nodes.
    """
    rng = np.random.default_rng(31)
    n, m = 150, 40
    labels = rng.choice([0, 2, 5, 9], size=n)
    labels[:3] = 11   # rare: most test folds hold none of it
    labels[3] = 14    # singleton: its training folds never hold it
    rows, cols = (rng.random((n, m)) < 0.06).nonzero()
    h, _ = build_hypergraph(list(zip(rows.tolist(), cols.tolist())),
                            node_universe=range(n))
    return h, labels


HARNESS_CASES = [(task, "propagation", variant)
                 for task in ("classification", "retrieval")
                 for variant in ("row", "column", "symmetric", "alpha")]
HARNESS_CASES += [(task, "naive-bayes", "row")
                  for task in ("classification", "retrieval")]

TEST_SINGLE = "test fold contains a single class"
SKIP_REASONS = {
    ("classification", "propagation"): {TEST_SINGLE},
    ("classification", "naive-bayes"): {
        TEST_SINGLE, "training folds contain a single class"},
    ("retrieval", "propagation"): {"training fold contains no positive nodes"},
    ("retrieval", "naive-bayes"): {"training fold contains no positive nodes"},
}


class TestBatchedHarness:
    @pytest.mark.parametrize("n_jobs", [1, 3])
    @pytest.mark.parametrize("width", [1, 3, None])
    @pytest.mark.parametrize("task,method,variant", HARNESS_CASES)
    def test_report_equals_per_cell_reference(self, monkeypatch, task, method,
                                              variant, width, n_jobs):
        h, labels = multiclass_instance()
        columns = width or np.unique(labels).size  # None: one block per fold
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * h.n_nodes * columns)
        spec = TaskSpec(task=task, method=method, n_folds=5, top_k=12, seed=4,
                        smoothing=0.5, propagation=PropagationConfig(
                            variant=variant, layers=2,
                            alpha=0.3 if variant == "alpha" else None))
        runner = run_classification if task == "classification" \
            else run_retrieval
        got = runner(h, labels, spec, dataset_name="toy", n_jobs=n_jobs)
        want = oracles.per_cell_report(h, labels, spec, dataset_name="toy",
                                       n_jobs=n_jobs)
        assert canonical_json_bytes(report_to_dict(got)) == \
            canonical_json_bytes(report_to_dict(want))
        assert {s.reason for s in want.skipped} == SKIP_REASONS[task, method]

    def test_cell_micros_are_equal_shares_of_their_block(self, monkeypatch):
        h, labels = multiclass_instance()
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * h.n_nodes * 100)
        report = run_retrieval(h, labels, TaskSpec(task="retrieval",
                                                   n_folds=5, top_k=12))
        for fold in range(5):
            micros = {c.micros for c in report.cells if c.fold == fold}
            assert len(micros) == 1 and micros.pop() > 0


class TestBlockLayout:
    @pytest.mark.parametrize("task,method", [
        (task, method) for task in ("classification", "retrieval")
        for method in ("propagation", "naive-bayes")])
    def test_blocks_reach_the_method_row_major(self, monkeypatch, task,
                                               method):
        # a column-major block makes every sparse product copy its operand
        h, labels = multiclass_instance()
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * h.n_nodes * 3)
        shapes = []

        def spy(fn):
            def wrapped(h, x, *args, **kwargs):
                assert x.flags.c_contiguous
                shapes.append(x.shape)
                return fn(h, x, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(evaluation, "propagate", spy(evaluation.propagate))
        monkeypatch.setattr(evaluation, "fit_naive_bayes",
                            spy(evaluation.fit_naive_bayes))
        runner = run_classification if task == "classification" \
            else run_retrieval
        runner(h, labels, TaskSpec(task=task, method=method, n_folds=5,
                                   top_k=12, seed=4))
        assert any(shape[1] > 1 for shape in shapes)


@st.composite
def harness_cases(draw):
    """A small graph with isolated nodes, its labels and a harness setup.

    The labels hold a one-node class and a two-node class, so some folds
    hold none of a class.
    """
    n = draw(st.integers(6, 30))
    m = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    member = rng.random((n, m)) < draw(st.sampled_from([0.1, 0.3]))
    member[n - draw(st.integers(0, 3)):] = False  # isolated nodes
    rows, cols = member.nonzero()
    pairs = list(zip(rows.tolist(), cols.tolist())) or [(0, 0)]
    h, _ = build_hypergraph(pairs, node_universe=range(n))
    classes = draw(st.integers(1, 3))
    labels = rng.choice([0, 3, 4][:classes], size=n)
    labels[rng.choice(n, size=3, replace=False)] = [7, 8, 8]
    task = draw(st.sampled_from(["classification", "retrieval"]))
    method = draw(st.sampled_from(["propagation", "naive-bayes"]))
    variant = draw(st.sampled_from(VARIANTS))
    alpha = draw(st.floats(0.05, 0.95)) if variant == "alpha" else None
    spec = TaskSpec(
        task=task, method=method, n_folds=draw(st.integers(2, min(n, 6))),
        top_k=draw(st.integers(1, n)), seed=draw(st.integers(0, 99)),
        smoothing=draw(st.sampled_from([0.5, 1.0])),
        propagation=PropagationConfig(variant=variant,
                                      layers=draw(st.integers(1, 3)),
                                      alpha=alpha))
    width = draw(st.integers(1, classes + 2))  # block columns
    return h, labels, spec, width, draw(st.sampled_from([1, 2]))


class TestDifferentialHarness:
    """The batched harness against the one-cell-at-a-time reference, on
    generated graphs, labels, protocols and block widths."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=harness_cases())
    def test_report_bytes_equal_per_cell_reference(self, case):
        h, labels, spec, width, n_jobs = case
        runner = run_classification if spec.task == "classification" \
            else run_retrieval
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "_BLOCK_BYTES", 8 * h.n_nodes * width)
            got = runner(h, labels, spec, n_jobs=n_jobs)
        want = oracles.per_cell_report(h, labels, spec, n_jobs=n_jobs)
        assert canonical_json_bytes(report_to_dict(got)) == \
            canonical_json_bytes(report_to_dict(want))
