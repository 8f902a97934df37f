import sys
import tracemalloc

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
from util import random_hypergraph


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

    @pytest.mark.parametrize("field,value", [
        ("n_folds", 3.0), ("top_k", 2.5), ("seed", 1.0), ("seed", -1),
        ("seed", "7"), ("smoothing", "1"), ("seed", True), ("seed", False),
        ("top_k", True), ("smoothing", True)])
    def test_fields_checked_at_construction(self, field, value):
        # each would otherwise fail later, inside numpy, or not at all; a
        # bool would reach the report as true or be taken as 1
        with pytest.raises(InvalidConfigError, match=field):
            TaskSpec(task="retrieval", **{field: value})

    @pytest.mark.parametrize("method", ["propagation", "naive-bayes"])
    def test_numpy_scalars_reach_the_report_as_numbers(self, method):
        # json cannot encode a numpy scalar: the report would fail to
        # write after all the work
        h, labels = two_cliques()
        spec = TaskSpec(task="retrieval", method=method, n_folds=np.int64(2),
                        top_k=np.int32(2), seed=np.uint8(0),
                        smoothing=np.float32(0.5),
                        propagation=PropagationConfig(
                            variant="alpha", layers=np.int64(2),
                            alpha=np.float32(0.25)))
        doc = report_to_dict(run_retrieval(h, labels, spec))
        want = {"folds": 2, "seed": 0, "top_k": 2}
        want.update({"smoothing": 0.5} if method == "naive-bayes" else
                    {"variant": "alpha", "layers": 2, "alpha": 0.25})
        assert doc["params"] == want
        assert all(type(v) in (int, float, str)
                   for v in doc["params"].values())
        canonical_json_bytes(doc)

    def test_metric_names(self):
        assert TaskSpec(task="classification").metric_name == "auc"
        assert TaskSpec(task="retrieval", top_k=7).metric_name == "p_at_7"


NON_INTEGER_LABELS = [
    pytest.param([0.2, 0.7, 1.0] * 20, id="fractional"),
    pytest.param([0.0, np.nan, 1.0] * 20, id="nan"),
    pytest.param([0.0, np.inf, 1.0] * 20, id="inf"),
    pytest.param(["a", "b", "c"] * 20, id="str"),
    pytest.param([0, 1j, 1] * 20, id="complex"),
]


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

    @pytest.mark.parametrize("jobs", [2.5, 2.0, True, "2", None,
                                      np.float64(2), np.bool_(True)])
    def test_non_integer_jobs_rejected(self, jobs):
        # 2.5 would otherwise start 3 threads and cut blocks at a float
        h, labels = two_cliques(4)
        with pytest.raises(InvalidConfigError, match="n_jobs must be an int"):
            run_classification(h, labels, TaskSpec(task="classification",
                                                   n_folds=2), n_jobs=jobs)
        with pytest.raises(InvalidConfigError, match="n_jobs must be an int"):
            run_retrieval(h, labels, TaskSpec(task="retrieval", n_folds=2),
                          n_jobs=jobs)

    def test_numpy_integer_jobs_stored_as_int(self):
        jobs = evaluation.check_n_jobs(np.int64(2))
        assert jobs == 2 and type(jobs) is int
        h, labels = two_cliques(4)
        spec = TaskSpec(task="classification", n_folds=2)
        assert canonical_json_bytes(report_to_dict(run_classification(
            h, labels, spec, n_jobs=np.int32(2)))) == canonical_json_bytes(
                report_to_dict(run_classification(h, labels, spec)))

    def test_label_shape_checked(self):
        h, labels = two_cliques(4)
        with pytest.raises(ShapeError):
            run_classification(h, labels[:-1],
                               TaskSpec(task="classification", n_folds=2))

    @pytest.mark.parametrize("labels", NON_INTEGER_LABELS)
    def test_non_integer_labels_rejected(self, labels):
        # class ids are reported as ints: 0.2 and 0.7 would pool as class 0
        h, _ = build_hypergraph([(i, i % 5) for i in range(len(labels))])
        with pytest.raises(ShapeError, match="integer class ids"):
            run_classification(h, labels,
                               TaskSpec(task="classification", n_folds=2))

    def test_integral_float_and_bool_labels_score_as_ints(self):
        h, labels = two_cliques()
        spec = TaskSpec(task="classification", n_folds=5)
        want = report_to_dict(run_classification(h, labels, spec))
        for same in (labels.astype(np.float64), labels.astype(bool)):
            assert report_to_dict(run_classification(h, same, spec)) == want


class TestRetrieval:
    @pytest.mark.parametrize("labels", NON_INTEGER_LABELS)
    def test_non_integer_labels_rejected(self, labels):
        h, _ = build_hypergraph([(i, i % 5) for i in range(len(labels))])
        with pytest.raises(ShapeError, match="integer class ids"):
            run_retrieval(h, labels, TaskSpec(task="retrieval", n_folds=2))

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

    @pytest.mark.parametrize("task,method,variant", [
        ("retrieval", "naive-bayes", "row"),
        ("classification", "propagation", "row"),
        ("classification", "propagation", "alpha"),
        ("classification", "naive-bayes", "row")])
    def test_workers_score_each_unit_once_under_frequent_switches(
            self, monkeypatch, task, method, variant):
        # more workers than cores take one-column units from one queue and
        # read the run's shared grouping: a unit taken twice or never, or a
        # result stored in another unit's slot, shows in the calls or the
        # report bytes
        h, labels = multiclass_instance()
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * h.n_nodes)
        spec = TaskSpec(task=task, method=method, n_folds=5, top_k=12,
                        seed=4, propagation=PropagationConfig(
                            variant=variant, layers=2,
                            alpha=0.3 if variant == "alpha" else None))
        runner = run_classification if task == "classification" \
            else run_retrieval
        want = canonical_json_bytes(report_to_dict(runner(h, labels, spec)))
        calls = []
        original = evaluation._score_block

        def spy(h, class_of, folds, fold, block, *args):
            calls.append((fold, tuple(block)))
            return original(h, class_of, folds, fold, block, *args)

        monkeypatch.setattr(evaluation, "_score_block", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                calls.clear()
                got = runner(h, labels, spec, n_jobs=8)
                assert len(calls) == len(set(calls)) == len(got.cells)
                assert canonical_json_bytes(report_to_dict(got)) == want
        finally:
            sys.setswitchinterval(interval)


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
        # the budget is shared by the workers: each gets ``columns``
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES",
                            8 * h.n_nodes * columns * n_jobs)
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


LAYOUT_CASES = [(task, "propagation", variant)
                for task in ("classification", "retrieval")
                for variant in VARIANTS]
LAYOUT_CASES += [(task, "naive-bayes", "row")
                 for task in ("classification", "retrieval")]


def unit_seeds(h, labels, spec, monkeypatch):
    """Run ``spec`` on one worker and return, per unit, its fold, block,
    and the ``x`` handed to ``propagate`` or the labels handed to
    ``fit_naive_bayes``, each with the keyword arguments of that call."""
    units, current = [], []
    original = evaluation._score_block

    def score(h, class_of, folds, fold, block, *args):
        current[:] = [fold, list(block)]
        return original(h, class_of, folds, fold, block, *args)

    def spy(fn):
        def wrapped(h, x, *args, **kwargs):
            units.append((*current, x, args, kwargs))
            return fn(h, x, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(evaluation, "_score_block", score)
    monkeypatch.setattr(evaluation, "propagate", spy(evaluation.propagate))
    monkeypatch.setattr(evaluation, "fit_naive_bayes",
                        spy(evaluation.fit_naive_bayes))
    runner = run_classification if spec.task == "classification" \
        else run_retrieval
    runner(h, labels, spec)
    return units


def layout_spec(task, method, variant):
    return TaskSpec(task=task, method=method, n_folds=5, top_k=12, seed=4,
                    propagation=PropagationConfig(
                        variant=variant, layers=2,
                        alpha=0.3 if variant == "alpha" else None))


class TestBlockLayout:
    @pytest.mark.parametrize("task,method,variant", LAYOUT_CASES)
    def test_blocks_reach_the_method_row_major(self, monkeypatch, task,
                                               method, variant):
        # a column-major block makes every sparse product copy its operand;
        # a counted row unit reads only x's shape, so it builds no seed and
        # passes a zero-byte read-only view
        h, labels = multiclass_instance()
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * h.n_nodes * 3)
        units = unit_seeds(h, labels, layout_spec(task, method, variant),
                           monkeypatch)
        counted = method == "propagation" and variant in ("row", "alpha")
        for _, block, x, _, kwargs in units:
            assert x.shape == (h.n_nodes, len(block))
            assert (kwargs.get("edge_means") is not None) == counted
            if counted and variant == "row":
                assert x.strides == (0, 0) and not x.flags.writeable
            else:
                assert x.flags.c_contiguous
        assert any(len(block) > 1 for _, block, *_ in units)

    @pytest.mark.parametrize("task,method,variant", [
        case for case in LAYOUT_CASES if case[1:] != ("propagation", "row")])
    def test_seeds_equal_the_comparison_of_class_positions(
            self, monkeypatch, task, method, variant):
        # the seed is set over each class's known (class, fold) groups; the
        # comparison it replaced is the oracle
        h, labels = multiclass_instance()
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * h.n_nodes * 3)
        spec = layout_spec(task, method, variant)
        units = unit_seeds(h, labels, spec, monkeypatch)
        class_of = np.unique(labels, return_inverse=True)[1]
        folds = assign_folds(h.n_nodes, spec.n_folds, spec.seed).folds
        assert units
        for fold, block, x, _, _ in units:
            known = folds == fold if task == "retrieval" else folds != fold
            want = np.where(known, class_of, -1)[:, None] == block
            if method == "propagation":
                assert x.dtype == bool and np.array_equal(x, want)
            elif task == "classification":
                assert np.array_equal(x, np.where(known[:, None], want, -1))
            else:  # as many drawn negatives as ranked rows, off the seed
                assert np.array_equal(x == 1, want)
                assert not (x == 0)[want].any()
                assert ((x == 0).sum(axis=0) == (~known).sum()).all()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_classification_ranks_its_test_fold_in_node_order(
            self, monkeypatch, variant):
        # a slice of the nodes sorted stably by fold, once per run
        h, labels = multiclass_instance()
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * h.n_nodes * 3)
        spec = layout_spec("classification", "propagation", variant)
        units = unit_seeds(h, labels, spec, monkeypatch)
        folds = assign_folds(h.n_nodes, spec.n_folds, spec.seed).folds
        assert {fold for fold, *_ in units} == set(range(spec.n_folds))
        for fold, _, _, _, kwargs in units:
            assert np.array_equal(kwargs["nodes"],
                                  np.flatnonzero(folds == fold))

    @pytest.mark.parametrize("n_jobs,width", [(1, 4), (2, 2), (3, 1), (8, 1)])
    def test_workers_share_the_block_budget(self, monkeypatch, n_jobs, width):
        # every fold ranks at least the 4 common classes in one budget of 4
        h, labels = multiclass_instance()
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * h.n_nodes * 4)
        widths = []
        original = evaluation.propagate

        def spy(h, x, *args, **kwargs):
            widths.append(x.shape[1])
            return original(h, x, *args, **kwargs)

        monkeypatch.setattr(evaluation, "propagate", spy)
        run_retrieval(h, labels, TaskSpec(task="retrieval", n_folds=5,
                                          top_k=12, seed=4), n_jobs=n_jobs)
        assert max(widths) == width

    @pytest.mark.parametrize("task,method", [
        ("classification", "propagation"), ("retrieval", "naive-bayes")])
    def test_each_fold_splits_its_classes_evenly(self, monkeypatch, task,
                                                 method):
        # 10 classes, one of them a single node, which only its own fold
        # scores: one fold ranks 10 classes and the other 9, in the fewest
        # blocks of at most 4, not 4 + 4 + 2 and 4 + 4 + 1
        h = random_hypergraph(400, 80, 1600, seed=0)
        labels = np.random.default_rng(0).integers(0, 9, h.n_nodes)
        labels[0] = 9
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * h.n_nodes * 4)
        blocks = {}
        original = evaluation._score_block

        def spy(h, class_of, folds, fold, block, *args):
            blocks.setdefault(fold, []).append(len(block))
            return original(h, class_of, folds, fold, block, *args)

        monkeypatch.setattr(evaluation, "_score_block", spy)
        runner = run_classification if task == "classification" \
            else run_retrieval
        report = runner(h, labels, TaskSpec(task=task, method=method,
                                            n_folds=2, top_k=10))
        live = [sum(c.fold == fold for c in report.cells) for fold in (0, 1)]
        assert sorted(live) == [9, 10]
        for fold in (0, 1):
            widths = blocks[fold]
            assert sum(widths) == live[fold]
            assert len(widths) == -(-live[fold] // 4)
            assert max(widths) - min(widths) <= 1 and max(widths) <= 4


class TestCountedMemory:
    """The counted first edge averages of ``row`` and ``alpha`` cost each
    unit its own classes' counts, however many classes the run has."""

    @pytest.mark.parametrize("task", ["classification", "retrieval"])
    @pytest.mark.parametrize("variant", ["row", "alpha"])
    def test_peak_does_not_grow_with_classes_times_edges(self, monkeypatch,
                                                         task, variant):
        h = random_hypergraph(2000, 8000, 16000, seed=0)
        n_classes = 100
        labels = np.random.default_rng(0).integers(0, n_classes, h.n_nodes)
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * h.n_nodes * 2)
        spec = TaskSpec(task=task, n_folds=4, top_k=10, propagation=(
            PropagationConfig(variant=variant,
                              alpha=0.3 if variant == "alpha" else None)))
        runner = run_classification if task == "classification" \
            else run_retrieval
        runner(h, labels, spec)  # warm-up
        tracemalloc.start()
        try:
            runner(h, labels, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one class x edge matrix of int64 counts is 6.4 MB here
        assert peak < n_classes * h.n_edges * 8 / 4


class TestRunMemory:
    """A run holds per-node and per-unit arrays, never a label per node
    and class: its peak grows with the block width, not the class count."""

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("task", ["classification", "retrieval"])
    @pytest.mark.parametrize("method,variant", [
        ("propagation", "row"), ("propagation", "symmetric"),
        ("naive-bayes", "row")])
    def test_peak_is_a_fraction_of_a_node_by_class_matrix(
            self, monkeypatch, task, method, variant, n_jobs):
        h = random_hypergraph(4000, 400, 8000, seed=0)
        n_classes = 400
        labels = np.random.default_rng(0).integers(0, n_classes, h.n_nodes)
        monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 8 * h.n_nodes * 4)
        spec = TaskSpec(task=task, method=method, n_folds=2, top_k=10,
                        propagation=PropagationConfig(variant=variant))
        runner = run_classification if task == "classification" \
            else run_retrieval
        runner(h, labels % 2, spec, n_jobs=n_jobs)  # warm-up
        tracemalloc.start()
        try:
            runner(h, labels, spec, n_jobs=n_jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n_nodes x n_classes bool matrix is 1.6 MB here; the workers
        # share the block budget, so two hold no more than one
        assert peak < h.n_nodes * n_classes / 2

    @pytest.mark.parametrize("task,method", [
        ("classification", "propagation"), ("retrieval", "naive-bayes")])
    def test_each_worker_holds_one_column_once_the_share_is_below_one(
            self, monkeypatch, task, method):
        # the budget fits 4 columns, so 8 workers round the width up to 1:
        # past that the budget no longer bounds them, and each worker adds
        # one one-column unit, which peaks under 5 float64 columns
        h = random_hypergraph(4000, 400, 8000, seed=0)
        labels = np.random.default_rng(0).integers(0, 400, h.n_nodes)
        spec = TaskSpec(task=task, method=method, n_folds=2, top_k=10)
        runner = run_classification if task == "classification" \
            else run_retrieval
        widths = set()
        original = evaluation._score_block

        def spy(h, class_of, folds, fold, block, *args):
            widths.add(len(block))
            return original(h, class_of, folds, fold, block, *args)

        monkeypatch.setattr(evaluation, "_score_block", spy)
        peaks = {}
        for n_jobs, columns in ((1, 1), (8, 4)):
            monkeypatch.setattr(evaluation, "_BLOCK_BYTES",
                                8 * h.n_nodes * columns)
            runner(h, labels % 2, spec, n_jobs=n_jobs)  # warm-up
            tracemalloc.start()
            try:
                runner(h, labels, spec, n_jobs=n_jobs)
                peaks[n_jobs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert widths == {1}
        assert peaks[8] - peaks[1] < (8 - 1) * 5 * 8 * h.n_nodes


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
            mp.setattr(evaluation, "_BLOCK_BYTES",
                       8 * h.n_nodes * width * n_jobs)
            got = runner(h, labels, spec, n_jobs=n_jobs)
        want = oracles.per_cell_report(h, labels, spec, n_jobs=n_jobs)
        assert canonical_json_bytes(report_to_dict(got)) == \
            canonical_json_bytes(report_to_dict(want))
