import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hyperprop import DegenerateLabelsError, ShapeError, precision_at_k, roc_auc

import oracles

# few distinct values, signed zeros and infinities: ties everywhere
TIE_HEAVY = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf])


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert roc_auc(np.full(10, 0.3), [1, 0] * 5) == 0.5

    def test_hand_example_with_tie(self):
        # pairs: (.8 > .5), (.8 > .2), (.5 == .5 -> 1/2), (.5 > .2) = 3.5 / 4
        assert roc_auc([0.8, 0.5, 0.5, 0.2], [1, 1, 0, 0]) == 0.875

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=200)
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [0, 1]
        base = roc_auc(scores, labels)
        for transform in (np.exp, np.tanh, lambda s: 3 * s + 7):
            assert roc_auc(transform(scores), labels) == pytest.approx(
                base, abs=1e-12)

    def test_negated_scores_complement(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=300)  # continuous draws, no ties
        labels = rng.integers(0, 2, size=300)
        labels[:2] = [0, 1]
        assert roc_auc(scores, labels) + roc_auc(-scores, labels) == \
            pytest.approx(1.0, abs=1e-12)

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.1, 0.2], [1, 1])
        with pytest.raises(DegenerateLabelsError):
            roc_auc([0.1, 0.2], [0, 0])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            # quantized scores so ties actually occur
            scores = np.round(rng.normal(size=n), 1)
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            assert roc_auc(scores, labels) == pytest.approx(
                oracles.pairwise_auc(scores, labels), abs=1e-12)


class TestRocAucTies:
    """Tie-heavy scores: exact against pairwise enumeration and against
    scipy's average ranks, in 1-D and per column in 2-D."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=st.lists(st.tuples(TIE_HEAVY, st.integers(0, 1)),
                         min_size=2, max_size=30))
    def test_1d(self, rows):
        scores, labels = [r[0] for r in rows], [r[1] for r in rows]
        assume(0 < sum(labels) < len(labels))
        auc = roc_auc(scores, labels)
        assert auc == oracles.pairwise_auc(scores, labels)
        assert auc == oracles.rankdata_auc(scores, labels)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 25), d=st.integers(1, 5))
    def test_2d(self, data, n, d):
        scores = np.array(data.draw(st.lists(TIE_HEAVY, min_size=n * d,
                                             max_size=n * d))).reshape(n, d)
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n * d,
                                             max_size=n * d))).reshape(n, d)
        labels[0], labels[-1] = 0, 1  # both classes in every column
        aucs = roc_auc(scores, labels)
        assert np.array_equal(aucs, oracles.rankdata_auc(scores, labels))
        for j in range(d):
            assert aucs[j] == oracles.pairwise_auc(scores[:, j], labels[:, j])


class TestPrecisionAtK:
    def test_all_positive(self):
        assert precision_at_k(np.arange(100.0), np.ones(100, int), 100) == 1.0

    def test_no_positives(self):
        assert precision_at_k([0.4, 0.2], [0, 0], 2) == 0.0

    def test_tie_broken_by_ascending_index(self):
        # at score 2 the earlier index (label 0) enters the top-2 first
        assert precision_at_k([3, 2, 2, 1], [1, 0, 1, 1], 2) == 0.5

    def test_k_larger_than_set(self):
        assert precision_at_k([3.0, 1.0], [1, 0], 100) == 0.5

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=150)
        labels = rng.integers(0, 2, size=150)
        base = precision_at_k(scores, labels, 20)
        for transform in (np.exp, lambda s: 0.1 * s - 4):
            assert precision_at_k(transform(scores), labels, 20) == base

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            scores = np.round(rng.normal(size=n), 1)
            labels = rng.integers(0, 2, size=n)
            k = int(rng.integers(1, 50))
            assert precision_at_k(scores, labels, k) == pytest.approx(
                oracles.exhaustive_precision_at_k(scores, labels, k),
                abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            precision_at_k([], [], 5)
        with pytest.raises(ValueError):
            precision_at_k([1.0], [1], 0)
        with pytest.raises(ValueError):
            roc_auc([np.nan, 1.0], [1, 0])


class TestPrecisionAtKTies:
    @pytest.mark.parametrize("scores,labels,k", [
        ([2.0] * 7, [0, 1, 1, 0, 1, 0, 0], 3),          # all scores equal
        ([3, 2, 2, 2, 1], [0, 0, 1, 1, 1], 1),          # k above the tie
        ([3, 2, 2, 2, 1], [0, 0, 1, 1, 1], 2),          # k inside the tie
        ([3, 2, 2, 2, 1], [0, 0, 1, 1, 1], 4),          # k at its end
        ([3, 2, 2, 2, 1], [0, 0, 1, 1, 1], 5),          # k == n
        ([3, 2, 2, 2, 1], [0, 0, 1, 1, 1], 9),          # k > n
        ([0.0, -0.0, 0.0, 1.0], [0, 1, 1, 0], 2),       # signed zeros tie
    ])
    def test_examples_match_exhaustive_oracle(self, scores, labels, k):
        assert precision_at_k(scores, labels, k) == \
            oracles.exhaustive_precision_at_k(scores, labels, k)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=st.lists(st.tuples(TIE_HEAVY, st.integers(0, 1)),
                         min_size=1, max_size=30),
           k=st.integers(1, 40))
    def test_matches_exhaustive_oracle(self, rows, k):
        scores, labels = [r[0] for r in rows], [r[1] for r in rows]
        assert precision_at_k(scores, labels, k) == \
            oracles.exhaustive_precision_at_k(scores, labels, k)


class TestColumns:
    """2-D input: one ranking per column, each scored as if alone."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 25), d=st.integers(1, 5))
    def test_each_column_equals_its_single_call(self, data, n, d):
        scores = np.array(data.draw(st.lists(TIE_HEAVY, min_size=n * d,
                                             max_size=n * d))).reshape(n, d)
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n * d,
                                             max_size=n * d))).reshape(n, d)
        labels[0], labels[1] = 0, 1  # both classes in every column
        k = data.draw(st.integers(1, n + 2))
        aucs = roc_auc(scores, labels)
        precisions = precision_at_k(scores, labels, k)
        for j in range(d):
            assert aucs[j] == roc_auc(scores[:, j], labels[:, j])
            assert aucs[j] == pytest.approx(
                oracles.pairwise_auc(scores[:, j], labels[:, j]), abs=1e-12)
            assert precisions[j] == precision_at_k(scores[:, j], labels[:, j], k)

    def test_degenerate_column_raises(self):
        with pytest.raises(DegenerateLabelsError):
            roc_auc([[0.1, 0.5], [0.2, 0.4]], [[0, 1], [1, 1]])

    def test_shapes_must_match(self):
        with pytest.raises(ShapeError):
            roc_auc([[0.1, 0.5], [0.2, 0.4]], [0, 1])
        with pytest.raises(ShapeError):
            precision_at_k(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), 1)
