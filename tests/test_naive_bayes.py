import numpy as np
import pytest

from hyperprop import (MissingClassError, ShapeError, build_hypergraph,
                       fit_naive_bayes, naive_bayes_log_odds)

import oracles
from util import bernoulli_hypergraph

CHAIN_PAIRS = [("u1", "e1"), ("u2", "e1"), ("u2", "e2"), ("u3", "e2")]


@pytest.fixture
def chain():
    h, _ = build_hypergraph(CHAIN_PAIRS)
    return h


class TestFit:
    def test_worked_example_likelihoods(self, chain):
        # train u1 positive, u3 negative, Laplace smoothing 1:
        # p(e1|1) = (1+1)/(1+2) = 2/3, p(e2|1) = 1/3, mirrored for class 0
        model = fit_naive_bayes(chain, [0, 2], [1, 0], smoothing=1.0)
        np.testing.assert_allclose(np.exp(model.feature_log_likelihood[1]),
                                   [2 / 3, 1 / 3])
        np.testing.assert_allclose(np.exp(model.feature_log_likelihood[0]),
                                   [1 / 3, 2 / 3])

    def test_likelihood_rows_and_priors_normalize(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = bernoulli_hypergraph(rng)
            labels = rng.integers(0, 2, size=h.n_nodes)
            labels[:2] = [0, 1]
            model = fit_naive_bayes(h, np.arange(h.n_nodes), labels,
                                    smoothing=rng.uniform(0.1, 3.0))
            np.testing.assert_allclose(
                np.exp(model.feature_log_likelihood).sum(axis=1), 1.0)
            np.testing.assert_allclose(np.exp(model.class_log_prior).sum(), 1.0)

    def test_zero_smoothing_concentrates_mass(self, chain):
        # one positive node incident to e1 only: all class-1 mass on e1
        model = fit_naive_bayes(chain, [0, 2], [1, 0], smoothing=0.0)
        np.testing.assert_allclose(np.exp(model.feature_log_likelihood[1]),
                                   [1.0, 0.0])

    def test_mirror_symmetric_classes(self):
        # class 1 lives in edge A, class 0 in edge B, fully symmetric
        h, maps = build_hypergraph(
            [("p1", "A"), ("p2", "A"), ("n1", "B"), ("n2", "B")])
        model = fit_naive_bayes(h, np.arange(4), [1, 1, 0, 0])
        a, b = maps.edge_ids.index_of("A"), maps.edge_ids.index_of("B")
        swap = np.array([b, a]) if a == 0 else np.array([a, b])
        np.testing.assert_allclose(model.feature_log_likelihood[1],
                                   model.feature_log_likelihood[0][swap])

    def test_missing_class(self, chain):
        with pytest.raises(MissingClassError):
            fit_naive_bayes(chain, [0, 1], [1, 1])
        with pytest.raises(MissingClassError):
            fit_naive_bayes(chain, [], [])


class TestScore:
    def test_worked_example_score(self, chain):
        model = fit_naive_bayes(chain, [0, 2], [1, 0], smoothing=1.0)
        scores = naive_bayes_log_odds(model, chain)
        # u2 touches both edges whose likelihood ratios cancel exactly
        np.testing.assert_allclose(scores[1], 0.0, atol=1e-15)
        expected = oracles.count_bayes_log_odds(chain, [0, 2], [1, 0], 1.0,
                                                nodes=range(3))
        np.testing.assert_allclose(scores, expected, atol=1e-12)

    def test_isolated_node_scores_prior_log_odds(self):
        h, _ = build_hypergraph(CHAIN_PAIRS,
                                node_universe=["u1", "u2", "u3", "iso"])
        model = fit_naive_bayes(h, [0, 2, 2], [1, 0, 0])
        prior = model.class_log_prior[1] - model.class_log_prior[0]
        assert prior != 0.0
        np.testing.assert_allclose(naive_bayes_log_odds(model, h, [3]),
                                   [prior])

    def test_uninformative_features_reduce_to_prior(self):
        # every edge equally frequent in both classes, no smoothing
        h, _ = build_hypergraph(
            [("p1", "e1"), ("n1", "e1"), ("p2", "e2"), ("n2", "e2")])
        model = fit_naive_bayes(h, np.arange(4), [1, 0, 1, 0], smoothing=0.0)
        scores = naive_bayes_log_odds(model, h)
        prior = model.class_log_prior[1] - model.class_log_prior[0]
        np.testing.assert_allclose(scores, prior)

    def test_informative_edge_strictly_increases_score(self):
        pairs = CHAIN_PAIRS + [("u4", "e3"), ("u1", "e3")]
        h1, _ = build_hypergraph(pairs)
        model = fit_naive_bayes(h1, [0, 2], [1, 0], smoothing=1.0)
        ratio = (model.feature_log_likelihood[1]
                 - model.feature_log_likelihood[0])
        assert ratio[0] > 0  # e1 is positive evidence
        # the same node with e1 added to its incident set must score higher
        h2, _ = build_hypergraph(pairs + [("u4", "e1")])
        before = naive_bayes_log_odds(model, h1, [3])[0]
        after = naive_bayes_log_odds(model, h2, [3])[0]
        assert after > before
        np.testing.assert_allclose(after - before, ratio[0], atol=1e-12)

    def test_edge_relabeling_leaves_scores_unchanged(self):
        rng = np.random.default_rng(1)
        pairs = [(f"n{i}", f"e{j}") for i in range(15) for j in range(8)
                 if rng.random() < 0.35]
        universe = sorted({p[0] for p in pairs})
        h1, _ = build_hypergraph(pairs, node_universe=universe)
        shuffled = list(pairs)
        rng.shuffle(shuffled)  # permutes edge index assignment
        h2, _ = build_hypergraph(shuffled, node_universe=universe)
        train = np.arange(len(universe))
        labels = rng.integers(0, 2, size=train.size)
        labels[:2] = [0, 1]
        s1 = naive_bayes_log_odds(fit_naive_bayes(h1, train, labels), h1)
        s2 = naive_bayes_log_odds(fit_naive_bayes(h2, train, labels), h2)
        np.testing.assert_allclose(s1, s2, atol=1e-12)

    def test_universe_mismatch(self, chain):
        other, _ = build_hypergraph([("a", "x")])
        model = fit_naive_bayes(chain, [0, 2], [1, 0])
        with pytest.raises(ShapeError):
            naive_bayes_log_odds(model, other)

    def test_matches_count_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            h = bernoulli_hypergraph(rng, max_nodes=25, max_edges=12)
            size = int(rng.integers(2, h.n_nodes + 1))
            train = rng.choice(h.n_nodes, size=size, replace=False)
            labels = rng.integers(0, 2, size=size)
            labels[:2] = [0, 1]
            smoothing = float(rng.uniform(0.2, 2.5))
            model = fit_naive_bayes(h, train, labels, smoothing)
            got = naive_bayes_log_odds(model, h)
            want = oracles.count_bayes_log_odds(h, train, labels, smoothing,
                                                nodes=range(h.n_nodes))
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestBatch:
    """A 2-D label matrix fits one model per column; -1 leaves a node out."""

    def test_each_column_equals_its_own_fit(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            h = bernoulli_hypergraph(rng, max_nodes=40, max_edges=15)
            nodes = np.arange(h.n_nodes)
            d = int(rng.integers(1, 5))
            labels = rng.integers(-1, 2, size=(h.n_nodes, d))
            labels[:2] = [[0], [1]]
            smoothing = float(rng.uniform(0.0, 2.0))
            batch = fit_naive_bayes(h, nodes, labels, smoothing)
            scores = naive_bayes_log_odds(batch, h, nodes[::2])
            assert scores.shape == (nodes[::2].size, d)
            for j in range(d):
                keep = labels[:, j] >= 0
                alone = fit_naive_bayes(h, nodes[keep], labels[keep, j],
                                        smoothing)
                assert np.array_equal(batch.feature_log_likelihood[..., j],
                                      alone.feature_log_likelihood)
                assert np.array_equal(batch.class_log_prior[:, j],
                                      alone.class_log_prior)
                assert np.array_equal(
                    scores[:, j], naive_bayes_log_odds(alone, h, nodes[::2]))

    def test_missing_class_in_any_column(self, chain):
        with pytest.raises(MissingClassError):
            fit_naive_bayes(chain, [0, 1, 2], [[1, 1], [0, -1], [0, -1]])

    def test_label_values_checked(self, chain):
        with pytest.raises(ValueError):
            fit_naive_bayes(chain, [0, 2], [1, -1])      # -1 only in 2-D
        with pytest.raises(ValueError):
            fit_naive_bayes(chain, [0, 2], [1, 0.5])     # not truncated to 0
        with pytest.raises(ShapeError):
            fit_naive_bayes(chain, [0, 2], [[1], [0], [1]])
