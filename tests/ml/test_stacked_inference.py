"""Stacked node-table inference against the per-row traversal it replaced.

A forest predicts by walking one stacked node table for every (row, tree)
pair at once (:class:`repro.ml.tree.StackedTrees`).  The oracle here is the
per-row, per-tree traversal the trees used before -- kept test-only -- plus
the tree-order accumulation of the old forest loops.  Every comparison is
bit-for-bit: a prediction must not depend on how the rows were batched.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.estimators import ALL_METRICS, IPUDPMLEstimator
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import NodeTable, StackedTrees

FIXTURE = Path(__file__).parent / "data" / "ipudp_estimator_v1.json"


def traverse(table: NodeTable, row: np.ndarray) -> int:
    """The per-row oracle: follow ``x[feature] <= threshold`` to a leaf."""
    node = 0
    while table.feature[node] >= 0:
        go_left = row[table.feature[node]] <= table.threshold[node]
        node = table.left[node] if go_left else table.right[node]
    return node


def oracle_regression(forest: RandomForestRegressor, X: np.ndarray) -> np.ndarray:
    out = []
    for row in X:
        total = 0.0
        for i, tree in enumerate(forest.estimators_):
            value = tree.nodes_.value[traverse(tree.nodes_, row)]
            total = value if i == 0 else total + value
        out.append(total / len(forest.estimators_))
    return np.array(out)


def oracle_proba(forest: RandomForestClassifier, X: np.ndarray) -> np.ndarray:
    position = {c: i for i, c in enumerate(forest.classes_)}
    proba = np.zeros((len(X), len(forest.classes_)))
    for r, row in enumerate(X):
        for tree in forest.estimators_:
            leaf = tree.nodes_.value[traverse(tree.nodes_, row)]
            for j, cls in enumerate(tree.classes_):
                proba[r, position[cls]] += leaf[j]
    return proba / len(forest.estimators_)


@pytest.fixture(scope="module")
def default_forests():
    """One regressor and one classifier at the estimator defaults (30 trees,
    depth 12, min_samples_leaf 2, sqrt features), on 14 IP/UDP-shaped columns."""
    rng = np.random.default_rng(12)
    X = rng.uniform(0.0, 1500.0, size=(500, 14))
    X[:, 4] = np.round(X[:, 4] / 50.0)  # ties: many rows sit exactly on thresholds
    estimator = IPUDPMLEstimator()
    regressor = estimator._make_regressor().fit(X, X[:, 0] * 0.02 + rng.normal(0.0, 3.0, 500))
    labels = np.where(X[:, 1] + rng.normal(0.0, 200.0, 500) > 750.0, "high", "low")
    labels[rng.random(500) < 0.1] = "medium"
    classifier = estimator._make_classifier().fit(X, labels)
    return X, regressor, classifier


def probe_rows(forest, rng, n_random: int) -> np.ndarray:
    """Random rows, rows sitting exactly on every split threshold, and rows
    carrying NaN / +inf / -inf."""
    rows = [rng.uniform(0.0, 1500.0, 14) for _ in range(n_random)]
    for tree in forest.estimators_[:6]:
        internal = np.flatnonzero(tree.nodes_.feature >= 0)
        for node in internal[:: max(1, len(internal) // 12)]:
            row = rng.uniform(0.0, 1500.0, 14)
            row[tree.nodes_.feature[node]] = tree.nodes_.threshold[node]
            rows.append(row)
    for bad in (np.nan, np.inf, -np.inf):
        rows.append(np.full(14, bad))
        row = rng.uniform(0.0, 1500.0, 14)
        row[rng.random(14) < 0.5] = bad
        rows.append(row)
    return np.vstack(rows)


class TestStackedEqualsTraversal:
    def test_regressor_at_defaults(self, default_forests):
        _, regressor, _ = default_forests
        assert regressor.estimators_[0].get_depth() > 6
        X = probe_rows(regressor, np.random.default_rng(1), 40)
        np.testing.assert_array_equal(regressor.predict(X), oracle_regression(regressor, X))

    def test_classifier_at_defaults(self, default_forests):
        _, _, classifier = default_forests
        X = probe_rows(classifier, np.random.default_rng(2), 40)
        expected = oracle_proba(classifier, X)
        np.testing.assert_array_equal(classifier.predict_proba(X), expected)
        assert np.array_equal(
            classifier.predict(X), classifier.classes_[np.argmax(expected, axis=1)]
        )

    def test_single_tree_leaves(self, default_forests):
        X, regressor, _ = default_forests
        tree = regressor.estimators_[3]
        leaves = tree.apply(X[:64])
        assert leaves.tolist() == [traverse(tree.nodes_, row) for row in X[:64]]

    @pytest.mark.parametrize("batch", [1, 7, 4096])
    def test_batch_size_does_not_move_a_prediction(self, default_forests, batch):
        _, regressor, classifier = default_forests
        rng = np.random.default_rng(batch)
        X = rng.uniform(0.0, 1500.0, size=(4096, 14))
        X[::5, 4] = np.nan
        X[::7, 2] = np.inf
        whole_reg = regressor.predict(X)
        whole_cls = classifier.predict_proba(X)
        for lo in range(0, len(X), max(batch, 512)):
            part = X[lo : lo + batch]
            np.testing.assert_array_equal(regressor.predict(part), whole_reg[lo : lo + batch])
            np.testing.assert_array_equal(classifier.predict_proba(part), whole_cls[lo : lo + batch])
        single = X[:3]
        for i in range(3):
            np.testing.assert_array_equal(regressor.predict(single[i]), whole_reg[i : i + 1])

    def test_stack_of_mixed_depths(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 3))
        forest = RandomForestRegressor(n_estimators=5, max_depth=None, random_state=4)
        forest.fit(X, np.where(X[:, 0] > 0, 1.0, 0.0) + 0.01 * rng.normal(size=200))
        stack = StackedTrees.of([tree.nodes_ for tree in forest.estimators_])
        assert stack.depth == max(tree.get_depth() for tree in forest.estimators_)
        assert stack.roots.tolist() == np.cumsum(
            [0] + [tree.get_n_nodes() for tree in forest.estimators_[:-1]]
        ).tolist()
        leaves = stack.apply(X)
        for t, tree in enumerate(forest.estimators_):
            assert (leaves[:, t] - stack.roots[t]).tolist() == [traverse(tree.nodes_, x) for x in X]

    def test_constant_target_single_leaf_forest(self):
        X = np.arange(30, dtype=float).reshape(-1, 1)
        forest = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, np.full(30, 2.5))
        assert all(tree.get_n_nodes() == 1 for tree in forest.estimators_)
        np.testing.assert_array_equal(forest.predict(X), np.full(30, 2.5))


class TestSavedModels:
    """A model saved before the node-table rewrite loads and predicts bit-identically."""

    @pytest.fixture(scope="class")
    def saved(self):
        return json.loads(FIXTURE.read_text())

    def test_loads_and_reproduces_saved_predictions(self, saved):
        estimator = IPUDPMLEstimator.from_dict(saved["model"])
        X = np.array(saved["rows"], dtype=float)
        assert np.isnan(X).any() and np.isinf(X).any()
        for metric in ("frame_rate", "bitrate", "frame_jitter"):
            np.testing.assert_array_equal(
                estimator.predict_metric(X, metric), np.array(saved["expected"][metric])
            )
            np.testing.assert_array_equal(
                estimator.regressors_[metric].predict(X), np.array(saved["expected_raw"][metric])
            )
        assert estimator.predict_metric(X, "resolution").tolist() == saved["expected"]["resolution"]
        np.testing.assert_array_equal(
            estimator.classifier_.predict_proba(X), np.array(saved["expected"]["resolution_proba"])
        )

    def test_saves_back_to_the_same_document(self, saved):
        estimator = IPUDPMLEstimator.from_dict(saved["model"])
        assert json.dumps(estimator.to_dict()) == json.dumps(saved["model"])

    def test_refitting_the_recipe_grows_the_saved_trees(self, saved):
        """Growing into node columns (and encoding class labels once per fit)
        reproduces, split for split, the trees the old TreeNode grower saved."""
        rng = np.random.default_rng([2023, 12])
        X = rng.uniform(0.0, 1500.0, size=(120, 14))
        estimator = IPUDPMLEstimator(n_estimators=3, max_depth=4, random_state=5)
        estimator.fit(X, {
            "frame_rate": rng.uniform(5.0, 30.0, 120),
            "bitrate": rng.uniform(100.0, 2000.0, 120),
            "frame_jitter": rng.uniform(0.0, 50.0, 120),
            "resolution": rng.choice(["low", "medium", "high"], 120),
        })
        assert json.dumps(estimator.to_dict()) == json.dumps(saved["model"])

    def test_every_metric_is_present(self, saved):
        estimator = IPUDPMLEstimator.from_dict(saved["model"])
        assert set(estimator.regressors_) | {"resolution"} == set(ALL_METRICS)


class TestEstimatorWalk:
    """An estimator predicts all of its forests from one stacked walk."""

    def test_rows_equal_per_metric_prediction(self):
        saved = json.loads(FIXTURE.read_text())
        estimator = IPUDPMLEstimator.from_dict(saved["model"])
        X = np.array(saved["rows"], dtype=float)
        rows = estimator.predict_rows(X, range(len(X)))
        np.testing.assert_array_equal([r.frame_rate for r in rows], estimator.predict_metric(X, "frame_rate"))
        np.testing.assert_array_equal([r.bitrate_kbps for r in rows], estimator.predict_metric(X, "bitrate"))
        np.testing.assert_array_equal(
            [r.frame_jitter_ms for r in rows], estimator.predict_metric(X, "frame_jitter")
        )
        assert [r.resolution for r in rows] == saved["expected"]["resolution"]
        assert estimator._stack.stack.roots.size == 4 * 3  # four forests, one table

    def test_refit_forest_is_restacked(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0.0, 1500.0, size=(60, 14))
        estimator = IPUDPMLEstimator(n_estimators=3, max_depth=3)
        estimator.fit(X, {"frame_rate": rng.uniform(5, 30, 60)})
        first = [row.frame_rate for row in estimator.predict_rows(X, range(60))]
        estimator.fit(X, {"frame_rate": rng.uniform(100, 300, 60), "resolution": rng.choice(["a", "b"], 60)})
        rows = estimator.predict_rows(X, range(60))
        assert [row.frame_rate for row in rows] != first
        expected = estimator.predict_metric(X, "frame_rate")
        np.testing.assert_array_equal([row.frame_rate for row in rows], expected)
        assert [row.resolution for row in rows] == estimator.predict_metric(X, "resolution").tolist()


def test_rows_too_short_for_the_splits_are_refused(default_forests):
    X, regressor, classifier = default_forests
    for predict in (regressor.predict, classifier.predict_proba, regressor.estimators_[0].predict):
        with pytest.raises(ValueError, match="features"):
            predict(X[:4, :2])
