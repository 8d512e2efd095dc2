"""Unit tests for the CART decision trees."""

import numpy as np
import pytest

from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, NodeTable


class TestDecisionTreeRegressor:
    def test_fits_constant_target_with_single_leaf(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.full(20, 3.5)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.get_n_nodes() == 1
        assert np.allclose(tree.predict(X), 3.5)

    def test_learns_a_step_function_exactly(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = np.where(X[:, 0] < 0.5, 1.0, 5.0)
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert np.allclose(tree.predict(X), y)

    def test_predictions_within_target_range(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=8).fit(X, y)
        predictions = tree.predict(X)
        assert predictions.min() >= y.min() - 1e-9
        assert predictions.max() <= y.max() + 1e-9

    def test_deeper_tree_fits_training_data_better(self, regression_data):
        X, y = regression_data
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=10).fit(X, y)
        err_shallow = np.mean((shallow.predict(X) - y) ** 2)
        err_deep = np.mean((deep.predict(X) - y) ** 2)
        assert err_deep < err_shallow

    def test_max_depth_is_respected(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert tree.get_depth() <= 3

    def test_min_samples_leaf_is_respected(self):
        X = np.arange(50, dtype=float).reshape(-1, 1)
        y = X[:, 0] ** 2
        tree = DecisionTreeRegressor(min_samples_leaf=10).fit(X, y)
        leaves = tree.nodes_.feature < 0
        assert leaves.sum() > 1
        assert np.all(tree.nodes_.n_samples[leaves] >= 10)

    def test_feature_importances_sum_to_one(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert tree.feature_importances_ is not None
        assert tree.feature_importances_.shape == (X.shape[1],)
        assert np.isclose(tree.feature_importances_.sum(), 1.0)

    def test_informative_feature_ranked_first(self):
        generator = np.random.default_rng(3)
        X = generator.normal(size=(300, 4))
        y = 10.0 * X[:, 2] + 0.01 * generator.normal(size=300)
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert int(np.argmax(tree.feature_importances_)) == 2

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((1, 3)))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((5, 2)), np.zeros(4))

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_one_dimensional_x_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros(5), np.zeros(5))

    def test_single_row_prediction_shape(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        single = tree.predict(X[0])
        assert single.shape == (1,)


class TestDecisionTreeClassifier:
    def test_learns_separable_classes(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=8).fit(X, y)
        accuracy = np.mean(tree.predict(X) == y)
        assert accuracy > 0.95

    def test_predicted_labels_come_from_training_labels(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert set(tree.predict(X)) <= set(y)

    def test_probabilities_sum_to_one(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        proba = tree.predict_proba(X[:25])
        assert proba.shape == (25, len(np.unique(y)))
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_pure_node_stops_splitting(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array(["a"] * 10)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.get_n_nodes() == 1

    def test_integer_labels_supported(self):
        X = np.linspace(0, 1, 60).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(int)
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert np.array_equal(tree.predict(X), y)

    def test_feature_importances_nonnegative(self, classification_data):
        X, y = classification_data
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert np.all(tree.feature_importances_ >= 0)
        assert np.isclose(tree.feature_importances_.sum(), 1.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))


def _table(feature, threshold, left, right, value):
    n = len(feature)
    return NodeTable.from_columns({
        "feature": feature, "threshold": threshold, "left": left, "right": right,
        "value": value, "n_samples": [1] * n, "impurity": [0.0] * n,
    })


class TestNodeTable:
    def test_single_leaf(self):
        table = _table([-1], [0.0], [-1], [-1], [1.0])
        assert len(table) == 1
        assert table.depths().tolist() == [0]

    def test_internal_node_depths(self):
        table = _table([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, 1.0, 2.0])
        assert len(table) == 3
        assert table.depths().tolist() == [0, 1, 1]

    def test_columns_round_trip(self, regression_data):
        X, y = regression_data
        tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
        columns = tree.nodes_.to_columns()
        again = NodeTable.from_columns(columns)
        assert again.to_columns() == columns
        assert all(type(v) is int for v in columns["feature"] + columns["left"])

    def test_preorder_children_follow_parents(self, regression_data):
        X, y = regression_data
        nodes = DecisionTreeRegressor(max_depth=6).fit(X, y).nodes_
        internal = np.flatnonzero(nodes.feature >= 0)
        assert np.all(nodes.left[internal] == internal + 1)
        assert np.all(nodes.right[internal] > nodes.left[internal])
        leaves = nodes.feature < 0
        assert np.all(nodes.left[leaves] == -1) and np.all(nodes.right[leaves] == -1)
