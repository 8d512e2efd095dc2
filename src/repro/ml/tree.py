"""CART decision trees for regression and classification.

The trees are grown greedily by recursive binary splitting.  Regression trees
minimise within-node variance (equivalently, squared error); classification
trees minimise Gini impurity.  Both expose impurity-decrease feature
importances, which is what the paper reports in its feature-importance plots
(Figures 5, 7, 9 and A.4-A.9).

A fitted tree has exactly one representation, a :class:`NodeTable`: parallel
node columns in preorder.  Growing writes straight into it, persistence is
its column lists (``to_dict()["nodes"]``), and prediction walks it with NumPy
gathers -- one level of every (row, tree) pair at a time, for one tree or for
a whole forest stacked by :class:`StackedTrees`.

The implementation favours clarity over raw speed but is vectorised enough
(numpy argsort + cumulative statistics per feature) to train on tens of
thousands of one-second windows in a few seconds, which is the scale of the
paper's datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecisionTreeRegressor",
    "DecisionTreeClassifier",
    "NodeTable",
    "StackedTrees",
]


@dataclass(frozen=True, eq=False)
class NodeTable:
    """A fitted CART tree as parallel node columns, in preorder (root = 0).

    Internal nodes route samples with ``x[feature] <= threshold`` to
    ``left``, everything else -- NaN included -- to ``right``.  Leaves have
    ``feature``, ``left`` and ``right`` set to ``-1``.  ``value`` holds every
    node's prediction: the mean target (shape ``(n_nodes,)``) for regression,
    a class-probability row over the tree's own classes (shape
    ``(n_nodes, n_classes)``) for classification.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    impurity: np.ndarray

    def __len__(self) -> int:
        return len(self.feature)

    @classmethod
    def from_columns(cls, columns: dict[str, list]) -> "NodeTable":
        """Adopt the persisted column lists (``to_dict()["nodes"]``) as arrays."""
        return cls(
            feature=np.asarray(columns["feature"], dtype=np.int64),
            threshold=np.asarray(columns["threshold"], dtype=np.float64),
            left=np.asarray(columns["left"], dtype=np.int64),
            right=np.asarray(columns["right"], dtype=np.int64),
            value=np.asarray(columns["value"], dtype=np.float64),
            n_samples=np.asarray(columns["n_samples"], dtype=np.int64),
            impurity=np.asarray(columns["impurity"], dtype=np.float64),
        )

    def to_columns(self) -> dict[str, list]:
        """The JSON-ready column lists (floats survive ``repr`` round trips)."""
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "n_samples": self.n_samples.tolist(),
            "impurity": self.impurity.tolist(),
        }

    def depths(self) -> np.ndarray:
        """Depth of every node (root 0); preorder puts parents before children."""
        depth = np.zeros(len(self), dtype=np.int64)
        for node in np.flatnonzero(self.feature >= 0).tolist():
            depth[self.left[node]] = depth[self.right[node]] = depth[node] + 1
        return depth


@dataclass(frozen=True, eq=False)
class StackedTrees:
    """Several trees' node tables concatenated into one, walked together.

    Node indices are global (tree *t*'s nodes start at ``roots[t]``), leaves
    loop to themselves and read feature 0, so every (row, tree) pair can take
    exactly ``depth`` steps in lockstep: a pair that reached its leaf early
    stays there.  :meth:`apply` returns the global leaf index per pair, the
    caller gathers whatever each leaf carries.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    roots: np.ndarray
    depth: int
    #: Columns a row needs: one past the highest feature any split reads.
    n_features: int

    @classmethod
    def of(cls, tables: list[NodeTable]) -> "StackedTrees":
        sizes = [len(table) for table in tables]
        roots = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)
        feature = np.concatenate([table.feature for table in tables]).astype(np.intp)
        leaf = feature < 0
        own = np.arange(len(feature), dtype=np.intp)
        offsets = np.repeat(roots, sizes)
        left = np.concatenate([table.left for table in tables]).astype(np.intp) + offsets
        right = np.concatenate([table.right for table in tables]).astype(np.intp) + offsets
        return cls(
            feature=np.where(leaf, 0, feature),
            threshold=np.concatenate([table.threshold for table in tables]),
            left=np.where(leaf, own, left),
            right=np.where(leaf, own, right),
            roots=roots,
            depth=max(int(table.depths().max()) for table in tables),
            n_features=int(feature.max()) + 1,
        )

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Global leaf index reached by every row of ``X`` in every tree.

        Shape ``(n_rows, n_trees)``.  Each step compares ``x[feature] <=
        threshold`` exactly as a per-row traversal does, so the leaf -- and
        hence every prediction -- is the same, whatever the batch.
        """
        n_rows, n_features = X.shape
        if n_features < self.n_features:
            # A short row would silently read its neighbour's columns.
            raise ValueError(f"X has {n_features} features, the trees split on {self.n_features}")
        flat = np.ascontiguousarray(X, dtype=np.float64).ravel()
        n_trees = len(self.roots)
        node = np.tile(self.roots, n_rows)
        base = np.repeat(np.arange(n_rows, dtype=np.intp) * n_features, n_trees)
        feature, threshold, left, right = self.feature, self.threshold, self.left, self.right
        for _ in range(self.depth):
            go_left = flat[base + feature[node]] <= threshold[node]
            node = np.where(go_left, left[node], right[node])
        return node.reshape(n_rows, n_trees)


@dataclass
class _Split:
    """Best split found for one node."""

    feature: int
    threshold: float
    gain: float


class _BaseDecisionTree:
    """Shared machinery for regression and classification trees."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.nodes_: NodeTable | None = None
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None
        self._stack: StackedTrees | None = None

    # -- subclass hooks ----------------------------------------------------

    def _node_impurity(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def _leaf_value(self, y: np.ndarray):
        raise NotImplementedError

    def _best_split_for_feature(
        self, x: np.ndarray, y: np.ndarray, parent_impurity: float
    ) -> tuple[float, float] | None:
        raise NotImplementedError

    # -- public API --------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BaseDecisionTree":
        """Grow the tree on ``X`` (``n_samples x n_features``) and targets ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError(
                f"X and y have inconsistent lengths: {len(X)} vs {len(y)}"
            )
        if len(X) == 0:
            raise ValueError("cannot fit a decision tree on an empty dataset")
        self.n_features_ = X.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        y = self._prepare_targets(y)
        importances = np.zeros(self.n_features_)
        columns: dict[str, list] = {name: [] for name in _COLUMNS}
        self._grow(X, y, 0, importances, columns)
        self.nodes_ = NodeTable.from_columns(columns)
        self._stack = None
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else np.zeros(self.n_features_)
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Index (into :attr:`nodes_`) of the leaf each row of ``X`` reaches."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if self._stack is None:
            assert self.nodes_ is not None
            self._stack = StackedTrees.of([self.nodes_])
        return self._stack.apply(X)[:, 0]

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the fitted tree.

        The node table's columns in preorder (``-1`` marks "no child" /
        "leaf").  Floats survive the JSON round trip bit-identically
        (``repr`` shortest-round-trip), so a reloaded tree predicts exactly
        what the original did.
        """
        self._check_fitted()
        assert self.nodes_ is not None
        return {
            "params": {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features,
                "random_state": self.random_state,
            },
            "n_features": self.n_features_,
            "feature_importances": [float(v) for v in self.feature_importances_],
            "nodes": self.nodes_.to_columns(),
            **self._extra_to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "_BaseDecisionTree":
        """Inverse of :meth:`to_dict`."""
        tree = cls(**data["params"])
        tree._extra_from_dict(data)
        tree.n_features_ = int(data["n_features"])
        tree.feature_importances_ = np.asarray(data["feature_importances"], dtype=float)
        tree.nodes_ = NodeTable.from_columns(data["nodes"])
        return tree

    def _extra_to_dict(self) -> dict:
        """Additional serialized state (subclass hook)."""
        return {}

    def _extra_from_dict(self, data: dict) -> None:
        pass

    def get_depth(self) -> int:
        self._check_fitted()
        assert self.nodes_ is not None
        return int(self.nodes_.depths().max())

    def get_n_nodes(self) -> int:
        self._check_fitted()
        assert self.nodes_ is not None
        return len(self.nodes_)

    # -- internals ---------------------------------------------------------

    def _prepare_targets(self, y: np.ndarray) -> np.ndarray:
        """Hook: inspect the targets before fitting; returns what to grow on."""
        return y

    def _check_fitted(self) -> None:
        if self.nodes_ is None:
            raise RuntimeError(
                f"{type(self).__name__} instance is not fitted; call fit() first"
            )

    def _n_candidate_features(self) -> int:
        max_features = self.max_features
        if max_features is None:
            return self.n_features_
        if isinstance(max_features, str):
            if max_features == "sqrt":
                return max(1, int(np.sqrt(self.n_features_)))
            if max_features == "log2":
                return max(1, int(np.log2(self.n_features_)))
            raise ValueError(f"unknown max_features string: {max_features!r}")
        if isinstance(max_features, float):
            return max(1, int(round(max_features * self.n_features_)))
        return max(1, min(int(max_features), self.n_features_))

    def _candidate_features(self) -> np.ndarray:
        n_candidates = self._n_candidate_features()
        if n_candidates >= self.n_features_:
            return np.arange(self.n_features_)
        return self._rng.choice(self.n_features_, size=n_candidates, replace=False)

    def _grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        depth: int,
        importances: np.ndarray,
        columns: dict[str, list],
    ) -> int:
        """Append the subtree for ``(X, y)`` to ``columns`` in preorder; returns its root."""
        index = len(columns["feature"])
        impurity = self._node_impurity(y)
        columns["feature"].append(-1)
        columns["threshold"].append(0.0)
        columns["left"].append(-1)
        columns["right"].append(-1)
        columns["value"].append(self._leaf_value(y))
        columns["n_samples"].append(len(y))
        columns["impurity"].append(impurity)
        if self._should_stop(y, depth, impurity):
            return index

        split = self._find_best_split(X, y, impurity)
        if split is None:
            return index

        left_mask = X[:, split.feature] <= split.threshold
        right_mask = ~left_mask
        if left_mask.sum() < self.min_samples_leaf or right_mask.sum() < self.min_samples_leaf:
            return index

        importances[split.feature] += split.gain * len(y)
        columns["feature"][index] = split.feature
        columns["threshold"][index] = split.threshold
        columns["left"][index] = self._grow(X[left_mask], y[left_mask], depth + 1, importances, columns)
        columns["right"][index] = self._grow(X[right_mask], y[right_mask], depth + 1, importances, columns)
        return index

    def _should_stop(self, y: np.ndarray, depth: int, impurity: float) -> bool:
        if len(y) < self.min_samples_split:
            return True
        if self.max_depth is not None and depth >= self.max_depth:
            return True
        if impurity <= 1e-12:
            return True
        return False

    def _find_best_split(
        self, X: np.ndarray, y: np.ndarray, parent_impurity: float
    ) -> _Split | None:
        best: _Split | None = None
        for feature in self._candidate_features():
            result = self._best_split_for_feature(X[:, feature], y, parent_impurity)
            if result is None:
                continue
            threshold, gain = result
            if best is None or gain > best.gain:
                best = _Split(feature=int(feature), threshold=float(threshold), gain=gain)
        if best is None or best.gain <= 0:
            return None
        return best

    @staticmethod
    def _split_points(values: np.ndarray) -> np.ndarray:
        """Indices ``i`` such that splitting between ``values[i-1]`` and ``values[i]``
        is meaningful (the sorted feature value actually changes)."""
        return np.nonzero(np.diff(values) > 0)[0] + 1


#: The node columns, in their persisted order.
_COLUMNS = ("feature", "threshold", "left", "right", "value", "n_samples", "impurity")


class DecisionTreeRegressor(_BaseDecisionTree):
    """CART regression tree minimising within-node variance.

    Parameters mirror the scikit-learn estimator of the same name; only the
    subset needed by the reproduction is implemented.
    """

    def _node_impurity(self, y: np.ndarray) -> float:
        return float(np.var(y)) if len(y) else 0.0

    def _leaf_value(self, y: np.ndarray) -> float:
        return float(np.mean(y))

    def _best_split_for_feature(
        self, x: np.ndarray, y: np.ndarray, parent_impurity: float
    ) -> tuple[float, float] | None:
        order = np.argsort(x, kind="mergesort")
        x_sorted = x[order]
        y_sorted = y[order].astype(float)
        n = len(y_sorted)
        split_idx = self._split_points(x_sorted)
        if len(split_idx) == 0:
            return None

        # Cumulative sums let us evaluate the variance reduction of every
        # split position in O(n) after sorting.
        csum = np.cumsum(y_sorted)
        csum_sq = np.cumsum(y_sorted**2)
        total_sum = csum[-1]
        total_sq = csum_sq[-1]

        n_left = split_idx.astype(float)
        n_right = n - n_left
        sum_left = csum[split_idx - 1]
        sq_left = csum_sq[split_idx - 1]
        sum_right = total_sum - sum_left
        sq_right = total_sq - sq_left

        var_left = sq_left / n_left - (sum_left / n_left) ** 2
        var_right = sq_right / n_right - (sum_right / n_right) ** 2
        weighted = (n_left * var_left + n_right * var_right) / n
        gains = parent_impurity - weighted

        valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
        if not valid.any():
            return None
        gains = np.where(valid, gains, -np.inf)
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]) or gains[best] <= 0:
            return None
        i = split_idx[best]
        threshold = 0.5 * (x_sorted[i - 1] + x_sorted[i])
        return float(threshold), float(gains[best])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict continuous targets for each row of ``X``."""
        leaves = self.apply(X)
        assert self.nodes_ is not None
        return self.nodes_.value[leaves]


class DecisionTreeClassifier(_BaseDecisionTree):
    """CART classification tree minimising Gini impurity."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.classes_: np.ndarray | None = None

    def _prepare_targets(self, y: np.ndarray) -> np.ndarray:
        # Grow on class indices (into the sorted classes_), encoded once
        # here rather than at every node and candidate feature.
        self.classes_, codes = np.unique(y, return_inverse=True)
        return codes

    def _extra_to_dict(self) -> dict:
        assert self.classes_ is not None
        return {"classes": [c.item() if hasattr(c, "item") else c for c in self.classes_]}

    def _extra_from_dict(self, data: dict) -> None:
        self.classes_ = np.array(data["classes"])

    def _node_impurity(self, y: np.ndarray) -> float:
        if len(y) == 0:
            return 0.0
        counts = np.bincount(y, minlength=len(self.classes_))
        p = counts / counts.sum()
        return float(1.0 - np.sum(p**2))

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y, minlength=len(self.classes_))
        return counts / counts.sum()

    def _best_split_for_feature(
        self, x: np.ndarray, y: np.ndarray, parent_impurity: float
    ) -> tuple[float, float] | None:
        order = np.argsort(x, kind="mergesort")
        x_sorted = x[order]
        y_sorted = y[order]
        n = len(y_sorted)
        n_classes = len(self.classes_)
        split_idx = self._split_points(x_sorted)
        if len(split_idx) == 0:
            return None

        # One-hot cumulative counts -> class histograms on each side of every
        # candidate split without an inner python loop.
        one_hot = np.zeros((n, n_classes))
        one_hot[np.arange(n), y_sorted] = 1.0
        ccounts = np.cumsum(one_hot, axis=0)
        total = ccounts[-1]

        left_counts = ccounts[split_idx - 1]
        right_counts = total - left_counts
        n_left = split_idx.astype(float)
        n_right = n - n_left

        gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
        gini_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        gains = parent_impurity - weighted

        valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
        if not valid.any():
            return None
        gains = np.where(valid, gains, -np.inf)
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]) or gains[best] <= 0:
            return None
        i = split_idx[best]
        threshold = 0.5 * (x_sorted[i - 1] + x_sorted[i])
        return float(threshold), float(gains[best])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability estimates, one row per sample."""
        leaves = self.apply(X)
        assert self.nodes_ is not None
        return self.nodes_.value[leaves]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict the most probable class label for each row of ``X``."""
        proba = self.predict_proba(X)
        assert self.classes_ is not None
        return self.classes_[np.argmax(proba, axis=1)]
