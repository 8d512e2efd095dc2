"""Random forests built on the CART trees in :mod:`repro.ml.tree`.

The paper uses random forests for all ML-based QoE estimators ("we present
the results obtained using only random forests, as they consistently yield
the highest accuracy", Section 4.3) and relies on impurity-based feature
importances for the analysis in Section 5.  Both regressors and classifiers
are provided; the classifier additionally exposes class probabilities which
the resolution-confusion analysis uses.

Prediction runs on one node table per forest: every tree's
:class:`~repro.ml.tree.NodeTable` stacked into a
:class:`~repro.ml.tree.StackedTrees`, walked once for all (row, tree) pairs,
with the leaves' values accumulated across trees in tree order.  A
:class:`ForestStack` does the same for several forests at once -- an
estimator's four per-metric forests take one walk per batch of windows.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, StackedTrees

__all__ = ["RandomForestRegressor", "RandomForestClassifier", "ForestStack"]


class _BaseForest:
    """Shared bootstrap / aggregation machinery for the two forests."""

    tree_class: type

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = None,
    ) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: list = []
        self.feature_importances_: np.ndarray | None = None
        self.n_features_: int = 0
        self._stack: ForestStack | None = None

    def _make_tree(self, seed: int):
        return self.tree_class(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            random_state=seed,
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BaseForest":
        """Fit ``n_estimators`` trees on bootstrap resamples of ``(X, y)``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError(
                f"X and y have inconsistent lengths: {len(X)} vs {len(y)}"
            )
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_features_ = X.shape[1]
        self._prepare_targets(y)

        rng = np.random.default_rng(self.random_state)
        self.estimators_ = []
        importances = np.zeros(self.n_features_)
        n = len(X)
        for _ in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            tree = self._make_tree(seed)
            tree.fit(X[idx], y[idx])
            self.estimators_.append(tree)
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else np.zeros(self.n_features_)
        )
        return self

    def _prepare_targets(self, y: np.ndarray) -> None:
        """Hook used by the classifier to record the label set."""

    def _predict_stacked(self, X: np.ndarray) -> np.ndarray:
        """One walk of the forest's stacked node table (built on first use,
        rebuilt after a refit) in place of one traversal per row and tree."""
        self._check_fitted()
        if self._stack is None or not self._stack.matches([self]):
            self._stack = ForestStack([self])
        return self._stack.predict(X)[0]

    def _stacked_values(self) -> np.ndarray:
        """Every tree's per-node values, concatenated in tree order."""
        return np.concatenate([tree.nodes_.value for tree in self.estimators_])

    def predict_many(self, rows) -> np.ndarray:
        """Vectorized prediction over a sequence of single-sample vectors.

        Stacks ``rows`` (each a 1-D feature vector) into one design matrix
        and runs the forest once.  Tree traversal and the per-sample mean /
        soft-vote are independent across rows, so the result is bit-identical
        to predicting each row on its own -- this is the cross-flow batched
        inference entry point used by the sharded monitor's tick batching.
        """
        if len(rows) == 0:
            return np.empty(0)
        return self.predict(np.vstack(rows))

    def _check_fitted(self) -> None:
        if not self.estimators_:
            raise RuntimeError(
                f"{type(self).__name__} instance is not fitted; call fit() first"
            )

    # -- persistence -------------------------------------------------------

    #: Discriminator stored in the serialized form, set by subclasses.
    kind: str = ""

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the fitted forest (trees included)."""
        self._check_fitted()
        assert self.feature_importances_ is not None
        return {
            "kind": self.kind,
            "params": {
                "n_estimators": self.n_estimators,
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features,
                "bootstrap": self.bootstrap,
                "random_state": self.random_state,
            },
            "n_features": self.n_features_,
            "feature_importances": [float(v) for v in self.feature_importances_],
            "trees": [tree.to_dict() for tree in self.estimators_],
            **self._extra_to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "_BaseForest":
        """Inverse of :meth:`to_dict`; the reloaded forest predicts bit-identically."""
        if data.get("kind") != cls.kind:
            raise ValueError(
                f"serialized forest is a {data.get('kind')!r}, expected {cls.kind!r}"
            )
        forest = cls(**data["params"])
        forest._extra_from_dict(data)
        forest.n_features_ = int(data["n_features"])
        forest.feature_importances_ = np.asarray(data["feature_importances"], dtype=float)
        forest.estimators_ = [cls.tree_class.from_dict(tree) for tree in data["trees"]]
        return forest

    def _extra_to_dict(self) -> dict:
        return {}

    def _extra_from_dict(self, data: dict) -> None:
        pass


class RandomForestRegressor(_BaseForest):
    """Bagged ensemble of CART regression trees (mean aggregation)."""

    tree_class = DecisionTreeRegressor
    kind = "regressor"

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict the per-sample mean of the individual tree predictions.

        The mean is accumulated sequentially in tree order (a running sum
        across the trees axis, see :class:`ForestStack`) rather than via
        ``np.mean``, whose pairwise-summation blocking depends on the batch
        shape: with it, a window predicted alone and
        the same window predicted inside a batch could differ in the last
        ulp, breaking the batched-inference bit-identity contract.
        """
        return self._predict_stacked(X)


class RandomForestClassifier(_BaseForest):
    """Bagged ensemble of CART classification trees (soft-vote aggregation)."""

    tree_class = DecisionTreeClassifier
    kind = "classifier"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.classes_: np.ndarray | None = None

    def _prepare_targets(self, y: np.ndarray) -> None:
        self.classes_ = np.unique(y)

    def _extra_to_dict(self) -> dict:
        assert self.classes_ is not None
        return {"classes": [c.item() if hasattr(c, "item") else c for c in self.classes_]}

    def _extra_from_dict(self, data: dict) -> None:
        self.classes_ = np.array(data["classes"])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Average class-probability estimates across the ensemble.

        Trees fitted on bootstrap samples may not have seen every class, so
        per-tree probabilities are re-aligned onto the forest-level class set
        before averaging.
        """
        return self._predict_stacked(X)

    def _stacked_values(self) -> np.ndarray:
        # Leaf rows re-aligned onto the forest's class set: a class a tree
        # never saw contributes an exact 0.0 to the running sum.
        assert self.classes_ is not None
        class_pos = {c: i for i, c in enumerate(self.classes_)}
        blocks = []
        for tree in self.estimators_:
            block = np.zeros((len(tree.nodes_), len(self.classes_)))
            block[:, [class_pos[c] for c in tree.classes_]] = tree.nodes_.value
            blocks.append(block)
        return np.concatenate(blocks)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict the class with the highest averaged probability."""
        proba = self.predict_proba(X)
        assert self.classes_ is not None
        return self.classes_[np.argmax(proba, axis=1)]


class ForestStack:
    """Fitted forests' trees stacked into one node table, walked once.

    :meth:`predict` returns, per forest and in order, what that forest's
    ``predict`` (regressor) or ``predict_proba`` (classifier) returns: each
    forest gathers its own trees' leaves from the shared walk and sums them
    with ``np.cumsum``, a strictly sequential scan ((v0 + v1) + v2) + ...,
    so the mean / soft vote is accumulated in tree order whatever the batch
    and stacking changes no value.  A stack describes the forests as fitted
    when it was built; :meth:`matches` tells whether it still does.
    """

    def __init__(self, forests: list[_BaseForest]) -> None:
        self._trees = tuple(forest.estimators_ for forest in forests)
        self.stack = StackedTrees.of([tree.nodes_ for trees in self._trees for tree in trees])
        self._parts = []
        column = 0
        for forest, trees in zip(forests, self._trees):
            base = int(self.stack.roots[column])
            self._parts.append((column, column + len(trees), base, forest._stacked_values()))
            column += len(trees)

    def matches(self, forests: list[_BaseForest]) -> bool:
        """Whether ``forests`` hold exactly the fitted trees stacked here."""
        return len(forests) == len(self._trees) and all(
            forest.estimators_ is trees for forest, trees in zip(forests, self._trees)
        )

    def predict(self, X: np.ndarray) -> list[np.ndarray]:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        leaves = self.stack.apply(X)
        return [
            np.cumsum(values[leaves[:, lo:hi] - base], axis=1)[:, -1] / (hi - lo)
            for lo, hi, base, values in self._parts
        ]
