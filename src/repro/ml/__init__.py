"""Learning substrate: a small, self-contained replacement for the parts of
scikit-learn the paper relies on.

The paper trains one random forest per QoE metric, scores it with 5-fold
cross validation and inspects impurity-based feature importances.  This
package provides those pieces with a familiar fit/predict API:

* :mod:`repro.ml.tree` -- CART decision trees for regression and classification.
* :mod:`repro.ml.forest` -- random forests built on the CART trees.
* :mod:`repro.ml.model_selection` -- K-fold splitting for cross validation.
* :mod:`repro.ml.metrics` -- the error metrics used throughout the paper
  (MAE, MRAE, accuracy, confusion matrices, box-plot error summaries).

All estimators accept and return :class:`numpy.ndarray` objects and follow
the convention that ``X`` has shape ``(n_samples, n_features)``.
"""

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    mean_absolute_error,
    mean_relative_absolute_error,
)
from repro.ml.model_selection import KFold
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "DecisionTreeRegressor",
    "DecisionTreeClassifier",
    "RandomForestRegressor",
    "RandomForestClassifier",
    "KFold",
    "mean_absolute_error",
    "mean_relative_absolute_error",
    "accuracy_score",
    "confusion_matrix",
]
