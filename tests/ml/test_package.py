"""The public surface of :mod:`repro.ml`: the forests, K-fold and the paper's metrics."""

import importlib

import pytest

import repro.ml
from repro.ml import metrics


def test_package_exports_exactly_the_methods_pieces():
    assert sorted(repro.ml.__all__) == sorted([
        "DecisionTreeRegressor",
        "DecisionTreeClassifier",
        "RandomForestRegressor",
        "RandomForestClassifier",
        "KFold",
        "mean_absolute_error",
        "mean_relative_absolute_error",
        "accuracy_score",
        "confusion_matrix",
    ])
    for name in repro.ml.__all__:
        assert hasattr(repro.ml, name)


def test_metrics_module_keeps_the_box_plot_helpers():
    assert {"normalized_confusion_matrix", "ErrorSummary", "summarize_errors"} <= set(metrics.__all__)
    for name in metrics.__all__:
        assert hasattr(metrics, name)


@pytest.mark.parametrize("module", ["repro.ml.linear", "repro.ml.neighbors", "repro.ml.preprocessing"])
def test_unused_model_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
