"""Cross-validation splitting.

The paper reports all ML accuracy numbers over 5-fold cross validation
(Section 4.3); :class:`KFold` yields the train/test index folds that
:mod:`repro.core.evaluation` fits and scores each model on.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["KFold"]


class KFold:
    """Split indices into ``n_splits`` contiguous (optionally shuffled) folds."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state: int | None = None) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(X)
        if n < self.n_splits:
            raise ValueError(
                f"cannot split {n} samples into {self.n_splits} folds"
            )
        indices = np.arange(n)
        if self.shuffle:
            rng = np.random.default_rng(self.random_state)
            rng.shuffle(indices)
        fold_sizes = np.full(self.n_splits, n // self.n_splits, dtype=int)
        fold_sizes[: n % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            test_idx = indices[start : start + size]
            train_idx = np.concatenate([indices[:start], indices[start + size :]])
            yield train_idx, test_idx
            start += size

