"""Unit tests for cross-validation utilities."""

import numpy as np
import pytest

from repro.ml.model_selection import KFold


class TestKFold:
    def test_partitions_every_sample_exactly_once(self):
        X = np.arange(23).reshape(-1, 1)
        seen = []
        for train_idx, test_idx in KFold(n_splits=5, random_state=0).split(X):
            assert set(train_idx) & set(test_idx) == set()
            seen.extend(test_idx.tolist())
        assert sorted(seen) == list(range(23))

    def test_number_of_folds(self):
        X = np.arange(10).reshape(-1, 1)
        folds = list(KFold(n_splits=5, shuffle=False).split(X))
        assert len(folds) == 5

    def test_no_shuffle_is_contiguous(self):
        X = np.arange(10).reshape(-1, 1)
        first_test = next(iter(KFold(n_splits=5, shuffle=False).split(X)))[1]
        assert list(first_test) == [0, 1]

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            list(KFold(n_splits=5).split(np.zeros((3, 1))))

    def test_invalid_n_splits(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)

    @pytest.mark.parametrize("n_samples, n_splits", [(10, 5), (11, 5), (23, 5), (7, 2), (100, 3)])
    def test_fold_sizes_differ_by_at_most_one(self, n_samples, n_splits):
        X = np.zeros((n_samples, 1))
        sizes = [len(test) for _, test in KFold(n_splits=n_splits, random_state=0).split(X)]
        assert len(sizes) == n_splits
        assert sum(sizes) == n_samples
        assert max(sizes) - min(sizes) <= 1

    def test_train_is_the_complement_of_test(self):
        X = np.zeros((17, 1))
        for train_idx, test_idx in KFold(n_splits=4, random_state=1).split(X):
            assert sorted(train_idx.tolist() + test_idx.tolist()) == list(range(17))

    def test_same_random_state_gives_same_folds(self):
        X = np.zeros((40, 1))
        a = [test.tolist() for _, test in KFold(random_state=9).split(X)]
        b = [test.tolist() for _, test in KFold(random_state=9).split(X)]
        assert a == b

    def test_different_random_states_give_different_folds(self):
        X = np.zeros((40, 1))
        a = [test.tolist() for _, test in KFold(random_state=1).split(X)]
        b = [test.tolist() for _, test in KFold(random_state=2).split(X)]
        assert a != b

    def test_split_is_repeatable_on_one_instance(self):
        X = np.zeros((30, 1))
        kfold = KFold(n_splits=3, random_state=4)
        first = [test.tolist() for _, test in kfold.split(X)]
        second = [test.tolist() for _, test in kfold.split(X)]
        assert first == second

    def test_no_shuffle_folds_run_in_index_order(self):
        X = np.zeros((11, 1))
        tests = [test.tolist() for _, test in KFold(n_splits=3, shuffle=False).split(X)]
        assert tests == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10]]

    def test_y_does_not_change_the_folds(self):
        X = np.zeros((20, 1))
        y = np.arange(20)[::-1]
        with_y = [test.tolist() for _, test in KFold(random_state=3).split(X, y)]
        without_y = [test.tolist() for _, test in KFold(random_state=3).split(X)]
        assert with_y == without_y

    def test_accepts_a_plain_list(self):
        folds = list(KFold(n_splits=2, shuffle=False).split([[0.0], [1.0], [2.0], [3.0]]))
        assert [test.tolist() for _, test in folds] == [[0, 1], [2, 3]]

    def test_defaults_are_five_shuffled_folds(self):
        kfold = KFold()
        assert kfold.n_splits == 5
        assert kfold.shuffle is True

    def test_as_many_folds_as_samples_leaves_one_out(self):
        X = np.zeros((6, 1))
        folds = list(KFold(n_splits=6, random_state=0).split(X))
        assert all(len(test) == 1 and len(train) == 5 for train, test in folds)
