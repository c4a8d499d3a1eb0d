import numpy as np
import pytest

import dpkit.tuning
from dpkit.mechanisms import PrivacyBudget, RandomSource
from dpkit.models import TrainedModel
from dpkit.stats import Bounds
from dpkit.tuning import (Candidate, split_folds, tune_classification,
                          tune_linreg)

HUGE = PrivacyBudget(1e8)


@pytest.fixture
def utilities(monkeypatch):
    """The validation scores each selection hands the exponential
    mechanism, in call order; the result itself carries none."""
    seen = []
    select = dpkit.tuning.exponential_mechanism

    def record(utility, *args):
        seen.append(np.array(utility))
        return select(utility, *args)

    monkeypatch.setattr(dpkit.tuning, "exponential_mechanism", record)
    return seen


def _fixed_classifier(coefficients):
    model = TrainedModel("logistic", np.asarray(coefficients, dtype=float),
                         None, add_bias=False)
    return Candidate(f"w={coefficients}", lambda X, y, rng: model)


def _fixed_regressor(coefficients):
    model = TrainedModel("linear", np.asarray(coefficients, dtype=float),
                         None, add_bias=False)
    return Candidate(f"w={coefficients}", lambda X, y, rng: model)


# -- fold splitting -----------------------------------------------------------

def test_split_fold_sizes_remainder_to_earliest():
    folds = split_folds(11, 5, RandomSource(0))
    assert [len(f) for f in folds] == [3, 2, 2, 2, 2]


def test_split_folds_partition_everything():
    folds = split_folds(23, 4, RandomSource(1))
    combined = np.concatenate(folds)
    assert sorted(combined.tolist()) == list(range(23))


def test_split_folds_seeded():
    a = split_folds(10, 3, RandomSource(5))
    b = split_folds(10, 3, RandomSource(5))
    c = split_folds(10, 3, RandomSource(6))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_split_folds_validation():
    with pytest.raises(ValueError):
        split_folds(3, 0, RandomSource(0))
    with pytest.raises(ValueError):
        split_folds(2, 3, RandomSource(0))


# -- classification tuning ------------------------------------------------------

def test_tune_classification_picks_best_at_huge_epsilon(utilities):
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(60, 2))
    y = (X[:, 0] > 0).astype(float)
    good = _fixed_classifier([5.0, 0.0])
    bad = _fixed_classifier([-5.0, 0.0])
    for seed in range(5):
        res = tune_classification([bad, good], X, y, HUGE, RandomSource(seed))
        assert res.index == 1
        assert res.name == good.name
        # Utility is the negated misclassification count on the fold.
        assert not hasattr(res, "utilities")  # unprivatized; not released
        assert utilities[-1][1] == 0.0
        assert utilities[-1][0] == -len(split_folds(60, 3,
                                                    RandomSource(seed))[-1])


def test_tune_classification_trains_on_disjoint_folds():
    seen = []

    def spy_fit(X, y, rng):
        seen.append(len(X))
        return TrainedModel("logistic", np.zeros(X.shape[1]), None, False)

    X = np.zeros((11, 2))
    y = np.zeros(11)
    cands = [Candidate("a", spy_fit), Candidate("b", spy_fit)]
    tune_classification(cands, X, y, PrivacyBudget(1.0), RandomSource(0))
    # 11 rows in 3 folds: candidates see 4 and 4 rows, validation gets 3.
    assert seen == [4, 4]


def test_tune_single_candidate():
    X = np.random.default_rng(1).uniform(-1, 1, size=(10, 1))
    y = (X[:, 0] > 0).astype(float)
    res = tune_classification([_fixed_classifier([1.0])], X, y,
                              PrivacyBudget(1.0), RandomSource(0))
    assert res.index == 0


def test_tune_requires_candidates_and_matching_shapes():
    with pytest.raises(ValueError):
        tune_classification([], np.zeros((4, 1)), np.zeros(4),
                            PrivacyBudget(1.0), RandomSource(0))
    with pytest.raises(ValueError):
        tune_classification([_fixed_classifier([1.0])], np.zeros((4, 1)),
                            np.zeros(3), PrivacyBudget(1.0), RandomSource(0))


# -- regression tuning ------------------------------------------------------------

def test_tune_linreg_picks_best_at_huge_epsilon():
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, size=(40, 1))
    y = np.clip(2.0 * X[:, 0], -2, 2)
    good = _fixed_regressor([2.0])
    bad = _fixed_regressor([-2.0])
    for seed in range(5):
        res = tune_linreg([bad, good], X, y, Bounds(-2, 2), HUGE,
                          RandomSource(seed))
        assert res.index == 1


def test_tune_linreg_clamps_wild_predictions(utilities):
    # An absurd candidate is scored as if it predicted the nearest bound,
    # so its utility cannot fall below -n * width^2.
    X = np.ones((12, 1))
    y = np.full(12, 2.0)
    wild = _fixed_regressor([1e9])
    tune_linreg([wild, wild], X, y, Bounds(-2, 2), HUGE, RandomSource(0))
    n_val = len(split_folds(12, 3, RandomSource(0))[-1])
    assert utilities[-1][0] == pytest.approx(-n_val * 0.0)
    # Predictions clamp to +2 which equals the target: zero error.


def test_tune_linreg_sensitivity_is_width_squared():
    # Indirect check: the selection distribution at moderate epsilon uses
    # sensitivity width^2 = 16 for bounds [-2, 2]; with equal utilities both
    # candidates are picked about equally often.
    X = np.zeros((30, 1))
    y = np.zeros(30)
    a = _fixed_regressor([0.0])
    b = _fixed_regressor([0.0])
    picks = [tune_linreg([a, b], X, y, Bounds(-2, 2), PrivacyBudget(1.0),
                         RandomSource(s)).index for s in range(200)]
    frac = np.mean(picks)
    assert 0.35 < frac < 0.65


@pytest.mark.parametrize("X", [np.zeros((12, 1)), np.zeros(12)],
                         ids=["matrix", "vector"])
def test_tuning_refuses_labels_of_another_length_than_the_rows(X):
    with pytest.raises(ValueError, match="labels must match the rows of X"):
        tune_classification([_fixed_classifier([0.0])] * 2, X, np.zeros(11),
                            HUGE, RandomSource(0))
