"""Private hyperparameter selection.

Each of the m candidates trains on its own disjoint fold of the data, so the
training releases compose in parallel; a held-out validation fold scores every
candidate, and the exponential mechanism picks the winner. The selected model
is returned as trained on its fold (no retraining, which would reread data
and spend more budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mechanisms import PrivacyBudget, RandomSource, exponential_mechanism
from .models import TrainedModel, predict
from .stats import Bounds, _squared_width


@dataclass(frozen=True)
class Candidate:
    """A named model constructor: fit(X, y, rng) -> TrainedModel."""
    name: str
    fit: Callable


@dataclass
class TuningResult:
    model: TrainedModel
    index: int
    name: str


def split_folds(n: int, n_folds: int, rng: RandomSource) -> list[np.ndarray]:
    """Random partition of range(n) into n_folds contiguous-size folds.

    Sizes differ by at most one; the remainder goes to the earliest folds.
    """
    if n_folds < 1:
        raise ValueError("need at least one fold")
    if n < n_folds:
        raise ValueError("not enough rows to fill every fold")
    perm = np.argsort(rng.uniform(n))
    base, rem = divmod(n, n_folds)
    folds, start = [], 0
    for i in range(n_folds):
        size = base + (1 if i < rem else 0)
        folds.append(perm[start:start + size])
        start += size
    return folds


def _tune(candidates, X, y, budget, rng, score, sensitivity) -> TuningResult:
    if not candidates:
        raise ValueError("need at least one candidate")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != X.shape[0]:
        raise ValueError("labels must match the rows of X")

    m = len(candidates)
    folds = split_folds(X.shape[0], m + 1, rng)
    val = folds[-1]
    models = [c.fit(X[folds[i]], y[folds[i]], rng)
              for i, c in enumerate(candidates)]
    scores = np.array([score(mod, X[val], y[val]) for mod in models])
    idx = exponential_mechanism(scores, budget, sensitivity, None, rng)
    return TuningResult(models[idx], idx, candidates[idx].name)


def tune_classification(candidates: list[Candidate], X, y,
                        budget: PrivacyBudget,
                        rng: RandomSource) -> TuningResult:
    """Select among classifiers by (negated) validation misclassifications.

    One changed validation row moves the count by at most 1, so the
    selection utility has sensitivity 1.
    """
    def score(model, Xv, yv):
        return -float(np.sum(predict(model, Xv) != yv))

    return _tune(candidates, X, y, budget, rng, score, 1.0)


def tune_linreg(candidates: list[Candidate], X, y, y_bounds: Bounds,
                budget: PrivacyBudget, rng: RandomSource) -> TuningResult:
    """Select among regressors by negated validation squared error.

    Predictions and targets are clamped to the declared target bounds, so
    each squared-error term lies in [0, width^2] and one changed validation
    row moves the utility by at most width^2. The clamp also means a
    candidate cannot be punished beyond that for wild extrapolation.
    """
    width_sq = _squared_width(y_bounds.width)

    def score(model, Xv, yv):
        pred = np.clip(predict(model, Xv), y_bounds.lower, y_bounds.upper)
        truth = np.clip(yv, y_bounds.lower, y_bounds.upper)
        return -float(np.sum((pred - truth) ** 2))

    return _tune(candidates, X, y, budget, rng, score, width_sq)
