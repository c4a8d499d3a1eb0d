"""Concrete DP models: logistic regression, linear/Gaussian-kernel SVM
(optionally observation-weighted), and linear regression.

Bounds are contracts here, not clipping instructions: rows outside their
declared bounds are rejected, because silently clipping features would change
the learned geometry without any trace. The bounds drive the feature scaling
that establishes the row-norm preconditions of the ERM algorithms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .erm import Domain, ErmConfig, LossSpec, erm_cms, erm_kst
from .mechanisms import PrivacyBudget, RandomSource
from .stats import Bounds

_BOUNDS_TOL = 1e-9


def logistic_loss() -> LossSpec:
    """Cross-entropy on the margin m = y * score, labels in {-1, +1}."""

    def evaluate(scores, y):
        # One e = exp(-|m|) serves the loss, log1p(e) + max(-m, 0), the
        # sigmoid(-m) of the derivative, where(m > 0, e, 1) / (1 + e), and
        # the second derivative sigmoid(m) sigmoid(-m) = e / (1 + e)^2; all
        # stay finite and accurate for large |m|, unlike -log1p(-sigmoid). The
        # numerator is exp(min(-m, 0)), the same bits as the masked select
        # at a fraction of its cost.
        margins = y * scores
        d = np.negative(margins)
        e = np.minimum(margins, d)
        np.exp(e, out=e)
        np.minimum(d, 0.0, out=margins)
        np.exp(margins, out=margins)
        losses = np.log1p(e)
        np.maximum(d, 0.0, out=d)
        losses += d
        np.add(1.0, e, out=d)
        np.divide(margins, d, out=margins)
        e /= d
        e /= d
        np.multiply(margins, y, out=d)
        np.negative(d, out=d)
        return losses, d, e

    return LossSpec(evaluate, curvature=0.25)


def huber_loss(h: float = 0.5) -> LossSpec:
    """Smooth three-branch approximation of the hinge loss on the margin
    z = y * score: 0 above 1 + h, 1 - z below 1 - h, and (1 + h - z)^2 / (4h)
    in between. The width h must be finite and positive."""
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError("huber smoothing width must be finite and positive, "
                         f"got {h!r}")

    def evaluate(scores, y):
        # The clipped u = 1 + h - z gives every branch of the value, of the
        # derivative -u / (2h) and of the second, 1 / (2h) where 0 < u < 2h.
        z = y * scores
        u = np.subtract(1.0 + h, z)
        np.clip(u, 0.0, 2.0 * h, out=u)
        curvatures = np.logical_and(0.0 < u, u < 2.0 * h) / (2.0 * h)
        np.subtract(1.0 - h, z, out=z)
        np.maximum(z, 0.0, out=z)
        losses = u * u
        losses /= 4.0 * h
        losses += z
        np.divide(u, -2.0 * h, out=u)
        u *= y
        return losses, u, curvatures

    return LossSpec(evaluate, curvature=1.0 / (2.0 * h))


def _on_margins(loss: LossSpec, z) -> tuple[np.ndarray, np.ndarray]:
    """``loss.evaluate`` at the margins ``z`` (label +1), in the shape of z:
    a number for a number."""
    z = np.asarray(z, dtype=np.float64)
    value, grad, _ = loss.evaluate(np.atleast_1d(z), 1.0)
    return value.reshape(z.shape)[()], grad.reshape(z.shape)[()]


def huber_loss_value(z, h: float):
    """The Huber loss of ``huber_loss(h)`` at the margins ``z``."""
    return _on_margins(huber_loss(h), z)[0]


def huber_loss_grad(z, h: float):
    """dloss/dz of ``huber_loss(h)`` at the margins ``z``."""
    return _on_margins(huber_loss(h), z)[1]


def squared_loss(p: int) -> LossSpec:
    """Half squared error with the regression-path constants for row norms
    <= sqrt(p), |y| <= p, and coefficients inside the sqrt(p) ball.

    ``erm_kst`` solves this loss's quadratic objective exactly and reads
    only the two constants; ``evaluate`` states the loss it assumes."""

    def evaluate(scores, y):
        residuals = scores - y
        losses = np.square(residuals)
        losses *= 0.5
        return losses, residuals, np.ones_like(residuals)

    return LossSpec(evaluate, grad_norm_bound=2.0 * p ** 1.5,
                    eigen_bound=float(p))


@dataclass(frozen=True)
class FeatureScaler:
    column_divisors: np.ndarray
    global_divisor: float = 1.0

    def scale(self, X: np.ndarray) -> np.ndarray:
        """X / column_divisors / global_divisor, column-major: the solver's
        products X @ theta and X^T d run faster on it."""
        scaled = np.divide(X, self.column_divisors, order="F")
        scaled /= self.global_divisor
        return scaled

    def unscale_coefficients(self, theta: np.ndarray) -> np.ndarray:
        return theta / self.column_divisors / self.global_divisor


@dataclass(frozen=True)
class RffProjection:
    dim: int
    beta: float
    seed: int
    frequencies: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, p: int, dim: int, beta: float, seed: int
               ) -> "RffProjection":
        if dim < 1:
            raise ValueError("projection dimension must be positive")
        if beta <= 0.0:
            raise ValueError("kernel parameter must be positive")
        rng = RandomSource(seed)
        freqs = math.sqrt(2.0 * beta) * np.reshape(rng.normal(dim * p),
                                                   (dim, p))
        phases = 2.0 * math.pi * rng.uniform(dim)
        return cls(dim, beta, int(seed), freqs, phases)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return _kernels.rff_features(np.atleast_2d(X), self.frequencies,
                                     self.phases)


@dataclass
class TrainedModel:
    kind: str  # logistic | svm_linear | svm_gaussian | linear
    coefficients: np.ndarray
    scaler: FeatureScaler | None
    add_bias: bool
    rff: RffProjection | None = None
    huber_h: float | None = None
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "coefficients": [float(c) for c in self.coefficients],
            "add_bias": self.add_bias,
            "huber_h": self.huber_h,
            "config": self.config,
            "scaler": None if self.scaler is None else {
                "column_divisors": [float(d)
                                    for d in self.scaler.column_divisors],
                "global_divisor": float(self.scaler.global_divisor),
            },
            "rff": None if self.rff is None else {
                "dim": self.rff.dim, "beta": self.rff.beta,
                "seed": self.rff.seed, "p": int(self.rff.frequencies.shape[1]),
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TrainedModel":
        """The model a ``to_json`` document holds. A missing key or a value
        of the wrong type raises ``ValueError`` naming the key."""
        doc = json.loads(text)
        scaler = _field(doc, "scaler", dict, type(None))
        if scaler is not None:
            scaler = FeatureScaler(_numbers(scaler, "column_divisors"),
                                   _field(scaler, "global_divisor", *_NUMBER))
        rff = _field(doc, "rff", dict, type(None))
        if rff is not None:
            rff = RffProjection.create(
                _field(rff, "p", int), _field(rff, "dim", int),
                _field(rff, "beta", *_NUMBER), _field(rff, "seed", int))
        return cls(_field(doc, "kind", str), _numbers(doc, "coefficients"),
                   scaler, _field(doc, "add_bias", bool), rff,
                   _field(doc, "huber_h", *_NUMBER, type(None)),
                   _field(doc, "config", dict))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "TrainedModel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


_NUMBER = (int, float)


def _field(doc, key: str, *types):
    """``doc[key]``, required to be an instance of one of ``types``; a bool
    passes only where ``bool`` is listed."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"model file lacks the key {key!r}")
    value = doc[key]
    if not isinstance(value, types) or \
            (isinstance(value, bool) and bool not in types):
        raise ValueError(f"model file key {key!r} has the wrong type")
    return value


def _numbers(doc, key: str) -> np.ndarray:
    values = _field(doc, key, list)
    if not all(isinstance(v, _NUMBER) and not isinstance(v, bool)
               for v in values):
        raise ValueError(f"model file key {key!r} must list numbers")
    return np.asarray(values, dtype=np.float64)


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    return X


def _check_in_bounds(X: np.ndarray, bounds: list[Bounds]):
    if X.shape[1] != len(bounds):
        raise ValueError("one bounds pair per column is required")
    for j, b in enumerate(bounds):
        col = X[:, j]
        # Written so that a NaN cell, which fails every comparison, fails.
        if not (b.lower - _BOUNDS_TOL <= col.min() and
                col.max() <= b.upper + _BOUNDS_TOL):
            raise ValueError(f"column {j} violates its declared bounds "
                             f"[{b.lower}, {b.upper}]")


def _with_bias(X: np.ndarray, add_bias: bool) -> np.ndarray:
    """X with a leading column of ones when add_bias, column-major."""
    if not add_bias:
        return X
    out = np.empty((X.shape[0], X.shape[1] + 1), order="F")
    out[:, 0] = 1.0
    out[:, 1:] = X
    return out


def _column_divisors(bounds: list[Bounds], add_bias: bool) -> np.ndarray:
    divisors = [max(abs(b.lower), abs(b.upper)) for b in bounds]
    if add_bias:
        divisors = [1.0] + divisors  # bias column has bounds [1, 1]
    return np.asarray(divisors)


def _pm_labels(y) -> np.ndarray:
    """Labels coded in {0, 1}, recoded to {-1, +1}."""
    y = np.asarray(y, dtype=np.float64).ravel()
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("labels must be coded in {0, 1}")
    return 2.0 * y - 1.0


def _config(budget: PrivacyBudget, gamma: float, **extra) -> dict:
    """The ``config`` of every saved model: budget, gamma and ``extra``."""
    return {"epsilon": budget.epsilon, "delta": budget.delta, "gamma": gamma,
            **extra}


def _fit_scaled_classifier(kind: str, X: np.ndarray, y_pm: np.ndarray,
                           bounds: list[Bounds], cfg: ErmConfig,
                           loss: LossSpec, weights, add_bias: bool,
                           rng: RandomSource | None,
                           huber_h: float | None = None, **extra
                           ) -> TrainedModel:
    """Scale the rows into the unit ball by their declared bounds, fit by
    ``erm_cms`` and scale the coefficients back to the original features."""
    _check_in_bounds(X, bounds)
    divisors = _column_divisors(bounds, add_bias)
    scaler = FeatureScaler(divisors, math.sqrt(divisors.size))
    theta = erm_cms(scaler.scale(_with_bias(X, add_bias)), y_pm, loss, cfg,
                    weights, rng)
    return TrainedModel(kind, scaler.unscale_coefficients(theta), scaler,
                        add_bias, huber_h=huber_h,
                        config=_config(cfg.budget, cfg.gamma,
                                       method=cfg.perturbation, **extra))


def fit_logistic(X, y, bounds: list[Bounds], cfg: ErmConfig,
                 add_bias: bool = False,
                 rng: RandomSource | None = None) -> TrainedModel:
    return _fit_scaled_classifier("logistic", _as_matrix(X), _pm_labels(y),
                                  bounds, cfg, logistic_loss(), None,
                                  add_bias, rng)


def fit_svm(X, y, bounds: list[Bounds] | None, cfg: ErmConfig,
            kernel: str = "linear", rff_dim: int | None = None,
            kernel_param: float | None = None, huber_h: float = 0.5,
            weights=None, add_bias: bool = False,
            rng: RandomSource | None = None) -> TrainedModel:
    X = _as_matrix(X)
    y_pm = _pm_labels(y)
    loss = huber_loss(huber_h)

    if kernel == "linear":
        if bounds is None:
            raise ValueError("the linear kernel requires column bounds")
        return _fit_scaled_classifier("svm_linear", X, y_pm, bounds, cfg,
                                      loss, weights, add_bias, rng,
                                      huber_h, kernel="linear")

    if kernel != "gaussian":
        raise ValueError("kernel must be 'linear' or 'gaussian'")
    if bounds is not None:
        raise ValueError("the gaussian kernel reads no column bounds; fit "
                         "without them")
    if add_bias:
        raise ValueError("a bias column would break the unit-norm guarantee "
                         "of the random-feature map; fit without bias")
    if rff_dim is None:
        raise ValueError("the gaussian kernel requires a projection "
                         "dimension")
    if rng is None:
        rng = RandomSource()  # seeded from OS entropy
    p = X.shape[1]
    beta = kernel_param if kernel_param is not None else 1.0 / p
    # The projection seed comes from the fit's random stream so training is
    # replayable; releasing it is privacy-free (the features never see data).
    rff_seed = int(rng.uniform() * 2 ** 31)
    proj = RffProjection.create(p, rff_dim, beta, rff_seed)
    theta = erm_cms(proj.transform(X), y_pm, loss, cfg, weights, rng)
    return TrainedModel("svm_gaussian", theta, None, False, rff=proj,
                        huber_h=huber_h,
                        config=_config(cfg.budget, cfg.gamma,
                                       method=cfg.perturbation,
                                       kernel="gaussian"))


def fit_linreg(X, y, bounds: list[Bounds], budget: PrivacyBudget,
               gamma: float, add_bias: bool = False,
               rng: RandomSource | None = None) -> TrainedModel:
    """Private linear regression over the sqrt(p)-ball of coefficients.

    ``bounds`` covers the feature columns plus, as its last element, the
    target values.
    """
    X = _as_matrix(X)
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(bounds) != X.shape[1] + 1:
        raise ValueError("bounds must cover every column of X plus y")
    x_bounds, y_bounds = list(bounds[:-1]), bounds[-1]
    _check_in_bounds(X, x_bounds)
    if not (y_bounds.lower - _BOUNDS_TOL <= y.min() and
            y.max() <= y_bounds.upper + _BOUNDS_TOL):
        raise ValueError("targets violate their declared bounds")

    # Per-column scaling only: entries land in [-1, 1], row norms in the
    # sqrt(p) ball the regression path requires.
    scaler = FeatureScaler(_column_divisors(x_bounds, add_bias), 1.0)
    Xs = scaler.scale(_with_bias(X, add_bias))
    p = Xs.shape[1]

    shift = 0.5 * (y_bounds.lower + y_bounds.upper) if add_bias else 0.0
    y_scale = max(abs(y_bounds.lower - shift), abs(y_bounds.upper - shift)) / p
    ys = (y - shift) / y_scale

    theta = erm_kst(Xs, ys, squared_loss(p), budget, gamma,
                    Domain(math.sqrt(p)), rng)
    coeff = scaler.unscale_coefficients(theta) * y_scale
    if add_bias:
        coeff = coeff.copy()
        coeff[0] += shift
    return TrainedModel("linear", coeff, scaler, add_bias,
                        config=_config(budget, gamma, y_shift=shift,
                                       y_scale=y_scale))


def predict(model: TrainedModel, X, raw_value: bool = False) -> np.ndarray:
    """Apply ``model`` to the rows of ``X``. Pure post-processing.

    Classifiers give labels in {0, 1}, a score of exactly 0 rounding up to
    1; with ``raw_value`` they give the probability (logistic) or the margin
    (SVM) instead. Linear regression gives the fitted values.
    """
    if model.kind not in ("logistic", "svm_linear", "svm_gaussian",
                          "linear"):
        raise ValueError(f"unknown model kind: {model.kind!r}")
    X = _as_matrix(X)
    features = (model.rff.transform(X) if model.rff is not None
                else _with_bias(X, model.add_bias))
    if features.shape[1] != model.coefficients.shape[0]:
        raise ValueError("column count does not match the trained model")
    scores = features @ model.coefficients
    if model.kind == "linear":
        return scores
    if not raw_value:
        return (scores >= 0.0).astype(float)
    if model.kind == "logistic":
        from scipy.special import expit
        return expit(scores)
    return scores  # the SVM margin
