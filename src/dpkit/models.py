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
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import _kernels
from .erm import (Domain, ErmConfig, LossSpec, RegularizerSpec, erm_cms,
                  erm_kst, l2_regularizer)
from .mechanisms import PrivacyBudget, RandomSource
from .stats import Bounds

_BOUNDS_TOL = 1e-9


def logistic_loss() -> LossSpec:
    """Cross-entropy on the margin z = y * score, labels in {-1, +1}."""

    def value(scores, y):
        # log(1 + exp(-m)) without overflow, cheaper than np.logaddexp.
        margins = y * scores
        return np.log1p(np.exp(-np.abs(margins))) + np.maximum(-margins, 0.0)

    def grad(scores, y):
        return -y * expit(-y * scores)

    return LossSpec(value=value, grad=grad, curvature=0.25)


def huber_loss_value(z, h: float):
    """Smooth three-branch approximation of the hinge loss: 0 above 1 + h,
    1 - z below 1 - h, and (1 + h - z)^2 / (4h) in between."""
    if h <= 0.0:
        raise ValueError("huber smoothing width must be positive")
    z = np.asarray(z, dtype=np.float64)
    u = np.clip(1.0 + h - z, 0.0, 2.0 * h)  # one expression, three branches
    return u * u / (4.0 * h) + np.maximum(1.0 - h - z, 0.0)


def huber_loss_grad(z, h: float):
    z = np.asarray(z, dtype=np.float64)
    return -np.clip(1.0 + h - z, 0.0, 2.0 * h) / (2.0 * h)


def huber_loss(h: float = 0.5) -> LossSpec:
    def value(scores, y):
        return huber_loss_value(y * scores, h)

    def grad(scores, y):
        return y * huber_loss_grad(y * scores, h)

    return LossSpec(value=value, grad=grad, curvature=1.0 / (2.0 * h))


def squared_loss(p: int) -> LossSpec:
    """Half squared error with the regression-path constants for row norms
    <= sqrt(p), |y| <= p, and coefficients inside the sqrt(p) ball."""

    def value(scores, y):
        return 0.5 * (scores - y) ** 2

    def grad(scores, y):
        return scores - y

    return LossSpec(value=value, grad=grad,
                    grad_norm_bound=2.0 * p ** 1.5, eigen_bound=float(p))


@dataclass(frozen=True)
class FeatureScaler:
    column_divisors: np.ndarray
    global_divisor: float = 1.0

    def scale(self, X: np.ndarray) -> np.ndarray:
        return X / self.column_divisors / self.global_divisor

    def unscale_coefficients(self, theta: np.ndarray) -> np.ndarray:
        return theta / self.column_divisors / self.global_divisor

    def scale_coefficients(self, theta: np.ndarray) -> np.ndarray:
        return theta * self.column_divisors * self.global_divisor


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
        freqs = math.sqrt(2.0 * beta) * np.reshape(
            _kernels.normal_quantile(rng.uniform(dim * p)), (dim, p))
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
        doc = json.loads(text)
        scaler = None
        if doc["scaler"] is not None:
            scaler = FeatureScaler(
                np.asarray(doc["scaler"]["column_divisors"]),
                doc["scaler"]["global_divisor"])
        rff = None
        if doc["rff"] is not None:
            r = doc["rff"]
            rff = RffProjection.create(r["p"], r["dim"], r["beta"], r["seed"])
        return cls(doc["kind"], np.asarray(doc["coefficients"]), scaler,
                   doc["add_bias"], rff, doc["huber_h"], doc["config"])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "TrainedModel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


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
        if col.min() < b.lower - _BOUNDS_TOL or \
                col.max() > b.upper + _BOUNDS_TOL:
            raise ValueError(f"column {j} violates its declared bounds "
                             f"[{b.lower}, {b.upper}]")


def _with_bias(X: np.ndarray, add_bias: bool) -> np.ndarray:
    if not add_bias:
        return X
    return np.column_stack([np.ones(X.shape[0]), X])


def _classification_scaler(bounds: list[Bounds], add_bias: bool
                           ) -> FeatureScaler:
    divisors = [max(abs(b.lower), abs(b.upper)) for b in bounds]
    if add_bias:
        divisors = [1.0] + divisors  # bias column has bounds [1, 1]
    p = len(divisors)
    return FeatureScaler(np.asarray(divisors), math.sqrt(p))


def _check_binary_labels(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64).ravel()
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("labels must be coded in {0, 1}")
    return y


def fit_logistic(X, y, bounds: list[Bounds], cfg: ErmConfig,
                 add_bias: bool = False,
                 rng: RandomSource | None = None,
                 reg: RegularizerSpec | None = None) -> TrainedModel:
    X = _as_matrix(X)
    y = _check_binary_labels(y)
    _check_in_bounds(X, bounds)
    scaler = _classification_scaler(bounds, add_bias)
    Xs = scaler.scale(_with_bias(X, add_bias))
    theta = erm_cms(Xs, 2.0 * y - 1.0, logistic_loss(),
                    reg or l2_regularizer(), cfg, None, rng)
    return TrainedModel("logistic", scaler.unscale_coefficients(theta),
                        scaler, add_bias,
                        config={"epsilon": cfg.budget.epsilon,
                                "delta": cfg.budget.delta,
                                "gamma": cfg.gamma,
                                "method": cfg.perturbation})


def predict_logistic(model: TrainedModel, X, add_bias: bool | None = None,
                     raw_value: bool = False) -> np.ndarray:
    add_bias = model.add_bias if add_bias is None else add_bias
    Xb = _with_bias(_as_matrix(X), add_bias)
    if Xb.shape[1] != model.coefficients.shape[0]:
        raise ValueError("column count does not match the trained model")
    scores = Xb @ model.coefficients
    if raw_value:
        return expit(scores)
    return (scores >= 0.0).astype(float)  # score 0.5 rounds up to label 1


def fit_svm(X, y, bounds: list[Bounds] | None, cfg: ErmConfig,
            kernel: str = "linear", rff_dim: int | None = None,
            kernel_param: float | None = None, huber_h: float = 0.5,
            weights=None, add_bias: bool = False,
            rng: RandomSource | None = None,
            reg: RegularizerSpec | None = None) -> TrainedModel:
    X = _as_matrix(X)
    y = _check_binary_labels(y)
    y_pm = 2.0 * y - 1.0
    loss = huber_loss(huber_h)
    reg = reg or l2_regularizer()

    if kernel == "linear":
        if bounds is None:
            raise ValueError("the linear kernel requires column bounds")
        _check_in_bounds(X, bounds)
        scaler = _classification_scaler(bounds, add_bias)
        Xs = scaler.scale(_with_bias(X, add_bias))
        theta = erm_cms(Xs, y_pm, loss, reg, cfg, weights, rng)
        return TrainedModel("svm_linear", scaler.unscale_coefficients(theta),
                            scaler, add_bias, huber_h=huber_h,
                            config={"epsilon": cfg.budget.epsilon,
                                    "delta": cfg.budget.delta,
                                    "gamma": cfg.gamma,
                                    "method": cfg.perturbation,
                                    "kernel": "linear"})

    if kernel != "gaussian":
        raise ValueError("kernel must be 'linear' or 'gaussian'")
    if bounds is not None:
        warnings.warn("bounds are unnecessary for the gaussian kernel and "
                      "are ignored", UserWarning)
    if add_bias:
        raise ValueError("a bias column would break the unit-norm guarantee "
                         "of the random-feature map; fit without bias")
    if rff_dim is None:
        raise ValueError("the gaussian kernel requires a projection "
                         "dimension")
    p = X.shape[1]
    beta = kernel_param if kernel_param is not None else 1.0 / p
    # The projection seed comes from the fit's random stream so training is
    # replayable; releasing it is privacy-free (the features never see data).
    rff_seed = int(rng.uniform() * 2 ** 31)
    proj = RffProjection.create(p, rff_dim, beta, rff_seed)
    V = proj.transform(X)
    theta = erm_cms(V, y_pm, loss, reg, cfg, weights, rng)
    return TrainedModel("svm_gaussian", theta, None, False, rff=proj,
                        huber_h=huber_h,
                        config={"epsilon": cfg.budget.epsilon,
                                "delta": cfg.budget.delta,
                                "gamma": cfg.gamma,
                                "method": cfg.perturbation,
                                "kernel": "gaussian"})


def predict_svm(model: TrainedModel, X, add_bias: bool | None = None,
                raw_value: bool = False) -> np.ndarray:
    add_bias = model.add_bias if add_bias is None else add_bias
    X = _as_matrix(X)
    if model.rff is not None:
        features = model.rff.transform(X)
    else:
        features = _with_bias(X, add_bias)
    if features.shape[1] != model.coefficients.shape[0]:
        raise ValueError("column count does not match the trained model")
    margins = features @ model.coefficients
    if raw_value:
        return margins
    return (margins >= 0.0).astype(float)


def fit_linreg(X, y, bounds: list[Bounds], budget: PrivacyBudget,
               gamma: float, add_bias: bool = False,
               rng: RandomSource | None = None,
               reg: RegularizerSpec | None = None) -> TrainedModel:
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
    if y.min() < y_bounds.lower - _BOUNDS_TOL or \
            y.max() > y_bounds.upper + _BOUNDS_TOL:
        raise ValueError("targets violate their declared bounds")

    Xb = _with_bias(X, add_bias)
    p = Xb.shape[1]
    divisors = [max(abs(b.lower), abs(b.upper)) for b in x_bounds]
    if add_bias:
        divisors = [1.0] + divisors
    # Per-column scaling only: entries land in [-1, 1], row norms in the
    # sqrt(p) ball the regression path requires.
    scaler = FeatureScaler(np.asarray(divisors), 1.0)
    Xs = scaler.scale(Xb)

    shift = 0.5 * (y_bounds.lower + y_bounds.upper) if add_bias else 0.0
    y_scale = max(abs(y_bounds.lower - shift), abs(y_bounds.upper - shift)) / p
    ys = (y - shift) / y_scale

    theta = erm_kst(Xs, ys, squared_loss(p), reg or l2_regularizer(),
                    budget, gamma, Domain(math.sqrt(p)), rng)
    coeff = scaler.unscale_coefficients(theta) * y_scale
    if add_bias:
        coeff = coeff.copy()
        coeff[0] += shift
    return TrainedModel("linear", coeff, scaler, add_bias,
                        config={"epsilon": budget.epsilon,
                                "delta": budget.delta,
                                "gamma": gamma,
                                "y_shift": shift, "y_scale": y_scale})


def predict_linreg(model: TrainedModel, X,
                   add_bias: bool | None = None) -> np.ndarray:
    add_bias = model.add_bias if add_bias is None else add_bias
    Xb = _with_bias(_as_matrix(X), add_bias)
    if Xb.shape[1] != model.coefficients.shape[0]:
        raise ValueError("column count does not match the trained model")
    return Xb @ model.coefficients


def predict(model: TrainedModel, X, raw_value: bool = False) -> np.ndarray:
    """Dispatch prediction on the model kind. Pure post-processing."""
    if model.kind == "logistic":
        return predict_logistic(model, X, raw_value=raw_value)
    if model.kind in ("svm_linear", "svm_gaussian"):
        return predict_svm(model, X, raw_value=raw_value)
    if model.kind == "linear":
        return predict_linreg(model, X)
    raise ValueError(f"unknown model kind: {model.kind!r}")
