import json
import math

import numpy as np
import pytest
from scipy.special import expit

from dpkit import _kernels
from dpkit.erm import ErmConfig
from dpkit.mechanisms import PrivacyBudget, RandomSource
from dpkit.models import (FeatureScaler, RffProjection, TrainedModel,
                          _with_bias, fit_linreg, fit_logistic, fit_svm,
                          huber_loss, logistic_loss, predict)
from dpkit.stats import Bounds

from oracles import fit_logistic_unregularized

HUGE = PrivacyBudget(1e8)


def _toy(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 2))
    y = (X[:, 0] - 0.5 * X[:, 1] > 0).astype(float)
    return X, y


# -- losses ----------------------------------------------------------------------

def huber_loss_value(z, h):
    """``huber_loss(h)`` at the margins ``z`` (label +1)."""
    return huber_loss(h).evaluate(np.atleast_1d(z), 1.0)[0]


def huber_loss_grad(z, h):
    """dloss/dz of ``huber_loss(h)`` at the margins ``z``."""
    return huber_loss(h).evaluate(np.atleast_1d(z), 1.0)[1]

def test_huber_values_at_seams():
    h = 0.5
    assert huber_loss_value(1.0 + h, h) == 0.0
    assert huber_loss_value(1.0 - h, h) == pytest.approx(h)
    assert huber_loss_value(0.0, h) == pytest.approx(1.0)
    assert huber_loss_value(1.0, h) == pytest.approx(h / 4.0)


def test_huber_continuity_across_seams():
    h = 0.3
    eps = 1e-9
    for seam in (1.0 - h, 1.0 + h):
        lo = huber_loss_value(seam - eps, h)
        hi = huber_loss_value(seam + eps, h)
        assert lo == pytest.approx(hi, abs=1e-7)
        glo = huber_loss_grad(seam - eps, h)
        ghi = huber_loss_grad(seam + eps, h)
        assert glo == pytest.approx(ghi, abs=1e-7)


def test_huber_approaches_hinge_for_small_h():
    z = np.linspace(-2, 3, 101)
    approx = huber_loss_value(z, 1e-4)
    hinge = np.maximum(0.0, 1.0 - z)
    assert np.max(np.abs(approx - hinge)) < 1e-4


def test_huber_gradient_bounded_by_one():
    z = np.linspace(-5, 5, 1001)
    g = huber_loss_grad(z, 0.5)
    assert np.all(np.abs(g) <= 1.0)


def test_huber_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        huber_loss_value(0.0, 0.0)


def test_huber_formulas_match_branchwise_reference():
    for h in (0.05, 0.3, 0.5, 1.0):
        z = np.concatenate([np.linspace(-5.0, 5.0, 2001),
                            [1.0 - h, 1.0 + h, -800.0, 800.0],
                            np.nextafter(1.0 - h, [-np.inf, np.inf]),
                            np.nextafter(1.0 + h, [-np.inf, np.inf])])
        quad = 1.0 + h - z
        value = np.where(z > 1.0 + h, 0.0,
                         np.where(z < 1.0 - h, 1.0 - z, quad ** 2 / (4 * h)))
        grad = np.where(z > 1.0 + h, 0.0,
                        np.where(z < 1.0 - h, -1.0, -quad / (2 * h)))
        np.testing.assert_allclose(huber_loss_value(z, h), value,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(huber_loss_grad(z, h), grad,
                                   rtol=0, atol=1e-12)


def test_logistic_value_matches_logaddexp():
    scores = np.concatenate([np.linspace(-40.0, 40.0, 4001),
                             [-800.0, -30.0, 0.0, 30.0, 800.0]])
    loss = logistic_loss()
    for label in (-1.0, 1.0):
        y = np.full_like(scores, label)
        np.testing.assert_allclose(loss.evaluate(scores, y)[0],
                                   np.logaddexp(0.0, -y * scores),
                                   rtol=0, atol=1e-12)


def test_logistic_loss_gradient_and_curvature_bounds():
    loss = logistic_loss()
    scores = np.linspace(-20, 20, 401)
    y = np.ones_like(scores)
    g = loss.evaluate(scores, y)[1]
    assert np.all(np.abs(g) <= 1.0)
    eps = 1e-5
    curv = (loss.evaluate(scores + eps, y)[1]
            - loss.evaluate(scores - eps, y)[1]) / (2 * eps)
    assert np.all(curv <= 0.25 + 1e-6)
    second = loss.evaluate(scores, y)[2]
    assert np.all((0.0 < second) & (second <= 0.25))


@pytest.mark.parametrize("loss", [logistic_loss(), huber_loss(0.3)],
                         ids=["logistic", "huber"])
def test_second_derivative_matches_central_difference(loss):
    scores = np.linspace(-20, 20, 401)
    # Off the Huber seams |margin| = 1 +- h, where the second derivative
    # jumps.
    scores = scores[np.minimum(np.abs(np.abs(scores) - 0.7),
                               np.abs(np.abs(scores) - 1.3)) > 1e-3]
    y = np.where(np.arange(scores.size) % 2, 1.0, -1.0)
    second = loss.evaluate(scores, y)[2]
    eps = 1e-5
    fd = (loss.evaluate(scores + eps, y)[1]
          - loss.evaluate(scores - eps, y)[1]) / (2 * eps)
    np.testing.assert_allclose(second, fd, rtol=0, atol=1e-6)


def _margin_grid(h):
    """Margins from -1e3 to 1e3, with 0, -0 and the Huber seams 1 +- h."""
    seams = np.array([1.0 - h, 1.0 + h])
    return np.concatenate([np.linspace(-40.0, 40.0, 801),
                           [-1e3, -30.0, -0.0, 0.0, 30.0, 1e3], seams,
                           np.nextafter(seams, -np.inf),
                           np.nextafter(seams, np.inf)])


def _labelled_scores(margins):
    """(scores, labels) with labels alternating in sign and the given
    margins y * score."""
    y = np.where(np.arange(margins.size) % 2, 1.0, -1.0)
    return y * margins, y


def test_logistic_evaluate_matches_separate_formulas():
    scores, y = _labelled_scores(_margin_grid(0.5))
    value, grad, curv = logistic_loss().evaluate(scores, y)
    margins = y * scores
    np.testing.assert_allclose(
        value, np.log1p(np.exp(-np.abs(margins))) + np.maximum(-margins, 0.0),
        rtol=1e-14, atol=0)
    np.testing.assert_allclose(grad, -y * expit(-y * scores), rtol=1e-14,
                               atol=0)
    np.testing.assert_allclose(curv, expit(margins) * expit(-margins),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("h", [0.05, 0.5, 2.0])
def test_huber_evaluate_matches_separate_formulas(h):
    scores, y = _labelled_scores(_margin_grid(h))
    value, grad, curv = huber_loss(h).evaluate(scores, y)
    u = np.clip(1.0 + h - y * scores, 0.0, 2.0 * h)
    np.testing.assert_allclose(
        value, u * u / (4.0 * h) + np.maximum(1.0 - h - y * scores, 0.0),
        rtol=1e-14, atol=0)
    np.testing.assert_allclose(grad, y * (-u / (2.0 * h)), rtol=1e-14,
                               atol=0)
    inside = np.abs(1.0 - y * scores) < h
    assert np.array_equal(curv, np.where(inside, 1.0 / (2.0 * h), 0.0))


@pytest.mark.parametrize("loss", [logistic_loss(), huber_loss(0.5)],
                         ids=["logistic", "huber"])
def test_classification_losses_stay_nan_free_at_extremes(loss):
    margins = np.array([-np.inf, -1e308, -1e300, -745.0, -740.0, 740.0,
                        745.0, 1e300, 1e308, np.inf])
    scores, y = _labelled_scores(margins)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        value, grad, curv = loss.evaluate(scores, y)
    assert not np.any(np.isnan(value)) and not np.any(np.isnan(grad))
    assert not np.any(np.isnan(curv))
    assert np.all(value >= 0.0) and np.all(np.abs(grad) <= 1.0)
    assert np.all(value[margins > 0] < 1e-300)


@pytest.mark.parametrize("loss", [logistic_loss(), huber_loss(0.5)],
                         ids=["logistic", "huber"])
def test_evaluate_leaves_the_scores_untouched(loss):
    scores, y = _labelled_scores(_margin_grid(0.5))
    before = scores.copy()
    value, grad, curv = loss.evaluate(scores, y)
    assert np.array_equal(scores, before)
    # The outputs are new arrays, as the caller may overwrite them.
    for out in (value, grad, curv):
        assert not np.shares_memory(out, scores)


@pytest.mark.parametrize("h", [0.0, -0.5, float("nan"), float("inf")])
def test_huber_width_is_checked_when_the_loss_is_built(h):
    with pytest.raises(ValueError, match="finite and positive"):
        huber_loss(h)


# -- scaling -----------------------------------------------------------------------

def test_classification_scaling_bounds_row_norms():
    X, _ = _toy()
    bounds = [Bounds(-2, 2), Bounds(-2, 2)]
    divisors = np.array([1.0, 2.0, 2.0])  # bias column first
    scaler = FeatureScaler(divisors, math.sqrt(3))
    Xb = np.column_stack([np.ones(len(X)), X])
    Xs = scaler.scale(Xb)
    assert np.max(np.linalg.norm(Xs, axis=1)) <= 1.0 + 1e-12


def test_scaler_round_trip_preserves_scores():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 3))
    scaler = FeatureScaler(np.array([2.0, 0.5, 4.0]), 1.7)
    theta_scaled = rng.normal(size=3)
    scores_scaled = scaler.scale(X) @ theta_scaled
    scores_orig = X @ scaler.unscale_coefficients(theta_scaled)
    assert np.allclose(scores_scaled, scores_orig, atol=1e-12)


def test_design_matrices_are_column_major_and_unchanged():
    rng = np.random.default_rng(4)
    X = rng.uniform(-3.0, 3.0, size=(200, 3))
    Xb = _with_bias(X, True)
    assert Xb.flags.f_contiguous
    assert np.array_equal(Xb, np.column_stack([np.ones(200), X]))
    scaler = FeatureScaler(np.array([1.0, 3.0, 2.0, 0.5]), math.sqrt(4))
    Xs = scaler.scale(Xb)
    assert Xs.flags.f_contiguous
    assert np.array_equal(
        Xs, np.column_stack([np.ones(200), X]) / scaler.column_divisors
        / scaler.global_divisor)


def test_rff_features_are_column_major():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, size=(300, 4))
    freqs = rng.normal(size=(40, 4))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=40)
    features = _kernels.rff_features(x, freqs, phases)
    assert features.flags.f_contiguous
    np.testing.assert_allclose(
        features, np.cos(x @ freqs.T + phases) / math.sqrt(40),
        rtol=0, atol=1e-12)


# -- logistic ----------------------------------------------------------------------

def test_fit_logistic_huge_epsilon_matches_oracle():
    X, y = _toy()
    bounds = [Bounds(-2, 2), Bounds(-2, 2)]
    gamma = 1.0
    model = fit_logistic(X, y, bounds, ErmConfig(HUGE, gamma),
                         add_bias=True, rng=RandomSource(0))
    # The oracle solves the same problem in the scaled space.
    divisors = np.array([1.0, 2.0, 2.0])
    Xs = np.column_stack([np.ones(len(X)), X]) / divisors / math.sqrt(3)
    ref_scaled = fit_logistic_unregularized(Xs, y, l2=gamma / len(X))
    ref = ref_scaled / divisors / math.sqrt(3)
    assert np.allclose(model.coefficients, ref, atol=1e-5)


def test_fit_logistic_predict_accuracy_with_moderate_noise():
    X, y = _toy(n=400, seed=1)
    bounds = [Bounds(-2, 2), Bounds(-2, 2)]
    cfg = ErmConfig(PrivacyBudget(5.0), 1.0, perturbation="objective")
    model = fit_logistic(X, y, bounds, cfg, add_bias=True,
                         rng=RandomSource(3))
    acc = float(np.mean(predict(model, X) == y))
    assert acc > 0.8


def test_fit_logistic_rejects_out_of_bounds_rows():
    X, y = _toy()
    with pytest.raises(ValueError):
        fit_logistic(X, y, [Bounds(-1, 1), Bounds(-2, 2)],
                     ErmConfig(HUGE, 1.0), rng=RandomSource(0))


def test_fit_logistic_rejects_bad_labels():
    X, _ = _toy()
    with pytest.raises(ValueError):
        fit_logistic(X, np.full(len(X), 2.0), [Bounds(-2, 2), Bounds(-2, 2)],
                     ErmConfig(HUGE, 1.0), rng=RandomSource(0))


def test_predict_logistic_threshold_rounds_up():
    model = TrainedModel("logistic", np.zeros(2), None, add_bias=False)
    X = np.array([[1.0, 1.0]])
    assert predict(model, X, raw_value=True)[0] == 0.5
    assert predict(model, X)[0] == 1.0


def test_predict_logistic_raw_is_sigmoid_of_score():
    model = TrainedModel("logistic", np.array([1.0, -2.0]), None,
                         add_bias=False)
    X = np.array([[0.5, 0.25]])
    want = expit(0.5 - 0.5)
    assert predict(model, X, raw_value=True)[0] == \
        pytest.approx(want)


def test_predict_logistic_raw_matches_expit_without_overflow():
    scores = np.array([-1e4, -700.0, -30.0, -1.0, -1e-9, -0.0, 0.0, 1e-9,
                       1.0, 30.0, 700.0, 1e4])
    model = TrainedModel("logistic", np.array([1.0]), None, add_bias=False)
    got = predict(model, scores[:, None], raw_value=True)
    np.testing.assert_allclose(got, expit(scores), rtol=1e-15, atol=0)


# -- SVM ---------------------------------------------------------------------------

def test_fit_svm_linear_separates_clean_data():
    X, y = _toy(n=300, seed=2)
    bounds = [Bounds(-2, 2), Bounds(-2, 2)]
    model = fit_svm(X, y, bounds, ErmConfig(PrivacyBudget(5.0), 0.1),
                    add_bias=True, rng=RandomSource(1))
    acc = float(np.mean(predict(model, X) == y))
    assert acc > 0.8
    assert model.kind == "svm_linear"


def test_fit_svm_weighted_output_path():
    X, y = _toy(n=100, seed=4)
    bounds = [Bounds(-2, 2), Bounds(-2, 2)]
    w = np.linspace(0.1, 1.0, 100)
    model = fit_svm(X, y, bounds, ErmConfig(PrivacyBudget(2.0), 1.0),
                    weights=w, rng=RandomSource(5))
    assert model.coefficients.shape == (2,)


def test_fit_svm_gaussian_refuses_bounds():
    X, y = _toy(n=100, seed=5)
    cfg = ErmConfig(PrivacyBudget(5.0), 0.1)
    with pytest.raises(ValueError, match="reads no column bounds"):
        fit_svm(X, y, [Bounds(-2, 2), Bounds(-2, 2)], cfg,
                kernel="gaussian", rff_dim=30, rng=RandomSource(6))


def test_fit_svm_gaussian_validation():
    X, y = _toy(n=50)
    cfg = ErmConfig(PrivacyBudget(1.0), 1.0)
    with pytest.raises(ValueError):
        fit_svm(X, y, None, cfg, kernel="gaussian", rng=RandomSource(0))
    with pytest.raises(ValueError):
        fit_svm(X, y, None, cfg, kernel="gaussian", rff_dim=10,
                add_bias=True, rng=RandomSource(0))
    with pytest.raises(ValueError):
        fit_svm(X, y, None, cfg, kernel="poly", rng=RandomSource(0))
    with pytest.raises(ValueError):
        fit_svm(X, y, None, cfg, kernel="linear", rng=RandomSource(0))


def test_fit_svm_gaussian_learns_radial_pattern():
    # Labels depend on distance from the origin: linearly inseparable.
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(500, 2))
    y = (np.linalg.norm(X, axis=1) < 0.6).astype(float)
    cfg = ErmConfig(PrivacyBudget(20.0), 0.5, perturbation="objective")
    model = fit_svm(X, y, None, cfg, kernel="gaussian", rff_dim=100,
                    kernel_param=4.0, rng=RandomSource(8))
    acc = float(np.mean(predict(model, X) == y))
    assert acc > 0.75


def test_fits_without_rng_draw_fresh_noise():
    X, y = _toy(n=100, seed=9)
    bounds = [Bounds(-2, 2), Bounds(-2, 2)]
    cfg = ErmConfig(PrivacyBudget(1.0), 1.0)
    fits = [
        lambda: fit_logistic(X, y, bounds, cfg),
        lambda: fit_svm(X, y, None, cfg, kernel="gaussian", rff_dim=10),
        lambda: fit_linreg(X[:, :1], X[:, 1], bounds, PrivacyBudget(1.0),
                           1.0),
    ]
    for fit in fits:
        first, second = fit(), fit()
        assert not np.array_equal(first.coefficients, second.coefficients)


# -- random features ----------------------------------------------------------------

def test_rff_projection_deterministic_from_seed():
    a = RffProjection.create(3, 20, 0.5, seed=42)
    b = RffProjection.create(3, 20, 0.5, seed=42)
    assert np.array_equal(a.frequencies, b.frequencies)
    assert np.array_equal(a.phases, b.phases)


def test_rff_kernel_approximation():
    # 2 v(x).v(x') estimates exp(-beta ||x - x'||^2).
    beta = 0.7
    proj = RffProjection.create(2, 4000, beta, seed=0)
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(8, 2))
    V = proj.transform(X)
    approx = 2.0 * V @ V.T
    dist = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    exact = np.exp(-beta * dist)
    assert np.max(np.abs(approx - exact)) < 0.06


def test_rff_transform_norm_bound():
    proj = RffProjection.create(3, 25, 1.0, seed=9)
    X = np.random.default_rng(2).normal(scale=10.0, size=(40, 3))
    V = proj.transform(X)
    assert np.all(np.linalg.norm(V, axis=1) <= 1.0 + 1e-12)


# -- linear regression ----------------------------------------------------------------

def test_fit_linreg_huge_epsilon_recovers_line():
    rng = np.random.default_rng(3)
    x = rng.uniform(-3, 3, 400)
    y = 0.5 * x + 1.0
    bounds = [Bounds(-3, 3), Bounds(-3.5, 5.5)]  # loose target bounds
    model = fit_linreg(x[:, None], y, bounds, HUGE, 1e-6, add_bias=True,
                       rng=RandomSource(0))
    assert model.coefficients[0] == pytest.approx(1.0, abs=1e-2)
    assert model.coefficients[1] == pytest.approx(0.5, abs=1e-2)
    pred = predict(model, x[:, None])
    assert np.max(np.abs(pred - y)) < 0.05


def test_fit_linreg_bounds_are_contracts():
    x = np.array([0.0, 5.0])
    y = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        fit_linreg(x[:, None], y, [Bounds(-1, 1), Bounds(0, 1)],
                   PrivacyBudget(1.0), 1.0, rng=RandomSource(0))
    with pytest.raises(ValueError):
        fit_linreg(np.zeros((2, 1)), np.array([0.0, 9.0]),
                   [Bounds(-1, 1), Bounds(0, 1)], PrivacyBudget(1.0), 1.0,
                   rng=RandomSource(0))
    with pytest.raises(ValueError):  # bounds must cover X columns plus y
        fit_linreg(np.zeros((2, 1)), y, [Bounds(-1, 1)], PrivacyBudget(1.0),
                   1.0, rng=RandomSource(0))


NO_ROWS = "the data have no rows; a fit needs at least one"


@pytest.mark.parametrize("fit", [
    lambda X, y: fit_linreg(X, y, [Bounds(-1, 1)] * 3, PrivacyBudget(1.0),
                            1.0, rng=RandomSource(0)),
    lambda X, y: fit_logistic(X, y, [Bounds(-1, 1)] * 2,
                              ErmConfig(PrivacyBudget(1.0), 1.0),
                              rng=RandomSource(0)),
    lambda X, y: fit_svm(X, y, [Bounds(-1, 1)] * 2,
                         ErmConfig(PrivacyBudget(1.0), 1.0),
                         rng=RandomSource(0)),
    lambda X, y: fit_svm(X, y, None, ErmConfig(PrivacyBudget(1.0), 1.0),
                         "gaussian", rff_dim=10, rng=RandomSource(0)),
], ids=["linreg", "logistic", "svm-linear", "svm-gaussian"])
def test_fits_refuse_zero_rows(fit):
    with pytest.raises(ValueError, match=NO_ROWS):
        fit(np.zeros((0, 2)), np.zeros(0))


def test_fit_linreg_refuses_targets_that_do_not_match_the_rows():
    for y in (np.zeros(0), np.zeros(3)):
        with pytest.raises(ValueError, match="targets must be a vector "
                           "matching the rows of X"):
            fit_linreg(np.zeros((2, 1)), y, [Bounds(-1, 1), Bounds(0, 1)],
                       PrivacyBudget(1.0), 1.0, rng=RandomSource(0))


@pytest.mark.parametrize("add_bias", [False, True])
def test_fit_linreg_clips_a_tolerated_target_to_the_bound(add_bias):
    # Scaled by a narrow bound, the 0.5e-9 tolerance lands far past p; the
    # fit proceeds as if the target sat on the bound.
    x = np.linspace(-1.0, 1.0, 20)[:, None]
    bounds = [Bounds(-1, 1), Bounds(0.0, 1e-6)]
    y = np.full(20, 5e-7)
    y[3] = 1e-6
    at_bound = fit_linreg(x, y, bounds, PrivacyBudget(1.0), 1.0, add_bias,
                          RandomSource(2))
    y[3] = 1e-6 + 0.5e-9
    past = fit_linreg(x, y, bounds, PrivacyBudget(1.0), 1.0, add_bias,
                      RandomSource(2))
    assert np.array_equal(past.coefficients, at_bound.coefficients)


def test_fit_linreg_noise_shrinks_with_epsilon():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 300)
    y = np.clip(0.4 * x, -2, 2)
    bounds = [Bounds(-1, 1), Bounds(-2, 2)]
    err = {}
    for eps in (0.5, 50.0):
        budget = PrivacyBudget(eps)
        slopes = [fit_linreg(x[:, None], y, bounds, budget, 1.0,
                             rng=RandomSource(s)).coefficients[0]
                  for s in range(30)]
        err[eps] = float(np.std(slopes))
    assert err[0.5] > 2.0 * err[50.0]


# -- serialization and dispatch ---------------------------------------------------------

def test_model_json_round_trip_bit_exact(tmp_path):
    X, y = _toy(n=80, seed=6)
    bounds = [Bounds(-2, 2), Bounds(-2, 2)]
    model = fit_logistic(X, y, bounds, ErmConfig(PrivacyBudget(1.0), 1.0),
                         add_bias=True, rng=RandomSource(7))
    path = tmp_path / "model.json"
    model.save(path)
    loaded = TrainedModel.load(path)
    assert np.array_equal(loaded.coefficients, model.coefficients)
    assert np.array_equal(loaded.scaler.column_divisors,
                          model.scaler.column_divisors)
    assert loaded.scaler.global_divisor == model.scaler.global_divisor
    assert loaded.to_json() == model.to_json()
    assert np.array_equal(predict(loaded, X), predict(model, X))


def test_rff_model_round_trip_reconstructs_projection(tmp_path):
    X, y = _toy(n=60, seed=8)
    cfg = ErmConfig(PrivacyBudget(2.0), 0.5)
    model = fit_svm(X, y, None, cfg, kernel="gaussian", rff_dim=25,
                    rng=RandomSource(9))
    path = tmp_path / "svm.json"
    model.save(path)
    loaded = TrainedModel.load(path)
    assert np.array_equal(loaded.rff.frequencies, model.rff.frequencies)
    assert np.array_equal(loaded.rff.phases, model.rff.phases)
    assert np.array_equal(predict(loaded, X), predict(model, X))


def test_predict_dispatch_and_validation():
    model = TrainedModel("mystery", np.zeros(2), None, False)
    with pytest.raises(ValueError):
        predict(model, np.zeros((1, 2)))
    lin = TrainedModel("linear", np.array([2.0]), None, False)
    assert predict(lin, np.array([[3.0]]))[0] == 6.0
    with pytest.raises(ValueError):
        predict(lin, np.zeros((1, 3)))
    assert predict(lin, np.array([[3.0]]), raw_value=True)[0] == 6.0


def test_predict_svm_raw_is_the_margin():
    model = TrainedModel("svm_linear", np.array([0.5, 1.0, -2.0]), None,
                         add_bias=True)
    X = np.array([[1.0, 0.5], [0.0, 1.0]])
    assert np.array_equal(predict(model, X, raw_value=True), [0.5, -1.5])
    assert np.array_equal(predict(model, X), [1.0, 0.0])


@pytest.mark.parametrize("edit, key", [
    (lambda d: d.clear(), "scaler"),
    (lambda d: d.pop("coefficients"), "coefficients"),
    (lambda d: d.update(coefficients="0.1,0.2"), "coefficients"),
    (lambda d: d.update(coefficients=[0.1, "x", 0.3]), "coefficients"),
    (lambda d: d.update(add_bias=1), "add_bias"),
    (lambda d: d.update(kind=None), "kind"),
    (lambda d: d.update(config=[]), "config"),
    (lambda d: d.update(huber_h=True), "huber_h"),
    (lambda d: d["scaler"].pop("global_divisor"), "global_divisor"),
    (lambda d: d.update(rff={"dim": 2, "beta": 1.0, "seed": 1.5, "p": 2}),
     "seed"),
])
def test_malformed_model_file_names_the_key(edit, key):
    model = TrainedModel("logistic", np.array([0.1, 0.2, 0.3]),
                         FeatureScaler(np.ones(3), 1.0), add_bias=True)
    doc = json.loads(model.to_json())
    edit(doc)
    with pytest.raises(ValueError, match=repr(key)):
        TrainedModel.from_json(json.dumps(doc))


@pytest.mark.parametrize("dim,beta,message", [
    (0, 1.0, "projection dimension must be positive"),
    (-3, 1.0, "projection dimension must be positive"),
    (10, 0.0, "kernel parameter must be finite and positive"),
    (10, -0.5, "kernel parameter must be finite and positive"),
    # sqrt(2 beta), the frequencies' scale, is infinite or NaN.
    (10, math.inf, "kernel parameter must be finite and positive"),
    (10, 1e308, "kernel parameter must be finite and positive"),
    (10, math.nan, "kernel parameter must be finite and positive"),
])
def test_rff_projection_refuses_a_bad_dimension_or_kernel_parameter(
        dim, beta, message):
    with pytest.raises(ValueError, match=message):
        RffProjection.create(2, dim, beta, 1)


def test_a_fit_refuses_a_bounds_list_of_another_length_than_the_columns():
    y = np.array([0, 1, 0, 1])
    cfg = ErmConfig(PrivacyBudget(1.0), 1.0)
    # A vector is one column.
    for X, pairs in ((np.zeros((4, 2)), 1), (np.zeros((4, 2)), 3),
                     (np.zeros(4), 2)):
        with pytest.raises(ValueError, match="one bounds pair per column is "
                           "required"):
            fit_logistic(X, y, [Bounds(-1, 1)] * pairs, cfg,
                         rng=RandomSource(0))
