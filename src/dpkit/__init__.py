"""Differentially private statistics and machine learning toolkit."""

from .accountant import BudgetExhaustedError, BudgetLedger, LedgerEntry
from .erm import (ErmConfig, LossSpec, SolverNotConvergedError, erm_cms,
                  erm_kst)
from .mechanisms import (APPROXIMATE, PROBABILISTIC, PURE, BudgetAllocation,
                         PrivacyBudget, RandomSource, exponential_mechanism,
                         gaussian_mechanism, gaussian_sigma,
                         laplace_mechanism)
from .models import (TrainedModel, fit_linreg, fit_logistic, fit_svm,
                     huber_loss, logistic_loss, predict)
from .stats import (Bounds, HistogramSpec, StatRequest, StatResult, cov_dp,
                    histogram_dp, mean_dp, median_dp, pooled_cov_dp,
                    pooled_var_dp, quantile_dp, sd_dp, table_dp, var_dp)
from .tuning import (Candidate, TuningResult, split_folds,
                     tune_classification, tune_linreg)

__version__ = "0.1.0"

__all__ = [
    "APPROXIMATE", "PROBABILISTIC", "PURE",
    "Bounds", "BudgetAllocation", "BudgetExhaustedError", "BudgetLedger",
    "Candidate", "ErmConfig", "HistogramSpec", "LedgerEntry",
    "LossSpec", "PrivacyBudget", "RandomSource",
    "SolverNotConvergedError", "StatRequest", "StatResult", "TrainedModel",
    "TuningResult", "cov_dp", "erm_cms", "erm_kst", "exponential_mechanism",
    "fit_linreg", "fit_logistic", "fit_svm", "gaussian_mechanism",
    "gaussian_sigma", "histogram_dp", "huber_loss", "laplace_mechanism",
    "logistic_loss", "mean_dp", "median_dp", "pooled_cov_dp",
    "pooled_var_dp", "predict", "quantile_dp", "sd_dp", "split_folds",
    "table_dp", "tune_classification", "tune_linreg", "var_dp",
]
