"""erlfit: the five-parameter extended Rayleigh-Lomax family.

Distribution functions, quantiles and sampling, moment machinery,
maximum-likelihood fitting of the family and its named sub-models,
EDF goodness-of-fit statistics and information criteria, plus a batch
CLI (`erlfit`) over all of it.
"""

from .baseline import baseline_moment_series, baseline_quantile
from .core import (
    ErlParams,
    erl_cdf,
    erl_central_moments,
    erl_cv,
    erl_hazard,
    erl_kurtosis,
    erl_pdf,
    erl_quantile,
    erl_raw_moment,
    erl_reversed_hazard,
    erl_sample,
    erl_skewness,
    erl_survival,
    normalization_check,
)
from .errors import InputError, NumericalError
from .estimation import (
    Dataset,
    FitConfig,
    FitResult,
    fit_mle,
    nll,
    score_ab,
    standard_errors,
)
from .gof import (
    CriteriaReport,
    GofReport,
    gof_report,
    info_criteria,
    ks_pvalue,
    sample_kurtosis,
    sample_skewness,
)
from .specfun import inv_reg_inc_beta, log_beta, log_gamma, reg_inc_beta
from .submodels import DEFAULT_COMPARE, MODELS, ModelSpec, get_model

__version__ = "0.1.0"

__all__ = [
    "CriteriaReport",
    "DEFAULT_COMPARE",
    "Dataset",
    "ErlParams",
    "FitConfig",
    "FitResult",
    "GofReport",
    "InputError",
    "MODELS",
    "ModelSpec",
    "NumericalError",
    "baseline_moment_series",
    "baseline_quantile",
    "erl_cdf",
    "erl_central_moments",
    "erl_cv",
    "erl_hazard",
    "erl_kurtosis",
    "erl_pdf",
    "erl_quantile",
    "erl_raw_moment",
    "erl_reversed_hazard",
    "erl_sample",
    "erl_skewness",
    "erl_survival",
    "fit_mle",
    "get_model",
    "gof_report",
    "info_criteria",
    "inv_reg_inc_beta",
    "ks_pvalue",
    "log_beta",
    "log_gamma",
    "nll",
    "normalization_check",
    "reg_inc_beta",
    "sample_kurtosis",
    "sample_skewness",
    "score_ab",
    "standard_errors",
]
