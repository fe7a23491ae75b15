"""Noisy gradient descent vs tuned linear estimators on teacher-student regression."""

from .model import (
    ScheduleConfig,
    TeacherSpec,
    eval_network,
    h_norm,
    hgamma_norm,
    sample_teacher,
    bump_teacher,
)
from .data import Dataset, generate_dataset, empirical_risk
from .ngd import NgdConfig, run_chain, mixing_diagnostic
from .linear import tune, fit_estimator, knn_predict, nw_predict
from .risk import (
    excess_risk_mc,
    rate_fit,
    linear_lower_exponents,
    nn_upper_exponent,
    dominance_condition,
)
from .lowerbound import BumpApproxConfig, build_bump_approx, gauss_bump, sup_error
from .config import ExperimentConfig, parse_config, ConfigError
from .sweep import RiskRecord, run_sweep, report

__version__ = "0.1.0"
