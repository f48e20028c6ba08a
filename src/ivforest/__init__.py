"""Regression for interval-valued data: random forests, kernel smoothing,
and linear center/radius baselines, plus a seeded simulation benchmark."""

from .errors import (
    ConfigError,
    DegenerateTruthError,
    DimensionError,
    EmptySampleError,
    IvforestError,
    NumericError,
    OOBUnavailableError,
    ParseError,
    SplitError,
    UnderdeterminedError,
    UnknownSettingError,
)
from .evaluate import (
    EvalReport,
    ExperimentResult,
    ExperimentSpec,
    evaluate,
    evaluate_frame,
    run_experiment,
    run_real_data,
)
from .forest import ForestFit, ForestParams, fit_forest, predict_forest_frame
from .frame import IntervalFrame, SplitSpec, coherence_report, load_csv, split, write_csv
from .intervals import PredictionSet, delta_distance, hausdorff, hyper_distance, w_distance
from .kernel import KernelFit, fit_kernel, predict_kernel_frame, select_bandwidth
from .linear import LinearFit, fit_linear, nnls, ols, predict_linear
from .models import MODELS, fit_model, model_from_json, model_to_json, predict_model
from .simulate import SimSetting, simulate

__version__ = "0.1.0"
