"""Supervised joint and individual variation explained.

Decomposes multiple data sources sharing samples into a low-rank joint part
and per-source individual parts while simultaneously fitting a linear
predictor of a continuous outcome, with cross-validated weight/rank
selection, comparison baselines, a synthetic-data generator and evaluation
metrics.
"""

from .archive import load_model, load_truth, save_model, save_truth
from .baselines import (
    BaselineModel,
    baseline_predict,
    fit_jive_predict,
    fit_pca_regression,
)
from .core import (
    FitConfig,
    FitReport,
    Ranks,
    SJiveModel,
    fit,
    objective,
    rescale_identifiable,
)
from .data import (
    CompressedBlock,
    MultiSourceDataset,
    Outcome,
    compress,
    decompress_loadings,
    destandardize_outcome,
    load_csv,
    standardize,
    standardize_with,
)
from .errors import (
    ConfigError,
    DegeneracyError,
    InputError,
    ParseError,
    RankError,
    ShapeError,
    SJiveError,
)
from .metrics import (
    ComponentInference,
    component_inference,
    meta_loadings,
    recovery_error,
    test_mse,
    win_rate,
)
from .predict import ScoreEstimate, estimate_scores, predict
from .selection import (
    DEFAULT_ETA_GRID,
    CvPlan,
    SelectionTrace,
    make_cv_plan,
    select_model,
)
from .simulate import SimConfig, SimTruth, eigen_signal_report, generate, train_test_split

__version__ = "0.1.0"

__all__ = [
    "BaselineModel",
    "ComponentInference",
    "CompressedBlock",
    "ConfigError",
    "CvPlan",
    "DEFAULT_ETA_GRID",
    "DegeneracyError",
    "FitConfig",
    "FitReport",
    "InputError",
    "MultiSourceDataset",
    "Outcome",
    "ParseError",
    "RankError",
    "Ranks",
    "SJiveError",
    "SJiveModel",
    "ScoreEstimate",
    "SelectionTrace",
    "ShapeError",
    "SimConfig",
    "SimTruth",
    "baseline_predict",
    "component_inference",
    "compress",
    "decompress_loadings",
    "destandardize_outcome",
    "eigen_signal_report",
    "estimate_scores",
    "fit",
    "fit_jive_predict",
    "fit_pca_regression",
    "generate",
    "load_csv",
    "load_model",
    "load_truth",
    "make_cv_plan",
    "meta_loadings",
    "objective",
    "predict",
    "recovery_error",
    "rescale_identifiable",
    "save_model",
    "save_truth",
    "select_model",
    "standardize",
    "standardize_with",
    "test_mse",
    "train_test_split",
    "win_rate",
]
