"""Gaussian process regression toolkit for battery capacity prognostics.

The package covers the full pipeline: loading per-cell capacity fade
records, fitting exact GP regression models with compound kernels and
parametric mean functions, searching over kernel structures, decomposing
posteriors into per-component credible bands, and rolling end-of-life
evaluations for single cells or fleets of related cells.
"""

from .dataset import (
    CapacitySeries,
    Fleet,
    load_csv,
    rolling_origins,
    save_csv,
    split,
)
from .errors import (
    BoundsError,
    ConfigError,
    ContractError,
    DataError,
    DegenerateInputError,
    GpprogError,
    InputError,
    NumericalError,
    SchemaError,
    TrainingError,
    UndefinedMetricError,
    UsageError,
)
from .gp import GpModel, Posterior, PosteriorComponent, default_lhs_bounds, jittered_cholesky
from .kernels import (
    Hyperparameters,
    Kernel,
    LabelCovariance,
    LabeledInput,
    Matern,
    Periodic,
    Product,
    SquaredExponential,
    Sum,
    WhiteNoise,
    base_kernel,
    format_kernel,
    label_covariance,
    mogp_gram,
    parse_kernel,
    sum_terms,
)
from .meanfn import (
    Constant,
    ExpDegradation,
    MeanFunction,
    Zero,
    mean_from_token,
    mean_params,
)
from .optimize import (
    KernelSearchResult,
    RestartRecord,
    SearchEntry,
    TrainConfig,
    TrainResult,
    candidate_pairs,
    kernel_search,
    model_for_series,
    train,
)
from .prognostics import (
    EolForecast,
    EvaluationReport,
    GpForecaster,
    LookaheadResult,
    LookaheadRow,
    OriginRecord,
    ar_baseline,
    ar_lookahead,
    evaluate,
    evaluate_mogp,
    find_eol,
    forecast_eol,
    forecast_grid,
    lookahead,
    rmse_eol,
    rmse_q,
    true_end_of_life,
)

__version__ = "0.1.0"
