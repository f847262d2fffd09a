"""shiftminer: mine, prune, and augment time series with distributional shifts.

The pipeline has four stages: query generation by an LLM and collection
from public data APIs, both through one record/replay transport, pruning
by penalized offline change point detection, and time-dimension
augmentation of the survivors.
"""

from .augment import AugmentConfig, augment_set, gen_warp_path, time_warp, window_slice, window_warp
from .changepoint import (
    ChangePointSet,
    DetectorConfig,
    ShiftCategory,
    binary_segmentation,
    classify,
    exact_segmentation,
    l2_cost,
    prune,
    total_objective,
)
from .metrics import QuantileForecast, mae_coverage, mse, mse_variance
from .pipeline import PipelineConfig, report, run, split_train_test
from .series import (
    AugmentMethod,
    Provenance,
    Source,
    Stage,
    TimeSeries,
    min_max_normalize,
)
from .sources import SourceQuery, dedup_queries, fetch, validate_query
from .storage import DatasetManifest, load_series, save_series

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig",
    "AugmentMethod",
    "ChangePointSet",
    "DatasetManifest",
    "DetectorConfig",
    "PipelineConfig",
    "Provenance",
    "QuantileForecast",
    "ShiftCategory",
    "Source",
    "SourceQuery",
    "Stage",
    "TimeSeries",
    "augment_set",
    "binary_segmentation",
    "classify",
    "dedup_queries",
    "exact_segmentation",
    "fetch",
    "gen_warp_path",
    "l2_cost",
    "load_series",
    "mae_coverage",
    "min_max_normalize",
    "mse",
    "mse_variance",
    "prune",
    "report",
    "run",
    "save_series",
    "split_train_test",
    "time_warp",
    "total_objective",
    "validate_query",
    "window_slice",
    "window_warp",
]
