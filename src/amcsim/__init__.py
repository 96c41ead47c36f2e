"""Active multiple matrix completion: adaptive allocation with honest bands."""

from .error_bounds import (
    ErrorEstimate,
    SplitMode,
    b_value,
    estimate_error_bound,
    split_dataset,
)
from .estimators import (
    EstimatorConfig,
    MatrixEstimate,
    lambda_for,
    soft_impute_fit,
    svt,
)
from .harness import (
    ExperimentResult,
    MetricsRow,
    aggregate,
    config_from_dict,
    config_to_dict,
    load_config,
    preset_experiment_1,
    preset_experiment_2,
    read_metrics_csv,
    run_experiment,
    scaled,
    write_metrics_csv,
    write_summary_csv,
)
from .problem import (
    Dataset,
    GroundTruth,
    MatrixSpec,
    generate_ground_truth,
    named_stream,
    new_samples,
)
from .strategies import (
    ArmState,
    Discretized,
    Doubling,
    ExperimentConfig,
    RunTrace,
    StrategySpec,
    TraceEvent,
    initial_batch,
    loss_from_errors,
    malocate_run,
    oracle_run,
    select_index,
    uniform_run,
)

__version__ = "0.1.0"
