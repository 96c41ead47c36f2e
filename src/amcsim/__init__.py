"""Active multiple matrix completion: adaptive allocation with honest bands.

Importing the package pins BLAS to one thread per process: it sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
unless they are already set. At the sizes simulated here a multi-threaded
BLAS is slower and competes with the harness's ``threads`` pool, which is
then the only parallelism. The pin takes effect only if ``amcsim`` is
imported before numpy, because the BLAS reads these variables when numpy
loads it.
"""

import os

# Before any submodule import, so before numpy loads its BLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

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
