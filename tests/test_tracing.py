"""The names and results that bench/tracing.py relies on.

The tracer wraps the package's layer boundaries by name from outside
the package and reads the run's result and traces. A traced in-process
run must patch the same 14 names, count every metrics.csv row, see
the refits, time every strategy's selection and see accepted bands.
It counts a fit's iterations as its ``np.linalg.svd`` calls, so each
step of a fit, on either SVT route, must make exactly one.
"""
import importlib.util
import json
import math
from pathlib import Path

import numpy
import pytest

import amcsim.cli as cli
import amcsim.estimators as estimators
import amcsim.harness as harness
import amcsim.strategies as strategies
from amcsim import (
    Discretized,
    EstimatorConfig,
    ExperimentConfig,
    MatrixSpec,
    StrategySpec,
    config_to_dict,
    generate_ground_truth,
    named_stream,
    new_samples,
    soft_impute_fit,
    split_dataset,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# (module, attribute, name install() reports), in install() order.
PATCH_POINTS = [
    (cli, "run_experiment", "amcsim.cli.run_experiment"),
    (harness, "generate_ground_truth", "amcsim.harness.generate_ground_truth"),
    (harness, "malocate_run", "amcsim.harness.malocate_run"),
    (harness, "uniform_run", "amcsim.harness.uniform_run"),
    (harness, "oracle_run", "amcsim.harness.oracle_run"),
    (harness, "write_metrics_csv", "amcsim.harness.write_metrics_csv"),
    (harness, "write_summary_csv", "amcsim.harness.write_summary_csv"),
    (harness, "aggregate", "amcsim.harness.aggregate"),
    (strategies, "new_samples", "amcsim.strategies.new_samples"),
    (strategies, "split_dataset", "amcsim.strategies.split_dataset"),
    (strategies, "soft_impute_fit", "amcsim.strategies.soft_impute_fit"),
    (strategies, "estimate_error_bound", "amcsim.strategies.estimate_error_bound"),
    (strategies, "_run", "amcsim.strategies._run.chooser"),
    (numpy.linalg, "svd", "numpy.linalg.svd"),
]


@pytest.fixture
def tracing(monkeypatch):
    """bench/tracing.py as a module; the names it patches are restored afterwards."""
    for module, attr, _ in PATCH_POINTS:
        monkeypatch.setattr(module, attr, getattr(module, attr))
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_keeps_tracer_contract(tracing, tmp_path):
    cfg = ExperimentConfig(
        experiment="traced",
        dims=(8, 10),
        ranks=(1, 2),
        budget=82,
        reps=2,
        seed=3,
        schedule=Discretized(init_multiplier=2, num_batches=4),
        estimator=EstimatorConfig(max_iters=20, tol=1e-4),
        strategies=(
            StrategySpec("malocate", p=math.inf),
            StrategySpec("uniform"),
            StrategySpec("oracle"),
        ),
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    out = tmp_path / "out"

    tracer = tracing.Tracer()
    assert tracing.install(tracer) == [name for _, _, name in PATCH_POINTS]
    code = tracer.wrap("cli.main", cli.main)(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0

    metrics = tracing.layer_metrics(tracer.spans)
    data_lines = len((out / "metrics.csv").read_text().splitlines()) - 1
    assert data_lines > 0
    assert metrics["harness.rows"] == data_lines
    assert metrics["strategies.refits"] > 0
    # Every chooser reaches _run as chooser=, and band spans map to arms
    # through MatrixEstimate.index.
    assert metrics["strategies.select_s"] > 0
    assert metrics["strategies.accept_share"] > 0
    # The split, fit and band hooks still see every refit.
    assert metrics["error_bounds.split_s"] > 0
    assert metrics["error_bounds.pairs_per_band"] > 0
    assert metrics["estimators.fit_calls"] == metrics["strategies.refits"]


# One d on each side of the size at which the fit's SVT step switches
# from the dense SVD to the Gram and subspace steps.
@pytest.mark.parametrize("d", [estimators._DENSE_MAX_DIM, estimators._DENSE_MAX_DIM + 1])
def test_svd_calls_are_fit_iterations(monkeypatch, d):
    # The tracer reads a fit's iterations as its np.linalg.svd calls, so
    # every step makes exactly one, a dropped momentum step included. The
    # second step, the first with momentum, is pushed far from the data
    # here, so the fit drops it.
    spec = MatrixSpec(index=1, dim=d, rank_bound=2)
    draws = new_samples(generate_ground_truth(spec, 5), 0.1, d * d // 2, named_stream(5, d))
    train = split_dataset(draws)[0]
    svd, step = numpy.linalg.svd, estimators._svt_step
    svd_calls, exact_steps = [], []

    def counted_svd(*args, **kwargs):
        svd_calls.append(args[0].shape)
        return svd(*args, **kwargs)

    def pushed_step(m, theta, basis=None):
        z, shrunk, next_basis = step(m, theta, basis)
        exact_steps.append(basis is None)
        return (z + 1e3 if len(exact_steps) == 2 else z), shrunk, next_basis

    monkeypatch.setattr(numpy.linalg, "svd", counted_svd)
    monkeypatch.setattr(estimators, "_svt_step", pushed_step)
    est = soft_impute_fit(train, spec, EstimatorConfig())
    assert est.converged and est.iterations > 2
    assert len(svd_calls) == len(exact_steps) == est.iterations
    # The dense route decomposes m itself; the Gram route m times the kept
    # directions, and the subspace step m projected onto fewer than d.
    dense = d <= estimators._DENSE_MAX_DIM
    assert all((shape == (d, d)) == dense for shape in svd_calls)
    # Above the switch, subspace steps run between an exact first and last step.
    assert exact_steps[0] and exact_steps[-1] and all(exact_steps) == dense
