"""Golden gate: tiny pinned configs must reproduce their stored
metrics.csv (``<name>.csv``) and summary.csv (``<name>.summary.csv``).

Together the configs cover every strategy, loss weights, and arms that
hit their d^2 cap (in the initialization and later). Text and integer
columns must match exactly and float columns to a relative 1e-9, inf
matching inf. Every job's trace must also obey the run loop's laws
(``trace_violation``), weighted selection included.

Regenerate the stored files (only when a change of numerics is
intended) with:

    PYTHONPATH=src python tests/test_golden.py
"""
import csv
import math
import sys
from pathlib import Path

import pytest

from amcsim import (
    Discretized,
    EstimatorConfig,
    ExperimentConfig,
    StrategySpec,
    aggregate,
    run_experiment,
    write_metrics_csv,
    write_summary_csv,
)
from amcsim.checks import trace_violation

GOLDEN_DIR = Path(__file__).parent / "golden"

STRATEGIES = (
    StrategySpec("malocate", p=1.0),
    StrategySpec("malocate", p=math.inf, weights=(2.0, 1.0)),
    StrategySpec("uniform"),
    StrategySpec("oracle"),
)


def _config(name, **overrides):
    base = dict(
        experiment=name,
        dims=(8, 10),
        ranks=(1, 2),
        sigma=0.1,
        reps=2,
        seed=5,
        estimator=EstimatorConfig(max_iters=30, tol=1e-4),
        confidence_scale=0.0625,
        strategies=STRATEGIES,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


CONFIGS = {
    "discretized_reuse_by_mult": _config(
        "discretized_reuse_by_mult", dims=(9, 12), ranks=(2, 3),
        schedule=Discretized(4, 6), budget=112,
    ),
    # d = 6 arms: init 8 * 6 = 48 is clamped to the cap 36, then every
    # arm is capped and the run ends early.
    "discretized_capped_init": _config(
        "discretized_capped_init", dims=(6, 6), ranks=(1, 2),
        schedule=Discretized(8, 4), budget=100, reps=1,
    ),
}

# (text and int columns, float columns) of each output file.
METRICS_COLUMNS = (
    ("experiment", "strategy", "p", "rep", "seed", "t", "k", "T_k"),
    ("B_k", "true_err_k", "loss_p1", "loss_pinf"),
)
SUMMARY_COLUMNS = (
    ("strategy", "p", "t", "n_reps"),
    tuple(
        f"{loss}_{stat}"
        for loss in ("loss_p1", "loss_pinf")
        for stat in ("median", "mean", "q25", "q75")
    ),
)


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_matches(got_path, want_path, columns):
    exact, floats = columns
    got, want = _read(got_path), _read(want_path)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        for col in exact:
            assert g[col] == w[col], (i, col)
        for col in floats:
            gv, wv = float(g[col]), float(w[col])
            if math.isinf(wv):
                assert gv == wv, (i, col)
            else:
                assert gv == pytest.approx(wv, rel=1e-9, abs=0.0), (i, col)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_metrics_match_golden(name, tmp_path):
    result = run_experiment(CONFIGS[name], str(tmp_path))
    _assert_matches(tmp_path / "metrics.csv", GOLDEN_DIR / f"{name}.csv", METRICS_COLUMNS)
    for _, strategy, trace in result.jobs:
        assert trace_violation(result.cfg, strategy, trace) is None, strategy.label


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_summary_matches_golden(name, tmp_path):
    run_experiment(CONFIGS[name], str(tmp_path))
    _assert_matches(
        tmp_path / "summary.csv", GOLDEN_DIR / f"{name}.summary.csv", SUMMARY_COLUMNS
    )


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, cfg in CONFIGS.items():
        result = run_experiment(cfg)
        write_metrics_csv(result, str(GOLDEN_DIR / f"{name}.csv"))
        write_summary_csv(aggregate(result), str(GOLDEN_DIR / f"{name}.summary.csv"))
        print(f"wrote {GOLDEN_DIR / name}.csv and .summary.csv", file=sys.stderr)
