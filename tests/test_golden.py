"""Golden gate: tiny pinned configs must reproduce their stored metrics.csv.

Together the configs cover both schedules, both splits, sample reuse on
and off, every strategy with and without loss weights, and arms that hit
their d^2 cap (in the initialization and later). Integer columns must
match exactly and float columns to a relative 1e-9, inf matching inf.

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
    Doubling,
    EstimatorConfig,
    ExperimentConfig,
    SplitMode,
    StrategySpec,
    run_experiment,
    write_metrics_csv,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

STRATEGIES = (
    StrategySpec("malocate", p=1.0),
    StrategySpec("malocate", p=math.inf, weights=(2.0, 1.0)),
    StrategySpec("uniform"),
    StrategySpec("oracle"),
    StrategySpec("oracle", weights=(1.0, 3.0)),
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
    # Doubling never reuses samples; the budget exceeds both caps.
    "doubling_halves": _config(
        "doubling_halves", schedule=Doubling(), split=SplitMode.HALVES, budget=200,
    ),
    "doubling_by_mult": _config(
        "doubling_by_mult", dims=(10, 10), ranks=(2, 3), schedule=Doubling(),
        split=SplitMode.BY_MULTIPLICITY, budget=150, seed=6,
    ),
    "discretized_reuse_by_mult": _config(
        "discretized_reuse_by_mult", dims=(9, 12), ranks=(2, 3),
        schedule=Discretized(4, 6, reuse_samples=True),
        split=SplitMode.BY_MULTIPLICITY, budget=112,
    ),
    "discretized_fresh_halves": _config(
        "discretized_fresh_halves", dims=(10, 10), ranks=(2, 3),
        schedule=Discretized(4, 5, reuse_samples=False),
        split=SplitMode.HALVES, budget=130, seed=7,
    ),
    # d = 6 arms: init 8 * 6 = 48 is clamped to the cap 36, then every
    # arm is capped and the run ends early.
    "discretized_capped_init": _config(
        "discretized_capped_init", dims=(6, 6), ranks=(1, 2),
        schedule=Discretized(8, 4, reuse_samples=True),
        split=SplitMode.BY_MULTIPLICITY, budget=100, reps=1,
    ),
}

INT_COLUMNS = ("rep", "seed", "t", "k", "T_k")
FLOAT_COLUMNS = ("B_k", "true_err_k", "loss_p1", "loss_pinf")
TEXT_COLUMNS = ("experiment", "strategy", "p")


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_metrics_match_golden(name, tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(run_experiment(CONFIGS[name]), str(path))
    got, want = _read(path), _read(GOLDEN_DIR / f"{name}.csv")
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        for col in TEXT_COLUMNS + INT_COLUMNS:
            assert g[col] == w[col], (i, col)
        for col in FLOAT_COLUMNS:
            gv, wv = float(g[col]), float(w[col])
            if math.isinf(wv):
                assert gv == wv, (i, col)
            else:
                assert gv == pytest.approx(wv, rel=1e-9, abs=0.0), (i, col)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, cfg in CONFIGS.items():
        write_metrics_csv(run_experiment(cfg), str(GOLDEN_DIR / f"{name}.csv"))
        print(f"wrote {GOLDEN_DIR / name}.csv", file=sys.stderr)
