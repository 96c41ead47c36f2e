"""Experiment orchestration: presets, repetitions, config files, CSV output.

The config types, ``ExperimentConfig`` and ``StrategySpec``, live in
``strategies``, whose runners read them. A config holds what a run
computes, and nothing about where it writes: the output directory is an
argument of ``run_experiment``. A run executes every configured
strategy on the same per-repetition ground truths (paired comparison)
and keeps each job's ``RunTrace``; the traces are the only in-memory
record of a run.
metrics.csv is written straight from their events, one row per (refit
event, matrix), and aggregation reduces the events to
median/mean/quartile curves of the two losses against spent budget.
A strategy is labelled by its kind and p in both files, so no two
strategies of a config may share them. ``MetricsRow`` is what
``read_metrics_csv`` parses a file back into.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from enum import Enum
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .problem import GroundTruth, generate_ground_truth
from .strategies import (
    ExperimentConfig,
    RunTrace,
    StrategySpec,
    malocate_run,
    oracle_run,
    uniform_run,
)

__all__ = [
    "MetricsRow",
    "ExperimentResult",
    "preset_experiment_1",
    "preset_experiment_2",
    "scaled",
    "run_experiment",
    "aggregate",
    "write_metrics_csv",
    "read_metrics_csv",
    "write_summary_csv",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "METRICS_HEADER",
]

METRICS_HEADER = "experiment,strategy,p,rep,seed,t,k,T_k,B_k,true_err_k,loss_p1,loss_pinf"

_ROLE_TRUTH = 0
_ROLE_OBS = 1


@dataclass(frozen=True)
class MetricsRow:
    """One (refit event, matrix) row of a metrics.csv, as read back."""

    experiment: str
    strategy: str
    p: float | None
    rep: int
    seed: int
    t: int
    k: int
    T_k: int
    B_k: float
    true_err_k: float
    loss_p1: float
    loss_pinf: float


def preset_experiment_1() -> ExperimentConfig:
    """Ten 200x200 problems, one rank-40 outlier among rank-10 peers."""
    dims = (200,) * 10
    ranks = (40,) + (10,) * 9
    return ExperimentConfig(
        experiment="exp1",
        dims=dims,
        ranks=ranks,
        budget=10 * 200 * 200 // 2,
    )


def preset_experiment_2() -> ExperimentConfig:
    """Fifteen 200x200 problems with ranks growing like a quartic.

    The rank formula is round(18 + 0.0015 (k-1)^4) for k = 1..15, which
    makes the hardest rank 76 and keeps eight of the fifteen at or
    below 22.
    """
    dims = (200,) * 15
    ranks = tuple(round(18 + 0.0015 * (k - 1) ** 4) for k in range(1, 16))
    return ExperimentConfig(
        experiment="exp2",
        dims=dims,
        ranks=ranks,
        budget=15 * 200 * 200 // 2,
    )


def scaled(cfg: ExperimentConfig, factor: float) -> ExperimentConfig:
    """Desk-scale variant: divide dimensions (and ranks) by ``factor``.

    The budget is recomputed as K d'^2 / 2 so the budget-to-capacity
    ratio of the original is preserved.
    """
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    dims = tuple(max(2, round(d / factor)) for d in cfg.dims)
    ranks = tuple(
        min(d, max(1, round(r / factor))) for d, r in zip(dims, cfg.ranks)
    )
    budget = sum(d * d for d in dims) // 2
    return replace(cfg, dims=dims, ranks=ranks, budget=budget)


def _rep_seed(master_seed: int, rep: int) -> int:
    return int(np.random.SeedSequence((master_seed, rep)).generate_state(1)[0])


def _rep_truths(cfg: ExperimentConfig, rep: int) -> list[GroundTruth]:
    return [
        generate_ground_truth(spec, (cfg.seed, rep, _ROLE_TRUTH, pos))
        for pos, spec in enumerate(cfg.specs())
    ]


@dataclass(frozen=True)
class ExperimentResult:
    """The run traces of an experiment, one per (rep, strategy) job.

    ``jobs`` holds ``(rep, strategy, trace)`` in (rep, strategy) order,
    the order of metrics.csv. ``len()`` is the number of metrics rows:
    one per (job, event, matrix).
    """

    cfg: ExperimentConfig
    jobs: tuple[tuple[int, StrategySpec, RunTrace], ...]

    def __len__(self) -> int:
        return self.cfg.num_matrices * sum(len(trace.events) for _, _, trace in self.jobs)


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | None = None, threads: int = 1
) -> ExperimentResult:
    """Run all configured strategies for every repetition.

    Ground truths are generated once per repetition and shared by all
    strategies, so strategy comparisons are paired. One job is one
    (rep, strategy) run, and up to ``threads`` jobs run concurrently; the
    result does not depend on how many. This pool is the only
    parallelism: importing ``amcsim`` pins BLAS to one thread per process
    unless ``OPENBLAS_NUM_THREADS`` is set.
    Returns an ``ExperimentResult`` holding every job's trace. Given
    ``out_dir``, metrics.csv and summary.csv are written there from
    those traces, next to config.echo.json, which depends on ``cfg``
    alone. ``threads`` < 1 or an uncreatable ``out_dir`` fails before any job.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    truths_by_rep = {rep: _rep_truths(cfg, rep) for rep in range(cfg.reps)}

    def execute(job):
        rep, s_idx = job
        strategy = cfg.strategies[s_idx]
        # Looked up per call, not bound once: tracing wraps these module names.
        runner = {"malocate": malocate_run, "uniform": uniform_run, "oracle": oracle_run}
        rng = (cfg.seed, rep, _ROLE_OBS, s_idx)
        _, trace = runner[strategy.kind](truths_by_rep[rep], cfg, strategy, rng)
        return rep, strategy, trace

    jobs = [(rep, s_idx) for rep in range(cfg.reps) for s_idx in range(len(cfg.strategies))]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        done = list(pool.map(execute, jobs))  # in submission order
    result = ExperimentResult(cfg, tuple(done))

    if out_dir:
        write_metrics_csv(result, os.path.join(out_dir, "metrics.csv"))
        write_summary_csv(aggregate(result), os.path.join(out_dir, "summary.csv"))
        with open(os.path.join(out_dir, "config.echo.json"), "w") as fh:
            json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _fmt_p(p: float | None) -> str:
    if p is None:
        return ""
    return "inf" if math.isinf(p) else f"{p:.17g}"


def write_metrics_csv(result: ExperimentResult, path: str) -> None:
    """Write one row per (job, event, matrix), floats at 17 significant digits.

    The columns an event shares are formatted once, so each matrix costs
    a single ``%`` format; text columns are quoted as ``csv.writer``
    quotes them. The file is written one event at a time.
    """
    cfg = result.cfg
    ks = [spec.index for spec in cfg.specs()]
    with open(path, "w", newline="") as fh:
        fh.write(METRICS_HEADER + "\n")
        for rep, strategy, trace in result.jobs:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow(
                [cfg.experiment, strategy.kind, _fmt_p(strategy.p), rep, _rep_seed(cfg.seed, rep)]
            )
            # A '%' in the experiment name must survive the row format.
            head = buf.getvalue()[:-1].replace("%", "%%")
            for event in trace.events:
                line = (
                    f"{head},{event.t},%d,%d,%.17g,%.17g,"
                    f"{_fmt_float(event.loss_p1)},{_fmt_float(event.loss_pinf)}\n"
                )
                fh.write("".join(
                    line % arm
                    for arm in zip(ks, event.t_values, event.b_values, event.true_errors)
                ))


def read_metrics_csv(path: str) -> list[MetricsRow]:
    """Parse a metrics.csv back into rows (inverse of write_metrics_csv)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != METRICS_HEADER.split(","):
            raise ValueError(f"unexpected metrics header in {path}")
        for exp, strategy, p, *rest in reader:  # rep, seed, t, k, T_k, then 4 floats
            p = None if p == "" else float(p)
            rows.append(MetricsRow(exp, strategy, p, *map(int, rest[:5]), *map(float, rest[5:])))
    return rows


SUMMARY_HEADER = (
    "strategy,p,t,n_reps,"
    "loss_p1_median,loss_p1_mean,loss_p1_q25,loss_p1_q75,"
    "loss_pinf_median,loss_pinf_mean,loss_pinf_q25,loss_pinf_q75"
)


def aggregate(result: ExperimentResult) -> list[dict]:
    """Per (strategy, p, t): median/mean/quartiles of both losses over reps."""
    per_rep: dict[tuple, dict[int, tuple[float, float]]] = {}
    for rep, strategy, trace in result.jobs:
        for event in trace.events:
            group = per_rep.setdefault((strategy.kind, strategy.p, event.t), {})
            group[rep] = (event.loss_p1, event.loss_pinf)
    if not per_rep:
        raise ValueError("no events to aggregate")
    keys = sorted(per_rep, key=lambda g: (g[0], math.inf if g[1] is None else g[1], g[2]))
    by_count: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        by_count.setdefault(len(per_rep[key]), []).append(i)
    stat_cols = SUMMARY_HEADER.split(",")[4:]
    out: list[dict | None] = [None] * len(keys)
    for n_reps, idx in by_count.items():
        # losses[key, loss, rep] with reps contiguous and in ascending
        # order, so one call per statistic over all keys with n_reps reps
        # gives what a call on each key's reps alone gives.
        losses = np.array([list(zip(*per_rep[keys[i]].values())) for i in idx])
        q25, q75 = np.percentile(losses, [25, 75], axis=-1)
        stats = np.stack([np.median(losses, axis=-1), np.mean(losses, axis=-1), q25, q75], -1)
        for i, values in zip(idx, stats.reshape(len(idx), -1).tolist()):
            strategy, p, t = keys[i]
            out[i] = {
                "strategy": strategy, "p": p, "t": t, "n_reps": n_reps,
                **dict(zip(stat_cols, values)),
            }
    return out


def write_summary_csv(summary: list[dict], path: str) -> None:
    cols = SUMMARY_HEADER.split(",")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in summary:
            rec = []
            for c in cols:
                v = row[c]
                if c == "p":
                    rec.append(_fmt_p(v))
                elif isinstance(v, float):
                    rec.append(_fmt_float(v))
                else:
                    rec.append(v)
            writer.writerow(rec)


# --- config (de)serialization ------------------------------------------------
# Both directions follow the dataclass fields and their type hints. A member
# of a union of dataclasses (the schedule) carries its lowercased class name
# under "kind"; an infinite float is the string "inf".


def _members(tp) -> tuple:
    """The non-None members of a union hint, or ``(tp,)`` for any other hint."""
    if get_origin(tp) in (Union, UnionType):
        return tuple(a for a in get_args(tp) if a is not type(None))
    return (tp,)


def _to_json(value, tp):
    if is_dataclass(value):
        hints = get_type_hints(type(value))
        out = {f.name: _to_json(getattr(value, f.name), hints[f.name]) for f in fields(value)}
        return {"kind": type(value).__name__.lower(), **out} if len(_members(tp)) > 1 else out
    if isinstance(value, tuple):
        return [_to_json(v, get_args(_members(tp)[0])[0]) for v in value]
    if isinstance(value, Enum):
        return value.value
    return "inf" if value == math.inf else value


def _from_json(tp, raw, where: str):
    if raw is None and type(None) in get_args(tp):
        return None
    members = _members(tp)
    tp = members[0]
    if len(members) > 1:
        kinds = {m.__name__.lower(): m for m in members}
        raw = dict(raw) if isinstance(raw, dict) else {}
        tp = kinds.get(str(raw.pop("kind", None)))
        if tp is None:
            raise ValueError(f"{where}: kind must be one of {sorted(kinds)}")
    if is_dataclass(tp):
        if not isinstance(raw, dict):
            raise ValueError(f"{where} must be an object, got {raw!r}")
        unknown = sorted(set(raw) - {f.name for f in fields(tp)})
        if unknown:
            raise ValueError(f"unknown keys in {where}: {unknown}")
        # A field with neither a default nor a default factory is required.
        missing = [
            f.name for f in fields(tp)
            if f.name not in raw and f.default is f.default_factory is MISSING
        ]
        if missing:
            raise ValueError(f"missing keys in {where}: {missing}")
        hints = get_type_hints(tp)
        return tp(**{k: _from_json(hints[k], v, f"{where}.{k}") for k, v in raw.items()})
    if get_origin(tp) is tuple:
        if not isinstance(raw, list):
            raise ValueError(f"{where} must be a list, got {raw!r}")
        return tuple(_from_json(get_args(tp)[0], v, where) for v in raw)
    if tp is bool and not isinstance(raw, bool):
        raise ValueError(f"{where} must be true or false, got {raw!r}")
    # bool is a subclass of int, so int(True) and float(True) would pass.
    if tp in (int, float) and isinstance(raw, bool):
        raise ValueError(f"{where} must be a number, got {raw!r}")
    if tp is int and isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"{where} must be an integer, got {raw!r}")
    try:
        return tp(raw)
    except TypeError:
        raise ValueError(f"{where}: expected {tp.__name__}, got {raw!r}") from None


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return _to_json(cfg, ExperimentConfig)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a JSON-style mapping; unknown keys are rejected.

    A missing key takes the dataclass default, except that ``experiment``
    defaults to "custom" and ``budget`` to K d^2 / 2.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"config must be an object, got {raw!r}")
    raw = {"experiment": "custom", **raw}
    if "budget" not in raw:
        dims = _from_json(tuple[int, ...], raw.get("dims", []), "config.dims")
        raw["budget"] = sum(d * d for d in dims) // 2
    return _from_json(ExperimentConfig, raw, "config")


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))
