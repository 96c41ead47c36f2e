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
strategies of a config may share them.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
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
    "ExperimentResult",
    "preset_experiment_1",
    "preset_experiment_2",
    "scaled",
    "run_experiment",
    "aggregate",
    "write_metrics_csv",
    "write_summary_csv",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "METRICS_HEADER",
]

METRICS_HEADER = "experiment,strategy,p,rep,seed,t,k,T_k,B_k,true_err_k,loss_p1,loss_pinf"

_ROLE_TRUTH = 0
_ROLE_OBS = 1


def preset_experiment_1() -> ExperimentConfig:
    """Ten 200x200 problems, one rank-40 outlier among rank-10 peers."""
    dims = (200,) * 10
    ranks = (40,) + (10,) * 9
    return ExperimentConfig(experiment="exp1", dims=dims, ranks=ranks)


def preset_experiment_2() -> ExperimentConfig:
    """Fifteen 200x200 problems with ranks growing like a quartic.

    The rank formula is round(18 + 0.0015 (k-1)^4) for k = 1..15, which
    makes the hardest rank 76 and keeps eight of the fifteen at or
    below 22.
    """
    dims = (200,) * 15
    ranks = tuple(round(18 + 0.0015 * (k - 1) ** 4) for k in range(1, 16))
    return ExperimentConfig(experiment="exp2", dims=dims, ranks=ranks)


def scaled(cfg: ExperimentConfig, factor: float) -> ExperimentConfig:
    """Desk-scale variant: divide dimensions (and ranks) by ``factor``.

    The budget reverts to the default sum of d'^2 / 2, so the
    budget-to-capacity ratio of the presets is preserved. ``factor``
    must be positive and finite, and an error of the scaled config names it.
    """
    if not 0 < factor < math.inf:  # rejects NaN too
        raise ValueError(f"scale factor must be positive and finite, got {factor}")
    dims = tuple(max(2, round(d / factor)) for d in cfg.dims)
    ranks = tuple(
        min(d, max(1, round(r / factor))) for d, r in zip(dims, cfg.ranks)
    )
    try:
        return replace(cfg, dims=dims, ranks=ranks, budget=None)
    except ValueError as exc:
        raise ValueError(f"scale {factor:g}: {exc}") from None


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
    if out_dir is not None:
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

    if out_dir is not None:
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

    The columns an event shares are formatted once per event. A job's
    first event formats every arm's ``k,T_k,B_k,true_err_k`` fragment
    and each later event only its chosen arm's, since an event changes no
    other arm's fields (a law ``checks.trace_violation`` checks bit for
    bit); so an event costs one join. Text columns are quoted as
    ``csv.writer`` quotes them. The file is written one event at a time.

    The ``seed`` column is ``SeedSequence((master seed, rep)).generate_state(1)[0]``,
    a per-rep label that seeds nothing. A rep is rerun from the master
    ``--seed`` and its rep number, because its random streams are keyed
    by (seed, rep, role, ...).
    """
    cfg = result.cfg
    ks = [spec.index for spec in cfg.specs()]
    with open(path, "w", newline="") as fh:
        fh.write(METRICS_HEADER + "\n")
        for rep, strategy, trace in result.jobs:
            buf = io.StringIO()
            # "\r\n" makes the writer quote a '\r' too, where a reader ends a row.
            csv.writer(buf, lineterminator="\r\n").writerow(
                [cfg.experiment, strategy.kind, _fmt_p(strategy.p), rep, _rep_seed(cfg.seed, rep)]
            )
            head = buf.getvalue()[:-2]
            frags = [""] * len(ks)
            for n, event in enumerate(trace.events):
                for i in (event.chosen - 1,) if n else range(len(ks)):
                    frags[i] = "%d,%d,%.17g,%.17g" % (
                        ks[i], event.t_values[i], event.b_values[i], event.true_errors[i]
                    )
                lead = f"{head},{event.t},"
                tail = f",{_fmt_float(event.loss_p1)},{_fmt_float(event.loss_pinf)}\n"
                fh.write(lead + (tail + lead).join(frags) + tail)


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
# Both directions follow the dataclass fields and their type hints; an
# infinite float is the string "inf". The format also carries fixed tags, one
# value each: (section, key, value, required), section None for the top level.
_TAGS = (
    (None, "split", "by_multiplicity", False),
    ("schedule", "kind", "discretized", True),
    ("schedule", "reuse_samples", True, False),
    ("estimator", "warm_start", True, False),
    ("estimator", "clip_output", True, False),
)


def _to_json(value):
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return "inf" if value == math.inf else value


def _from_json(tp, raw, where: str):
    if get_origin(tp) in (Union, UnionType):  # an optional field, X | None
        if raw is None:
            return None
        [tp] = [a for a in get_args(tp) if a is not type(None)]
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
        values = {k: _from_json(hints[k], v, f"{where}.{k}") for k, v in raw.items()}
        try:
            return tp(**values)
        except ValueError as exc:  # from the dataclass's own checks
            raise ValueError(f"{where}: {exc}") from None
    if get_origin(tp) is tuple:
        if not isinstance(raw, list):
            raise ValueError(f"{where} must be a list, got {raw!r}")
        return tuple(_from_json(get_args(tp)[0], v, f"{where}[{i}]") for i, v in enumerate(raw))
    if tp is bool and not isinstance(raw, bool):
        raise ValueError(f"{where} must be true or false, got {raw!r}")
    # bool is a subclass of int, so int(True) and float(True) would pass.
    if tp in (int, float) and isinstance(raw, bool):
        raise ValueError(f"{where} must be a number, got {raw!r}")
    if tp is int and isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"{where} must be an integer, got {raw!r}")
    if tp is str and not isinstance(raw, str):
        raise ValueError(f"{where} must be a string, got {raw!r}")
    try:
        return tp(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: expected {tp.__name__}, got {raw!r}") from None


def config_to_dict(cfg: ExperimentConfig) -> dict:
    raw = _to_json(cfg)
    for section, key, tag, _ in _TAGS:
        (raw if section is None else raw[section])[key] = tag
    return raw


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from a JSON-style mapping; unknown keys are rejected.

    A missing key takes the dataclass default, except that ``experiment``
    defaults to "custom". A tag may be left out, except that a given
    schedule must carry its kind; a tag given must hold its one value.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"config must be an object, got {raw!r}")
    # The sections are copied, since their tags are popped below.
    raw = {"experiment": "custom", **raw}
    raw |= {k: dict(v) for k, v in raw.items() if isinstance(v, dict)}
    for section, key, tag, required in _TAGS:
        part = raw if section is None else raw.get(section)
        if not isinstance(part, dict):
            continue  # absent, or rejected with its path below
        where = "config" if section is None else f"config.{section}"
        if required and key not in part:
            raise ValueError(f"missing keys in {where}: [{key!r}]")
        value = part.pop(key, tag)
        if (type(value), value) != (type(tag), tag):  # type too: JSON's 1 equals True
            raise ValueError(f"{where}.{key} must be {tag!r}, got {value!r}")
    return _from_json(ExperimentConfig, raw, "config")


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))
