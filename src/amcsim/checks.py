"""Invariants of the engine, each stated once, behind ``amcsim check`` and the tests.

Each invariant is a predicate, ``*_violation``, that returns a failure
string, or None when the invariant holds. ``amcsim check`` calls each
predicate on fixed tiny configs, one PASS or FAIL line per entry of
``CHECKS``, so it doubles as a smoke test of an installation; the test
suite calls the same predicates on fixed inputs and under ``hypothesis``.

The predicates are written independently of the engine.
``trace_violation`` restates the run loop's laws from the config alone:
the budget law (no event after the budget is spent), the batch and
selection laws, and the loss law (each event's losses are the weighted
sum and maximum of its errors). It calls none of the engine's schedule,
chooser or loss code, so a fault in the run loop cannot hide in its own
check.
"""
from __future__ import annotations

import csv
import functools
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .error_bounds import split_dataset
from .estimators import (
    _DENSE_MAX_DIM,
    EstimatorConfig,
    _svt_step,
    lambda_for,
    plain_soft_impute,
    soft_impute_fit,
    svt,
)
from .harness import (
    METRICS_HEADER,
    ExperimentResult,
    _rep_seed,
    aggregate,
    run_experiment,
    write_metrics_csv,
)
from .problem import MatrixSpec, generate_ground_truth, named_stream, new_samples
from .strategies import (
    Discretized,
    ExperimentConfig,
    RunTrace,
    StrategySpec,
    select_index,
)

__all__ = [
    "trace_violation", "scale_violation", "svt_violation", "fit_violation",
    "csv_violation", "paired_violation", "determinism_violation",
    "read_metrics", "trace_rows", "run_all_checks", "CHECKS",
]


def trace_violation(cfg: ExperimentConfig, strategy: StrategySpec, trace: RunTrace) -> str | None:
    """The run loop's laws on one trace of ``strategy`` under ``cfg``.

    - Budget: no event comes after the budget is spent, and it is all
      spent unless the run ended early with every arm at its cap d^2.
    - Batches: an arm's first is ``init_multiplier * d``, a later one
      ceil(free / num_batches), free being the budget after every first
      batch clamped to its cap. Each is clamped to the budget left and to
      d^2 - T_k.
    - Selection: a run first visits the arms in order. Then, among arms
      below their cap, uniform takes the next after the last pick;
      malocate the largest score w^(1/p) d^2 B T^(-1/p) (w d^2 B at
      p = inf), an infinite B first and ties to the lowest position; the
      oracle the same with B the true per-entry error, inf without an
      estimate, as each event records.
    - Bands never rise, and an event changes no T_k, B_k, true error or
      estimate of an arm it did not choose; floats are compared bit for
      bit, which ``write_metrics_csv`` relies on.
    - Losses: with e_k = true_err_k d_k^2, an event's loss_p1 is
      sum w_k e_k and its loss_pinf max w_k e_k, within 1e-12 relative.
    """
    K, budget, schedule = cfg.num_matrices, cfg.budget, cfg.schedule
    caps = [d * d for d in cfg.dims]
    first = [min(schedule.init_multiplier * d, d * d) for d in cfg.dims]
    later = math.ceil((budget - sum(first)) / schedule.num_batches)
    weights = strategy.weights or (1.0,) * K
    p = math.inf if strategy.p is None else strategy.p
    # Arm i's samples, band, true error and whether it holds an estimate
    # before an event. Before the first event E holds that event's errors:
    # those of every arm it did not choose are still their errors at the start.
    T, B, H, spent, last = [0] * K, [math.inf] * K, [False] * K, 0, -1
    E = list(trace.events[0].true_errors) if trace.events else []
    for j, event in enumerate(trace.events):
        if spent >= budget:
            return f"event {j} comes after the budget {budget} is spent"
        pos = event.chosen - 1
        below_cap = [i for i in range(K) if T[i] < caps[i]]
        if not below_cap:
            return f"event {j} comes after every arm reached its cap"
        if j < K:
            want = j
        elif strategy.kind == "uniform":
            want = min(below_cap, key=lambda i: (i - last - 1) % K)
        else:
            bands = B
            if strategy.kind == "oracle":
                bands = [e if h else math.inf for h, e in zip(H, E)]

            def score(i):
                if math.isinf(bands[i]):
                    return math.inf
                d2b = cfg.dims[i] * cfg.dims[i] * bands[i]
                if math.isinf(p):
                    return weights[i] * d2b
                return weights[i] ** (1.0 / p) * d2b * T[i] ** (-1.0 / p)

            want = max(below_cap, key=score)
        if pos != want:
            return f"event {j} chose arm {pos}, the selection law picks arm {want}"
        law = first[pos] if T[pos] == 0 else later
        batch = min(law, budget - spent, caps[pos] - T[pos])
        grown = T[:pos] + [T[pos] + batch] + T[pos + 1:]
        if (event.t, list(event.t_values)) != (spent + batch, grown):
            return (f"event {j} drew {event.t - spent} to reach t = {event.t},"
                    f" T = {event.t_values}; the batch law gives {batch},"
                    f" t = {spent + batch}, T = {tuple(grown)}")
        if event.b_values[pos] > B[pos]:
            return f"event {j} raised arm {pos}'s band from {B[pos]} to {event.b_values[pos]}"
        for i in range(K):
            # float.hex tells -0.0 from 0.0, as metrics.csv prints them.
            now = (event.b_values[i].hex(), event.true_errors[i].hex(), event.estimated[i])
            if i != pos and now != (B[i].hex(), E[i].hex(), H[i]):
                return f"event {j} changed arm {i}, which it did not choose"
        weighted = [w * e * d * d for w, e, d in zip(weights, event.true_errors, cfg.dims)]
        for name, got, expect in (("loss_p1", event.loss_p1, sum(weighted)),
                                  ("loss_pinf", event.loss_pinf, max(weighted))):
            if not abs(got - expect) <= 1e-12 * expect:  # NaN fails too
                return f"event {j} has {name} = {got!r}, the weighted errors give {expect!r}"
        T, B, E, H = grown, list(event.b_values), list(event.true_errors), list(event.estimated)
        spent, last = event.t, pos
    if trace.ended_early and T != caps:
        return f"the run ended early at T = {tuple(T)}, below the caps {tuple(caps)}"
    if not trace.ended_early and spent != budget:
        return f"the run spent {spent} of its budget {budget} without ending early"
    return None


def scale_violation(dims, spent, bands, p: float, c: float) -> str | None:
    """``select_index`` picks the same arm after every band is scaled by c > 0.

    Arm ``pos`` has dimension ``dims[pos]``, ``spent[pos]`` samples and
    band ``bands[pos]``. Holds vacuously when the two largest scores
    d^2 B T^(-1/p) lie within 1e-12 relative, where rounding may flip the
    pick.
    """
    scores = sorted(
        (d * d * b * (1.0 if math.isinf(p) else t ** (-1.0 / p))
         for d, t, b in zip(dims, spent, bands) if t < d * d),
        reverse=True,
    )
    if len(scores) > 1 and scores[0] - scores[1] <= 1e-12 * scores[0]:
        return None
    scaled = [c * b for b in bands]
    before, after = select_index(dims, spent, bands, p), select_index(dims, spent, scaled, p)
    if after != before:
        return f"the pick changed from arm {before} to arm {after} under B -> {c:.3g} B at p={p}"
    return None


def svt_violation(m: np.ndarray, theta: float) -> str | None:
    """The exact step the fit takes at m's size (dense SVD or Gram eigh)
    matches the dense SVT within 1e-10 of max(1, sigma_1), and its shrunk
    singular values sum to the nuclear norm within d times that."""
    sigma = np.linalg.svd(m, compute_uv=False)
    tol = 1e-10 * max(1.0, float(sigma[0]))
    out, shrunk, _ = _svt_step(m, theta)
    err = float(np.max(np.abs(out - svt(m, theta))))
    if err > tol:
        return f"the fit's SVT step differs from the dense SVT by {err:.3g}"
    nuclear = float(np.maximum(sigma - theta, 0.0).sum())
    if abs(float(shrunk.sum()) - nuclear) > m.shape[0] * tol:
        return f"the shrunk singular values sum to {shrunk.sum():.12g}, not {nuclear:.12g}"
    return None


def fit_violation(est, train, spec: MatrixSpec, cfg: EstimatorConfig) -> str | None:
    """``est``, the accelerated fit of ``train`` under ``cfg``, against the
    plain SoftImpute loop run to the same ``cfg.tol``. ``train`` is a
    split's train part, the one input both fits take.

    Both stop before ``cfg.max_iters``, agree within 1e-8 relative, and the
    fit takes fewer steps whenever the plain loop took 100 or more (below
    that a dropped momentum step can cost the fit a few more). Above
    ``_DENSE_MAX_DIM``, where the fit takes inexact steps, it exits at the
    exact iteration's fixed point: one plain step of the dense SVT from
    the filled estimate moves it by less than ``cfg.tol`` relative.
    """
    z, plain_steps = plain_soft_impute(train, spec, cfg)
    if not est.converged or plain_steps >= cfg.max_iters:
        return f"no convergence: the fit took {est.iterations} steps, the plain loop {plain_steps}"
    d = spec.dim
    if d > _DENSE_MAX_DIM:
        filled = est.values.copy()
        filled.put(train.cells, train.values)
        step = svt(filled, d * lambda_for(d, len(train), spec.bound, cfg.lambda_scale))
        move = float(np.linalg.norm(step - est.values)) / max(float(np.linalg.norm(est.values)), 1.0)
        if move >= cfg.tol:
            return f"one exact step from the fit's exit moves it by {move:.3g} relative, not below tol {cfg.tol:g}"
    err = float(np.linalg.norm(est.values - z)) / max(float(np.linalg.norm(z)), 1.0)
    if err > 1e-8:
        return f"the fit differs from the plain loop's fixed point by {err:.3g} relative"
    if plain_steps >= 100 and est.iterations >= plain_steps:
        return f"the fit took {est.iterations} steps, the plain loop {plain_steps}"
    return None


def read_metrics(path: str) -> tuple[list[str], list[tuple]]:
    """A metrics.csv's header and rows: p None or a float, rep, seed, t, k
    and T_k ints, B_k, true_err_k and the two losses floats."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [
        (exp, kind, None if p == "" else float(p), *map(int, rest[:5]), *map(float, rest[5:]))
        for exp, kind, p, *rest in rows
    ]


def trace_rows(result: ExperimentResult) -> list[tuple]:
    """The metrics.csv rows of a result, as tuples of its trace values."""
    cfg = result.cfg
    return [
        (cfg.experiment, strategy.kind, strategy.p, rep, _rep_seed(cfg.seed, rep), event.t,
         pos + 1, event.t_values[pos], event.b_values[pos], event.true_errors[pos],
         event.loss_p1, event.loss_pinf)
        for rep, strategy, trace in result.jobs
        for event in trace.events
        for pos in range(cfg.num_matrices)
    ]


def csv_violation(result: ExperimentResult) -> str | None:
    """The result holds one job per (rep, strategy), in that order, its
    metrics.csv reads back as every trace value, exactly, and it aggregates."""
    cfg = result.cfg
    jobs = [(rep, strategy) for rep, strategy, _ in result.jobs]
    if jobs != [(rep, strategy) for rep in range(cfg.reps) for strategy in cfg.strategies]:
        return "the jobs are not one per (rep, strategy), in (rep, strategy) order"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "metrics.csv")
        write_metrics_csv(result, path)
        try:
            header, rows = read_metrics(path)
        except ValueError as exc:
            return f"metrics.csv does not read back: {exc}"
    if header != METRICS_HEADER.split(","):
        return f"unexpected metrics header {header}"
    want = trace_rows(result)
    changed = sum(a != b for a, b in zip(rows, want)) + abs(len(rows) - len(want))
    if changed:
        return f"{changed} of {len(want)} metrics rows changed across write/read"
    aggregate(result)  # must not raise
    return None


def paired_violation(result: ExperimentResult) -> str | None:
    """Every strategy of a rep sees that rep's ground truths, and reps see different ones."""
    by_rep = {}
    for rep, strategy, trace in result.jobs:
        if by_rep.setdefault(rep, trace.truth_hashes) != trace.truth_hashes:
            return f"{strategy.label} saw other ground truths than its rep {rep}"
    if len(set(by_rep.values())) != len(by_rep):
        return "two reps drew the same ground truths"
    return None


def determinism_violation(cfg: ExperimentConfig) -> str | None:
    """Two runs of ``cfg`` write the same metrics.csv and summary.csv bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, run) for run in ("a", "b")]
        for out in outs:
            run_experiment(cfg, out)
        for name in ("metrics.csv", "summary.csv"):
            first, second = (Path(out, name).read_bytes() for out in outs)
            if first != second:
                return f"identical seeds wrote different {name} bytes"
    return None


def _tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        experiment="check",
        dims=(20, 24),
        ranks=(2, 3),
        sigma=0.05,
        bound_a=4.0,
        budget=1400,
        strategies=(
            StrategySpec("malocate", p=math.inf),
            StrategySpec("uniform"),
        ),
        schedule=Discretized(init_multiplier=8, num_batches=10),
        estimator=EstimatorConfig(max_iters=80, tol=1e-4),
        confidence_scale=0.0625,
        reps=2,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@functools.cache
def _tiny_result() -> ExperimentResult:
    """The tiny config's run, shared by the checks that read it."""
    return run_experiment(_tiny_config())


def check_run_loop_laws() -> str | None:
    """``trace_violation`` on every job of the tiny run, whose caps the run
    fills, and of one run whose last batch is cut to the budget left."""
    for result in (_tiny_result(), run_experiment(_tiny_config(budget=905, reps=1))):
        for rep, strategy, trace in result.jobs:
            failure = trace_violation(result.cfg, strategy, trace)
            if failure is not None:
                return f"{strategy.label}, rep {rep}: {failure}"
    return None


def check_argmax_scale_invariance() -> str | None:
    rng = np.random.default_rng(0)
    dims = _tiny_config().dims
    for trial in range(200):
        draws = [(int(rng.integers(1, d * d)), float(rng.uniform(0.01, 5.0))) for d in dims]
        spent, bands = zip(*draws)
        for p in (1.0, 2.0, math.inf):
            failure = scale_violation(dims, spent, bands, p, float(rng.uniform(0.1, 10.0)))
            if failure is not None:
                return failure
    return None


def check_svt_kernel() -> str | None:
    # One fixed 40 x 40 matrix, with the threshold midway through its
    # spectrum; a faulty LAPACK build shows up here.
    m = np.random.default_rng(5).normal(size=(40, 40))
    sigma = np.linalg.svd(m, compute_uv=False)
    return svt_violation(m, float(0.5 * (sigma[19] + sigma[20])))


def check_fit_fixed_point() -> str | None:
    # The train part of 180 draws (20% of d^2) of one fixed 30 x 30 rank-3
    # instance, run to a tight tol.
    spec = MatrixSpec(index=1, dim=30, rank_bound=3)
    draws = new_samples(generate_ground_truth(spec, 3), 0.1, 180, named_stream(3))
    train = split_dataset(draws)[0]
    cfg = EstimatorConfig(max_iters=5000, tol=1e-11)
    return fit_violation(soft_impute_fit(train, spec, cfg), train, spec, cfg)


# One line per predicate. A check that raises fails its own line only.
CHECKS = [
    ("run_loop_laws", check_run_loop_laws),
    ("argmax_scale_invariance", check_argmax_scale_invariance),
    ("csv_round_trip", lambda: csv_violation(_tiny_result())),
    ("paired_generation", lambda: paired_violation(_tiny_result())),
    ("determinism", lambda: determinism_violation(_tiny_config(reps=1))),
    ("svt_kernel", check_svt_kernel),
    ("fit_fixed_point", check_fit_fixed_point),
]


def run_all_checks(echo=print) -> bool:
    """Run every invariant check; prints PASS/FAIL lines, returns success."""
    ok = True
    for name, check in CHECKS:
        try:
            failure = check()
        except Exception as exc:
            failure = f"raised {type(exc).__name__}: {exc}"
        echo(f"PASS {name}" if failure is None else f"FAIL {name}: {failure}")
        ok = ok and failure is None
    return ok
