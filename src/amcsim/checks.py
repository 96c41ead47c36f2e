"""Self-contained invariant suite behind ``amcsim check``.

Each check runs a small deterministic simulation and validates one
structural property of the engine. The suite prints one line per check
and fails loudly on any violation, so it doubles as a smoke test of an
installation.
"""
from __future__ import annotations

import csv
import functools
import math
import os
import tempfile

import numpy as np

from .error_bounds import SplitMode
from .estimators import (
    EstimatorConfig,
    gram_svt,
    plain_soft_impute,
    soft_impute_fit,
    svt,
)
from .harness import (
    METRICS_HEADER,
    _rep_seed,
    _rep_truths,
    aggregate,
    run_experiment,
    write_metrics_csv,
)
from .problem import MatrixSpec, generate_ground_truth, named_stream, new_samples
from .strategies import (
    ArmState,
    Discretized,
    Doubling,
    ExperimentConfig,
    StrategySpec,
    initial_batch,
    loss_from_errors,
    select_index,
)

__all__ = ["run_all_checks", "CHECKS"]


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
        schedule=Discretized(init_multiplier=8, num_batches=10, reuse_samples=True),
        split=SplitMode.BY_MULTIPLICITY,
        estimator=EstimatorConfig(max_iters=80, tol=1e-4),
        confidence_scale=0.0625,
        reps=2,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@functools.cache
def _doubling_trace():
    """One Doubling run, shared by the checks that read it."""
    cfg = _tiny_config(
        schedule=Doubling(),
        budget=4000,
        strategies=(StrategySpec("malocate", p=1.0),),
        split=SplitMode.HALVES,
        reps=1,
    )
    [(_, _, trace)] = run_experiment(cfg).jobs
    return cfg, _rep_truths(cfg, 0), trace


def check_b_monotonicity() -> str | None:
    cfg = _tiny_config()
    for rep, strategy, trace in run_experiment(cfg).jobs:
        K = cfg.num_matrices
        prev = [math.inf] * K
        for event in trace.events:
            for pos in range(K):
                if event.b_values[pos] > prev[pos]:
                    return f"B increased for arm {pos} in rep {rep}, strategy {strategy.label}"
            prev = list(event.b_values)
    return None


def check_doubling_law() -> str | None:
    cfg, truths, trace = _doubling_trace()
    pos_of = {gt.spec.index: i for i, gt in enumerate(truths)}
    prev_t = [0] * len(truths)
    for n_event, event in enumerate(trace.events):
        pos = pos_of[event.chosen]
        before, after = prev_t[pos], event.t_values[pos]
        last = n_event == len(trace.events) - 1
        cap = truths[pos].spec.dim ** 2
        if before == 0:
            if after != min(initial_batch(truths[pos].spec.dim), cap, cfg.budget):
                return f"bad initialization batch for arm {pos}: {after}"
        elif after != 2 * before and not last and after != cap:
            return f"arm {pos} went {before} -> {after} mid-run"
        prev_t = list(event.t_values)
    return None


def check_budget_accounting() -> str | None:
    cfg, truths, trace = _doubling_trace()
    for event in trace.events:
        if sum(event.t_values) != event.t:
            return f"sum T_k = {sum(event.t_values)} but t = {event.t}"
    final = trace.events[-1]
    if final.t > cfg.budget:
        return f"overspent: {final.t} > {cfg.budget}"
    if not trace.ended_early and final.t != cfg.budget:
        return f"underspent without cap: {final.t} < {cfg.budget}"
    return None


def check_argmax_scale_invariance() -> str | None:
    rng = np.random.default_rng(0)
    specs = _tiny_config().specs()
    truths = [generate_ground_truth(s, (1, 2, 0, i)) for i, s in enumerate(specs)]
    for trial in range(200):
        states = []
        for gt in truths:
            states.append(
                ArmState(
                    truth=gt,
                    samples_spent=int(rng.integers(1, gt.spec.dim**2)),
                    band=float(rng.uniform(0.01, 5.0)),
                )
            )
        for p in (1.0, 2.0, math.inf):
            base = select_index(states, p)
            c = float(rng.uniform(0.1, 10.0))
            scaled_states = [
                ArmState(truth=s.truth, samples_spent=s.samples_spent, band=c * s.band)
                for s in states
            ]
            if select_index(scaled_states, p) != base:
                return f"choice changed under B -> {c:.3f} B at p={p}"
    return None


def check_loss_p_monotonicity() -> str | None:
    rng = np.random.default_rng(1)
    for trial in range(200):
        errors = rng.uniform(0.0, 10.0, size=rng.integers(1, 8))
        values = [loss_from_errors(errors, p) for p in (1.0, 2.0, 4.0, math.inf)]
        for a, b in zip(values, values[1:]):
            if b > a + 1e-12:
                return f"loss increased in p on errors {errors}"
    return None


def check_csv_round_trip() -> str | None:
    cfg = _tiny_config(reps=1)
    result = run_experiment(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "metrics.csv")
        write_metrics_csv(result, path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
    if header != METRICS_HEADER.split(","):
        return f"unexpected metrics header {header}"
    # rep, seed, t, k and T_k are integers; B_k and the three errors floats.
    back = [
        (exp, kind, None if p == "" else float(p), *map(int, rest[:5]), *map(float, rest[5:]))
        for exp, kind, p, *rest in rows
    ]
    want = [
        (cfg.experiment, strategy.kind, strategy.p, rep, _rep_seed(cfg.seed, rep), event.t,
         pos + 1, event.t_values[pos], event.b_values[pos], event.true_errors[pos],
         event.loss_p1, event.loss_pinf)
        for rep, strategy, trace in result.jobs
        for event in trace.events
        for pos in range(cfg.num_matrices)
    ]
    if back != want:
        return "trace values changed across write/read"
    aggregate(result)  # must not raise
    return None


def check_paired_generation() -> str | None:
    hashes: dict[int, set] = {}
    for rep, _, trace in run_experiment(_tiny_config()).jobs:
        hashes.setdefault(rep, set()).add(trace.truth_hashes)
    for rep, seen in hashes.items():
        if len(seen) != 1:
            return f"strategies saw different ground truths in rep {rep}"
    return None


def check_determinism() -> str | None:
    with tempfile.TemporaryDirectory() as tmp:
        out1, out2 = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        run_experiment(_tiny_config(reps=1), out1)
        run_experiment(_tiny_config(reps=1), out2)
        with open(os.path.join(out1, "metrics.csv"), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out2, "metrics.csv"), "rb") as fh:
            second = fh.read()
    if first != second:
        return "identical seeds produced different metrics.csv bytes"
    return None


def check_svt_kernel() -> str | None:
    # The fit's Gram-eigh step against the dense SVD on one fixed 40 x 40
    # matrix, with the threshold midway through its spectrum; a faulty
    # LAPACK build shows up here.
    m = np.random.default_rng(5).normal(size=(40, 40))
    sigma = np.linalg.svd(m, compute_uv=False)
    theta = float(0.5 * (sigma[19] + sigma[20]))
    out, shrunk = gram_svt(m, theta)
    err = float(np.max(np.abs(out - svt(m, theta))))
    if err > 1e-10 * max(1.0, float(sigma[0])):
        return f"Gram-eigh step differs from the dense SVT by {err:.3g}"
    nuclear = float(np.maximum(sigma - theta, 0.0).sum())
    if abs(float(shrunk.sum()) - nuclear) > 1e-9 * nuclear:
        return f"shrunk singular values sum to {shrunk.sum():.12g}, not {nuclear:.12g}"
    return None


def check_fit_fixed_point() -> str | None:
    # The accelerated fit against the plain SoftImpute loop, both run to
    # a tight tol on one fixed 30 x 30 rank-3 instance sampled at 20%.
    spec = MatrixSpec(index=1, dim=30, rank_bound=3)
    truth = generate_ground_truth(spec, 3)
    data = new_samples(truth, 0.1, 180, named_stream(3))
    cfg = EstimatorConfig(max_iters=5000, tol=1e-11, clip_output=False)
    est = soft_impute_fit(data, spec, cfg)
    z, plain_steps = plain_soft_impute(data, spec, cfg)
    if not est.converged:
        return f"fit did not converge in {est.iterations} steps"
    err = float(np.linalg.norm(est.values - z)) / max(float(np.linalg.norm(z)), 1.0)
    if err > 1e-8:
        return f"fit differs from the plain loop's fixed point by {err:.3g} relative"
    if est.iterations >= plain_steps:
        return f"fit took {est.iterations} steps, the plain loop {plain_steps}"
    return None


CHECKS = [
    ("b_monotonicity", check_b_monotonicity),
    ("doubling_law", check_doubling_law),
    ("budget_accounting", check_budget_accounting),
    ("argmax_scale_invariance", check_argmax_scale_invariance),
    ("loss_p_monotonicity", check_loss_p_monotonicity),
    ("csv_round_trip", check_csv_round_trip),
    ("paired_generation", check_paired_generation),
    ("determinism", check_determinism),
    ("svt_kernel", check_svt_kernel),
    ("fit_fixed_point", check_fit_fixed_point),
]


def run_all_checks(echo=print) -> bool:
    """Run every invariant check; prints PASS/FAIL lines, returns success."""
    ok = True
    for name, check in CHECKS:
        failure = check()
        if failure is None:
            echo(f"PASS {name}")
        else:
            echo(f"FAIL {name}: {failure}")
            ok = False
    return ok
