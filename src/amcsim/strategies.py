"""Active budget allocation over multiple completion problems.

Three strategies share one sequential loop, ``_run``, and one
``RunSpec``: an adaptive rule that samples the matrix with the largest
band-per-sample criterion, a round-robin baseline, and an oracle that
reads the true errors. They differ only in the chooser that names the
next matrix. Each step requests a batch of fresh observations for that
matrix, refits, re-estimates the error band, and accepts the new
estimate only when its band improves.

Streams: ``rng`` is an integer seed or a tuple key; matrix position
``pos`` draws its observations from ``named_stream(*key, pos)``, and an
integer seed ``s`` is the key ``(s,)``.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .error_bounds import SplitMode, estimate_error_bound, split_dataset
from .estimators import EstimatorConfig, MatrixEstimate, soft_impute_fit
from .problem import Dataset, GroundTruth, named_stream, new_samples

__all__ = [
    "LossSpec",
    "RunSpec",
    "ArmState",
    "Doubling",
    "Discretized",
    "RunTrace",
    "TraceEvent",
    "AllArmsCapped",
    "initial_batch",
    "select_index",
    "loss_from_errors",
    "malocate_run",
    "uniform_run",
    "oracle_run",
]


class AllArmsCapped(Exception):
    """Every matrix has reached its observation cap; the run is complete."""


@dataclass(frozen=True)
class LossSpec:
    """Loss family parameter p in [1, inf] and optional per-matrix weights.

    p = 1 sums the squared Frobenius errors, p = inf takes the worst
    one; math.inf is the distinguished infinite case. Weights default
    to one for every matrix.
    """

    p: float = math.inf
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.p >= 1:  # rejects NaN too
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            if any(w <= 0 for w in self.weights):
                raise ValueError("weights must be positive")

    def weight(self, pos: int) -> float:
        return 1.0 if self.weights is None else self.weights[pos]


@dataclass(frozen=True)
class Doubling:
    """Each selection doubles the chosen matrix's cumulative sample count.

    A first visit draws ``initial_batch(d)``. There is no initialization
    pass and every refit uses the fresh batch alone.
    """

    reuse_samples = False
    init_pass = False

    def init_size(self, dim: int) -> int:
        return initial_batch(dim)

    def next_batch(self, t_k: int, free: int) -> int:
        return t_k


@dataclass(frozen=True)
class Discretized:
    """Fixed time grid: an initialization pass then equal sub-batches.

    Every matrix starts with ``init_multiplier * d`` samples; the
    remaining budget is divided into ``num_batches`` equal sub-batches.
    Every batch, the initialization included, is clamped to the chosen
    matrix's remaining d^2 capacity, so a batch can fall short of the
    sub-batch size; once every matrix is capped the run stops and sets
    ``RunTrace.ended_early``. With ``reuse_samples`` the estimator refits
    on all data accumulated for the chosen matrix instead of the fresh
    batch alone.
    """

    init_multiplier: int = 8
    num_batches: int = 100
    reuse_samples: bool = True
    init_pass = True

    def __post_init__(self):
        if self.init_multiplier < 1:
            raise ValueError("init_multiplier must be >= 1")
        if self.num_batches < 1:
            raise ValueError("num_batches must be >= 1")

    def init_size(self, dim: int) -> int:
        return self.init_multiplier * dim

    def next_batch(self, t_k: int, free: int) -> int:
        return max(1, math.ceil(free / self.num_batches))


@dataclass(frozen=True)
class RunSpec:
    """Everything a run needs besides the matrices, the seed and the chooser.

    ``sigma`` is the observation noise level handed to ``new_samples``,
    ``scale`` the band coefficient handed to ``b_value``.
    """

    sigma: float
    loss: LossSpec
    budget: int
    schedule: Doubling | Discretized
    estimator: EstimatorConfig
    split: SplitMode
    scale: float = 8.0


@dataclass
class ArmState:
    """Per-matrix bookkeeping: samples spent, band, current estimate.

    ``sq_err`` caches the squared Frobenius error of ``current`` against
    the truth; it is None until ``_true_errors`` computes it and is
    cleared whenever ``current`` changes.
    """

    truth: GroundTruth
    samples_spent: int = 0
    band: float = math.inf
    current: MatrixEstimate | None = None
    data: Dataset | None = None
    sq_err: float | None = None

    @property
    def dim(self) -> int:
        return self.truth.spec.dim

    @cached_property
    def cap(self) -> int:
        """Observation cap d^2: no matrix is ever sampled more than this.

        Every batch, the initialization included, is clamped to
        ``cap - samples_spent``; once every arm is at its cap the run
        stops and sets ``RunTrace.ended_early``.
        """
        return self.dim * self.dim

    @property
    def at_cap(self) -> bool:
        return self.samples_spent >= self.cap


@dataclass(frozen=True)
class TraceEvent:
    """Snapshot taken after one batch-and-refit step."""

    t: int
    chosen: int
    batch: int
    b_values: tuple[float, ...]
    t_values: tuple[int, ...]
    true_errors: tuple[float, ...]
    loss_p1: float
    loss_pinf: float


@dataclass
class RunTrace:
    """Full event log of one run plus the hashes of its ground truths."""

    events: list[TraceEvent] = field(default_factory=list)
    truth_hashes: tuple[str, ...] = ()
    ended_early: bool = False


def initial_batch(dim: int) -> int:
    """First-visit batch size 4 * ceil((d ln d + 1) / 2).

    Twice the smallest even integer strictly greater than d ln d, so the
    eval half contains a double-sampled entry with high probability for
    d >= 55. Always divisible by 4.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return 4 * math.ceil((dim * math.log(dim) + 1) / 2)


def select_index(states: list[ArmState], loss: LossSpec) -> int:
    """Position of the arm the adaptive criterion picks next.

    Arms at their observation cap are excluded. Among the rest, an arm
    with an infinite band (never successfully evaluated) is chosen
    first, lowest position winning. Otherwise the score is
    w^(1/p) * d^2 * B * T^(-1/p) for finite p and w * d^2 * B for
    p = inf; ties break to the lowest position.
    """
    available = [i for i, s in enumerate(states) if not s.at_cap]
    if not available:
        raise AllArmsCapped
    for i in available:
        if math.isinf(states[i].band):
            return i
    best, best_score = -1, -math.inf
    for i in available:
        s = states[i]
        w = loss.weight(i)
        d2b = s.dim * s.dim * s.band
        if math.isinf(loss.p):
            score = w * d2b
        else:
            score = w ** (1.0 / loss.p) * d2b * s.samples_spent ** (-1.0 / loss.p)
        if score > best_score:
            best, best_score = i, score
    return best


def loss_from_errors(errors, loss: LossSpec) -> float:
    """Aggregate per-matrix squared errors into the p-loss."""
    e = np.asarray(errors, dtype=np.float64)
    w = np.ones_like(e) if loss.weights is None else np.asarray(loss.weights)
    if math.isinf(loss.p):
        return float(np.max(w * e))
    return float(np.sum(w * e**loss.p) ** (1.0 / loss.p))


def _true_errors(states: list[ArmState]) -> list[float]:
    """Raw squared Frobenius errors of the current estimates.

    Only an arm whose estimate changed since the last call is recomputed.
    """
    for s in states:
        if s.sq_err is None:
            m = s.truth.entries
            diff = m if s.current is None else s.current.values - m
            s.sq_err = float(np.sum(diff * diff))
    return [s.sq_err for s in states]


def _refit(state: ArmState, spec: RunSpec) -> None:
    """Fit on the train part of the arm's data, band the rest, accept if not worse."""
    train, eval_part = split_dataset(state.data, spec.split)
    if len(train) == 0:
        return
    matrix = state.truth.spec
    est = soft_impute_fit(train, matrix, spec.estimator, warm=state.current)
    bundle = estimate_error_bound(est, eval_part, matrix.dim, matrix.bound, spec.scale)
    if bundle.b <= state.band:
        state.current = est
        state.band = bundle.b
        state.sq_err = None


def _run(
    problem: list[GroundTruth], spec: RunSpec, rng, chooser
) -> tuple[list[MatrixEstimate], RunTrace]:
    K = len(problem)
    if K == 0:
        raise ValueError("problem must contain at least one matrix")
    loss, schedule, budget = spec.loss, spec.schedule, spec.budget
    if loss.weights is not None and len(loss.weights) != K:
        raise ValueError("weights length must match the number of matrices")
    key = (int(rng),) if isinstance(rng, (int, np.integer)) else tuple(rng)
    streams = [named_stream(*key, pos) for pos in range(K)]
    states = [ArmState(truth=gt) for gt in problem]
    loss_p1 = LossSpec(p=1, weights=loss.weights)
    loss_pinf = LossSpec(p=math.inf, weights=loss.weights)
    trace = RunTrace(
        truth_hashes=tuple(
            hashlib.sha256(np.ascontiguousarray(gt.entries).tobytes()).hexdigest()
            for gt in problem
        ),
    )

    # Each arm's first batch, clamped to its cap; ``free`` is what the
    # budget leaves after all of them. An initialization pass visits the
    # arms in order before the chooser is first asked.
    init = [min(schedule.init_size(s.dim), s.cap) for s in states]
    if budget < sum(init):
        raise ValueError(f"budget {budget} cannot cover initialization ({sum(init)})")
    free = budget - sum(init)
    spent = 0
    init_order = iter(range(K) if schedule.init_pass else ())
    while spent < budget:
        pos = next(init_order, None)
        if pos is None:
            try:
                pos = chooser(states)
            except AllArmsCapped:
                trace.ended_early = True
                break
        state = states[pos]
        t_k = state.samples_spent
        desired = schedule.next_batch(t_k, free) if t_k else init[pos]
        batch = min(desired, budget - spent, state.cap - t_k)
        fresh = new_samples(state.truth, spec.sigma, batch, streams[pos])
        state.samples_spent += batch
        spent += batch
        if schedule.reuse_samples and state.data is not None:
            state.data = state.data.extend(fresh)
        else:
            state.data = fresh
        _refit(state, spec)
        errors = _true_errors(states)
        trace.events.append(
            TraceEvent(
                t=spent,
                chosen=state.truth.spec.index,
                batch=batch,
                b_values=tuple(s.band for s in states),
                t_values=tuple(s.samples_spent for s in states),
                true_errors=tuple(e / s.cap for e, s in zip(errors, states)),
                loss_p1=loss_from_errors(errors, loss_p1),
                loss_pinf=loss_from_errors(errors, loss_pinf),
            )
        )

    estimates = [
        s.current
        if s.current is not None
        else MatrixEstimate(s.truth.spec.index, np.zeros((s.dim, s.dim)), 0, 0.0)
        for s in states
    ]
    return estimates, trace


def malocate_run(
    problem: list[GroundTruth], spec: RunSpec, rng
) -> tuple[list[MatrixEstimate], RunTrace]:
    """Adaptive run: each step samples argmax of the band criterion."""
    return _run(problem, spec, rng, chooser=lambda states: select_index(states, spec.loss))


def uniform_run(
    problem: list[GroundTruth], spec: RunSpec, rng
) -> tuple[list[MatrixEstimate], RunTrace]:
    """Round-robin baseline under the same schedule and update guard."""
    cursor = [0]

    def chooser(states: list[ArmState]) -> int:
        K = len(states)
        for offset in range(K):
            pos = (cursor[0] + offset) % K
            if not states[pos].at_cap:
                cursor[0] = pos + 1
                return pos
        raise AllArmsCapped

    return _run(problem, spec, rng, chooser=chooser)


def oracle_run(
    problem: list[GroundTruth], spec: RunSpec, rng
) -> tuple[list[MatrixEstimate], RunTrace]:
    """Baseline that allocates to the largest weighted per-entry true error.

    Ground truth is read for selection only, never for fitting. The score
    of an arm is w_k * e_k / d_k^2, with e_k its squared Frobenius error.
    """

    def chooser(states: list[ArmState]) -> int:
        available = [i for i, s in enumerate(states) if not s.at_cap]
        if not available:
            raise AllArmsCapped
        for i in available:
            if states[i].current is None:
                return i
        errors = _true_errors(states)
        best, best_score = -1, -math.inf
        for i in available:
            score = spec.loss.weight(i) * errors[i] / states[i].cap
            if score > best_score:
                best, best_score = i, score
        return best

    return _run(problem, spec, rng, chooser=chooser)
