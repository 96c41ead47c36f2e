"""Run settings and active budget allocation over multiple completion problems.

An ``ExperimentConfig`` holds the settings of a run and a
``StrategySpec`` names one strategy. Three strategies share one
sequential loop, ``_run``, which reads its settings from the config: an
adaptive rule that samples the matrix with the largest band-per-sample
criterion, a round-robin baseline, and an oracle: the adaptive rule on
true errors. They differ only in the score they give ``_pick``, the one
rule that names the next matrix. Each step requests a batch of fresh
observations for that matrix, refits on all of its observations so
far, clamps the fit to the model's entry bound [-A, A], re-estimates the
error band on it, and accepts it unless its band is worse than the
current one. An equal band, inf included, is accepted, so an arm's
first refit is kept even when its split has no pairs.

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

from .error_bounds import estimate_error_bound, split_dataset
from .estimators import EstimatorConfig, MatrixEstimate, soft_impute_fit
from .problem import Dataset, GroundTruth, MatrixSpec, named_stream, new_samples

__all__ = [
    "StrategySpec",
    "ExperimentConfig",
    "TUNED_CONFIDENCE_SCALE",
    "ArmState",
    "Discretized",
    "RunTrace",
    "TraceEvent",
    "select_index",
    "malocate_run",
    "uniform_run",
    "oracle_run",
]


@dataclass(frozen=True)
class Discretized:
    """Fixed time grid: an initialization pass then equal sub-batches.

    Every matrix starts with ``init_multiplier * d`` samples; the
    remaining budget is divided into ``num_batches`` equal sub-batches.
    Every batch, the initialization included, is clamped to the chosen
    matrix's remaining d^2 capacity, so a batch can fall short of the
    sub-batch size; once every matrix is capped the run stops and sets
    ``RunTrace.ended_early``. A batch joins every earlier observation of
    its matrix, and the refit uses them all.
    """

    init_multiplier: int = 8
    num_batches: int = 100

    def __post_init__(self):
        if self.init_multiplier < 1:
            raise ValueError("init_multiplier must be >= 1")
        if self.num_batches < 1:
            raise ValueError("num_batches must be >= 1")


# Band coefficient used by the experiment presets. The worst-case
# constant 8 is honest but so wide that, at simulation scale, every
# band is dominated by the A^2 sqrt(ln d / N) term and the allocation
# signal drowns; the original experiments likewise tuned their
# intervals. 1/16 with A = 4 makes the band term sqrt(ln d / N).
TUNED_CONFIDENCE_SCALE = 0.0625


@dataclass(frozen=True)
class StrategySpec:
    """One strategy to run: kind, loss parameter p in [1, inf], optional positive weights."""

    kind: str
    p: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("malocate", "uniform", "oracle"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "malocate" and self.p is None:
            raise ValueError("malocate requires a loss parameter p")
        if self.kind == "uniform" and self.p is not None:
            raise ValueError("uniform takes no p")
        if self.p is not None and not self.p >= 1:  # rejects NaN too
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            if not all(0 < w < math.inf for w in self.weights):  # rejects NaN too
                raise ValueError("weights must be positive and finite")

    @property
    def label(self) -> str:
        if self.p is None:
            return self.kind
        suffix = "inf" if math.isinf(self.p) else f"{self.p:g}"
        return f"{self.kind}_p{suffix}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    The defaults are the settings the two paper experiments share. A
    ``budget`` of None becomes the sum of d^2 / 2 over the matrices.
    """

    experiment: str
    dims: tuple[int, ...]
    ranks: tuple[int, ...]
    sigma: float = 0.1
    bound_a: float = 4.0
    budget: int | None = None
    strategies: tuple[StrategySpec, ...] = (
        StrategySpec("malocate", p=1.0),
        StrategySpec("malocate", p=math.inf),
        StrategySpec("uniform"),
        StrategySpec("oracle"),
    )
    schedule: Discretized = field(default_factory=Discretized)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    confidence_scale: float = TUNED_CONFIDENCE_SCALE
    reps: int = 15
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if self.budget is None:
            object.__setattr__(self, "budget", sum(d * d for d in self.dims) // 2)
        if len(self.dims) != len(self.ranks) or not self.dims:
            raise ValueError("dims and ranks must be nonempty and aligned")
        for d, r in zip(self.dims, self.ranks):
            if d < 2 or not 1 <= r <= d:
                raise ValueError(f"invalid (dim, rank) pair ({d}, {r})")
        # Chained comparisons reject NaN as well as inf.
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be nonnegative and finite")
        if not 0 < self.bound_a < math.inf:
            raise ValueError("bound_a must be positive and finite")
        init = sum(min(self.schedule.init_multiplier * d, d * d) for d in self.dims)
        if self.budget < init:
            raise ValueError(f"budget {self.budget} cannot cover initialization ({init})")
        if not 0 < self.confidence_scale < math.inf:
            raise ValueError("confidence_scale must be positive and finite")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        seen = set()
        for s in self.strategies:
            if s.weights is not None and len(s.weights) != len(self.dims):
                raise ValueError(
                    f"{s.label}: {len(s.weights)} weights for {len(self.dims)} matrices"
                )
            # The oracle reads a missing p as inf, and uniform never has one.
            key = (s.kind, math.inf if s.p is None else s.p)
            if key in seen:
                raise ValueError(f"duplicate strategy {s.label}: kind and p must differ")
            seen.add(key)

    @property
    def num_matrices(self) -> int:
        return len(self.dims)

    def specs(self) -> list[MatrixSpec]:
        return [
            MatrixSpec(index=k + 1, dim=d, rank_bound=r, bound=self.bound_a)
            for k, (d, r) in enumerate(zip(self.dims, self.ranks))
        ]


@dataclass
class ArmState:
    """Per-matrix bookkeeping: samples spent, band, current estimate.

    ``data`` is every observation of the arm so far, which each refit
    splits.
    ``sq_err`` is the squared Frobenius error of ``current`` against the
    truth, the zero matrix standing in for a missing estimate. It is set
    here and again by ``_refit`` whenever ``current`` changes.
    """

    truth: GroundTruth
    samples_spent: int = 0
    band: float = math.inf
    current: MatrixEstimate | None = None
    data: Dataset = field(default_factory=Dataset)
    sq_err: float = field(init=False)

    def __post_init__(self):
        self.sq_err = float(np.sum(self.truth.entries * self.truth.entries))

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
    """Snapshot taken after one batch-and-refit step. ``estimated`` says which
    arms hold an estimate, which an infinite band does not tell."""

    t: int
    chosen: int
    b_values: tuple[float, ...]
    t_values: tuple[int, ...]
    true_errors: tuple[float, ...]
    estimated: tuple[bool, ...]
    loss_p1: float
    loss_pinf: float


@dataclass
class RunTrace:
    """Full event log of one run plus the hashes of its ground truths."""

    events: list[TraceEvent] = field(default_factory=list)
    truth_hashes: tuple[str, ...] = ()
    ended_early: bool = False


def _pick(states: list[ArmState], score) -> int:
    """Among arms below their cap, the one with the largest ``score(pos, state)``.

    Ties go to the lowest position, so an infinite score means "choose first".
    """
    available = [pos for pos, s in enumerate(states) if not s.at_cap]
    if not available:
        raise ValueError("every arm is at its observation cap")
    return max(available, key=lambda pos: score(pos, states[pos]))


def select_index(states: list[ArmState], p: float, weights=None, bands=None) -> int:
    """Position of the arm the adaptive criterion for the p-loss picks next.

    Arms at their observation cap are excluded. The score of an arm is
    w^(1/p) * d^2 * B * T^(-1/p) for finite p and w * d^2 * B for
    p = inf, with the arm's weight w from ``weights`` (one per arm,
    default all one) and its band B from ``bands`` (one per arm, default
    each arm's ``band``). An infinite B (never successfully evaluated)
    scores inf, so such an arm is chosen first; ties break to the lowest
    position. Raises ``ValueError`` when every arm is at its cap.
    """
    bands = [s.band for s in states] if bands is None else bands

    def score(pos: int, s: ArmState) -> float:
        if math.isinf(bands[pos]):  # before T^(-1/p): T may be 0
            return math.inf
        w = 1.0 if weights is None else weights[pos]
        d2b = s.dim * s.dim * bands[pos]
        if math.isinf(p):
            return w * d2b
        return w ** (1.0 / p) * d2b * s.samples_spent ** (-1.0 / p)

    return _pick(states, score)


def _refit(state: ArmState, cfg: ExperimentConfig) -> None:
    """Fit on the train part, clamp to [-A, A], band on the pairs, accept if not worse."""
    train, pairs = split_dataset(state.data)
    if len(train) == 0:
        return
    matrix = state.truth.spec
    est = soft_impute_fit(train, matrix, cfg.estimator, warm=state.current)
    np.clip(est.values, -matrix.bound, matrix.bound, out=est.values)
    bundle = estimate_error_bound(est, pairs, matrix.dim, matrix.bound, cfg.confidence_scale)
    if bundle.b <= state.band:
        diff = est.values - state.truth.entries
        state.current = est
        state.band = bundle.b
        state.sq_err = float(np.sum(diff * diff))


def _run(
    problem: list[GroundTruth], cfg: ExperimentConfig, strategy: StrategySpec, rng, chooser
) -> tuple[list[ArmState], RunTrace]:
    """Spend ``cfg.budget`` on ``problem``; ``chooser`` names each next arm.

    Returns the arm states as the run left them, and the trace.
    """
    if [gt.spec.dim for gt in problem] != list(cfg.dims):
        raise ValueError("problem dims must match cfg.dims")
    K = len(problem)
    schedule, budget = cfg.schedule, cfg.budget
    weights = None if strategy.weights is None else np.asarray(strategy.weights)
    key = (int(rng),) if isinstance(rng, (int, np.integer)) else tuple(rng)
    streams = [named_stream(*key, pos) for pos in range(K)]
    states = [ArmState(truth=gt) for gt in problem]
    trace = RunTrace(
        truth_hashes=tuple(
            hashlib.sha256(np.ascontiguousarray(gt.entries).tobytes()).hexdigest()
            for gt in problem
        ),
    )

    # An initialization pass gives the arms, in order, their first batch
    # of ``init_multiplier * d`` clamped to the cap; then the chooser
    # names each arm that gets one of the equal sub-batches of what the
    # budget leaves.
    init = [min(schedule.init_multiplier * s.dim, s.cap) for s in states]
    sub_batch = math.ceil((budget - sum(init)) / schedule.num_batches)
    # The trace's per-arm columns. A step changes the chosen arm's state
    # only, so only its entries are rewritten.
    errors = [s.sq_err for s in states]
    t_values = [s.samples_spent for s in states]
    b_values = [s.band for s in states]
    true_errors = [e / s.cap for e, s in zip(errors, states)]
    estimated = [False] * K
    spent = 0
    init_order = iter(range(K))
    while spent < budget:
        pos = next(init_order, None)
        if pos is None:
            if all(s.at_cap for s in states):
                trace.ended_early = True
                break
            pos = chooser(states)
        state = states[pos]
        t_k = state.samples_spent
        batch = min(sub_batch if t_k else init[pos], budget - spent, state.cap - t_k)
        state.data = state.data.extend(new_samples(state.truth, cfg.sigma, batch, streams[pos]))
        state.samples_spent += batch
        spent += batch
        _refit(state, cfg)
        errors[pos] = state.sq_err
        t_values[pos] = state.samples_spent
        b_values[pos] = state.band
        true_errors[pos] = state.sq_err / state.cap
        estimated[pos] = state.current is not None
        # The event's losses, from the weighted errors. numpy's sum adds in
        # another order than Python's, and the golden files hold its bits.
        e = np.asarray(errors) if weights is None else weights * np.asarray(errors)
        trace.events.append(
            TraceEvent(
                t=spent,
                chosen=state.truth.spec.index,
                b_values=tuple(b_values),
                t_values=tuple(t_values),
                true_errors=tuple(true_errors),
                estimated=tuple(estimated),
                loss_p1=float(e.sum()),
                loss_pinf=float(e.max()),
            )
        )
    return states, trace


def malocate_run(
    problem: list[GroundTruth], cfg: ExperimentConfig, strategy: StrategySpec, rng
) -> tuple[list[ArmState], RunTrace]:
    """Adaptive run: each step samples argmax of the band criterion for ``strategy.p``."""

    def chooser(states: list[ArmState]) -> int:
        return select_index(states, strategy.p, strategy.weights)

    return _run(problem, cfg, strategy, rng, chooser=chooser)


def uniform_run(
    problem: list[GroundTruth], cfg: ExperimentConfig, strategy: StrategySpec, rng
) -> tuple[list[ArmState], RunTrace]:
    """Round-robin baseline under the same schedule and update guard."""
    cursor = 0

    def chooser(states: list[ArmState]) -> int:
        nonlocal cursor
        pos = _pick(states, lambda i, s: -((i - cursor) % len(states)))
        cursor = pos + 1
        return pos

    return _run(problem, cfg, strategy, rng, chooser=chooser)


def oracle_run(
    problem: list[GroundTruth], cfg: ExperimentConfig, strategy: StrategySpec, rng
) -> tuple[list[ArmState], RunTrace]:
    """Baseline: the adaptive rule with each arm's true per-entry error e / d^2 as B.

    Ground truth is read for selection only, never for fitting; e is the
    arm's ``sq_err``, and an arm with no estimate yet scores inf. ``p`` is
    ``strategy.p``, inf when that is None.
    """
    p = math.inf if strategy.p is None else strategy.p

    def chooser(states: list[ArmState]) -> int:
        errors = [math.inf if s.current is None else s.sq_err / s.cap for s in states]
        return select_index(states, p, strategy.weights, errors)

    return _run(problem, cfg, strategy, rng, chooser=chooser)
