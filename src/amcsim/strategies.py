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

The run loop keeps each arm's T, band, true error and whether it holds
an estimate once, as the columns the trace records, and the strategies
choose from those columns alone.

Streams: ``rng`` is an integer seed or a tuple key; matrix position
``pos`` draws its observations from ``named_stream(*key, pos)``, and an
integer seed ``s`` is the key ``(s,)``.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .error_bounds import estimate_error_bound, split_dataset
from .estimators import EstimatorConfig, MatrixEstimate, soft_impute_fit
from .problem import Dataset, GroundTruth, MatrixSpec, named_stream, new_samples

__all__ = [
    "StrategySpec",
    "ExperimentConfig",
    "TUNED_CONFIDENCE_SCALE",
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


def _pick(dims, spent, score) -> int:
    """Among arms below their cap d^2, the one with the largest ``score(pos)``.

    ``dims`` and ``spent`` give each arm's d and samples T. Ties go to the
    lowest position, so an infinite score means "choose first".
    """
    available = [pos for pos, (d, t) in enumerate(zip(dims, spent)) if t < d * d]
    if not available:
        raise ValueError("every arm is at its observation cap")
    return max(available, key=score)


def select_index(dims, spent, bands, p: float, weights=None) -> int:
    """Position of the arm the adaptive criterion for the p-loss picks next.

    Arm ``pos`` has dimension d = ``dims[pos]``, T = ``spent[pos]``
    samples and band B = ``bands[pos]``; arms with T at the cap d^2 are
    excluded. Its score is w^(1/p) * d^2 * B * T^(-1/p) for finite p and
    w * d^2 * B for p = inf, with its weight w from ``weights`` (one per
    arm, default all one). An infinite B (never successfully evaluated)
    scores inf, so such an arm is chosen first; ties break to the lowest
    position. Raises ``ValueError`` when every arm is at its cap.
    """

    def score(pos: int) -> float:
        if math.isinf(bands[pos]):  # before T^(-1/p): T may be 0
            return math.inf
        w = 1.0 if weights is None else weights[pos]
        d2b = dims[pos] * dims[pos] * bands[pos]
        if math.isinf(p):
            return w * d2b
        return w ** (1.0 / p) * d2b * spent[pos] ** (-1.0 / p)

    return _pick(dims, spent, score)


def _refit(
    spec: MatrixSpec, data: Dataset, warm: MatrixEstimate | None, cfg: ExperimentConfig
) -> tuple[MatrixEstimate, float] | None:
    """Split ``data``, fit its train part from ``warm``, clamp to [-A, A] and
    band the clamped fit on the split's pairs.

    Returns the estimate and its band, or None when the train part is
    empty. Whether the fit is kept is the run loop's decision.
    """
    train, pairs = split_dataset(data)
    if len(train) == 0:
        return None
    est = soft_impute_fit(train, spec, cfg.estimator, warm=warm)
    np.clip(est.values, -spec.bound, spec.bound, out=est.values)
    bundle = estimate_error_bound(est, pairs, spec.dim, spec.bound, cfg.confidence_scale)
    return est, bundle.b


def _run(
    problem: list[GroundTruth], cfg: ExperimentConfig, strategy: StrategySpec, rng, chooser
) -> tuple[list[MatrixEstimate | None], RunTrace]:
    """Spend ``cfg.budget`` on ``problem``; ``chooser`` names each next arm.

    Each arm's state is its observations, its current estimate, its
    squared Frobenius error and the trace's four columns: T, B, the true
    per-entry error and whether it holds an estimate. The chooser is
    called as ``chooser(t_values, b_values, true_errors, estimated)``, so
    it reads exactly what each event records. Returns each arm's estimate
    as the run left it (None for an arm never fitted) and the trace.
    """
    if [gt.spec.dim for gt in problem] != list(cfg.dims):
        raise ValueError("problem dims must match cfg.dims")
    K = len(problem)
    schedule, budget = cfg.schedule, cfg.budget
    weights = None if strategy.weights is None else np.asarray(strategy.weights)
    key = (int(rng),) if isinstance(rng, (int, np.integer)) else tuple(rng)
    streams = [named_stream(*key, pos) for pos in range(K)]
    trace = RunTrace(
        truth_hashes=tuple(
            hashlib.sha256(np.ascontiguousarray(gt.entries).tobytes()).hexdigest()
            for gt in problem
        ),
    )

    # An initialization pass gives the arms, in order, their first batch
    # of ``init_multiplier * d`` clamped to the cap d^2; then the chooser
    # names each arm that gets one of the equal sub-batches of what the
    # budget leaves.
    caps = [d * d for d in cfg.dims]
    init = [min(schedule.init_multiplier * d, cap) for d, cap in zip(cfg.dims, caps)]
    sub_batch = math.ceil((budget - sum(init)) / schedule.num_batches)
    # A step changes the chosen arm's state only. An arm without an
    # estimate has the zero matrix's error.
    data = [Dataset() for _ in problem]
    current: list[MatrixEstimate | None] = [None] * K
    errors = [float(np.sum(gt.entries * gt.entries)) for gt in problem]
    t_values = [0] * K
    b_values = [math.inf] * K
    true_errors = [e / cap for e, cap in zip(errors, caps)]
    estimated = [False] * K
    spent = 0
    init_order = iter(range(K))
    while spent < budget:
        pos = next(init_order, None)
        if pos is None:
            if t_values == caps:
                trace.ended_early = True
                break
            pos = chooser(t_values, b_values, true_errors, estimated)
        t_k = t_values[pos]
        batch = min(sub_batch if t_k else init[pos], budget - spent, caps[pos] - t_k)
        truth = problem[pos]
        data[pos] = data[pos].extend(new_samples(truth, cfg.sigma, batch, streams[pos]))
        t_values[pos] = t_k + batch
        spent += batch
        # The accept guard: an equal band, inf included, is not worse.
        fit = _refit(truth.spec, data[pos], current[pos], cfg)
        if fit is not None and fit[1] <= b_values[pos]:
            current[pos], b_values[pos] = fit
            diff = current[pos].values - truth.entries
            errors[pos] = float(np.sum(diff * diff))
            true_errors[pos] = errors[pos] / caps[pos]
            estimated[pos] = True
        # The event's losses, from the weighted errors. numpy's sum adds in
        # another order than Python's, and the golden files hold its bits.
        e = np.asarray(errors) if weights is None else weights * np.asarray(errors)
        trace.events.append(
            TraceEvent(
                t=spent,
                chosen=truth.spec.index,
                b_values=tuple(b_values),
                t_values=tuple(t_values),
                true_errors=tuple(true_errors),
                estimated=tuple(estimated),
                loss_p1=float(e.sum()),
                loss_pinf=float(e.max()),
            )
        )
    return current, trace


def malocate_run(
    problem: list[GroundTruth], cfg: ExperimentConfig, strategy: StrategySpec, rng
) -> tuple[list[MatrixEstimate | None], RunTrace]:
    """Adaptive run: each step samples argmax of the band criterion for ``strategy.p``."""

    def chooser(t_values, b_values, true_errors, estimated) -> int:
        return select_index(cfg.dims, t_values, b_values, strategy.p, strategy.weights)

    return _run(problem, cfg, strategy, rng, chooser=chooser)


def uniform_run(
    problem: list[GroundTruth], cfg: ExperimentConfig, strategy: StrategySpec, rng
) -> tuple[list[MatrixEstimate | None], RunTrace]:
    """Round-robin baseline under the same schedule and update guard."""
    cursor = 0

    def chooser(t_values, b_values, true_errors, estimated) -> int:
        nonlocal cursor
        pos = _pick(cfg.dims, t_values, lambda i: -((i - cursor) % len(t_values)))
        cursor = pos + 1
        return pos

    return _run(problem, cfg, strategy, rng, chooser=chooser)


def oracle_run(
    problem: list[GroundTruth], cfg: ExperimentConfig, strategy: StrategySpec, rng
) -> tuple[list[MatrixEstimate | None], RunTrace]:
    """Baseline: the adaptive rule with each arm's true per-entry error as B.

    Ground truth is read for selection only, never for fitting; B is the
    trace's ``true_errors`` entry, inf for an arm with no estimate yet.
    ``p`` is ``strategy.p``, inf when that is None.
    """
    p = math.inf if strategy.p is None else strategy.p

    def chooser(t_values, b_values, true_errors, estimated) -> int:
        bands = [e if h else math.inf for e, h in zip(true_errors, estimated)]
        return select_index(cfg.dims, t_values, bands, p, strategy.weights)

    return _run(problem, cfg, strategy, rng, chooser=chooser)
