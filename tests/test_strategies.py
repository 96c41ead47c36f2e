import math
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amcsim.strategies as strategies
from amcsim import (
    Discretized,
    EstimatorConfig,
    ExperimentConfig,
    MatrixEstimate,
    MatrixSpec,
    StrategySpec,
    estimate_error_bound,
    generate_ground_truth,
    malocate_run,
    oracle_run,
    select_index,
    uniform_run,
)
from amcsim.checks import scale_violation, trace_violation

FAST_CFG = EstimatorConfig(max_iters=60, tol=1e-4)
P1 = StrategySpec("malocate", p=1.0)
PINF = StrategySpec("malocate", p=math.inf)
UNIFORM = StrategySpec("uniform")
ORACLE = StrategySpec("oracle")
ORACLE_P1 = StrategySpec("oracle", p=1.0)


def make_problem(dims, ranks, seed=0, bound=4.0):
    truths = []
    for pos, (d, r) in enumerate(zip(dims, ranks)):
        spec = MatrixSpec(index=pos + 1, dim=d, rank_bound=r, bound=bound)
        truths.append(generate_ground_truth(spec, (seed, pos)))
    return truths


def run_config(truths, **settings):
    """An ExperimentConfig with the dims and ranks of ``truths`` and ``settings``."""
    return ExperimentConfig(
        experiment="test",
        dims=[gt.spec.dim for gt in truths],
        ranks=[gt.spec.rank_bound for gt in truths],
        **settings,
    )


class TestSelectIndex:
    # Each case passes (dims, spent, bands); the spent counts stay below
    # the d^2 caps unless a case says otherwise.
    def test_max_loss_criterion(self):
        assert select_index((20, 20), (100, 100), (0.5, 0.1), math.inf) == 0

    def test_sum_loss_divides_by_samples(self):
        # d^2 B / T scores: 4.5 vs 0.18
        assert select_index((30, 30), (100, 500), (0.5, 0.1), 1.0) == 0

    def test_uninitialized_first(self):
        for p in (1.0, 2.0, math.inf):
            assert select_index((20, 20), (0, 100), (math.inf, 0.3), p) == 0

    def test_capped_arms_excluded(self):
        # arm 0 sits exactly at its d^2 = 100 cap despite the bigger band
        assert select_index((10, 10), (100, 50), (5.0, 0.1), math.inf) == 1

    def test_all_capped_raises(self):
        with pytest.raises(ValueError):
            select_index((5,), (25,), (0.5,), math.inf)

    def test_weights_tilt_choice(self):
        dims, spent, bands = (20, 20), (100, 100), (0.5, 0.4)
        assert select_index(dims, spent, bands, math.inf) == 0
        assert select_index(dims, spent, bands, math.inf, (1.0, 10.0)) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        bands=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=2),
        spent=st.lists(st.integers(1, 59), min_size=2, max_size=2),
        p=st.sampled_from([1.0, 3.0, math.inf]),
        c=st.floats(0.2, 5.0),
    )
    def test_scale_invariance(self, bands, spent, p, c):
        assert scale_violation((8, 12), spent, bands, p, c) is None

    def test_tie_breaks_to_lowest(self):
        assert select_index((20, 20), (100, 100), (0.5, 0.5), math.inf) == 0


class TestComputeLoss:
    def test_missing_estimate_counts_as_zero(self):
        # The first event fits arm 0 only; arm 1 has no estimate, so its
        # error is that of the zero matrix.
        truths = make_problem([6, 8], [1, 1])
        cfg = run_config(truths, budget=200, estimator=FAST_CFG)
        _, trace = malocate_run(truths, cfg, P1, rng=0)
        first = trace.events[0]
        assert first.chosen == 1 and not first.estimated[1]
        assert first.true_errors[1] == float(np.sum(truths[1].entries ** 2)) / 8**2

    def test_loss_spec_validation(self):
        with pytest.raises(ValueError):
            StrategySpec("malocate", p=0.5)
        with pytest.raises(ValueError):
            StrategySpec("malocate", p=1.0, weights=(1.0, -1.0))
        with pytest.raises(ValueError, match="uniform takes no p"):
            StrategySpec("uniform", p=2.0)


# One fixed run per entry: (dims, ranks, problem seed, settings, strategy,
# rng). ``trace_violation`` fixes every batch, and in the initialization
# pass, with one arm or under uniform every pick, so it pins the equal
# sub-batches, the round-robin spread, the early end at the caps, the last
# batch cut to the budget left and the clamped first batches of these runs.
FIXED_RUNS = [
    # Batches 16, 16, then two sub-batches of 56 cut to the 48 left below
    # each cap, and the run ends early.
    pytest.param([8, 8], [1, 1], 7, dict(sigma=0.05, budget=256, schedule=Discretized(2, 4),
                 confidence_scale=8.0), P1, 5, id="caps_end_run_early"),
    # The free 720 - 3 * 160 fits in one arm's remaining 400 - 160, so the
    # d^2 clamp cannot bind whatever the chooser does.
    pytest.param([20] * 3, [2] * 3, 10, dict(sigma=0.1, budget=720, schedule=Discretized(8, 10),
                 confidence_scale=0.0625), P1, 8, id="init_then_equal_batches"),
    # Batches 160 x 3, 25 x 9, then the 20 the budget leaves.
    pytest.param([20] * 3, [2] * 3, 10, dict(sigma=0.1, budget=725, schedule=Discretized(8, 10),
                 confidence_scale=0.0625), P1, 8, id="budget_clamps_last_batch"),
    pytest.param([16] * 4, [2] * 4, 11, dict(sigma=0.1, budget=2000, schedule=Discretized(8, 12),
                 confidence_scale=0.0625), UNIFORM, 9, id="uniform_round_robin"),
    pytest.param([20], [2], 13, dict(sigma=0.1, budget=1000, schedule=Discretized(8, 5),
                 confidence_scale=0.0625), P1, 11, id="reuse_to_cap"),
    # Each first batch is clamped to d^2 and the budget covers exactly both.
    pytest.param([6, 6], [1, 1], 15, dict(sigma=0.1, budget=72, schedule=Discretized(8, 4),
                 confidence_scale=8.0), P1, 13, id="clamped_init_discretized"),
]


class TestFixedRuns:
    @pytest.mark.parametrize("dims,ranks,seed,kw,strategy,rng", FIXED_RUNS)
    def test_trace_obeys_laws(self, dims, ranks, seed, kw, strategy, rng):
        truths = make_problem(dims, ranks, seed=seed)
        cfg = run_config(truths, estimator=FAST_CFG, **kw)
        runner = malocate_run if strategy.kind == "malocate" else uniform_run
        _, trace = runner(truths, cfg, strategy, rng)
        assert trace_violation(cfg, strategy, trace) is None


class TestDiscretizedRuns:
    def test_problem_must_match_config(self):
        truths = make_problem([8, 10], [1, 1])
        cfg = run_config(truths, budget=200)
        for problem in ([], truths[:1], truths[::-1]):
            for strategy, runner in ((P1, malocate_run), (UNIFORM, uniform_run)):
                with pytest.raises(ValueError, match="cfg.dims"):
                    runner(problem, cfg, strategy, rng=0)

    def test_b_monotone_and_guarded_updates(self):
        truths = make_problem([20, 24], [2, 3], seed=8)
        cfg = run_config(
            truths, sigma=0.1, budget=3000, schedule=Discretized(8, 10), estimator=FAST_CFG,
            confidence_scale=8.0,
        )
        _, trace = malocate_run(truths, cfg, PINF, rng=6)
        assert trace_violation(cfg, PINF, trace) is None  # bands never rise
        for before, event in zip(trace.events, trace.events[1:]):
            for pos in range(2):
                if event.true_errors[pos] != before.true_errors[pos]:
                    # estimate replaced: band must have strictly improved
                    # or have been infinite before
                    b = before.b_values[pos]
                    assert event.b_values[pos] < b or math.isinf(b)

    def test_noiseless_generous_budget_recovers(self):
        # budget n = sum(d^2) puts every arm in the exact-recovery regime
        # once the iteration is allowed to converge
        truths = make_problem([30, 30], [2, 2], seed=9)
        n = 2 * 30 * 30
        cfg = run_config(
            truths, sigma=0.0, budget=n,
            schedule=Discretized(8, 20),
            estimator=EstimatorConfig(lambda_scale=0.1, max_iters=3000, tol=1e-9),
            confidence_scale=0.0625,
        )
        estimates, trace = malocate_run(truths, cfg, PINF, rng=7)
        errors = [
            float(np.sum((estimates[i].values - gt.entries) ** 2)) / 30**2
            for i, gt in enumerate(truths)
        ]
        assert max(errors) <= 1e-2

    def test_single_arm_strategies_agree(self):
        truths = make_problem([20], [2], seed=12)
        cfg = run_config(
            truths, sigma=0.1, budget=1200, schedule=Discretized(8, 8), estimator=FAST_CFG,
            confidence_scale=0.0625,
        )
        _, t_mal = malocate_run(truths, cfg, P1, rng=10)
        _, t_uni = uniform_run(truths, cfg, UNIFORM, rng=10)
        assert [e.t_values for e in t_mal.events] == [e.t_values for e in t_uni.events]
        assert [e.loss_p1 for e in t_mal.events] == [e.loss_p1 for e in t_uni.events]


class TestInitClampedToCap:
    # The budget has to cover each arm's first batch after the d^2 clamp:
    # 8 * 6 = 48 is clamped to 36. The run at budget 2 d^2 is in FIXED_RUNS.
    def test_budget_of_clamped_init(self):
        truths = make_problem([6, 6], [1, 1], seed=15)
        with pytest.raises(ValueError, match="cannot cover initialization \\(72\\)"):
            run_config(truths, sigma=0.1, budget=71, schedule=Discretized(8, 4),
                       estimator=FAST_CFG, confidence_scale=8.0)


class TestRefitData:
    def test_refits_once_on_every_observation(self, monkeypatch):
        # Each step refits once, on every observation of the chosen arm.
        split, lengths = strategies.split_dataset, []

        def recording_split(data):
            lengths.append(len(data))
            return split(data)

        monkeypatch.setattr(strategies, "split_dataset", recording_split)
        truths = make_problem([10, 12], [1, 2], seed=16)
        cfg = run_config(truths, sigma=0.1, budget=300, schedule=Discretized(8, 10),
                         estimator=FAST_CFG)
        _, trace = malocate_run(truths, cfg, P1, rng=14)
        assert len(lengths) == len(trace.events) > 3
        for n, event in zip(lengths, trace.events):
            assert n == event.t_values[event.chosen - 1]

    def test_clamp_precedes_the_band(self, monkeypatch):
        # The truths' entries have variance 1, so at A = 0.5 the fits
        # overshoot the bound and the clamp binds. Each fit a refit
        # returns lies in [-A, A], and its band is that of the clamped
        # values on the pairs of its split.
        refit, split, pairs, fits = strategies._refit, strategies.split_dataset, [], []

        def recording_split(data):
            train, eval_pairs = split(data)
            pairs.append(eval_pairs)
            return train, eval_pairs

        def recording_refit(spec, data, warm, cfg):
            fit = refit(spec, data, warm, cfg)
            if fit is not None:
                fits.append((fit[0].values, pairs[-1], spec.dim, fit[1]))
            return fit

        monkeypatch.setattr(strategies, "split_dataset", recording_split)
        monkeypatch.setattr(strategies, "_refit", recording_refit)
        truths = make_problem([10, 12], [1, 2], seed=16, bound=0.5)
        cfg = run_config(truths, sigma=0.1, bound_a=0.5, budget=300,
                         schedule=Discretized(8, 10), estimator=FAST_CFG)
        malocate_run(truths, cfg, P1, rng=14)
        assert len(fits) > 3
        assert any(np.abs(values).max() == 0.5 for values, *_ in fits)
        for values, eval_pairs, dim, band in fits:
            assert np.abs(values).max() <= 0.5
            est = MatrixEstimate(0, values)
            assert estimate_error_bound(est, eval_pairs, dim, 0.5, cfg.confidence_scale).b == band


class TestOracleRun:
    def test_oracle_prefers_large_true_error(self):
        # rank 8 arm is much harder than rank 1 at equal budget
        truths = make_problem([24, 24], [8, 1], seed=14)
        # below total capacity 2 * 24^2, so the d^2 cap does not force an
        # equal split: the free budget fits in one arm's remaining
        # capacity, n - 2 * 192 <= 576 - 192, i.e. n <= 768
        n = 768
        cfg = run_config(
            truths, sigma=0.05, budget=n, schedule=Discretized(8, 12), estimator=FAST_CFG,
            confidence_scale=8.0,
        )
        _, trace = oracle_run(truths, cfg, ORACLE, rng=12)
        final = trace.events[-1].t_values
        assert final[0] > final[1]

    def test_oracle_weights_tilt_allocation(self):
        # The instance above: unweighted, the oracle spends the free budget
        # on the hard arm; weight 10 on the easy arm sends it there instead.
        truths = make_problem([24, 24], [8, 1], seed=14)
        cfg = run_config(
            truths, sigma=0.05, budget=768, schedule=Discretized(8, 12), estimator=FAST_CFG,
            confidence_scale=8.0,
        )
        weighted = StrategySpec("oracle", weights=(1.0, 10.0))
        _, plain = oracle_run(truths, cfg, ORACLE, rng=12)
        _, tilted = oracle_run(truths, cfg, weighted, rng=12)
        assert plain.events[-1].t_values == (576, 192)
        assert tilted.events[-1].t_values == (192, 576)

    def test_oracle_honours_p(self):
        # The instance above: the p = 1 law trades the hard arm's larger
        # error against its larger sample count, so it moves budget to the
        # easy arm where p = inf, the default, does not.
        truths = make_problem([24, 24], [8, 1], seed=14)
        cfg = run_config(
            truths, sigma=0.05, budget=768, schedule=Discretized(8, 12), estimator=FAST_CFG,
            confidence_scale=8.0,
        )
        _, default = oracle_run(truths, cfg, ORACLE, rng=12)
        _, p_inf = oracle_run(truths, cfg, StrategySpec("oracle", p=math.inf), rng=12)
        _, p_one = oracle_run(truths, cfg, ORACLE_P1, rng=12)
        assert p_inf.events == default.events
        assert [e.chosen for e in p_one.events] != [e.chosen for e in p_inf.events]

    def test_oracle_dominates_for_max_loss(self):
        # median over seeds: oracle final max loss <= malocate's
        wins = 0
        seeds = range(6)
        for seed in seeds:
            truths = make_problem([20, 20], [5, 1], seed=seed)
            cfg = run_config(
                truths, sigma=0.05, budget=800, schedule=Discretized(8, 10),
                estimator=FAST_CFG, confidence_scale=0.0625,
            )
            _, t_orc = oracle_run(truths, cfg, ORACLE, rng=100 + seed)
            _, t_mal = malocate_run(truths, cfg, PINF, rng=100 + seed)
            if t_orc.events[-1].loss_pinf <= t_mal.events[-1].loss_pinf:
                wins += 1
        assert wins >= len(seeds) // 2


class TestGoodAllocation:
    def test_two_arm_complexity_ratio(self):
        # complexities differ 8x via the ranks; ideal p=1 split has
        # T ratio (c1/c2)^(1/2) = 2.83; require within a factor 4
        ratios = []
        for seed in range(10):
            truths = make_problem([40, 40], [8, 1], seed=20 + seed)
            cfg = run_config(
                truths, sigma=0.1, budget=2600, schedule=Discretized(8, 30),
                estimator=EstimatorConfig(max_iters=80, tol=1e-4),
                confidence_scale=0.0625,
            )
            _, trace = malocate_run(truths, cfg, P1, rng=200 + seed)
            final = trace.events[-1].t_values
            ratios.append(final[0] / final[1])
        median = float(np.median(ratios))
        ideal = 8 ** 0.5
        assert ideal / 4 <= median <= ideal * 4


@st.composite
def loop_instances(draw, max_dim=30):
    """Small problems whose budget lies between the clamped first batches and
    sum d^2 + 10, with weights or none."""
    K = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(3, max_dim), min_size=K, max_size=K))
    ranks = draw(st.lists(st.integers(1, 2), min_size=K, max_size=K))
    truths = make_problem(dims, ranks, seed=draw(st.integers(0, 2**16)))
    schedule = draw(st.builds(Discretized, st.integers(1, 4), st.integers(1, 6)))
    cover = sum(min(schedule.init_multiplier * d, d * d) for d in dims)
    cfg = run_config(
        truths,
        sigma=draw(st.sampled_from([0.0, 0.1])),
        budget=draw(st.integers(cover, sum(d * d for d in dims) + 10)),
        schedule=schedule,
        estimator=EstimatorConfig(max_iters=20, tol=1e-3),
    )
    weights = draw(st.none() | st.tuples(*[st.floats(0.1, 10)] * K))
    return truths, cfg, draw(st.integers(0, 2**16)), weights


class TestRunLoopProperty:
    @settings(max_examples=60, deadline=None)
    @given(loop_instances(), st.sampled_from([1.0, 2.5, math.inf]))
    def test_batches_budget_and_bands(self, instance, p):
        truths, cfg, rng, weights = instance
        runs = [
            (StrategySpec("malocate", p=p, weights=weights), malocate_run),
            (StrategySpec("uniform", weights=weights), uniform_run),
            (StrategySpec("oracle", p=p, weights=weights), oracle_run),
        ]
        for strategy, runner in runs:
            estimates, trace = runner(truths, cfg, strategy, rng)
            assert trace_violation(cfg, strategy, trace) is None
            # The last event records each arm's final estimate: whether it
            # has one, and its true error, the zero matrix standing in for
            # a missing one.
            last = trace.events[-1]
            for k, (est, gt) in enumerate(zip(estimates, truths)):
                diff = gt.entries if est is None else est.values - gt.entries
                assert last.estimated[k] == (est is not None)
                assert last.true_errors[k] == float(np.sum(diff * diff)) / gt.spec.dim**2
