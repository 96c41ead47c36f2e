import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from amcsim import (
    Dataset,
    EstimatorConfig,
    MatrixSpec,
    generate_ground_truth,
    lambda_for,
    named_stream,
    new_samples,
    soft_impute_fit,
    split_dataset,
    svt,
)
from amcsim import estimators
from amcsim.checks import fit_violation, svt_violation
from amcsim.estimators import MatrixEstimate, gram_svt, plain_soft_impute


def full_coverage_dataset(entries):
    return Dataset(np.arange(entries.size), entries.ravel())


def sampled(d, draws, rank=3, seed=29):
    """The train part of noisy draws of a rank-``rank`` d x d instance,
    drawn with replacement."""
    spec = MatrixSpec(index=1, dim=d, rank_bound=rank)
    gt = generate_ground_truth(spec, seed)
    return spec, gt, split_dataset(new_samples(gt, 0.1, draws, named_stream(9, d, seed)))[0]


def objective(train, spec, cfg, z):
    """0.5 ||P_Omega(targets - z)||^2 + theta ||z||_* on a train part,
    with the nuclear norm from a dense SVD."""
    d = spec.dim
    theta = d * lambda_for(d, len(train), spec.bound, cfg.lambda_scale)
    resid = train.values - z.take(train.cells)
    return 0.5 * float(resid @ resid) + theta * float(np.linalg.svd(z, compute_uv=False).sum())


def fixed_point_rank(data, spec, cfg):
    """Rank at 1e-6 of the fit run to ``cfg.tol``, after ``fit_violation``
    finds it at the plain loop's fixed point."""
    est = soft_impute_fit(data, spec, cfg)
    assert fit_violation(est, data, spec, cfg) is None
    return np.linalg.matrix_rank(est.values, tol=1e-6)


class TestLambdaFor:
    def test_hand_value(self):
        assert lambda_for(100, 1000, 1.0, 1.0) == pytest.approx(0.0067861, abs=1e-6)

    def test_linear_in_bound(self):
        assert lambda_for(100, 1000, 2.0, 1.0) == 2 * lambda_for(100, 1000, 1.0, 1.0)

    def test_zero_scale(self):
        assert lambda_for(100, 1000, 1.0, 0.0) == 0.0

    def test_decreasing_in_T(self):
        values = [lambda_for(50, T, 1.0, 1.0) for T in (10, 100, 1000)]
        assert values[0] > values[1] > values[2]

    def test_rejects_degenerate_dim(self):
        with pytest.raises(ValueError):
            lambda_for(1, 100, 1.0, 1.0)


class TestSvt:
    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(8, 8))
        assert np.linalg.norm(svt(m, 0.0) - m) < 1e-10

    def test_diagonal_example(self):
        out = svt(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_full_shrinkage(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 6))
        top = np.linalg.svd(m, compute_uv=False)[0]
        assert np.allclose(svt(m, top + 1.0), 0.0)

    def test_never_increases_singular_values(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.normal(size=(7, 7))
            theta = rng.uniform(0, 3)
            before = np.linalg.svd(m, compute_uv=False)
            after = np.linalg.svd(svt(m, theta), compute_uv=False)
            assert np.all(after <= before + 1e-10)
            assert after.sum() <= before.sum() + 1e-10

    def test_output_rank(self):
        m = np.diag([5.0, 3.0, 1.0])
        out = svt(m, 2.0)
        assert np.linalg.matrix_rank(out, tol=1e-10) == 2

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -0.1)


@st.composite
def svt_cases(draw):
    """(matrix, theta) with the threshold away from every singular value:
    zero, midway between two distinct ones, or above all."""
    d = draw(st.integers(2, 60))
    kind = draw(st.sampled_from(["full", "deficient", "repeated"]))
    rank = d if kind == "full" else draw(st.integers(1, d - 1 if kind == "deficient" else d))
    # Singular values on a grid of spacing 0.25 in [1, 10], so that a
    # midpoint threshold keeps a fixed gap from every singular value.
    grid = st.integers(0, 36)
    if kind == "repeated":
        repeated = draw(st.lists(grid, min_size=1, max_size=2))
        steps = [repeated[i % len(repeated)] for i in range(rank)]
    else:
        steps = draw(st.lists(grid, min_size=rank, max_size=rank))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    sigma = np.zeros(d)
    sigma[:rank] = np.sort(1.0 + 0.25 * np.array(steps))[::-1] * scale
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.normal(size=(d, d)))
    v, _ = np.linalg.qr(rng.normal(size=(d, d)))
    m = (u * sigma) @ v.T
    levels = np.unique(np.concatenate([[0.0], sigma]))
    where = draw(st.sampled_from(["zero", "between", "above"]))
    if where == "zero":
        theta = 0.0
    elif where == "above":
        theta = sigma[0] * draw(st.floats(1.01, 10.0))
    else:
        i = draw(st.integers(0, len(levels) - 2))
        theta = 0.5 * (levels[i] + levels[i + 1])
    return m, theta


class TestGramSvt:
    @settings(max_examples=150, deadline=None)
    @given(svt_cases())
    def test_matches_dense_svt(self, case):
        assert svt_violation(*case) is None

    def test_threshold_above_top_gives_zero(self):
        m = np.diag([3.0, 1.0])
        out, shrunk = gram_svt(m, 3.5)
        assert np.array_equal(out, np.zeros((2, 2)))
        assert shrunk.size == 0

    @pytest.mark.parametrize("d", [12, 50, 120])
    def test_fit_matches_dense_svt_loop(self, d):
        spec, _, data = sampled(d, d * d)
        # One step: momentum is zero on the first step, so it is one plain
        # step with the dense svt.
        one = EstimatorConfig(lambda_scale=0.3, max_iters=1)
        est = soft_impute_fit(data, spec, one)
        z, steps = plain_soft_impute(data, spec, one)
        assert steps == est.iterations == 1
        assert 0 < np.linalg.matrix_rank(z) < d
        assert np.linalg.norm(est.values - z) <= 1e-12 * np.linalg.norm(z)
        # Run to a tight tol, the fit reaches the plain loop's fixed point
        # in fewer steps.
        cfg = dataclasses.replace(one, max_iters=20000, tol=1e-11)
        assert 0 < fixed_point_rank(data, spec, cfg) < d


class TestAcceleratedFit:
    """The restarted accelerated fit against the plain SoftImpute loop."""

    @pytest.mark.parametrize("d", [50, 120])
    def test_sampled_fit_matches_plain_loop(self, d):
        # 15% of d^2 draws, where the plain loop is slowest.
        spec, _, data = sampled(d, int(0.15 * d * d))
        cfg = EstimatorConfig(max_iters=20000, tol=1e-11)
        assert 0 < fixed_point_rank(data, spec, cfg) < d

    @pytest.mark.parametrize("d", [12, 50])
    def test_tight_tol_does_not_stall(self, d):
        # Near the fixed point a plain step can raise the objective by
        # rounding; were it dropped, the fit would never stop on tol.
        spec, _, data = sampled(d, d * d)
        cfg = EstimatorConfig(lambda_scale=0.3, max_iters=20000, tol=1e-11)
        est = soft_impute_fit(data, spec, cfg)
        assert est.converged
        assert est.iterations < 2000

    def test_iterations_and_convergence_recorded(self):
        spec, _, data = sampled(30, 150)
        cut = soft_impute_fit(data, spec, EstimatorConfig(max_iters=1))
        assert (cut.iterations, cut.converged) == (1, False)
        cfg = EstimatorConfig(max_iters=300, tol=1e-5)
        done = soft_impute_fit(data, spec, cfg)
        assert done.converged and 1 < done.iterations < cfg.max_iters

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(5, 40),
        share=st.floats(0.05, 1.0),
        rank=st.integers(1, 3),
        lambda_scale=st.sampled_from([0.3, 1.0]),
        warm=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_accepted_objective_never_rises(self, d, share, rank, lambda_scale, warm, seed):
        spec, gt, data = sampled(d, max(1, int(share * d * d)), min(rank, d), seed)
        assume(len(data) > 0)  # a few draws can all repeat, leaving nothing to train on
        start = None
        if warm:
            noise = np.random.default_rng(seed).normal(scale=0.5, size=(d, d))
            start = MatrixEstimate(1, gt.entries + noise)
        # The fit after k steps is the last iterate accepted by then.
        cfg = EstimatorConfig(lambda_scale=lambda_scale, tol=1e-300)
        values = [
            objective(data, spec, cfg, soft_impute_fit(
                data, spec, dataclasses.replace(cfg, max_iters=k), warm=start
            ).values)
            for k in range(1, 16)
        ]
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-9 * max(1.0, before)
        # The fit asserts the same on every accepted step of a long fit.
        long_fit = EstimatorConfig(lambda_scale=lambda_scale, tol=1e-11)
        soft_impute_fit(data, spec, long_fit, warm=start)

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(5, 40),
        share=st.floats(0.05, 1.0),
        rank=st.integers(1, 10),
        seed=st.integers(0, 2**16),
    )
    # Near the tol floor the objective is flat to rounding; this input
    # loses the fit its lead if it drops momentum steps on such rises.
    @example(d=37, share=0.75, rank=3, seed=31240)
    # Here the exit step fails the first time: the subspace steps alone
    # stop where one exact step moves the iterate by 6e-11.
    @example(d=17, share=0.77, rank=10, seed=31787)
    def test_fixed_point_matches_plain_loop(self, d, share, rank, seed):
        spec, _, data = sampled(d, max(1, int(share * d * d)), min(rank, d), seed)
        assume(len(data) > 0)
        cfg = EstimatorConfig(max_iters=20000, tol=1e-11)
        assert fit_violation(soft_impute_fit(data, spec, cfg), data, spec, cfg) is None


def recorded_steps(monkeypatch):
    """Wrap the fit's SVT step; each step appends (width of its basis, or
    None for an exact step, its kept rank, its output) to the returned list."""
    step, steps = estimators._svt_step, []

    def recorded(m, theta, basis=None):
        out, shrunk, next_basis = step(m, theta, basis)
        steps.append((None if basis is None else basis.shape[1], np.count_nonzero(shrunk), out))
        return out, shrunk, next_basis

    monkeypatch.setattr(estimators, "_svt_step", recorded)
    return steps


class TestSubspaceRoute:
    """The fallbacks of the fit's subspace steps above ``_DENSE_MAX_DIM``."""

    cfg = EstimatorConfig(max_iters=20000, tol=1e-11)

    def test_nearly_full_basis_reseeds_by_an_exact_step(self, monkeypatch):
        # With a margin of two, a subspace step that keeps as many
        # directions as the exact step before it keeps all but two of its basis.
        monkeypatch.setattr(estimators, "_MARGIN", 2)
        steps = recorded_steps(monkeypatch)
        spec, _, data = sampled(30, 300, 3)
        est = soft_impute_fit(data, spec, self.cfg)
        assert fit_violation(est, data, spec, self.cfg) is None
        # Before the exit, every exact step but the first follows a subspace
        # step that kept width - 2 or more, and seeds the next one kept + 2 wide.
        last = max(i for i, (width, _, _) in enumerate(steps) if width is not None)
        reseeds = [i for i in range(1, last) if steps[i][0] is None]
        assert len(reseeds) > 1
        for i in reseeds:
            width, kept, _ = steps[i - 1]
            assert width is not None and kept >= width - 2
            assert steps[i + 1][0] in (None, steps[i][1] + 2)

    def test_rising_subspace_step_is_redone_exactly(self, monkeypatch):
        # The second and third steps land far from the data. The second,
        # a momentum step, is dropped; the third, a plain subspace step, is
        # redone by an exact step, and the fit goes on to its fixed point.
        step, bases = estimators._svt_step, []

        def pushed(m, theta, basis=None):
            z, shrunk, next_basis = step(m, theta, basis)
            bases.append(basis)
            return (z + 1e3 if len(bases) in (2, 3) else z), shrunk, next_basis

        monkeypatch.setattr(estimators, "_svt_step", pushed)
        spec, _, data = sampled(30, 300, 3)
        est = soft_impute_fit(data, spec, self.cfg)
        assert [basis is None for basis in bases[:5]] == [True, False, False, True, False]
        assert fit_violation(est, data, spec, self.cfg) is None

    def test_failed_exit_check_continues_with_exact_steps(self, monkeypatch):
        # Subspace steps that shrink their output by 1e-6 stop short of the
        # fixed point, so the exit step moves the iterate by more than tol.
        subspace = estimators._subspace_svt

        def short(m, theta, basis):
            out, shrunk, next_basis = subspace(m, theta, basis)
            return out * (1.0 - 1e-6), shrunk * (1.0 - 1e-6), next_basis

        monkeypatch.setattr(estimators, "_subspace_svt", short)
        steps = recorded_steps(monkeypatch)
        spec, _, data = sampled(30, 300, 3)
        est = soft_impute_fit(data, spec, self.cfg)
        last = max(i for i, (width, _, _) in enumerate(steps) if width is not None)
        exit_out, before = steps[last + 1][2], steps[last][2]
        assert np.linalg.norm(exit_out - before) >= self.cfg.tol * np.linalg.norm(before)
        # The fit goes on with exact steps alone, and stops at the fixed point.
        assert len(steps) > last + 2 and est.iterations == len(steps)
        assert fit_violation(est, data, spec, self.cfg) is None


class TestSoftImpute:
    def test_exact_recovery_rank_one(self):
        # noiseless, full coverage, vanishing regularization: recover exactly
        rng = np.random.default_rng(3)
        d = 20
        truth = np.outer(rng.normal(size=d), rng.normal(size=d))
        data = full_coverage_dataset(truth)
        spec = MatrixSpec(index=1, dim=d, rank_bound=1, bound=float(np.abs(truth).max()))
        cfg = EstimatorConfig(lambda_scale=0.0, max_iters=50, tol=1e-12)
        est = soft_impute_fit(data, spec, cfg)
        rel = np.linalg.norm(est.values - truth) / np.linalg.norm(truth)
        assert rel <= 1e-3

    def test_full_shrinkage_fixed_point(self):
        rng = np.random.default_rng(4)
        d = 10
        truth = np.outer(rng.normal(size=d), rng.normal(size=d))
        data = full_coverage_dataset(truth)
        # enormous lambda_scale pushes theta past the top singular value
        spec = MatrixSpec(index=1, dim=d, rank_bound=1, bound=4.0)
        cfg = EstimatorConfig(lambda_scale=1e6, max_iters=10, tol=1e-12)
        est = soft_impute_fit(data, spec, cfg)
        assert np.allclose(est.values, 0.0)

    def test_empty_train_rejected(self):
        spec = MatrixSpec(index=1, dim=5, rank_bound=1)
        with pytest.raises(ValueError):
            soft_impute_fit(Dataset(), spec, EstimatorConfig())

    # Both fits take a split's train part only: each cell once, in order.
    @pytest.mark.parametrize("cells", [[3, 3], [4, 3]], ids=["repeated", "unordered"])
    @pytest.mark.parametrize("fit", [soft_impute_fit, plain_soft_impute], ids=["fit", "plain"])
    def test_rejects_cells_no_split_trains_on(self, fit, cells):
        spec = MatrixSpec(index=1, dim=5, rank_bound=1)
        with pytest.raises(ValueError, match="strictly increase"):
            fit(Dataset(cells, [1.0, 2.0]), spec, EstimatorConfig())

    def test_clip_output(self):
        # The fit returns its iterate unclamped; the run loop clamps it to
        # [-A, A] (TestRefitData::test_clamp_precedes_the_band).
        d = 4
        data = Dataset(cells=[0], values=[10.0])
        spec = MatrixSpec(index=1, dim=d, rank_bound=1, bound=1.0)
        cfg = EstimatorConfig(lambda_scale=0.0, max_iters=3, tol=1e-12)
        assert soft_impute_fit(data, spec, cfg).values[0, 0] == pytest.approx(10.0)

    def test_deterministic(self):
        spec, _, data = sampled(25, 500, 2, 11)
        cfg = EstimatorConfig(max_iters=60, tol=1e-6)
        a = soft_impute_fit(data, spec, cfg)
        b = soft_impute_fit(data, spec, cfg)
        assert np.array_equal(a.values, b.values)
        assert a.iterations == b.iterations

    def test_warm_start_changes_single_iteration(self):
        spec, _, data = sampled(15, 300, 2, 13)
        one_step = EstimatorConfig(max_iters=1, tol=1e-15)
        cold = soft_impute_fit(data, spec, one_step)
        warmed = soft_impute_fit(data, spec, one_step, warm=cold)
        assert not np.array_equal(cold.values, warmed.values)
        # No estimate is the zero estimate.
        zero = MatrixEstimate(spec.index, np.zeros((15, 15)))
        assert np.array_equal(cold.values, soft_impute_fit(data, spec, one_step, warm=zero).values)

    def test_rising_plain_step_raises(self, monkeypatch):
        # Every step after the first lands far from the data, so the
        # momentum step is dropped, the plain subspace step after it is
        # redone exactly, and that exact plain step still rises.
        spec, _, data = sampled(20, 200, 2)
        exact = estimators._svt_step
        bases = []

        def rising(m, theta, basis=None):
            z, shrunk, next_basis = exact(m, theta, basis)
            bases.append(basis)
            return (z if len(bases) == 1 else z + 1e3), shrunk, next_basis

        monkeypatch.setattr(estimators, "_svt_step", rising)
        with pytest.raises(AssertionError, match="objective increased at iteration 4"):
            soft_impute_fit(data, spec, EstimatorConfig())
        assert [basis is None for basis in bases] == [True, False, False, True]

    def test_more_data_helps(self):
        # Median error over 20 seeds shrinks when the training set
        # quadruples from ceil(r d ln d) distinct noisy cells. The cells are
        # drawn without replacement: the train part of a split keeps only
        # the cells seen once, so it would grow far less than the draws.
        d, r = 60, 3
        base = math.ceil(r * d * math.log(d))
        spec = MatrixSpec(index=1, dim=d, rank_bound=r)
        cfg = EstimatorConfig(max_iters=150, tol=1e-5)
        small, large = [], []
        for seed in range(20):
            gt = generate_ground_truth(spec, seed)
            rng = named_stream(100, seed)
            cells = rng.permutation(d * d)[: 4 * base]
            values = gt.entries.take(cells) + rng.normal(0.0, 0.1, size=cells.size)
            for out, n in ((small, base), (large, 4 * base)):
                order = np.argsort(cells[:n])
                est = soft_impute_fit(Dataset(cells[order], values[order]), spec, cfg)
                out.append(float(np.sum((est.values - gt.entries) ** 2)))
        assert np.median(small) > np.median(large)

