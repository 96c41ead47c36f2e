import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amcsim import (
    Dataset,
    ErrorEstimate,
    MatrixEstimate,
    MatrixSpec,
    b_value,
    estimate_error_bound,
    generate_ground_truth,
    named_stream,
    new_samples,
    split_dataset,
)


def as_estimate(values):
    """A ``MatrixEstimate`` of matrix 1 holding ``values``."""
    return MatrixEstimate(1, values)


def make_dataset(entries, d):
    """A dataset of a d x d matrix from (row, col, value) triples."""
    return Dataset([i * d + j for i, j, _ in entries], [v for *_, v in entries])


@st.composite
def crowded_datasets(draw):
    """A d x d dataset, d in 2..8, of up to 200 observations on few entries."""
    d = draw(st.integers(2, 8))
    n = draw(st.integers(1, 200))
    cells = st.lists(st.integers(0, d * d - 1), min_size=n, max_size=n)
    values = st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=n, max_size=n
    )
    return Dataset(cells=draw(cells), values=draw(values))


def looks_by_cell(data):
    """{cell: positions in arrival order}, cells in increasing order."""
    groups = {}
    for pos, cell in enumerate(data.cells.tolist()):
        groups.setdefault(cell, []).append(pos)
    return dict(sorted(groups.items()))


def assert_same(got, cells, values):
    assert got.cells.tolist() == cells
    assert got.values.tolist() == values


def check_pairs(data):
    """The eval pairs are consecutive looks at one entry, cells in increasing order."""
    values = data.values.tolist()
    expected = [
        (cell, values[ps[k]], values[ps[k + 1]])
        for cell, ps in looks_by_cell(data).items()
        for k in range(0, len(ps) - 1, 2)
    ]
    pairs = split_dataset(data)[1]
    assert list(zip(*(a.tolist() for a in pairs))) == expected


def check_split(data):
    """The split matches a dict walk of ``data`` by entry: the train part
    is the entries seen once, and the eval pairs are as ``check_pairs`` says."""
    cells, values = data.cells.tolist(), data.values.tolist()
    once = [ps[0] for ps in looks_by_cell(data).values() if len(ps) == 1]
    assert_same(split_dataset(data)[0], *([xs[p] for p in once] for xs in (cells, values)))
    check_pairs(data)


class TestSplitDataset:
    def test_by_multiplicity_rule(self):
        # Entries a, b, a, c: train {b, c}, eval {a, a}.
        check_split(make_dataset([(0, 0, 1.0), (0, 1, 2.0), (0, 0, 3.0), (1, 1, 4.0)], 2))

    def test_by_multiplicity_all_distinct(self):
        # All distinct: the split trains on every observation.
        check_split(make_dataset([(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)], 2))

    def test_union_is_original_multiset(self):
        gt = generate_ground_truth(MatrixSpec(index=1, dim=8, rank_bound=1), 0)
        check_split(new_samples(gt, 0.5, 200, named_stream(42)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(Dataset())


class TestPairDoubleSamples:
    def test_single_duplicate(self):
        check_pairs(make_dataset([(0, 0, 0.2), (0, 1, 0.5), (0, 0, 0.4)], 2))

    def test_consecutive_disjoint_pairs(self):
        check_pairs(make_dataset([(2, 2, v) for v in (1.0, 2.0, 3.0, 4.0)], 3))

    def test_odd_leftover_discarded(self):
        check_pairs(make_dataset([(1, 1, v) for v in (1.0, 2.0, 3.0)], 2))

    def test_pair_count_bound_and_entry_match(self):
        gt = generate_ground_truth(MatrixSpec(index=1, dim=6, rank_bound=1), 2)
        for seed in range(10):
            check_pairs(new_samples(gt, 1.0, 120, named_stream(50, seed)))


class TestGroupingByEntry:
    """The split's grouping by entry matches a plain dict walk of the observations."""

    @settings(max_examples=100, deadline=None)
    @given(crowded_datasets())
    # One observation: it trains, and there are no pairs.
    @example(make_dataset([(0, 0, 1.0)], 2))
    def test_split_dataset(self, data):
        check_split(data)

    @settings(max_examples=100, deadline=None)
    @given(crowded_datasets())
    def test_paired_arrays(self, data):
        check_pairs(data)


def r_n(est, entries):
    pairs = split_dataset(make_dataset(entries, est.shape[0]))[1]
    return estimate_error_bound(as_estimate(est), pairs, est.shape[0], 1.0).r_n


class TestEstimateError:
    def test_perfect_estimate_noiseless(self):
        spec = MatrixSpec(index=1, dim=4, rank_bound=1)
        gt = generate_ground_truth(spec, 1)
        evl = new_samples(gt, 0.0, 64, named_stream(60))
        bundle = estimate_error_bound(as_estimate(gt.entries), split_dataset(evl)[1], 4, bound=4.0)
        assert bundle.n_pairs >= 1
        assert bundle.r_n == pytest.approx(0.0, abs=1e-15)

    def test_two_by_two_enumeration(self):
        # M = I2, estimate 0: single pair at (0,0) gives 1; averaging the
        # pair statistic over all four entry locations gives the true
        # normalized error (1+0+0+1)/4 = ||I||_F^2 / d^2 = 0.5
        truth = np.eye(2)
        est = np.zeros((2, 2))
        assert r_n(est, [(0, 0, 1.0), (0, 0, 1.0)]) == pytest.approx(1.0)
        contributions = []
        for i in range(2):
            for j in range(2):
                y = truth[i, j]
                contributions.append(r_n(est, [(i, j, y), (i, j, y)]))
        assert np.mean(contributions) == pytest.approx(0.5)
        assert np.mean(contributions) == pytest.approx(np.sum(truth**2) / 4)

    def test_opposite_residuals_go_negative(self):
        est = np.full((3, 3), 2.0)
        assert r_n(est, [(1, 1, 2.3), (1, 1, 1.7)]) == pytest.approx(-0.09)

    @pytest.mark.parametrize("evl,d", [
        (make_dataset([(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)], 2), 2),
    ], ids=["entries_seen_once"])
    def test_no_pairs_gives_infinite_band(self, evl, d):
        # no pair, hence no estimate and no band
        bundle = estimate_error_bound(as_estimate(np.zeros((d, d))), split_dataset(evl)[1], d, 1.0)
        assert (bundle.n_pairs, bundle.r_n, bundle.b) == (0, None, math.inf)

    def test_unbiased_monte_carlo(self):
        # small-scale version of the unbiasedness property
        d = 20
        spec = MatrixSpec(index=1, dim=d, rank_bound=2)
        gt = generate_ground_truth(spec, 3)
        est = gt.entries + 0.3  # fixed wrong estimate
        true_err = float(np.sum((est - gt.entries) ** 2)) / d**2
        rng = named_stream(61)
        samples = []
        for _ in range(1000):
            evl = new_samples(gt, 0.1, 400, rng)
            bundle = estimate_error_bound(as_estimate(est), split_dataset(evl)[1], d, bound=4.0)
            if bundle.n_pairs:
                samples.append(bundle.r_n)
        mean = np.mean(samples)
        stderr = np.std(samples) / math.sqrt(len(samples))
        assert abs(mean - true_err) <= 5 * stderr


class TestBValue:
    def test_hand_value(self):
        assert b_value(0.1, 25, 100, 1.0, scale=8.0) == pytest.approx(3.5336, abs=1e-3)

    def test_zero_scale_returns_estimate(self):
        assert b_value(0.42, 10, 50, 2.0, scale=0.0) == 0.42

    def test_band_shrinks_with_root_two(self):
        lo = b_value(0.0, 50, 100, 1.0) / b_value(0.0, 100, 100, 1.0)
        assert lo == pytest.approx(math.sqrt(2))

    def test_decreasing_in_pairs(self):
        values = [b_value(0.1, n, 30, 1.0) for n in (1, 5, 25, 125)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_requires_pairs(self):
        with pytest.raises(ValueError):
            b_value(0.1, 0, 30, 1.0)


class TestErrorEstimateBundle:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            ErrorEstimate(n_pairs=0, r_n=None, b=1.0)

    def test_band_consistent_with_parts(self):
        spec = MatrixSpec(index=1, dim=10, rank_bound=1)
        gt = generate_ground_truth(spec, 5)
        evl = new_samples(gt, 0.2, 300, named_stream(70))
        est = gt.entries * 0.5
        pairs = split_dataset(evl)[1]
        bundle = estimate_error_bound(as_estimate(est), pairs, 10, bound=2.0, scale=4.0)
        # pair each entry's looks (1st, 2nd), (3rd, 4th), ... in arrival order
        looks = {}
        for c, v in zip(evl.cells.tolist(), evl.values.tolist()):
            looks.setdefault(c, []).append(v)
        m = est.ravel()
        terms = [
            (vs[a] - m[c]) * (vs[a + 1] - m[c])
            for c, vs in looks.items()
            for a in range(0, len(vs) - 1, 2)
        ]
        assert bundle.n_pairs == len(terms)
        assert bundle.r_n == pytest.approx(np.mean(terms))
        assert bundle.b == pytest.approx(
            b_value(bundle.r_n, bundle.n_pairs, 10, 2.0, scale=4.0)
        )

    def test_double_sample_count_lower_bound(self):
        # 200-sample eval half on a 20x20 grid: N >= 2 in >= 99% of trials
        d = 20
        spec = MatrixSpec(index=1, dim=d, rank_bound=1)
        gt = generate_ground_truth(spec, 6)
        rng = named_stream(71)
        hits = 0
        for _ in range(1000):
            evl = new_samples(gt, 0.0, 200, rng)
            if len(split_dataset(evl)[1][0]) >= 2:
                hits += 1
        assert hits >= 990
