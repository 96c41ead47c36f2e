import numpy as np
import pytest
from scipy import stats

from amcsim import (
    Dataset,
    GroundTruth,
    MatrixSpec,
    generate_ground_truth,
    named_stream,
    new_samples,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        MatrixSpec(index=0, dim=4, rank_bound=2)
    with pytest.raises(ValueError):
        MatrixSpec(index=1, dim=4, rank_bound=5)
    with pytest.raises(ValueError):
        MatrixSpec(index=1, dim=4, rank_bound=0)
    with pytest.raises(ValueError):
        MatrixSpec(index=1, dim=4, rank_bound=2, bound=0.0)


def test_noise_validation():
    # A negative sigma must not pass for "no noise", nor NaN for anything.
    gt = generate_ground_truth(MatrixSpec(index=1, dim=4, rank_bound=1), 0)
    for sigma in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="sigma"):
            new_samples(gt, sigma, 5, named_stream(0))


def test_ground_truth_deterministic():
    spec = MatrixSpec(index=1, dim=4, rank_bound=4)
    a = generate_ground_truth(spec, 123)
    b = generate_ground_truth(spec, 123)
    assert np.array_equal(a.entries, b.entries)
    c = generate_ground_truth(spec, 124)
    assert not np.array_equal(a.entries, c.entries)


def test_ground_truth_unit_variance():
    # Var(M_ij) = 1 by the r^(-1/2) entry variance of the factors.
    spec = MatrixSpec(index=1, dim=200, rank_bound=10)
    variances = [
        generate_ground_truth(spec, seed).entries.var() for seed in range(20)
    ]
    assert abs(np.mean(variances) - 1.0) < 0.1


def test_ground_truth_rank():
    spec = MatrixSpec(index=1, dim=50, rank_bound=3)
    gt = generate_ground_truth(spec, 7)
    s = np.linalg.svd(gt.entries, compute_uv=False)
    assert s[3] <= 1e-8 * s[0]


@pytest.mark.parametrize("rank", [1, 2, 5, 10])
def test_rank_never_exceeds_bound(rank):
    spec = MatrixSpec(index=1, dim=25, rank_bound=rank)
    for seed in range(5):
        s = np.linalg.svd(generate_ground_truth(spec, seed).entries, compute_uv=False)
        if rank < 25:
            assert s[rank] <= 1e-8 * s[0]


def test_single_entry_matrix():
    spec = MatrixSpec(index=1, dim=1, rank_bound=1)
    gt = generate_ground_truth(spec, 5)
    ds = new_samples(gt, 0.0, 5, named_stream(0))
    assert len(ds) == 5
    assert np.all(ds.cells == 0)
    assert np.allclose(ds.values, gt.entries[0, 0])


def test_new_samples_uniform_locations():
    # chi-square against uniform over the d*d grid, ~100 expected per cell
    d = 20
    spec = MatrixSpec(index=1, dim=d, rank_bound=2)
    gt = generate_ground_truth(spec, 3)
    ds = new_samples(gt, 0.0, 40000, named_stream(11))
    counts = np.bincount(ds.cells, minlength=d * d)
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 0.001


def test_new_samples_noise_statistics():
    spec = MatrixSpec(index=1, dim=10, rank_bound=1)
    zero = GroundTruth(spec=spec, entries=np.zeros((10, 10)))
    ds = new_samples(zero, 0.1, 10000, named_stream(21))
    assert abs(ds.values.mean()) < 0.004
    assert abs(ds.values.std() - 0.1) < 0.005


def test_new_samples_deterministic_given_stream():
    d, T = 15, 100
    spec = MatrixSpec(index=1, dim=d, rank_bound=2)
    gt = generate_ground_truth(spec, 9)
    a = new_samples(gt, 0.2, T, named_stream(4, 2))
    b = new_samples(gt, 0.2, T, named_stream(4, 2))
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.values, b.values)
    # The stream gives all rows, then all columns; each cell is r * d + c.
    replica = named_stream(4, 2)
    rows = replica.integers(0, d, T)
    cols = replica.integers(0, d, T)
    assert np.array_equal(a.cells, rows * d + cols)
    exact = new_samples(gt, 0.0, T, named_stream(4, 2))
    assert exact.values.tobytes() == gt.entries[rows, cols].tobytes()


def test_multi_sampling_occurs():
    # birthday bound: 800 draws on 400 cells repeat some entry essentially always
    d = 20
    spec = MatrixSpec(index=1, dim=d, rank_bound=1)
    gt = generate_ground_truth(spec, 1)
    rng = named_stream(31)
    hits = 0
    for _ in range(1000):
        ds = new_samples(gt, 0.0, 800, rng)
        counts = np.bincount(ds.cells, minlength=d * d)
        if np.any(counts >= 2):
            hits += 1
    assert hits >= 990


def test_new_samples_rejects_bad_T():
    spec = MatrixSpec(index=1, dim=5, rank_bound=1)
    gt = generate_ground_truth(spec, 0)
    with pytest.raises(ValueError):
        new_samples(gt, 0.0, 0, named_stream(0))


def test_dataset_extend_preserves_order():
    a = Dataset(cells=[0, 4], values=[1.0, 2.0])
    b = Dataset(cells=[8], values=[3.0])
    merged = a.extend(b)
    assert list(merged.cells) == [0, 4, 8]
    assert list(merged.values) == [1.0, 2.0, 3.0]
    assert len(a) == 2  # extend does not mutate


def test_named_streams_are_independent():
    x = named_stream(0, 0).normal(size=5)
    y = named_stream(0, 1).normal(size=5)
    assert not np.allclose(x, y)
