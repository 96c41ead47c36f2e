"""Problem instances and the uniform entry-sampling observation model.

A problem is a collection of square low-rank matrices. Observations are
trace-regression samples: an entry location drawn uniformly at random
(with replacement, so the same entry can be seen several times) plus
additive Gaussian noise of standard deviation ``sigma`` on the entry
value; ``sigma = 0`` observes entries exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MatrixSpec",
    "GroundTruth",
    "Dataset",
    "named_stream",
    "generate_ground_truth",
    "new_samples",
]


@dataclass(frozen=True)
class MatrixSpec:
    """One sub-problem: a d x d matrix of rank at most ``rank_bound``.

    ``index`` is the 1-based problem id, ``bound`` the known magnitude
    scale A of entries and observations (it enters the regularization
    schedule and the confidence band, never the generator).
    """

    index: int
    dim: int
    rank_bound: int
    bound: float = 4.0

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"matrix index must be >= 1, got {self.index}")
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if not 1 <= self.rank_bound <= self.dim:
            raise ValueError(
                f"rank_bound must be in [1, {self.dim}], got {self.rank_bound}"
            )
        if self.bound <= 0:
            raise ValueError(f"bound must be positive, got {self.bound}")


@dataclass(frozen=True)
class GroundTruth:
    """A spec together with its true dense matrix."""

    spec: MatrixSpec
    entries: np.ndarray

    def __post_init__(self):
        d = self.spec.dim
        if self.entries.shape != (d, d):
            raise ValueError(
                f"entries must be {d}x{d}, got {self.entries.shape}"
            )


@dataclass
class Dataset:
    """Observations of one d x d matrix in arrival order, stored as flat
    arrays: each one's row-major cell r * d + c in ``cells``, its value in
    ``values``."""

    cells: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    values: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.cells) != len(self.values):
            raise ValueError("cells and values must have equal length")

    def __len__(self) -> int:
        return len(self.values)

    def extend(self, other: "Dataset") -> "Dataset":
        """New dataset with ``other`` appended after ``self``."""
        return Dataset(
            np.concatenate([self.cells, other.cells]),
            np.concatenate([self.values, other.values]),
        )


def named_stream(*name: int) -> np.random.Generator:
    """Counter-based RNG stream keyed by a tuple of integers.

    Distinct names give statistically independent streams; the same name
    always reproduces the same stream. A run keys each truth by
    (master seed, repetition, 0, matrix) and each matrix's observations
    by (master seed, repetition, 1, strategy, matrix), so that
    repetitions are independent and every run is replayable.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(name)))


def generate_ground_truth(spec: MatrixSpec, seed) -> GroundTruth:
    """Draw a random rank-``r`` truth matrix M = U V.

    U is d x r and V is r x d with i.i.d. centered Gaussian entries of
    variance r^(-1/2), so every entry of M has variance 1 regardless of
    the rank.

    Parameters
    ----------
    spec : MatrixSpec
    seed : int or tuple of int, the key of a ``named_stream``

    Returns
    -------
    GroundTruth
        Deterministic given ``seed``; rank(M) <= spec.rank_bound.
    """
    rng = named_stream(*seed) if isinstance(seed, tuple) else named_stream(seed)
    d, r = spec.dim, spec.rank_bound
    entry_std = r ** (-0.25)  # variance r^(-1/2)
    u = rng.normal(0.0, entry_std, size=(d, r))
    v = rng.normal(0.0, entry_std, size=(r, d))
    return GroundTruth(spec=spec, entries=u @ v)


def new_samples(
    gt: GroundTruth,
    sigma: float,
    T: int,
    rng: np.random.Generator,
) -> Dataset:
    """Draw T fresh observations of one matrix, locations uniform i.i.d.

    Entry locations are sampled with replacement on the d x d grid, so
    multi-sampling of an entry is possible (and, for T >> d, likely);
    the double-sampled entries are what powers the error estimator.
    The stream gives T rows, then T columns, kept as cells r * d + c.
    Each value is the entry plus N(0, sigma^2) noise; sigma = 0 draws no
    noise, and a negative or NaN sigma is rejected.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not sigma >= 0:  # rejects NaN too
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    d = gt.spec.dim
    rows = rng.integers(0, d, size=T)
    cols = rng.integers(0, d, size=T)
    cells = rows * d + cols
    values = gt.entries.take(cells)
    if sigma > 0:
        values += rng.normal(0.0, sigma, size=T)
    return Dataset(cells, values)
