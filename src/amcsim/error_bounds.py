"""Honest error bands from double-sampled entries.

The split of a sample pairs the looks at entries observed at least
twice. Each disjoint pair of looks at the same entry gives one unbiased
product-of-residuals term; their average estimates the normalized
squared Frobenius error of an estimate without knowing the noise level.
The band adds a width that shrinks like 1/sqrt(N) in the pair count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import MatrixEstimate
from .problem import Dataset

__all__ = [
    "ErrorEstimate",
    "split_dataset",
    "b_value",
    "estimate_error_bound",
]


@dataclass(frozen=True)
class ErrorEstimate:
    """Pair count N, unbiased estimate r_n, and upper band b.

    N == 0 carries no information: r_n is None and b is +inf. r_n may
    legitimately be negative for finite N; b is never clamped when used
    in comparisons.
    """

    n_pairs: int
    r_n: float | None
    b: float

    def __post_init__(self):
        if self.n_pairs == 0 and not math.isinf(self.b):
            raise ValueError("zero pairs must give an infinite band")


def split_dataset(data: Dataset) -> tuple[Dataset, tuple[np.ndarray, ...]]:
    """Split one dataset into its train part and its eval pairs.

    Entries observed exactly once train; every observation of an entry
    seen twice or more evaluates, so no repeat-free observation is
    wasted. ``train`` comes out with its cells in increasing order.
    The eval pairs are (cells, y, y2): the disjoint consecutive
    pairs of looks at each repeated entry, cells in increasing order and
    looks in arrival order. An entry seen m times yields floor(m/2)
    pairs; a leftover odd look is dropped. Both come from one grouping.
    """
    n = len(data)
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    # The positions grouped by entry, cells in increasing order and each
    # entry's looks in arrival order. Ties broken by position make every
    # key unique, so the default sort keeps arrival order (a stable sort
    # is several times slower). cells * n stays in int64 while
    # (d^2) * n < 2^63.
    order = np.argsort(data.cells * n + np.arange(n))
    key = data.cells[order]
    # bounds: the first grouped position of each entry, then n.
    edge = np.ones(n + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    counts = bounds[1:] - bounds[:-1]
    # Per grouped position, its entry's count and which look at it it is;
    # consecutive grouped positions of an entry are consecutive looks at it.
    seen = np.repeat(counts, counts)
    offsets = np.arange(n) - np.repeat(bounds[:-1], counts)
    first = (offsets % 2 == 0) & (offsets + 1 < seen)
    idx1 = order[first]
    idx2 = order[np.flatnonzero(first) + 1]
    pairs = (data.cells[idx1], data.values[idx1], data.values[idx2])
    once = order[seen == 1]
    return Dataset(data.cells[once], data.values[once]), pairs


def b_value(r_n: float, n_pairs: int, dim: int, bound: float, scale: float = 8.0) -> float:
    """Upper confidence band r_n + scale * A^2 * sqrt(ln d / N).

    With scale = 8 this holds with probability at least 1 - 2/d for any
    fixed estimate. The scale is configurable: experiment configs may
    tighten it, trading worst-case honesty for allocation signal.
    """
    if n_pairs < 1:
        raise ValueError("band requires at least one pair")
    if dim < 2:
        raise ValueError("band is degenerate for dim < 2")
    return r_n + scale * bound * bound * math.sqrt(math.log(dim) / n_pairs)


def estimate_error_bound(est: MatrixEstimate, pairs: tuple[np.ndarray, ...], dim: int,
                         bound: float, scale: float = 8.0) -> ErrorEstimate:
    """Bundle (N, r_n, b) for one estimate on the eval pairs of ``split_dataset``.

    r_n averages (y - m)(y2 - m) over the pairs (cells, y, y2), m
    being the estimate's value at the pair's row-major cell: an unbiased
    estimate of ||est - M||_F^2 / d^2 that may be negative. With no pairs
    the band is +inf.
    """
    cells, y, y2 = pairs
    n_pairs = len(y)
    if n_pairs == 0:
        return ErrorEstimate(n_pairs=0, r_n=None, b=math.inf)
    m = est.values.take(cells)
    r_n = float(np.mean((y - m) * (y2 - m)))
    return ErrorEstimate(n_pairs, r_n, b_value(r_n, n_pairs, dim, bound, scale))
