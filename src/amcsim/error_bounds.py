"""Honest error bands from double-sampled entries.

The eval portion of a sample is scanned for entries observed at least
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
    "paired_arrays",
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


def split_dataset(data: Dataset) -> tuple[Dataset, Dataset]:
    """Split one dataset into (train, eval) parts.

    Entries observed exactly once train; every observation of an entry
    seen twice or more evaluates, so no repeat-free observation is
    wasted. Together the parts are the original multiset, and each comes
    out grouped: entries in row-major order, arrival order within an
    entry.
    """
    if len(data) == 0:
        raise ValueError("cannot split an empty dataset")
    order, counts = data.by_entry()
    train = np.repeat(counts == 1, counts)
    return data.take(order[train]), data.take(order[~train])


def paired_arrays(eval_data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized pairing of double-sampled entries.

    Returns (rows, cols, y, y2) of the disjoint consecutive pairs formed
    within each repeated entry, in the entry's insertion order. An entry
    seen m times yields floor(m/2) pairs; a leftover odd observation is
    discarded.
    """
    order, counts = eval_data.by_entry()
    # Consecutive grouped positions of an entry are consecutive looks at it.
    offsets = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    first = (offsets % 2 == 0) & (offsets + 1 < np.repeat(counts, counts))
    idx1 = order[first]
    idx2 = order[np.flatnonzero(first) + 1]
    return (
        eval_data.rows[idx1],
        eval_data.cols[idx1],
        eval_data.values[idx1],
        eval_data.values[idx2],
    )


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


def estimate_error_bound(est: MatrixEstimate, eval_data: Dataset, dim: int, bound: float,
                         scale: float = 8.0) -> ErrorEstimate:
    """Pair the eval sample and bundle (N, r_n, b) for one estimate.

    r_n averages (y - m)(y2 - m) over the pairs, m being the estimate's
    value at the pair's entry: an unbiased estimate of ||est - M||_F^2 / d^2
    that may be negative. With no pairs the band is +inf.
    """
    rows, cols, y, y2 = paired_arrays(eval_data)
    n_pairs = len(y)
    if n_pairs == 0:
        return ErrorEstimate(n_pairs=0, r_n=None, b=math.inf)
    m = est.values[rows, cols]
    r_n = float(np.mean((y - m) * (y2 - m)))
    return ErrorEstimate(n_pairs, r_n, b_value(r_n, n_pairs, dim, bound, scale))
