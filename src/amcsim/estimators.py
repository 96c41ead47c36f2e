"""Nuclear-norm-regularized completion estimators.

The fitted estimator is SoftImpute: alternate filling unobserved entries
from the current iterate with soft-thresholding the singular values of
the filled matrix, from the estimate it is given (a refit starts from
the arm's current one) or from zero. The threshold follows the
square-root lasso regularization schedule, so its sqrt(ln d / (d T))
dependence on the dimension and the training size carries over.

That alternation is proximal gradient with step 1 on
0.5 ||P_Omega(Y - Z)||^2 + theta ||Z||_* (Mazumder, Hastie & Tibshirani,
JMLR 2010), and it is slow at sparse sampling. The fit runs the
accelerated form of the same iteration (FISTA, Beck & Teboulle 2009):
each step thresholds an extrapolation of the last two iterates. A step
that raises the objective while momentum is on is dropped and the
momentum restarts (O'Donoghue & Candes 2015), so the next step is a
plain SoftImpute step, which is always kept. The accepted iterates
therefore never raise the objective beyond rounding, and the fixed
point is the plain iteration's. ``plain_soft_impute`` keeps the
unaccelerated loop as the reference the fit is tested against.

Each iteration thresholds exactly, by one of two routes chosen by the
size d of the matrix. Up to ``_DENSE_MAX_DIM`` (16) it is the dense SVD,
the ``svt`` math. Above it, it is ``gram_svt``: only the right singular
directions whose singular value exceeds the threshold survive it, so
the step finds them from the eigendecomposition of the Gram matrix and
takes singular values and left vectors from a thin SVD of the
projection onto them. At d = 200 a Gram step takes about 4.6 ms against
7.6 ms for ``np.linalg.svd``, about 60% (OpenBLAS, one thread); at small
d the eigh's fixed cost makes it the slower one. Either route makes one
``np.linalg.svd`` call per step. The dense ``svt`` is the reference
both are tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import Dataset, MatrixSpec

__all__ = [
    "EstimatorConfig",
    "MatrixEstimate",
    "lambda_for",
    "svt",
    "gram_svt",
    "soft_impute_fit",
    "plain_soft_impute",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the SoftImpute fit.

    ``lambda_scale`` multiplies the regularization schedule; ``tol`` is
    the relative Frobenius change below which iteration stops. The fit
    returns its last iterate; the run loop clamps it to [-A, A].
    Whatever the knobs, the fit asserts that no accepted step raises the
    objective by more than rounding (1e-9 relative).
    """

    lambda_scale: float = 1.0
    max_iters: int = 300
    tol: float = 1e-5

    def __post_init__(self):
        # Chained comparisons reject NaN as well as inf.
        if not 0 <= self.lambda_scale < math.inf:
            raise ValueError("lambda_scale must be nonnegative and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")


@dataclass
class MatrixEstimate:
    """A completion estimate of matrix ``index``.

    ``iterations`` counts the SVT steps of the fit, rejected ones
    included, and ``converged`` says whether it stopped on ``tol``
    rather than at ``max_iters``.
    """

    index: int
    values: np.ndarray
    iterations: int = 0
    converged: bool = False


def lambda_for(dim: int, T: int, bound: float, lambda_scale: float) -> float:
    """Regularization level C' * A * sqrt(ln d / (d T)).

    Decreases in the training size T and is linear in the magnitude
    bound A. Requires d >= 2 (ln d degenerates below that).
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if bound <= 0:
        raise ValueError("bound must be positive")
    if lambda_scale < 0:
        raise ValueError("lambda_scale must be nonnegative")
    return lambda_scale * bound * math.sqrt(math.log(dim) / (dim * T))


def svt(m: np.ndarray, theta: float) -> np.ndarray:
    """Singular value soft-thresholding: shrink every singular value by theta.

    Output rank is the number of singular values exceeding theta.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    return _dense_svt(m, theta)[0]


def _dense_svt(m: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """``svt(m, theta)`` and the shrunk singular values, from one dense SVD."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    shrunk = np.maximum(s - theta, 0.0)
    return (u * shrunk) @ vt, shrunk


# Largest d at which the fit's step is the dense SVD rather than gram_svt.
# Timed per step on a fit's own inputs at one BLAS thread, the dense SVD
# is the faster up to d = 16 (1.2-1.3x at d = 10-12) and the Gram route
# from d = 18 on (about 1.2x at d = 20-32 and rank 1, within 5% at rank d/4).
_DENSE_MAX_DIM = 16


def _svt_step(m: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The exact SVT step of the fit on the d x d ``m``: ``_dense_svt`` up to
    ``_DENSE_MAX_DIM``, ``gram_svt`` above it. Returns what both return."""
    if m.shape[0] <= _DENSE_MAX_DIM:
        return _dense_svt(m, theta)
    return gram_svt(m, theta)


def gram_svt(m: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``svt(m, theta)`` through the Gram matrix of ``m``.

    Returns the thresholded matrix and the shrunk singular values. The
    right singular subspace with sigma > theta is the span of the Gram
    eigenvectors with eigenvalue > theta^2; the singular values come
    from the thin SVD of ``m`` projected onto it, so they carry the
    accuracy of that projection rather than of a square root of an
    eigenvalue. With no singular value above theta the result is the
    zero matrix.
    """
    ev, v = np.linalg.eigh(m.T @ m)
    v = v[:, ev > theta * theta]
    u, s, wt = np.linalg.svd(m @ v, full_matrices=False)
    shrunk = np.maximum(s - theta, 0.0)
    return (u * shrunk) @ (v @ wt.T).T, shrunk


def _check_train(train: Dataset) -> None:
    """Reject a training set that is not a split's train part: one that is
    empty, or whose cells do not strictly increase."""
    if len(train) == 0:
        raise ValueError("cannot fit on an empty training set")
    cells = train.cells
    if not (cells[1:] > cells[:-1]).all():
        raise ValueError("training cells must strictly increase, as in a split's train part")


def _frobenius(x: np.ndarray) -> float:
    """``np.linalg.norm(x)``, bit for bit, without its dispatch."""
    flat = x.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def soft_impute_fit(
    train: Dataset,
    spec: MatrixSpec,
    cfg: EstimatorConfig,
    warm: MatrixEstimate | None = None,
) -> MatrixEstimate:
    """Fit a completion estimate on the train part of a split.

    ``train`` is ``split_dataset``'s train part: each observed cell once,
    cells strictly increasing; any other input, an empty one included,
    raises ``ValueError``. Its values are the targets. The iteration
    minimizes 0.5 ||P_Omega(targets - Z)||^2 + theta ||Z||_* by

        Y <- Z + ((t_k - 1) / t_{k+1}) (Z - Z_prev),
        t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2,
        Z_new <- svt(fill(Y), theta),  fill(Y) = targets on observed
                                                 entries, Y elsewhere

    from ``warm`` when one is given, else from zero, with t = 1
    and theta = d * lambda_for(d, |train|, A, C'). With t_k = 1 this is
    the plain SoftImpute step. If Z_new raises the objective by more
    than rounding (1e-13 relative) while t_k > 1, it is dropped and t_k
    is reset to 1. Any other step is accepted, and a step that raises
    the objective at all restarts the momentum (t_{k+1} = 1); a plain
    step that raises it by more than 1e-9 relative raises
    ``AssertionError``. Each step, dropped or not, is the exact SVT,
    by the dense SVD up to d = ``_DENSE_MAX_DIM`` and by ``gram_svt``
    above it; either makes one ``np.linalg.svd`` call, so the SVD count
    is the iteration count. Stops when an accepted step's
    relative Frobenius change is below ``cfg.tol`` (``converged``) or
    after ``cfg.max_iters`` steps; returns the last accepted iterate, unclamped.
    """
    _check_train(train)
    d = spec.dim
    obs, targets = train.cells, train.values  # flat indices into C-ordered d x d arrays
    theta = d * lambda_for(d, len(train), spec.bound, cfg.lambda_scale)

    z = np.zeros((d, d)) if warm is None else warm.values.astype(np.float64, copy=True)
    z_norm = _frobenius(z)

    # z_step = z - z_prev is the last accepted step; t is FISTA's
    # momentum counter, and t = 1 makes the next step a plain one.
    z_step = None
    t = 1.0
    objective = math.inf
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        filled = z + ((t - 1.0) / t_next) * z_step if t > 1.0 else z.copy()
        filled.put(obs, targets)
        z_new, shrunk = _svt_step(filled, theta)
        resid = targets - z_new.take(obs)
        new_objective = 0.5 * float(resid @ resid) + theta * float(shrunk.sum())
        if new_objective > objective:
            # Near the fixed point the objective is flat to rounding, and
            # dropping a step on a rise within it wastes the step.
            if t > 1.0 and new_objective > objective + 1e-13 * objective:
                t = 1.0
                continue
            t_next = 1.0
            # A plain step is a proximal gradient step with step 1/L, so
            # it can rise by rounding only.
            if new_objective > objective + 1e-9 * max(1.0, objective):
                raise AssertionError(
                    f"objective increased at iteration {iterations}: "
                    f"{objective} -> {new_objective}"
                )
        z_step = z_new - z
        delta = _frobenius(z_step) / max(z_norm, 1.0)
        z, objective, t = z_new, new_objective, t_next
        if delta < cfg.tol:
            converged = True
            break
        z_norm = _frobenius(z)
    return MatrixEstimate(spec.index, z, iterations, converged)


def plain_soft_impute(
    train: Dataset, spec: MatrixSpec, cfg: EstimatorConfig
) -> tuple[np.ndarray, int]:
    """The unaccelerated SoftImpute loop Z <- svt(fill(Z), theta), with
    the dense ``svt``, from zero, stopping on the same tol
    rule as ``soft_impute_fit``: the reference the fit is tested against.
    It takes the same input, a split's train part, and rejects any other.

    Returns the last iterate and the number of steps taken.
    """
    _check_train(train)
    d = spec.dim
    obs, targets = train.cells, train.values
    theta = d * lambda_for(d, len(train), spec.bound, cfg.lambda_scale)
    z = np.zeros((d, d))
    for steps in range(1, cfg.max_iters + 1):
        filled = z.copy()
        filled.put(obs, targets)
        z_new = svt(filled, theta)
        delta = np.linalg.norm(z_new - z) / max(np.linalg.norm(z), 1.0)
        z = z_new
        if delta < cfg.tol:
            break
    return z, steps
