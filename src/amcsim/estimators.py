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

The step is chosen by the size d of the matrix. Up to
``_DENSE_MAX_DIM`` (16) every step is the dense SVD, the ``svt`` math.
Above it, every fit's first step is the exact ``gram_svt``: it finds the
right singular directions whose singular value exceeds the threshold
from the eigendecomposition of the Gram matrix, and takes singular
values and left vectors from a thin SVD of the projection onto them. Its
top eigenvectors, the kept directions and a margin, seed the basis of the
subspace steps that follow (``_subspace_svt``): each is one block power
step on the last step's basis, as in softImpute's warm partial SVD, in
O(d^2 b) for a basis of width b against the Gram step's O(d^3). A
subspace step is inexact, so an exact step comes back when the kept rank
nears the basis width and in place of a rising plain subspace step, and
the last step of a converged fit is an exact plain step that met the
tolerance (the exit check of an inexact proximal gradient method;
Schmidt, Le Roux & Bach, NIPS 2011). So the fixed point is still the
plain iteration's. At d = 200 and one OpenBLAS thread a dense SVD step
takes about 9-10 ms, a Gram step 5-6 ms and a subspace step 0.5 ms at 10
kept directions and 1.8 ms at 40; at small d the eigh's fixed cost makes
the Gram step the slower one. Every step makes one ``np.linalg.svd``
call. The dense ``svt`` is the reference the exact steps are tested
against.
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

    ``iterations`` counts the SVT steps of the fit, one ``np.linalg.svd``
    call each: rejected steps, the exact steps that redo rejected subspace
    steps and the exit step included. ``converged`` says whether it
    stopped on ``tol``, which above ``_DENSE_MAX_DIM`` only an exact plain
    step can do, rather than at ``max_iters``.
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


# Largest d at which the fit's step is the dense SVD rather than the Gram
# and subspace steps. Timed per iteration over cold fits (ranks 1 and 3,
# draws 0.3 and 0.8 of d^2, one BLAS thread), the dense route is the
# faster up to d = 16 (1.6x at d = 8, 1.14x at d = 16) and the other
# from d = 20 on (1.2x at d = 20, 1.9x at d = 32, 3.9x at d = 50).
_DENSE_MAX_DIM = 16

# Directions the subspace step carries beyond the kept ones.
_MARGIN = 5


def _svt_step(
    m: np.ndarray, theta: float, basis: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One SVT step of the fit on the d x d ``m``.

    Up to ``_DENSE_MAX_DIM`` it is ``_dense_svt``. Above it, with no
    ``basis``, it is the exact ``gram_svt``; with a d x b ``basis`` it is
    the inexact ``_subspace_svt``. Returns the thresholded matrix, the
    shrunk singular values and the basis of the next step, None when the
    next step must be exact (always so up to ``_DENSE_MAX_DIM``).
    """
    if m.shape[0] <= _DENSE_MAX_DIM:
        return (*_dense_svt(m, theta), None)
    if basis is None:
        return _gram_step(m, theta)
    return _subspace_svt(m, theta, basis)


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
    return _gram_step(m, theta)[:2]


def _gram_step(
    m: np.ndarray, theta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``gram_svt(m, theta)`` and the basis that seeds the subspace step:
    the top kept + ``_MARGIN`` Gram eigenvectors, or None when that is
    all d of them."""
    ev, v = np.linalg.eigh(m.T @ m)
    keep = ev > theta * theta
    kept_v = v[:, keep]
    u, s, wt = np.linalg.svd(m @ kept_v, full_matrices=False)
    shrunk = np.maximum(s - theta, 0.0)
    width = kept_v.shape[1] + _MARGIN
    basis = v[:, -width:] if width < m.shape[0] else None
    return (u * shrunk) @ (kept_v @ wt.T).T, shrunk, basis


def _subspace_svt(
    m: np.ndarray, theta: float, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``svt`` of ``m`` projected onto the range of ``m @ basis``: one
    block power step (Halko, Martinsson & Tropp, SIAM Rev. 2011) on the
    d x b ``basis``, in O(d^2 b) against the Gram step's O(d^3).

    It is exact when ``basis`` spans the right singular directions that
    the threshold keeps, and the kept rank it finds is at most b. The
    next basis is the kept right singular directions and up to
    ``_MARGIN`` more, b or fewer, so the width tracks the kept rank. When
    the step keeps all but two or fewer of the b directions, it returns
    no basis: the next step is the exact one, which seeds a wider basis.
    """
    q = np.linalg.qr(m @ basis)[0]
    u, s, wt = np.linalg.svd(q.T @ m, full_matrices=False)
    kept = int(np.count_nonzero(s > theta))
    shrunk = s[:kept] - theta
    out = (q @ (u[:, :kept] * shrunk)) @ wt[:kept]
    return out, shrunk, None if kept >= basis.shape[1] - 2 else wt[: kept + _MARGIN].T


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
    exact step that raises it by more than 1e-9 relative raises
    ``AssertionError``.

    Up to d = ``_DENSE_MAX_DIM`` every step is the dense SVT, and the fit
    stops when an accepted step's relative Frobenius change is below
    ``cfg.tol`` (``converged``). Above it, the first step is the exact
    ``gram_svt`` step, and it seeds the basis of the inexact subspace
    steps that follow (``_subspace_svt``). An exact step comes back
    whenever a subspace step keeps nearly all of its basis, and in place
    of a plain subspace step that raises the objective by more than
    1e-9. An accepted step below ``cfg.tol`` stops the fit only when it
    is an exact plain step. Any other such step is followed by one exact
    plain step, the exit step, and from there on every step is exact.
    So a converged fit's last step is an exact plain step that moved it
    by less than ``cfg.tol``, and its fixed point is the exact
    iteration's. Every step, dropped, redone or not, makes one
    ``np.linalg.svd`` call and counts as an iteration, so the SVD count
    is the iteration count. The fit stops after ``cfg.max_iters`` steps
    at most; it returns the last accepted iterate, unclamped.
    """
    _check_train(train)
    d = spec.dim
    obs, targets = train.cells, train.values  # flat indices into C-ordered d x d arrays
    theta = d * lambda_for(d, len(train), spec.bound, cfg.lambda_scale)

    z = np.zeros((d, d)) if warm is None else warm.values.astype(np.float64, copy=True)
    z_norm = _frobenius(z)

    # z_step = z - z_prev is the last accepted step; t is FISTA's
    # momentum counter, and t = 1 makes the next step a plain one. basis
    # is the subspace step's, and None makes the next step exact.
    z_step = None
    t = 1.0
    objective = math.inf
    converged = False
    basis = None
    exact_only = False
    for iterations in range(1, cfg.max_iters + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        plain, exact = t == 1.0, basis is None
        filled = z + ((t - 1.0) / t_next) * z_step if t > 1.0 else z.copy()
        filled.put(obs, targets)
        z_new, shrunk, next_basis = _svt_step(filled, theta, basis)
        resid = targets - z_new.take(obs)
        new_objective = 0.5 * float(resid @ resid) + theta * float(shrunk.sum())
        if new_objective > objective:
            # Near the fixed point the objective is flat to rounding, and
            # dropping a step on a rise within it wastes the step.
            if t > 1.0 and new_objective > objective + 1e-13 * objective:
                t = 1.0
                continue
            t_next = 1.0
            # A plain exact step is a proximal gradient step with step
            # 1/L, so it can rise by rounding only; a subspace step is
            # inexact, and is redone exactly.
            if new_objective > objective + 1e-9 * max(1.0, objective):
                if not exact:
                    basis = None
                    continue
                raise AssertionError(
                    f"objective increased at iteration {iterations}: "
                    f"{objective} -> {new_objective}"
                )
        z_step = z_new - z
        delta = _frobenius(z_step) / max(z_norm, 1.0)
        z, objective, t = z_new, new_objective, t_next
        if delta < cfg.tol:
            if d <= _DENSE_MAX_DIM or (exact and plain):
                converged = True
                break
            # The exit step: one exact plain step.
            exact_only, t = True, 1.0
        basis = None if exact_only else next_basis
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
