"""Dense least-squares machinery for the small designs used everywhere else.

All regressions in this package are affine (an intercept column is
prepended), small, and refit hundreds of times inside the selection loop,
so they go through the regularized normal equations and a Cholesky
factorization. Every solver failure is a ValidationError naming its cause.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import ValidationError


@dataclass(frozen=True)
class LinearModel:
    """Affine model ``f(x) = coef[0] + x @ coef[1:]``."""

    coef: np.ndarray

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=float).ravel()
        if not _finite(coef):
            raise ValidationError("non-finite coefficient")
        coef.setflags(write=False)
        object.__setattr__(self, "coef", coef)

    def predict(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.coef.size - 1:
            raise ValidationError(
                f"expected {self.coef.size - 1} columns, got {x.shape[1]}"
            )
        return _design(x) @ self.coef


def _design(x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.hstack([np.ones((x.shape[0], 1)), x])


def _finite(a):
    """Whether every entry of ``a`` is finite, in one reduction rather than
    the wrapper chain behind ``ndarray.all``."""
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


def _solve_spd(a, b):
    """``scipy.linalg.cho_solve(cho_factor(a), b)`` without wrappers that
    cost more than a solve this small; each failure names its cause."""
    return _cho_solve(_cho_factor(a), b)


def _cho_factor(a):
    """The Cholesky factor of :func:`_solve_spd`."""
    if not _finite(a):
        raise ValidationError("non-finite Gram: covariates too large to square; rescale them")
    c, info = dpotrf(a, lower=0, clean=0)
    if info > 0:
        raise ValidationError("singular design: collinear or badly scaled covariates; "
                              "drop or rescale them, or raise ridge_lambda")
    return c


def _cho_solve(c, b):
    """Solve with a factor from :func:`_cho_factor`; a non-finite ``b`` fails too."""
    coef = dpotrs(c, b, lower=0)[0]
    if not _finite(coef):
        raise ValidationError("non-finite coefficients: outcomes or covariates too "
                              "large or badly scaled; rescale them")
    return coef


@np.errstate(over="ignore", invalid="ignore")   # the solve rejects overflow
def fit_wls(x, y, ridge=0.0):
    """Least squares with an optional ridge penalty, the package's only
    least-squares entry point.

    Returns the minimizer of ``sum_i (y_i - [1, x_i] @ beta)^2
    + ridge * ||beta||^2`` (the intercept is penalized along with the
    slopes, which only matters at ridge values far above the stabilizing
    default).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] < 1:
        raise ValidationError("n >= 1 required")
    if x.shape[0] != y.size:
        raise ValidationError("x and y length mismatch")
    if ridge < 0.0:
        raise ValidationError("ridge must be >= 0")
    xd = _design(x)
    gram = xd.T @ xd + ridge * np.eye(xd.shape[1])
    return LinearModel(_solve_spd(gram, xd.T @ y))


@np.errstate(over="ignore", invalid="ignore")   # the solve rejects overflow
def diversity_scores(x, ridge=0.0):
    """Per-unit leverage-style scores ``x_i' (X'X + ridge I)^{-2} x_i``.

    Units that dominate the small spectral modes of the raw covariate
    matrix (no intercept column) get large scores; those units matter most
    for stabilizing downstream regressions. Scores are nonnegative and
    permute with the rows of ``x``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    gram = x.T @ x + ridge * np.eye(x.shape[1])
    half = _solve_spd(gram, x.T)
    return np.einsum("ji,ji->i", half, half)
