"""Least-squares solver, prediction, diversity scores."""

import numpy as np
import pytest
import scipy.linalg

from adasplit import ValidationError, diversity_scores, fit_wls, predict
from adasplit.linmodel import _solve_spd
from oracles import wls_solve


def test_exact_line():
    model = fit_wls(np.array([[1.0], [2.0], [3.0]]), [2.0, 4.0, 6.0])
    assert np.allclose(model.coef, [0.0, 2.0], atol=1e-12)


def test_constant_outcome():
    gen = np.random.default_rng(0)
    model = fit_wls(gen.normal(size=(12, 3)), np.full(12, 4.5))
    assert abs(model.coef[0] - 4.5) < 1e-10
    assert np.all(np.abs(model.coef[1:]) < 1e-10)


def test_matches_qr_oracle():
    gen = np.random.default_rng(1)
    x = gen.normal(size=(20, 3))
    y = gen.normal(size=20)
    w = gen.uniform(0.5, 2.0, size=20)
    for ridge in (0.0, 1e-3):
        ours = fit_wls(x, y, w, ridge=ridge).coef
        ref = wls_solve(x, y, w, ridge=ridge)
        assert np.allclose(ours, ref, atol=1e-10)


def test_weight_scale_invariance():
    gen = np.random.default_rng(2)
    x = gen.normal(size=(15, 2))
    y = gen.normal(size=15)
    w = gen.uniform(0.1, 1.0, size=15)
    a = fit_wls(x, y, w).coef
    b = fit_wls(x, y, 7.0 * w).coef
    assert np.allclose(a, b, atol=1e-10)


def test_weight_validation():
    x = np.ones((3, 1))
    with pytest.raises(ValidationError, match="nonnegative"):
        fit_wls(x, [1.0, 2.0, 3.0], [-1.0, 1.0, 1.0])
    with pytest.raises(ValidationError, match="positive weight"):
        fit_wls(x, [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])


def test_singular_design_message():
    x = np.ones((5, 2))  # duplicate of the intercept column twice over
    with pytest.raises(ValidationError, match="singular design: collinear"):
        fit_wls(x, np.arange(5.0), ridge=0.0)
    fit_wls(x, np.arange(5.0), ridge=1e-6)  # stabilized solve goes through


def test_predict_cases():
    gen = np.random.default_rng(3)
    x = gen.normal(size=(5, 2))
    zero = fit_wls(x, np.zeros(5))
    assert np.allclose(predict(zero, x), 0.0, atol=1e-9)

    y = 1.0 + x @ np.array([2.0, -1.0])
    exact = fit_wls(x, y)
    assert np.allclose(predict(exact, x), y, atol=1e-9)

    manual = exact.coef[0] + x @ exact.coef[1:]
    assert np.allclose(predict(exact, x), manual)

    with pytest.raises(ValidationError, match="columns"):
        predict(exact, np.ones((2, 3)))


def test_ols_residual_orthogonality():
    gen = np.random.default_rng(4)
    x = gen.normal(size=(40, 4))
    y = gen.normal(size=40)
    model = fit_wls(x, y)
    resid = y - predict(model, x)
    xd = np.hstack([np.ones((40, 1)), x])
    assert np.all(np.abs(xd.T @ resid) < 1e-8)


def test_local_optimality_probe():
    gen = np.random.default_rng(5)
    x = gen.normal(size=(25, 3))
    y = gen.normal(size=25)
    w = gen.uniform(0.2, 1.5, size=25)
    ridge = 1e-4
    model = fit_wls(x, y, w, ridge=ridge)

    def objective(beta):
        xd = np.hstack([np.ones((25, 1)), x])
        return np.sum(w * (y - xd @ beta) ** 2) + ridge * np.sum(beta**2)

    base = objective(model.coef)
    for c in range(4):
        for sign in (-1.0, 1.0):
            beta = model.coef.copy()
            beta[c] += sign * 1e-3
            assert base <= objective(beta) + 1e-12


def test_diversity_orthonormal_columns():
    gen = np.random.default_rng(6)
    q, _ = np.linalg.qr(gen.normal(size=(30, 3)))
    scores = diversity_scores(q)
    assert np.allclose(scores, np.sum(q**2, axis=1), atol=1e-10)


def test_diversity_duplicate_rows_and_permutation():
    gen = np.random.default_rng(7)
    x = gen.normal(size=(10, 2))
    x[7] = x[2]
    scores = diversity_scores(x, ridge=1e-10)
    assert abs(scores[7] - scores[2]) < 1e-12
    perm = gen.permutation(10)
    assert np.allclose(diversity_scores(x[perm], ridge=1e-10), scores[perm], atol=1e-12)


def test_diversity_matches_dense_inverse():
    gen = np.random.default_rng(8)
    x = gen.normal(size=(10, 2))
    inv2 = np.linalg.inv(x.T @ x) @ np.linalg.inv(x.T @ x)
    expected = np.einsum("ij,jk,ik->i", x, inv2, x)
    assert np.allclose(diversity_scores(x), expected, atol=1e-10)
    assert np.all(diversity_scores(x) >= 0.0)


def scipy_cholesky_solve(a, b):
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b)


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_solve_spd_matches_scipy_cholesky_bit_for_bit():
    gen = np.random.default_rng(9)
    for p in (1, 2, 6, 9):
        x = gen.normal(size=(3 * p, p))
        w = gen.uniform(0.1, 2.0, size=3 * p)
        a = x.T @ (x * w[:, None]) + 1e-8 * np.eye(p)  # not exactly symmetric
        for b in (gen.normal(size=p), gen.normal(size=(p, 4)), x.T):
            assert np.array_equal(_solve_spd(a, b), scipy_cholesky_solve(a, b))


NON_FINITE_SOLUTION = (ValidationError, "non-finite coefficients: outcomes or covariates "
                                        "too large or badly scaled; rescale them")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_spd_non_finite_errors(bad):
    a = np.eye(3)
    a[1, 2] = bad
    assert raised(_solve_spd, a, np.ones(3)) == (
        ValidationError, "non-finite Gram: covariates too large to square; rescale them")
    b = np.array([1.0, bad, 0.0])
    # A non-finite right-hand side fails as a non-finite solution does.
    assert raised(_solve_spd, np.eye(3), b) == NON_FINITE_SOLUTION


def test_solve_spd_non_finite_solution_errors():
    # A finite system whose solution overflows.
    assert raised(_solve_spd, 1e-300 * np.eye(2), np.full(2, 1e300)) == NON_FINITE_SOLUTION


def test_solve_spd_not_positive_definite_errors():
    want = (ValidationError, "singular design: collinear or badly scaled "
                             "covariates; drop or rescale them, or raise ridge_lambda")
    singular = np.ones((3, 3))
    assert raised(_solve_spd, singular, np.ones(3)) == want
    indefinite = np.diag([1.0, -1.0, 1.0])
    assert raised(_solve_spd, indefinite, np.ones(3)) == want
    # The factor is checked first, as scipy does.
    assert raised(_solve_spd, singular, np.full(3, np.nan)) == want
