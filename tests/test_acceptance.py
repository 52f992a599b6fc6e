"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
as they complete). The heavy simulation fixtures are shared across criteria:
the 200-replication null study backs both the per-subgroup validity and the
family-wise-error checks, and the 100-replication power study backs the
power ordering plus the fold-proportion pattern.
"""

import os

import numpy as np
import pytest

from adasplit import (
    AdaSplitConfig,
    Dataset,
    LinearModel,
    SubgroupPartition,
    engine,
    exact_pvalue,
    expected_beta_distance,
    fit_wls,
    mc_pvalue,
    one_minus_c2_series,
    run,
)
from adasplit.nuisance import certainty, posterior_e, scaled_residual
from adasplit.simlab import (
    cate_quality_experiment,
    consistency_experiment,
    run_replications,
)
from adasplit import rng
from oracles import (
    aipw_statistic,
    dm_statistic,
    enumerate_pvalue,
    knn_lists,
    minimize_bar_loss,
    reference_selection_prob,
    wls_solve,
)

METHODS = ("rt", "random_split", "adasplit")
# run_replications gives the same results for any worker count
# (tests/test_simlab.py), so the two study fixtures use two workers where
# two CPUs exist. They gain only with BLAS held to one thread per process,
# as CI holds it; otherwise the workers' BLAS threads oversubscribe.
STUDY_THREADS = min(2, os.cpu_count() or 1)


def report(num, description, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def null_study():
    """200 replications of the zero-effect scenario, all three methods."""
    return run_replications("null", 200, 777, threads=STUDY_THREADS)


@pytest.fixture(scope="module")
def power_study():
    """100 replications per effect scenario, all three methods."""
    return {
        scenario: run_replications(scenario, 100, 1234, threads=STUDY_THREADS)
        for scenario in ("default", "larger_n", "high_noise")
    }


def _avg_power(results, method):
    sub = [r for r in results if r.method == method]
    return float(np.mean([len(r.rejected) / len(r.pvalues) for r in sub]))


def test_criterion_1_null_rejection_rates(null_study):
    ok = True
    detail = []
    for method in METHODS:
        pv = np.array([r.pvalues for r in null_study if r.method == method])
        rates = (pv <= 0.2).mean(axis=0)
        detail.append(f"{method}: {np.round(rates, 3)}")
        ok &= bool(np.all((rates >= 0.12) & (rates <= 0.28)))
    report(1, "null rejection rates in [0.12, 0.28] for every subgroup and "
              f"method ({'; '.join(detail)})", ok)


def test_criterion_2_power_ordering_and_magnitudes(power_study):
    powers = {
        scenario: [_avg_power(results, m) for m in METHODS]
        for scenario, results in power_study.items()
    }
    ordered = all(p[0] < p[1] < p[2] for p in powers.values())
    rt, rs, ada = powers["default"]
    magnitudes = (
        abs(ada - 0.930) <= 0.10
        and abs(rs - 0.590) <= 0.10
        and abs(rt - 0.298) <= 0.10
    )
    detail = "; ".join(
        f"{s}: rt={p[0]:.3f} rs={p[1]:.3f} ada={p[2]:.3f}"
        for s, p in powers.items()
    )
    report(2, f"power ordering ada > random-split > rt everywhere and default "
              f"magnitudes within 0.10 of (0.298, 0.590, 0.930) ({detail})",
           ordered and magnitudes)


def test_criterion_3_fwer(null_study):
    bound = 0.2 + 3.0 * np.sqrt(0.2 * 0.8 / 200)
    fwers = {
        m: float(np.mean([len(r.rejected) > 0 for r in null_study if r.method == m]))
        for m in METHODS
    }
    ok = all(v <= bound for v in fwers.values())
    report(3, f"null family-wise error <= {bound:.3f} for all methods "
              f"({ {m: round(v, 3) for m, v in fwers.items()} })", ok)


def test_criterion_4_estimation_gap():
    rows = cate_quality_experiment("default", 100, 11)
    bar = float(np.mean([r[1] for r in rows]))
    rl = float(np.mean([r[2] for r in rows]))
    ok = (bar - rl >= 0.15) and (0.65 <= bar <= 0.90)
    report(4, f"pooled-estimator R2 {bar:.3f} in [0.65, 0.90] and gap over "
              f"fold-restricted baseline {bar - rl:.3f} >= 0.15", ok)


def test_criterion_5_monte_carlo_vs_enumeration():
    gen = np.random.default_rng(42)
    m_draws = 100_000
    agree = True
    exact_bitwise = True
    for i in range(50):
        m = int(gen.integers(3, 11))
        x = gen.normal(size=(m, 2))
        y = gen.normal(size=m)
        z = (gen.random(m) < 0.5).astype(float)
        ds = Dataset(x, y, z)
        if i % 2 == 0:
            mu = None
            oracle = enumerate_pvalue(lambda zz: dm_statistic(y, zz), z)
        else:
            # The residual statistic against AIPW with a random CATE, which
            # cancels at e = 1/2.
            mu = fit_wls(x, y, ridge=1e-8)
            mu_vals = mu.predict(x)
            tau_vals = LinearModel(gen.normal(size=3)).predict(x)
            oracle = enumerate_pvalue(
                lambda zz: aipw_statistic(y, zz, mu_vals, tau_vals), z)
        exact = exact_pvalue(mu, ds, np.arange(m))
        exact_bitwise &= exact == oracle
        mc = mc_pvalue(mu, ds, np.arange(m), m_draws, rng.stream(42, 50, i))
        tol = 3.0 * np.sqrt(oracle * (1.0 - oracle) / m_draws)
        agree &= abs(mc - oracle) <= tol
    report(5, "Monte-Carlo p-values within 3 binomial SEs of exhaustive "
              "enumeration on 50 small instances, exact path bit-identical "
              "to the independent oracle", agree and exact_bitwise)


def test_criterion_6_closed_form_vs_optimizer():
    # The selection loop's own solves: the pooled fit at the instance's
    # posterior, and after the index the weighted R-learner, which weights
    # each fold unit by the inverse of its clipped neighbor vote.
    gen = np.random.default_rng(6)
    cfg = AdaSplitConfig(ridge_lambda=1e-10)
    bar_ok = True
    wls_ok = True
    for i in range(20):
        n, d = int(gen.integers(25, 45)), int(gen.integers(2, 4))
        x = gen.normal(size=(n, d))
        beta = gen.normal(size=d + 1)
        tau = beta[0] + x @ beta[1:]
        z = (gen.random(n) < 0.5).astype(float)
        mu_vals = gen.normal(size=n)
        y = mu_vals + (z - 0.5) * tau + gen.normal(0, 0.7, n)
        e_hat = posterior_e(y, mu_vals, tau, 1.0)
        mask = np.zeros(n, dtype=bool)
        mask[gen.permutation(n)[: n // 2]] = True
        ds = Dataset(x, y, z)
        one = SubgroupPartition.from_labels(np.zeros(n, dtype=int))
        state = engine._LoopState(ds, one, mu_vals, mask, engine._AssignmentLog(ds.z), cfg)
        state.refit()
        closed = state.pooled(2.0 * e_hat - 1.0)
        numeric = minimize_bar_loss(x, y, z, mask, mu_vals, e_hat, lam=1.0)
        bar_ok &= bool(np.linalg.norm(closed - numeric) <= 1e-6)

        state.index(x, y, cfg.knn_k)
        ours = state.refit()[0]   # the CATE predictions
        p = reference_selection_prob(knn_lists(x, y, cfg.knn_k)[1], mask)[mask]
        ref = wls_solve(x[mask], scaled_residual(y[mask], z[mask], mu_vals[mask]),
                        w=1.0 / p, ridge=cfg.ridge_lambda)
        wls_ok &= bool(np.linalg.norm(ours - (ref[0] + x @ ref[1:])) <= 1e-10)
    report(6, "the selection loop's pooled closed form matches coordinate "
              "descent within 1e-6 and its vote-weighted residual regression "
              "matches the generic WLS oracle within 1e-10 (20 instances)",
           bar_ok and wls_ok)


def test_criterion_7_series_identity():
    ok = True
    for s in (0.5, 1.0, 2.0, 5.0):
        direct = 1.0 - float(certainty(posterior_e(np.array([s]), 0.0, 1.0, 1.0))[0]) ** 2
        ok &= abs(one_minus_c2_series(s, 200) - direct) < 1e-8
    report(7, "series partial sum (200 terms) matches direct 1 - C^2 within "
              "1e-8 at s in {0.5, 1, 2, 5}", ok)


def test_criterion_8_expected_distance_identity():
    ok = True
    for inst in range(5):
        gen = rng.stream(7, 11, inst)
        n, d = 40, 3
        x = gen.normal(size=(n, d))
        beta = gen.normal(size=d + 1)
        xd = np.hstack([np.ones((n, 1)), x])
        tau = xd @ beta
        z = (gen.random(n) < 0.5).astype(float)
        mu_vals = xd @ gen.normal(size=d + 1)
        y = mu_vals + (z - 0.5) * tau + gen.normal(0, 1.0, n)
        e_post = posterior_e(y, mu_vals, tau, 1.0)
        mask = np.zeros(n, dtype=bool)
        mask[gen.permutation(n)[:25]] = True
        analytic = expected_beta_distance(x, y, mask, mu_vals, certainty(e_post))
        j = np.flatnonzero(~mask)
        a = np.linalg.inv(xd.T @ xd) @ xd[j].T
        draws = (gen.random((10_000, j.size)) < e_post[j]).astype(float)
        delta = 4.0 * (y[j] - mu_vals[j]) * (draws - e_post[j])
        prods = a @ delta.T
        dist2 = np.einsum("ij,ij->j", prods, prods)
        se = dist2.std(ddof=1) / np.sqrt(dist2.size)
        ok &= abs(float(dist2.mean()) - analytic) <= 3.0 * se
    report(8, "held-out coefficient-gap formula within 3 MC standard errors "
              "of 10^4-resample simulation on 5 planted instances", ok)


def test_criterion_9_determinism_and_blindness():
    blind = True
    identical = True
    for i in range(20):
        gen = np.random.default_rng(900 + i)
        n = 120
        x = gen.uniform(-0.5, 0.5, size=(n, 3))
        z = (gen.random(n) < 0.5).astype(float)
        tau = 0.5 + x.sum(axis=1)
        y = 1.0 + x.sum(axis=1) + z * tau + gen.normal(size=n)
        ds = Dataset(x, y, z)
        part = SubgroupPartition.from_labels(np.repeat(np.arange(3), n // 3))
        cfg = AdaSplitConfig(seed=900 + i, mc_draws=200, n0=10, knn_k=5)
        rep = run(ds, part, cfg)
        reads = set(rep.diagnostics["z_reads_before_pvalues"])
        inference = {u for g in rep.folds.inference for u in g}
        blind &= reads.isdisjoint(inference)
        if i < 3:
            identical &= rep.to_json() == run(ds, part, cfg).to_json()
    report(9, "byte-identical reports on identical inputs and zero "
              "inference-fold assignment reads before p-values in 20 "
              "randomized runs", blind and identical)


def test_criterion_10_consistency_trend():
    sizes = (300, 600, 900, 1200, 1500)
    errors = consistency_experiment(sizes, 30, 99)
    medians = [float(np.median(errors[n])) for n in sizes]
    ok = all(b < a for a, b in zip(medians, medians[1:]))
    report(10, "median normalized coefficient error strictly decreasing over "
               f"n in {sizes}: {np.round(medians, 4)}", ok)


# Statistical invariants sharing the heavy fixtures -----------------------------

def test_invariant_null_pvalues_super_uniform(null_study):
    pv = np.array([r.pvalues for r in null_study if r.method == "adasplit"])
    reps = pv.shape[0]
    for t in (0.05, 0.1, 0.2, 0.5):
        bound = t + 3.0 * np.sqrt(t * (1.0 - t) / reps)
        assert np.all((pv <= t).mean(axis=0) <= bound)


def test_invariant_null_pvalues_uncorrelated(null_study):
    pv = np.array([r.pvalues for r in null_study if r.method == "adasplit"])
    corr = np.corrcoef(pv.T)
    off = corr[~np.eye(corr.shape[0], dtype=bool)]
    assert np.all(np.abs(off) <= 0.15)


def test_invariant_inference_share_grows_with_effect(power_study):
    props = np.array([
        r.proportions for r in power_study["default"] if r.method == "adasplit"
    ])
    means = props.mean(axis=0)
    assert np.all(np.diff(means) >= -1e-12), means
