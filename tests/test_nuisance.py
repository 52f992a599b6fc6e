"""Nuisance estimators: outcome model, residuals, selection probability,
posterior assignment probability, and the selection loop's pooled CATE
solve."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from adasplit import (
    ValidationError,
    certainty,
    expected_beta_distance,
    fit_wls,
    one_minus_c2_series,
    posterior_e,
    scaled_residual,
)
from adasplit import AdaSplitConfig, Dataset, SubgroupPartition, engine, nuisance
from adasplit.nuisance import NeighborIndex
from adasplit.simlab import (draw_covariates, generate, get_scenario,
                             scenario_with_size)
from adasplit import rng
from oracles import knn_lists, knn_rows, minimize_bar_loss, wls_solve


class TestOutcomeModel:
    def test_constant(self):
        mu = fit_wls(np.random.default_rng(0).normal(size=(8, 2)), np.full(8, 3.0))
        assert np.allclose(mu.predict(np.zeros((2, 2))), 3.0, atol=1e-10)

    def test_noiseless_linear_recovery(self):
        gen = np.random.default_rng(1)
        x = gen.normal(size=(15, 3))
        gamma = np.array([0.5, 1.0, -2.0, 0.25])
        y = gamma[0] + x @ gamma[1:]
        mu = fit_wls(x, y)
        assert np.allclose(mu.coef, gamma, atol=1e-9)

    def test_out_of_sample_residual_variance(self):
        # fresh-data residual variance of the outcome fit approaches
        # nu^2 + Var[(Z - 1/2) tau(X)]
        scenario = get_scenario("default")
        vals = []
        for rep in range(5):
            seed = rng.child_seed(3, 1, rep)
            ds, _, truth = generate("default", seed)
            mu = fit_wls(ds.x, ds.y, ridge=1e-8)
            gen = rng.stream(seed, 5)
            x_new = draw_covariates(scenario, 20000, gen)
            z_new = (gen.random(20000) < 0.5).astype(float)
            eps = gen.normal(0.0, 1.0, 20000)
            y_new = truth.mu0(x_new) + z_new * truth.tau(x_new) + eps
            vals.append(np.var(y_new - mu.predict(x_new)))
        tau_new = truth.tau(draw_covariates(scenario, 200000, rng.stream(0, 6)))
        expected = truth.nu2 + np.mean(tau_new**2) / 4.0
        assert abs(np.mean(vals) - expected) < 0.1


class TestResiduals:
    def test_scaled_residual_values(self):
        assert scaled_residual(1.0, 1.0, 1.0) == 0.0
        assert scaled_residual(2.0, 1.0, 1.0) == 2.0
        assert scaled_residual(2.0, 0.0, 1.0) == -2.0


class TestResidualRegressions:
    def test_noiseless_recovery(self):
        gen = np.random.default_rng(3)
        x = gen.normal(size=(30, 2))
        beta = np.array([0.5, 1.0, -1.0])
        tau = beta[0] + x @ beta[1:]
        z = (gen.random(30) < 0.5).astype(float)
        mu_vals = np.zeros(30)
        y = (z - 0.5) * tau  # mu0 chosen so mu(x) = 0, no noise
        model = fit_wls(x, scaled_residual(y, z, mu_vals))
        assert np.allclose(model.coef, beta, atol=1e-9)

    def test_matches_wls(self):
        # Under the Bernoulli(1/2) design the R-learner's weights (z - e)^2
        # are the constant 1/4, so its weighted fit is plain least squares
        # on the scaled residuals.
        gen = np.random.default_rng(4)
        x = gen.normal(size=(30, 3))
        y = gen.normal(size=30)
        z = (gen.random(30) < 0.5).astype(float)
        mu_vals = gen.normal(size=30)
        r = scaled_residual(y, z, mu_vals)
        rlearner = wls_solve(x, r, w=(z - 0.5) ** 2, ridge=1e-9 / 4.0)
        assert np.allclose(fit_wls(x, r, ridge=1e-9).coef, rlearner, atol=1e-10)


def clipped(vote, kappa):
    """A neighbor vote clipped to the selection-probability range
    [1/(2 kappa), 1], as the engine's inverse weights use it."""
    return np.clip(vote, 1.0 / (2.0 * kappa), 1.0)


def loop_vote(x, y, b, knn_k):
    """The selection probability the engine's loop state gives each unit when
    the nuisance fold is ``b``: its vote count over kappa, clipped."""
    mask = np.asarray(b, dtype=bool)
    ds = Dataset(x, y, np.zeros(mask.size))
    one = SubgroupPartition.from_labels(np.zeros(mask.size, dtype=int))
    state = engine._LoopState(ds, one, np.zeros(mask.size), mask.copy(),
                              engine._AssignmentLog(ds.z), AdaSplitConfig())
    state.index(ds.x, ds.y, knn_k)
    if state.nbr is not None:
        state.query(np.arange(mask.size))
    return clipped(state.counts / state.kappa, state.kappa)


class TestSelectionProbability:
    def test_all_selected(self):
        gen = np.random.default_rng(7)
        x, y = gen.normal(size=(12, 2)), gen.normal(size=12)
        assert np.array_equal(loop_vote(x, y, np.ones(12), 3), np.ones(12))

    def test_kappa_equals_n_global_average(self):
        gen = np.random.default_rng(8)
        b = (gen.random(15) < 0.4).astype(float)
        x, y = gen.normal(size=(15, 1)), gen.normal(size=15)
        expected = np.clip(b.mean(), 1.0 / 30.0, 1.0)
        for knn_k in (15, 16, 10**6):
            assert np.array_equal(loop_vote(x, y, b, knn_k), np.full(15, expected))

    def test_matches_brute_force_vote(self):
        gen = np.random.default_rng(9)
        x = gen.normal(size=(20, 2))
        y = gen.normal(size=20)
        b = (gen.random(20) < 0.5).astype(float)
        kappa = 5
        loo_neighbors = NeighborIndex(x, y, kappa).lists(np.arange(20))
        vote_loo = loop_vote(x, y, b, kappa)
        coords = np.hstack([x, y[:, None]])
        coords = coords / coords.std(axis=0)
        for i in range(20):
            dist = np.sqrt(np.sum((coords - coords[i]) ** 2, axis=1))
            others = np.argsort(np.where(np.arange(20) == i, np.inf, dist),
                                kind="stable")[:kappa]
            assert np.array_equal(loo_neighbors[i], others)
            expected_loo = np.clip(b[others].mean(), 1.0 / (2 * kappa), 1.0)
            assert vote_loo[i] == pytest.approx(expected_loo, abs=1e-12)

    def test_kappa_bounds(self):
        x, y = np.ones((4, 1)), np.ones(4)
        for kappa in (0, 4, 5):
            with pytest.raises(ValidationError, match=r"kappa must lie in \[1, n\)"):
                NeighborIndex(x, y, kappa)

    def test_loo_vote_excludes_self(self):
        x = np.arange(6.0)[:, None]
        y = np.zeros(6)
        b = np.array([1.0, 0, 0, 0, 0, 0])
        assert np.array_equal(NeighborIndex(x, y, 2).lists([0])[0], [1, 2])
        # Neither true neighbor is selected: a vote of 0, clipped to 1/(2 kappa).
        assert loop_vote(x, y, b, 2)[0] == 0.25


def knn_inputs(kind, n, seed=0):
    """Covariates and outcomes for the neighbor-index oracle tests; all but
    ``continuous`` have many exactly tied distances."""
    gen = np.random.default_rng(seed)
    if kind == "grid":
        return gen.integers(0, 3, size=(n, 2)).astype(float), \
            gen.integers(0, 2, size=n).astype(float)
    if kind == "duplicates":
        base = gen.normal(size=(n // 4 + 1, 3))
        rows = np.repeat(base, 4, axis=0)[gen.permutation(n)]
        return rows[:, :2], rows[:, 2]
    if kind == "equal":
        return np.full((n, 2), 0.5), np.full(n, -1.0)
    return gen.normal(size=(n, 3)), gen.normal(size=n)


def assert_matches_oracle(x, y, kappa):
    index = NeighborIndex(x, y, kappa)
    assert np.array_equal(index.lists(np.arange(len(y))), knn_lists(x, y, kappa)[1])


def assert_batches_match_oracle(x, y, kappa, seed):
    """A random subset of about half the rows, asked for in three batches
    of random sizes in random order, then every row in reverse order, one
    index for all: each row's list is the full-sort oracle's."""
    index = NeighborIndex(x, y, kappa)
    n = len(y)
    want = knn_lists(x, y, kappa)[1]
    gen = np.random.default_rng(seed)
    rows = gen.permutation(n)[:n // 2]
    for batch in np.split(rows, np.sort(gen.choice(np.arange(1, rows.size), 2,
                                                   replace=False))):
        assert np.array_equal(index.lists(batch), want[batch])
    assert np.array_equal(index.lists(np.arange(n)[::-1]), want[::-1])


def fallback_counts(monkeypatch):
    """Record the number of rows in each block the index build sends through
    its full-row scan (the rows the certificate did not cover)."""
    counts = []
    scan = nuisance._nearest

    def counting(d2, width):
        counts.append(d2.shape[0])
        return scan(d2, width)

    monkeypatch.setattr(nuisance, "_nearest", counting)
    return counts


class ReversedTree(cKDTree):
    """A KD-tree over the units in reverse order. Its neighbor sets are as
    valid as the plain tree's, but among tied units it tends to propose the
    highest indices rather than the lowest."""

    def __init__(self, data, **kwargs):
        self.n_units = len(data)
        super().__init__(np.ascontiguousarray(data[::-1]), **kwargs)

    def query(self, points, k):
        dist, idx = super().query(points, k=k)
        return dist, self.n_units - 1 - idx


class TestNeighborIndex:
    """Tree candidates, the certificate and the full-row fallback against
    the full-matrix stable argsort."""

    @pytest.mark.parametrize("kind", ["grid", "duplicates", "equal", "continuous"])
    @pytest.mark.parametrize("n", [150, 1000])
    def test_matches_full_sort_oracle(self, kind, n):
        rows = nuisance._BLOCK_ELEMENTS // n
        if n == 150:
            assert rows >= n                       # one block holds every row
        else:
            assert n % rows and n // rows >= 3      # several blocks, last partial
        x, y = knn_inputs(kind, n, seed=n)
        for kappa in (1, 10, n - 1):
            assert_batches_match_oracle(x, y, kappa, seed=kappa)

    @pytest.mark.parametrize("budget", [97, 3 * 97 + 5])
    def test_blocks_of_one_and_few_rows(self, monkeypatch, budget):
        monkeypatch.setattr(nuisance, "_BLOCK_ELEMENTS", budget)
        counts = fallback_counts(monkeypatch)
        for kind in ("grid", "duplicates", "equal", "continuous"):
            x, y = knn_inputs(kind, 97, seed=budget)
            for kappa in (1, 4, 96):
                counts.clear()
                assert_matches_oracle(x, y, kappa)
                if kind == "equal" and kappa < 96:
                    # every row ties at the cut and is scanned, in blocks of
                    # budget // n rows
                    assert sum(counts) == 97
                    assert max(counts) == max(1, budget // 97)

    def test_certified_and_fallback_rows_in_one_build(self, monkeypatch):
        # A continuous cloud, then 40 rows that are 10 points repeated four
        # times and 40 rows on an integer grid, both apart from the cloud.
        gen = np.random.default_rng(21)
        cloud = gen.normal(size=(300, 4))
        dup = np.repeat(gen.normal(size=(10, 4)) - 8.0, 4, axis=0)
        grid = np.column_stack([gen.integers(0, 3, size=(40, 3)) + 8.0,
                                gen.integers(0, 2, size=40)]).astype(float)
        pts = np.vstack([cloud, dup, grid])
        x, y = pts[:, :3], pts[:, 3]
        counts = fallback_counts(monkeypatch)
        for kappa in (1, 10, 379):
            counts.clear()
            assert_matches_oracle(x, y, kappa)
            if kappa < 379:
                # the cloud's rows are certified; tied rows are scanned
                assert 0 < sum(counts) <= 80
            else:
                assert not counts          # every unit is a candidate

    def test_lists_do_not_depend_on_the_trees_tie_break(self, monkeypatch):
        monkeypatch.setattr(nuisance, "cKDTree", ReversedTree)
        inputs = [knn_inputs(kind, 150, seed=3)
                  for kind in ("grid", "duplicates", "equal", "continuous")]
        inputs.append((np.zeros((150, 2)), np.zeros(150)))   # all at the origin
        for x, y in inputs:
            for kappa in (1, 10):
                assert_batches_match_oracle(x, y, kappa, seed=kappa)

    @pytest.mark.parametrize("offset", [1e5, 1e6, 1e8])
    def test_large_offsets_keep_exact_lists(self, offset):
        # Coordinates are scaled, not centered: with a large offset the
        # formula's rounding outgrows the gaps between neighbors, and the
        # certificate must send the affected rows to the scan.
        gen = np.random.default_rng(22)
        x, y = gen.normal(size=(400, 3)) + offset, gen.normal(size=400)
        for kappa in (1, 10):
            assert_matches_oracle(x, y, kappa)

    def test_spot_rows_at_scale(self):
        ds, _, _ = generate(scenario_with_size("default", 20000), 3)
        rows = np.random.default_rng(23).choice(20000, size=50, replace=False)
        index = NeighborIndex(ds.x, ds.y, 10)
        assert np.array_equal(index.lists(rows), knn_rows(ds.x, ds.y, 10, rows))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_fallback_rows_on_continuous_data(self, monkeypatch, seed):
        # The certificate's slack grows with the tree's node count; it must
        # stay small enough that continuous data never reaches the O(n^2)
        # scan.
        ds, _, _ = generate(scenario_with_size("default", 4000), seed)
        counts = fallback_counts(monkeypatch)
        NeighborIndex(ds.x, ds.y, AdaSplitConfig().knn_k).lists(np.arange(4000))
        assert counts == []

    def test_build_memory_is_linear_in_n(self):
        # The n x n distance matrix alone would take 8000^2 * 8 B = 512 MB.
        gen = np.random.default_rng(12)
        x, y = gen.normal(size=(8000, 5)), gen.normal(size=8000)
        tracemalloc.start()
        try:
            NeighborIndex(x, y, 10).lists(np.arange(8000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestPosterior:
    def test_values(self):
        assert posterior_e(0.0, 0.0, 0.0, 1.0) == pytest.approx(0.5)
        assert posterior_e(1.0, 0.0, 1.0, 1.0) == pytest.approx(0.7310585786, abs=1e-6)
        with pytest.raises(ValidationError, match="^nu2 must be positive$"):
            posterior_e(1.0, 0.0, 1.0, 0.0)

    def test_sign_flip_symmetry(self):
        gen = np.random.default_rng(13)
        d = gen.normal(size=20)
        up = posterior_e(d, 0.0, 1.5, 0.7)
        down = posterior_e(-d, 0.0, 1.5, 0.7)
        assert np.allclose(up + down, 1.0, atol=1e-12)

    def test_strictly_inside_unit_interval(self):
        extreme = posterior_e(np.array([1e8, -1e8]), 0.0, 1e8, 1.0)
        assert 0.0 < extreme[0] < 1.0 and 0.0 < extreme[1] < 1.0
        assert np.all(certainty(extreme) < 1.0)

    def test_certainty_values_and_monotonicity(self):
        assert certainty(0.5) == 0.0
        assert certainty(1.0) == 1.0
        assert certainty(0.75) == 0.5
        d = np.linspace(0.0, 5.0, 50)
        c = certainty(posterior_e(d, 0.0, 1.0, 1.0))
        assert np.all(np.diff(c) > 0.0)


class TestBarLearner:
    """The selection loop's pooled solve, ``engine._LoopState.pooled``."""

    @staticmethod
    def _instance(seed, n=40, d=3):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(n, d))
        beta = gen.normal(size=d + 1)
        tau = beta[0] + x @ beta[1:]
        z = (gen.random(n) < 0.5).astype(float)
        mu_vals = gen.normal(size=n)
        y = mu_vals + (z - 0.5) * tau + gen.normal(0, 0.5, n)
        e_hat = posterior_e(y, mu_vals, tau, 1.0)
        mask = np.zeros(n, dtype=bool)
        mask[gen.permutation(n)[: n // 2]] = True
        return x, y, z, mask, mu_vals, e_hat

    @staticmethod
    def _pooled(x, y, z, mask, mu_vals, e_hat, ridge):
        ds = Dataset(x, y, z)
        cfg = AdaSplitConfig(ridge_lambda=ridge)
        one = SubgroupPartition.from_labels(np.zeros(ds.n, dtype=int))
        state = engine._LoopState(ds, one, mu_vals, mask, engine._AssignmentLog(ds.z), cfg)
        state.refit()
        return state.pooled(2.0 * e_hat - 1.0)

    def test_degenerate_imputation_equals_full_rlearner(self):
        x, y, z, mask, mu_vals, _ = self._instance(1)
        bar = self._pooled(x, y, z, mask, mu_vals, z, ridge=1e-9)
        full = fit_wls(x, scaled_residual(y, z, mu_vals), ridge=1e-9)
        assert np.allclose(bar, full.coef, atol=1e-10)

    def test_matches_coordinate_descent(self):
        for seed in range(3):
            x, y, z, mask, mu_vals, e_hat = self._instance(10 + seed)
            bar = self._pooled(x, y, z, mask, mu_vals, e_hat, ridge=1e-10)
            ref = minimize_bar_loss(x, y, z, mask, mu_vals, e_hat, lam=1.0)
            assert np.allclose(bar, ref, atol=1e-6)


class TestExpectedBetaDistance:
    def test_zero_cases(self):
        gen = np.random.default_rng(14)
        x = gen.normal(size=(10, 2))
        y = gen.normal(size=10)
        mu_vals = np.zeros(10)
        assert expected_beta_distance(x, y, np.ones(10, bool), mu_vals, np.zeros(10)) == 0.0
        full_c = expected_beta_distance(x, y, np.zeros(10, bool), mu_vals, np.ones(10))
        assert full_c == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_agreement(self):
        gen = np.random.default_rng(15)
        n, d = 30, 2
        x = gen.normal(size=(n, d))
        beta = gen.normal(size=d + 1)
        xd = np.hstack([np.ones((n, 1)), x])
        tau = xd @ beta
        z = (gen.random(n) < 0.5).astype(float)
        mu_vals = gen.normal(size=n)
        y = mu_vals + (z - 0.5) * tau + gen.normal(0, 1.0, n)
        e_post = posterior_e(y, mu_vals, tau, 1.0)
        mask = np.zeros(n, dtype=bool)
        mask[gen.permutation(n)[:18]] = True
        analytic = expected_beta_distance(x, y, mask, mu_vals, certainty(e_post))
        j = np.flatnonzero(~mask)
        a = np.linalg.inv(xd.T @ xd) @ xd[j].T
        draws = (gen.random((4000, j.size)) < e_post[j]).astype(float)
        delta = 4.0 * (y[j] - mu_vals[j]) * (draws - e_post[j])
        dist2 = np.einsum("ij,ij->j", a @ delta.T, a @ delta.T)
        assert abs(dist2.mean() - analytic) < 3.0 * dist2.std(ddof=1) / np.sqrt(4000)


class TestSeries:
    def test_large_s_vanishes(self):
        assert one_minus_c2_series(60.0, 200) == pytest.approx(0.0, abs=1e-20)

    def test_identity_with_direct_value(self):
        for s in (0.5, 1.0, 2.0, 5.0):
            direct = 1.0 - np.tanh(s / 2.0) ** 2
            assert abs(one_minus_c2_series(s, 200) - direct) < 1e-8

    def test_tiny_s_returns_limit(self):
        assert one_minus_c2_series(0.0, 200) == 1.0
        assert one_minus_c2_series(5e-4, 200) == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            one_minus_c2_series(-1.0, 10)
        with pytest.raises(ValidationError):
            one_minus_c2_series(1.0, 0)
