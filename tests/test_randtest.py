"""Test statistics, Monte-Carlo and exact p-values, and the testing stage."""

import tracemalloc

import numpy as np
import pytest

from adasplit import (
    AdaSplitConfig,
    Dataset,
    LinearModel,
    ValidationError,
    exact_pvalue,
    fit_wls,
    mc_pvalue,
)
from adasplit import randtest, rng
from oracles import (
    aipw_statistic, dm_statistic, enumerate_pvalue, fair_coins_reference, integer_pvalue,
    mc_pvalue_reference,
)


# The two ways the statistic is used, named as the test ids name them: the
# difference in means of y (no outcome model, as ``rt``), and of y - mu(x),
# the AIPW statistic at e = 1/2 (as ``random_split`` and ``adasplit``).
STAT_DM, STAT_AIPW = "difference-in-means", "aipw"


def outcome_model(x, y):
    """A fitted outcome model, the statistic's ``mu``."""
    return fit_wls(x, y, ridge=1e-8)


def observed(mu, y, z, x=None):
    """The pipeline's statistic on the observed assignment of the whole fold."""
    y = np.asarray(y, dtype=float)
    x = np.zeros((y.size, 1)) if x is None else x
    w, c, z_obs, _ = randtest._fold_statistic(mu, Dataset(x, y, z), np.arange(y.size))
    return float(w @ z_obs) + c


def constant_mu(mu):
    """The constant outcome model ``mu``."""
    return LinearModel([mu, 0.0])


def bytes_per_draw(m):
    """The packed bytes of one draw on m units, the unit of the draw budget
    ``randtest._DRAW_ELEMENTS``."""
    return -(-m // 8)


def draws(gen, rows, m):
    """``rows`` fair-coin draws on m units from ``gen``, as the package
    draws and unpacks them."""
    return randtest._coins(randtest._draw_bytes(gen, rows, m), m)


class TestStatistics:
    def test_dm_balanced_constant(self):
        assert observed(None, [3.0, 3.0, 3.0, 3.0], [1.0, 0.0, 1.0, 0.0]) == 0.0

    def test_dm_single_unit(self):
        assert observed(None, [1.0], [1.0]) == 2.0

    def test_dm_hand_case(self):
        assert observed(None, [1.0, 2.0, 3.0], [1.0, 0.0, 1.0]) == pytest.approx(4.0 / 3.0)

    def test_dm_empty(self):
        # an empty fold has no statistic: p = 1, never an error
        ds = Dataset([[0.0]], [1.0], [1.0])
        pv = exact_pvalue(None, ds, np.array([], dtype=int))
        assert type(pv) is float and pv == 1.0

    def test_aipw_zero_augmentation(self):
        # y equal to the arm-specific outcome model mu + (z - e) tau: AIPW
        # returns tau exactly, and so does the residual statistic
        tau = 0.7
        mu = 1.0
        e = 0.5
        y1 = mu + (1.0 - e) * tau
        assert observed(constant_mu(mu), [y1], [1.0]) == pytest.approx(tau)
        y0 = mu - e * tau
        assert observed(constant_mu(mu), [y0], [0.0]) == pytest.approx(tau)

    def test_aipw_direct_value(self):
        # e=1/2, z=1, y - mu1 = 1, tau = 1 -> AIPW 2*1 + 1 = 3 = 2 (y - mu)
        mu, tau, e = 0.0, 1.0, 0.5
        y = mu + (1.0 - e) * tau + 1.0
        assert observed(constant_mu(mu), [y], [1.0]) == pytest.approx(3.0)

    def test_aipw_arm_difference_identity(self):
        gen = np.random.default_rng(0)
        y, mu, tau = gen.normal(size=3)
        e = 0.5
        mu1 = mu + (1.0 - e) * tau
        mu0 = mu - e * tau
        diff = observed(constant_mu(mu), [y], [1.0]) - observed(constant_mu(mu), [y], [0.0])
        assert diff == pytest.approx(2.0 * (y - mu1) + 2.0 * (y - mu0), abs=1e-12)


class TestMonteCarloPValue:
    def test_rank_formula_extreme(self):
        # large outcomes, everyone treated: the observed statistic can only
        # be matched by the all-ones draw
        gen = np.random.default_rng(1)
        y = np.abs(gen.normal(size=12)) + 1.0
        ds = Dataset(gen.normal(size=(12, 1)), y, np.ones(12))
        pv = mc_pvalue(None, ds, np.arange(12), 200, rng.stream(0, 1))
        # replay the identical stream: only an all-ones draw can tie
        draws = fair_coins_reference(rng.stream(0, 1), 200, 12).all(axis=1).sum()
        assert pv == pytest.approx((1.0 + draws) / 201.0)

    def test_constant_statistic_gives_one(self):
        ds = Dataset(np.ones((6, 1)), np.zeros(6), np.array([1.0, 0, 1, 0, 1, 0]))
        pv = mc_pvalue(None, ds, np.arange(6), 99, rng.stream(0, 2))
        assert pv == 1.0

    def test_empty_fold_flag(self):
        # p = 1; test_folds flags the fold (TestPooledStage).
        ds = Dataset(np.ones((3, 1)), np.ones(3), np.ones(3))
        pv = mc_pvalue(None, ds, np.array([], dtype=int), 10, rng.stream(0, 3))
        assert type(pv) is float and pv == 1.0

    def test_matches_exact_on_small_folds(self):
        gen = np.random.default_rng(2)
        for i in range(10):
            m = int(gen.integers(4, 9))
            y = gen.normal(size=m)
            z = (gen.random(m) < 0.5).astype(float)
            ds = Dataset(gen.normal(size=(m, 2)), y, z)
            exact = exact_pvalue(None, ds, np.arange(m))
            mc = mc_pvalue(None, ds, np.arange(m), 100000, rng.stream(4, i))
            tol = 3.0 * np.sqrt(exact * (1 - exact) / 100000) + 2e-5
            assert abs(mc - exact) <= tol

    def test_monotone_transform_invariance(self):
        # scaling outcomes scales the DM statistic strictly monotonically;
        # identical draw streams must yield the identical p-value
        gen = np.random.default_rng(3)
        y = gen.normal(size=10)
        z = (gen.random(10) < 0.5).astype(float)
        x = gen.normal(size=(10, 1))
        p1 = mc_pvalue(None, Dataset(x, y, z),
                       np.arange(10), 500, rng.stream(5, 0))
        p2 = mc_pvalue(None, Dataset(x, 3.0 * y, z),
                       np.arange(10), 500, rng.stream(5, 0))
        assert p1 == p2

    def test_aipw_scale_invariance(self):
        # any positive rescaling of the statistic's linear coefficients
        # leaves every comparison, hence the p-value, unchanged
        gen = np.random.default_rng(6)
        x = gen.normal(size=(12, 2))
        y = gen.normal(size=12)
        z = (gen.random(12) < 0.5).astype(float)
        ds = Dataset(x, y, z)
        w, c, _, _ = randtest._fold_statistic(outcome_model(x, y), ds, np.arange(12))
        draws = (rng.stream(6, 1).random((2000, 12)) < 0.5).astype(float)
        for scale in (1.0, 12.0, 1e-3):
            t_all = randtest._row_sums(np.vstack([draws, z[None]]) * (scale * w)) + scale * c
            count = np.sum(t_all[:-1] >= t_all[-1])
            if scale == 1.0:
                base = count
            assert count == base

    def test_bounds(self):
        gen = np.random.default_rng(7)
        y = gen.normal(size=8)
        z = (gen.random(8) < 0.5).astype(float)
        ds = Dataset(gen.normal(size=(8, 1)), y, z)
        pv = mc_pvalue(None, ds, np.arange(8), 999, rng.stream(8, 0))
        assert type(pv) is float and 1.0 / 1000.0 <= pv <= 1.0
        with pytest.raises(ValidationError, match="^m_draws must be >= 1$"):
            mc_pvalue(None, ds, np.arange(8), 0, rng.stream(8, 0))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_chunks_of_one_and_few_rows(self, monkeypatch, rows):
        # Continuous outcomes, outcomes with many ties (rounded), and mixed
        # magnitudes; one fold in one chunk at the default budget and one
        # over several. 1001 draws leave a partial last chunk of 3 rows.
        gen = np.random.default_rng(9)
        cases = []
        for i, (m, kind) in enumerate(((7, "mixed"), (40, "rounded"), (600, "normal"))):
            x = gen.normal(size=(m, 2))
            y = gen.normal(size=m)
            if kind == "rounded":
                y = np.round(y, 1)
            elif kind == "mixed":
                y = y * gen.choice([1e-3, 1.0, 1e3], size=m)
            z = (gen.random(m) < 0.5).astype(float)
            ds = Dataset(x, y, z)
            for mu in (None, outcome_model(x, y)):
                cases.append((mu, ds, mc_pvalue(mu, ds, np.arange(m), 1001,
                                                rng.stream(9, len(cases)))))
        assert (randtest._DRAW_ELEMENTS // bytes_per_draw(600) < 1001
                < randtest._DRAW_ELEMENTS // bytes_per_draw(7))
        for j, (mu, ds, base) in enumerate(cases):
            m = ds.y.size
            monkeypatch.setattr(randtest, "_DRAW_ELEMENTS", rows * bytes_per_draw(m))
            assert mc_pvalue(mu, ds, np.arange(m), 1001, rng.stream(9, j)) == base

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 130,
                                   1428])
    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_fair_coins_across_word_boundaries(self, monkeypatch, m, rows):
        # Each row takes whole 64-bit words, so the coins, and the p-value,
        # are those of one draw of all 1001 rows whatever one chunk holds;
        # a row's last byte and last word may be partial.
        gen = np.random.default_rng(12)
        y = gen.normal(size=m)
        z = (gen.random(m) < 0.5).astype(float)
        ds = Dataset(gen.normal(size=(m, 1)), y, z)
        if rows is not None:
            monkeypatch.setattr(randtest, "_DRAW_ELEMENTS", rows * bytes_per_draw(m))
        chunk = max(1, randtest._DRAW_ELEMENTS // bytes_per_draw(m))
        stream = rng.stream(12, m)
        coins = np.vstack([draws(stream, min(chunk, 1001 - start), m)
                           for start in range(0, 1001, chunk)])
        assert np.array_equal(coins, fair_coins_reference(rng.stream(12, m), 1001, m))
        w, c, _, _ = randtest._fold_statistic(None, ds, np.arange(m))
        value, _ = mc_pvalue_reference(w, c, z, 1001, rng.stream(12, m))
        got = mc_pvalue(None, ds, np.arange(m), 1001, rng.stream(12, m))
        assert got == value

    def test_fair_coins_first_row_is_pinned(self):
        # Unit j is bit j % 64 of word j // 64, least significant first, on
        # every platform; a byte-order or bit-order change moves this row.
        # The stream's first word is 0x9b7c56721dc8cd50: 0x50 gives 00001010.
        want = ("0000101010110011000100111011100001001110011010100011111011011001"
                "110001")
        coins = draws(rng.stream(0, rng.PVALUE_DRAWS, 0), 1, 70)
        oracle = fair_coins_reference(rng.stream(0, rng.PVALUE_DRAWS, 0), 1, 70)
        for row in (coins[0], oracle[0]):
            assert "".join(str(int(b)) for b in row) == want

    @pytest.mark.parametrize("make", [
        lambda: rng.stream(0, rng.PVALUE_DRAWS, 0),
        lambda: np.random.default_rng(0),
        lambda: np.random.Generator(np.random.MT19937(0)),
    ], ids=["Philox", "PCG64", "MT19937"])
    def test_fair_coins_are_fair_and_independent(self, make):
        # Every column's mean, and the rate at which the last bit of one
        # word agrees with the first of the next, are within 4 standard
        # errors of 1/2 (MT19937's raw words carry 32 bits; a draw from them
        # would leave half of each word's columns at 0).
        coins = draws(make(), 20000, 130)
        bound = 4.0 * np.sqrt(0.25 / coins.shape[0])
        assert np.all(np.abs(coins.mean(axis=0) - 0.5) <= bound)
        assert abs(np.mean(coins[:, 63] == coins[:, 64]) - 0.5) <= bound

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_replicated_assignment_ties_exactly(self, monkeypatch, rows):
        # Outcomes are scores in {-2, ..., 2} times one scale per fold, so
        # every coefficient 4 y / m is the score times one rounded value, and
        # a draw ties the observed statistic in exact arithmetic when its
        # score sum does (on the smallest folds, often by replicating the
        # observed assignment). Every fold has such ties among its draws,
        # and each counts, whatever the chunk size.
        gen = np.random.default_rng(11)
        for m, scale in ((2, 1e3), (7, 1e-3), (50, 1.0), (300, 1e3)):
            scores = gen.integers(-2, 3, size=m)
            z = (gen.random(m) < 0.5).astype(float)
            ds = Dataset(gen.normal(size=(m, 1)), scores * scale, z)
            coins = fair_coins_reference(rng.stream(11, m), 200, m)
            assert np.count_nonzero(coins @ scores == scores @ z) > 0
            if rows is not None:
                monkeypatch.setattr(randtest, "_DRAW_ELEMENTS", rows * bytes_per_draw(m))
            got = mc_pvalue(None, ds, np.arange(m), 200, rng.stream(11, m))
            assert got == integer_pvalue(scores, z, coins)

    def test_draw_memory_is_bounded(self):
        # Drawn at once, 200000 x 50 draws are 80 MB, 160 MB with a stacked
        # copy for the observed assignment. On the second fold only unit 0
        # has a nonzero outcome, so every draw giving it its observed
        # assignment ties the observed statistic and is recounted: half the
        # draws. Recounted in batches of about _DRAW_ELEMENTS coins the
        # p-value peaks at about 1.9 MB, unpacked a whole chunk at a time
        # at 3.4 MB.
        for tied in (False, True):
            gen = np.random.default_rng(10)
            y = gen.normal(size=50)
            if tied:
                y = np.where(np.arange(50) == 0, 1.0, 0.0)
            ds = Dataset(gen.normal(size=(50, 1)), y, (gen.random(50) < 0.5).astype(float))
            tracemalloc.start()
            try:
                pv = mc_pvalue(None, ds, np.arange(50), 200000, rng.stream(10, 0))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * 2**20, tied
            # The add-one denominator is that of all 200000 draws.
            hits = pv * 200001
            assert 0.0 < pv <= 1.0 and hits == pytest.approx(round(hits), abs=1e-6)

    def test_outcomes_too_large_for_the_statistic(self):
        # An outcome of 1e308 overflows its coefficient 4 y / m. No statistic
        # is then finite, no draw would reach the observed one, and p would
        # be the smallest possible, 1/(M + 1): both p-values refuse the fold.
        gen = np.random.default_rng(10)
        y = gen.normal(size=50)
        y[0] = 1e308
        ds = Dataset(gen.normal(size=(50, 1)), y, (gen.random(50) < 0.5).astype(float))
        message = (r"outcomes too large for the test statistic "
                   r"\(\|y\| reaches 1e\+308\); rescale them")
        with pytest.raises(ValidationError, match="subgroup 3: " + message):
            mc_pvalue(None, ds, np.arange(50), 200, rng.stream(10, 0), subgroup_id=3)
        with pytest.raises(ValidationError, match="subgroup 0: " + message):
            exact_pvalue(None, ds, np.arange(20))


class TestReferenceDrawLoop:
    """``mc_pvalue`` returns the very p-value of
    ``oracles.mc_pvalue_reference``, the draw loop with fixed-order pairwise
    row sums, on every statistic, outcome kind and generator."""

    GENERATORS = (
        lambda seed: rng.stream(31, seed),  # Philox
        np.random.default_rng,  # PCG64
        lambda seed: np.random.Generator(np.random.MT19937(seed)),
    )
    KINDS = ("continuous", "binary", "grid", "replicated", "cancelling")

    @staticmethod
    def outcomes(kind, m, gen):
        if kind == "continuous":
            return gen.normal(size=m) * gen.choice([1e-3, 1.0, 1e3], size=m)
        if kind == "binary":
            return gen.integers(0, 2, size=m).astype(float)
        if kind == "grid":
            return gen.integers(-20, 21, size=m) / 10.0
        if kind == "replicated":
            return gen.choice(gen.normal(size=3), size=m)
        # Small grid values between large ones of both signs: the sums lose
        # most of the small terms, and how many depends on the order.
        y = gen.integers(0, 2, size=m).astype(float)
        big = gen.choice(m, size=max(1, m // 16), replace=False)
        y[big] = gen.choice([-1.0, 1.0], size=big.size) * 2.0**54
        return y

    @staticmethod
    def case(i, gen):
        """One seeded fold: (outcome model, dataset, fold indices, draws,
        stream)."""
        kind = TestReferenceDrawLoop.KINDS[i % 5]
        m = int(gen.choice([1, 2, 3, 7, 33, 130, 400]))
        n = m + int(gen.integers(0, 5))
        x = gen.normal(size=(n, 2))
        y = TestReferenceDrawLoop.outcomes(kind, n, gen)
        z = (gen.random(n) < 0.5).astype(float)
        ds = Dataset(x, y, z)
        mu = None if i % 3 else outcome_model(x, y)
        fold = np.sort(gen.choice(n, size=m, replace=False))
        m_draws = int(gen.choice([1, 10, 999, 3000]))
        return mu, ds, fold, m_draws, TestReferenceDrawLoop.GENERATORS[i % 3]

    @staticmethod
    def assert_table_within_slack(w, c, t_obs, m_draws, gen):
        """Every statistic read off the partial-sum table lies within
        ``mc_pvalue``'s certified ``slack`` of its pairwise sum."""
        m = w.size
        steps = (m - 1).bit_length() + 2
        t_min = randtest._tie_floor(t_obs, w, c, steps)
        eps = np.finfo(float).eps
        slack = 4 * (m + steps + 2) * eps * (np.sum(np.abs(w)) + abs(c) + abs(t_min))
        assert np.isfinite(slack)
        for packed, t_tab in randtest._table_statistics(w, c, m_draws, gen):
            t_pair = randtest._row_sums(randtest._coins(packed, m) * w) + c
            assert np.all(np.abs(t_tab - t_pair) <= slack)

    def test_sweep_matches_reference(self):
        gen = np.random.default_rng(30)
        for i in range(90):
            mu, ds, fold, m_draws, make = self.case(i, gen)
            w, c, _, _ = randtest._fold_statistic(mu, ds, fold)
            value, t_obs = mc_pvalue_reference(w, c, ds.z[fold], m_draws, make(i))
            got = mc_pvalue(mu, ds, fold, m_draws, make(i), subgroup_id=i)
            assert got == value, (i, got, value)
            self.assert_table_within_slack(w, c, t_obs, m_draws, make(i))

    @pytest.mark.parametrize("m", [1000, 3000])
    @pytest.mark.parametrize("bigs_treated", [True, False])
    def test_large_cancellation_fold(self, m, bigs_treated):
        # Four units of +2^52 lead and four of -2^52 close the fold, all
        # treated or all control; 0.25 in between, every other unit treated.
        # A draw treating as many leading as closing large units lands
        # within rounding of the observed statistic, where a sum taken in
        # index order loses the small terms against the large partial sums
        # and the pairwise sum, which adds them in groups, loses few. On
        # this fold an index-order sum counts about 50 of the 200 draws
        # differently from the pairwise sum; the table's sums stay within
        # the certified slack of it.
        y = np.full(m, 0.25)
        y[:4], y[-4:] = 2.0**52, -2.0**52
        z = (np.arange(m) % 2).astype(float)
        z[:4] = z[-4:] = float(bigs_treated)
        ds = Dataset(np.zeros((m, 1)), y, z)
        fold = np.arange(m)
        w, c, _, _ = randtest._fold_statistic(None, ds, fold)
        value, t_obs = mc_pvalue_reference(w, c, z, 200, rng.stream(32, m))
        t_min = randtest._tie_floor(t_obs, w, c, (m - 1).bit_length() + 2)
        in_order = np.cumsum(fair_coins_reference(rng.stream(32, m), 200, m) * w,
                             axis=1)[:, -1] + c
        assert np.count_nonzero(in_order >= t_min) != round(value * 201) - 1
        got = mc_pvalue(None, ds, fold, 200, rng.stream(32, m))
        assert got == value
        self.assert_table_within_slack(w, c, t_obs, 200, rng.stream(32, m))

    def test_binary_outcomes_reach_the_exact_recount(self, monkeypatch):
        # Ties and near-ties fall between the table's certified bounds and
        # are summed again pairwise; continuous outcomes almost never do.
        rows = []
        row_sums = randtest._row_sums
        monkeypatch.setattr(randtest, "_row_sums",
                            lambda v: rows.append(v.shape[0]) or row_sums(v))
        gen = np.random.default_rng(33)
        for kind in ("binary", "continuous"):
            y = self.outcomes(kind, 200, gen)
            z = (gen.random(200) < 0.5).astype(float)
            ds = Dataset(np.zeros((200, 1)), y, z)
            rows.clear()
            mc_pvalue(None, ds, np.arange(200), 2000, rng.stream(33, 0))
            recounted = sum(rows) - 1  # the first call sums the observed row
            if kind == "binary":
                assert recounted > 0
            else:
                assert recounted <= 20


class TestPooledStage:
    """``test_folds``, the stage all three methods share, equals a loop over
    ``mc_pvalue`` in subgroup order, error included."""

    CONFIG = AdaSplitConfig(mc_draws=300, seed=5)

    @staticmethod
    def trial(k, seed):
        gen = np.random.default_rng(seed)
        n = 40 * k
        x = gen.normal(size=(n, 2))
        y = x[:, 0] + gen.normal(size=n)
        z = (gen.random(n) < 0.5).astype(float)
        folds = [np.sort(f) for f in np.array_split(gen.permutation(n), k)]
        return x, y, z, folds

    @staticmethod
    def run(mu, ds, folds):
        """``test_folds``; a ``ValidationError`` it raises is returned as its
        repr."""
        try:
            return randtest.test_folds(mu, ds, folds, TestPooledStage.CONFIG)
        except ValidationError as exc:
            return repr(exc)

    @pytest.mark.parametrize("k", [1, 2, 5, 14])
    @pytest.mark.parametrize("stat", [STAT_DM, STAT_AIPW])
    def test_each_value_is_its_folds_mc_pvalue(self, k, stat):
        x, y, z, folds = self.trial(k, k)
        mu = None if stat == STAT_DM else outcome_model(x, y)
        ds = Dataset(x, y, z)
        values, _, flags = self.run(mu, ds, folds)
        assert values == tuple(
            mc_pvalue(mu, ds, fold, 300, rng.stream(5, rng.PVALUE_DRAWS, j))
            for j, fold in enumerate(folds))
        assert all(type(v) is float for v in values)
        assert flags == {}

    def test_empty_fold_keeps_its_flag(self):
        x, y, z, folds = self.trial(3, 40)
        folds[1] = folds[1][:0]
        values, _, flags = self.run(None, Dataset(x, y, z), folds)
        assert values[1] == 1.0 and flags == {"1": "empty-inference-fold"}

    def test_first_failing_subgroup_in_order_raises(self, monkeypatch):
        # Subgroups 1 and 2 both fail; subgroup 2's fold is never drawn.
        x, y, z, folds = self.trial(3, 42)
        plain = randtest.mc_pvalue
        called = []

        def failing(mu, ds, fold, m_draws, gen, k):
            called.append(k)
            if k in (1, 2):
                raise ValidationError(f"fold failed (subgroup {k})")
            return plain(mu, ds, fold, m_draws, gen, k)

        monkeypatch.setattr(randtest, "mc_pvalue", failing)
        got = self.run(None, Dataset(x, y, z), folds)
        assert got == repr(ValidationError("fold failed (subgroup 1)"))
        assert called == [0, 1]


class TestExactPValue:
    def test_single_unit(self):
        ds = Dataset([[0.0]], [1.0], [1.0])
        pv = exact_pvalue(None, ds, np.array([0]))
        assert type(pv) is float and pv == 0.5

    def test_constant_outcomes(self):
        ds = Dataset(np.ones((4, 1)), np.zeros(4), np.ones(4))
        assert exact_pvalue(None, ds, np.arange(4)) == 1.0

    def test_too_large(self):
        ds = Dataset(np.ones((21, 1)), np.zeros(21), np.ones(21))
        with pytest.raises(ValidationError, match="too large"):
            exact_pvalue(None, ds, np.arange(21))

    def test_matches_independent_enumeration_bitforbit(self):
        # The residual statistic against AIPW with a random CATE, at its
        # scale and up to 1000 times it: at e = 1/2 the CATE cancels.
        gen = np.random.default_rng(8)
        for i in range(25):
            m = int(gen.integers(2, 11))
            x = gen.normal(size=(m, 2))
            y = gen.normal(size=m)
            z = (gen.random(m) < 0.5).astype(float)
            ds = Dataset(x, y, z)
            if i % 2 == 0:
                oracle = enumerate_pvalue(lambda zz: dm_statistic(y, zz), z)
                assert exact_pvalue(None, ds, np.arange(m)) == oracle
                continue
            mu = outcome_model(x, y)
            mu_vals = mu.predict(x)
            tau_vals = LinearModel(np.random.default_rng(i).normal(size=3)).predict(x)
            got = exact_pvalue(mu, ds, np.arange(m))
            for scale in (1.0, 10.0, 1000.0):
                oracle = enumerate_pvalue(
                    lambda zz: aipw_statistic(y, zz, mu_vals, scale * tau_vals), z)
                assert got == oracle, (i, scale)


class TestTies:
    """Draws whose statistic equals the observed one in exact arithmetic
    count as ties, whatever rounding does to the two sums. The reference is
    ``oracles.integer_pvalue``: both statistics are a positive multiple of
    an integer score sum plus a constant on these outcomes."""

    @staticmethod
    def folds(kind, m, gen):
        """Outcomes and their integer scores (y = scores * unit)."""
        if kind == "binary":
            scores = gen.integers(0, 2, size=m)
            return scores.astype(float), scores
        if kind == "grid":
            scores = gen.integers(-20, 21, size=m)
            return scores / 10.0, scores
        # Replicated rows: three continuous-looking values on a dyadic grid.
        scores = gen.choice(gen.integers(-2**20, 2**20, size=3), size=m)
        return scores * 2.0**-18, scores

    @staticmethod
    def model_and_scores(stat, y, scores, kind):
        """The outcome model, and the integer scores the statistic's
        coefficients are a positive multiple of. With an outcome model the
        coefficient is 4 (y - mu(x)) / m; mu = 0.5 is on every grid here
        (on the binary and dyadic ones as 1/2, on the 0.1 grid as 5/10)."""
        if stat == STAT_DM:
            return None, scores
        shift = {"binary": 0.5, "grid": 5, "replicated": 2**17}[kind]
        ints = 2 * scores - 1 if kind == "binary" else scores - shift
        return constant_mu(0.5), ints

    @pytest.mark.parametrize("kind", ["binary", "grid", "replicated"])
    @pytest.mark.parametrize("stat", [STAT_DM, STAT_AIPW])
    def test_exact_pvalue_counts_every_tie(self, kind, stat):
        gen = np.random.default_rng(21)
        for _ in range(30):
            m = int(gen.integers(2, 13))
            y, scores = self.folds(kind, m, gen)
            z = (gen.random(m) < 0.5).astype(float)
            mu, ints = self.model_and_scores(stat, y, scores, kind)
            ds = Dataset(np.zeros((m, 1)), y, z)
            got = exact_pvalue(mu, ds, np.arange(m))
            assert got == integer_pvalue(ints, z)

    @pytest.mark.parametrize("kind", ["binary", "grid", "replicated"])
    @pytest.mark.parametrize("stat", [STAT_DM, STAT_AIPW])
    def test_mc_pvalue_counts_every_tie(self, monkeypatch, kind, stat):
        # Also in chunks of 3 draws, where the recount budget is one draw:
        # the undecided draws of a chunk are recounted in several batches.
        gen = np.random.default_rng(22)
        for i in range(20):
            m = int(gen.integers(20, 200))
            y, scores = self.folds(kind, m, gen)
            z = (gen.random(m) < 0.5).astype(float)
            mu, ints = self.model_and_scores(stat, y, scores, kind)
            ds = Dataset(np.zeros((m, 1)), y, z)
            coins = fair_coins_reference(np.random.default_rng(i), 500, m)
            want = integer_pvalue(ints, z, coins)
            assert mc_pvalue(mu, ds, np.arange(m), 500, np.random.default_rng(i)) == want
            with monkeypatch.context() as patch:
                patch.setattr(randtest, "_DRAW_ELEMENTS", 3 * bytes_per_draw(m))
                got = mc_pvalue(mu, ds, np.arange(m), 500, np.random.default_rng(i))
            assert got == want
