"""Closed testing with Fisher's combination."""

import numpy as np
import pytest
from scipy.stats import chi2

from adasplit import ValidationError, closed_testing
from oracles import closed_testing_bruteforce


def brute_closed_testing(pvals, q):
    """Independent closed-testing implementation: explicit subset listing."""
    import itertools

    k = len(pvals)
    rejected = []
    for target in range(k):
        ok = True
        for r in range(1, k + 1):
            for subset in itertools.combinations(range(k), r):
                if target not in subset:
                    continue
                stat = -2.0 * sum(np.log(pvals[i]) for i in subset)
                if chi2.sf(stat, 2 * len(subset)) > q:
                    ok = False
        if ok:
            rejected.append(target)
    return tuple(rejected)


def random_pvalue_cases(n_cases, seed):
    """Seeded (p-values, q) pairs for K = 1..10 in four families: continuous
    p skewed toward 0, ties on the Monte-Carlo grid (integers / 1001), blocks
    of p = 1, and continuous p mixed with grid values. Case i has
    K = 1 + i % 10, family (i // 10) % 4 and q from (0.05, 0.1, 0.2) by
    i % 3, so every 120 consecutive cases cover every combination."""
    gen = np.random.default_rng(seed)
    for i in range(n_cases):
        k = 1 + i % 10
        family = (i // 10) % 4
        q = (0.05, 0.1, 0.2)[i % 3]
        cont = (1.0 - gen.random(k)) ** gen.uniform(1.0, 6.0)
        pool = gen.integers(1, 1002, size=int(gen.integers(1, 4)))
        grid = gen.choice(pool, size=k) / 1001.0
        if family == 0:
            p = cont
        elif family == 1:
            p = grid
        elif family == 2:
            p = cont
            start = int(gen.integers(k))
            p[start:start + int(gen.integers(1, k + 1))] = 1.0
        else:
            p = np.where(gen.random(k) < 0.5, cont, grid)
        yield p, q


class TestFisher:
    """Fisher's combination as ``closed_testing`` applies it: a hypothesis
    is rejected at q exactly when q reaches the largest combined p-value,
    the chi-square(2s) tail of ``-2 sum log p``, over the subsets of size s
    that hold it."""

    def test_all_ones(self):
        # -2 sum log 1 = 0, so every combined p-value is 1.
        for q in (0.05, 0.2, 0.999):
            assert closed_testing([1.0, 1.0, 1.0], q) == ()

    def test_single_p_identity(self):
        # K = 1: the chi-square(2) tail of -2 log p is p itself.
        for p in (0.9, 0.3, 0.004):
            assert closed_testing([p], p * (1 + 1e-12)) == (0,)
            assert closed_testing([p], p * (1 - 1e-12)) == ()

    def test_two_small_pvalues(self):
        # The pair (0.05, 0.05) combines to 0.0175, below either p, so the
        # singletons bind; paired with 0.9 instead, 0.05 is rejected only
        # from the pair's combined p-value on.
        stat = -2.0 * (np.log(0.05) + np.log(0.05))
        assert stat == pytest.approx(11.9829, abs=1e-3)
        assert chi2.sf(stat, 4) == pytest.approx(0.01747, abs=2e-4)
        assert closed_testing([0.05, 0.05], 0.0501) == (0, 1)
        assert closed_testing([0.05, 0.05], 0.0499) == ()
        pair = chi2.sf(-2.0 * (np.log(0.05) + np.log(0.9)), 4)
        assert closed_testing([0.05, 0.9], pair * (1 + 1e-9)) == (0,)
        assert closed_testing([0.05, 0.9], pair * (1 - 1e-9)) == ()

    def test_permutation_symmetry(self):
        gen = np.random.default_rng(0)
        p = gen.uniform(0.01, 1.0, size=6)
        for q in (0.05, 0.2, 0.5, 0.9):
            mirrored = tuple(sorted(5 - k for k in closed_testing(p, q)))
            assert closed_testing(p[::-1], q) == mirrored

    def test_validation(self):
        with pytest.raises(ValidationError, match="at least one p-value"):
            closed_testing([], 0.2)
        with pytest.raises(ValidationError, match=r"\(0, 1\]"):
            closed_testing([0.0, 0.5], 0.2)
        for q in (0.0, 1.0):
            with pytest.raises(ValidationError, match="q must lie"):
                closed_testing([0.5], q)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"\(0, 1\]"):
            closed_testing([bad], 0.2)
        with pytest.raises(ValidationError, match=r"\(0, 1\]"):
            closed_testing([0.5, bad], 0.2)


class TestClosedTesting:
    def test_single_hypothesis(self):
        assert closed_testing([0.1], 0.2) == (0,)
        assert type(closed_testing([0.1], 0.2)[0]) is int
        assert closed_testing([0.3], 0.2) == ()

    def test_all_ones_rejects_nothing(self):
        assert closed_testing([1.0] * 5, 0.2) == ()

    def test_matches_brute_force(self):
        gen = np.random.default_rng(1)
        for _ in range(10):
            p = gen.uniform(0.001, 1.0, size=4)
            ours = closed_testing(p, 0.2)
            assert ours == brute_closed_testing(p, 0.2)

    def test_monotone_in_pvalues(self):
        gen = np.random.default_rng(2)
        for _ in range(10):
            p = gen.uniform(0.01, 1.0, size=5)
            base = set(closed_testing(p, 0.2))
            i = int(gen.integers(5))
            smaller = p.copy()
            smaller[i] = p[i] / 2.0
            assert base <= set(closed_testing(smaller, 0.2))

    def test_matches_bitmask_oracle(self):
        cases = list(random_pvalue_cases(2400, seed=11))
        assert {len(p) for p, _ in cases} == set(range(1, 11))
        assert {q for _, q in cases} == {0.05, 0.1, 0.2}
        rejecting = 0
        for p, q in cases:
            ours = closed_testing(p, q)
            assert ours == closed_testing_bruteforce(p, q), (p.tolist(), q)
            rejecting += bool(ours)
        # The suite must exercise rejections, not only empty sets.
        assert rejecting > len(cases) // 4

    def test_permutation_equivariant(self):
        gen = np.random.default_rng(12)
        for p, q in random_pvalue_cases(600, seed=13):
            perm = gen.permutation(p.size)
            base = set(closed_testing(p, q))
            # Hypothesis i of the permuted family is hypothesis perm[i].
            moved = {i for i in range(p.size) if perm[i] in base}
            assert set(closed_testing(p[perm], q)) == moved

    def test_rejections_form_a_down_set(self):
        for p, q in random_pvalue_cases(600, seed=14):
            rejected = closed_testing(p, q)
            for k in rejected:
                assert set(np.flatnonzero(p <= p[k])) <= set(rejected)

    def test_no_cap_on_k(self):
        # K = 21 and K = 500, past the old cap of 20.
        gen = np.random.default_rng(15)
        p = 1.0 - gen.random(21)
        p[:3] = 1e-12
        assert closed_testing(p, 0.2) == (0, 1, 2)
        p = np.concatenate([np.full(450, 1e-30), gen.uniform(0.3, 1.0, size=50)])
        p = p[gen.permutation(p.size)]
        rejected = closed_testing(p, 0.2)
        assert all(type(k) is int for k in rejected)
        assert rejected == tuple(int(k) for k in np.flatnonzero(p == 1e-30))
        for k in rejected:
            assert set(np.flatnonzero(p <= p[k])) <= set(rejected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"\(0, 1\]"):
            closed_testing([bad, 0.5], 0.2)

    def test_fwer_on_null_uniforms(self):
        gen = np.random.default_rng(3)
        reps = 2000
        q = 0.2
        false_rejections = 0
        for _ in range(reps):
            p = gen.uniform(size=5)
            if closed_testing(p, q):
                false_rejections += 1
        bound = q + 3.0 * np.sqrt(q * (1 - q) / reps)
        assert false_rejections / reps <= bound

