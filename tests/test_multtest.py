"""Fisher combination and closed testing."""

import numpy as np
import pytest
from scipy.stats import chi2

from adasplit import ValidationError, closed_testing, fisher_combine


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


class TestFisher:
    def test_all_ones(self):
        assert fisher_combine([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_single_p_identity(self):
        for p in (0.9, 0.3, 0.004):
            assert fisher_combine([p]) == pytest.approx(p, abs=1e-12)

    def test_two_small_pvalues(self):
        stat = -2.0 * (np.log(0.05) + np.log(0.05))
        assert stat == pytest.approx(11.9829, abs=1e-3)
        assert fisher_combine([0.05, 0.05]) == pytest.approx(0.01747, abs=2e-4)

    def test_permutation_symmetry(self):
        gen = np.random.default_rng(0)
        p = gen.uniform(0.01, 1.0, size=6)
        assert fisher_combine(p) == pytest.approx(fisher_combine(p[::-1]), abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            fisher_combine([])
        with pytest.raises(ValidationError):
            fisher_combine([0.0, 0.5])


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

    def test_k_limit(self):
        with pytest.raises(ValidationError, match="too many"):
            closed_testing(np.full(21, 0.5), 0.2)

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

