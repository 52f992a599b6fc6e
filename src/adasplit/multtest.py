"""Multiple-testing control over the K subgroup p-values.

The subgroup p-values are independent under the null by construction (the
fold selection never reads held-out assignments), which licenses Fisher's
combination as the global test inside closed testing.
"""

import numpy as np
from scipy.stats import chi2

from .errors import ValidationError


def _check_pvals(pvals):
    p = np.asarray(pvals, dtype=float).ravel()
    if p.size == 0:
        raise ValidationError("at least one p-value required")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValidationError("p-values must lie in (0, 1]")
    return p


def fisher_combine(pvals):
    """Fisher's combination of independent p-values.

    The statistic ``-2 sum log p_i`` is chi-square with 2K degrees of
    freedom under the global null; returns its upper-tail probability.
    """
    p = _check_pvals(pvals)
    stat = -2.0 * float(np.sum(np.log(p)))
    return float(chi2.sf(stat, 2 * p.size))


def closed_testing(pvals, q):
    """Closed testing with Fisher's combination as the global test.

    Rejects hypothesis k iff every subset containing k has a combined
    p-value at most q, which controls the family-wise error rate strongly.
    Enumerates all 2^K - 1 subsets, so K <= 20. Returns the rejected
    hypotheses' 0-based indices as a tuple of ints.
    """
    p = _check_pvals(pvals)
    k = p.size
    if k > 20:
        raise ValidationError("too many hypotheses for exhaustive closed testing")
    if not 0.0 < q < 1.0:
        raise ValidationError("q must lie in (0, 1)")
    alive = np.ones(k, dtype=bool)
    for mask in range(1, 1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        if not any(alive[i] for i in members):
            continue
        if fisher_combine(p[members]) > q:
            alive[members] = False
    return tuple(int(i) for i in np.flatnonzero(alive))
