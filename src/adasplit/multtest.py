"""Multiple-testing control over the K subgroup p-values.

The subgroup p-values are independent under the null by construction (the
fold selection never reads held-out assignments), which licenses Fisher's
combination as the global test inside closed testing.
"""

import numpy as np
from scipy.special import chdtrc

from .errors import ValidationError


def _check_pvals(pvals):
    p = np.asarray(pvals, dtype=float).ravel()
    if p.size == 0:
        raise ValidationError("at least one p-value required")
    # Written so that NaN fails it too.
    if not np.all((p > 0.0) & (p <= 1.0)):
        raise ValidationError("p-values must lie in (0, 1]")
    return p


def closed_testing(pvals, q):
    """Closed testing with Fisher's combination as the global test.

    A subset's combined p-value is the chi-square(2s) upper tail of ``-2 sum
    log p_i`` over its s p-values (``scipy.special.chdtrc``). Rejects hypothesis k iff every subset containing k has a combined
    p-value at most q, which controls the family-wise error rate strongly.
    Returns the rejected hypotheses' 0-based indices as a tuple of ints.

    No subset is enumerated. Fisher's combination is symmetric and monotone
    in the p-values, so among the subsets of size s that contain k the
    largest combined p-value belongs to {k} plus the s - 1 largest other
    p-values (the shortcut of Goeman & Solari, "Multiple testing for
    exploratory research", Statistical Science 26(4), 2011). With the
    p-values sorted largest first, that subset's statistic is a prefix sum
    of ``-2 log p``, plus k's own term when k is not inside the prefix. The
    test is exact and takes O(K^2) time and O(K) memory, one vectorized
    pass over the hypotheses per subset size.
    """
    p = _check_pvals(pvals)
    if not 0.0 < q < 1.0:
        raise ValidationError("q must lie in (0, 1)")
    k = p.size
    terms = -2.0 * np.log(p)
    order = np.argsort(-p, kind="stable")
    rank = np.empty(k, dtype=int)
    rank[order] = np.arange(k)
    prefix = np.concatenate([[0.0], np.cumsum(terms[order])])
    worst = np.zeros(k)
    for s in range(1, k + 1):
        stat = np.where(rank < s, prefix[s], prefix[s - 1] + terms)
        np.maximum(worst, chdtrc(2 * s, stat), out=worst)
    return tuple(int(i) for i in np.flatnonzero(worst <= q))
