"""Nuisance estimators: outcome model, residual regressions, selection
probabilities and posterior assignment probabilities.

The estimation stack mirrors how the adaptive split consumes it:

* ``fit_mu`` fits the outcome regression E[Y | X] on all units without
  touching any treatment assignment; the test statistic is the difference
  in means of its residuals ``y - mu(x)`` (``randtest``).
* Scaled residuals ``(y - mu(x)) / (z - 1/2)`` turn the partially linear
  outcome model into a regression problem whose target is the CATE under
  the Bernoulli(1/2) design; ``fit_rlearner_weighted`` fits them by least
  squares over one fold.
* Because the nuisance fold is selected adaptively, plain least squares on
  it is biased; the selection loop (``engine._LoopState``) weights each fold
  unit by the inverse of its estimated selection probability ``p(x, y)``, a
  leave-one-out k-nearest-neighbor vote on standardized (covariate, outcome)
  coordinates. ``NeighborIndex`` holds the lists, the engine counts the
  votes. A KD-tree proposes each unit's candidates, one fixed distance
  formula re-ranks them exactly, and a rounding-error certificate shows no
  other unit is nearer or tied; rows it cannot certify are scanned against
  every unit. The build costs about O(n log n + n * kappa * d) rather than
  O(n^2 d).
* For units whose assignment is held out, the loop's pooled CATE fit
  imputes the residual by marginalizing z over the posterior assignment
  probability ``e(x, y) = sigmoid((y - mu(x)) tau(x) / nu^2)`` from
  ``posterior_e``, so it uses every unit's covariates and outcome while
  reading assignments only from the nuisance fold.
"""

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError
from .linmodel import _design, diversity_scores, fit_wls

# Sigmoid arguments beyond this magnitude saturate to exactly 0.0 or 1.0 in
# IEEE double precision; clipping here keeps every probability strictly
# inside (0, 1).
_SIGMOID_CLIP = 36.0


def sigmoid(t, out=None):
    """``1 / (1 + exp(-t))`` with ``t`` clipped to the saturation bound,
    written to ``out`` when given (which may be ``t`` itself)."""
    s = np.minimum(np.maximum(t, -_SIGMOID_CLIP, out=out), _SIGMOID_CLIP, out=out)
    s = np.exp(np.negative(s, out=out), out=out)
    return np.divide(1.0, np.add(1.0, s, out=out), out=out)


def fit_mu(x, y, ridge=0.0):
    """Fit the outcome model E[Y | X] on all units. Uses no assignments."""
    return fit_wls(x, y, ridge=ridge)


def scaled_residual(y, z, mu_vals):
    """Residual ``(y - mu(x)) / (z - 1/2)``; the regression target whose
    conditional mean is the CATE. The denominator is -1/2 or 1/2."""
    return (np.asarray(y, dtype=float) - mu_vals) / (np.asarray(z, dtype=float) - 0.5)


def fit_rlearner_weighted(x, y, z, mu_vals, ridge=0.0):
    """CATE regression of scaled residuals on covariates over one fold, by
    plain least squares.

    All array arguments are restricted to the fold; callers hand in exactly
    the assignments they are allowed to read. The selection loop's
    inverse-weighted fit is ``engine._LoopState.refit``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] < x.shape[1] + 1:
        raise ValidationError("fold too small for the residual regression")
    return fit_wls(x, scaled_residual(y, z, mu_vals), ridge=ridge)


# Selection probability -------------------------------------------------------

# The neighbor-index build works on as many rows at once as fit in about this
# many doubles (candidate distances, or full rows for the fallback scan),
# which bounds its working memory whatever n is.
_BLOCK_ELEMENTS = 1 << 16

# Factor on the rounding bounds behind the certificate in NeighborIndex; it
# covers the second-order terms the first-order bounds leave out.
_CERTIFICATE_SAFETY = 4.0


class NeighborIndex:
    """Precomputed leave-one-out k-nearest-neighbor lists over standardized
    (x, y) space, for 1 <= kappa < n.

    Distances depend only on the covariates and outcomes, which never change
    during the selection loop, so the lists are built once per run. Each
    row's order is by (distance, index), so ties go to the lower index, with
    the squared distance of units i and j given by one fixed formula,
    ``D_ij = (sq_i + sq_j) - 2 * sum_k c_ik c_jk`` over the m = d + 1
    standardized coordinates, with ``sq_i = sum_k c_ik^2`` and both sums
    taken one coordinate at a time, in order. ``loo_neighbors`` holds the
    leading ``kappa`` entries of each row's order with the row's own unit
    dropped.

    The build never forms all n^2 distances. A KD-tree
    (``scipy.spatial.cKDTree``) only proposes candidates: the ``kappa + 2``
    units nearest to each row by its own arithmetic, one more than the list
    keeps. The formula above re-ranks them by (distance, index), and a
    certificate proves that no unit outside the candidates is nearer or
    tied. Let t_i be the tree's distance to row i's last candidate and
    ``S_i = sq_i + max_j sq_j``. With eps the machine epsilon:

    * the formula's rounding moves D_ij by at most (2m + 3) eps S_i: the two
      sums carry m eps of their magnitudes, sq_i + sq_j and
      2 |sum_k c_ik c_jk| <= sq_i + sq_j, and the final addition and
      subtraction 3 eps more;
    * the tree's squared distance is a sum of m non-negative squared
      differences, so its error is relative: (m + 4) eps t^2 with the square
      root and squaring; the box bounds it prunes with are updated one
      subtraction and one addition per level, another 2 L eps t^2 over the
      levels of a root-to-leaf path. The tree splits each node at the
      midpoint of its widest side, sliding the cut to the nearest point when
      one side would be empty (``balanced_tree=False``); that tree answers
      the queries here faster than a median split, but its depth has no
      log2 n bound, so L is the node count ``tree.size``, which no path
      exceeds.

    A unit the tree left out lies at tree distance t_i or more, so its D is
    at least ``t_i^2 - delta_i`` with
    ``delta_i = 4 eps ((2m + 3) S_i + (m + 4 + 2L) t_i^2)``, the factor 4
    being ``_CERTIFICATE_SAFETY``. A row is certified when its
    (kappa + 1)-th re-ranked distance lies strictly below that. Rows that
    fail (exact ties at the cut: grids, duplicates, all-equal points) are
    scanned against every unit in blocks of about ``_BLOCK_ELEMENTS``
    doubles, as a full row sort would order them.

    Cost: about O(n (log n + kappa)) for the tree in low dimension and
    O(n * kappa * m) for the re-ranking, plus O(n * m) per fallback row;
    memory O(n * kappa + block). On ``default`` data with kappa = 10, on a
    2-core Xeon, the build takes about 35 ms at n = 4000, 0.22 s at
    n = 20000 and 2.0-2.4 s at n = 10^5, with no row sent to the scan;
    scanning every row takes 5 s at n = 20000.
    """

    def __init__(self, x, y, kappa):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        n = x.shape[0]
        if not 1 <= kappa < n:
            raise ValidationError("kappa must lie in [1, n)")
        self.kappa = kappa = int(kappa)
        coords = np.hstack([x, y[:, None]])
        scale = coords.std(axis=0)
        scale[scale == 0.0] = 1.0
        coords = coords / scale
        # Inner products are summed one coordinate at a time, in order, so
        # that an entry never depends on the block it falls in; a BLAS
        # product changes its summation order with the shape, which moves
        # entries by an ulp and reorders tied distances.
        cols = np.ascontiguousarray(coords.T)
        sq = cols[0] * cols[0]
        for c in cols[1:]:
            sq += c * c
        m, width = cols.shape[0], kappa + 1
        k = min(width + 1, n)
        eps = np.finfo(float).eps
        sq_max = sq.max()
        tree = cKDTree(coords, balanced_tree=False)
        levels = tree.size
        order = np.empty((n, width), dtype=np.intp)
        fallback = [np.empty(0, dtype=np.intp)]
        rows = max(1, _BLOCK_ELEMENTS // k)
        for start in range(0, n, rows):
            blk = slice(start, min(start + rows, n))
            t, cand = tree.query(coords[blk], k=k)
            d = _sq_dists(cols, sq, blk, cand)
            srt = np.lexsort((cand, d), axis=1)
            order[blk] = np.take_along_axis(cand, srt[:, :width], axis=1)
            if k < n:                   # else every unit is a candidate
                cut = d[np.arange(len(d)), srt[:, kappa]]
                t2 = t[:, -1] ** 2
                delta = _CERTIFICATE_SAFETY * eps * (
                    (2 * m + 3) * (sq[blk] + sq_max) + (m + 4 + 2 * levels) * t2
                )
                fallback.append(start + np.flatnonzero(~(cut < t2 - delta)))
        fallback = np.concatenate(fallback)
        rows = max(1, _BLOCK_ELEMENTS // n)
        for start in range(0, fallback.size, rows):
            blk = fallback[start:start + rows]
            order[blk] = _nearest(_sq_dists(cols, sq, blk, slice(None)), width)
        # Drop each row's own unit if it is among its kappa + 1 nearest;
        # otherwise the first kappa already exclude it.
        own = order == np.arange(n)[:, None]
        pos = np.where(own.any(axis=1), own.argmax(axis=1), kappa)
        col = np.arange(kappa)
        self.loo_neighbors = np.where(
            col < pos[:, None], order[:, :kappa], order[:, 1:]
        )


def _sq_dists(cols, sq, rows, units):
    """Squared distances from ``rows`` to ``units`` by the fixed formula of
    :class:`NeighborIndex`: ``units`` is either a 2-D index array with one
    row per entry of ``rows`` or ``slice(None)`` for every unit. Each entry
    is the same sequence of rounded operations either way."""
    g = cols[0][rows, None] * cols[0][units]
    for c in cols[1:]:
        g += c[rows, None] * c[units]
    g *= 2.0
    d = sq[rows, None] + sq[units]
    d -= g
    return d


def _nearest(d2, width):
    """Indices of the ``width`` smallest entries of each row of ``d2``,
    ordered by (distance, index): the leading columns of a stable argsort.

    Partitioning finds each row's ``width``-th smallest distance. Where no
    other entry ties it, the ``width`` partitioned candidates are exactly the
    stable argsort's leading entries and are sorted in one pass; rows with
    extra ties at that distance sort every candidate at or below it.
    """
    cand = np.argpartition(d2, width - 1, axis=1)[:, :width]
    vals = np.take_along_axis(d2, cand, axis=1)
    order = np.take_along_axis(cand, np.lexsort((cand, vals), axis=1), axis=1)
    thr = vals.max(axis=1)
    for r in np.flatnonzero(np.count_nonzero(d2 <= thr[:, None], axis=1) > width):
        idx = np.flatnonzero(d2[r] <= thr[r])
        order[r] = idx[np.argsort(d2[r, idx], kind="stable")][:width]
    return order


# Posterior assignment probability --------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def noise_floor(y):
    """Variance floor keeping the posterior's scale parameter positive.
    Outcomes too large to square fail here, before the loop squares them."""
    var = float(np.var(y))
    if not np.isfinite(var):
        raise ValidationError(f"outcomes too large to square (|y| reaches "
                              f"{np.max(np.abs(y)):.3g}); rescale them")
    return max(1e-8 * var, 1e-12)


def posterior_e(y, mu_vals, tau_vals, nu2, out=None):
    """Posterior probability of treatment given covariates and outcome.

    Under the Gaussian outcome model with a half design this is exactly
    ``sigmoid((y - mu(x)) tau(x) / nu^2)``. Output lies strictly in (0, 1);
    it is written to ``out`` when given.
    """
    if not nu2 > 0.0:
        raise ValidationError("nu2 must be positive")
    t = np.multiply(np.subtract(y, mu_vals, out=out), tau_vals, out=out)
    return sigmoid(np.divide(t, nu2, out=out), out=out)


def certainty(e_val, out=None):
    """How predictable an assignment is: 0 at e=1/2, 1 at e in {0, 1}.
    Written to ``out`` when given."""
    return np.abs(np.subtract(np.multiply(2.0, e_val, out=out), 1.0, out=out), out=out)


def expected_beta_distance(x, y, nuisance_mask, mu_vals, c_vals, ridge=0.0):
    """Expected squared gap between the pooled estimator and the full-data one.

    Conditional on covariates and outcomes, with the true posterior used for
    imputation, the gap decomposes unit by unit over the held-out fold:

        4 * sum_j  x_j' (X'X)^{-2} x_j  *  (y_j - mu(x_j))^2  *  (1 - C_j^2)

    where X is the intercept-augmented design, whose ``diversity_scores``
    are the leverage terms, and C_j the certainty score. Perfectly certain
    units (C=1) cost nothing to hold out.
    """
    held = ~np.asarray(nuisance_mask, dtype=bool)
    if not np.any(held):
        return 0.0
    lev = diversity_scores(_design(x), ridge)[held]
    d2 = (np.asarray(y, dtype=float)[held] - np.asarray(mu_vals)[held]) ** 2
    c2 = np.asarray(c_vals, dtype=float)[held] ** 2
    return 4.0 * float(np.sum(lev * d2 * (1.0 - c2)))


def one_minus_c2_series(s, terms):
    """Partial sum of the alternating series for ``1 - C^2`` at signal-to-noise
    ratio ``s = |tau(x) (y - mu(x))| / nu^2``.

    The series ``4 * sum_t (-1)^{t+1} t exp(-t s)`` converges for s > 0; at
    s = 0 the terms do not decay, so tiny s returns the limiting value 1.
    """
    if s < 0.0:
        raise ValidationError("s must be nonnegative")
    if terms < 1:
        raise ValidationError("terms must be >= 1")
    if s < 1e-3:
        return 1.0
    t = np.arange(1, terms + 1, dtype=float)
    return 4.0 * float(np.sum((-1.0) ** (t + 1.0) * t * np.exp(-t * s)))
