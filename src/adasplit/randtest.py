"""Randomization tests: the test statistic, Monte-Carlo and exact reference
distributions, and the testing stage all three methods share.

There is one statistic, the difference in means of ``y - mu(x)`` for a
fitted outcome model ``mu`` (of ``y`` itself for ``rt``, which fits none;
see :func:`_fold_statistic`). Under the Bernoulli(1/2) design, the only
design the package supports, it equals the AIPW statistic whatever CATE
model that would use. It is linear in the assignment vector, and each
assignment of a draw is one random bit (:func:`_draw_bytes`), so a draw of
the reference distribution is scored as a sum of table lookups, one per
byte of its packed bits (:func:`_table_statistics`; certified against a
fixed-order sum where rounding could decide, see :func:`mc_pvalue`). No
draw is unpacked unless it is recounted. The Monte-Carlo p-value uses the
add-one correction ``(1 + #{t : T_t >= T_obs}) / (M + 1)``, which is
finite-sample valid for any number of draws because the observed and
randomized assignments are exchangeable; ties, up to rounding
(``_tie_floor``), count toward the numerator.

:func:`test_folds` computes the subgroup p-values one after another, each
from its own stream, on the calling thread.
"""

import numpy as np

from . import rng
from .errors import ValidationError
from .multtest import closed_testing


@np.errstate(over="ignore", invalid="ignore")
def _fold_statistic(mu, dataset, idx, subgroup_id=0):
    """The statistic on the fold ``idx`` of subgroup ``subgroup_id`` as
    coefficients (w, c) with ``T(z) = w @ z + c``, the fold's observed
    assignment and the observed statistic, summed by :func:`_row_sums` as
    :func:`mc_pvalue` sums each draw's.

    T is the difference in means of the residual ``r = y - mu(x)``
    (``r = y`` when ``mu`` is None), ``2/m (sum_treated r - sum_control r)``,
    so ``w = 4 r / m`` and ``c = -2 sum r / m``. It equals the AIPW
    statistic under the Bernoulli(1/2) design: the mean of ``z/e (y - mu_1)
    - (1-z)/(1-e) (y - mu_0) + tau`` with e = 1/2 and arm models ``mu_z(x) =
    mu(x) + (z - e) tau(x)`` is T whatever the CATE tau is, so a fitted CATE
    acts on the test only through the folds (and ``adasplit``'s pruning).

    Raises ValidationError unless ``sum |w| + |c| + |T_obs|`` is finite:
    outcomes near the largest double overflow w, and a non-finite statistic
    would count no draw as reaching the observed one.
    """
    m = idx.size
    r = dataset.y[idx]
    if mu is not None:
        r = r - mu.predict(dataset.x[idx])
    w, c, z_obs = 4.0 * r / m, -2.0 * float(np.sum(r)) / m, dataset.z[idx]
    t_obs = float(_row_sums(z_obs[None, :] * w)[0]) + c
    if not np.isfinite(float(np.sum(np.abs(w))) + abs(c) + abs(t_obs)):
        raise ValidationError(
            f"subgroup {subgroup_id}: outcomes too large for the test statistic "
            f"(|y| reaches {np.max(np.abs(dataset.y[idx])):.3g}); rescale them")
    return w, c, z_obs, t_obs


# Monte-Carlo draws are scored about this many packed bytes at a time, each
# with its table index and lookup (1 MB), and recounted about this many coins
# at a time (512 KB of doubles), which bounds the working memory of a p-value
# whatever mc_draws is.
_DRAW_ELEMENTS = 1 << 16


def _tie_floor(t_obs, w, c, steps):
    """``t_obs - steps * eps * (sum |w| + |c| + |t_obs|)``, the least
    statistic counted as reaching ``t_obs``. With z in {0, 1} the products
    ``w @ z`` are exact and each rounding errs by at most ``eps / 2 * (sum |w|
    + |c|)``, so after at most ``steps - 1`` roundings per term, statistics
    equal in exact arithmetic stay above it. Extra near-ties only raise p."""
    eps = np.finfo(float).eps
    return t_obs - steps * eps * (float(np.sum(np.abs(w))) + abs(c) + abs(t_obs))


def _row_sums(v):
    """Row sums of ``v`` (overwritten) in a fixed pairwise order.

    The order depends only on the row length, so a row's sum is the same
    whatever rows are summed with it. A table lookup sum gives no such
    guarantee: its table entries are BLAS products, whose kernel, and with
    it the rounding, changes with the CPU. :func:`mc_pvalue` therefore uses
    the lookups only where they provably decide a draw the way this sum
    does.
    """
    n = v.shape[1]
    while n > 1:
        half = n // 2
        v[:, :half] += v[:, n - half:n]
        n -= half
    return v[:, 0]


def _draw_bytes(gen, rows, m):
    """``rows`` draws of m independent fair coins, packed ceil(m / 8) bytes
    to a row (uint8); :func:`_coins` unpacks them.

    Each row takes ceil(m / 64) whole 64-bit words from ``gen``, so a row's
    coins do not depend on how many rows one call draws. The words are read
    as little-endian bytes, so the coins do not depend on the platform
    either. The words come from ``Generator.integers`` over the full 64-bit
    range, not from ``bit_generator.random_raw``, whose words carry only 32
    random bits under ``MT19937``.
    """
    words = gen.integers(0, 2**64, size=(rows, -(-m // 64)), dtype=np.uint64)
    return words.astype("<u8", copy=False).view(np.uint8)[:, :-(-m // 8)]


def _coins(packed, m):
    """The first m coins (0 or 1, uint8) of each row of packed bytes: coin j
    is bit j % 8 of byte j // 8, least significant first. With
    :func:`_draw_bytes`, coin j of a draw is bit j % 64 of its word j // 64.
    """
    return np.unpackbits(packed, axis=1, count=m, bitorder="little")


# Column b holds the eight coins of the byte value b.
_BYTE_COINS = np.ascontiguousarray(_coins(np.arange(256, dtype=np.uint8)[:, None], 8).T,
                                   dtype=float)


def _table_statistics(w, c, m_draws, gen):
    """Draw ``m_draws`` assignment vectors from ``gen`` (:func:`_draw_bytes`)
    and yield them chunk by chunk, as packed bytes with their statistics
    ``w @ z + c``, each chunk about ``_DRAW_ELEMENTS`` bytes.

    The statistics are read off a table of partial sums (the "four
    Russians" lookup of Arlazarov et al.): for each of the P = ceil(m / 8)
    byte positions p, ``table[256 p + b]`` is the sum of ``w[8 p + i]`` over
    the set bits i of the byte value b, a BLAS product with zero weight past
    m. A draw's statistic is the sum of the P entries its bytes index, plus
    ``c``; nothing is unpacked.
    """
    m = w.size
    n_bytes = -(-m // 8)
    w_bytes = np.zeros(8 * n_bytes)
    w_bytes[:m] = w
    table = (w_bytes.reshape(n_bytes, 8) @ _BYTE_COINS).ravel()
    offsets = np.arange(0, 256 * n_bytes, 256, dtype=np.intp)[:, None]
    rows = min(m_draws, max(1, _DRAW_ELEMENTS // n_bytes))
    # Byte positions by draws, so each lookup row reads one 256-entry block.
    # One block holds the indices and the lookups: glibc's malloc hands two
    # such blocks, freed together, back to the system, and faulting them in
    # afresh on every call took as long as the scoring.
    work = np.empty((2, n_bytes * rows))
    index, lookups = work[0].view(np.intp), work[1]
    for start in range(0, m_draws, rows):
        packed = _draw_bytes(gen, min(rows, m_draws - start), m)
        at = np.add(packed.T, offsets, out=index[:packed.size].reshape(n_bytes, -1))
        # Every index is in range: mode="clip" only keeps np.take from
        # buffering ``out``.
        t = np.take(table, at, out=lookups[:at.size].reshape(at.shape), mode="clip").sum(axis=0)
        t += c
        yield packed, t


def mc_pvalue(mu, dataset, subgroup, m_draws, gen, subgroup_id=0):
    """Monte-Carlo randomization p-value on one subgroup's inference fold,
    for the statistic of :func:`_fold_statistic` with outcome model ``mu``.

    Draws ``m_draws`` i.i.d. assignment vectors from the Bernoulli(1/2)
    design with the generator ``gen``, each assignment one random bit
    (:func:`_draw_bytes`), recomputes the statistic on each, and applies the
    add-one correction. The draws are made and scored in chunks
    (:func:`_table_statistics`), so memory does not grow with ``m_draws``,
    and they consume the stream as one ``m_draws`` x m draw would, whatever
    the chunk size. Returns the p-value as a float, ``(1 + count) / (m_draws
    + 1)``; an empty fold yields 1.0 rather than an error.

    A draw counts when its statistic, summed by :func:`_row_sums` and plus
    ``c``, reaches ``t_min`` (``_tie_floor``). Each draw is scored instead
    as the sum of P = ceil(m / 8) table entries, each a sum of up to eight
    terms, in whatever order the BLAS kernel and numpy add them, and is
    recomputed by :func:`_row_sums` only where that sum cannot decide. With
    z in {0, 1} every product ``w_j z_j`` is exact, and each term passes
    through at most 7 roundings in its table entry and P - 1 in the row sum.
    For m >= 9 that is P + 6 <= m - 1; for m <= 8 the one entry adds the
    zero pads exactly, so at most m - 1 as well. With ``u = eps / 2``, ``W =
    sum |w|`` and T the exact statistic, the pairwise sum (at most ceil(log2
    m) roundings per term, then one for ``c``) and the table sum (at most
    m - 1, then one) satisfy

        |t_pair - T| <= gamma_{L+1} (W + |c|),   L = ceil(log2 m),
        |t_tab - T| <= gamma_m (W + |c|),        gamma_k = k u / (1 - k u),

    so ``|t_tab - t_pair| <= gamma_{m+L+1} (W + |c|) <= (m + steps) eps
    (W + |c|)`` with steps = L + 2. Forming ``t_min +- slack`` rounds by at
    most ``u (|t_min| + slack)``. ``slack = 4 (m + steps + 2) eps (W + |c| +
    |t_min|)`` is about four times their sum, which also covers the rounding
    of ``W`` and of ``slack`` itself. Hence ``t_tab >= t_min + slack``
    implies ``t_pair >= t_min`` and ``t_tab <= t_min - slack`` implies
    ``t_pair < t_min``; :func:`_fold_statistic` has refused every fold on
    which these bounds are not finite. The draws in between (ties and
    near-ties, which binary and grid outcomes produce) are unpacked
    (:func:`_coins`) and summed again by :func:`_row_sums`, about
    ``_DRAW_ELEMENTS`` coins at a time. The count, and with it the p-value,
    is the pairwise count whatever the BLAS kernel.
    """
    idx = np.asarray(subgroup, dtype=int)
    if m_draws < 1:
        raise ValidationError("m_draws must be >= 1")
    if idx.size == 0:
        return 1.0
    # The observed statistic is summed exactly as each draw's is, so a draw
    # replicating the observed assignment ties exactly (ties carry real
    # probability mass on small folds).
    w, c, _, t_obs = _fold_statistic(mu, dataset, idx, subgroup_id)
    m = idx.size
    # The pairwise sum takes ceil(log2 m) rounds, then c is added.
    steps = (m - 1).bit_length() + 2
    t_min = _tie_floor(t_obs, w, c, steps)
    eps = np.finfo(float).eps
    slack = 4 * (m + steps + 2) * eps * (float(np.sum(np.abs(w))) + abs(c) + abs(t_min))
    hi, lo = t_min + slack, t_min - slack
    batch = max(1, _DRAW_ELEMENTS // m)
    count = 0
    for packed, t in _table_statistics(w, c, m_draws, gen):
        above = t >= hi
        unsure = np.flatnonzero(~(above | (t <= lo)))
        count += int(np.count_nonzero(above))
        for i in range(0, unsure.size, batch):
            t_pair = _row_sums(_coins(packed[unsure[i:i + batch]], m) * w) + c
            count += int(np.count_nonzero(t_pair >= t_min))
    return (1.0 + count) / (m_draws + 1.0)


def test_folds(mu, dataset, folds, config):
    """The testing stage every method shares.

    Computes one Monte-Carlo p-value of the residual statistic with outcome
    model ``mu`` per subgroup inference fold (``folds[k]`` for subgroup k,
    drawn from the stream ``(config.seed, PVALUE_DRAWS, k)``), in subgroup
    order, so a failing fold raises the error of the first failing
    subgroup. Then runs closed testing with Fisher's combination at level
    ``config.q``. Returns the p-values, the rejected subgroups and the
    flag ``"empty-inference-fold"`` of each empty fold, keyed by the
    subgroup index as a string.
    """
    values = tuple(mc_pvalue(mu, dataset, fold, config.mc_draws,
                             rng.stream(config.seed, rng.PVALUE_DRAWS, k), k)
                   for k, fold in enumerate(folds))
    flags = {str(k): "empty-inference-fold" for k, fold in enumerate(folds) if len(fold) == 0}
    return values, closed_testing(values, config.q), flags


def exact_pvalue(mu, dataset, subgroup):
    """Exact randomization p-value of the residual statistic with outcome
    model ``mu``, by enumerating all 2^m assignments.

    The p-value is the proportion of assignments whose statistic is at least
    the observed one, each assignment having probability 2^-m under the
    Bernoulli(1/2) design, as a float; an empty fold yields 1.0. No add-one
    correction (the reference distribution is complete). A statistic is
    ``c`` plus m terms added in sequence, so two equal in exact arithmetic
    differ by at most ``2 gamma_m (sum |w| + |c|)``, ``gamma_m = m u / (1 -
    m u)``, ``u = eps / 2``; for m <= 20 that is below the margin
    ``_tie_floor`` sets with steps = m + 1.
    """
    idx = np.asarray(subgroup, dtype=int)
    m = idx.size
    if m == 0:
        return 1.0
    if m > 20:
        raise ValidationError("subgroup too large for exact enumeration")
    w, c, z_obs, _ = _fold_statistic(mu, dataset, idx)
    codes = np.arange(1 << m, dtype=np.int64)
    t_ref = np.full(codes.size, c)
    for j in range(m):
        t_ref += np.where((codes >> j) & 1, w[j], 0.0)
    # The observed assignment is one of the enumerated codes; reading its
    # statistic off the same table makes the self-tie exact.
    obs_code = int(sum(1 << j for j in range(m) if z_obs[j] == 1.0))
    t_obs = float(t_ref[obs_code])
    hits = int(np.count_nonzero(t_ref >= _tie_floor(t_obs, w, c, m + 1)))
    return hits / float(1 << m)
