"""Independent brute-force reference implementations used only by tests.

Nothing here imports the production package: every oracle recomputes its
answer from first principles (exhaustive enumeration, generic numerical
minimization, dense linear algebra via a different factorization), so
agreement with the library is meaningful evidence rather than tautology.
"""

import csv
import itertools
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import chdtrc


def dm_statistic(y, z):
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    return 2.0 / y.size * (np.sum(y[z == 1.0]) - np.sum(y[z == 0.0]))


def aipw_statistic(y, z, mu_vals, tau_vals):
    """The AIPW statistic under the Bernoulli(1/2) design: the mean of
    ``z/e (y - mu_1) - (1-z)/(1-e) (y - mu_0) + tau`` at e = 1/2."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    e = 0.5
    mu1 = mu_vals + (1.0 - e) * tau_vals
    mu0 = mu_vals - e * tau_vals
    phi = z / e * (y - mu1) - (1.0 - z) / (1.0 - e) * (y - mu0) + tau_vals
    return float(np.mean(phi))


def enumerate_pvalue(stat_fn, z_obs):
    """Exact randomization p-value under the Bernoulli(1/2) design: the share
    of all 2^m assignment vectors whose statistic reaches the observed one.
    ``stat_fn`` maps an assignment vector to the statistic."""
    z_obs = np.asarray(z_obs, dtype=float)
    t_obs = stat_fn(z_obs)
    hits = sum(stat_fn(np.array(bits)) >= t_obs
               for bits in itertools.product((0.0, 1.0), repeat=z_obs.size))
    return hits / float(2**z_obs.size)


def integer_pvalue(scores, z_obs, draws=None):
    """Randomization p-value of a statistic ``a * (scores @ z) + b`` with
    a > 0 and integer ``scores``, computed in integer arithmetic, so every
    tie is exact. With ``draws=None``: the share of all 2^m assignments whose
    score sum reaches the observed one (the half design). Otherwise: the
    add-one Monte-Carlo p-value over the rows of the 0/1 matrix ``draws``."""
    scores = [int(s) for s in scores]
    t_obs = sum(s for s, z in zip(scores, z_obs) if z == 1.0)
    if draws is None:
        hits = sum(
            sum(s for s, b in zip(scores, bits) if b) >= t_obs
            for bits in itertools.product((0, 1), repeat=len(scores))
        )
        return hits / float(2 ** len(scores))
    sums = np.asarray(draws, dtype=np.int64) @ np.asarray(scores, dtype=np.int64)
    return (1.0 + int(np.count_nonzero(sums >= t_obs))) / (len(sums) + 1.0)


def fair_coins_reference(gen, rows, m):
    """A rows x m matrix of fair coins (0.0 or 1.0): each row takes ceil(m /
    64) whole 64-bit words from ``gen``, in order, and unit j of a row is
    bit j % 64 of its word j // 64, counted from the least significant, read
    off with integer shifts."""
    words = gen.integers(0, 2**64, size=(rows, -(-m // 64)), dtype=np.uint64)
    bits = (words[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return bits.reshape(rows, -1)[:, :m].astype(float)


def mc_pvalue_reference(w, c, z_obs, m_draws, gen):
    """The Monte-Carlo p-value of the statistic ``w @ z + c``, drawn and
    summed as the package did before its matrix-vector product: draws from
    ``gen`` in row chunks of about 2^16 doubles, each row summed in a fixed
    pairwise order, and a draw counted when its statistic reaches the tie
    floor ``t_obs - steps * eps * (sum |w| + |c| + |t_obs|)``, steps =
    ceil(log2 m) + 2. The draws are :func:`fair_coins_reference`, which
    do not depend on the chunking. Returns ``(p-value, observed
    statistic)``."""
    w = np.asarray(w, dtype=float)
    m = w.size

    def row_sums(v):
        n = v.shape[1]
        while n > 1:
            half = n // 2
            v[:, :half] += v[:, n - half:n]
            n -= half
        return v[:, 0]

    t_obs = float(row_sums(np.asarray(z_obs, dtype=float)[None, :] * w)[0]) + c
    steps = (m - 1).bit_length() + 2
    eps = np.finfo(float).eps
    t_min = t_obs - steps * eps * (float(np.sum(np.abs(w))) + abs(c) + abs(t_obs))
    rows = max(1, (1 << 16) // m)
    count = 0
    for start in range(0, m_draws, rows):
        draws = fair_coins_reference(gen, min(rows, m_draws - start), m)
        draws *= w
        count += int(np.count_nonzero(row_sums(draws) + c >= t_min))
    return (1.0 + count) / (m_draws + 1.0), t_obs


def write_csv_reference(path, x, y, z, labels=None):
    """A trial CSV written one row at a time: header ``x1..xd,y,z`` plus
    ``subgroup`` with labels, each covariate and outcome as ``repr`` of the
    float, the assignment and label as integers."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    header = [f"x{i + 1}" for i in range(x.shape[1])] + ["y", "z"]
    if labels is not None:
        header.append("subgroup")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(x.shape[0]):
            row = [repr(float(v)) for v in x[i]]
            row.append(repr(float(y[i])))
            row.append(str(int(z[i])))
            if labels is not None:
                row.append(str(int(labels[i])))
            writer.writerow(row)


def read_csv_reference(path, label_column="subgroup"):
    """A trial CSV read record by record with ``csv.reader``, each cell
    through ``float`` (covariates, ``y``, ``z``) or ``int`` (labels), retried
    on its ``str.strip`` text. Returns ``(x, y, z, labels)``, ``labels`` None
    without a label column. Rows of blank cells are skipped but counted; a
    bad row raises ``ValueError`` with the message of the package's reader
    (row numbers from 1 after the header; cells checked covariates first,
    then ``y``, ``z`` and the label)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, *records = csv.reader(fh)
    header = [h.strip() for h in header]
    d = sum(1 for h in header if h[:1] == "x" and h[1:].isdigit())
    fields = [(f"x{i + 1}", float) for i in range(d)] + [("y", float), ("z", float)]
    if label_column in header:
        fields.append((label_column, int))
    rows = []
    for r, record in enumerate(records, start=1):
        if not "".join(record).strip():
            continue
        if len(record) != len(header):
            raise ValueError(f"row {r}: expected {len(header)} cells, got {len(record)}")
        row = []
        for name, kind in fields:
            raw = record[header.index(name)]
            text = raw.strip()
            try:
                value = kind(raw)
            except ValueError:
                try:
                    value = kind(text)
                except ValueError:
                    raise ValueError(
                        f"row {r}, column {name}: could not parse {text!r}") from None
            if kind is int and not -2**63 <= value < 2**63:
                raise ValueError(
                    f"row {r}, column {name}: label {text!r} is outside the 64-bit range")
            if not math.isfinite(value):
                raise ValueError(f"row {r}, column {name}: non-finite value {text!r}")
            if name == "z" and value not in (0.0, 1.0):
                raise ValueError(f"row {r}, column z: assignment {text!r} is not 0 or 1")
            row.append(value)
        rows.append(row)
    values = np.array([row[:d + 2] for row in rows], dtype=float).reshape(-1, d + 2)
    labels = None
    if len(fields) > d + 2:
        labels = np.array([row[d + 2] for row in rows], dtype=np.int64)
    return values[:, :d], values[:, d], values[:, d + 1], labels


def wls_solve(x, y, w=None, ridge=0.0):
    """Weighted ridge least squares through an augmented QR solve
    (``numpy.linalg.lstsq``), intercept column first."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    xd = np.hstack([np.ones((x.shape[0], 1)), x])
    if w is not None:
        sw = np.sqrt(np.asarray(w, dtype=float))
        xd = xd * sw[:, None]
        y = y * sw
    if ridge > 0.0:
        p = xd.shape[1]
        xd = np.vstack([xd, np.sqrt(ridge) * np.eye(p)])
        y = np.concatenate([y, np.zeros(p)])
    coef, *_ = np.linalg.lstsq(xd, y, rcond=None)
    return coef


def pooled_imputation_loss(beta, x, y, z, mask, mu_vals, e_hat, lam):
    """The pooled objective under the Bernoulli(1/2) design: squared
    outcome-model error with observed assignments on the selected fold plus
    the assignment-marginalized squared error, weighted by lam, on the
    rest."""
    beta = np.asarray(beta, dtype=float)
    xd = np.hstack([np.ones((x.shape[0], 1)), x])
    tau = xd @ beta
    i = np.asarray(mask, dtype=bool)
    j = ~i
    full = np.sum((y[i] - mu_vals[i] - (z[i] - 0.5) * tau[i]) ** 2)
    imp1 = e_hat[j] * (y[j] - mu_vals[j] - 0.5 * tau[j]) ** 2
    imp0 = (1.0 - e_hat[j]) * (y[j] - mu_vals[j] + 0.5 * tau[j]) ** 2
    return float(full + lam * np.sum(imp1 + imp0))


def bar_learner_reference(x, y, mask, z_nuis, mu_vals, e_hat, lam, ridge):
    """The pooled CATE fit under the Bernoulli(1/2) design: observed scaled
    residuals ``(y - mu) / (z - 1/2)`` on the fold ``mask``, and on the
    other units the residual with z marginalized over the posterior
    ``e_hat``, ``e_hat (y - mu) / (1/2) - (1 - e_hat) (y - mu) / (1/2)``,
    weighted by lam. Solves
    ``(X_I'X_I + lam X_J'X_J + ridge I) beta = X_I'r_I + lam X_J'r_J`` with
    ``scipy.linalg.cho_factor`` / ``cho_solve``, intercept column first.
    Returns the coefficients."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y, mu_vals = (np.asarray(a, dtype=float) for a in (y, mu_vals))
    i = np.asarray(mask, dtype=bool)
    j = ~i
    xd = np.hstack([np.ones((x.shape[0], 1)), x])
    r_i = (y[i] - mu_vals[i]) / (np.asarray(z_nuis, dtype=float) - 0.5)
    d_j = y[j] - mu_vals[j]
    r_j = e_hat[j] * d_j / 0.5 + (1.0 - e_hat[j]) * d_j / -0.5
    xd_i, xd_j = xd[i], xd[j]
    gram = xd_i.T @ xd_i + lam * (xd_j.T @ xd_j) + ridge * np.eye(xd.shape[1])
    return cho_solve(cho_factor(gram), xd_i.T @ r_i + lam * (xd_j.T @ r_j))


def minimize_bar_loss(x, y, z, mask, mu_vals, e_hat, lam, sweeps=2000):
    """Coordinate descent on :func:`pooled_imputation_loss` from a zero
    start, run until the loss change falls below 1e-12."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    p = x.shape[1] + 1
    beta = np.zeros(p)
    last = pooled_imputation_loss(beta, x, y, z, mask, mu_vals, e_hat, lam)
    xd = np.hstack([np.ones((x.shape[0], 1)), x])
    i = np.asarray(mask, dtype=bool)
    j = ~i
    # Per-term (coefficient, target, weight) triples: each term is
    # weight * (target - coeff_row @ beta)^2 with coeff_row = (z - 1/2) * xd.
    rows = [(z[i] - 0.5)[:, None] * xd[i], y[i] - mu_vals[i], np.ones(int(i.sum()))]
    rows1 = [0.5 * xd[j], y[j] - mu_vals[j], lam * e_hat[j]]
    rows0 = [-0.5 * xd[j], y[j] - mu_vals[j], lam * (1.0 - e_hat[j])]
    a = np.vstack([rows[0], rows1[0], rows0[0]])
    t = np.concatenate([rows[1], rows1[1], rows0[1]])
    w = np.concatenate([rows[2], rows1[2], rows0[2]])
    for _ in range(sweeps):
        for c in range(p):
            resid = t - a @ beta + a[:, c] * beta[c]
            denom = np.sum(w * a[:, c] ** 2)
            if denom > 0.0:
                beta[c] = np.sum(w * a[:, c] * resid) / denom
        loss = pooled_imputation_loss(beta, x, y, z, mask, mu_vals, e_hat, lam)
        if abs(last - loss) < 1e-12:
            break
        last = loss
    return beta


def knn_lists(x, y, kappa):
    """Neighbor lists from the full n x n squared-distance matrix over
    standardized (x, y): each row's stable argsort, so ties go to the lower
    index. Returns ``(neighbors, loo_neighbors)``; the leave-one-out lists
    drop the row's own unit and are None when kappa = n.

    Squared distances are ``|c_i|^2 + |c_j|^2 - 2 <c_i, c_j>`` with every
    inner product summed one coordinate at a time, in order, so each entry
    is a fixed sequence of rounded operations: it depends neither on the
    BLAS kernel nor on the shape of the matrix it is computed in.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = x.shape[0]
    coords = np.hstack([x, y[:, None]])
    scale = coords.std(axis=0)
    scale[scale == 0.0] = 1.0
    cols = (coords / scale).T
    sq = sum(c * c for c in cols)
    gram = sum(np.outer(c, c) for c in cols)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    order = np.argsort(d2, axis=1, kind="stable")
    neighbors = order[:, :kappa]
    if kappa == n:
        return neighbors, None
    keep = order != np.arange(n)[:, None]
    return neighbors, order[keep].reshape(n, n - 1)[:, :kappa]


def knn_rows(x, y, kappa, rows):
    """The leave-one-out lists of :func:`knn_lists` for the given rows only:
    each row's full distance row by the same formula, a stable argsort, and
    the row's own unit dropped. Costs O(len(rows) * n), so it checks single
    rows of inputs too large for the full matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    rows = np.asarray(rows)
    coords = np.hstack([x, y[:, None]])
    scale = coords.std(axis=0)
    scale[scale == 0.0] = 1.0
    cols = (coords / scale).T
    sq = sum(c * c for c in cols)
    gram = sum(np.outer(c[rows], c) for c in cols)
    d2 = sq[rows, None] + sq[None, :] - 2.0 * gram
    order = np.argsort(d2, axis=1, kind="stable")
    keep = order != rows[:, None]
    return order[keep].reshape(rows.size, x.shape[0] - 1)[:, :kappa]


def closed_testing_bruteforce(pvals, q):
    """Closed testing with Fisher's combination by enumerating all 2^K - 1
    subsets as bitmasks: hypothesis k is rejected iff every subset
    containing it has a combined p-value ``P(chi2_{2|S|} >= -2 sum log p)``
    at most q. A subset none of whose members is still a candidate for
    rejection is skipped, which changes no answer. The tail is
    ``scipy.special.chdtrc``, the function ``scipy.stats.chi2.sf``
    evaluates, at a thirtieth of the cost of the scalar distribution call.
    Returns the rejected 0-based indices as a tuple of ints."""
    p = np.asarray(pvals, dtype=float).ravel()
    k = p.size
    alive = np.ones(k, dtype=bool)
    for mask in range(1, 1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        if not any(alive[i] for i in members):
            continue
        stat = -2.0 * float(np.sum(np.log(p[members])))
        if float(chdtrc(2 * len(members), stat)) > q:
            alive[members] = False
    return tuple(int(i) for i in np.flatnonzero(alive))



# Reference selection loop ------------------------------------------------------
#
# The engine loop as it stood before the per-run loop state: every step
# refits from scratch, rebuilding the intercept design, and votes as the
# mean of the fold indicator over each unit's leave-one-out lists from
# ``knn_lists`` (over all units when kappa >= n). The engine keeps running
# sums instead, so its reports must match these exactly in every decision
# and to 1e-9 in the fitted numbers (``test_engine.assert_matches_reference``).
# The pooled fit is ``bar_learner_reference``; the weighted fit, the outcome
# model and the testing stage are the package's public functions, which the
# caller passes in as ``pkg``, so nothing here imports the package.


def reference_convergence_metric(pkg, tau_new, tau_old, x_j):
    x_j = np.atleast_2d(np.asarray(x_j, dtype=float))
    if x_j.shape[0] < 2:
        raise pkg.errors.ValidationError("need at least two inference units")
    new = tau_new.predict(x_j)
    old = tau_old.predict(x_j)
    denom = float(np.sum((old - old.mean()) ** 2))
    if denom == 0.0:
        return 0.0 if float(np.max(np.abs(new - old))) <= 1e-12 else float("inf")
    return float(np.sum((new - old) ** 2)) / denom


def _reference_refit(pkg, x, y, mask, p_all, zlog, mu_vals, floor, ridge):
    nuis_idx = np.flatnonzero(mask)
    z_i = zlog.take(nuis_idx)
    p_i = p_all[nuis_idx]
    r_i = pkg.nuisance.scaled_residual(y[nuis_idx], z_i, mu_vals[nuis_idx])
    tau_w = pkg.linmodel.fit_wls(x[nuis_idx], r_i, w=1.0 / p_i, ridge=ridge)
    resid = y[nuis_idx] - mu_vals[nuis_idx] - z_i * tau_w.predict(x[nuis_idx])
    nu2 = max(float(np.sum(resid**2 / p_i)) / x.shape[0], floor)
    e_hat = pkg.nuisance.posterior_e(y, mu_vals, tau_w.predict(x), nu2)
    return z_i, tau_w, e_hat, nu2


def reference_selection_prob(lists, mask):
    """Each unit's vote, the mean of the fold indicator over its neighbor
    list, clipped to [1 / (2 kappa), 1]."""
    b = mask.astype(float)
    return np.clip(b[lists].mean(axis=1), 1.0 / (2.0 * lists.shape[1]), 1.0)


def reference_run(pkg, dataset, partition, config, collect_trace=True):
    """The engine's ``run`` with a full refit at every step; ``pkg`` is
    the package."""
    nuisance = pkg.nuisance
    if dataset.n != partition.n:
        raise pkg.errors.ValidationError("dataset and partition sizes differ")

    x, y = dataset.x, dataset.y
    n = dataset.n
    zlog = pkg.engine._AssignmentLog(dataset.z)
    lam = 1.0   # the pooled fit weighs imputed residuals as observed ones
    ridge = config.ridge_lambda
    floor = nuisance.noise_floor(y)

    mu = nuisance.fit_mu(x, y, ridge=ridge)
    mu_vals = mu.predict(x)

    mask = pkg.engine.split_init(dataset, partition, config.p_init, ridge=ridge)
    groups = partition.groups
    s_sizes = np.array([g.size for g in groups])
    j_sizes = np.array([int((~mask[g]).sum()) for g in groups])

    _, tau_prev, e_hat, _ = _reference_refit(
        pkg, x, y, mask, np.ones(n), zlog, mu_vals, floor, ridge,
    )
    tau_prev_vals = tau_prev.predict(x)

    neighbors, loo_neighbors = knn_lists(x, y, min(config.knn_k, n))
    lists = neighbors if loo_neighbors is None else loo_neighbors
    labels = partition.labels()

    l_hist = []
    trace = []
    converged = False
    t = 0
    while True:
        eligible = (j_sizes - 1) / s_sizes >= config.rho
        cand = np.flatnonzero(~mask & eligible[labels])
        if cand.size == 0:
            break
        crit = pkg.engine.selection_criterion(tau_prev_vals[cand], e_hat[cand])
        pick = np.lexsort((cand, crit))[0]
        j_star = int(cand[pick])
        k_star = int(labels[j_star])
        mask[j_star] = True
        j_sizes[k_star] -= 1
        t += 1

        z_i, _, e_hat, _ = _reference_refit(
            pkg, x, y, mask, reference_selection_prob(lists, mask), zlog,
            mu_vals, floor, ridge,
        )
        tau_new = pkg.linmodel.LinearModel(
            bar_learner_reference(x, y, mask, z_i, mu_vals, e_hat, lam, ridge))
        x_j = x[~mask]
        if x_j.shape[0] >= 2:
            l_t = reference_convergence_metric(pkg, tau_new, tau_prev, x_j)
        else:
            l_t = float("inf")
        l_hist.append(l_t)
        tau_prev = tau_new
        tau_prev_vals = tau_prev.predict(x)
        if collect_trace:
            trace.append({
                "t": t, "unit": j_star, "subgroup": k_star,
                "criterion": float(crit[pick]), "l": l_t,
                "proportions": [float(v) for v in j_sizes / s_sizes],
            })
        converged = (
            len(l_hist) > config.n0 and max(l_hist[-config.n0:]) <= config.eps_l
        )
        if converged:
            break

    for k, g in enumerate(groups):
        j_units = g[~mask[g]]
        order = j_units[np.lexsort((j_units, tau_prev_vals[j_units]))]
        for j in order:
            if tau_prev_vals[j] >= 0.0:
                break
            if (j_sizes[k] - 1) / s_sizes[k] < config.rho:
                break
            mask[j] = True
            j_sizes[k] -= 1

    z_i, _, e_hat, nu2 = _reference_refit(
        pkg, x, y, mask, reference_selection_prob(lists, mask), zlog,
        mu_vals, floor, ridge,
    )
    tau_final = pkg.linmodel.LinearModel(
        bar_learner_reference(x, y, mask, z_i, mu_vals, e_hat, lam, ridge))

    diagnostics = {"l": l_hist, "converged": converged, "nu2": nu2}
    if collect_trace:
        diagnostics["trace"] = trace
    return pkg.engine.finish(
        pkg.simlab.METHOD_ADASPLIT, dataset, partition, config, zlog, mu,
        mask=mask, iterations=t, coef=tau_final.coef, diagnostics=diagnostics,
    )
