"""The adaptive sample-splitting engine.

Starting from a small deterministic nuisance fold, the loop repeatedly moves
the unit whose selection score ``sign(tau_hat(x)) * |2 e_hat(x, y) - 1|`` is
smallest into the nuisance fold (first exhausting units with negative
estimated CATEs, then the least predictable ones), refits the nuisance
estimators, and stops once the CATE predictions have stabilized or no
subgroup can donate without dropping its inference share below the floor
``rho``. A final pruning pass evicts negative-CATE units from the inference
folds (never crossing the floor), and only then are the held-out assignments
read to compute one Monte-Carlo randomization p-value per subgroup.

Validity rests on a single structural property: no assignment outside the
nuisance fold is ever read before the p-value stage. The engine therefore
routes every assignment access through an :class:`_AssignmentLog`, and the
set of units read before inference is reported for auditing.
"""

import csv
import math

import numpy as np

from .data import AnalysisReport, FoldSnapshot
from .errors import ConfigError, ValidationError
from .linmodel import diversity_scores
from .nuisance import (
    NeighborIndex,
    NuisanceModel,
    certainty,
    fit_bar_learner,
    fit_mu,
    fit_rlearner_weighted,
    noise_floor,
    posterior_e,
)
from .randtest import STAT_AIPW, TestStatisticSpec, test_folds


class _AssignmentLog:
    """Gatekeeper for treatment assignments: records every unit read."""

    def __init__(self, z):
        self._z = z
        self._read = np.zeros(z.shape[0], dtype=bool)

    def take(self, idx):
        idx = np.asarray(idx, dtype=int)
        self._read[idx] = True
        vals = self._z[idx]
        if np.any(np.isnan(vals)):
            raise ValidationError("masked assignment read in the nuisance fold")
        return vals

    def reads(self):
        return np.flatnonzero(self._read)


def split_init(dataset, partition, p_init, ridge=0.0):
    """Deterministic initial split: from each subgroup, the ceil(p_init * size)
    units with the largest diversity scores seed the nuisance fold (score
    ties break toward the lower unit index). Returns the boolean nuisance mask.

    The seed fold must hold at least d + 1 units, the smallest fold the
    residual regression can fit, and must leave every subgroup at least one
    unit to test; either failure is a configuration error.
    """
    if not 0.0 < p_init < 1.0:
        raise ValidationError("p_init must lie in (0, 1)")
    scores = diversity_scores(dataset.x, ridge=ridge)
    mask = np.zeros(dataset.n, dtype=bool)
    for k, g in enumerate(partition.groups):
        m = math.ceil(p_init * g.size)
        if m >= g.size:
            raise ConfigError(
                f"p_init={p_init} seeds all {g.size} units of subgroup {k} into "
                "the nuisance fold, leaving none to test; lower p_init"
            )
        mask[g[np.lexsort((g, -scores[g]))][:m]] = True
    seed_size = int(mask.sum())
    if seed_size < dataset.d + 1:
        raise ConfigError(
            f"p_init={p_init} seeds a nuisance fold of {seed_size} units, fewer "
            f"than d + 1 = {dataset.d + 1} (n={dataset.n}, d={dataset.d}); "
            "raise p_init or use a larger sample"
        )
    return mask


def selection_criterion(tau_vals, e_hat_vals):
    """Selection score ``sign(tau_hat) * certainty(e_hat)`` (sign(0) = 0).

    Minimizing it prefers negative estimated CATEs first, then low-certainty
    units among the positive ones.
    """
    return np.sign(np.asarray(tau_vals, dtype=float)) * certainty(e_hat_vals)


def convergence_metric(tau_new, tau_old, x_j):
    """One minus the coefficient of determination of the new CATE predictions
    against the previous ones on the inference covariates.

    Zero means the update changed nothing; values near or above one mean the
    fit is still moving. Constant previous predictions give 0 when the new
    ones agree to 1e-12 and +inf otherwise.
    """
    x_j = np.atleast_2d(np.asarray(x_j, dtype=float))
    if x_j.shape[0] < 2:
        raise ValidationError("need at least two inference units")
    new = tau_new.predict(x_j)
    old = tau_old.predict(x_j)
    denom = float(np.sum((old - old.mean()) ** 2))
    if denom == 0.0:
        return 0.0 if float(np.max(np.abs(new - old))) <= 1e-12 else float("inf")
    return float(np.sum((new - old) ** 2)) / denom


def _refit(x, y, e, mask, p_all, zlog, mu_vals, floor, ridge):
    """One nuisance refit on the current nuisance fold, given every unit's
    selection probability.

    The CATE working model is the inverse-selection-weighted residual
    regression; unit probabilities make it plain least squares.

    The posterior's scale parameter uses the assignment-anchored residual
    ``y - mu(x) - z tau(x)`` rather than the centered one: the extra
    ``tau(x)/2`` shift inflates the scale by about a quarter of the mean
    squared CATE, which tempers the posterior and keeps the imputation from
    locking onto an overconfident fixed point early in the loop.

    Returns the nuisance-fold assignments, the weighted CATE fit, the
    posterior for every unit and its scale.
    """
    nuis_idx = np.flatnonzero(mask)
    z_i = zlog.take(nuis_idx)
    p_i = p_all[nuis_idx]
    tau_w = fit_rlearner_weighted(
        x[nuis_idx], y[nuis_idx], z_i, e[nuis_idx], mu_vals[nuis_idx], p_i,
        ridge=ridge,
    )
    resid = y[nuis_idx] - mu_vals[nuis_idx] - z_i * tau_w.predict(x[nuis_idx])
    nu2 = max(float(np.sum(resid**2 / p_i)) / x.shape[0], floor)
    e_hat = posterior_e(y, mu_vals, tau_w.predict(x), nu2)
    return z_i, tau_w, e_hat, nu2


def _selection_prob(neighbors, mask):
    """Leave-one-out neighbor vote on the membership indicator (the plain
    vote when kappa = n), clipped below at 1/(2 kappa). Self-inclusion would
    inflate the probability exactly where the indicator is 1, biasing the
    inverse weights."""
    vote = neighbors.vote_loo if neighbors.loo_neighbors is not None else neighbors.vote
    return np.clip(vote(mask.astype(float)), 1.0 / (2.0 * neighbors.kappa), 1.0)


def run(dataset, partition, config, collect_trace=True):
    """Run the full adaptive splitting analysis and return a report.

    Deterministic: identical inputs produce identical reports. Requires the
    Bernoulli(1/2) design (the posterior model is derived under it).
    """
    if dataset.n != partition.n:
        raise ValidationError("dataset and partition sizes differ")
    if not np.all(dataset.e == 0.5):
        raise ValidationError("adaptive splitting requires the Bernoulli(1/2) design")

    x, y, e = dataset.x, dataset.y, dataset.e
    n = dataset.n
    zlog = _AssignmentLog(dataset.z)
    lam = config.lambda_imputed
    ridge = config.ridge_lambda
    floor = noise_floor(y)

    mu = fit_mu(x, y, ridge=ridge)
    mu_vals = mu.predict(x)

    mask = split_init(dataset, partition, config.p_init, ridge=ridge)
    groups = partition.groups
    s_sizes = np.array([g.size for g in groups])
    j_sizes = np.array([int((~mask[g]).sum()) for g in groups])

    # Seed refit: the seed fold depends on covariates only, so every unit
    # has selection probability one.
    _, tau_prev, e_hat, _ = _refit(
        x, y, e, mask, np.ones(n), zlog, mu_vals, floor, ridge,
    )
    tau_prev_vals = tau_prev.predict(x)

    neighbors = NeighborIndex(x, y, min(config.knn_k, n))
    labels = partition.labels()

    l_hist = []
    trace = []
    converged = False
    t = 0
    while True:
        eligible = (j_sizes - 1) >= config.rho * s_sizes
        cand = np.flatnonzero(~mask & eligible[labels])
        if cand.size == 0:
            break
        crit = selection_criterion(tau_prev_vals[cand], e_hat[cand])
        pick = np.lexsort((cand, crit))[0]
        j_star = int(cand[pick])
        k_star = int(labels[j_star])
        mask[j_star] = True
        j_sizes[k_star] -= 1
        t += 1

        z_i, _, e_hat, _ = _refit(
            x, y, e, mask, _selection_prob(neighbors, mask), zlog, mu_vals,
            floor, ridge,
        )
        tau_new = fit_bar_learner(
            x, y, e, mask, z_i, mu_vals, e_hat, lam=lam, ridge=ridge,
        )
        x_j = x[~mask]
        if x_j.shape[0] >= 2:
            l_t = convergence_metric(tau_new, tau_prev, x_j)
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

    # Prune: evict negative-CATE units from each inference fold, most
    # negative first, stopping before the inference share would cross rho.
    for k, g in enumerate(groups):
        j_units = g[~mask[g]]
        order = j_units[np.lexsort((j_units, tau_prev_vals[j_units]))]
        for j in order:
            if tau_prev_vals[j] >= 0.0:
                break
            if (j_sizes[k] - 1) < config.rho * s_sizes[k]:
                break
            mask[j] = True
            j_sizes[k] -= 1

    z_i, _, e_hat, nu2 = _refit(
        x, y, e, mask, _selection_prob(neighbors, mask), zlog, mu_vals,
        floor, ridge,
    )
    tau_final = fit_bar_learner(
        x, y, e, mask, z_i, mu_vals, e_hat, lam=lam, ridge=ridge,
    )

    reads_before = [int(i) for i in zlog.reads()]
    stat = TestStatisticSpec(
        kind=STAT_AIPW, nuisances=NuisanceModel(mu=mu, tau=tau_final),
    )
    folds = [g[~mask[g]] for g in groups]
    pvalues, rejected, flags = test_folds(stat, dataset, folds, config)

    diagnostics = {
        "l": l_hist,
        "converged": converged,
        "nu2": nu2,
        "z_reads_before_pvalues": reads_before,
        "pvalue_flags": flags,
    }
    if collect_trace:
        diagnostics["trace"] = trace

    return AnalysisReport(
        pvalues=pvalues,
        rejected=rejected,
        folds=FoldSnapshot.from_mask(partition, mask),
        iterations=t,
        cate_coefficients=tuple(float(c) for c in tau_final.coef),
        diagnostics=diagnostics,
        method="adasplit",
        config=config,
    )


def write_trace_csv(report, path):
    """Write the per-iteration trace of a report to CSV
    (columns: t, unit, subgroup, criterion, l, pi_1..pi_K)."""
    trace = report.diagnostics.get("trace")
    if trace is None:
        raise ValidationError("report carries no trace")
    k = len(trace[0]["proportions"]) if trace else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "unit", "subgroup", "criterion", "l"]
            + [f"pi_{i + 1}" for i in range(k)]
        )
        for row in trace:
            writer.writerow(
                [row["t"], row["unit"], row["subgroup"],
                 repr(row["criterion"]), repr(row["l"])]
                + [repr(p) for p in row["proportions"]]
            )
