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

A loop state built once per run holds the design, ``y - mu(x)``, each
unit's neighbor vote as an integer count, and the weighted R-learner's Gram
and right-hand side as running sums. A move changes the counts only at the
mover's reverse neighbors, so the sums take the mover and the weight change
of those neighbors in the fold, O(kappa d^2); the prune pass's batch is
applied in one rebuild. At lambda = 1 the pooled fit's Gram is X'X, factored
once per run, so a step is O(kappa d^2 + d^3) plus a few O(n d) passes: two
predictions, the pooled right-hand side and the posterior. Running sums round
differently from fresh ones, so reports agree with refitting from scratch
(``tests/oracles.reference_run``) exactly in every decision (folds,
iterations, p-values, the audited reads) and to 1e-9 in the CATE
coefficients, ``nu2`` and ``l``. On a 2-core Xeon a step takes 0.17 ms at
n = 500, 0.29 ms at n = 3000 and 1.8 ms at n = 20000 (0.28, 0.72 and 5.7 ms
summing afresh).

Validity rests on a single structural property: no assignment outside the
nuisance fold is ever read before the p-value stage. Every method (``rt``,
``random_split`` and this engine) therefore routes its assignment reads
through an :class:`_AssignmentLog` and ends with :func:`finish`, which
records the units read before inference for auditing, tests the inference
folds and builds the report.
"""

import csv
import math

import numpy as np

from .data import AnalysisReport, FoldSnapshot
from .errors import ConfigError, ValidationError
from .linmodel import LinearModel, _cho_factor, _cho_solve, _design, _solve_spd, diversity_scores
from .nuisance import (
    NeighborIndex,
    NuisanceModel,
    certainty,
    fit_mu,
    noise_floor,
    posterior_e,
    scaled_residual,
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


def convergence_metric(new, old):
    """One minus the coefficient of determination of the new CATE predictions
    ``new`` against the previous ones ``old`` on the inference units.

    Zero means the update changed nothing; values near or above one mean the
    fit is still moving. Constant previous predictions give 0 when the new
    ones agree to 1e-12 and +inf otherwise.
    """
    if old.size < 2:
        raise ValidationError("need at least two inference units")
    dev = old - old.mean()
    diff = new - old
    denom = float(dev @ dev)
    if denom == 0.0:
        return 0.0 if float(np.max(np.abs(diff))) <= 1e-12 else float("inf")
    return float(diff @ diff) / denom


class _LoopState:
    """What the selection loop keeps across steps (see the module doc).

    ``mask`` is the nuisance fold, changed only through :meth:`move`. The
    weighted R-learner lives in running sums over the fold: ``g_w`` and
    ``b_w`` weight each unit's ``x x'`` and ``x r`` by its inverse selection
    probability ``w``, and ``g_i`` is the unweighted Gram (the pooled fit's).
    A unit's assignment ``z`` and scaled residual ``r`` are read once, when
    it enters the sums; ``z``, ``r`` and ``w`` are zero off them.

    The posterior's scale parameter uses the assignment-anchored residual
    ``y - mu(x) - z tau(x)`` rather than the centered one: the extra
    ``tau(x)/2`` shift inflates the scale by about a quarter of the mean
    squared CATE, which tempers the posterior and keeps the imputation from
    locking onto an overconfident fixed point early in the loop.
    """

    def __init__(self, dataset, mu_vals, mask, zlog, config):
        self.y, self.mu_vals, self.mask, self.zlog = dataset.y, mu_vals, mask, zlog
        self.xd = _design(dataset.x)
        self.resid_y = dataset.y - mu_vals
        self.floor = noise_floor(dataset.y)
        self.lam, self.ridge = config.lambda_imputed, config.ridge_lambda
        self.imputed_scale = (2.0 * self.lam) * self.resid_y
        n, m = self.xd.shape
        self.ridge_eye = self.ridge * np.eye(m)
        self.xtx = self.xd.T @ self.xd
        self.pooled_factor = None
        self.z, self.r, self.w = np.zeros(n), np.zeros(n), np.zeros(n)
        # Until the index is built every unit has selection probability one:
        # the seed fold depends on covariates only.
        self.rev, self.counts = None, np.ones(n, dtype=np.intp)
        self.set_kappa(1)
        self.pending = []

    def set_kappa(self, kappa):
        """Take votes out of ``kappa``; ``weight[c]`` is the inverse of the
        vote ``c / kappa`` clipped below at 1/(2 kappa) (voting leave-one-out:
        self-inclusion would inflate it exactly on the fold, biasing the
        inverse weights). Every weight changes, so the next refit rebuilds
        the sums."""
        self.kappa = kappa
        self.weight = 1.0 / np.clip(np.arange(kappa + 1) / kappa,
                                    1.0 / (2.0 * kappa), 1.0)
        self.g_w = None

    def index(self, x, y, knn_k):
        """Count fold members among each unit's voters (count / kappa is its
        vote, bit for bit). With ``knn_k >= n`` every unit votes on every
        unit, so each count is |I| and no index is built; otherwise the
        voters are the leave-one-out lists, and CSR ``rev`` lists the units
        whose counts each unit enters."""
        n = self.mask.size
        if knn_k >= n:
            self.set_kappa(n)
            self.counts = np.full(n, np.count_nonzero(self.mask))
            return
        index = NeighborIndex(x, y, knn_k)
        self.set_kappa(index.kappa)
        lists = index.loo_neighbors
        self.rev = np.argsort(lists, axis=None, kind="stable") // self.kappa
        self.rev_ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(lists.ravel(), minlength=n), out=self.rev_ptr[1:])
        self.counts = np.count_nonzero(self.mask[lists], axis=1)

    def move(self, j):
        """Put unit j in the fold; the sums take it at the next refit."""
        self.mask[j] = True
        self.pending.append(j)
        if self.rev is None:
            self.counts += 1
        else:
            self.counts[self.rev[self.rev_ptr[j]:self.rev_ptr[j + 1]]] += 1

    def join(self, units):
        """Read the assignments of units entering the sums."""
        z = self.zlog.take(units)
        self.z[units] = z
        # run requires the half design, so e(x) is the scalar 1/2.
        self.r[units] = scaled_residual(self.y[units], z, self.mu_vals[units], 0.5)

    def rebuild(self):
        """Form the sums afresh over the whole fold."""
        nuis = np.flatnonzero(self.mask)
        self.join(nuis[self.w[nuis] == 0.0])
        w = self.w[nuis] = self.weight[self.counts[nuis]]
        xd_i = self.xd[nuis]
        self.g_w = xd_i.T @ (xd_i * w[:, None])
        self.b_w = xd_i.T @ (self.r[nuis] * w)
        self.g_i = xd_i.T @ xd_i

    def add(self, j):
        """Fold one move into the sums: unit j's own terms, and the weight
        change of the fold members among its reverse neighbors, the only
        units whose counts the move changed."""
        self.join([j])
        nb = self.rev[self.rev_ptr[j]:self.rev_ptr[j + 1]]
        units = np.append(nb[self.mask[nb]], j)
        w = self.weight[self.counts[units]]
        dw = w - self.w[units]
        self.w[units] = w
        xd_u = self.xd[units]
        xd_dw = xd_u * dw[:, None]
        self.g_w += xd_dw.T @ xd_u
        self.b_w += xd_dw.T @ self.r[units]
        self.g_i += np.outer(xd_u[-1], xd_u[-1])

    def refit(self):
        """Bring the sums up to date with the moves since the last refit and
        fit the weighted CATE model; returns it, the posterior and its
        scale. One move is added in place; the prune pass's batch, a new
        ``kappa`` and ``knn_k >= n`` (every count moves) rebuild."""
        if self.g_w is None or self.rev is None or len(self.pending) > 1:
            self.rebuild()
        elif self.pending:
            self.add(self.pending[0])
        self.pending.clear()
        tau_w = LinearModel(_solve_spd(self.g_w + self.ridge_eye, self.b_w, self.ridge))
        tau_vals = self.xd @ tau_w.coef
        resid = self.resid_y - self.z * tau_vals
        nu2 = max(float((resid * resid) @ self.w) / self.mask.size, self.floor)
        return tau_w, posterior_e(self.y, self.mu_vals, tau_vals, nu2), nu2

    def pooled(self, e_hat):
        """The pooled CATE fit after a refit: observed scaled residuals on
        the fold, imputed ones ``2 (y - mu) (2 e_hat - 1)`` weighted by
        lambda elsewhere. At lambda = 1 its Gram is X'X, factored once."""
        if self.lam == 1.0:
            if self.pooled_factor is None:
                self.pooled_factor = _cho_factor(self.xtx + self.ridge_eye, self.ridge)
            factor = self.pooled_factor
        else:
            gram = self.lam * self.xtx + (1.0 - self.lam) * self.g_i
            factor = _cho_factor(gram + self.ridge_eye, self.ridge)
        imputed = self.imputed_scale * (2.0 * e_hat - 1.0)
        rhs = self.xd.T @ np.where(self.mask, self.r, imputed)
        return LinearModel(_cho_solve(factor, rhs))


def run(dataset, partition, config, collect_trace=True):
    """Run the full adaptive splitting analysis and return a report.

    Deterministic: identical inputs produce identical reports. Requires the
    Bernoulli(1/2) design (the posterior model is derived under it).
    """
    if dataset.n != partition.n:
        raise ValidationError("dataset and partition sizes differ")
    if not np.all(dataset.e == 0.5):
        raise ValidationError("adaptive splitting requires the Bernoulli(1/2) design")

    x, y = dataset.x, dataset.y
    zlog = _AssignmentLog(dataset.z)

    mu = fit_mu(x, y, ridge=config.ridge_lambda)
    mask = split_init(dataset, partition, config.p_init, ridge=config.ridge_lambda)
    state = _LoopState(dataset, mu.predict(x), mask, zlog, config)
    groups = partition.groups
    s_sizes = np.array([g.size for g in groups])
    j_sizes = np.array([int((~mask[g]).sum()) for g in groups])

    # Seed refit: the seed fold depends on covariates only, so every unit
    # has selection probability one.
    tau_w, e_hat, _ = state.refit()
    tau_prev_vals = state.xd @ tau_w.coef

    state.index(x, y, config.knn_k)
    labels = partition.labels()
    # Candidates: held-out units of subgroups that can still donate one.
    avail = ~mask & ((j_sizes - 1) >= config.rho * s_sizes)[labels]
    held = np.flatnonzero(~mask)

    l_hist = []
    trace = []
    converged = False
    t = 0
    while True:
        crit = np.where(avail, selection_criterion(tau_prev_vals, e_hat), np.inf)
        j_star = int(np.argmin(crit))   # the first minimum: lowest index
        if not avail[j_star]:
            stop_reason = "floor"
            break
        k_star = int(labels[j_star])
        state.move(j_star)
        avail[j_star] = False
        held = held[held != j_star]
        j_sizes[k_star] -= 1
        if (j_sizes[k_star] - 1) < config.rho * s_sizes[k_star]:
            avail[groups[k_star]] = False
        t += 1

        _, e_hat, _ = state.refit()
        tau_new = state.pooled(e_hat)
        tau_new_vals = state.xd @ tau_new.coef
        if held.size >= 2:
            l_t = convergence_metric(tau_new_vals[held], tau_prev_vals[held])
        else:
            l_t = float("inf")
        l_hist.append(l_t)
        tau_prev_vals = tau_new_vals
        if collect_trace:
            trace.append({
                "t": t, "unit": j_star, "subgroup": k_star,
                "criterion": float(crit[j_star]), "l": l_t,
                "proportions": [float(v) for v in j_sizes / s_sizes],
            })
        converged = (
            len(l_hist) > config.n0 and max(l_hist[-config.n0:]) <= config.eps_l
        )
        if converged:
            stop_reason = "converged"
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
            state.move(j)
            j_sizes[k] -= 1

    _, e_hat, nu2 = state.refit()
    tau_final = state.pooled(e_hat)
    stat = TestStatisticSpec(
        kind=STAT_AIPW, nuisances=NuisanceModel(mu=mu, tau=tau_final),
    )
    diagnostics = {"l": l_hist, "converged": converged,
                   "stop_reason": stop_reason, "nu2": nu2}
    if collect_trace:
        diagnostics["trace"] = trace
    return finish("adasplit", dataset, partition, config, zlog, stat, mask=mask,
                  iterations=t, coef=tau_final.coef, diagnostics=diagnostics)


def finish(method, dataset, partition, config, zlog, stat, mask=None,
           iterations=0, coef=None, diagnostics=None):
    """The stage every method ends with: record the assignments ``zlog``
    has handed out, test each subgroup's inference fold (the units off the
    nuisance ``mask``, or the whole subgroup when there is no mask) with
    :func:`test_folds`, and build the report. ``diagnostics`` gains
    ``z_reads_before_pvalues`` and ``pvalue_flags``."""
    diagnostics = dict(diagnostics or {})
    diagnostics["z_reads_before_pvalues"] = [int(i) for i in zlog.reads()]
    groups = partition.groups
    folds = groups if mask is None else [g[~mask[g]] for g in groups]
    pvalues, rejected, diagnostics["pvalue_flags"] = test_folds(
        stat, dataset, folds, config)
    return AnalysisReport(
        pvalues=pvalues,
        rejected=rejected,
        folds=None if mask is None else FoldSnapshot.from_mask(partition, mask),
        iterations=iterations,
        cate_coefficients=None if coef is None else tuple(float(c) for c in coef),
        diagnostics=diagnostics,
        method=method,
        config=config,
    )


def write_trace_csv(report, path):
    """Write the per-iteration trace of a report to CSV
    (columns: t, unit, subgroup, criterion, l, pi_1..pi_K)."""
    trace = report.diagnostics.get("trace")
    if trace is None:
        raise ValidationError("report carries no trace")
    k = len(report.pvalues)
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
