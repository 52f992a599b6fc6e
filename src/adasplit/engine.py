"""The adaptive sample-splitting engine.

Starting from a small deterministic nuisance fold, the loop repeatedly moves
the unit whose selection score ``sign(tau_hat(x)) * |2 e_hat(x, y) - 1|`` is
smallest into the nuisance fold (first exhausting units with negative
estimated CATEs, then the least predictable ones), refits the nuisance
estimators, and stops once the CATE predictions have stabilized or no
subgroup can donate without dropping below its floor (:func:`inference_floor`,
which the seed split must respect too). A final pruning pass evicts
negative-CATE units from the inference folds (never crossing the floor), and
only then are the held-out assignments read to compute one Monte-Carlo
randomization p-value per subgroup, of the difference in means of
``y - mu(x)``: the CATE acts on the test through the folds alone.

A loop state built once per run holds the subgroup bookkeeping (held-out
counts, floors and the units blocked from moving), the design,
``y - mu(x)``, each unit's neighbor vote as an integer count, and the
weighted R-learner's Gram and right-hand side as running sums. The reverse
neighbor lists (the units whose counts each unit enters) are the stable
argsort of the neighbor lists, built by radix passes over 16-bit digits.
Loop and prune moves go through one :meth:`_LoopState.move`: a loop step
moves one unit, the prune pass one batch per subgroup. A move changes the
counts only at the movers' reverse neighbors, so the sums take a single
mover and the weight change of those neighbors in the fold, O(kappa d^2);
the prune pass's batches are applied in one rebuild. The pooled fit's
Gram is X'X, factored once per run, so a step is O(kappa d^2 + d^3) plus a
few O(n d) passes: two predictions, the pooled right-hand side and the
posterior. Running sums round differently from fresh ones, so reports
agree with refitting from scratch (``tests/oracles.reference_run``)
exactly in every decision (folds, iterations, p-values, the audited reads)
and to 1e-9 in the CATE coefficients, ``nu2`` and ``l``. The solves
return bare coefficient arrays, and the posterior, selection key and pooled
right-hand side are computed in buffers the loop state owns, so at small n
a step makes about 38 Python-level calls, whose overhead, not arithmetic,
is most of its cost. On a 2-core Xeon a run takes about 0.1 ms per step at
n = 500, and floor runs 0.15-0.2 ms at n = 3000 and 0.3-0.35 ms at
n = 8000 (whole-run time over steps, median of 10, 3 and 1 seeds).

Validity rests on a single structural property: no assignment outside the
nuisance fold is ever read before the p-value stage. Every method (``rt``,
``random_split`` and this engine) therefore routes its assignment reads
through an :class:`_AssignmentLog` and ends with :func:`finish`, which
records the units read before inference for auditing, tests the inference
folds and builds the report.
"""

import csv

import numpy as np

from .data import AnalysisReport, FoldSnapshot, _cut_rank
from .errors import ConfigError, ValidationError
from .linmodel import _cho_factor, _cho_solve, _design, _solve_spd, diversity_scores
from .nuisance import NeighborIndex, certainty, fit_mu, noise_floor, posterior_e
from .randtest import test_folds


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

    def take_one(self, j):
        """:meth:`take` for the single unit ``j``, returning a scalar."""
        self._read[j] = True
        z = self._z[j]
        if z != z:   # NaN marks a masked assignment
            raise ValidationError("masked assignment read in the nuisance fold")
        return z

    def reads(self):
        return np.flatnonzero(self._read)


def inference_floor(size, rho):
    """The fewest units a subgroup of ``size`` may keep to test: the
    smallest count j with j / size >= rho, the rule of quantile cuts."""
    return _cut_rank(rho, size)


def split_init(dataset, partition, p_init, ridge=0.0):
    """Deterministic initial split: from each subgroup, the smallest count m
    with m / size >= p_init (the rule of quantile cuts) of units with the
    largest diversity scores seed the nuisance fold (score ties break toward
    the lower unit index). Returns the boolean nuisance mask.

    The seed fold must hold at least d + 1 units, the smallest fold the
    residual regression can fit, and must leave every subgroup at least one
    unit to test; either failure is a configuration error.
    """
    if not 0.0 < p_init < 1.0:
        raise ValidationError("p_init must lie in (0, 1)")
    scores = diversity_scores(dataset.x, ridge=ridge)
    mask = np.zeros(dataset.n, dtype=bool)
    for k, g in enumerate(partition.groups):
        m = _cut_rank(p_init, g.size)
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


def selection_criterion(tau_vals, e_hat_vals, out=None):
    """Selection score ``sign(tau_hat) * certainty(e_hat)`` (sign(0) = 0),
    written to ``out`` when given.

    Minimizing it prefers negative estimated CATEs first, then low-certainty
    units among the positive ones.
    """
    return np.multiply(np.sign(tau_vals), certainty(e_hat_vals, out=out), out=out)


def convergence_metric(new, old):
    """One minus the coefficient of determination of the new CATE predictions
    ``new`` against the previous ones ``old`` on the inference units.

    Zero means the update changed nothing; values near or above one mean the
    fit is still moving. Constant previous predictions give 0 when the new
    ones agree to 1e-12 and +inf otherwise.
    """
    if old.size < 2:
        raise ValidationError("need at least two inference units")
    dev = old - np.add.reduce(old) / old.size   # old.mean(), bit for bit
    diff = new - old
    denom = float(dev @ dev)
    if denom == 0.0:
        return 0.0 if float(np.max(np.abs(diff))) <= 1e-12 else float("inf")
    return float(diff @ diff) / denom


class _LoopState:
    """What the selection loop keeps across steps (see the module doc).

    ``mask`` is the nuisance fold, changed only through :meth:`move`, which
    also keeps each subgroup's held-out count ``j_sizes`` (of ``s_sizes``
    units) and ``blocked``: the fold, plus every unit of a subgroup at its
    ``floor`` (:func:`inference_floor`). The loop picks only unblocked units
    and :meth:`prune` stops each subgroup at its floor.

    The weighted R-learner lives in running sums over the fold: ``g_w`` and
    ``b_w`` weight each unit's ``x x'`` and ``x r`` by its inverse selection
    probability ``w``. The pooled fit needs no sums: its Gram is X'X,
    factored once in ``pooled_factor``. A unit's assignment ``z`` and scaled
    residual ``r`` are read once, when it enters the sums; ``z``, ``r`` and
    ``w`` are zero off them. The posterior, selection key and pooled fit's
    terms are computed in buffers.

    The posterior's scale parameter uses the assignment-anchored residual
    ``y - mu(x) - z tau(x)`` rather than the centered one: the extra
    ``tau(x)/2`` shift inflates the scale by about a quarter of the mean
    squared CATE, which tempers the posterior and keeps the imputation from
    locking onto an overconfident fixed point early in the loop.
    """

    def __init__(self, dataset, partition, mu_vals, mask, zlog, config):
        self.y, self.mu_vals, self.mask, self.zlog = dataset.y, mu_vals, mask, zlog
        self.groups, self.labels = partition.groups, partition.labels()
        self.s_sizes = np.array([g.size for g in self.groups])
        self.j_sizes = np.array([int((~mask[g]).sum()) for g in self.groups])
        self.floor = np.array([inference_floor(s, config.rho) for s in self.s_sizes])
        # Blocked: all but the held-out units of subgroups that can still donate one.
        self.blocked = mask | (self.j_sizes <= self.floor)[self.labels]
        self.xd = _design(dataset.x)
        self.resid_y = dataset.y - mu_vals
        self.nu2_floor = noise_floor(dataset.y)
        self.imputed_scale = 2.0 * self.resid_y
        n, m = self.xd.shape
        self.ridge_eye = config.ridge_lambda * np.eye(m)
        self.pooled_factor = _cho_factor(self.xd.T @ self.xd + self.ridge_eye)
        self.z, self.r, self.w = np.zeros(n), np.zeros(n), np.zeros(n)
        self.e_hat, self.key, self.terms = np.empty(n), np.empty(n), np.empty(n)
        self.units = np.empty(n, dtype=np.intp)
        # Until the index is built every unit has selection probability one:
        # the seed fold depends on covariates only.
        self.rev, self.counts = None, np.ones(n, dtype=np.intp)
        self.set_kappa(1)
        self.moves, self.last = 0, None

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
        # The stable argsort of the flat lists, by least-significant-digit
        # radix passes over 16-bit digits: numpy radix-sorts 16-bit keys.
        flat = lists.ravel()
        perm = np.argsort(flat.astype(np.uint16), kind="stable")
        if n > 1 << 16:
            perm = perm[np.argsort((flat[perm] >> 16).astype(np.uint16), kind="stable")]
        self.rev = perm // self.kappa
        self.rev_ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(flat, minlength=n), out=self.rev_ptr[1:])
        self.counts = np.count_nonzero(self.mask[lists], axis=1)

    def move(self, j, k=None):
        """Put unit j in the fold or, given its subgroup ``k``, the nonempty
        array j of held-out units of subgroup k, blocking the whole subgroup
        once it reaches its floor. The sums take one unit at the next refit
        and rebuild over a batch."""
        self.mask[j] = self.blocked[j] = True
        if k is None:
            k, size, self.last = self.labels[j], 1, j
        else:
            size, self.last = j.size, j[-1]
        self.j_sizes[k] -= size
        if self.j_sizes[k] == self.floor[k]:
            self.blocked[self.groups[k]] = True
        self.moves += size
        if self.rev is None:
            self.counts += size
        elif size == 1:
            u = self.last
            self.counts[self.rev[self.rev_ptr[u]:self.rev_ptr[u + 1]]] += 1
        else:
            # The batch's reverse-list segments, gathered in one index array.
            lo = self.rev_ptr[j]
            lens = self.rev_ptr[j + 1] - lo
            ends = np.cumsum(lens)
            pos = np.arange(ends[-1]) + np.repeat(lo - ends + lens, lens)
            self.counts += np.bincount(self.rev[pos], minlength=self.counts.size)

    def prune(self, tau_vals):
        """Evict negative-CATE units from each inference fold, most negative
        first, down to the floor at most, one batch per subgroup."""
        for k, g in enumerate(self.groups):
            j_units = g[~self.mask[g]]
            order = j_units[np.lexsort((j_units, tau_vals[j_units]))]
            evict = order[tau_vals[order] < 0.0][:self.j_sizes[k] - self.floor[k]]
            if evict.size:
                self.move(evict, k)

    def rebuild(self):
        """Form the sums afresh over the whole fold, reading the assignments
        of the units entering them."""
        nuis = np.flatnonzero(self.mask)
        units = nuis[self.w[nuis] == 0.0]
        z = self.z[units] = self.zlog.take(units)
        self.r[units] = self.resid_y[units] / (z - 0.5)
        w = self.w[nuis] = self.weight[self.counts[nuis]]
        xd_i = self.xd[nuis]
        self.g_w = xd_i.T @ (xd_i * w[:, None])
        self.b_w = xd_i.T @ (self.r[nuis] * w)

    def add(self, j):
        """Fold one move into the sums: unit j's own terms, and the weight
        change of the fold members among its reverse neighbors, the only
        units whose counts the move changed."""
        z = self.z[j] = self.zlog.take_one(j)
        self.r[j] = self.resid_y[j] / (z - 0.5)
        nb = self.rev[self.rev_ptr[j]:self.rev_ptr[j + 1]]
        inside = nb[self.mask[nb]]
        units = self.units[:inside.size + 1]
        units[:-1] = inside
        units[-1] = j
        w = self.weight[self.counts[units]]
        dw = w - self.w[units]
        self.w[units] = w
        xd_u = self.xd[units]
        xd_dw = xd_u * dw[:, None]
        self.g_w += xd_dw.T @ xd_u
        self.b_w += xd_dw.T @ self.r[units]

    def refit(self):
        """Bring the sums up to date with the moves since the last refit and
        fit the weighted CATE model; returns its coefficients, the posterior
        (the ``e_hat`` buffer) and its scale. One move is added in place; the
        prune pass's batch, a new ``kappa`` and ``knn_k >= n`` (every count
        moves) rebuild."""
        if self.g_w is None or self.rev is None or self.moves > 1:
            self.rebuild()
        elif self.moves:
            self.add(self.last)
        self.moves = 0
        coef = _solve_spd(self.g_w + self.ridge_eye, self.b_w)
        tau_vals = self.xd @ coef
        resid = self.resid_y - self.z * tau_vals
        nu2 = max(float((resid * resid) @ self.w) / self.mask.size, self.nu2_floor)
        return coef, posterior_e(self.y, self.mu_vals, tau_vals, nu2, out=self.e_hat), nu2

    def pooled(self, e_hat):
        """The pooled CATE fit's coefficients after a refit: observed scaled
        residuals on the fold, imputed ones ``2 (y - mu) (2 e_hat - 1)``
        elsewhere. Every unit enters once, so its Gram is X'X, factored when
        the state is built."""
        terms = np.multiply(2.0, e_hat, out=self.terms)
        terms -= 1.0
        terms *= self.imputed_scale
        np.putmask(terms, self.mask, self.r)
        return _cho_solve(self.pooled_factor, self.xd.T @ terms)


def run(dataset, partition, config, collect_trace=True):
    """Run the full adaptive splitting analysis and return a report.

    Deterministic: identical inputs produce identical reports. The posterior
    model is derived under the Bernoulli(1/2) design, the package's only
    design.
    """
    if dataset.n != partition.n:
        raise ValidationError("dataset and partition sizes differ")

    x, y = dataset.x, dataset.y
    zlog = _AssignmentLog(dataset.z)

    mu = fit_mu(x, y, ridge=config.ridge_lambda)
    mask = split_init(dataset, partition, config.p_init, ridge=config.ridge_lambda)
    state = _LoopState(dataset, partition, mu.predict(x), mask, zlog, config)
    short = np.flatnonzero(state.j_sizes < state.floor)
    if short.size:
        k = short[0]
        raise ConfigError(f"p_init={config.p_init} leaves {state.j_sizes[k]} of the "
                          f"{state.s_sizes[k]} units of subgroup {k} to test, below the "
                          f"floor rho={config.rho} sets ({state.floor[k]})")

    # Seed refit: the seed fold depends on covariates only, so every unit
    # has selection probability one.
    coef, e_hat, _ = state.refit()
    tau_prev_vals = state.xd @ coef

    state.index(x, y, config.knn_k)
    held = np.flatnonzero(~mask)

    l_hist = []
    trace = []
    streak = 0   # trailing steps with l <= eps_l
    while True:
        crit = selection_criterion(tau_prev_vals, e_hat, out=state.key)
        np.putmask(crit, state.blocked, np.inf)
        j_star = int(crit.argmin())   # the first minimum: lowest index
        if state.blocked[j_star]:
            stop_reason = "floor"
            break
        state.move(j_star)
        held = held[held != j_star]

        _, e_hat, _ = state.refit()
        tau_new_vals = state.xd @ state.pooled(e_hat)
        if held.size >= 2:
            l_t = convergence_metric(tau_new_vals[held], tau_prev_vals[held])
        else:
            l_t = float("inf")
        l_hist.append(l_t)
        tau_prev_vals = tau_new_vals
        if collect_trace:
            trace.append({
                "t": len(l_hist), "unit": j_star, "subgroup": int(state.labels[j_star]),
                "criterion": float(crit[j_star]), "l": l_t,
                "proportions": [float(v) for v in state.j_sizes / state.s_sizes],
            })
        streak = streak + 1 if l_t <= config.eps_l else 0
        if len(l_hist) > config.n0 and streak >= config.n0:
            stop_reason = "converged"
            break

    state.prune(tau_prev_vals)
    _, e_hat, nu2 = state.refit()
    diagnostics = {"l": l_hist, "converged": stop_reason == "converged",
                   "stop_reason": stop_reason, "nu2": nu2}
    if collect_trace:
        diagnostics["trace"] = trace
    return finish("adasplit", dataset, partition, config, zlog, mu, mask=mask,
                  iterations=len(l_hist), coef=state.pooled(e_hat), diagnostics=diagnostics)


def finish(method, dataset, partition, config, zlog, mu, mask=None,
           iterations=0, coef=None, diagnostics=None):
    """The stage every method ends with: record the assignments ``zlog``
    has handed out, test each subgroup's inference fold (the units off the
    nuisance ``mask``, or the whole subgroup when there is no mask) with
    :func:`test_folds` on the residuals of the outcome model ``mu`` (None:
    the outcomes), and build the report. ``diagnostics`` gains
    ``z_reads_before_pvalues`` and ``pvalue_flags``."""
    diagnostics = dict(diagnostics or {})
    diagnostics["z_reads_before_pvalues"] = [int(i) for i in zlog.reads()]
    groups = partition.groups
    folds = groups if mask is None else [g[~mask[g]] for g in groups]
    pvalues, rejected, diagnostics["pvalue_flags"] = test_folds(
        mu, dataset, folds, config)
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
