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
weighted R-learner's Gram and right-hand side as running sums. A vote is
read only once its unit is in the fold, so neighbor lists are taken on
demand (:meth:`_LoopState.query`), and a unit's list and count are made
before it joins. The seed fold alone is queried when the index is built; a
loop mover with no list yet is queried together with the ``_MIN_QUERY``
units the current criterion ranks next; the prune batch is queried before
it moves. The reverse neighbor lists (the queried units whose counts each
unit enters) are the stable argsort of the queried lists, by radix
passes over 16-bit digits, rebuilt after a query where a single move
first reads them; a batch move reads none. A list does not depend on
when its row is queried, the counts are exact integers and the reverse
lists keep ascending unit order, so every sum and report is the one a run
querying every row at once makes. A unit's assignment is read where it
joins the nuisance fold, by :meth:`_LoopState._join`: the seed fold's
when the state is built, every other unit's in :meth:`_LoopState.move`,
the one way into the fold for loop and prune moves alike. ``move`` also
keeps the counts and sums current: a loop step moves one unit, the prune
pass all its evictions at once. A single move changes the counts only at
the mover's reverse neighbors, so it adds one to each and the sums take
the mover and the weight change of those neighbors in the fold,
O(kappa d^2); a batch recounts every queried row and is applied to the
sums in the next refit's rebuild. The pooled fit's Gram is X'X, factored
once per run, so a step is O(kappa d^2 + d^3) plus a few O(n d) passes:
two predictions and the pooled right-hand side, products with the design,
which is kept column-major (at n = 4000 and d = 4 its products took
5.0 and 4.1 us against 10.5 and 11.3 us on a row-major copy, one thread
of a 2-core Xeon), and one posterior pass. That pass forms
``2 e_hat - 1`` once per refit on one array
(:func:`nuisance._signed_certainty`), and both the pooled right-hand side
and the next selection key read it. The fold's scaled residuals ``r`` and
the held-out units' imputed scale ``2 (y - mu)`` are each zero where the
other applies, so the right-hand side's terms are one multiply-add, and
the key takes +inf on blocked units by adding a penalty array: no step
walks a boolean mask to fill. Running sums and the column-major products
round differently from fresh row-major ones, so reports agree with
refitting from scratch (``tests/oracles.reference_run``) exactly in every
decision (folds, iterations, p-values, the audited reads) and to 1e-9 in
the CATE coefficients, ``nu2`` and ``l``. The solves return bare arrays
and each step forms its posterior, selection key and pooled right-hand
side as fresh arrays, with no buffers kept between steps; at small n a
step's Python-level call overhead, not its arithmetic, is most of its
cost. Per-step timings are in the ROADMAP's Baseline.

The three procedures of :data:`ALL_METHODS` live here and share one path
(:func:`run_method`): ``rt`` tests the whole subgroups, ``random_split``
fits its nuisances on a seeded random fold, and ``adasplit`` is
:func:`run`. Validity rests on a single structural property: no
assignment outside the nuisance fold is ever read before the p-value stage.
Every method therefore routes its assignment reads through an
:class:`_AssignmentLog` and calls :func:`finish` once, with its nuisance
mask, outcome model and CATE model (none of them for ``rt``); ``finish``
records the units read before inference for auditing, tests the inference
folds and builds the report.
"""

import csv
import functools

import numpy as np

from . import rng
from .data import AnalysisReport, FoldSnapshot, _cut_rank
from .errors import ConfigError, ValidationError
from .linmodel import (LinearModel, _cho_factor, _cho_solve, _design, _solve_spd,
                       diversity_scores, fit_wls)
from .nuisance import NeighborIndex, _signed_certainty, noise_floor, scaled_residual
from .randtest import test_folds

# A loop step whose mover has no neighbor list yet queries, besides the
# mover, this many of the lowest-criterion units that could join next.
_MIN_QUERY = 512

ALL_METHODS = ("rt", "random_split", "adasplit")


def canonical_method(name):
    """Check a method name; only the three exact names are accepted."""
    if name not in ALL_METHODS:
        raise ValidationError(
            f"unknown method {name!r}; choose one of {', '.join(ALL_METHODS)}"
        )
    return name


class _AssignmentLog:
    """Gatekeeper for treatment assignments: records every unit read."""

    def __init__(self, z):
        self._z = z
        self._read = np.zeros(z.shape[0], dtype=bool)

    def take(self, idx):
        """The assignments of unit ``idx``, or of the index array ``idx``."""
        self._read[idx] = True
        return self._z[idx]

    def reads(self):
        return np.flatnonzero(self._read)


def inference_floor(size, rho):
    """The fewest units a subgroup of ``size`` may keep to test: the
    smallest count j with j / size >= rho, the rule of quantile cuts."""
    return _cut_rank(rho, size)


def split_init(dataset, partition, config):
    """Deterministic initial split: from each subgroup, the smallest count m
    with m / size >= ``config.p_init`` (the rule of quantile cuts) of units
    with the largest diversity scores seed the nuisance fold (score ties
    break toward the lower unit index). Returns the boolean nuisance mask.

    Raises every seed-split error, in this order: a one-unit subgroup (bad
    input) or one whose inference floor is its size (``rho``'s); a subgroup
    ``p_init`` seeds whole; a seed fold under d + 1 units, the smallest fold
    the residual regression can fit; a subgroup left below its floor.
    """
    p_init, rho = config.p_init, config.rho
    floors = []
    for k, g in enumerate(partition.groups):   # the seed takes one unit or more
        if g.size < 2:
            raise ValidationError(f"subgroup {k} has 1 unit; adasplit needs at least 2 "
                                  "per subgroup, one to seed and one to test")
        floors.append(inference_floor(g.size, rho))
        if floors[k] == g.size:
            raise ConfigError(f"rho={rho} keeps all {g.size} units of subgroup "
                              f"{k} to test, leaving none to seed; lower rho")
    scores = diversity_scores(dataset.x, ridge=config.ridge_lambda)
    mask, left = np.zeros(dataset.n, dtype=bool), []
    for k, g in enumerate(partition.groups):
        m = _cut_rank(p_init, g.size)
        left.append(g.size - m)
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
    for k, g in enumerate(partition.groups):
        if left[k] < floors[k]:
            raise ConfigError(f"p_init={p_init} leaves {left[k]} of the {g.size} units of "
                              f"subgroup {k} to test, below the floor rho={rho} sets "
                              f"({floors[k]})")
    return mask


def _selection_key(tau_vals, two_e):
    """The selection score ``sign(tau_hat) |2 e_hat - 1|`` (sign(0) = 0) from
    ``two_e = 2 e_hat - 1``, on one fresh array. Minimizing it prefers
    negative estimated CATEs first, then low-certainty units among the
    positive ones."""
    key = np.sign(tau_vals)
    key *= np.abs(two_e)
    return key


def convergence_metric(new, old):
    """One minus the coefficient of determination of the new CATE predictions
    ``new`` against the previous ones ``old`` on the inference units.

    Zero means the update changed nothing; values near or above one mean the
    fit is still moving. Constant previous predictions give 0 when the new
    ones agree to 1e-12 and +inf otherwise, and so do fewer than two units.
    """
    if old.size < 2:
        return float("inf")
    dev = old - np.add.reduce(old) / old.size   # old.mean(), bit for bit
    diff = new - old
    denom = float(dev @ dev)
    if denom == 0.0:
        return 0.0 if float(np.max(np.abs(diff))) <= 1e-12 else float("inf")
    return float(diff @ diff) / denom


class _LoopState:
    """What the selection loop keeps across steps (see the module doc).

    ``mask`` is the nuisance fold (its complement the held-out set),
    changed only through :meth:`move`, which also keeps each subgroup's
    held-out count ``j_sizes`` (of ``s_sizes`` units), ``penalty`` (+inf on
    the blocked units: the fold, plus every unit of a subgroup at its
    ``floor``; 0 elsewhere, added to the selection key) and the sums below.
    The loop picks only unblocked units; :meth:`prune` stops at the floors.

    With an index (``nbr``), ``lists`` holds the leave-one-out lists of the
    ``queried`` units and ``counts`` their fold members; every fold member
    is queried, and no other unit's count is read. The seed fold is queried
    alone, a loop miss takes the mover plus one block of ``_MIN_QUERY``
    units, and a batch move recounts every queried row.

    The weighted R-learner lives in running sums over the fold: ``g_w`` and
    ``b_w`` weight each unit's ``x x'`` and ``x r`` by its inverse selection
    probability ``w``; ``g_w`` None marks them stale. The design ``xd`` is
    column-major, and the pooled fit's Gram X'X is factored once in
    ``pooled_factor``. A unit's assignment ``z`` and scaled residual ``r``
    are set once, where the unit joins the fold, by :meth:`_join`, the only
    reader of ``zlog``: here for the seed fold, in :meth:`move` for every
    later unit. ``_join`` also zeroes the unit's ``imputed_scale``
    ``2 (y - mu)``, so ``imputed_scale`` is zero on the fold, where ``r``
    applies, and ``z``, ``r`` and ``w`` are zero off it; each rebuild and
    :meth:`add` set ``w``. Nothing else is kept between steps: each refit
    returns a fresh ``2 e_hat - 1``.

    The posterior's scale parameter uses the assignment-anchored residual
    ``y - mu(x) - z tau(x)`` rather than the centered one: the extra
    ``tau(x)/2`` shift inflates the scale by about a quarter of the mean
    squared CATE, which tempers the posterior and keeps the imputation from
    locking onto an overconfident fixed point early in the loop.
    """

    def __init__(self, dataset, partition, mu_vals, mask, zlog, config):
        self.mask, self.zlog = mask, zlog
        self.groups, self.labels = partition.groups, partition.labels()
        self.s_sizes = np.array([g.size for g in self.groups])
        self.j_sizes = np.array([int((~mask[g]).sum()) for g in self.groups])
        self.floor = np.array([inference_floor(s, config.rho) for s in self.s_sizes])
        # Blocked: all but the held-out units of subgroups that can still donate one.
        self.penalty = np.where(mask | (self.j_sizes <= self.floor)[self.labels],
                                np.inf, 0.0)
        self.xd = np.asfortranarray(_design(dataset.x))
        self.resid_y = dataset.y - mu_vals
        self.nu2_floor = noise_floor(dataset.y)
        self.imputed_scale = 2.0 * self.resid_y
        n, m = self.xd.shape
        self.ridge_eye = config.ridge_lambda * np.eye(m)
        self.pooled_factor = _cho_factor(self.xd.T @ self.xd + self.ridge_eye)
        self.z, self.r, self.w = np.zeros(n), np.zeros(n), np.zeros(n)
        self._join(np.flatnonzero(mask))
        # Until the index is built every unit has selection probability one:
        # the seed fold depends on covariates only.
        self.nbr, self.counts = None, np.ones(n, dtype=np.intp)
        self.set_kappa(1)

    def _join(self, j):
        """Read the assignment of unit j, or of the array j of units, as it
        joins the fold, set its ``z`` and scaled residual ``r``, and zero
        its imputed scale."""
        z = self.z[j] = self.zlog.take(j)
        self.r[j] = self.resid_y[j] / (z - 0.5)
        self.imputed_scale[j] = 0.0

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
        voters are the leave-one-out lists of a :class:`NeighborIndex`, and
        the seed fold alone is queried (:meth:`query`)."""
        n = self.mask.size
        if knn_k >= n:
            self.set_kappa(n)
            self.counts = np.full(n, np.count_nonzero(self.mask))
            return
        self.nbr = NeighborIndex(x, y, knn_k)
        self.set_kappa(self.nbr.kappa)
        self.lists = np.empty((n, self.kappa), dtype=np.intp)
        self.queried = np.zeros(n, dtype=bool)
        self.query(np.flatnonzero(self.mask))

    def query(self, units, crit=None):
        """Take the lists of the unqueried among ``units`` and, given the
        selection criterion ``crit`` (a loop miss), of the ``_MIN_QUERY``
        lowest-criterion unqueried, unblocked units; count each new row's
        fold members. Only queried units' counts are kept; every fold member
        is queried before it joins. The reverse lists :attr:`rev` and
        :attr:`rev_ptr` go stale, to be rebuilt where a single move first
        reads them: a batch move recounts instead and reads none."""
        new = units[~self.queried[units]]
        self.queried[new] = True
        if crit is not None:
            free = np.flatnonzero(~self.queried & (self.penalty == 0.0))
            if _MIN_QUERY < free.size:
                free = free[np.argpartition(crit[free], _MIN_QUERY - 1)[:_MIN_QUERY]]
            self.queried[free] = True
            new = np.concatenate((new, free))
        lists = self.lists[new] = self.nbr.lists(new)
        self.counts[new] = np.count_nonzero(self.mask[lists], axis=1)
        vars(self).pop("rev", None)
        vars(self).pop("rev_ptr", None)

    @functools.cached_property
    def rev(self):
        """CSR reverse lists: ``rev[rev_ptr[u]:rev_ptr[u + 1]]`` are the
        queried units whose counts unit u enters, in ascending unit order."""
        # The stable argsort of the queried rows' flat lists, by
        # least-significant-digit radix passes over 16-bit digits: numpy
        # radix-sorts 16-bit keys.
        rows = np.flatnonzero(self.queried)
        flat = self.lists[rows].ravel()
        perm = np.argsort(flat.astype(np.uint16), kind="stable")
        if self.mask.size > 1 << 16:
            perm = perm[np.argsort((flat[perm] >> 16).astype(np.uint16), kind="stable")]
        return rows[perm // self.kappa]

    @functools.cached_property
    def rev_ptr(self):
        n = self.mask.size
        ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.lists[self.queried].ravel(), minlength=n), out=ptr[1:])
        return ptr

    def move(self, j, crit=None):
        """Put unit j, or the array j of two or more held-out units, in the
        fold, blocking every subgroup that reaches its floor. Unqueried
        movers are queried first, a loop mover with the criterion ``crit``
        that chose it; then their assignments are read, before any count or
        sum changes. A single move adds one to the counts of its reverse
        neighbors and takes it into current sums at once (:meth:`add`); a
        batch recounts every queried row and, like a move that changes every
        count (``knn_k >= n``), leaves the sums to the next refit's
        rebuild."""
        batch = isinstance(j, np.ndarray)
        if self.nbr is not None and not (self.queried[j].all() if batch
                                         else self.queried[j]):
            self.query(np.atleast_1d(j), crit)
        self._join(j)
        self.mask[j] = True
        self.penalty[j] = np.inf
        if batch:
            self.j_sizes -= np.bincount(self.labels[j], minlength=self.j_sizes.size)
            self.penalty[(self.j_sizes == self.floor)[self.labels]] = np.inf
        else:
            k = self.labels[j]
            self.j_sizes[k] -= 1
            if self.j_sizes[k] == self.floor[k]:
                self.penalty[self.groups[k]] = np.inf
        if self.nbr is None:
            self.counts += np.size(j)
            self.g_w = None
        elif batch:
            rows = np.flatnonzero(self.queried)
            self.counts[rows] = np.count_nonzero(self.mask[self.lists[rows]], axis=1)
            self.g_w = None
        else:
            nb = self.rev[self.rev_ptr[j]:self.rev_ptr[j + 1]]
            self.counts[nb] += 1
            if self.g_w is not None:
                self.add(j, nb)

    def prune(self, tau_vals):
        """Evict negative-CATE units from each inference fold, most negative
        first, down to the floor at most, in one move."""
        evict = []
        for k, g in enumerate(self.groups):
            j_units = g[~self.mask[g]]
            order = j_units[np.lexsort((j_units, tau_vals[j_units]))]
            evict.append(order[tau_vals[order] < 0.0][:self.j_sizes[k] - self.floor[k]])
        evict = np.concatenate(evict)
        if evict.size:
            self.move(evict if evict.size > 1 else evict[0])

    def rebuild(self):
        """Form the sums afresh over the whole fold from each member's
        current weight; every member's ``r`` is already set, so this reads
        no assignment."""
        nuis = np.flatnonzero(self.mask)
        w = self.w[nuis] = self.weight[self.counts[nuis]]
        xd_i = self.xd[nuis]
        self.g_w = xd_i.T @ (xd_i * w[:, None])
        self.b_w = xd_i.T @ (self.r[nuis] * w)

    def add(self, j, nb):
        """Fold one move into the sums: unit j's own terms, and the weight
        change of the fold members among ``nb``, its reverse neighbors, the
        only units whose counts the move changed. :meth:`move` has read j's
        assignment already."""
        inside = nb[self.mask[nb]]
        units = np.concatenate((inside, (j,)))
        w = self.weight[self.counts[units]]
        dw = w - self.w[units]
        self.w[units] = w
        xd_u = self.xd[units]
        xd_dw = xd_u * dw[:, None]
        self.g_w += xd_dw.T @ xd_u
        self.b_w += xd_dw.T @ self.r[units]

    def refit(self):
        """Fit the weighted CATE model, rebuilding the sums first when a move
        or a new ``kappa`` left them stale (``g_w`` None); returns its CATE
        predictions, ``2 e_hat - 1`` for its posterior ``e_hat`` as a fresh
        array, and the posterior's scale."""
        if self.g_w is None:
            self.rebuild()
        coef = _solve_spd(self.g_w + self.ridge_eye, self.b_w)
        tau_vals = self.xd @ coef
        resid = self.resid_y - self.z * tau_vals
        nu2 = max(float((resid * resid) @ self.w) / self.mask.size, self.nu2_floor)
        return tau_vals, _signed_certainty(self.resid_y, tau_vals, nu2), nu2

    def pooled(self, two_e):
        """The pooled CATE fit's coefficients after a refit, from
        ``two_e = 2 e_hat - 1``: observed scaled residuals on the fold,
        imputed ones ``2 (y - mu) (2 e_hat - 1)`` elsewhere, summed as
        ``two_e * imputed_scale + r`` since each of the two is zero where the
        other applies. Every unit enters once, so its Gram is X'X, factored
        when the state is built."""
        terms = two_e * self.imputed_scale
        terms += self.r
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

    mu = fit_wls(x, y, ridge=config.ridge_lambda)
    mask = split_init(dataset, partition, config)
    state = _LoopState(dataset, partition, mu.predict(x), mask, zlog, config)

    # Seed refit: the seed fold depends on covariates only, so every unit
    # has selection probability one.
    tau_prev_vals, two_e, _ = state.refit()
    state.index(x, y, config.knn_k)

    l_hist = []
    trace = []
    streak = 0   # trailing steps with l <= eps_l
    while True:
        crit = _selection_key(tau_prev_vals, two_e)
        crit += state.penalty   # +inf on the blocked units
        j_star = int(crit.argmin())   # the first minimum: lowest index
        if crit[j_star] == np.inf:
            stop_reason = "floor"
            break
        state.move(j_star, crit)

        _, two_e, _ = state.refit()
        tau_new_vals = state.xd @ state.pooled(two_e)
        held = (~state.mask).nonzero()[0]
        l_t = convergence_metric(tau_new_vals[held], tau_prev_vals[held])
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
    _, two_e, nu2 = state.refit()
    diagnostics = {"l": l_hist, "converged": stop_reason == "converged",
                   "stop_reason": stop_reason, "nu2": nu2}
    if collect_trace:
        diagnostics["trace"] = trace
    return finish("adasplit", dataset, partition, config, zlog, mu, mask=mask,
                  iterations=len(l_hist), tau=LinearModel(state.pooled(two_e)),
                  diagnostics=diagnostics)


def run_method(method, dataset, partition, config, collect_trace=False):
    """Run one of the three procedures and return its report.

    The methods differ only in how they choose the inference folds and fit
    the nuisances; each reads assignments through one :class:`_AssignmentLog`
    and calls :func:`finish` once. ``rt`` tests each full subgroup with the
    difference in means of ``y`` and reads none; ``random_split`` keeps a
    seeded random part of each subgroup for inference, at the floor the
    adaptive loop stops at (:func:`inference_floor`), fits the outcome model
    and the CATE on the rest, and tests with the difference in means of
    ``y - mu(x)`` (the AIPW statistic at e = 1/2; the CATE fit gives the
    report's coefficients); ``adasplit`` is :func:`run`.
    """
    method = canonical_method(method)
    if dataset.n != partition.n:
        raise ValidationError("dataset and partition sizes differ")
    if method == "adasplit":
        return run(dataset, partition, config, collect_trace=collect_trace)
    zlog = _AssignmentLog(dataset.z)
    if method == "rt":
        return finish(method, dataset, partition, config, zlog, None)
    mask = np.zeros(dataset.n, dtype=bool)
    for k, g in enumerate(partition.groups):
        gen = rng.stream(config.seed, rng.RANDOM_SPLIT, k)
        m_k = g.size - inference_floor(g.size, config.rho)
        mask[gen.permutation(g)[:m_k]] = True
    nuis_idx = np.flatnonzero(mask)
    if nuis_idx.size < dataset.d + 1:
        raise ConfigError(
            f"rho={config.rho} leaves a nuisance fold of {nuis_idx.size} units, "
            f"fewer than d + 1 = {dataset.d + 1} (n={dataset.n}, d={dataset.d}); "
            "lower rho or use a larger sample"
        )
    x_i, y_i = dataset.x[nuis_idx], dataset.y[nuis_idx]
    mu = fit_wls(x_i, y_i, ridge=config.ridge_lambda)
    tau = fit_wls(x_i, scaled_residual(y_i, zlog.take(nuis_idx), mu.predict(x_i)),
                  ridge=config.ridge_lambda)
    return finish(method, dataset, partition, config, zlog, mu, mask=mask, tau=tau)


def finish(method, dataset, partition, config, zlog, mu, mask=None,
           iterations=0, tau=None, diagnostics=None):
    """The stage every method ends with: record the assignments ``zlog``
    has handed out, test each subgroup's inference fold (the units off the
    nuisance ``mask``, or the whole subgroup when there is no mask) with
    :func:`test_folds` on the residuals of the outcome model ``mu`` (None:
    the outcomes), and build the report, whose CATE coefficients are those
    of the method's CATE model ``tau`` (None: no CATE fit).
    ``diagnostics`` gains ``z_reads_before_pvalues`` and ``pvalue_flags``."""
    diagnostics = dict(diagnostics or {})
    diagnostics["z_reads_before_pvalues"] = zlog.reads().tolist()
    groups = partition.groups
    folds = groups if mask is None else [g[~mask[g]] for g in groups]
    pvalues, rejected, diagnostics["pvalue_flags"] = test_folds(
        mu, dataset, folds, config)
    return AnalysisReport(
        pvalues=pvalues,
        rejected=rejected,
        folds=None if mask is None else FoldSnapshot.from_mask(partition, mask),
        iterations=iterations,
        cate_coefficients=None if tau is None else tuple(float(c) for c in tau.coef),
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
