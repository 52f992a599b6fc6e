"""Synthetic trial generators and the experiment harness.

The trial family has five covariates (three uniform on [-0.5, 0.5], two
centered Bernoulli at rates 0.25 and 0.75), a Bernoulli(1/2) design,
Gaussian outcome noise, and affine outcome/CATE surfaces; subgroups are the
quintiles of the first covariate. Named scenarios vary the sample size, the
noise level, or null out the CATE. A one-covariate toy family reproduces the
illustrative example with Y = Z * X + noise. A :class:`Scenario` carries
its own true surfaces ``mu0(x)`` and ``tau(x)``, and :func:`generate`
returns it with each sample.

The harness runs the three competing procedures, which live in
:mod:`adasplit.engine` (:func:`engine.run_method`: the plain subgroup
randomization test ``rt``, the random-split residual test
``random_split``, and the adaptive split ``adasplit``), on shared
per-replication datasets and aggregates rejection rates, family-wise error,
power, and CATE estimation quality into summary tables. Every replication
derives its own seed from the master seed, so runs are reproducible and
trivially parallelizable.
"""

import concurrent.futures
import csv
import dataclasses
import io
import json
from dataclasses import dataclass

import numpy as np

from . import rng
from .data import AdaSplitConfig, Dataset, SubgroupPartition, partition_by_quantiles
from .engine import ALL_METHODS, run_method
from .errors import ConfigError, ValidationError
from .linmodel import LinearModel, fit_wls
from .nuisance import scaled_residual


@dataclass(frozen=True)
class Scenario:
    """One named simulation setting; its affine surfaces ``mu0`` and ``tau``
    and noise variance ``nu2`` are the truth oracles and quality metrics
    compare against."""

    name: str
    family: str
    n: int
    nu2: float
    mu0_coef: tuple
    tau_coef: tuple
    cuts: tuple

    def _affine(self, coef, x):
        c = np.asarray(coef, dtype=float)
        return c[0] + np.atleast_2d(np.asarray(x, dtype=float)) @ c[1:]

    def tau(self, x):
        return self._affine(self.tau_coef, x)

    def mu0(self, x):
        return self._affine(self.mu0_coef, x)


# The control-arm intercept fixes the outcome scale; only the uncentered
# difference-in-means baseline is sensitive to it (residual-based statistics
# cancel it), so it calibrates that baseline's operating point.
_TRIAL_MU0 = (2.0, 1.0, 1.0, 1.0, 1.0, 1.0)
_TRIAL_TAU = (0.5, 1.0, 1.0, 1.0, 1.0, 1.0)
_TRIAL_CUTS = (0.2, 0.4, 0.6, 0.8)

SCENARIOS = {
    "default": Scenario("default", "trial", 500, 1.0, _TRIAL_MU0, _TRIAL_TAU, _TRIAL_CUTS),
    "larger_n": Scenario("larger_n", "trial", 1000, 1.0, _TRIAL_MU0, _TRIAL_TAU, _TRIAL_CUTS),
    "high_noise": Scenario("high_noise", "trial", 500, 2.0, _TRIAL_MU0, _TRIAL_TAU, _TRIAL_CUTS),
    "null": Scenario("null", "trial", 500, 1.0, _TRIAL_MU0, (0.0,) * 6, _TRIAL_CUTS),
    "toy_fig3": Scenario("toy_fig3", "toy", 200, 1.0, (0.0, 0.0), (0.0, 1.0), ()),
}


def get_scenario(name):
    if isinstance(name, Scenario):
        return name
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValidationError(f"unknown scenario {name!r}")


def scenario_with_size(base, n):
    """A copy of a named scenario with a different sample size."""
    scenario = get_scenario(base)
    return dataclasses.replace(scenario, name=f"{scenario.name}_n{n}", n=int(n))


def draw_covariates(scenario, m, gen):
    """Draw m covariate rows from the scenario's covariate law."""
    if scenario.family == "trial":
        x = np.empty((m, 5))
        x[:, :3] = gen.uniform(-0.5, 0.5, size=(m, 3))
        x[:, 3] = np.where(gen.random(m) < 0.25, 0.5, -0.5)
        x[:, 4] = np.where(gen.random(m) < 0.75, 0.5, -0.5)
        return x
    return gen.uniform(0.0, 5.0, size=(m, 1))


def generate(scenario_name, seed):
    """Generate one dataset plus its partition; returns ``(dataset,
    partition, scenario)``, the scenario (a name resolved to its
    :class:`Scenario`) carrying the true surfaces.

    Reproducible: the same (scenario, seed) pair yields an identical sample.
    """
    scenario = get_scenario(scenario_name)
    gen = rng.stream(seed, rng.DATA_GENERATION)
    x = draw_covariates(scenario, scenario.n, gen)
    z = (gen.random(scenario.n) < 0.5).astype(float)
    eps = gen.normal(0.0, np.sqrt(scenario.nu2), size=scenario.n)
    y = scenario.mu0(x) + z * scenario.tau(x) + eps
    dataset = Dataset(x, y, z)
    if scenario.cuts:
        partition = partition_by_quantiles(dataset, 0, scenario.cuts)
    else:
        partition = SubgroupPartition((np.arange(scenario.n),))
    return dataset, partition, scenario


# Replication harness ----------------------------------------------------------

@dataclass(frozen=True)
class RepResult:
    """Slim per-replication record kept by the experiment loops."""

    scenario: str
    method: str
    rep: int
    pvalues: tuple
    rejected: tuple
    proportions: tuple | None


def _replicate(scenario, rep_seed, config, methods):
    """One replication: the dataset drawn from ``rep_seed`` and each
    method's report on it, run with the config seeded the same; returns
    ``(dataset, reports)``."""
    dataset, partition, _ = generate(scenario, rep_seed)
    config = config.replace(seed=rep_seed)
    return dataset, [run_method(m, dataset, partition, config) for m in methods]


def _rep_worker(args):
    scenario, rep, master_seed, config = args
    _, reports = _replicate(scenario, rng.child_seed(master_seed, rng.REPLICATION, rep),
                            config, ALL_METHODS)
    return [RepResult(scenario.name, report.method, rep, report.pvalues, report.rejected,
                      None if report.folds is None else report.folds.proportions)
            for report in reports]


def run_replications(scenario_name, reps, seed, config=None, threads=1):
    """Run all three methods on `reps` fresh datasets; deterministic in
    (scenario, reps, seed) regardless of the worker count."""
    scenario = get_scenario(scenario_name)
    config = config or AdaSplitConfig()
    jobs = [(scenario, rep, seed, config) for rep in range(reps)]
    # The pool starts all its workers at once: never more than the jobs.
    workers = min(threads, reps)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_rep_worker, jobs,
                                   chunksize=max(1, reps // (4 * workers))))
    else:
        chunks = [_rep_worker(job) for job in jobs]
    return [res for chunk in chunks for res in chunk]


# Rows of the fresh covariate sample each CATE fit is scored on.
_CATE_HOLDOUT = 10_000


def cate_quality_experiment(scenario_name, reps, seed, config=None):
    """Out-of-sample CATE quality of the pooled estimator versus the
    fold-restricted residual regression, on adaptive-split folds.

    Per replication: run the adaptive split, read off the pooled estimator's
    coefficients, refit the plain residual regression on the same final
    nuisance fold, and score both by R^2 against the true CATE on a fresh
    holdout sample of covariates. A scenario whose CATE is constant has no
    CATE variance to explain, so R^2 is undefined there: ValidationError.
    """
    scenario = get_scenario(scenario_name)
    if not any(scenario.tau_coef[1:]):
        raise ValidationError(
            f"scenario {scenario.name!r} has a constant CATE, for which the "
            "R^2 of a CATE fit is undefined"
        )
    config = config or AdaSplitConfig()
    rows = []
    for rep in range(reps):
        rep_seed = rng.child_seed(seed, rng.REPLICATION, rep)
        dataset, (report,) = _replicate(scenario, rep_seed, config, ("adasplit",))
        bar = LinearModel(np.asarray(report.cate_coefficients))
        # The fold-restricted baseline shares the engine's outcome model
        # (fit on all covariates and outcomes, which uses no assignments)
        # but regresses residuals over the nuisance fold alone.
        nuis_idx = np.asarray(report.folds.nuisance, dtype=int)
        x_i, y_i = dataset.x[nuis_idx], dataset.y[nuis_idx]
        mu = fit_wls(dataset.x, dataset.y, ridge=config.ridge_lambda)
        rl = fit_wls(x_i, scaled_residual(y_i, dataset.z[nuis_idx], mu.predict(x_i)),
                     ridge=config.ridge_lambda)
        gen = rng.stream(rep_seed, rng.DATA_GENERATION, 1)
        x_new = draw_covariates(scenario, _CATE_HOLDOUT, gen)
        tau_true = scenario.tau(x_new)
        denom = float(np.sum((tau_true - tau_true.mean()) ** 2))
        r2 = [1.0 - float(np.sum((tau_true - model.predict(x_new)) ** 2)) / denom
              for model in (bar, rl)]
        rows.append((rep, *r2))
    return rows


def consistency_experiment(sizes, reps, seed, config=None):
    """Normalized CATE coefficient error on half-sample adaptive folds.

    For each sample size, runs the adaptive split with a stopping threshold
    small enough that the loop always fills the nuisance fold to the
    proportion floor (half the sample at the default rho), then measures
    ``||beta_hat - beta|| / ||beta||`` against the generative coefficients.
    Returns ``{n: [error per rep]}``.
    """
    config = (config or AdaSplitConfig()).replace(eps_l=1e-12)
    beta = np.asarray(get_scenario("default").tau_coef, dtype=float)
    out = {}
    for n in sizes:
        scenario = scenario_with_size("default", n)
        errors = []
        for rep in range(reps):
            rep_seed = rng.child_seed(seed, rng.REPLICATION, n, rep)
            _, (report,) = _replicate(scenario, rep_seed, config, ("adasplit",))
            beta_hat = np.asarray(report.cate_coefficients, dtype=float)
            errors.append(float(np.linalg.norm(beta_hat - beta) / np.linalg.norm(beta)))
        out[int(n)] = errors
    return out


# Summaries ---------------------------------------------------------------------

@dataclass(frozen=True)
class SummaryCell:
    scenario: str
    method: str
    cell: str
    mean: float
    se: float
    reps: int


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate cells plus the raw per-replication rows behind them."""

    cells: tuple
    raw: tuple
    config: AdaSplitConfig

    def write_csv(self, path):
        self._write(path, [field.name for field in dataclasses.fields(SummaryCell)],
                    map(dataclasses.asdict, self.cells))

    def write_raw_csv(self, path):
        self._write(path, list(dict.fromkeys(key for row in self.raw for key in row)),
                    self.raw)

    def _write(self, path, keys, rows):
        """A ``# config:`` line, then the rows under ``keys``, floats as repr."""
        with open(path, "w", newline="") as fh:
            fh.write(f"# config: {json.dumps(self.config.to_dict(), sort_keys=True)}\n")
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: repr(v) if isinstance(v, float) else v
                                 for k, v in row.items()})

    def render_text(self):
        """Grid rendering with mean (se) entries, methods as columns."""
        methods = list(dict.fromkeys(c.method for c in self.cells))
        rows = list(dict.fromkeys((c.scenario, c.cell) for c in self.cells))
        grid = {(c.scenario, c.cell, c.method): f"{c.mean:.3f} ({c.se:.3f})"
                for c in self.cells}
        out = io.StringIO()
        header = ["scenario", "cell"] + methods
        widths = [max(len(h), 18) for h in header]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
        for scenario, cell in rows:
            fields = [scenario, cell] + [
                grid.get((scenario, cell, m), "-") for m in methods
            ]
            out.write("  ".join(f.ljust(w) for f, w in zip(fields, widths)) + "\n")
        return out.getvalue()


def _mean_se(values):
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


def _pvalue_rows(results):
    rows = []
    for res in results:
        row = {"scenario": res.scenario, "method": res.method, "rep": res.rep}
        for k, p in enumerate(res.pvalues):
            row[f"p_g{k + 1}"] = p
        row["n_rejected"] = len(res.rejected)
        row["any_rejected"] = int(len(res.rejected) > 0)
        row["frac_rejected"] = len(res.rejected) / len(res.pvalues)
        rows.append(row)
    return rows


def summarize_replications(scenario_name, results, config):
    """Aggregate per-subgroup rejection rates at alpha, and the family-wise
    error (any closed-testing rejection) of a scenario whose ``tau_coef`` are
    all zero or else the realized power (average fraction of subgroups
    rejected by closed testing; every subgroup of an effect scenario carries
    a nonzero effect, so all rejections count)."""
    scenario = get_scenario(scenario_name)
    cells = []
    for method in sorted({res.method for res in results}, key=ALL_METHODS.index):
        sub = [res for res in results if res.method == method]
        for g in range(len(sub[0].pvalues)):
            cells.append(SummaryCell(scenario.name, method, f"G{g + 1}", *_mean_se(
                [res.pvalues[g] <= config.alpha for res in sub]), len(sub)))
        if not any(scenario.tau_coef):
            cell, values = "fwer", [len(res.rejected) > 0 for res in sub]
        else:
            cell, values = "power", [len(res.rejected) / len(res.pvalues) for res in sub]
        cells.append(SummaryCell(scenario.name, method, cell, *_mean_se(values), len(sub)))
    return ExperimentSummary(tuple(cells), tuple(_pvalue_rows(results)), config)


# table -> (the scenarios of its study, the prefix of the cells it keeps);
# table 1 scores CATE fits instead, on the same effect scenarios as table 4
_EFFECT_SCENARIOS = ("default", "larger_n", "high_noise")
_TABLE_STUDIES = {
    2: (("null",), "G"),
    3: (("null",), "fwer"),
    4: (_EFFECT_SCENARIOS, "power"),
}


def reproduce_table(table, reps, seed, config=None, threads=1):
    """Replicate one of the four summary tables of the synthetic study.

    1: out-of-sample CATE R^2 (pooled vs fold-restricted estimator);
    2: per-subgroup type-I error on the null scenario;
    3: family-wise error on the null scenario;
    4: closed-testing power across the three effect scenarios.
    """
    if table not in (1, 2, 3, 4):
        raise ConfigError("table must be one of 1, 2, 3, 4")
    if reps < 10:
        raise ConfigError("reps >= 10 required")
    config = config or AdaSplitConfig()

    cells, raw = [], []
    if table == 1:
        for scenario in _EFFECT_SCENARIOS:
            rows = cate_quality_experiment(scenario, reps, seed, config)
            for method, col in (("r_learner", 2), ("bar_learner", 1)):
                cells.append(SummaryCell(scenario, method, "r2",
                                         *_mean_se([row[col] for row in rows]), reps))
            raw.extend({"scenario": scenario, "rep": rep, "r2_bar_learner": bar,
                        "r2_r_learner": rl} for rep, bar, rl in rows)
    else:
        scenarios, prefix = _TABLE_STUDIES[table]
        for scenario in scenarios:
            results = run_replications(scenario, reps, seed, config, threads=threads)
            summary = summarize_replications(scenario, results, config)
            cells.extend(c for c in summary.cells if c.cell.startswith(prefix))
            raw.extend(summary.raw)
    return ExperimentSummary(tuple(cells), tuple(raw), config)
