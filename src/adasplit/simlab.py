"""Synthetic trial generators and the experiment harness.

The trial family has five covariates (three uniform on [-0.5, 0.5], two
centered Bernoulli at rates 0.25 and 0.75), a Bernoulli(1/2) design,
Gaussian outcome noise, and affine outcome/CATE surfaces; subgroups are the
quintiles of the first covariate. Named scenarios vary the sample size, the
noise level, or null out the CATE. A one-covariate toy family reproduces the
illustrative example with Y = Z * X + noise.

The harness runs the three competing procedures on shared per-replication
datasets (the plain subgroup randomization test ``rt``, the random-split
AIPW test ``random_split``, and the adaptive split ``adasplit``) and
aggregates rejection rates, family-wise error, power, and CATE estimation
quality into summary tables. Every replication derives its own seed from the
master seed, so runs are reproducible and trivially parallelizable.
"""

import concurrent.futures
import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import engine, randtest, rng
from .data import AdaSplitConfig, Dataset, SubgroupPartition, partition_by_quantiles
from .errors import ConfigError, ValidationError
from .linmodel import LinearModel
from .nuisance import NuisanceModel, fit_mu, fit_rlearner_weighted
from .randtest import STAT_AIPW, STAT_DM, TestStatisticSpec

METHOD_RT = "rt"
METHOD_RANDOM_SPLIT = "random_split"
METHOD_ADASPLIT = "adasplit"
ALL_METHODS = (METHOD_RT, METHOD_RANDOM_SPLIT, METHOD_ADASPLIT)

def canonical_method(name):
    """Check a method name; only the three exact names are accepted."""
    if name not in ALL_METHODS:
        raise ValidationError(
            f"unknown method {name!r}; choose one of {', '.join(ALL_METHODS)}"
        )
    return name


@dataclass(frozen=True)
class Scenario:
    """One named simulation setting."""

    name: str
    family: str
    n: int
    d: int
    nu2: float
    mu0_coef: tuple
    tau_coef: tuple
    cuts: tuple


@dataclass(frozen=True)
class TrueNuisances:
    """Generative outcome surfaces, for oracles and quality metrics."""

    mu0_coef: tuple
    tau_coef: tuple
    nu2: float

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
    "default": Scenario("default", "trial", 500, 5, 1.0, _TRIAL_MU0, _TRIAL_TAU, _TRIAL_CUTS),
    "larger_n": Scenario("larger_n", "trial", 1000, 5, 1.0, _TRIAL_MU0, _TRIAL_TAU, _TRIAL_CUTS),
    "high_noise": Scenario("high_noise", "trial", 500, 5, 2.0, _TRIAL_MU0, _TRIAL_TAU, _TRIAL_CUTS),
    "null": Scenario("null", "trial", 500, 5, 1.0, _TRIAL_MU0, (0.0,) * 6, _TRIAL_CUTS),
    "toy_fig3": Scenario("toy_fig3", "toy", 200, 1, 1.0, (0.0, 0.0), (0.0, 1.0), ()),
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
    """Generate one dataset plus its partition and true nuisances.

    Reproducible: the same (scenario, seed) pair yields an identical sample.
    """
    scenario = get_scenario(scenario_name)
    gen = rng.stream(seed, rng.DATA_GENERATION)
    x = draw_covariates(scenario, scenario.n, gen)
    z = (gen.random(scenario.n) < 0.5).astype(float)
    eps = gen.normal(0.0, np.sqrt(scenario.nu2), size=scenario.n)
    truth = TrueNuisances(scenario.mu0_coef, scenario.tau_coef, scenario.nu2)
    y = truth.mu0(x) + z * truth.tau(x) + eps
    dataset = Dataset.from_arrays(x, y, z)
    if scenario.cuts:
        partition = partition_by_quantiles(dataset, 0, scenario.cuts)
    else:
        partition = SubgroupPartition((np.arange(scenario.n),))
    return dataset, partition, truth


def run_method(method, dataset, partition, config, collect_trace=False):
    """Run one of the three procedures and return its report.

    The methods differ only in how they choose the inference folds and fit
    the nuisances; all three read assignments through one
    ``engine._AssignmentLog`` and end with :func:`engine.finish`, so every
    report lists the assignments read before the p-values. ``rt`` tests each
    full subgroup with the difference-in-means statistic and reads none;
    ``random_split`` keeps a seeded random part of each subgroup for
    inference, at the floor ``rho`` the adaptive engine stops at, fits the
    nuisances on the rest and tests with the AIPW statistic; ``adasplit``
    delegates to the adaptive engine.
    """
    method = canonical_method(method)
    if dataset.n != partition.n:
        raise ValidationError("dataset and partition sizes differ")
    if method == METHOD_ADASPLIT:
        return engine.run(dataset, partition, config, collect_trace=collect_trace)
    zlog = engine._AssignmentLog(dataset.z)
    if method == METHOD_RT:
        return engine.finish(method, dataset, partition, config, zlog,
                             TestStatisticSpec(kind=STAT_DM))
    mask = np.zeros(dataset.n, dtype=bool)
    for k, g in enumerate(partition.groups):
        gen = rng.stream(config.seed, rng.RANDOM_SPLIT, k)
        # The smallest inference count j with j >= rho * s, by the same
        # comparison as the engine's eligibility test.
        m_k = g.size - math.ceil(config.rho * g.size)
        mask[gen.permutation(g)[:m_k]] = True
    nuis_idx = np.flatnonzero(mask)
    if nuis_idx.size < dataset.d + 1:
        raise ConfigError(
            f"rho={config.rho} leaves a nuisance fold of {nuis_idx.size} units, "
            f"fewer than d + 1 = {dataset.d + 1} (n={dataset.n}, d={dataset.d}); "
            "lower rho or use a larger sample"
        )
    x_i, y_i = dataset.x[nuis_idx], dataset.y[nuis_idx]
    mu = fit_mu(x_i, y_i, ridge=config.ridge_lambda)
    tau = fit_rlearner_weighted(x_i, y_i, zlog.take(nuis_idx), dataset.e[nuis_idx],
                                mu.predict(x_i), ridge=config.ridge_lambda)
    stat = TestStatisticSpec(kind=STAT_AIPW, nuisances=NuisanceModel(mu=mu, tau=tau))
    return engine.finish(method, dataset, partition, config, zlog, stat,
                         mask=mask, coef=tau.coef)


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


def _rep_worker(args):
    scenario_name, rep, master_seed, config_values, methods = args
    rep_seed = rng.child_seed(master_seed, rng.REPLICATION, rep)
    config = AdaSplitConfig.from_dict(config_values).replace(seed=rep_seed)
    dataset, partition, _ = generate(scenario_name, rep_seed)
    out = []
    for method in methods:
        report = run_method(method, dataset, partition, config)
        proportions = (
            report.folds.proportions if report.folds is not None else None
        )
        out.append(RepResult(
            scenario=scenario_name, method=report.method, rep=rep,
            pvalues=report.pvalues, rejected=report.rejected,
            proportions=proportions,
        ))
    return out


def run_replications(scenario_name, reps, seed, config=None, methods=ALL_METHODS,
                     threads=1):
    """Run all requested methods on `reps` fresh datasets; deterministic in
    (scenario, reps, seed) regardless of the worker count."""
    get_scenario(scenario_name)
    config = config or AdaSplitConfig()
    methods = tuple(canonical_method(m) for m in methods)
    jobs = [
        (scenario_name, rep, seed, config.to_dict(), methods)
        for rep in range(reps)
    ]
    if threads > 1:
        # The worker processes already fill the CPUs, so each computes its
        # p-values serially.
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=threads, initializer=randtest._serial_pvalues) as pool:
            chunks = list(pool.map(_rep_worker, jobs,
                                   chunksize=max(1, reps // (4 * threads))))
    else:
        chunks = [_rep_worker(job) for job in jobs]
    return [res for chunk in chunks for res in chunk]


def cate_quality_experiment(scenario_name, reps, seed, config=None, holdout=10_000):
    """Out-of-sample CATE quality of the pooled estimator versus the
    fold-restricted residual regression, on adaptive-split folds.

    Per replication: run the adaptive split, read off the pooled estimator's
    coefficients, refit the plain residual regression on the same final
    nuisance fold, and score both by R^2 against the true CATE on a fresh
    holdout sample of covariates.
    """
    scenario = get_scenario(scenario_name)
    config = config or AdaSplitConfig()
    rows = []
    for rep in range(reps):
        rep_seed = rng.child_seed(seed, rng.REPLICATION, rep)
        dataset, partition, truth = generate(scenario_name, rep_seed)
        report = engine.run(
            dataset, partition, config.replace(seed=rep_seed), collect_trace=False
        )
        bar = LinearModel(np.asarray(report.cate_coefficients))
        # The fold-restricted baseline shares the engine's outcome model
        # (fit on all covariates and outcomes, which uses no assignments)
        # but regresses residuals over the nuisance fold alone.
        nuis_idx = np.asarray(report.folds.nuisance, dtype=int)
        mu = fit_mu(dataset.x, dataset.y, ridge=config.ridge_lambda)
        rl = fit_rlearner_weighted(
            dataset.x[nuis_idx], dataset.y[nuis_idx], dataset.z[nuis_idx],
            dataset.e[nuis_idx], mu.predict(dataset.x[nuis_idx]),
            ridge=config.ridge_lambda,
        )
        gen = rng.stream(rep_seed, rng.DATA_GENERATION, 1)
        x_new = draw_covariates(scenario, holdout, gen)
        tau_true = truth.tau(x_new)
        denom = float(np.sum((tau_true - tau_true.mean()) ** 2))
        r2 = {
            "bar_learner": 1.0 - float(np.sum((tau_true - bar.predict(x_new)) ** 2)) / denom,
            "r_learner": 1.0 - float(np.sum((tau_true - rl.predict(x_new)) ** 2)) / denom,
        }
        rows.append((rep, r2["bar_learner"], r2["r_learner"]))
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
    out = {}
    for n in sizes:
        scenario = scenario_with_size("default", n)
        errors = []
        for rep in range(reps):
            rep_seed = rng.child_seed(seed, rng.REPLICATION, n, rep)
            dataset, partition, truth = generate(scenario, rep_seed)
            report = engine.run(
                dataset, partition, config.replace(seed=rep_seed),
                collect_trace=False,
            )
            beta = np.asarray(truth.tau_coef, dtype=float)
            beta_hat = np.asarray(report.cate_coefficients, dtype=float)
            errors.append(
                float(np.linalg.norm(beta_hat - beta) / np.linalg.norm(beta))
            )
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

    name: str
    cells: tuple
    raw: tuple
    config: AdaSplitConfig

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(f"# config: {json.dumps(self.config.to_dict(), sort_keys=True)}\n")
            writer = csv.writer(fh)
            writer.writerow(["scenario", "method", "cell", "mean", "se", "reps"])
            for c in self.cells:
                writer.writerow(
                    [c.scenario, c.method, c.cell, repr(c.mean), repr(c.se), c.reps]
                )

    def write_raw_csv(self, path):
        keys = []
        for row in self.raw:
            for key in row:
                if key not in keys:
                    keys.append(key)
        with open(path, "w", newline="") as fh:
            fh.write(f"# config: {json.dumps(self.config.to_dict(), sort_keys=True)}\n")
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            for row in self.raw:
                writer.writerow({k: _fmt(v) for k, v in row.items()})

    def render_text(self):
        """Grid rendering with mean (se) entries, methods as columns."""
        methods = []
        rows = []
        for c in self.cells:
            if c.method not in methods:
                methods.append(c.method)
            key = (c.scenario, c.cell)
            if key not in rows:
                rows.append(key)
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


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return v


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


def summarize_replications(scenario_name, results, config, name="simulate"):
    """Aggregate per-subgroup rejection rates at alpha, the family-wise error
    (any closed-testing rejection; meaningful on the null scenario), and the
    realized power (average fraction of subgroups rejected by closed
    testing; on the effect scenarios every subgroup carries a nonzero
    effect, so all rejections count)."""
    cells = []
    methods = sorted({res.method for res in results},
                     key=lambda m: ALL_METHODS.index(m))
    for method in methods:
        sub = [res for res in results if res.method == method]
        if not sub:
            continue
        k = len(sub[0].pvalues)
        for g in range(k):
            mean, se = _mean_se([res.pvalues[g] <= config.alpha for res in sub])
            cells.append(SummaryCell(scenario_name, method, f"G{g + 1}",
                                     mean, se, len(sub)))
        if scenario_name == "null":
            mean, se = _mean_se([len(res.rejected) > 0 for res in sub])
            cells.append(SummaryCell(scenario_name, method, "fwer", mean, se, len(sub)))
        else:
            mean, se = _mean_se(
                [len(res.rejected) / len(res.pvalues) for res in sub]
            )
            cells.append(SummaryCell(scenario_name, method, "power", mean, se, len(sub)))
    return ExperimentSummary(
        name=name,
        cells=tuple(cells),
        raw=tuple(_pvalue_rows(results)),
        config=config,
    )


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

    if table == 1:
        cells, raw = [], []
        for scenario in ("default", "larger_n", "high_noise"):
            rows = cate_quality_experiment(scenario, reps, seed, config)
            for method, col in (("r_learner", 2), ("bar_learner", 1)):
                mean, se = _mean_se([row[col] for row in rows])
                cells.append(SummaryCell(scenario, method, "r2", mean, se, reps))
            raw.extend(
                {"scenario": scenario, "rep": row[0],
                 "r2_bar_learner": row[1], "r2_r_learner": row[2]}
                for row in rows
            )
        return ExperimentSummary("table1", tuple(cells), tuple(raw), config)

    if table in (2, 3):
        results = run_replications("null", reps, seed, config, threads=threads)
        summary = summarize_replications("null", results, config,
                                         name=f"table{table}")
        if table == 2:
            cells = tuple(c for c in summary.cells if c.cell.startswith("G"))
        else:
            cells = tuple(c for c in summary.cells if c.cell == "fwer")
        return ExperimentSummary(f"table{table}", cells, summary.raw, config)

    cells, raw = [], []
    for scenario in ("default", "larger_n", "high_noise"):
        results = run_replications(scenario, reps, seed, config, threads=threads)
        summary = summarize_replications(scenario, results, config, name="table4")
        cells.extend(c for c in summary.cells if c.cell == "power")
        raw.extend(summary.raw)
    return ExperimentSummary("table4", tuple(cells), tuple(raw), config)
