"""The benchmark's workloads, their inputs and their output checks.

Each workload is built so that one layer does most of its work:

* ``analyze-n4000``: ``adasplit analyze`` with the adaptive split on one
  n = 4000 trial. The n x n neighbor-index build is most of an op.
* ``simulate-default``: one replication of all three methods on the
  ``default`` scenario (n = 500, K = 5). The refits of the selection loop
  are most of an op.
* ``subgroups-k14``: ``adasplit analyze`` with the plain randomization test
  on one n = 20000 trial cut into K = 14 subgroups. Exhaustive closed
  testing (2^14 - 1 global tests) is most of an op; the engine and the
  neighbor index never run.

Inputs come from the workload seed only: op ``i`` gets its own trial (or
replication seed), derived from ``(seed, workload, i)``.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np

from adasplit import cli, data, simlab

DEFAULTS = data.AdaSplitConfig()
TRIAL_COVARIATE = 0  # subgroups are quantile slices of x1
WARMUP_INPUT = 1_000_000  # input index of the warm-up op, outside the timed ones


def derive_seed(seed, workload_index, i):
    """A 31-bit seed for op ``i`` of a workload, from the workload seed."""
    state = np.random.SeedSequence((int(seed), workload_index, i)).generate_state(1)
    return int(state[0] & 0x7FFFFFFF)


def quantile_labels(v, cuts):
    """Subgroup label of each unit under the inverted-CDF quantile rule the
    CLI documents: the cut at fraction c is the ceil(c n)-th order statistic,
    and a unit equal to a cut goes to the lower group."""
    order = np.sort(v)
    bounds = np.array([order[math.ceil(c * v.size) - 1] for c in cuts])
    return np.searchsorted(bounds, v, side="left")


def check_report(payload, k, labels=None):
    """Problems with one report: p-values, rejections and, when ``labels``
    is given (adaptive split), the folds and the blindness audit."""
    problems = []
    config = payload.get("config") or {}
    q = config.get("q", DEFAULTS.q)
    p = payload.get("pvalues") or []
    if len(p) != k:
        return [f"expected {k} p-values, got {len(p)}"]
    if not all(isinstance(v, float) and 0.0 < v <= 1.0 for v in p):
        problems.append("p-value outside (0, 1]")
    rejected = payload.get("rejected")
    if rejected is None or any(not 0 <= r < k or p[r] > q for r in rejected):
        problems.append("a rejected subgroup has p > q")
    if labels is None:
        return problems

    folds = payload.get("folds") or {}
    nuisance = np.asarray(folds.get("nuisance", []), dtype=int)
    inference = [np.asarray(j, dtype=int) for j in folds.get("inference", [])]
    n = labels.size
    if len(inference) != k:
        return problems + [f"expected {k} inference folds, got {len(inference)}"]
    units = np.concatenate([nuisance] + inference)
    if units.size != n or not np.array_equal(np.sort(units), np.arange(n)):
        problems.append("folds are not disjoint or do not cover all units")
        return problems
    rho = config.get("rho", DEFAULTS.rho)
    for g, fold in enumerate(inference):
        size = int(np.sum(labels == g))
        if np.any(labels[fold] != g):
            problems.append(f"inference fold {g} holds units of another subgroup")
        if fold.size < rho * size:
            problems.append(f"inference share of subgroup {g} below rho")
    reads = np.asarray(
        (payload.get("diagnostics") or {}).get("z_reads_before_pvalues", []),
        dtype=int)
    in_nuisance = np.zeros(n, dtype=bool)
    in_nuisance[nuisance] = True
    if reads.size and not np.all(in_nuisance[reads]):
        problems.append("an inference-fold assignment was read before the p-values")
    coef = payload.get("cate_coefficients") or []
    if not coef or not all(isinstance(c, float) and math.isfinite(c) for c in coef):
        problems.append("missing or non-finite CATE coefficients")
    return problems


def digest_record(payload):
    """What two commits' outputs are compared on."""
    folds = payload.get("folds") or {}
    return {
        "pvalues": payload.get("pvalues"),
        "rejected": payload.get("rejected"),
        "nuisance": folds.get("nuisance"),
        "inference": folds.get("inference"),
        "cate": payload.get("cate_coefficients"),
    }


def digest(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Every workload has a ``name``, an ``index`` that keys its seeds and a
# ``nominal_op_s``: roughly one sample's time at the baseline, which sizes the
# inputs written during set-up and the traced run's op count. Why each
# workload exists is in the module doc and in BENCHMARK.json.


@dataclasses.dataclass(frozen=True)
class Analyze:
    """``cli.main(["analyze", ...])`` on a trial CSV written during set-up."""

    name: str
    index: int
    n: int
    cuts: tuple
    method: str
    nominal_op_s: float
    ops_per_sample = 1

    def make_input(self, workdir, seed, i):
        trial_seed = derive_seed(seed, self.index, i)
        scenario = simlab.scenario_with_size("default", self.n)
        dataset, _, _ = simlab.generate(scenario, trial_seed)
        path = workdir / f"{self.name}-{i}.csv"
        data.write_dataset_csv(path, dataset)
        out = workdir / f"{self.name}-{i}.json"
        argv = ["analyze", "--data", str(path),
                "--quantile-cuts", ",".join(repr(c) for c in self.cuts),
                "--on", f"x{TRIAL_COVARIATE + 1}", "--method", self.method,
                "--seed", str(trial_seed), "--out", str(out)]
        labels = quantile_labels(dataset.x[:, TRIAL_COVARIATE], self.cuts)
        return {"argv": argv, "out": out, "labels": labels}

    def op(self, inp):
        return cli.main(inp["argv"])

    def report(self, inp, result):
        """The report bytes of a finished op; raises if the op failed."""
        if result != 0:
            raise RuntimeError(f"cli.main returned exit code {result}")
        return inp["out"].read_bytes()

    def check(self, inp, report):
        payload = json.loads(report)
        labels = inp["labels"] if self.method == "adasplit" else None
        return check_report(payload, len(self.cuts) + 1, labels), digest_record(payload)

    def audit(self, seed):
        return []


@dataclasses.dataclass(frozen=True)
class Simulate:
    """``simlab.run_replications(scenario, reps, seed, threads=1)``.

    The op is one replication; they are timed in batches of ``reps`` because
    a single replication's time depends on whether its selection loop
    converges early, and the median of such a two-humped distribution jumps
    between the humps from one seed to the next.
    """

    name: str
    index: int
    scenario: str
    reps: int
    nominal_op_s: float

    @property
    def ops_per_sample(self):
        return self.reps

    def make_input(self, workdir, seed, i):
        return {"seed": derive_seed(seed, self.index, i)}

    def op(self, inp):
        return simlab.run_replications(self.scenario, self.reps, inp["seed"],
                                       threads=1)

    def report(self, inp, result):
        rows = [dataclasses.asdict(r) for r in result]
        return json.dumps(rows, sort_keys=True).encode()

    def check(self, inp, report):
        rows = json.loads(report)
        k = len(simlab.get_scenario(self.scenario).cuts) + 1
        problems = []
        methods = sorted(r["method"] for r in rows)
        if methods != sorted(simlab.ALL_METHODS * self.reps):
            problems.append(f"expected {self.reps} results per method, got {methods}")
        for r in rows:
            problems += [f"{r['method']}: {p}" for p in check_report(r, k)]
            if r["method"] == "adasplit" and any(
                    share < DEFAULTS.rho - 1e-12 for share in r["proportions"]):
                problems.append("adasplit: inference share below rho")
        record = [{key: r[key] for key in ("method", "pvalues", "rejected", "proportions")}
                  for r in rows]
        return problems, record

    def audit(self, seed):
        """Folds and blindness of a full adaptive-split report on one trial
        of the scenario drawn from the workload seed; a replication result
        carries only its fold shares."""
        trial_seed = derive_seed(seed, self.index, WARMUP_INPUT)
        scenario = simlab.get_scenario(self.scenario)
        dataset, partition, _ = simlab.generate(scenario, trial_seed)
        report = simlab.run_method("adasplit", dataset, partition,
                                   DEFAULTS.replace(seed=trial_seed))
        labels = quantile_labels(dataset.x[:, TRIAL_COVARIATE], scenario.cuts)
        return check_report(report.to_json_dict(), len(scenario.cuts) + 1, labels)


WORKLOADS = {
    w.name: w for w in (
        Analyze("analyze-n4000", 0, 4000, (0.2, 0.4, 0.6, 0.8), "adasplit", 1.8),
        Simulate("simulate-default", 1, "default", 5, 0.8),
        Analyze("subgroups-k14", 2, 20000, tuple(i / 14 for i in range(1, 14)), "rt",
                1.8),
    )
}
