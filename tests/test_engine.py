"""The adaptive selection engine: initialization, criterion, convergence,
the full loop, and its structural guarantees."""

import cProfile
import csv
import functools
import json
import pstats
import tracemalloc

import numpy as np
import pytest

from adasplit import (
    AdaSplitConfig,
    ConfigError,
    Dataset,
    SubgroupPartition,
    ValidationError,
    diversity_scores,
    fit_wls,
    posterior_e,
    run,
    split_init,
    write_trace_csv,
)
import adasplit
from adasplit import engine, nuisance
from adasplit.engine import convergence_metric
from adasplit.simlab import generate, scenario_with_size
from oracles import knn_lists, reference_run, reference_selection_key


def small_problem(seed=0, n=120, k=3):
    gen = np.random.default_rng(seed)
    x = gen.uniform(-0.5, 0.5, size=(n, 3))
    z = (gen.random(n) < 0.5).astype(float)
    tau = 0.5 + x.sum(axis=1)
    y = 1.0 + x.sum(axis=1) + z * tau + gen.normal(size=n)
    ds = Dataset(x, y, z)
    labels = np.repeat(np.arange(k), n // k)
    return ds, SubgroupPartition.from_labels(labels)


def small_config(**kwargs):
    base = dict(seed=5, mc_draws=200, n0=10, knn_k=5)
    base.update(kwargs)
    return AdaSplitConfig(**base)


class TestSplitInit:
    def test_counts_per_subgroup(self):
        ds, part = generate("default", 3)[:2]
        mask = split_init(ds, part, AdaSplitConfig())
        assert mask.dtype == bool and mask.shape == (ds.n,)
        for k in range(len(part.groups)):
            taken = np.intersect1d(np.flatnonzero(mask), part.groups[k])
            assert taken.size == 5

    def test_picks_largest_diversity_scores(self):
        ds, part = small_problem(1)
        mask = split_init(ds, part, AdaSplitConfig(p_init=0.1, ridge_lambda=1e-9))
        scores = diversity_scores(ds.x, ridge=1e-9)
        for k in range(len(part.groups)):
            g = part.groups[k]
            taken = np.intersect1d(np.flatnonzero(mask), g)
            left = np.setdiff1d(g, taken)
            assert scores[taken].min() >= scores[left].max() - 1e-12

    def test_degenerate_proportion(self):
        # Subgroups of 40: 40 / 40 is the first share reaching 0.999, which
        # leaves no unit to test.
        ds, part = small_problem(2)
        pattern = r"p_init=0\.999 seeds all 40 units of subgroup 0"
        with pytest.raises(ConfigError, match=pattern):
            split_init(ds, part, AdaSplitConfig(p_init=0.999))
        with pytest.raises(ConfigError, match=pattern):
            run(ds, part, small_config(p_init=0.999))

    def test_seed_fold_smaller_than_d_plus_one(self):
        # n = 60 in five subgroups of 12: 1 / 12 reaches 0.05, 1 unit each, so
        # the seed fold holds 5 units while the residual regression needs 6.
        ds, part, _ = generate(scenario_with_size("default", 60), 0)
        pattern = r"p_init=0\.05 seeds a nuisance fold of 5 units.*n=60, d=5"
        with pytest.raises(ConfigError, match=pattern):
            split_init(ds, part, AdaSplitConfig())
        with pytest.raises(ConfigError, match=pattern):
            run(ds, part, AdaSplitConfig())
        assert split_init(ds, part, AdaSplitConfig(p_init=0.1)).sum() == 10

    def test_seed_split_below_the_floor(self):
        # Subgroups of 100: p_init = 0.6 seeds 60 units and leaves 40 to
        # test, under the 50 that rho = 0.5 keeps.
        ds, part, _ = generate("default", 1)
        pattern = (r"^p_init=0\.6 leaves 40 of the 100 units of subgroup 0 to test, "
                   r"below the floor rho=0\.5 sets \(50\)$")
        with pytest.raises(ConfigError, match=pattern):
            split_init(ds, part, AdaSplitConfig(p_init=0.6))
        with pytest.raises(ConfigError, match=pattern):
            run(ds, part, AdaSplitConfig(seed=1, p_init=0.6))
        # Exactly at the floor is allowed: the loop has nothing to move.
        report = run(ds, part, AdaSplitConfig(seed=1, p_init=0.5, mc_draws=50))
        assert report.iterations == 0 and report.folds.proportions == (0.5,) * 5

    @pytest.mark.parametrize("size,rho,error,pattern", [
        # No p_init seeds fewer than one unit, so a one-unit subgroup is bad
        # input; a floor equal to the size is rho's to lower.
        (1, 0.5, ValidationError, r"^subgroup 3 has 1 unit; adasplit needs at least 2 "),
        (3, 0.9, ConfigError, r"^rho=0\.9 keeps all 3 units of subgroup 3 to test, "
                              r"leaving none to seed; lower rho$"),
    ], ids=["one-unit", "floor-equals-size"])
    def test_subgroup_that_cannot_be_split(self, size, rho, error, pattern):
        ds, part = small_problem(6, n=120)
        labels = part.labels()
        labels[:size] = 3
        with pytest.raises(error, match=pattern):
            run(ds, SubgroupPartition.from_labels(labels), small_config(rho=rho))

    @pytest.mark.parametrize("sizes,kwargs,error,pattern", [
        # A direct call names a one-unit subgroup, not a p_init no value fixes,
        # and a floor equal to the size names rho.
        ((40, 40, 39, 1), {}, ValidationError,
         r"^subgroup 3 has 1 unit; adasplit needs at least 2 "),
        ((40, 40, 37, 3), dict(rho=0.9), ConfigError,
         r"^rho=0\.9 keeps all 3 units of subgroup 3 to test, leaving none to seed"),
        # With several faults the first is reported: the size checks run over
        # every subgroup before any p_init check ...
        ((40, 40, 39, 1), dict(p_init=0.999), ValidationError,
         r"^subgroup 3 has 1 unit"),
        ((40, 40, 37, 3), dict(p_init=0.999, rho=0.9), ConfigError,
         r"^rho=0\.9 keeps all 3 units of subgroup 3 "),
        # ... and a seed fold under d + 1 outranks a subgroup below its floor.
        ((10,), dict(p_init=0.3, rho=0.8), ConfigError,
         r"^p_init=0\.3 seeds a nuisance fold of 3 units"),
    ], ids=["one-unit", "floor-equals-size", "one-unit-first", "floor-before-p-init",
            "seed-size-before-floor"])
    def test_direct_call_raises_what_run_raises(self, sizes, kwargs, error, pattern):
        ds, _ = small_problem(6, n=sum(sizes))
        part = SubgroupPartition.from_labels(np.repeat(np.arange(len(sizes)), sizes))
        cfg = small_config(**kwargs)
        with pytest.raises(error, match=pattern):
            split_init(ds, part, cfg)
        with pytest.raises(error, match=pattern):
            run(ds, part, cfg)

    def test_seed_count_is_the_cut_rank(self):
        # 7 / 100 reaches 0.07 although 0.07 * 100 rounds above 7, so a
        # 100-unit subgroup seeds 7 units, not ceil(0.07 * 100) = 8.
        ds, part = small_problem(4, n=100, k=1)
        assert split_init(ds, part, AdaSplitConfig(p_init=0.07)).sum() == 7
        assert split_init(ds, part, AdaSplitConfig()).sum() == 5

    def test_covariates_too_large_to_square(self):
        # The scores' solver error alone: no overflow warning comes before it.
        ds, part, _ = generate("default", 1)
        with pytest.raises(ValidationError, match="covariates too large to square"):
            split_init(Dataset(ds.x * 1e160, ds.y, ds.z), part, AdaSplitConfig())

    def test_deterministic(self):
        ds, part = small_problem(3)
        a = split_init(ds, part, AdaSplitConfig(p_init=0.07))
        b = split_init(ds, part, AdaSplitConfig(p_init=0.07))
        assert np.array_equal(a, b)


class TestInferenceFloor:
    def test_smallest_count_reaching_rho_times_size(self):
        gen = np.random.default_rng(12)
        rhos = [0.5, 0.95, 0.96, 0.3, 0.1, 0.7, 0.55] + list(gen.uniform(size=50))
        for size in (1, 2, 3, 37, 40, 41, 100, 1000):
            for rho in rhos:
                want = next(j for j in range(size + 1) if j / size >= rho)
                assert engine.inference_floor(size, rho) == want, (size, rho)
        assert engine.inference_floor(40, 0.95) == 38
        assert engine.inference_floor(40, 0.96) == 39
        # 0.55 * 100 rounds above 55, yet 55 / 100 already reaches 0.55.
        assert engine.inference_floor(100, 0.55) == 55


class TestSelectionCriterion:
    # The key takes 2 e_hat - 1, not e_hat.
    def test_values(self):
        assert engine._selection_key(-1.0, 2 * 0.95 - 1) == pytest.approx(-0.9)
        assert engine._selection_key(0.0, 2 * 0.99 - 1) == 0.0
        assert engine._selection_key(2.0, 2 * 0.5 - 1) == 0.0

    def test_vectorized(self):
        crit = engine._selection_key([-1.0, 1.0], [2 * 0.9 - 1, 2 * 0.6 - 1])
        assert np.allclose(crit, [-0.8, 0.2])


class TestConvergenceMetric:
    def test_identical_models(self):
        gen = np.random.default_rng(4)
        x = gen.normal(size=(10, 2))
        pred = fit_wls(x, gen.normal(size=10)).predict(x)
        assert convergence_metric(pred, pred) == 0.0

    def test_constant_shift(self):
        gen = np.random.default_rng(5)
        x = gen.normal(size=(12, 2))
        old = fit_wls(x, gen.normal(size=12))
        new_coef = old.coef.copy()
        new_coef[0] += 0.3
        from adasplit import LinearModel

        new = LinearModel(new_coef)
        pred = old.predict(x)
        expected = 0.3**2 * 12 / np.sum((pred - pred.mean()) ** 2)
        assert convergence_metric(new.predict(x), pred) == pytest.approx(expected)

    def test_orthogonal_predictions_at_least_one(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        assert convergence_metric(-x, x) >= 1.0

    def test_constant_old_predictions(self):
        old = np.full(5, 2.0)
        assert convergence_metric(np.full(5, 2.0), old) == 0.0
        assert convergence_metric(np.full(5, 2.5), old) == np.inf

    def test_needs_two_points(self):
        # A fold of one unit says nothing about convergence.
        assert convergence_metric(np.ones(1), np.ones(1)) == np.inf
        assert convergence_metric(np.ones(0), np.ones(0)) == np.inf


class TestRun:
    def test_deterministic_byte_identical(self):
        ds, part = small_problem(6)
        cfg = small_config()
        a = run(ds, part, cfg)
        b = run(ds, part, cfg)
        assert a.to_json() == b.to_json()

    def test_monotone_fold_growth_and_floor(self):
        ds, part = small_problem(7)
        cfg = small_config()
        report = run(ds, part, cfg)
        trace = report.diagnostics["trace"]
        props = np.array([row["proportions"] for row in trace])
        assert np.all(np.diff(props, axis=0) <= 1e-12)
        sizes = np.array([g.size for g in part.groups])
        assert np.all(np.array(report.folds.proportions) >= cfg.rho - 1e-12)
        # iterations count matches the trace and the fold sizes add up
        assert report.iterations == len(trace)
        total = len(report.folds.nuisance) + sum(len(j) for j in report.folds.inference)
        assert total == ds.n

    def test_blindness_log(self):
        ds, part = small_problem(8)
        report = run(ds, part, small_config())
        read_before = set(report.diagnostics["z_reads_before_pvalues"])
        inference = {i for g in report.folds.inference for i in g}
        assert read_before.isdisjoint(inference)
        nuisance = set(report.folds.nuisance)
        assert read_before <= nuisance

    def test_pvalues_in_range_and_rejection_rule(self):
        from adasplit import closed_testing

        ds, part = small_problem(9)
        cfg = small_config()
        report = run(ds, part, cfg)
        m = cfg.mc_draws
        for p in report.pvalues:
            assert 1.0 / (m + 1) <= p <= 1.0
        assert report.rejected == closed_testing(report.pvalues, cfg.q)

    def test_partition_size_mismatch(self):
        ds, part = small_problem(11)
        other = SubgroupPartition.from_labels(np.zeros(30, dtype=int))
        with pytest.raises(ValidationError, match="sizes differ"):
            run(ds, other, small_config())

    def test_trace_csv(self, tmp_path):
        ds, part = small_problem(13)
        report = run(ds, part, small_config())
        path = tmp_path / "trace.csv"
        write_trace_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["t", "unit", "subgroup", "criterion", "l"]
        assert len(rows) - 1 == report.iterations
        # Only the adaptive split has a trace to write.
        rt = adasplit.run_method("rt", ds, part, small_config())
        with pytest.raises(ValidationError, match="^report carries no trace$"):
            write_trace_csv(rt, tmp_path / "rt.csv")
        assert not (tmp_path / "rt.csv").exists()

    def test_trace_csv_of_a_zero_step_run(self, tmp_path):
        # At rho = 0.95 the seed split leaves each subgroup of 40 at its
        # floor of 38, so the loop stops there before its first step; the
        # header still has pi_1..pi_K.
        ds, part = small_problem(13)
        report = run(ds, part, small_config(rho=0.95))
        assert report.iterations == 0
        assert report.diagnostics["stop_reason"] == "floor"
        path = tmp_path / "trace.csv"
        write_trace_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["t", "unit", "subgroup", "criterion", "l",
                         "pi_1", "pi_2", "pi_3"]]

    def test_trace_replay_matches(self):
        ds, part = small_problem(14)
        r1 = run(ds, part, small_config())
        r2 = run(ds, part, small_config())
        seq1 = [(row["unit"], row["subgroup"]) for row in r1.diagnostics["trace"]]
        seq2 = [(row["unit"], row["subgroup"]) for row in r2.diagnostics["trace"]]
        assert seq1 == seq2

    @pytest.mark.parametrize("seed,kwargs,stop_reason", [
        (8, {}, "converged"),
        (8, {"eps_l": 1e-12}, "floor"),
        (8, {"knn_k": 120}, "converged"),
        (6, {"knn_k": 120}, "floor"),
    ])
    def test_trace_leaves_the_report_alone(self, seed, kwargs, stop_reason):
        # Collecting the trace changes nothing else in the report.
        ds, part = small_problem(seed)
        cfg = small_config(**kwargs)
        traced = json.loads(run(ds, part, cfg, collect_trace=True).to_json())
        bare = json.loads(run(ds, part, cfg, collect_trace=False).to_json())
        assert traced["diagnostics"]["stop_reason"] == stop_reason
        assert len(traced["diagnostics"].pop("trace")) == traced["iterations"] > 0
        assert "trace" not in bare["diagnostics"]
        assert json.dumps(traced) == json.dumps(bare)


def duplicated_problem(seed=2, n=120, k=3):
    """Every (x, y) point appears twice, so neighbor distances tie."""
    gen = np.random.default_rng(seed)
    half = n // 2
    x = gen.uniform(-0.5, 0.5, size=(half, 3))
    x = np.vstack([x, x])
    z = (gen.random(n) < 0.5).astype(float)
    y0 = 1.0 + x[:half].sum(axis=1) + gen.normal(size=half)
    y = np.concatenate([y0, y0]) + z * x.sum(axis=1)
    return Dataset(x, y, z), SubgroupPartition.from_labels(np.arange(n) % k)


class TestLoopState:
    @pytest.mark.parametrize("n,kappa", [
        *(pytest.param(120, kappa, id=str(kappa)) for kappa in (1, 10, 119, 120, 1000)),
        pytest.param(1500, 10, id="n1500-10"),
    ])
    def test_vote_counts_track_neighbor_index(self, n, kappa, monkeypatch):
        # After every move, a loop step's unit and the prune batch alike,
        # every fold member has been queried, and every queried unit's count
        # is exactly the number of fold members in its oracle leave-one-out
        # list, or |I| when kappa >= n; each subgroup's held-out count is
        # exact and never below its floor, and the blocked units are exactly
        # the fold and the subgroups at their floors. The seed query takes
        # exactly the seed fold, a loop miss the mover plus the _MIN_QUERY
        # unqueried, unblocked units it can (at n = 1500 that leaves rows
        # unqueried), and the prune batch only its own unqueried units.
        ds, part = duplicated_problem(n=n)
        neighbors, loo_neighbors = knn_lists(ds.x, ds.y, min(kappa, ds.n))
        lists = neighbors if loo_neighbors is None else loo_neighbors
        moved, states, misses = [], [], []
        original_move, original_query = engine._LoopState.move, engine._LoopState.query

        def checked_query(state, units, crit=None):
            before = state.queried.copy()
            free = np.count_nonzero(~before & (state.penalty == 0.0))
            original_query(state, units, crit)
            new = np.flatnonzero(state.queried & ~before)
            if not before.any():
                assert crit is None
                assert np.array_equal(new, np.flatnonzero(state.mask))
            elif crit is None:
                assert np.all(np.isin(new, units))
            else:
                assert units.size == 1 and units[0] in new
                assert new.size == min(free - 1, engine._MIN_QUERY) + 1
                misses.append(new.size)

        def checked_move(state, j, crit=None):
            original_move(state, j, crit)
            moved.extend(np.atleast_1d(j))
            states.append(state)
            rows = np.arange(n) if state.nbr is None else np.flatnonzero(state.queried)
            assert np.all(np.isin(np.flatnonzero(state.mask), rows))
            expected = np.count_nonzero(state.mask[lists[rows]], axis=1)
            assert np.array_equal(state.counts[rows], expected)
            held = [np.count_nonzero(~state.mask[g]) for g in part.groups]
            assert np.array_equal(state.j_sizes, held)
            assert np.all(state.j_sizes >= state.floor)
            # The key's penalty is +inf exactly on the fold and on every
            # subgroup at its floor, and 0 elsewhere.
            blocked = state.mask | (state.j_sizes <= state.floor)[part.labels()]
            assert np.array_equal(state.penalty, np.where(blocked, np.inf, 0.0))

        monkeypatch.setattr(engine._LoopState, "query", checked_query)
        monkeypatch.setattr(engine._LoopState, "move", checked_move)
        # At rho = 0.7 the prune pass stops at the floor in most runs.
        cfg = small_config(n0=5, knn_k=kappa, eps_l=0.5, rho=0.7)
        report = run(ds, part, cfg)
        # Both kinds of move happened: more units moved than loop steps.
        assert 0 < report.iterations < len(moved)
        assert bool(misses) == (kappa < n)
        if n > engine._MIN_QUERY:
            assert engine._MIN_QUERY + 1 in misses
            assert not states[-1].queried.all()

    @pytest.mark.parametrize("n", [500, 70000])
    def test_reverse_lists_are_the_stable_argsort(self, n, monkeypatch):
        # Synthetic lists stand in for the index. After every query the
        # reverse lists are the stable argsort of the queried rows' lists,
        # in ascending row order, whatever order the rows were queried in;
        # above 2^16 units they take a second radix pass over the high bits.
        kappa = 7
        gen = np.random.default_rng(n)
        lists = gen.integers(0, n, size=(n, kappa))

        class Lists:
            def __init__(self, x, y, knn_k):
                self.kappa = knn_k

            def lists(self, units):
                return lists[units]

        monkeypatch.setattr(engine, "NeighborIndex", Lists)
        x = np.arange(n, dtype=float)[:, None]
        ds = Dataset(x, x[:, 0], np.zeros(n))
        part = SubgroupPartition.from_labels(np.zeros(n, dtype=int))
        mask = np.zeros(n, dtype=bool)
        mask[:10] = True
        state = engine._LoopState(ds, part, np.zeros(n), mask,
                                  engine._AssignmentLog(ds.z), AdaSplitConfig())
        state.index(ds.x, ds.y, kappa)
        order = gen.permutation(np.arange(10, n))
        for batch in (None, order[:n // 10], order[n // 10:n // 2], order):
            if batch is not None:
                state.query(batch)
            rows = np.flatnonzero(state.queried)
            want = rows[np.argsort(lists[rows], axis=None, kind="stable") // kappa]
            assert np.array_equal(state.rev, want)
            ptr = np.concatenate(([0], np.cumsum(np.bincount(lists[rows].ravel(),
                                                             minlength=n))))
            assert np.array_equal(state.rev_ptr, ptr)
        assert state.queried.all()

    @pytest.mark.parametrize("scenario,seed,kwargs,batch", [
        ("default", 1, {}, False),                # converges, prunes nothing
        ("high_noise", 1, {}, True),              # converges, prunes 18 at once
        ("default", 2, {"knn_k": 10**6}, True),   # no index; prunes 22 at once
    ])
    def test_assignments_are_read_as_units_join_the_fold(self, scenario, seed, kwargs,
                                                         batch, monkeypatch):
        # The seed fold's assignments are read when the state is built, and
        # each moved unit's when it moves: the units read are always exactly
        # the fold, never a held-out unit and never a fold member late.
        moves = []

        class Checked(engine._LoopState):
            def __init__(self, *args):
                super().__init__(*args)
                assert np.array_equal(self.zlog.reads(), np.flatnonzero(self.mask))

            def move(self, j, crit=None):
                super().move(j, crit)
                moves.append(np.size(j))
                assert np.array_equal(self.zlog.reads(), np.flatnonzero(self.mask))

        monkeypatch.setattr(engine, "_LoopState", Checked)
        ds, part, _ = generate(scenario, seed)
        report = run(ds, part, AdaSplitConfig(seed=seed, **kwargs), collect_trace=False)
        assert report.diagnostics["stop_reason"] == "converged"
        assert moves[:report.iterations] == [1] * report.iterations
        assert (len(moves) > report.iterations and moves[-1] > 1) == batch

    @pytest.mark.parametrize("scenario,n,seed,kwargs", [
        *(pytest.param("default", 2000, seed, {}, id=f"default-2000-s{seed}")
          for seed in range(3)),
        pytest.param("default", 4000, 0, {}, id="default-4000-s0"),
        pytest.param("default", 1500, 3, {"eps_l": 1e-12}, id="floor-run"),
        pytest.param("default", 2000, 0, {"knn_k": 1}, id="kappa-1"),
        pytest.param("grid", 2000, 0, {}, id="grid-binary"),
    ])
    def test_lists_on_demand_match_every_row_at_once(self, scenario, n, seed, kwargs,
                                                     monkeypatch):
        # Rows are queried as the loop reaches them; a run that queries
        # every row up front gives the same report, byte for byte.
        ds, part = (grid_problem(n, seed) if scenario == "grid" else
                    generate(scenario_with_size(scenario, n), seed)[:2])
        cfg = AdaSplitConfig(seed=seed, **kwargs)
        states = recorded_states(monkeypatch)
        lazy = run(ds, part, cfg).to_json()
        queried = np.count_nonzero(states[-1].queried)

        class Eager(engine._LoopState):
            def query(self, units, crit=None):
                super().query(np.arange(self.mask.size), crit)

        monkeypatch.setattr(engine, "_LoopState", Eager)   # a Recorded too
        assert run(ds, part, cfg).to_json() == lazy
        assert states[-1].queried.all()
        if n == 4000:
            # A converged run moves only part of the units into the fold,
            # and queries under half of all rows: its seed fold alone, the
            # mover and _MIN_QUERY more at the first loop miss, then the
            # prune batch (1041 rows in all for seed 0).
            assert json.loads(lazy)["diagnostics"]["converged"]
            assert queried < n / 2

    def test_knn_k_at_least_n_builds_no_index(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("NeighborIndex built with knn_k >= n")

        ds, part = small_problem(17)
        monkeypatch.setattr(engine, "NeighborIndex", refuse)
        reports = [run(ds, part, small_config(knn_k=k)) for k in (ds.n, 10**6)]
        assert reports[0].pvalues == reports[1].pvalues
        assert reports[0].folds == reports[1].folds

    def test_knn_k_n_memory_is_linear_in_n(self):
        # A full n x n neighbor order at this size peaks at about 146 MiB.
        ds, part, _ = generate(scenario_with_size("default", 3000), 3)
        cfg = AdaSplitConfig(seed=1, knn_k=ds.n)
        tracemalloc.start()
        try:
            run(ds, part, cfg, collect_trace=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("case", ["floor-run", "prune-batch"])
    def test_pooled_terms_need_no_mask(self, case, monkeypatch):
        # imputed_scale is exactly 0 on the fold and 2 (y - mu) off it, and
        # r exactly 0 off the fold, so the pooled right-hand side, formed
        # as two_e * imputed_scale + r, equals the masked form
        # X' np.where(mask, r, two_e 2 (y - mu)) bit for bit: at every
        # pooled fit of a floor run, and at the final one after a prune
        # batch of 18 units.
        rhs, pooled_masks = [], []
        solve = engine._cho_solve

        def recorded_solve(factor, b):
            rhs.append(b)
            return solve(factor, b)

        monkeypatch.setattr(engine, "_cho_solve", recorded_solve)

        class Checked(engine._LoopState):
            def pooled(self, two_e):
                coef = super().pooled(two_e)
                mask, scale = self.mask, 2.0 * self.resid_y
                assert np.all(self.imputed_scale[mask] == 0.0)
                assert self.imputed_scale[~mask].tobytes() == scale[~mask].tobytes()
                assert np.all(self.r[~mask] == 0.0)
                terms = np.where(mask, self.r, two_e * scale)
                assert rhs.pop().tobytes() == (self.xd.T @ terms).tobytes()
                pooled_masks.append(mask.copy())
                return coef

        monkeypatch.setattr(engine, "_LoopState", Checked)
        if case == "floor-run":
            ds, part = floor_problem()
            cfg = AdaSplitConfig(seed=1, eps_l=1e-12)
        else:
            ds, part, _ = generate("high_noise", 1)
            cfg = AdaSplitConfig(seed=1)
        report = run(ds, part, cfg, collect_trace=False)
        assert len(pooled_masks) == report.iterations + 1
        moved_by_prune = pooled_masks[-1].sum() - pooled_masks[-2].sum()
        if case == "floor-run":
            assert report.diagnostics["stop_reason"] == "floor"
            assert report.iterations > 600
        else:
            assert report.diagnostics["stop_reason"] == "converged"
            assert moved_by_prune == 18

    def test_one_pass_posterior_is_bit_for_bit(self, monkeypatch):
        # The loop forms 2 e_hat - 1 in one pass over the posterior's
        # denominator and its key from that, so reference_run, which calls
        # posterior_e and forms sign(tau) |2 e_hat - 1| itself
        # (reference_selection_key), stays an exact oracle of every pick.
        # On crafted residuals and CATEs: |t| at and beyond the
        # clip bound 36 on both sides, t = 0 from a zero residual and from
        # tau = +0 and -0, and nu2 at the smallest noise floor, 1e-12.
        resid = np.array([1.0, -1.0, 36.0, 2.0, -3.0, 0.0, 0.0, 4.0, -4.0, 1e-7, 3e-7, 0.5])
        tau = np.array([36.0, 40.0, 1.0, -50.0, 20.0, 2.0, -2.0, 0.0, -0.0, 1e-6, -2e-6, 0.3])
        t = resid * tau   # the logit at nu2 = 1
        assert np.count_nonzero(np.abs(t) >= 36.0) == 5 and np.count_nonzero(t == 0.0) == 4
        for nu2 in (1.0, 1e-12):
            e = posterior_e(resid, 0.0, tau, nu2)
            two_e = nuisance._signed_certainty(resid, tau, nu2)
            assert two_e.tobytes() == (2.0 * e - 1.0).tobytes()
            key = engine._selection_key(tau, two_e)
            assert key.tobytes() == reference_selection_key(tau, e).tobytes()

        # And in the loop itself, at every refit and every pick of a run.
        last_e = []

        class Checked(engine._LoopState):
            def __init__(self, dataset, partition, mu_vals, *args):
                super().__init__(dataset, partition, mu_vals, *args)
                self.y_mu = dataset.y, mu_vals

            def refit(self):
                tau_vals, two_e, nu2 = super().refit()
                e = posterior_e(*self.y_mu, tau_vals, nu2)
                assert two_e.tobytes() == (2.0 * e - 1.0).tobytes()
                last_e.append(e)
                return tau_vals, two_e, nu2

        key = engine._selection_key

        def checked_key(tau_vals, two_e):
            got = key(tau_vals, two_e)
            assert got.tobytes() == reference_selection_key(tau_vals, last_e[-1]).tobytes()
            keys.append(got)
            return got

        monkeypatch.setattr(engine, "_LoopState", Checked)
        monkeypatch.setattr(engine, "_selection_key", checked_key)
        for ds, part in (generate("default", 1)[:2], grid_problem(600, 1)):
            keys = []
            report = run(ds, part, AdaSplitConfig(seed=1), collect_trace=False)
            assert len(keys) == report.iterations + (report.diagnostics["stop_reason"] == "floor")


def sweep_cases():
    cases = []
    for scenario, n in [("default", None), ("null", None), ("toy_fig3", None),
                        ("high_noise", None), ("larger_n", None),
                        ("default", 60), ("default", 150), ("default", 300),
                        ("default", 1000), ("default", 2000)]:
        size = n or {"toy_fig3": 200, "larger_n": 1000}.get(scenario, 500)
        for kappa in (1, 10, size):
            cases.append((scenario, n, kappa))
        if scenario == "toy_fig3" or n in (150, 1000):
            cases += [(scenario, n, size - 1), (scenario, n, 4 * size)]
    return cases


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, collect_trace=True, **kwargs).to_json()
    except Exception as exc:
        return type(exc), str(exc)


def reference(*args, collect_trace):
    return reference_run(adasplit, *args, collect_trace=collect_trace)


# The golden rule: decisions exactly, the loop's running-sum arithmetic
# (CATE coefficients, nu2, l, the trace criterion) to TOL.
EXACT = ("pvalues", "rejected", "folds", "iterations")
EXACT_DIAGNOSTICS = ("converged", "z_reads_before_pvalues", "pvalue_flags")
EXACT_TRACE = ("t", "unit", "subgroup", "proportions")
TOL = 1e-9


def assert_matches_reference(got, want):
    if isinstance(want, tuple):           # both must fail the same way
        assert got == want
        return
    got, want = json.loads(got), json.loads(want)
    for key in EXACT:
        assert got[key] == want[key], key
    np.testing.assert_allclose(got["cate_coefficients"], want["cate_coefficients"],
                               rtol=0, atol=TOL)
    gd, wd = got["diagnostics"], want["diagnostics"]
    for key in EXACT_DIAGNOSTICS:
        assert gd[key] == wd[key], key
    assert gd["stop_reason"] == ("converged" if wd["converged"] else "floor")
    assert abs(gd["nu2"] - wd["nu2"]) <= TOL
    assert len(gd["l"]) == len(wd["l"])
    for a, b in zip(gd["l"], wd["l"]):
        # inf serializes as the string "Infinity" and must match exactly
        assert a == b if isinstance(b, str) else abs(a - b) <= TOL
    assert len(gd["trace"]) == len(wd["trace"])
    for a, b in zip(gd["trace"], wd["trace"]):
        assert [a[k] for k in EXACT_TRACE] == [b[k] for k in EXACT_TRACE]
        assert abs(a["criterion"] - b["criterion"]) <= TOL


def grid_problem(n, seed):
    """Three integer covariates in 0..3 and a binary outcome: the rows tie
    in distance everywhere, so most lists take the index's full scan."""
    gen = np.random.default_rng(seed)
    x = gen.integers(0, 4, size=(n, 3)).astype(float)
    z = (gen.random(n) < 0.5).astype(float)
    y = (gen.random(n) < 0.3 + 0.2 * z * (x[:, 0] > 1)).astype(float)
    return Dataset(x, y, z), SubgroupPartition.from_labels((x[:, 1] > 1).astype(int))


def floor_problem(n=1500, seed=3):
    ds, part, _ = generate(scenario_with_size("default", n), seed)
    return ds, part


@functools.cache
def sweep_outcomes(scenario, n, kappa):
    """The engine's and the reference's outcome on one sweep case."""
    name = scenario_with_size(scenario, n) if n else scenario
    seed = 1 + (kappa % 3)
    ds, part, _ = generate(name, seed)
    cfg = AdaSplitConfig(seed=seed, knn_k=kappa)
    return outcome(run, ds, part, cfg), outcome(reference, ds, part, cfg)


def decisions(report):
    """The report's exact fields, serialized: the bytes that must agree."""
    if isinstance(report, tuple):
        return repr(report)
    doc = json.loads(report)
    kept = {key: doc[key] for key in EXACT}
    kept["diagnostics"] = {key: doc["diagnostics"][key] for key in EXACT_DIAGNOSTICS}
    kept["trace"] = [[step[k] for k in EXACT_TRACE]
                     for step in doc["diagnostics"]["trace"]]
    return json.dumps(kept, sort_keys=True)


class TestReferenceLoop:
    @pytest.mark.parametrize("scenario,n,kappa", sweep_cases())
    def test_reports_byte_identical(self, scenario, n, kappa):
        # The decisions (p-values, rejections, folds, the selection trace)
        # serialize to the same bytes as the reference's.
        got, want = sweep_outcomes(scenario, n, kappa)
        assert decisions(got) == decisions(want)

    @pytest.mark.parametrize("scenario,n,kappa", sweep_cases())
    def test_reports_match_reference(self, scenario, n, kappa):
        assert_matches_reference(*sweep_outcomes(scenario, n, kappa))

    def test_converged_n4000_matches_reference(self):
        # The size of the benchmark's analyze trials, where the loop's
        # column-major products and one-pass posterior pay off most.
        got, want = sweep_outcomes("default", 4000, 10)
        assert json.loads(got)["diagnostics"]["converged"]
        assert decisions(got) == decisions(want)
        assert_matches_reference(got, want)

    def test_floor_run_matches_reference(self):
        # eps_l = 1e-12 never converges: 675 running-sum updates.
        ds, part = floor_problem()
        cfg = AdaSplitConfig(seed=1, eps_l=1e-12)
        got = outcome(run, ds, part, cfg)
        assert json.loads(got)["diagnostics"]["stop_reason"] == "floor"
        assert_matches_reference(got, outcome(reference, ds, part, cfg))


def recorded_states(monkeypatch):
    """Loop states the engine builds from now on, in order."""
    states = []

    class Recorded(engine._LoopState):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(self)

    monkeypatch.setattr(engine, "_LoopState", Recorded)
    return states


def assert_sums_fresh(state, ds):
    """The running sums equal a fresh recomputation over the final fold,
    to 1e-10 of each sum's largest entry."""
    nuis = np.flatnonzero(state.mask)
    k = state.kappa
    w = 1.0 / np.clip(state.counts[nuis] / k, 1.0 / (2.0 * k), 1.0)
    xd = np.hstack([np.ones((nuis.size, 1)), ds.x[nuis]])
    r = state.resid_y[nuis] / (ds.z[nuis] - 0.5)
    fresh = {"g_w": xd.T @ (w[:, None] * xd), "b_w": xd.T @ (w * r)}
    for name, want in fresh.items():
        got = getattr(state, name)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), name
    assert np.array_equal(state.w != 0.0, state.mask)


class TestRunningSums:
    @pytest.mark.parametrize("kappa", [1, 10])
    def test_no_drift_after_floor_run(self, kappa, monkeypatch):
        states = recorded_states(monkeypatch)
        ds, part = floor_problem()
        report = run(ds, part, AdaSplitConfig(seed=1, eps_l=1e-12, knn_k=kappa),
                     collect_trace=False)
        assert report.diagnostics["stop_reason"] == "floor"
        assert report.iterations > 600
        assert_sums_fresh(states[0], ds)

    def test_pruned_batch_is_rebuilt(self, monkeypatch):
        # This run converges and the prune pass then moves 18 units at
        # once; the final sums must cover all of them.
        states = recorded_states(monkeypatch)
        ds, part, _ = generate("high_noise", 1)
        report = run(ds, part, AdaSplitConfig(seed=1), collect_trace=False)
        state = states[0]
        assert report.diagnostics["stop_reason"] == "converged"
        pruned = state.mask.sum() - (split_init(ds, part, report.config).sum()
                                     + report.iterations)
        assert pruned > 1
        assert_sums_fresh(state, ds)

    def test_single_move_is_added_at_once(self):
        # move, not the next refit, brings current sums up to date.
        ds, part = small_problem(7)
        cfg = small_config()
        state = engine._LoopState(ds, part, fit_wls(ds.x, ds.y).predict(ds.x),
                                  split_init(ds, part, cfg),
                                  engine._AssignmentLog(ds.z), cfg)
        state.index(ds.x, ds.y, cfg.knn_k)
        state.refit()
        state.move(int(np.flatnonzero(state.penalty == 0.0)[0]))
        assert_sums_fresh(state, ds)


class TestStepCost:
    def test_python_calls_per_step(self):
        # At n = 500 a step's cost is per-call overhead, not arithmetic, so
        # count the calls cProfile sees, per step, over 20 whole runs: the
        # index, the p-values and the report are spread over the steps.
        # This is about 40 (108 when every solve built a model and the
        # posterior, key and right-hand side went through numpy's Python
        # wrappers); numpy < 1.25, whose array functions dispatch through
        # two more Python-level calls each, adds about 7.
        cases = [generate("default", seed) for seed in range(20)]
        profile = cProfile.Profile()
        steps = 0
        profile.enable()
        for seed, (ds, part, _) in enumerate(cases):
            steps += run(ds, part, AdaSplitConfig(seed=seed), collect_trace=False).iterations
        profile.disable()
        assert steps > 2000
        assert pstats.Stats(profile).total_calls / steps <= 55


class TestStopReason:
    def test_converged(self):
        ds, part, _ = generate("default", 1)
        report = run(ds, part, AdaSplitConfig(seed=1))
        assert report.diagnostics["converged"]
        assert report.diagnostics["stop_reason"] == "converged"

    def test_floor(self):
        # eps_l = 1e-12 is never met, so the loop runs until every subgroup
        # sits at its rho floor.
        ds, part = small_problem(6)
        report = run(ds, part, small_config(eps_l=1e-12))
        assert not report.diagnostics["converged"]
        assert report.diagnostics["stop_reason"] == "floor"
        sizes = np.array([g.size for g in part.groups])
        held = np.array([len(j) for j in report.folds.inference])
        assert np.all((held - 1) / sizes < report.config.rho)
