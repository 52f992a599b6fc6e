"""Data model, validation, partitioning, configuration."""

import json
import math

import numpy as np
import pytest

from adasplit import (
    AdaSplitConfig,
    AnalysisReport,
    ConfigError,
    Dataset,
    FoldSnapshot,
    SubgroupPartition,
    ValidationError,
    partition_by_quantiles,
)
from adasplit.data import _cut_rank, _json_indent2
from adasplit.engine import run
from adasplit.simlab import generate


class TestValidateDataset:
    """The checks ``Dataset`` makes on construction."""

    def test_well_formed_rows(self):
        ds = Dataset([[0.1], [0.2], [0.3]], [1, 2, 3], [0, 1, 0])
        assert ds.n == 3 and ds.d == 1

    def test_non_binary_assignment(self):
        with pytest.raises(ValidationError, match="non-binary assignment"):
            Dataset([[0.1]], [1.0], [2.0])

    def test_empty_input(self):
        with pytest.raises(ValidationError, match="n >= 1"):
            Dataset(np.empty((0, 1)), [], [])

    def test_nan_covariate_and_outcome(self):
        with pytest.raises(ValidationError, match="covariate"):
            Dataset([[np.nan]], [1.0], [1.0])
        with pytest.raises(ValidationError, match="outcome"):
            Dataset([[1.0]], [np.inf], [1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            Dataset([[1.0], [2.0]], [1.0], [1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_assignment_rejected(self, bad):
        with pytest.raises(ValidationError, match="^non-finite assignment value$"):
            Dataset([[1.0], [2.0]], [1.0, 2.0], [1.0, bad])

    def test_oracles_are_independent_of_the_package(self):
        import pathlib

        source = (pathlib.Path(__file__).parent / "oracles.py").read_text()
        assert "adasplit" not in source

    def test_immutable_arrays(self):
        ds = Dataset([[1.0]], [1.0], [1.0])
        with pytest.raises(ValueError):
            ds.y[0] = 2.0


class TestPartition:
    def test_no_cuts_single_group(self):
        ds = Dataset(np.arange(6.0)[:, None], np.zeros(6), np.zeros(6))
        part = partition_by_quantiles(ds, 0, ())
        assert len(part.groups) == 1 and part.groups[0].size == 6

    def test_median_cut_on_1_to_10(self):
        x = np.arange(1.0, 11.0)[:, None]
        ds = Dataset(x, np.zeros(10), np.zeros(10))
        part = partition_by_quantiles(ds, 0, (0.5,))
        assert sorted(part.groups[0]) == [0, 1, 2, 3, 4]
        assert sorted(part.groups[1]) == [5, 6, 7, 8, 9]

    def test_quintiles_even_split(self):
        gen = np.random.default_rng(0)
        x = gen.uniform(size=(500, 1))
        ds = Dataset(x, np.zeros(500), np.zeros(500))
        part = partition_by_quantiles(ds, 0, (0.2, 0.4, 0.6, 0.8))
        assert [g.size for g in part.groups] == [100] * 5

    def test_tie_goes_to_lower_group(self):
        x = np.array([1.0, 1.0, 2.0, 3.0])[:, None]
        ds = Dataset(x, np.zeros(4), np.zeros(4))
        part = partition_by_quantiles(ds, 0, (0.5,))
        # the 0.5-quantile is 1.0 (second order statistic); both ties go low
        assert sorted(part.groups[0]) == [0, 1]

    def test_cut_errors(self):
        ds = Dataset(np.arange(4.0)[:, None], np.zeros(4), np.zeros(4))
        with pytest.raises(ValidationError, match="strictly in"):
            partition_by_quantiles(ds, 0, (0.0,))
        with pytest.raises(ValidationError, match="strictly increasing"):
            partition_by_quantiles(ds, 0, (0.4, 0.4))
        with pytest.raises(ValidationError, match="out of range"):
            partition_by_quantiles(ds, 3, (0.5,))

    def test_empty_group_error(self):
        ds = Dataset(np.ones((5, 1)), np.zeros(5), np.zeros(5))
        with pytest.raises(ValidationError, match="empty subgroup"):
            partition_by_quantiles(ds, 0, (0.2, 0.8))

    def test_invariants_random_inputs(self):
        gen = np.random.default_rng(7)
        for _ in range(25):
            n = int(gen.integers(10, 80))
            ds = Dataset(gen.normal(size=(n, 2)), np.zeros(n), np.zeros(n))
            k = int(gen.integers(1, 5))
            cuts = tuple(sorted(gen.uniform(0.05, 0.95, size=k)))
            if len(set(cuts)) < k:
                continue
            try:
                part = partition_by_quantiles(ds, 0, cuts)
            except ValidationError:
                # close cuts on a small sample can hit the same order
                # statistic, which legitimately rejects as an empty group
                continue
            merged = np.sort(np.concatenate(part.groups))
            assert np.array_equal(merged, np.arange(n))
            assert all(g.size >= 1 for g in part.groups)

    @pytest.mark.parametrize("n,cut,low", [(100, 0.55, 55), (100, 0.07, 7),
                                           (42, 9 / 14, 27)])
    def test_cut_where_c_times_n_rounds_up(self, n, cut, low):
        # 0.55 * 100, 0.07 * 100 and (9/14) * 42 all round above an integer,
        # yet low / n >= cut already holds.
        assert math.ceil(cut * n) == low + 1
        x = np.arange(1.0, n + 1.0)[::-1, None]
        ds = Dataset(x, np.zeros(n), np.zeros(n))
        part = partition_by_quantiles(ds, 0, (cut,))
        assert part.groups[0].size == low
        assert x[part.groups[0], 0].max() == low

    def test_cut_rank_is_smallest_k_reaching_c(self):
        gen = np.random.default_rng(11)
        fractions = [i / m for m in (3, 7, 14, 21, 100) for i in range(1, m)]
        fractions += list(gen.uniform(size=300))
        for n in (1, 2, 3, 10, 42, 99, 100, 500, 1000, 4000, 20000):
            ks = np.arange(1, n + 1)
            ratios = ks / n
            for c in fractions:
                want = int(ks[ratios >= c][0])
                assert _cut_rank(c, n) == want, (c, n)

    def test_groups_match_the_interval_masks_on_ties(self):
        # K = 14 subgroups of n = 20 000 units on a covariate with heavy
        # ties at the cut values: each group is the units in (b_{k-1}, b_k],
        # one mask per cut interval, with b_k the cut's order statistic.
        gen = np.random.default_rng(21)
        n = 20000
        cuts = tuple(i / 14 for i in range(1, 14))
        for x in (gen.integers(0, 40, n) / 4.0, gen.normal(size=n)):
            ds = Dataset(np.column_stack([gen.normal(size=n), x]), np.zeros(n), np.zeros(n))
            part = partition_by_quantiles(ds, 1, cuts)
            order_stats = np.sort(x)
            bounds = [order_stats[_cut_rank(c, n) - 1] for c in cuts]
            edges = [-np.inf, *bounds, np.inf]
            assert np.isin(x, bounds).sum() > 0
            want = [np.flatnonzero((x > lo) & (x <= hi)) for lo, hi in zip(edges, edges[1:])]
            assert len(part.groups) == 14
            for got, g in zip(part.groups, want):
                assert got.tobytes() == g.astype(got.dtype).tobytes()
        # Two cuts on one order statistic leave the group between them
        # empty; the first such group is the one named.
        ds = Dataset(np.repeat([1.0, 2.0, 3.0], 10)[:, None], np.zeros(30), np.zeros(30))
        with pytest.raises(ValidationError, match="^quantile cut produces empty subgroup 2$"):
            partition_by_quantiles(ds, 0, (0.1, 0.2, 0.5, 0.6))

    def test_labels_roundtrip(self):
        part = SubgroupPartition.from_labels([2, 0, 2, 1, 0])
        assert len(part.groups) == 3
        assert np.array_equal(part.labels(), [2, 0, 2, 1, 0])

    def test_partition_validation(self):
        with pytest.raises(ValidationError, match="overlap"):
            SubgroupPartition(([0, 1], [1, 2]))
        with pytest.raises(ValidationError, match="cover"):
            SubgroupPartition(([0, 1], [3]))
        with pytest.raises(ValidationError, match="empty"):
            SubgroupPartition(([0, 1], []))
        with pytest.raises(ValidationError, match="^at least one subgroup required$"):
            SubgroupPartition(())

    @pytest.mark.parametrize("groups, message", [
        (([0, 0], [5]), "subgroups overlap"),
        (([0, 1], [-1]), "subgroups do not cover all units exactly"),
        (([0, 1], [3]), "subgroups do not cover all units exactly"),
        (([2, 7], [7, -3]), "subgroups overlap"),
    ])
    def test_overlap_is_reported_before_cover(self, groups, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SubgroupPartition(groups)


class TestFoldState:
    """Fold snapshots built from a boolean nuisance mask."""

    def test_proportions_exact_after_moves(self):
        part = SubgroupPartition(([0, 1, 2, 3], [4, 5]))
        mask = np.zeros(6, dtype=bool)
        assert FoldSnapshot.from_mask(part, mask).proportions == (1.0, 1.0)
        mask[[0, 4]] = True
        snap = FoldSnapshot.from_mask(part, mask)
        assert snap.proportions == (0.75, 0.5)
        assert snap.nuisance == (0, 4)
        assert snap.inference == ((1, 2, 3), (5,))

    def test_snapshot(self):
        part = SubgroupPartition(([0, 1], [2]))
        snap = FoldSnapshot.from_mask(part, [True, False, False])
        assert snap.nuisance == (0,)
        assert snap.inference == ((1,), (2,))
        assert all(type(i) is int for i in snap.nuisance + snap.inference[0])


class TestConfig:
    def test_defaults_valid(self):
        cfg = AdaSplitConfig()
        assert cfg.p_init == 0.05 and cfg.rho == 0.5 and cfg.mc_draws == 1000

    @pytest.mark.parametrize("field,value", [
        ("p_init", 0.0), ("p_init", 1.0), ("rho", 0.0), ("eps_l", 0.0),
        ("n0", 0), ("mc_draws", 0), ("alpha", 1.0), ("q", 0.0),
        ("knn_k", 0), ("ridge_lambda", -1.0),
        ("ridge_lambda", float("inf")), ("q", float("nan")),
        ("n0", 1.5), ("mc_draws", 10.5), ("knn_k", 2.5), ("seed", 0.5),
        ("n0", float("nan")), ("seed", float("inf")), ("mc_draws", np.float64(2.5)),
    ])
    def test_bounds(self, field, value):
        with pytest.raises(ConfigError, match=field):
            AdaSplitConfig(**{field: value})

    def test_integer_fields_become_ints(self):
        cfg = AdaSplitConfig(n0=20.0, mc_draws=np.float64(300.0),
                             knn_k=np.int64(5), seed=7.0)
        assert (cfg.n0, cfg.mc_draws, cfg.knn_k, cfg.seed) == (20, 300, 5, 7)
        for key in ("n0", "mc_draws", "knn_k", "seed"):
            assert type(getattr(cfg, key)) is int
        assert cfg == AdaSplitConfig(n0=20, mc_draws=300, knn_k=5, seed=7)

    @pytest.mark.parametrize("key,value", [
        ("n0", "5"), ("n0", True), ("seed", False), ("rho", "0.3"),
        ("rho", None), ("rho", np.bool_(True)),
        pytest.param("eps_l", 10**400, id="eps_l-int-past-float"),
        pytest.param("ridge_lambda", -(10**400), id="ridge_lambda-int-past-float"),
    ])
    def test_direct_construction_follows_the_json_rules(self, key, value):
        want = f"config key {key!r}: bad value {value!r} (must be a number)"
        for build in (lambda: AdaSplitConfig(**{key: value}),
                      lambda: AdaSplitConfig.from_dict({key: value})):
            with pytest.raises(ConfigError) as info:
                build()
            assert str(info.value) == want

    def test_float_fields_become_floats(self):
        cfg = AdaSplitConfig(eps_l=1, rho=np.float32(0.25), ridge_lambda=0)
        assert (type(cfg.eps_l), type(cfg.rho), type(cfg.ridge_lambda)) == (float,) * 3
        same = AdaSplitConfig.from_dict({"eps_l": 1, "rho": 0.25, "ridge_lambda": 0})
        assert json.dumps(cfg.to_dict()) == json.dumps(same.to_dict())

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            AdaSplitConfig.from_dict({"nope": 1})

    def test_from_dict_key_set_is_the_fields(self):
        fields = AdaSplitConfig().to_dict()
        assert len(fields) == 10
        assert AdaSplitConfig.from_dict(fields) == AdaSplitConfig()
        for key in ("delta_clip", "refit_every", "lambda_imputed"):
            with pytest.raises(ConfigError, match="unknown config keys"):
                AdaSplitConfig.from_dict({key: 1})

    def test_from_dict_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            AdaSplitConfig.from_dict({"mc_draws": "many"})

    @pytest.mark.parametrize("key,value,accepted", [
        ("rho", "0.3", False), ("n0", True, False), ("seed", False, False),
        ("mc_draws", "200", False), ("rho", np.bool_(True), False),
        ("n0", 2.5, False), ("rho", None, False),
        ("ridge_lambda", float("inf"), False),
        ("rho", 0.3, True), ("n0", 20, True), ("n0", 20.0, True),
        ("rho", np.float32(0.25), True), ("n0", np.int64(7), True),
        ("mc_draws", np.float64(300.0), True),
    ])
    def test_from_dict_numbers_only(self, key, value, accepted):
        if accepted:
            cfg = AdaSplitConfig.from_dict({key: value})
            assert getattr(cfg, key) == value
            assert type(getattr(cfg, key)) is type(getattr(AdaSplitConfig(), key))
            # the replication workers rebuild configs from to_dict
            assert AdaSplitConfig.from_dict(cfg.to_dict()) == cfg
        else:
            with pytest.raises(ConfigError, match=key):
                AdaSplitConfig.from_dict({key: value})

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rho": 0.4, "seed": 9}))
        cfg = AdaSplitConfig.from_json(path)
        assert cfg.rho == 0.4 and cfg.seed == 9
        path.write_text("{broken")
        with pytest.raises(ConfigError, match="malformed"):
            AdaSplitConfig.from_json(path)


class TestReport:
    def test_json_roundtrip_and_sanitizing(self):
        report = AnalysisReport(
            pvalues=(0.1, 0.2),
            rejected=(0,),
            folds=None,
            iterations=3,
            cate_coefficients=None,
            diagnostics={"l": [0.5, float("inf"), float("nan")]},
            method="rt",
            config=AdaSplitConfig(),
        )
        payload = json.loads(report.to_json())
        assert payload["schema"] == 1
        assert payload["diagnostics"]["l"] == [0.5, "inf", None]
        assert payload["config"]["mc_draws"] == 1000
        assert report.to_json() == report.to_json()

    def test_numpy_scalars_keep_their_kind(self):
        report = AnalysisReport(
            pvalues=(0.1,), rejected=(), folds=None, iterations=0,
            cate_coefficients=None, method="rt", config=AdaSplitConfig(),
            diagnostics={"a": np.int64(3), "b": [np.float32(0.5), np.int32(-2)]},
        )
        diagnostics = json.loads(report.to_json())["diagnostics"]
        assert diagnostics == {"a": 3, "b": [0.5, -2]}
        assert [type(v) for v in (diagnostics["a"], *diagnostics["b"])] == [int, float, int]


def json_dumps_text(value):
    return json.dumps(value, sort_keys=True, indent=2)


def random_json(gen, depth=0):
    """A random value of the kinds a report may hold, nested up to four deep."""
    scalars = [
        lambda: int(gen.integers(-10**6, 10**6)), lambda: -(2**80) - 7, lambda: 10**30,
        lambda: float(gen.normal()), lambda: -0.0, lambda: 1e16, lambda: 5e-324,
        lambda: float("nan"), lambda: float("inf"), lambda: float("-inf"),
        lambda: bool(gen.integers(2)), lambda: None,
        lambda: str(gen.choice(["", "a, b", '"q"', "x\ny\t\x00\x1f", "caf\u00e9 \u2028 \U0001f600",
                                 "[1, 2]", "\\", "k: v"])),
    ]
    roll = gen.integers(10)
    if depth >= 4 or roll < 4:
        return scalars[gen.integers(len(scalars))]()
    size = int(gen.integers(0, 5))
    if roll < 6:   # a flat list of scalars, the writer's one-call case
        return [scalars[gen.integers(len(scalars))]() for _ in range(size)]
    if roll < 8:
        items = [random_json(gen, depth + 1) for _ in range(size)]
        return tuple(items) if gen.integers(2) else items
    keys = ["a", "b, c", "Z", "\u00e9", "", "k\"", "10", "9"]
    return {str(gen.choice(keys)): random_json(gen, depth + 1) for _ in range(size)}


class TestReportText:
    """``to_json`` writes what ``json.dumps(..., sort_keys=True, indent=2)``
    writes, byte for byte."""

    def test_zero_step_run(self):
        ds, part, _ = generate("default", 1)
        report = run(ds, part, AdaSplitConfig(seed=1, p_init=0.5, mc_draws=50))
        assert report.iterations == 0 and report.diagnostics["l"] == []
        assert report.diagnostics["trace"] == []
        assert report.to_json() == json_dumps_text(report.to_json_dict())

    def test_infinite_l_and_pvalue_flags(self):
        report = AnalysisReport(
            pvalues=(1.0, 0.25), rejected=(1,),
            folds=FoldSnapshot(nuisance=(0, 3), inference=((), (1, 2)), proportions=(0.0, 1.0)),
            iterations=2, cate_coefficients=(0.5, -1.25),
            diagnostics={"l": [float("inf"), 0.004, float("-inf"), float("nan")],
                         "pvalue_flags": {"0": "empty-inference-fold"},
                         "converged": False, "nu2": 1.5, "z_reads_before_pvalues": [0, 3]},
            method="adasplit", config=AdaSplitConfig(),
        )
        text = report.to_json()
        assert text == json_dumps_text(report.to_json_dict())
        assert json.loads(text)["diagnostics"]["l"] == ["inf", 0.004, "-inf", None]

    def test_generated_values(self):
        gen = np.random.default_rng(36)
        values = [random_json(gen) for _ in range(3000)]
        values += [[], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}], ([],)]
        for value in values:
            assert _json_indent2(value) == json_dumps_text(value), value

    def test_other_types_are_left_to_json_dumps(self):
        # Subclasses, numpy scalars and non-str keys go to json.dumps.
        class Text(str):
            pass

        values = [{1: "a", 2: [1.5]}, {True: None}, [Text("a, b"), 1], {"k": Text("v")},
                  [np.float64(0.1), 2], {"x": [np.float64(-0.0)]}, [[1, {"b": 2, "a": [3]}]],
                  {"k": {1: [1, 2], 2: {}}}, [[{1: [2.5, {"a": None}]}]]]
        for value in values:
            assert _json_indent2(value) == json_dumps_text(value), value
