"""Synthetic generators and the experiment harness."""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from adasplit import ConfigError, Dataset, SubgroupPartition, ValidationError
from adasplit.simlab import (
    canonical_method,
    draw_covariates,
    generate,
    get_scenario,
    reproduce_table,
    run_method,
    run_replications,
    scenario_with_size,
    summarize_replications,
)
from adasplit.data import AdaSplitConfig
from adasplit import rng


class TestGenerate:
    def test_default_shape(self):
        ds, part, truth = generate("default", 0)
        assert ds.n == 500 and ds.d == 5
        assert [g.size for g in part.groups] == [100] * 5
        assert truth.nu2 == 1.0

    def test_reproducible(self):
        a, _, _ = generate("default", 42)
        b, _, _ = generate("default", 42)
        assert a.equals(b)
        c, _, _ = generate("default", 43)
        assert not a.equals(c)

    def test_null_scenario_ate_near_zero(self):
        ds, _, truth = generate("null", 1)
        assert np.all(truth.tau(ds.x) == 0.0)
        treated = ds.y[ds.z == 1.0].mean()
        control = ds.y[ds.z == 0.0].mean()
        assert abs(treated - control) < 4.0 / np.sqrt(ds.n) * np.std(ds.y)

    def test_expected_cate_is_half(self):
        gen = rng.stream(2, 1)
        x = draw_covariates(get_scenario("default"), 100000, gen)
        _, _, truth = generate("default", 2)
        assert abs(truth.tau(x).mean() - 0.5) < 0.01

    def test_larger_and_noisier_variants(self):
        ds, _, _ = generate("larger_n", 0)
        assert ds.n == 1000
        assert get_scenario("high_noise").nu2 == 2.0

    def test_toy_family(self):
        ds, part, truth = generate("toy_fig3", 5)
        assert ds.n == 200 and ds.d == 1 and part.k == 1
        assert np.all(ds.x >= 0.0) and np.all(ds.x <= 5.0)
        assert np.allclose(truth.tau(ds.x), ds.x[:, 0])

    def test_unknown_scenario(self):
        with pytest.raises(ValidationError, match="unknown scenario"):
            generate("mystery", 0)

    def test_scenario_with_size(self):
        scenario = scenario_with_size("default", 300)
        ds, part, _ = generate(scenario, 0)
        assert ds.n == 300 and part.k == 5


class TestRunMethod:
    def test_aliases(self):
        for name in ("rt", "random_split", "adasplit"):
            assert canonical_method(name) == name
        for name in ("bogus", "RT", "rt_randomsplit", "randomsplit", "random-split",
                     "rt_adasplit"):
            with pytest.raises(ValidationError,
                               match="choose one of rt, random_split, adasplit"):
                canonical_method(name)

    @pytest.mark.parametrize("size", [400, 600])
    @pytest.mark.parametrize("method", ["rt", "random_split", "adasplit"])
    def test_partition_size_must_match(self, method, size):
        ds, _, _ = generate("default", 3)
        part = SubgroupPartition.from_labels(np.arange(size) % 5)
        with pytest.raises(ValidationError, match="dataset and partition sizes differ"):
            run_method(method, ds, part, AdaSplitConfig(seed=3, mc_draws=100))

    def test_rt_has_no_folds(self):
        ds, part, _ = generate("default", 3)
        report = run_method("rt", ds, part, AdaSplitConfig(seed=3, mc_draws=100))
        assert report.folds is None and report.cate_coefficients is None
        assert len(report.pvalues) == part.k
        for p in report.pvalues:
            assert 1.0 / 101.0 <= p <= 1.0

    def test_random_split_holds_out_half(self):
        ds, part, _ = generate("default", 4)
        report = run_method("random_split", ds, part, AdaSplitConfig(seed=4, mc_draws=100))
        assert np.allclose(report.folds.proportions, 0.5)
        for k, g in enumerate(part.groups):
            assert set(report.folds.inference[k]) <= set(g)

    def test_random_split_rho_is_the_inference_floor(self):
        # Uneven subgroups: at rho = 0.3 the inference counts are
        # ceil(0.3 * s) = 12, 13, 13, where the adaptive loop stops when it
        # runs to the floor (eps_l this small never converges).
        gen = np.random.default_rng(6)
        n = 120
        x = gen.uniform(-0.5, 0.5, size=(n, 3))
        z = (gen.random(n) < 0.5).astype(float)
        ds = Dataset.from_arrays(x, x.sum(axis=1) * (1.0 + z) + gen.normal(size=n), z)
        part = SubgroupPartition.from_labels(np.repeat(np.arange(3), [37, 41, 42]))
        cfg = AdaSplitConfig(seed=6, mc_draws=50, n0=10, knn_k=5, rho=0.3,
                             eps_l=1e-300)
        split = run_method("random_split", ds, part, cfg).folds
        ada = run_method("adasplit", ds, part, cfg).folds
        sizes = [len(j) for j in split.inference]
        assert sizes == [len(j) for j in ada.inference] == [12, 13, 13]
        assert min(split.proportions) >= 0.3

    def test_random_split_rho_leaves_too_few_nuisance_units(self):
        # Five subgroups of 100: rho = 0.99 keeps 99 of each for inference,
        # so the nuisance fold holds 5 units and the regression needs 6.
        ds, part, _ = generate("default", 4)
        cfg = AdaSplitConfig(seed=4, mc_draws=50, rho=0.99)
        with pytest.raises(ConfigError, match=r"rho=0\.99 leaves a nuisance fold "
                           r"of 5 units, fewer than d \+ 1 = 6 \(n=500, d=5\)"):
            run_method("random_split", ds, part, cfg)
        report = run_method("random_split", ds, part, cfg.replace(rho=0.98))
        assert [len(j) for j in report.folds.inference] == [98] * 5

    def test_constant_outcomes_give_p_one(self):
        n = 90
        gen = np.random.default_rng(5)
        ds = Dataset.from_arrays(gen.uniform(-0.5, 0.5, size=(n, 2)),
                                 np.zeros(n), (gen.random(n) < 0.5).astype(float))
        part = SubgroupPartition.from_labels(np.repeat(np.arange(3), n // 3))
        cfg = AdaSplitConfig(seed=5, mc_draws=50, n0=5, knn_k=5)
        for method in ("rt", "random_split", "adasplit"):
            report = run_method(method, ds, part, cfg)
            assert all(p == 1.0 for p in report.pvalues), method

    @pytest.mark.parametrize("method", ["rt", "random_split", "adasplit"])
    def test_every_report_audits_its_assignment_reads(self, method):
        ds, part, _ = generate("default", 3)
        report = run_method(method, ds, part, AdaSplitConfig(seed=3, mc_draws=100))
        reads = report.diagnostics["z_reads_before_pvalues"]
        nuisance = [] if report.folds is None else list(report.folds.nuisance)
        assert set(reads) <= set(nuisance)
        if method == "rt":
            assert reads == []
        elif method == "random_split":
            assert reads == nuisance

    @pytest.mark.parametrize("method", ["random_split", "adasplit"])
    def test_masked_nuisance_assignment_names_the_cause(self, method):
        ds, part, _ = generate("default", 3)
        cfg = AdaSplitConfig(seed=3, mc_draws=100)
        nuisance = run_method(method, ds, part, cfg).folds.nuisance
        z = ds.z.copy()
        z[nuisance[len(nuisance) // 2]] = np.nan
        masked = Dataset.from_arrays(ds.x, ds.y, z)
        with pytest.raises(ValidationError,
                           match="masked assignment read in the nuisance fold"):
            run_method(method, masked, part, cfg)


class TestHarness:
    def test_replications_deterministic_and_parallel_equivalent(self):
        serial = run_replications("default", 4, 7, AdaSplitConfig(mc_draws=100, n0=5))
        threaded = run_replications("default", 4, 7, AdaSplitConfig(mc_draws=100, n0=5),
                                    threads=2)
        assert serial == threaded

    def test_process_workers_after_the_pvalue_pool_is_up(self):
        # A serial run in the parent starts the p-value pool; forked process
        # workers must not submit to the copy of it that has no threads.
        # Run in a subprocess so that a deadlock fails instead of hanging.
        script = textwrap.dedent("""
            from adasplit import randtest
            from adasplit.data import AdaSplitConfig
            from adasplit.simlab import run_replications
            cfg = AdaSplitConfig(mc_draws=100, n0=5)
            serial = run_replications("default", 4, 11, cfg, threads=1)
            pool, count = randtest._pvalue_pool()
            assert count == 0 or pool._threads, "the pool has not started"
            print(run_replications("default", 4, 11, cfg, threads=2) == serial)
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        # Its own session, so a timeout also ends the process workers.
        proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("run_replications(threads=2) hung after the pool was used")
        assert proc.returncode == 0, err
        assert out.split() == ["True"]

    def test_summarize_cells(self):
        cfg = AdaSplitConfig(mc_draws=100, n0=5)
        results = run_replications("null", 4, 8, cfg)
        summary = summarize_replications("null", results, cfg)
        cells = {(c.method, c.cell) for c in summary.cells}
        for method in ("rt", "random_split", "adasplit"):
            assert (method, "fwer") in cells
            assert (method, "G1") in cells and (method, "G5") in cells
        assert len(summary.raw) == 12

    def test_reproduce_table_validation(self):
        with pytest.raises(ConfigError, match="reps >= 10"):
            reproduce_table(2, 5, 0)
        with pytest.raises(ConfigError, match="table"):
            reproduce_table(7, 20, 0)

    def test_reproduce_table_shapes(self):
        cfg = AdaSplitConfig(mc_draws=100, n0=5)
        t2 = reproduce_table(2, 10, 0, cfg)
        assert {(c.method, c.cell) for c in t2.cells} == {
            (m, f"G{g}") for m in ("rt", "random_split", "adasplit")
            for g in range(1, 6)
        }
        t3 = reproduce_table(3, 10, 0, cfg)
        assert all(c.cell == "fwer" for c in t3.cells) and len(t3.cells) == 3
        text = t3.render_text()
        assert "fwer" in text and "adasplit" in text

    def test_summary_csv_roundtrip(self, tmp_path):
        cfg = AdaSplitConfig(mc_draws=100, n0=5)
        results = run_replications("default", 2, 9, cfg, methods=("rt",))
        summary = summarize_replications("default", results, cfg)
        out = tmp_path / "cells.csv"
        raw = tmp_path / "raw.csv"
        summary.write_csv(out)
        summary.write_raw_csv(raw)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1].split(",")[:3] == ["scenario", "method", "cell"]
        raw_lines = raw.read_text().splitlines()
        assert len(raw_lines) == 2 + 2  # comment, header, two replications
