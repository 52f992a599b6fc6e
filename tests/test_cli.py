"""Command-line interface: exit codes, file contracts, determinism."""

import csv
import json

import numpy as np
import pytest

from adasplit import Dataset, read_dataset_csv, write_dataset_csv
from adasplit import cli
from adasplit.cli import main
from adasplit.simlab import generate, scenario_with_size


@pytest.fixture()
def trial_csv(tmp_path):
    ds, part, _ = generate("default", 7)
    path = tmp_path / "trial.csv"
    write_dataset_csv(path, ds, subgroup_labels=part.labels())
    return path


def run_cli(*args):
    return main([str(a) for a in args])


class TestAnalyze:
    def test_adasplit_report(self, trial_csv, tmp_path):
        out = tmp_path / "report.json"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mc_draws": 200, "seed": 3, "n0": 10}))
        code = run_cli("analyze", "--data", trial_csv, "--config", config,
                       "--method", "adasplit", "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert len(payload["pvalues"]) == 5
        for p in payload["pvalues"]:
            assert 1.0 / 201.0 <= p <= 1.0
        assert payload["config"]["mc_draws"] == 200
        assert payload["folds"] is not None
        assert len(payload["cate_coefficients"]) == 6

    def test_rt_has_no_folds(self, trial_csv, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("analyze", "--data", trial_csv, "--method", "rt",
                       "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["folds"] is None and payload["cate_coefficients"] is None
        # default config: 1000 reference draws bound the p-values
        for p in payload["pvalues"]:
            assert 1.0 / 1001.0 <= p <= 1.0
        assert payload["config"]["mc_draws"] == 1000

    def test_quantile_cuts(self, tmp_path):
        ds, _, _ = generate("default", 8)
        path = tmp_path / "plain.csv"
        write_dataset_csv(path, ds)
        out = tmp_path / "r.json"
        code = run_cli("analyze", "--data", path, "--method", "rt",
                       "--quantile-cuts", "0.2,0.4,0.6,0.8", "--on", "x1",
                       "--out", out)
        assert code == 0
        assert len(json.loads(out.read_text())["pvalues"]) == 5

    def test_quantile_cut_not_a_number_exit_2(self, trial_csv, capsys):
        assert run_cli("analyze", "--data", trial_csv, "--method", "rt",
                       "--quantile-cuts", "0.2,abc", "--on", "x1") == 2
        err = capsys.readouterr().err
        assert "--quantile-cuts" in err and "'abc'" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("cuts", ["", " , "])
    def test_no_quantile_cut_exit_2(self, trial_csv, capsys, cuts):
        # An unset shell variable must not analyze one subgroup.
        assert run_cli("analyze", "--data", trial_csv, "--method", "rt",
                       "--quantile-cuts", cuts, "--on", "x1") == 2
        assert "--quantile-cuts: no cut" in capsys.readouterr().err

    @pytest.mark.parametrize("case,message", [
        ("collinear", "singular design: collinear or badly scaled covariates"),
        ("covariates", "covariates too large to square"),
        ("outcomes", "outcomes too large to square"),
    ], ids=["collinear", "covariates", "outcomes"])
    @pytest.mark.parametrize("method", ["adasplit", "random_split", "rt"])
    def test_badly_scaled_trial_exit_2(self, tmp_path, capsys, case, message, method):
        # Fitting mu(x) squares the covariates and the selection loop the
        # outcomes; rt fits neither. Runs are under filterwarnings = error,
        # so an overflow warning fails them too.
        ds, part, _ = generate("default", 1)
        x, y = ds.x.copy(), ds.y
        if case == "collinear":
            x[:, 1] = x[:, 0]
            x *= 1e6
        elif case == "covariates":
            x *= 1e160
        else:
            y = y * 1e160
        path = tmp_path / "trial.csv"
        write_dataset_csv(path, Dataset(x, y, ds.z), subgroup_labels=part.labels())
        fails = method == "adasplit" or (method == "random_split" and case != "outcomes")
        code = run_cli("analyze", "--data", path, "--method", method,
                       "--out", tmp_path / "r.json")
        assert code == (2 if fails else 0)
        err = capsys.readouterr().err
        assert (message in err) == fails and "internal error" not in err

    def test_more_than_twenty_subgroups(self, tmp_path):
        # 21 quantile slices of about 24 units each: past K = 20.
        ds, _, _ = generate("default", 8)
        path = tmp_path / "plain.csv"
        write_dataset_csv(path, ds)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mc_draws": 200}))
        out = tmp_path / "r.json"
        cuts = ",".join(str(i / 21) for i in range(1, 21))
        code = run_cli("analyze", "--data", path, "--config", config, "--method", "rt",
                       "--quantile-cuts", cuts, "--on", "x1", "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["pvalues"]) == 21
        assert all(0 <= k < 21 for k in payload["rejected"])

    def test_missing_z_column_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text("x1,y\n0.1,2.0\n")
        assert run_cli("analyze", "--data", path, "--method", "rt") == 2
        assert "z" in capsys.readouterr().err

    def test_non_numeric_cell_names_row_and_column(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text("x1,y,z,subgroup\n0.1,oops,1,0\n0.3,1.0,0,0\n")
        assert run_cli("analyze", "--data", path, "--method", "rt") == 2
        err = capsys.readouterr().err
        assert "row 1" in err and "column y" in err

    def test_oversized_field_exit_2(self, trial_csv, capsys):
        # A y cell of 200000 digits is over the csv module's field limit.
        rows = trial_csv.read_text().splitlines()
        header = rows[0].split(",")
        cells = rows[4].split(",")
        cells[header.index("y")] = "9" * 200000
        rows[4] = ",".join(cells)
        trial_csv.write_text("\n".join(rows) + "\n")
        assert run_cli("analyze", "--data", trial_csv, "--method", "rt") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row 4: field larger than field limit")
        # A column name of 200000 characters, in the header.
        rows[0] += "," + "w" * 200000
        trial_csv.write_text("\n".join(rows) + "\n")
        assert run_cli("analyze", "--data", trial_csv, "--method", "rt") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: header: field larger than field limit")

    @pytest.mark.parametrize("label", ["100000000000000000000000", "-9223372036854775809",
                                       "1" + "0" * 400])
    def test_out_of_range_label_exit_2(self, trial_csv, capsys, label):
        rows = trial_csv.read_text().splitlines()
        rows[2] = rows[2].rsplit(",", 1)[0] + "," + label
        trial_csv.write_text("\n".join(rows) + "\n")
        assert run_cli("analyze", "--data", trial_csv, "--method", "rt") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row 2, column subgroup: label ")
        assert "outside the 64-bit range" in err

    @pytest.mark.parametrize("method", ["rt", "random_split", "adasplit"])
    @pytest.mark.parametrize("cell,column,cause", [
        ("y=inf", "y", "non-finite"),
        ("z=nan", "z", "non-finite"),
        ("z=2", "z", "not 0 or 1"),
    ])
    def test_bad_cell_names_row_and_column(self, trial_csv, capsys, cell,
                                           column, cause, method):
        rows = trial_csv.read_text().splitlines()
        header = rows[0].split(",")
        cells = rows[3].split(",")
        name, text = cell.split("=")
        cells[header.index(name)] = text
        rows[3] = ",".join(cells)
        trial_csv.write_text("\n".join(rows) + "\n")
        assert run_cli("analyze", "--data", trial_csv, "--method", method) == 2
        err = capsys.readouterr().err
        assert f"row 3, column {column}" in err and cause in err
        assert "inference fold" not in err

    def test_bad_config_exit_3(self, trial_csv, tmp_path):
        config = tmp_path / "cfg.json"
        for values in ({"rho": 2.0}, {"rho": "0.3", "n0": True}):
            config.write_text(json.dumps(values))
            assert run_cli("analyze", "--data", trial_csv, "--config", config) == 3

    def test_removed_config_keys_exit_3(self, trial_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        for key, value in (("delta_clip", 1e-6), ("refit_every", 1),
                           ("lambda_imputed", 1.0)):
            config.write_text(json.dumps({key: value}))
            assert run_cli("analyze", "--data", trial_csv, "--config", config) == 3
            assert "unknown config keys" in capsys.readouterr().err

    def test_seed_fold_too_small_exit_3(self, tmp_path, capsys):
        ds, part, _ = generate(scenario_with_size("default", 60), 0)
        path = tmp_path / "small.csv"
        write_dataset_csv(path, ds, subgroup_labels=part.labels())
        assert run_cli("analyze", "--data", path) == 3
        err = capsys.readouterr().err
        assert "p_init=0.05" in err and "5 units" in err
        assert "n=60" in err and "d=5" in err

    def test_empty_inference_fold_exit_3(self, trial_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"p_init": 0.999}))
        assert run_cli("analyze", "--data", trial_csv, "--config", config) == 3
        err = capsys.readouterr().err
        assert "p_init=0.999" in err and "subgroup 0" in err
        assert "100 units" in err

    def test_seed_split_below_the_floor_exit_3(self, trial_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"p_init": 0.6}))
        assert run_cli("analyze", "--data", trial_csv, "--config", config) == 3
        err = capsys.readouterr().err
        assert "p_init=0.6 leaves 40 of the 100 units of subgroup 0" in err
        assert "rho=0.5 sets (50)" in err

    @pytest.mark.parametrize("column", ["y", "z"])
    def test_subgroups_by_outcome_or_assignment_exit_2(self, trial_csv, capsys, column):
        assert run_cli("analyze", "--data", trial_csv, "--method", "rt",
                       "--subgroup-column", column) == 2
        err = capsys.readouterr().err
        assert f"subgroup column cannot be {column!r}" in err
        assert "fixed before treatment" in err

    def test_byte_order_mark_gives_the_same_report(self, trial_csv, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + trial_csv.read_bytes())
        for path, out in ((trial_csv, "plain.json"), (bom, "bom.json")):
            assert run_cli("analyze", "--data", path, "--method", "rt",
                           "--out", tmp_path / out) == 0
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_non_utf8_byte_exit_2(self, trial_csv, capsys):
        text = trial_csv.read_bytes()
        trial_csv.write_bytes(text[:-20] + b"\xff" + text[-19:])
        assert run_cli("analyze", "--data", trial_csv, "--method", "rt") == 2
        err = capsys.readouterr().err
        assert err == "error: not a UTF-8 file: byte 0xff cannot be decoded\n"

    def test_config_byte_order_mark_gives_the_same_report(self, trial_csv, tmp_path):
        text = json.dumps({"mc_draws": 200, "seed": 3}).encode()
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            (tmp_path / f"{name}.cfg").write_bytes(data)
            assert run_cli("analyze", "--data", trial_csv, "--method", "rt",
                           "--config", tmp_path / f"{name}.cfg",
                           "--out", tmp_path / f"{name}.json") == 0
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_config_non_utf8_byte_exit_3(self, trial_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{"rho": 0.4, "x": "\xff"}')
        assert run_cli("analyze", "--data", trial_csv, "--config", config) == 3
        err = capsys.readouterr().err
        assert err == "config error: config is not UTF-8: byte 0xff cannot be decoded\n"

    @pytest.mark.parametrize("flag", ["--data", "--config", "--out"])
    def test_directory_path_exit_2(self, trial_csv, tmp_path, capsys, flag):
        paths = {"--data": trial_csv, "--out": tmp_path / "report.json"}
        paths[flag] = tmp_path
        args = [arg for item in paths.items() for arg in item]
        assert run_cli("analyze", "--method", "rt", *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 21] Is a directory") and str(tmp_path) in err

    def test_random_split_rho_too_high_exit_3(self, trial_csv, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rho": 0.99}))
        assert run_cli("analyze", "--data", trial_csv, "--method", "random_split",
                       "--config", config) == 3
        err = capsys.readouterr().err
        assert "rho=0.99" in err and "5 units" in err and "d + 1 = 6" in err
        assert "fold too small" not in err

    @pytest.mark.parametrize("debug", [None, "1"])
    def test_internal_error_exit_1(self, trial_csv, monkeypatch, capsys, debug):
        def fail(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_analyze", fail)
        if debug is None:
            monkeypatch.delenv("ADASPLIT_DEBUG", raising=False)
        else:
            monkeypatch.setenv("ADASPLIT_DEBUG", debug)
        assert run_cli("analyze", "--data", trial_csv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal error: boom\n")
        has_traceback = "Traceback (most recent call last)" in err
        assert has_traceback == (debug == "1")
        if debug:
            assert 'raise RuntimeError("boom")' in err

    def test_no_subgroups_exit_2(self, tmp_path):
        ds, _, _ = generate("default", 9)
        path = tmp_path / "plain.csv"
        write_dataset_csv(path, ds)
        assert run_cli("analyze", "--data", path, "--method", "rt") == 2

    def test_trace_csv(self, trial_csv, tmp_path):
        trace = tmp_path / "trace.csv"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mc_draws": 100, "n0": 10}))
        code = run_cli("analyze", "--data", trial_csv, "--config", config,
                       "--method", "adasplit", "--out", tmp_path / "r.json",
                       "--trace", trace)
        assert code == 0
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["t", "unit", "subgroup"]
        assert len(rows) > 1


class TestSimulate:
    def test_rows_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mc_draws": 100, "n0": 5}))
        args = ["simulate", "--scenario", "default", "--reps", "2",
                "--seed", "11", "--config", config]
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1, newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        header, body = rows[0], rows[1:]
        assert len(body) == 6  # 2 replications x 3 methods
        per_method = {}
        for row in body:
            per_method.setdefault(row[header.index("method")], []).append(row)
        assert all(len(v) == 2 for v in per_method.values())
        assert (tmp_path / "a_summary.csv").exists()

    def test_unknown_scenario_exit_2(self, tmp_path):
        assert run_cli("simulate", "--scenario", "nope", "--reps", "2",
                       "--out", tmp_path / "x.csv") == 2

    def test_null_aggregate_fwer_bounded(self, tmp_path):
        out = tmp_path / "null.csv"
        assert run_cli("simulate", "--scenario", "null", "--reps", "40",
                       "--seed", "5", "--out", out) == 0
        with open(out, newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        header, body = rows[0], rows[1:]
        col = header.index("any_rejected")
        by_method = {}
        for row in body:
            by_method.setdefault(row[header.index("method")], []).append(float(row[col]))
        for method, vals in by_method.items():
            assert np.mean(vals) <= 0.28, method


class TestReproduce:
    def test_reps_validation_exit_3(self, tmp_path):
        assert run_cli("reproduce", "--table", "4", "--reps", "0",
                       "--out", tmp_path) == 3

    def test_bad_table_exit_3(self, tmp_path):
        assert run_cli("reproduce", "--table", "9", "--reps", "10",
                       "--out", tmp_path) == 3

    def test_table2_grid(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mc_draws": 100, "n0": 5}))
        code = run_cli("reproduce", "--table", "2", "--reps", "10",
                       "--seed", "3", "--config", config, "--out", tmp_path)
        assert code == 0
        with open(tmp_path / "table2.csv", newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        body = rows[1:]
        assert len(body) == 15  # 5 subgroups x 3 methods
        assert (tmp_path / "table2.txt").exists()
        assert (tmp_path / "table2_raw.csv").exists()

    def test_table4_grid(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mc_draws": 100, "n0": 5}))
        code = run_cli("reproduce", "--table", "4", "--reps", "10",
                       "--seed", "3", "--config", config, "--out", tmp_path)
        assert code == 0
        with open(tmp_path / "table4.csv", newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        body = rows[1:]
        assert len(body) == 9  # 3 methods x 3 scenarios
        scenarios = {row[0] for row in body}
        assert scenarios == {"default", "larger_n", "high_noise"}


class TestThreads:
    def test_env_variable_bad_value_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADASPLIT_THREADS", "lots")
        assert run_cli("simulate", "--scenario", "default", "--reps", "1",
                       "--out", tmp_path / "x.csv") == 3

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_flag_below_one_exit_3(self, tmp_path, capsys, value):
        assert run_cli("--threads", value, "simulate", "--scenario", "default",
                       "--reps", "1", "--out", tmp_path / "x.csv") == 3
        assert f"--threads must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_env_variable_below_one_exit_3(self, tmp_path, capsys, monkeypatch,
                                           value):
        monkeypatch.setenv("ADASPLIT_THREADS", value)
        assert run_cli("simulate", "--scenario", "default", "--reps", "1",
                       "--out", tmp_path / "x.csv") == 3
        assert f"ADASPLIT_THREADS must be >= 1, got {value}" in capsys.readouterr().err

    def test_threads_flag(self, tmp_path):
        out = tmp_path / "t.csv"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mc_draws": 100, "n0": 5}))
        assert run_cli("--threads", "2", "simulate", "--scenario", "default",
                       "--reps", "2", "--config", config, "--out", out) == 0
        assert out.exists()


class TestLargeTrialShape:
    def test_csv_roundtrip_sprint_shape(self, tmp_path):
        # ingestion round-trip on a synthetic trial of the same shape as the
        # real blood-pressure study: 8,746 rows, 18 covariates, 8 subgroups
        gen = np.random.default_rng(12)
        n, d = 8746, 18
        x = gen.normal(size=(n, d))
        z = (gen.random(n) < 0.5).astype(float)
        y = (gen.random(n) < 0.6).astype(float)
        labels = gen.integers(0, 8, size=n)
        from adasplit import Dataset

        ds = Dataset(x, y, z)
        path = tmp_path / "big.csv"
        write_dataset_csv(path, ds, subgroup_labels=labels)
        back, lab = read_dataset_csv(path)
        assert back.n == n and back.d == d
        assert np.array_equal(lab, labels)
        assert back.equals(ds)

    def test_analyze_rt_on_sprint_shape(self, tmp_path):
        gen = np.random.default_rng(13)
        n, d = 8746, 18
        x = gen.normal(size=(n, d))
        z = (gen.random(n) < 0.5).astype(float)
        y = (gen.random(n) < 0.6).astype(float)
        labels = gen.integers(0, 8, size=n)
        from adasplit import Dataset

        path = tmp_path / "big.csv"
        write_dataset_csv(path, Dataset(x, y, z), subgroup_labels=labels)
        out = tmp_path / "r.json"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"mc_draws": 200}))
        code = run_cli("analyze", "--data", path, "--method", "rt",
                       "--config", config, "--out", out)
        assert code == 0
        assert len(json.loads(out.read_text())["pvalues"]) == 8
