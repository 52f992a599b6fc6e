"""Golden reports and tables: the full report of eight fixed cases and the
synthetic-study tables at a small size, frozen as JSON.

Every refactor and speed-up must reproduce them: folds, p-values,
rejections, iteration counts, convergence, the audited assignment reads and
the p-value flags exactly; CATE coefficients, the posterior scale ``nu2``
and the convergence history ``l`` to 1e-9. The ``config`` block is not
compared, so removing a configuration key does not move a case.

The fixtures were written once, from the code before the shared testing
stage landed. ``PYTHONPATH=src python tests/test_golden.py --write CASE
[CASE ...]`` rewrites the named cases only, and in each only the fields that
fail the comparison above (:func:`merge`), so a deliberate behaviour change
refreshes the fields it moves and leaves every other byte as it was. They
are never rewritten to make a change pass: a case that moves is a behaviour
change to explain, not a fixture to refresh.

The table fixtures hold ``reproduce_table(N, 10, 3, TABLE_CONFIG)`` for N =
1-4, and ``summary_null`` one ``summarize_replications`` on the ``null``
scenario: the cells, the raw rows, the text rendering and both CSV files
without their ``# config:`` line. Tables 2-4 and the summary must match
exactly. Table 1's R^2 values come from least-squares fits whose last bits
depend on the BLAS kernel, so its cells and raw rows match to 1e-9 and its
text and CSV files are not compared. ``--write`` takes their names too and
rewrites such a fixture whole.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

import pytest

from adasplit.data import AdaSplitConfig
from adasplit.engine import run_method
from adasplit.simlab import (
    generate,
    reproduce_table,
    run_replications,
    scenario_with_size,
    summarize_replications,
)

GOLDEN = Path(__file__).parent / "golden"

# case -> (method, scenario, sample size override or None, data and config seed)
CASES = {
    "adasplit_default_s1": ("adasplit", "default", None, 1),
    "adasplit_default_s2": ("adasplit", "default", None, 2),
    "adasplit_null_s1": ("adasplit", "null", None, 1),
    "adasplit_null_s2": ("adasplit", "null", None, 2),
    "adasplit_toy_fig3_s1": ("adasplit", "toy_fig3", None, 1),
    "adasplit_default_n2000_s3": ("adasplit", "default", 2000, 3),
    "rt_default_s1": ("rt", "default", None, 1),
    "random_split_default_s1": ("random_split", "default", None, 1),
}

EXACT = ("method", "pvalues", "rejected", "folds", "iterations")
EXACT_DIAGNOSTICS = ("converged", "z_reads_before_pvalues", "pvalue_flags")
CLOSE_DIAGNOSTICS = ("nu2", "l")
TOL = 1e-9

TABLES = ("table1", "table2", "table3", "table4", "summary_null")
TABLE_CONFIG = AdaSplitConfig(mc_draws=100, n0=5)


def case_report(case, collect_trace=False):
    method, scenario, n, seed = CASES[case]
    if n is not None:
        scenario = scenario_with_size(scenario, n)
    dataset, partition, _ = generate(scenario, seed)
    return run_method(method, dataset, partition, AdaSplitConfig(seed=seed),
                      collect_trace=collect_trace)


def report_payload(case):
    return json.loads(case_report(case).to_json())


def table_payload(name):
    if name == "summary_null":
        results = run_replications("null", 10, 3, TABLE_CONFIG)
        summary = summarize_replications("null", results, TABLE_CONFIG)
    else:
        summary = reproduce_table(int(name[-1]), 10, 3, TABLE_CONFIG)
    header = f"# config: {json.dumps(TABLE_CONFIG.to_dict(), sort_keys=True)}\n"
    with tempfile.TemporaryDirectory() as tmp:
        cells, raw = Path(tmp) / "cells.csv", Path(tmp) / "raw.csv"
        summary.write_csv(cells)
        summary.write_raw_csv(raw)
        csv_text, raw_text = cells.read_text(), raw.read_text()
    assert csv_text.startswith(header) and raw_text.startswith(header)
    return {"cells": [list(astuple(c)) for c in summary.cells], "raw": list(summary.raw),
            "text": summary.render_text(), "csv": csv_text[len(header):],
            "raw_csv": raw_text[len(header):]}


def close(a, b):
    """Equal structure, numbers within TOL (inf and NaN serialize as
    strings and null, so they must match exactly)."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(u, v) for u, v in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers):
        return abs(a - b) <= TOL
    return a == b


def moved(got, want):
    """The compared fields on which ``got`` fails to match the fixture
    ``want``, as (section, key) pairs; section None is the top level."""
    fields = [(None, key) for key in EXACT if got[key] != want[key]]
    if not close(got["cate_coefficients"], want["cate_coefficients"]):
        fields.append((None, "cate_coefficients"))
    gd, wd = got["diagnostics"], want["diagnostics"]
    fields += [("diagnostics", key) for key in EXACT_DIAGNOSTICS if gd.get(key) != wd.get(key)]
    fields += [("diagnostics", key) for key in CLOSE_DIAGNOSTICS
               if not close(gd.get(key), wd.get(key))]
    return fields


def merge(want, got):
    """The fixture ``want`` with ``got``'s value in each field that moved;
    every other field, compared or not, keeps the fixture's value."""
    out = copy.deepcopy(want)
    for section, key in moved(got, want):
        src, dst = (got, out) if section is None else (got[section], out[section])
        if key in src:
            dst[key] = src[key]
        else:
            del dst[key]
    return out


def dump(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case):
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    assert moved(report_payload(case), want) == []


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_text_is_json_dumps(case, traced):
    # The report's own writer gives json.dumps's bytes.
    report = case_report(case, collect_trace=traced)
    assert ("trace" in report.diagnostics) == (traced and report.method == "adasplit")
    assert report.to_json() == json.dumps(report.to_json_dict(), sort_keys=True, indent=2)


@pytest.mark.parametrize("name", TABLES)
def test_golden_table(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = table_payload(name)
    if name == "table1":
        assert close(got["cells"], want["cells"]) and close(got["raw"], want["raw"])
    else:
        assert got == want


def noisy(values):
    """``values`` (a number, or a list of them) plus 1e-12; other entries,
    such as the string an infinite ``l`` serializes to, as they are."""
    if isinstance(values, list):
        return [noisy(v) for v in values]
    return values + 1e-12 if isinstance(values, float) else values


class TestMerge:
    # rt fits no CATE model, so its report has no number compared to TOL.
    @pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][0] != "rt"))
    def test_noise_within_tolerance_keeps_the_bytes(self, case):
        text = (GOLDEN / f"{case}.json").read_text()
        want = json.loads(text)
        got = copy.deepcopy(want)
        got["cate_coefficients"] = noisy(got["cate_coefficients"])
        for key in CLOSE_DIAGNOSTICS:
            if key in got["diagnostics"]:
                got["diagnostics"][key] = noisy(got["diagnostics"][key])
        assert got != want
        assert dump(merge(want, got)) == text

    def test_moved_pvalue_changes_only_pvalues(self):
        want = json.loads((GOLDEN / "adasplit_default_s1.json").read_text())
        got = copy.deepcopy(want)
        got["pvalues"][2] += 0.01
        got["diagnostics"]["nu2"] += 1e-12        # within tolerance: kept
        got["config"]["mc_draws"] += 1            # not compared: kept
        got["diagnostics"]["stop_reason"] = "floor"   # not compared: not added
        merged = merge(want, got)
        assert merged["pvalues"] == got["pvalues"] != want["pvalues"]
        assert {**merged, "pvalues": want["pvalues"]} == want

    def test_moved_diagnostic_is_written_or_removed(self):
        want = json.loads((GOLDEN / "rt_default_s1.json").read_text())
        got = copy.deepcopy(want)
        got["diagnostics"]["z_reads_before_pvalues"] = [0]
        del got["diagnostics"]["pvalue_flags"]
        merged = merge(want, got)
        assert merged["diagnostics"]["z_reads_before_pvalues"] == [0]
        assert "pvalue_flags" not in merged["diagnostics"]
        assert moved(got, merged) == []


USAGE = ("usage: PYTHONPATH=src python tests/test_golden.py --write CASE [CASE ...]\n"
         "cases: " + " ".join(sorted(CASES) + list(TABLES)))


def test_write_names_the_cases(tmp_path):
    # Only refusals run here: no fixture is written.
    script = Path(__file__).resolve()
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    for args, error in (([], USAGE), (["nope"], "unknown case(s): nope")):
        done = subprocess.run([sys.executable, script, "--write", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1 and done.stderr == error + "\n"


if __name__ == "__main__":
    names = sys.argv[2:]
    if sys.argv[1:2] != ["--write"] or not names:
        sys.exit(USAGE)
    unknown = [name for name in names if name not in CASES and name not in TABLES]
    if unknown:
        sys.exit(f"unknown case(s): {' '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        path = GOLDEN / f"{name}.json"
        if name in TABLES:
            payload = table_payload(name)
        else:
            payload = report_payload(name)
        if path.exists() and name in CASES:
            old = json.loads(path.read_text())
            print(f"{name}: moved {[key for _, key in moved(payload, old)]}")
            payload = merge(old, payload)
        path.write_text(dump(payload))
        print(f"wrote {name}")
