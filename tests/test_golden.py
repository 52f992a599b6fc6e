"""Golden reports: the full report of eight fixed cases, frozen as JSON.

Every refactor and speed-up must reproduce them: folds, p-values,
rejections, iteration counts, convergence, the audited assignment reads and
the p-value flags exactly; CATE coefficients, the posterior scale ``nu2``
and the convergence history ``l`` to 1e-9. The ``config`` block is not
compared, so removing a configuration key does not move a case.

The fixtures were written once, from the code before the shared testing
stage landed. ``PYTHONPATH=src python tests/test_golden.py --write CASE
[CASE ...]`` rewrites the named cases only, so a deliberate behaviour change
refreshes the cases it moves and leaves the others byte for byte. They are
never rewritten to make a change pass: a case that moves is a behaviour
change to explain, not a fixture to refresh.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adasplit.data import AdaSplitConfig
from adasplit.simlab import generate, run_method, scenario_with_size

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


def report_payload(case):
    method, scenario, n, seed = CASES[case]
    if n is not None:
        scenario = scenario_with_size(scenario, n)
    dataset, partition, _ = generate(scenario, seed)
    report = run_method(method, dataset, partition, AdaSplitConfig(seed=seed))
    return json.loads(report.to_json())


def close(a, b):
    """Equal structure, numbers within TOL (inf and NaN serialize as
    strings and null, so they must match exactly)."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(u, v) for u, v in zip(a, b))
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers):
        return abs(a - b) <= TOL
    return a == b


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case):
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    got = report_payload(case)
    for key in EXACT:
        assert got[key] == want[key], key
    assert close(got["cate_coefficients"], want["cate_coefficients"])
    for key in EXACT_DIAGNOSTICS:
        assert got["diagnostics"].get(key) == want["diagnostics"].get(key), key
    for key in CLOSE_DIAGNOSTICS:
        assert close(got["diagnostics"].get(key), want["diagnostics"].get(key)), key


USAGE = ("usage: PYTHONPATH=src python tests/test_golden.py --write CASE [CASE ...]\n"
         "cases: " + " ".join(sorted(CASES)))


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
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case(s): {' '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        text = json.dumps(report_payload(name), sort_keys=True, indent=2)
        (GOLDEN / f"{name}.json").write_text(text + "\n")
        print(f"wrote {name}")
