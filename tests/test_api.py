"""The public API of the package."""

import ast
import inspect
import os
import subprocess
import sys

import numpy as np

import adasplit


def test_every_exported_name_resolves():
    assert len(set(adasplit.__all__)) == len(adasplit.__all__)
    for name in adasplit.__all__:
        getattr(adasplit, name)


def test_removed_names_are_not_exported():
    for name in ("SelectionModel", "fit_selection_prob", "estimate_noise_var",
                 "FoldState", "RejectionSet", "holm", "validate_dataset",
                 "t_dm", "phi_aipw", "fit_rlearner_ols", "fit_bar_learner",
                 "marginalized_residual", "gaussian_approx_pvalue",
                 "optimal_soft_inclusion", "TestStatisticSpec",
                 "NuisanceModel", "STAT_DM", "STAT_AIPW", "fisher_combine",
                 "predict", "fit_mu", "fit_rlearner_weighted", "PValue"):
        assert name not in adasplit.__all__
        assert not hasattr(adasplit, name)
    # The statistic is one formula with one argument, the outcome model.
    for name in ("TestStatisticSpec", "STAT_DM", "STAT_AIPW", "_linear_coeffs"):
        assert not hasattr(adasplit.randtest, name)
    assert not hasattr(adasplit.nuisance, "NuisanceModel")
    assert not hasattr(adasplit.multtest, "fisher_combine")
    assert not hasattr(adasplit.linmodel, "predict")
    # fit_wls is the one least-squares entry point.
    assert not hasattr(adasplit.nuisance, "fit_mu")
    assert not hasattr(adasplit.nuisance, "fit_rlearner_weighted")
    assert not hasattr(adasplit.LinearModel, "n_features")
    # Parameters no caller outside the tests set are gone.
    for fn, name in ((adasplit.fit_wls, "w"),
                     (adasplit.simlab.run_replications, "methods"),
                     (adasplit.simlab.cate_quality_experiment, "holdout"),
                     (adasplit.exact_pvalue, "subgroup_id")):
        assert name not in inspect.signature(fn).parameters
    # Names only tests read are gone; a p-value is a plain float.
    assert not hasattr(adasplit.Dataset, "equals")
    assert not hasattr(adasplit.SubgroupPartition, "k")
    assert not hasattr(adasplit.engine, "selection_criterion")
    assert not hasattr(adasplit.randtest, "PValue")
    # ALL_METHODS alone spells the method names; simlab keeps no method path.
    for name in ("METHOD_RT", "METHOD_RANDOM_SPLIT", "METHOD_ADASPLIT", "canonical_method"):
        assert not hasattr(adasplit.simlab, name)


def test_selection_loop_functions_take_no_output_buffer():
    # Each call returns a fresh result; none writes into an array it is given.
    for fn in (adasplit.posterior_e, adasplit.certainty):
        assert "out" not in inspect.signature(fn).parameters
    # One take serves a single unit and an array of units alike.
    log_methods = [name for name in vars(adasplit.engine._AssignmentLog)
                   if not name.startswith("_")]
    assert log_methods == ["take", "reads"]
    # Lists go through the same ufuncs as arrays, to the same bits.
    y, mu_vals, tau_vals = [0.3, -1.2, 2.5, 40.0], [0.1, 0.2, -0.4, 0.0], [1.5, -0.7, 0.9, 2.0]
    e_list = adasplit.posterior_e(y, mu_vals, tau_vals, 0.8)
    e_array = adasplit.posterior_e(np.array(y), np.array(mu_vals), np.array(tau_vals), 0.8)
    assert e_list.tobytes() == e_array.tobytes()
    assert adasplit.certainty(e_array.tolist()).tobytes() == adasplit.certainty(e_array).tobytes()


def test_assignments_are_read_only_where_listed():
    # Outside the assignment log, the package reads a dataset's z only in
    # these functions; a new read around the log fails here.
    src = os.path.dirname(adasplit.__file__)
    reads = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "z"
                    and isinstance(child.ctx, ast.Load)
                    and not (isinstance(child.value, ast.Name) and child.value.id == "self")):
                reads.append(".".join([module] + scope))
            visit(child, module, scope)

    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                visit(ast.parse(fh.read()), name[:-3], [])
    assert sorted(reads) == [
        "data.write_dataset_csv",
        "engine.run",                          # _AssignmentLog(dataset.z)
        "engine.run_method",                   # _AssignmentLog(dataset.z)
        "randtest._fold_statistic",
        "simlab.cate_quality_experiment",      # its baseline, after the report
    ]


def test_method_path_has_one_home():
    # The three methods live in engine; simlab and the package re-export the
    # one function, and simlab's ALL_METHODS is engine's tuple.
    assert adasplit.run_method is adasplit.engine.run_method
    assert adasplit.simlab.run_method is adasplit.engine.run_method
    assert adasplit.simlab.ALL_METHODS == ("rt", "random_split", "adasplit")
    assert adasplit.simlab.ALL_METHODS is adasplit.engine.ALL_METHODS


def test_import_leaves_scipy_stats_unloaded():
    # Loading scipy.stats about doubles the package's import time; the
    # package needs only scipy.special, scipy.linalg and scipy.spatial.
    src = os.path.dirname(os.path.dirname(adasplit.__file__))
    code = "import sys, adasplit; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
