"""The public API of the package."""

import dataclasses
import inspect
import os
import subprocess
import sys

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
                 "predict", "fit_mu", "fit_rlearner_weighted"):
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
    # Names only tests read are gone; a p-value is (value, subgroup, flag).
    assert not hasattr(adasplit.Dataset, "equals")
    assert not hasattr(adasplit.SubgroupPartition, "k")
    fields = [f.name for f in dataclasses.fields(adasplit.PValue)]
    assert fields == ["value", "subgroup", "flag"]


def test_import_leaves_scipy_stats_unloaded():
    # Loading scipy.stats about doubles the package's import time; the
    # package needs only scipy.special, scipy.linalg and scipy.spatial.
    src = os.path.dirname(os.path.dirname(adasplit.__file__))
    code = "import sys, adasplit; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
