"""The public API of the package."""

import adasplit


def test_every_exported_name_resolves():
    assert len(set(adasplit.__all__)) == len(adasplit.__all__)
    for name in adasplit.__all__:
        getattr(adasplit, name)


def test_removed_names_are_not_exported():
    for name in ("SelectionModel", "fit_selection_prob", "estimate_noise_var",
                 "FoldState", "RejectionSet", "holm", "validate_dataset",
                 "t_dm", "phi_aipw", "fit_rlearner_ols"):
        assert name not in adasplit.__all__
        assert not hasattr(adasplit, name)
