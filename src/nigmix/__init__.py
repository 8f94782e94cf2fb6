"""Variational clustering with normal inverse Gaussian mixtures.

Fits finite mixtures of univariate and multivariate normal inverse
Gaussian distributions by conjugate variational inference, selecting the
number of components by pruning, and ships the matching simulator and
clustering evaluation utilities.
"""

from ._vbcore import DegenerateComponent, DegenerateFit, FitResult
from .config import FitConfig, InvalidData
from .datasets import DatasetMissing
from .distributions import (
    LabeledSample,
    MixtureSpec,
    MNIGParams,
    UNIGParams,
    mnig_log_density,
    sample_mixture,
    unig_log_density,
)
from .evaluation import adjusted_rand_index, cross_tab, merge_labels
from .linalg import NotPositiveDefinite
from .presets import simulation_preset
from .vb_mnig import fit_m, fitted_density_m, plug_in_params_m
from .vb_unig import fit, fitted_density, plug_in_params

__all__ = [
    "DatasetMissing",
    "DegenerateComponent",
    "DegenerateFit",
    "FitConfig",
    "FitResult",
    "InvalidData",
    "LabeledSample",
    "MNIGParams",
    "MixtureSpec",
    "NotPositiveDefinite",
    "UNIGParams",
    "adjusted_rand_index",
    "cross_tab",
    "fit",
    "fit_m",
    "fitted_density",
    "fitted_density_m",
    "merge_labels",
    "mnig_log_density",
    "plug_in_params",
    "plug_in_params_m",
    "sample_mixture",
    "simulation_preset",
    "unig_log_density",
]

__version__ = "1.0.0"
