"""Band-limited circular densities with grid-based ancestral sampling."""

from .ancestor import (
    AliasTable,
    AncestorPmf,
    build_alias,
    build_ancestor,
    reconstruct_pmf,
    sample_ancestors,
)
from .batch import SampleBatch, read_csv
from .kernels import BSplineKernel, compound_pdf, grid_ancestral_sample
from .metrics import (
    DivergenceReport,
    empirical_w1,
    inverse_transform_sample,
    kl_monte_carlo,
    rejection_sample,
    tv_bound,
    tv_quadrature,
    w1_bound,
    w1_quadrature,
)
from .model import (
    EvalCounter,
    FourierDensity,
    autocorrelate,
    load_density,
    random_density,
    save_density,
    wrap,
)
from .refine import LangevinConfig, mala_refine, ula_refine

__all__ = [
    "AliasTable",
    "AncestorPmf",
    "BSplineKernel",
    "DivergenceReport",
    "EvalCounter",
    "FourierDensity",
    "LangevinConfig",
    "SampleBatch",
    "autocorrelate",
    "build_alias",
    "build_ancestor",
    "compound_pdf",
    "empirical_w1",
    "grid_ancestral_sample",
    "inverse_transform_sample",
    "kl_monte_carlo",
    "load_density",
    "mala_refine",
    "random_density",
    "read_csv",
    "reconstruct_pmf",
    "rejection_sample",
    "sample_ancestors",
    "save_density",
    "tv_bound",
    "tv_quadrature",
    "ula_refine",
    "w1_bound",
    "w1_quadrature",
    "wrap",
]

__version__ = "0.1.0"
