"""Estimation: the Estimate view, bootstrap, propagation, diagnostics."""

from .bootstrap import BootstrapResult, bootstrap_ci, poissonized_bootstrap_total
from .closed_form import (
    Estimate,
    required_rate_for_sum,
    required_sample_size_for_mean,
)
from .propagation import (
    allocate_for_product,
    allocate_for_quotient,
    propagate_product,
    propagate_quotient,
    propagate_sum,
)
from .subsampling import design_effect_from_rows, jackknife_blocks

__all__ = [
    "BootstrapResult",
    "Estimate",
    "allocate_for_product",
    "allocate_for_quotient",
    "bootstrap_ci",
    "design_effect_from_rows",
    "jackknife_blocks",
    "poissonized_bootstrap_total",
    "propagate_product",
    "propagate_quotient",
    "propagate_sum",
    "required_rate_for_sum",
    "required_sample_size_for_mean",
]
