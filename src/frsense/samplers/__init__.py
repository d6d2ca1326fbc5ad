"""Posterior samplers producing grid-evaluated density draws."""

from .common import (
    Dataset,
    McmcControl,
    PosteriorSample,
    derived_seed,
    make_rng,
    sample_crp_partition,
    silverman_bandwidth,
)
from .dp import (
    BetaBase,
    DpConfig,
    UniformBase,
    centering_weight,
    dp_posterior,
)
from .dpgmm import DpgmmConfig, dpgmm_posterior
from .griffin import (
    CcvConfig,
    DcvConfig,
    ccv_posterior,
    dcv_posterior,
    sample_griffin_steel,
)

__all__ = [
    "BetaBase",
    "CcvConfig",
    "Dataset",
    "DcvConfig",
    "DpConfig",
    "DpgmmConfig",
    "McmcControl",
    "PosteriorSample",
    "UniformBase",
    "ccv_posterior",
    "centering_weight",
    "dcv_posterior",
    "derived_seed",
    "dp_posterior",
    "dpgmm_posterior",
    "make_rng",
    "sample_crp_partition",
    "sample_griffin_steel",
    "silverman_bandwidth",
]
