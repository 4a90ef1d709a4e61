"""Sampling schemes: the survey's full menagerie."""

from .base import WeightedSample
from .bilevel import bilevel_sample
from .block import block_bernoulli_sample, block_fixed_sample
from .distinct import distinct_sample
from .join_synopsis import ForeignKeyEdge, JoinSynopsis, build_join_synopsis
from .measure_biased import measure_biased_sample
from .outlier import OutlierIndex, build_outlier_index
from .reservoir import ReservoirSampler
from .row import bernoulli_sample, srs_sample, systematic_sample
from .stratified import allocate, stratified_sample
from .universe import joint_universe_samples, universe_sample

__all__ = [
    "ForeignKeyEdge",
    "JoinSynopsis",
    "OutlierIndex",
    "ReservoirSampler",
    "WeightedSample",
    "allocate",
    "bernoulli_sample",
    "bilevel_sample",
    "block_bernoulli_sample",
    "block_fixed_sample",
    "build_join_synopsis",
    "build_outlier_index",
    "distinct_sample",
    "joint_universe_samples",
    "measure_biased_sample",
    "srs_sample",
    "stratified_sample",
    "systematic_sample",
    "universe_sample",
]
