"""Core layer: error specs, results, the advisor, the trade-off model."""

# result before advisor: it loads the engine, which the advisor's
# offline and sampling imports need fully initialised
from .errorspec import ErrorSpec
from .result import ApproximateResult, CellEstimate, QueryResult
from .advisor import Advisor
from .session import AQPEngine
from .tradeoff import (
    TECHNIQUE_PROFILES,
    TechniqueProfile,
    comparison_matrix,
    dominated_techniques,
    format_matrix,
    no_silver_bullet,
)

__all__ = [
    "Advisor",
    "AQPEngine",
    "ApproximateResult",
    "CellEstimate",
    "ErrorSpec",
    "QueryResult",
    "TECHNIQUE_PROFILES",
    "TechniqueProfile",
    "comparison_matrix",
    "dominated_techniques",
    "format_matrix",
    "no_silver_bullet",
]
