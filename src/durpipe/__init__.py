"""Weakly supervised event-duration prediction pipeline.

Harvests duration-bearing sentences from raw text, trains a dual-head
predictor (exact log-second regression and unit-range classification)
on one forward pass over hashed token-window embeddings, and scores
predictions under the coarse, fine-grained, and QA evaluation protocols.
"""

from .units import (
    LESS_THAN_DAY,
    MORE_THAN_DAY,
    UNITS_7,
    UNITS_8,
    TemporalUnit,
    approx_match,
    closest_unit,
    coarse_of_unit,
    coarse_of_value,
    normalize,
)

__version__ = "0.1.0"

__all__ = [
    "TemporalUnit",
    "UNITS_7",
    "UNITS_8",
    "LESS_THAN_DAY",
    "MORE_THAN_DAY",
    "normalize",
    "closest_unit",
    "approx_match",
    "coarse_of_value",
    "coarse_of_unit",
    "__version__",
]
