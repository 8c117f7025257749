"""Canonical temporal-unit arithmetic in log-second space.

Everything downstream (extraction labels, model targets, evaluation
protocols) funnels through the conversions here: normalization of a
"quantity + unit" pair to the natural log of its length in seconds,
bucketing a log-second value to the closest unit, approximate agreement
between units, and the one-day coarse split.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from functools import lru_cache
from typing import Sequence

__all__ = [
    "TemporalUnit",
    "UnitInventory",
    "UNITS_7",
    "UNITS_8",
    "LESS_THAN_DAY",
    "MORE_THAN_DAY",
    "DAY_BOUNDARY_SECONDS",
    "InvalidQuantityError",
    "ConfigError",
    "normalize",
    "closest_unit",
    "approx_match",
    "coarse_of_value",
    "coarse_of_unit",
    "format_duration",
]


class InvalidQuantityError(ValueError):
    """Raised for quantities that do not describe a positive finite duration."""


class ConfigError(ValueError):
    """Raised for a setting that is invalid or disagrees with the data; it
    lives in this leaf module so that raising it loads no numpy."""


class TemporalUnit(enum.IntEnum):
    """The eight units, ordered from shortest to longest.

    The integer value doubles as the ordinal used for adjacency checks.
    """

    SECOND = 0
    MINUTE = 1
    HOUR = 2
    DAY = 3
    WEEK = 4
    MONTH = 5
    YEAR = 6
    DECADE = 7

    @property
    def seconds(self) -> int:
        return _UNIT_SECONDS[self]

    @property
    def word(self) -> str:
        return _UNIT_WORDS[self]

    @classmethod
    def from_string(cls, text: str) -> "TemporalUnit":
        """Parse a unit word, tolerating case and a plural trailing "s"."""
        return _unit_of_word(text)

    def __str__(self) -> str:
        return self.word


# Indexed by the unit's ordinal. Calendar approximations: 30-day month,
# 365-day year, 10-year decade. The day value (86,400 s) is also the
# coarse-task boundary.
_UNIT_SECONDS = (1, 60, 3_600, 86_400, 604_800, 2_592_000, 31_536_000, 315_360_000)
_UNIT_WORDS = tuple(u.name.lower() for u in TemporalUnit)
_UNIT_LOG_SECONDS = tuple(math.log(s) for s in _UNIT_SECONDS)


# A ValueError is not cached, so each bad word raises with its own text.
@lru_cache(maxsize=256)
def _unit_of_word(text: str) -> TemporalUnit:
    word = text.strip().lower()
    if word.endswith("s") and word != "s":
        word = word[:-1]
    try:
        return TemporalUnit[word.upper()]
    except KeyError:
        raise ValueError(f"unknown temporal unit: {text!r}") from None


DAY_BOUNDARY_SECONDS = 86_400
_LOG_DAY = math.log(DAY_BOUNDARY_SECONDS)

# Coarse labels for the less-than-a-day / longer-than-a-day split.
LESS_THAN_DAY = "<day"
MORE_THAN_DAY = ">day"

UnitInventory = Sequence[TemporalUnit]

# The two inventories in use: classification over second..year, or the
# full set with "decade" appended.
UNITS_8: tuple[TemporalUnit, ...] = tuple(TemporalUnit)
UNITS_7: tuple[TemporalUnit, ...] = UNITS_8[:7]


def inventory_of_size(n: int) -> tuple[TemporalUnit, ...]:
    """Return the n shortest units as an inventory (n in 1..8)."""
    if not 1 <= n <= len(UNITS_8):
        raise ValueError(f"inventory size must be in 1..{len(UNITS_8)}, got {n}")
    return UNITS_8[:n]


def normalize(quantity: float, unit: TemporalUnit) -> float:
    """Map a duration expression to log-second space: ln(quantity * seconds(unit))."""
    if not math.isfinite(quantity) or quantity <= 0:
        raise InvalidQuantityError(f"quantity must be positive and finite, got {quantity!r}")
    return math.log(quantity * unit.seconds)


def closest_unit(value: float, inventory: UnitInventory = UNITS_8) -> TemporalUnit:
    """Return the inventory unit whose log-second point is nearest to `value`.

    Distance is measured in log space, so bucket boundaries fall at
    geometric midpoints between adjacent units. Exact ties go to the
    smaller unit, and a value past either end unit's point gets that unit.
    """
    if not math.isfinite(value):
        raise InvalidQuantityError(f"value must be finite, got {value!r}")
    units, points = _points_of(inventory if type(inventory) is tuple else tuple(inventory))
    i = bisect_left(points, value)
    if i == 0:
        return units[0]
    if i == len(points):
        return units[-1]
    # The two neighbours, compared as a scan from the smaller unit would.
    return units[i] if abs(value - points[i]) < abs(value - points[i - 1]) else units[i - 1]


@lru_cache(maxsize=16)
def _points_of(inventory: tuple[TemporalUnit, ...]) -> tuple[tuple[TemporalUnit, ...], tuple[float, ...]]:
    """The units of an inventory in unit order, and their log-second points."""
    if not inventory:
        raise ValueError("inventory must be nonempty")
    units = tuple(sorted(set(inventory)))
    return units, tuple(_UNIT_LOG_SECONDS[u] for u in units)


def approx_match(a: TemporalUnit, b: TemporalUnit) -> bool:
    """Approximate agreement: units match when identical or adjacent."""
    return abs(int(a) - int(b)) <= 1


def coarse_of_value(value: float) -> str:
    """Coarse label for a log-second value: "<day" iff strictly below one day."""
    if not math.isfinite(value):
        raise InvalidQuantityError(f"value must be finite, got {value!r}")
    return LESS_THAN_DAY if value < _LOG_DAY else MORE_THAN_DAY


def coarse_of_unit(unit: TemporalUnit) -> str:
    """Coarse label for a unit prediction: second/minute/hour mean "<day"."""
    return LESS_THAN_DAY if unit <= TemporalUnit.HOUR else MORE_THAN_DAY


def format_duration(quantity: int, unit: TemporalUnit) -> str:
    """Render a duration expression the way it appears in text, e.g. "3 hours"."""
    suffix = "" if quantity == 1 else "s"
    return f"{quantity} {unit.word}{suffix}"
