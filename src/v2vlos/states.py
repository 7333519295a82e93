"""Channel visibility states and scenario enumerations."""

from __future__ import annotations

from enum import Enum, IntEnum


class LosState(IntEnum):
    """Visibility of the direct ray between two vehicles.

    LOS: unobstructed. NLOSv: blocked by other vehicles. NLOSb: blocked by
    static objects (buildings, foliage). Integer values fix the row/column
    order of every probability vector and transition matrix.
    """

    LOS = 0
    NLOSv = 1
    NLOSb = 2


CANONICAL_STATES: tuple[LosState, LosState, LosState] = (
    LosState.LOS,
    LosState.NLOSv,
    LosState.NLOSb,
)

# State names in canonical order, as trace and parameter files spell them.
STATE_NAMES = tuple(s.name for s in CANONICAL_STATES)


class Environment(str, Enum):
    URBAN = "urban"
    HIGHWAY = "highway"


class Density(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
