"""3GPP/ITU urban-micro LOS probability baseline.

The baseline knows two states only, LOS and a generic blocked state that is
mapped to NLOSb here (its blockage is assumed static). Each step is drawn
independently of the previous state, which is exactly the memoryless
behavior the distance-dependent chain is compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from .errors import DomainError
from .markov import Sampler

UMI_SCENARIO_TAG = "umi"


@dataclass(frozen=True)
class UmiParams:
    d1: float = 18.0
    d2: float = 36.0

    def __post_init__(self):
        if not (self.d1 > 0.0 and self.d2 > 0.0):
            raise ValueError("d1 and d2 must be positive")


def umi_los_probability(d: float, p: UmiParams = UmiParams()) -> float:
    """P(LOS) = min(d1/d, 1) * (1 - exp(-d/d2)) + exp(-d/d2)."""
    if not (isinstance(d, Real) and math.isfinite(d)):
        raise DomainError(f"distance must be finite, got {d!r}")
    d = float(d)
    if d <= 0.0:
        raise DomainError(f"distance must be positive, got {d!r}")
    return raw(d, p.d1, p.d2)


def raw(d: float, d1: float, d2: float) -> float:
    """P(LOS) without the checks on ``d``, which must be finite and positive."""
    e = math.exp(-d / d2)
    return min(d1 / d, 1.0) * (1.0 - e) + e


def baseline(p: UmiParams = UmiParams()) -> Sampler:
    """The sampler of the baseline: a per-step independent LOS/NLOSb draw.

    Every draw, initial or not, is LOS when u < P(LOS) and NLOSb otherwise:
    with c0 == c1 the engine never picks NLOSv.
    """
    # A DistanceTrace holds only finite, positive distances, so the checks of
    # umi_los_probability are skipped.
    d1, d2 = p.d1, p.d2

    def thresholds(origin: int, d: float) -> tuple[float, float]:
        los = raw(d, d1, d2)
        return los, los

    return Sampler(thresholds, UMI_SCENARIO_TAG)
