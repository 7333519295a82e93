"""Distance-to-probability curve families and their evaluation.

Every curve maps a Tx-Rx distance in meters to a raw value (its ``raw``
method, which carries no domain checks); probabilities are obtained by
clamping the raw value into [0, 1]. The families cover all fitted shapes
used by the scenario models:

* ``Poly2``: a*d^2 + b*d + c
* ``ExpDecay``: a * exp(-b*d)
* ``LogBell``: (1 / (s*d)) * exp(-(ln d - mu)^2 / k)
* ``OffsetMinusLogBell``: offset - LogBell(d)
* ``Piecewise``: one curve below a threshold distance, another at or above it
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DomainError


@dataclass(frozen=True)
class Poly2:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.b, self.c)):
            raise ValueError("Poly2 coefficients must be finite")

    def raw(self, d: float) -> float:
        return (self.a * d + self.b) * d + self.c


@dataclass(frozen=True)
class ExpDecay:
    a: float
    b: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.b)):
            raise ValueError("ExpDecay coefficients must be finite")

    def raw(self, d: float) -> float:
        return self.a * math.exp(-self.b * d)


@dataclass(frozen=True)
class LogBell:
    s: float
    mu: float
    k: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.s, self.mu, self.k)):
            raise ValueError("LogBell coefficients must be finite")
        if self.s <= 0.0 or self.k <= 0.0:
            raise ValueError("LogBell requires s > 0 and k > 0")

    def raw(self, d: float) -> float:
        t = math.log(d) - self.mu
        return (1.0 / (self.s * d)) * math.exp(-(t * t) / self.k)


@dataclass(frozen=True)
class OffsetMinusLogBell:
    offset: float
    inner: LogBell

    def __post_init__(self):
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")

    def raw(self, d: float) -> float:
        return self.offset - self.inner.raw(d)


@dataclass(frozen=True)
class Piecewise:
    d_t: float
    low: "CurveSpec"
    high: "CurveSpec"

    def __post_init__(self):
        if not (math.isfinite(self.d_t) and self.d_t > 0.0):
            raise ValueError("threshold distance must be finite and positive")

    def raw(self, d: float) -> float:
        # Ties at the threshold take the high-distance branch.
        return (self.low if d < self.d_t else self.high).raw(d)


CurveSpec = Union[Poly2, ExpDecay, LogBell, OffsetMinusLogBell, Piecewise]


def contains_log_bell(spec: CurveSpec) -> bool:
    if isinstance(spec, LogBell):
        return True
    if isinstance(spec, OffsetMinusLogBell):
        return True
    if isinstance(spec, Piecewise):
        return contains_log_bell(spec.low) or contains_log_bell(spec.high)
    return False


def _check_domain(spec: CurveSpec, d: float) -> None:
    if not math.isfinite(d):
        raise DomainError(f"distance must be finite, got {d!r}")
    if d <= 0.0 and contains_log_bell(spec):
        raise DomainError(f"log-domain curve undefined for d <= 0, got {d!r}")


def raw_value(spec: CurveSpec, d: float) -> float:
    """Family value before the [0, 1] clamp. Same domain rules as eval_curve."""
    _check_domain(spec, d)
    return spec.raw(d)


def eval_curve(spec: CurveSpec, d: float) -> float:
    """Probability at distance ``d``: the family value clamped into [0, 1]."""
    _check_domain(spec, d)
    v = spec.raw(d)
    if v < 0.0:
        return 0.0
    if v > 1.0:
        return 1.0
    return v


def curve_to_dict(spec: CurveSpec) -> dict:
    if isinstance(spec, Poly2):
        return {"family": "poly2", "a": spec.a, "b": spec.b, "c": spec.c}
    if isinstance(spec, ExpDecay):
        return {"family": "exp_decay", "a": spec.a, "b": spec.b}
    if isinstance(spec, LogBell):
        return {"family": "log_bell", "s": spec.s, "mu": spec.mu, "k": spec.k}
    if isinstance(spec, OffsetMinusLogBell):
        return {
            "family": "offset_minus_log_bell",
            "offset": spec.offset,
            "inner": curve_to_dict(spec.inner),
        }
    if isinstance(spec, Piecewise):
        return {
            "family": "piecewise",
            "d_t": spec.d_t,
            "low": curve_to_dict(spec.low),
            "high": curve_to_dict(spec.high),
        }
    raise TypeError(f"unknown curve spec {type(spec).__name__}")


def _require_keys(obj: dict, keys: set[str]) -> None:
    got = set(obj)
    if got != keys:
        raise ValueError(f"curve object keys {sorted(got)} do not match expected {sorted(keys)}")


def curve_from_dict(obj: dict) -> CurveSpec:
    family = obj.get("family")
    if family == "poly2":
        _require_keys(obj, {"family", "a", "b", "c"})
        return Poly2(float(obj["a"]), float(obj["b"]), float(obj["c"]))
    if family == "exp_decay":
        _require_keys(obj, {"family", "a", "b"})
        return ExpDecay(float(obj["a"]), float(obj["b"]))
    if family == "log_bell":
        _require_keys(obj, {"family", "s", "mu", "k"})
        return LogBell(float(obj["s"]), float(obj["mu"]), float(obj["k"]))
    if family == "offset_minus_log_bell":
        _require_keys(obj, {"family", "offset", "inner"})
        inner = curve_from_dict(obj["inner"])
        if not isinstance(inner, LogBell):
            raise ValueError("offset_minus_log_bell inner curve must be log_bell")
        return OffsetMinusLogBell(float(obj["offset"]), inner)
    if family == "piecewise":
        _require_keys(obj, {"family", "d_t", "low", "high"})
        return Piecewise(float(obj["d_t"]), curve_from_dict(obj["low"]), curve_from_dict(obj["high"]))
    raise ValueError(f"unknown curve family {family!r}")
