"""Distance-to-probability curve families and their evaluation.

Every curve maps a Tx-Rx distance in meters to a raw value (its ``raw``
method, which carries no domain checks); probabilities are obtained by
clamping the raw value into [0, 1]. ``values`` is ``raw`` over a numpy
array, with numpy's ``exp`` and ``log``: the two differ in the last bits of
those alone. The families cover all fitted shapes used by the scenario models:

* ``Poly2``: a*d^2 + b*d + c
* ``ExpDecay``: a * exp(-b*d)
* ``LogBell``: (1 / (s*d)) * exp(-(ln d - mu)^2 / k)
* ``OffsetMinusLogBell``: offset - LogBell(d)
* ``Piecewise``: one curve below a threshold distance, another at or above it

Each family is one frozen dataclass: its ``family`` tag names it in
parameter files, its ``float`` fields are coefficients and its other fields
are nested curves, which is all the generic (de)serialisation below needs.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, fields
from typing import ClassVar, Union, get_args

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Poly2:
    family: ClassVar[str] = "poly2"
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.b, self.c)):
            raise ValueError("Poly2 coefficients must be finite")

    def raw(self, d):
        """The value at ``d``, a float or a numpy array."""
        return (self.a * d + self.b) * d + self.c

    values = raw


@dataclass(frozen=True)
class ExpDecay:
    family: ClassVar[str] = "exp_decay"
    a: float
    b: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.b)):
            raise ValueError("ExpDecay coefficients must be finite")

    def raw(self, d: float) -> float:
        return self.a * math.exp(-self.b * d)

    def values(self, d: np.ndarray) -> np.ndarray:
        return self.a * np.exp(-self.b * d)


@dataclass(frozen=True)
class LogBell:
    family: ClassVar[str] = "log_bell"
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

    def values(self, d: np.ndarray) -> np.ndarray:
        return log_bell_values(d, self.s, self.mu, self.k)


def log_bell_values(d, s, mu, k) -> np.ndarray:
    """The log-domain bell over an array of distances, its coefficients floats or arrays that broadcast with ``d``."""
    t = np.log(d) - mu
    return (1.0 / (s * d)) * np.exp(-(t * t) / k)


@dataclass(frozen=True)
class OffsetMinusLogBell:
    family: ClassVar[str] = "offset_minus_log_bell"
    offset: float
    inner: LogBell

    def __post_init__(self):
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")
        if not isinstance(self.inner, LogBell):
            raise ValueError("offset_minus_log_bell inner curve must be log_bell")

    def raw(self, d: float) -> float:
        return self.offset - self.inner.raw(d)

    def values(self, d: np.ndarray) -> np.ndarray:
        return self.offset - self.inner.values(d)


@dataclass(frozen=True)
class Piecewise:
    family: ClassVar[str] = "piecewise"
    d_t: float
    low: "CurveSpec"
    high: "CurveSpec"

    def __post_init__(self):
        if not (math.isfinite(self.d_t) and self.d_t > 0.0):
            raise ValueError("threshold distance must be finite and positive")
        if not all(type(branch) in FAMILIES.values() for branch in (self.low, self.high)):
            raise ValueError("piecewise branches must be curves")

    def raw(self, d: float) -> float:
        # Ties at the threshold take the high-distance branch.
        return (self.low if d < self.d_t else self.high).raw(d)

    def values(self, d: np.ndarray) -> np.ndarray:
        return np.where(d < self.d_t, self.low.values(d), self.high.values(d))


CurveSpec = Union[Poly2, ExpDecay, LogBell, OffsetMinusLogBell, Piecewise]

# JSON tag -> family class, for parameter files.
FAMILIES = {cls.family: cls for cls in get_args(CurveSpec)}


def _is_curve(f: Field) -> bool:
    # Coefficients are annotated ``float``; every other field holds a nested curve.
    return f.type != "float"


def contains_log_bell(spec: CurveSpec) -> bool:
    return isinstance(spec, LogBell) or any(
        contains_log_bell(getattr(spec, f.name)) for f in fields(spec) if _is_curve(f)
    )


def eval_curve(spec: CurveSpec, d: float) -> float:
    """Probability at distance ``d``: the family value clamped into [0, 1]."""
    if not math.isfinite(d):
        raise DomainError(f"distance must be finite, got {d!r}")
    if d <= 0.0 and contains_log_bell(spec):
        raise DomainError(f"log-domain curve undefined for d <= 0, got {d!r}")
    v = spec.raw(d)
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


def check_range(spec: CurveSpec, lo: float, hi: float, what: str) -> None:
    """Raise ValueError unless ``spec`` is finite at both ends of [lo, hi].

    A piecewise branch is checked on the sub-range where it applies, and
    ``lo`` is at least 1 m. The ends then rule out an error or NaN anywhere
    in the range. Only ``exp_decay`` can overflow, and it is monotone. Only
    ``log_bell`` can be NaN: an infinite scale 1/(s*d) times a bell that
    underflows to zero, and that scale is largest at the low end. (A sum can
    still reach +-inf inside the range, which the [0, 1] clamp handles.)
    """
    if isinstance(spec, Piecewise):
        if lo < spec.d_t:
            check_range(spec.low, lo, min(hi, math.nextafter(spec.d_t, 0.0)), what)
        if hi >= spec.d_t:
            check_range(spec.high, max(lo, spec.d_t), hi, what)
        return
    try:
        finite = math.isfinite(spec.raw(lo)) and math.isfinite(spec.raw(hi))
    except OverflowError:  # math.exp overflows; s*d >= s > 0, as d >= 1
        finite = False
    if not finite:
        raise ValueError(f"{what} ({spec.family}) overflows or is not finite on [{lo!r}, {hi!r}] m")


def curve_to_dict(spec: CurveSpec) -> dict:
    if type(spec) not in FAMILIES.values():
        raise TypeError(f"unknown curve spec {type(spec).__name__}")
    out = {"family": spec.family}
    for f in fields(spec):
        value = getattr(spec, f.name)
        out[f.name] = curve_to_dict(value) if _is_curve(f) else value
    return out


def check_object(obj, keys: set[str], what: str) -> dict:
    """``obj`` itself, once it is known to be a JSON object with exactly ``keys``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if set(obj) != keys:
        raise ValueError(f"{what} keys {sorted(obj)} do not match expected {sorted(keys)}")
    return obj


def as_float(value, what: str) -> float:
    """A JSON number as a float; text and booleans are not numbers here."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def curve_from_dict(obj: dict) -> CurveSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"curve must be a JSON object, got {type(obj).__name__}")
    family = obj.get("family")
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ValueError(f"unknown curve family {family!r}")
    check_object(obj, {"family"} | {f.name for f in fields(cls)}, f"{family} curve")
    return cls(**{
        f.name: curve_from_dict(obj[f.name]) if _is_curve(f) else as_float(obj[f.name], f"{family}.{f.name}")
        for f in fields(cls)
    })
