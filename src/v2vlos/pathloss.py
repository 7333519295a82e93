"""Path loss per visibility state.

LOS and NLOSb follow log-distance curves (intercept at 1 m plus
10*exponent*log10(d)). NLOSv uses the simplified vehicle-blockage rule: free
space plus a constant extra attenuation (8 dB by default). Shadow fading is
deliberately not added; callers wanting it can add a fading term on top of
the returned series.

The shipped default LOS/NLOSb parameters are illustrative only, chosen to
give a plausible curve separation. Measurement-backed values should be
supplied through :meth:`PathLossParams.from_file`.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from numbers import Real
from pathlib import Path
from typing import Callable

import numpy as np

from .curves import as_float, check_object
from .errors import DistanceClampWarning, DomainError
from .markov import StateTrace
from .states import LosState

# 20*log10(4*pi/c) with c in m/s; free space in dB at 1 m and 1 Hz.
FREE_SPACE_CONSTANT_DB = -147.55

DEFAULT_PARAMS_RESOURCE = "pathloss_defaults.json"


def free_space_pl(d: float, f: float) -> float:
    """Friis free-space path loss in dB: 20*log10(d) + 20*log10(f) - 147.55."""
    if not (isinstance(d, Real) and math.isfinite(d)) or d < 1.0:
        raise DomainError(f"distance must be >= 1 m, got {d!r}")
    if not (isinstance(f, Real) and math.isfinite(f)) or f <= 0.0:
        raise DomainError(f"frequency must be positive, got {f!r}")
    return 20.0 * math.log10(float(d)) + 20.0 * math.log10(float(f)) + FREE_SPACE_CONSTANT_DB


@dataclass(frozen=True)
class LogDistance:
    """Log-distance curve: intercept_db + 10 * exponent * log10(d)."""

    intercept_db: float
    exponent: float

    def __post_init__(self):
        if not (math.isfinite(self.intercept_db) and math.isfinite(self.exponent) and self.exponent > 0.0):
            raise ValueError("need finite intercept and finite positive exponent")

    def at(self, d: float) -> float:
        return self.intercept_db + 10.0 * self.exponent * math.log10(d)


@dataclass(frozen=True)
class PathLossParams:
    los: LogDistance
    nlosb: LogDistance
    nlosv_extra_db: float = 8.0
    carrier_freq_hz: float = 2.0e9

    def __post_init__(self):
        if not (math.isfinite(self.nlosv_extra_db) and self.nlosv_extra_db >= 0.0):
            raise ValueError("nlosv_extra_db must be finite and non-negative")
        if not (math.isfinite(self.carrier_freq_hz) and self.carrier_freq_hz > 0.0):
            raise ValueError("carrier frequency must be finite and positive")

    @classmethod
    def from_dict(cls, obj) -> "PathLossParams":
        """Parse a path-loss file's JSON tree, as strictly as a scenario file; malformed input raises ValueError."""
        check_object(obj, {"los", "nlosb", "nlosv_extra_db", "carrier_freq_hz"}, "path-loss")

        def curve(name: str) -> LogDistance:
            o = check_object(obj[name], {"intercept_db", "exponent"}, f"{name} log-distance")
            return LogDistance(as_float(o["intercept_db"], f"{name}.intercept_db"),
                               as_float(o["exponent"], f"{name}.exponent"))

        return cls(curve("los"), curve("nlosb"), as_float(obj["nlosv_extra_db"], "nlosv_extra_db"),
                   as_float(obj["carrier_freq_hz"], "carrier_freq_hz"))

    @classmethod
    def from_file(cls, path: str | Path) -> "PathLossParams":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    @classmethod
    def defaults(cls) -> "PathLossParams":
        text = resources.files("v2vlos").joinpath("data", DEFAULT_PARAMS_RESOURCE).read_text(encoding="utf-8")
        return cls.from_dict(json.loads(text))


def _per_state(p: PathLossParams) -> tuple[Callable[[float], float], ...]:
    """Path loss in dB of LOS, NLOSv and NLOSb, in state order, at a checked distance."""
    f, extra = p.carrier_freq_hz, p.nlosv_extra_db
    return (p.los.at, lambda d: free_space_pl(d, f) + extra, p.nlosb.at)


def state_path_loss(state: LosState, d: float, p: PathLossParams) -> float:
    """Path loss in dB for one state at distance ``d`` (d >= 1 m)."""
    if not (isinstance(d, Real) and math.isfinite(d)) or d < 1.0:
        raise DomainError(f"distance must be >= 1 m, got {d!r}")
    return _per_state(p)[LosState(state)](float(d))


def render_path_loss(trace: StateTrace, p: PathLossParams) -> np.ndarray:
    """Path loss in dB at each step of a state trace, as :func:`state_path_loss` gives it.

    Its grid holds finite, positive distances; those in (0, 1) m are evaluated
    at 1 m, with one :class:`DistanceClampWarning`, as the chain clamps them.
    """
    d = trace.distances
    short = np.flatnonzero(d < 1.0)
    if short.size:
        warnings.warn(f"{short.size} distance(s) below 1 m evaluated at 1 m (first {d[short[0]].item()!r} m)",
                      DistanceClampWarning, stacklevel=2)
        d = np.maximum(d, 1.0)
    per_state = _per_state(p)
    return np.array([per_state[s](x) for s, x in zip(trace.states.tolist(), d.tolist())], dtype=float)
