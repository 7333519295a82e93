"""Scenario parameter sets: fitted curves per environment and vehicle density.

Six builtin scenarios (urban/highway x low/medium/high density) carry the
published fitted coefficients verbatim. Their only copy is the shipped
parameter files ``data/{environment}_{density}.json``, which
:func:`builtin_model` reads. Each scenario stores four probability vectors:
the state probabilities and one transition row per origin state, each two
explicit curves; the third value is always the complement to one, assembled
in :mod:`v2vlos.assembly`. Highway transitions out of NLOSv are piecewise,
with a density-dependent threshold: 70 m at low density, 90 m at medium and
high. Every scenario has one domain, [1, 500] m, which a file's
``valid_range`` must state.

Models are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from numbers import Real
from pathlib import Path
from typing import Mapping

from .curves import CurveSpec, as_float, check_object, check_range, curve_from_dict, curve_to_dict
from .errors import DistanceClampWarning, DomainError
from .states import CANONICAL_STATES, STATE_NAMES, Density, Environment, LosState

SCENARIO_FORMAT = "v2v-los-scenario"
SCENARIO_FORMAT_VERSION = 1

DEFAULT_D_MIN = 1.0
DEFAULT_D_MAX = 500.0

OVER_RANGE_POLICIES = ("error", "clamp")


@dataclass(frozen=True)
class StateProbModel:
    """State probabilities, or one origin's transition row: two explicit curves and the complement."""

    explicit: Mapping[LosState, CurveSpec]
    complement: LosState

    def __post_init__(self):
        states = set(self.explicit) | {self.complement}
        if len(self.explicit) != 2 or self.complement in self.explicit or states != set(CANONICAL_STATES):
            raise ValueError("probability vector must name two explicit states and a distinct complement")


@dataclass(frozen=True)
class ScenarioModel:
    environment: Environment
    density: Density
    state_probs: StateProbModel
    rows: tuple[StateProbModel, StateProbModel, StateProbModel]  # indexed by origin state

    def __post_init__(self):
        if len(self.rows) != 3:
            raise ValueError("need exactly one transition row per origin state")
        names = ("state_probs", *(f"transitions.{o.name}" for o in CANONICAL_STATES))
        for what, block in zip(names, (self.state_probs, *self.rows)):
            for state, spec in block.explicit.items():
                check_range(spec, DEFAULT_D_MIN, DEFAULT_D_MAX, f"{what}.explicit.{state.name}")

    @property
    def tag(self) -> str:
        return f"{self.environment.value}-{self.density.value}"


def as_real(value, what: str = "distance") -> float:
    """``value`` as a float if it is a finite real number, not a bool; else :class:`DomainError`."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            raise DomainError(f"{what} is too large for a float") from None
        if math.isfinite(x):
            return x
    raise DomainError(f"{what} must be a finite real number, got {value!r}")


def effective_distance(d: float, over_range: str = "error") -> float:
    """Apply the model distance policy to ``d``: the domain of every scenario is [1, 500] m.

    Distances in (0, 1) m are clamped up to 1 m with a
    :class:`DistanceClampWarning` (the fits are meaningless below vehicle
    length). Distances above 500 m raise by default because the curves were
    only trained up to there; pass ``over_range="clamp"`` to pin them to
    500 m instead.
    """
    if over_range not in OVER_RANGE_POLICIES:
        raise ValueError(f"over_range must be one of {OVER_RANGE_POLICIES}, got {over_range!r}")
    d = as_real(d)
    if d <= 0.0:
        raise DomainError(f"distance must be positive, got {d!r}")
    if d < DEFAULT_D_MIN:
        warnings.warn(
            f"distance {d} m below model floor, clamped to {DEFAULT_D_MIN} m",
            DistanceClampWarning,
            stacklevel=2,
        )
        return DEFAULT_D_MIN
    if d > DEFAULT_D_MAX:
        if over_range == "clamp":
            return DEFAULT_D_MAX
        raise DomainError(f"distance {d} m above model ceiling {DEFAULT_D_MAX} m (policy 'error')")
    return d


def _block_to_dict(block: StateProbModel) -> dict:
    return {
        "explicit": {s.name: curve_to_dict(c) for s, c in block.explicit.items()},
        "complement": block.complement.name,
    }


def _state(name) -> LosState:
    if name not in STATE_NAMES:
        raise ValueError(f"unknown state {name!r}; expected one of {', '.join(STATE_NAMES)}")
    return LosState[name]


def _block_from_dict(obj, what: str) -> tuple[dict[LosState, CurveSpec], LosState]:
    """The ``explicit`` curves and the ``complement`` state of one vector or row."""
    check_object(obj, {"explicit", "complement"}, what)
    explicit = obj["explicit"]
    if not isinstance(explicit, dict):
        raise ValueError(f"{what}.explicit must be a JSON object, got {type(explicit).__name__}")
    return {_state(name): curve_from_dict(c) for name, c in explicit.items()}, _state(obj["complement"])


def scenario_to_dict(model: ScenarioModel) -> dict:
    return {
        "format": SCENARIO_FORMAT,
        "version": SCENARIO_FORMAT_VERSION,
        "environment": model.environment.value,
        "density": model.density.value,
        "valid_range": {"d_min": DEFAULT_D_MIN, "d_max": DEFAULT_D_MAX},
        "state_probs": _block_to_dict(model.state_probs),
        "transitions": {o.name: _block_to_dict(row) for o, row in zip(CANONICAL_STATES, model.rows)},
    }


def scenario_from_dict(obj: dict) -> ScenarioModel:
    """Parse a scenario parameter file's JSON tree; malformed input raises ValueError."""
    expected = {"format", "version", "environment", "density", "valid_range", "state_probs", "transitions"}
    check_object(obj, expected, "scenario")
    if obj["format"] != SCENARIO_FORMAT or obj["version"] != SCENARIO_FORMAT_VERSION:
        raise ValueError(f"unsupported scenario format {obj['format']!r} v{obj['version']!r}")
    transitions = check_object(obj["transitions"], set(STATE_NAMES), "transitions")
    rows = tuple(StateProbModel(*_block_from_dict(transitions[o.name], f"transitions.{o.name}"))
                 for o in CANONICAL_STATES)
    valid_range = check_object(obj["valid_range"], {"d_min", "d_max"}, "valid_range")
    got = [as_float(valid_range[key], f"valid_range.{key}") for key in ("d_min", "d_max")]
    if got != [DEFAULT_D_MIN, DEFAULT_D_MAX]:  # the one domain of every scenario
        raise ValueError(f"valid_range must be [{DEFAULT_D_MIN}, {DEFAULT_D_MAX}] m, got {got}")
    return ScenarioModel(Environment(obj["environment"]), Density(obj["density"]),
                         StateProbModel(*_block_from_dict(obj["state_probs"], "state_probs")), rows)


def scenario_json(model: ScenarioModel) -> str:
    """Canonical byte-stable text form of a scenario parameter file."""
    return json.dumps(scenario_to_dict(model), indent=2, sort_keys=True) + "\n"


def save_scenario(model: ScenarioModel, path: str | Path) -> None:
    Path(path).write_text(scenario_json(model), encoding="utf-8")


def load_scenario(path: str | Path) -> ScenarioModel:
    return scenario_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@lru_cache(maxsize=None)
def builtin_model(env: Environment, density: Density) -> ScenarioModel:
    """Scenario model with the published coefficients for ``env`` x ``density``."""
    name = f"{Environment(env).value}_{Density(density).value}.json"
    text = resources.files("v2vlos").joinpath("data", name).read_text(encoding="utf-8")
    return scenario_from_dict(json.loads(text))
