"""Scenario parameter sets: fitted curves per environment and vehicle density.

Six builtin scenarios (urban/highway x low/medium/high density) carry the
published fitted coefficients verbatim. Their only copy is the shipped
parameter files ``data/{environment}_{density}.json``, which
:func:`builtin_model` reads. Each scenario stores four probability vectors:
the state probabilities and one transition row per origin state, each two
explicit curves; the third value is always the complement to one, assembled
in :mod:`v2vlos.assembly`. Highway transitions out of NLOSv are piecewise,
with a density-dependent threshold: 70 m at low density, 90 m at medium and
high.

Models are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
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
    d_min: float = DEFAULT_D_MIN
    d_max: float = DEFAULT_D_MAX

    def __post_init__(self):
        if len(self.rows) != 3:
            raise ValueError("need exactly one transition row per origin state")
        if not (0.0 < self.d_min < self.d_max < float("inf")):  # the curve check needs finite ends
            raise ValueError("require 0 < d_min < d_max, both finite")
        names = ("state_probs", *(f"transitions.{o.name}" for o in CANONICAL_STATES))
        for what, block in zip(names, (self.state_probs, *self.rows)):
            for state, spec in block.explicit.items():
                check_range(spec, self.d_min, self.d_max, f"{what}.explicit.{state.name}")

    @property
    def tag(self) -> str:
        return f"{self.environment.value}-{self.density.value}"


def effective_distance(
    d: float,
    d_min: float = DEFAULT_D_MIN,
    d_max: float = DEFAULT_D_MAX,
    over_range: str = "error",
) -> float:
    """Apply the model distance policy to ``d``.

    Distances in (0, d_min) are clamped up to d_min with a
    :class:`DistanceClampWarning` (the fits are meaningless below vehicle
    length). Distances above d_max raise by default because the curves were
    only trained up to there; pass ``over_range="clamp"`` to pin them to
    d_max instead.
    """
    if over_range not in OVER_RANGE_POLICIES:
        raise ValueError(f"over_range must be one of {OVER_RANGE_POLICIES}, got {over_range!r}")
    if not isinstance(d, Real) or isinstance(d, bool):
        raise DomainError(f"distance must be a real number, got {type(d).__name__}")
    d = float(d)
    if d != d or d in (float("inf"), float("-inf")):
        raise DomainError(f"distance must be finite, got {d!r}")
    if d <= 0.0:
        raise DomainError(f"distance must be positive, got {d!r}")
    if d < d_min:
        warnings.warn(
            f"distance {d} m below model floor, clamped to {d_min} m",
            DistanceClampWarning,
            stacklevel=2,
        )
        return d_min
    if d > d_max:
        if over_range == "clamp":
            return d_max
        raise DomainError(f"distance {d} m above model ceiling {d_max} m (policy 'error')")
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
        "valid_range": {"d_min": model.d_min, "d_max": model.d_max},
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
    return ScenarioModel(
        Environment(obj["environment"]),
        Density(obj["density"]),
        StateProbModel(*_block_from_dict(obj["state_probs"], "state_probs")),
        rows,
        d_min=as_float(valid_range["d_min"], "valid_range.d_min"),
        d_max=as_float(valid_range["d_max"], "valid_range.d_max"),
    )


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
