"""Builtin scenario models, distance policy, and parameter-file round trips."""

import json
import math
from importlib import resources

import numpy as np
import pytest

from v2vlos import (
    Density,
    DistanceClampWarning,
    DistanceTrace,
    DomainError,
    Environment,
    ExpDecay,
    LogBell,
    LosState,
    OffsetMinusLogBell,
    PathLossParams,
    Piecewise,
    Poly2,
    builtin_model,
    chain,
    effective_distance,
    free_space_pl,
    fresnel_clearance_radius,
    load_scenario,
    save_scenario,
    scenario_json,
    state_path_loss,
    state_probabilities,
    transition_matrix,
    umi_los_probability,
)
from v2vlos.curves import curve_from_dict
from v2vlos.params import (
    ScenarioModel,
    StateProbModel,
    scenario_from_dict,
    scenario_to_dict,
)

from conftest import ALL_SCENARIOS


def test_published_coefficient_spot_checks():
    hw_low = builtin_model(Environment.HIGHWAY, Density.LOW)
    assert hw_low.state_probs.explicit[LosState.LOS] == Poly2(1.5e-6, -0.0015, 1.0)

    urb_med = builtin_model(Environment.URBAN, Density.MEDIUM)
    assert urb_med.state_probs.explicit[LosState.LOS] == ExpDecay(0.8372, 0.0114)

    row = hw_low.rows[LosState.NLOSb]
    assert row.explicit[LosState.NLOSb] == OffsetMinusLogBell(1.0, LogBell(0.0289, 5.2782, 1.8424))


def test_structure_per_environment():
    for env, density in ALL_SCENARIOS:
        model = builtin_model(env, density)
        assert (model.d_min, model.d_max) == (1.0, 500.0)
        if env is Environment.URBAN:
            assert set(model.state_probs.explicit) == {LosState.LOS, LosState.NLOSv}
            assert model.state_probs.complement is LosState.NLOSb
            assert isinstance(model.state_probs.explicit[LosState.LOS], ExpDecay)
            assert isinstance(model.state_probs.explicit[LosState.NLOSv], LogBell)
        else:
            assert set(model.state_probs.explicit) == {LosState.LOS, LosState.NLOSb}
            assert model.state_probs.complement is LosState.NLOSv
            assert all(isinstance(c, Poly2) for c in model.state_probs.explicit.values())
        for row in model.rows:
            assert set(row.explicit) == {LosState.LOS, LosState.NLOSb}
            assert row.complement is LosState.NLOSv


def test_highway_piecewise_thresholds():
    assert builtin_model(Environment.HIGHWAY, Density.LOW).rows[LosState.NLOSv].explicit[LosState.LOS].d_t == 70.0
    for density in (Density.MEDIUM, Density.HIGH):
        row = builtin_model(Environment.HIGHWAY, density).rows[LosState.NLOSv]
        assert isinstance(row.explicit[LosState.LOS], Piecewise)
        assert row.explicit[LosState.LOS].d_t == 90.0
        assert row.explicit[LosState.NLOSb].d_t == 90.0


def test_builtin_model_is_cached_and_total():
    for env, density in ALL_SCENARIOS:
        assert builtin_model(env, density) is builtin_model(env, density)


def test_effective_distance_clamp_floor_warns():
    with pytest.warns(DistanceClampWarning):
        assert effective_distance(0.25) == 1.0
    with pytest.warns(DistanceClampWarning):
        assert effective_distance(0.999) == 1.0


def test_effective_distance_domain_errors():
    for bad in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            effective_distance(bad)


@pytest.mark.parametrize("d", [np.int64(100), np.int32(100), np.uint16(100), np.float32(37.5), np.float16(37.5)],
                         ids=lambda d: type(d).__name__)
def test_numpy_scalar_distances_give_the_float_result(d):
    x = float(d)
    model, p = builtin_model(Environment.HIGHWAY, Density.LOW), PathLossParams.defaults()
    assert type(effective_distance(d)) is float and effective_distance(d) == x
    assert state_probabilities(model, d) == state_probabilities(model, x)
    assert transition_matrix(model, d).m.tobytes() == transition_matrix(model, x).m.tobytes()
    for got, want in [
        (umi_los_probability(d), umi_los_probability(x)),
        (free_space_pl(d, np.float32(5.9e9)), free_space_pl(x, float(np.float32(5.9e9)))),
        (state_path_loss(LosState.NLOSv, d, p), state_path_loss(LosState.NLOSv, x, p)),
        (fresnel_clearance_radius(d, d, np.int64(5_900_000_000)), fresnel_clearance_radius(x, x, 5.9e9)),
    ]:
        assert type(got) is float and got == want
    with pytest.raises(DomainError, match="real number"):
        effective_distance(True)


# The five scalar entry points that take a distance, each called with ``d`` in one slot.
_DISTANCE_ENTRY_POINTS = {
    "effective_distance": lambda d: effective_distance(d),
    "free_space_pl": lambda d: free_space_pl(d, 2e9),
    "state_path_loss": lambda d: state_path_loss(LosState.NLOSv, d, PathLossParams.defaults()),
    "umi_los_probability": lambda d: umi_los_probability(d),
    "fresnel_clearance_radius": lambda d: fresnel_clearance_radius(d, d, d),
}


@pytest.mark.parametrize("d, message", [(True, "finite real number"), (False, "finite real number"),
                                        (10**400, "too large"), (-(10**400), "too large")],
                         ids=["True", "False", "10**400", "-10**400"])
@pytest.mark.parametrize("entry", sorted(_DISTANCE_ENTRY_POINTS))
def test_scalar_entry_points_reject_bools_and_huge_ints(entry, d, message):
    with pytest.raises(DomainError, match=message):
        _DISTANCE_ENTRY_POINTS[entry](d)


@pytest.mark.parametrize("entry", sorted(set(_DISTANCE_ENTRY_POINTS) - {"effective_distance"}))
def test_scalar_entry_points_take_a_large_int_that_fits_a_float(entry):
    # effective_distance stops at the 500 m ceiling; the others take any finite distance.
    assert _DISTANCE_ENTRY_POINTS[entry](10**200) == _DISTANCE_ENTRY_POINTS[entry](1e200)


def test_effective_distance_over_range_policy():
    with pytest.raises(DomainError):
        effective_distance(500.001)
    assert effective_distance(500.001, over_range="clamp") == 500.0
    assert effective_distance(500.0) == 500.0
    assert effective_distance(42.0) == 42.0
    with pytest.raises(ValueError):
        effective_distance(42.0, over_range="truncate")


def test_scenario_file_round_trip(tmp_path):
    for env, density in ALL_SCENARIOS:
        model = builtin_model(env, density)
        path = tmp_path / f"{env.value}_{density.value}.json"
        save_scenario(model, path)
        assert load_scenario(path) == model


def shipped_file(env, density):
    return resources.files("v2vlos").joinpath("data", f"{env.value}_{density.value}.json")


def test_builtin_models_are_the_shipped_files():
    for env, density in ALL_SCENARIOS:
        with resources.as_file(shipped_file(env, density)) as path:
            loaded = load_scenario(path)
        assert builtin_model(env, density) == loaded


def test_shipped_files_round_trip_byte_for_byte():
    for env, density in ALL_SCENARIOS:
        with resources.as_file(shipped_file(env, density)) as path:
            assert scenario_json(load_scenario(path)) == path.read_text(encoding="utf-8")


def test_scenario_dict_rejects_unknown_keys():
    obj = scenario_to_dict(builtin_model(Environment.URBAN, Density.LOW))
    obj["extra"] = 1
    with pytest.raises(ValueError):
        scenario_from_dict(obj)


def test_scenario_dict_rejects_wrong_format():
    obj = scenario_to_dict(builtin_model(Environment.URBAN, Density.LOW))
    obj["format"] = "something-else"
    with pytest.raises(ValueError):
        scenario_from_dict(obj)


def test_model_construction_validation():
    model = builtin_model(Environment.URBAN, Density.LOW)
    with pytest.raises(ValueError):
        StateProbModel({LosState.LOS: Poly2(0, 0, 1)}, complement=LosState.NLOSb)
    with pytest.raises(ValueError):
        StateProbModel(dict(model.state_probs.explicit), complement=LosState.LOS)
    with pytest.raises(ValueError):
        StateProbModel(dict(model.rows[0].explicit), complement=LosState.LOS)
    with pytest.raises(ValueError):
        ScenarioModel(model.environment, model.density, model.state_probs, model.rows[:2])
    with pytest.raises(ValueError):
        ScenarioModel(model.environment, model.density, model.state_probs, model.rows,
                      d_min=0.0, d_max=500.0)


def _urban_medium_with_exp_decay_b(b, tmp_path):
    """The shipped urban-medium file with ``b`` set on its every exp_decay curve, written to a file."""
    text = resources.files("v2vlos").joinpath("data", "urban_medium.json").read_text(encoding="utf-8")
    obj = json.loads(text, object_hook=lambda o: {**o, "b": b} if o.get("family") == "exp_decay" else o)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def test_exp_decay_that_overflows_in_range_is_rejected_at_load(tmp_path):
    # math.exp(10 * 500) overflows; evaluating it would raise a bare OverflowError.
    with pytest.raises(ValueError, match="overflows"):
        load_scenario(_urban_medium_with_exp_decay_b(-10.0, tmp_path))
    # A mildly negative b still loads and evaluates everywhere in [1, 500] m.
    model = load_scenario(_urban_medium_with_exp_decay_b(-0.01, tmp_path))
    assert model.state_probs.explicit[LosState.LOS] == ExpDecay(0.8372, -0.01)
    for d in (1.0, 100.0, 500.0):
        assert sum(state_probabilities(model, d).as_tuple()) == pytest.approx(1.0, abs=1e-9)
    chain(model).trace(DistanceTrace.from_distances([1.0, 100.0, 500.0]), 0)


def test_piecewise_branches_are_checked_where_they_apply():
    model = builtin_model(Environment.HIGHWAY, Density.MEDIUM)
    steep = ExpDecay(0.5, -2.0)  # exp(2 d) overflows above about 355 m
    flat = Poly2(0.0, 0.0, 0.5)

    def with_los_curve(curve):
        row = model.rows[LosState.NLOSv]
        explicit = {**row.explicit, LosState.LOS: curve}
        rows = tuple(StateProbModel(explicit, r.complement) if r is row else r for r in model.rows)
        return ScenarioModel(model.environment, model.density, model.state_probs, rows, model.d_min, model.d_max)

    # Below 300 m the steep branch stays finite, and it never applies above d_max.
    with_los_curve(Piecewise(300.0, steep, flat))
    with_los_curve(Piecewise(600.0, flat, Piecewise(700.0, flat, steep)))
    for curve in (Piecewise(300.0, flat, steep), Piecewise(400.0, steep, flat), steep):
        with pytest.raises(ValueError, match="transitions.NLOSv.explicit.LOS"):
            with_los_curve(curve)


def test_scenario_json_is_valid_json_tree():
    text = scenario_json(builtin_model(Environment.HIGHWAY, Density.MEDIUM))
    obj = json.loads(text)
    assert obj["environment"] == "highway"
    assert obj["density"] == "medium"
    assert obj["transitions"]["NLOSv"]["explicit"]["LOS"]["family"] == "piecewise"


POLY = {"family": "poly2", "a": 0.0, "b": 0.0, "c": 0.5}


def _scenario_with(edit):
    obj = scenario_to_dict(builtin_model(Environment.HIGHWAY, Density.LOW))
    edit(obj)
    return obj


MALFORMED = {
    # curve_from_dict
    "curve-not-an-object": (curve_from_dict, lambda: [POLY]),
    "nested-curve-not-an-object": (curve_from_dict, lambda: {"family": "piecewise", "d_t": 70.0, "low": 1.0,
                                                             "high": dict(POLY)}),
    "family-not-a-string": (curve_from_dict, lambda: {**POLY, "family": ["poly2"]}),
    "list-coefficient": (curve_from_dict, lambda: {**POLY, "a": [1.0]}),
    "null-coefficient": (curve_from_dict, lambda: {**POLY, "b": None}),
    "text-coefficient": (curve_from_dict, lambda: {**POLY, "c": "half"}),
    "huge-integer-coefficient": (curve_from_dict, lambda: {**POLY, "c": 10 ** 400}),
    "numeric-text-coefficient": (curve_from_dict, lambda: {**POLY, "a": "0.5"}),
    "boolean-coefficient": (curve_from_dict, lambda: {**POLY, "b": True}),
    "text-and-boolean-coefficients": (curve_from_dict, lambda: {"family": "poly2", "a": "0.5", "b": True, "c": 0}),
    "inner-not-log-bell": (curve_from_dict, lambda: {"family": "offset_minus_log_bell", "offset": 1.0,
                                                     "inner": dict(POLY)}),
    # scenario_from_dict
    "scenario-not-an-object": (scenario_from_dict, lambda: []),
    "missing-transition-origin": (scenario_from_dict, lambda: _scenario_with(
        lambda o: o["transitions"].pop("NLOSb"))),
    "unknown-explicit-state": (scenario_from_dict, lambda: _scenario_with(
        lambda o: o["state_probs"]["explicit"].__setitem__("LOS?", o["state_probs"]["explicit"].pop("LOS")))),
    "unknown-complement-state": (scenario_from_dict, lambda: _scenario_with(
        lambda o: o["transitions"]["LOS"].__setitem__("complement", "NLOSx"))),
    "complement-not-a-string": (scenario_from_dict, lambda: _scenario_with(
        lambda o: o["state_probs"].__setitem__("complement", ["NLOSv"]))),
    "explicit-not-an-object": (scenario_from_dict, lambda: _scenario_with(
        lambda o: o["state_probs"].__setitem__("explicit", [["LOS", POLY]]))),
    "missing-d-min": (scenario_from_dict, lambda: _scenario_with(lambda o: o["valid_range"].pop("d_min"))),
    "null-d-max": (scenario_from_dict, lambda: _scenario_with(
        lambda o: o["valid_range"].__setitem__("d_max", None))),
    "numeric-text-d-min": (scenario_from_dict, lambda: _scenario_with(
        lambda o: o["valid_range"].__setitem__("d_min", "1.0"))),
    "infinite-d-max": (scenario_from_dict, lambda: _scenario_with(
        lambda o: o["valid_range"].__setitem__("d_max", math.inf))),
    # s * d_min underflows to zero, so 1 / (s * d) divides by zero at the low end.
    "log-bell-scale-underflows": (scenario_from_dict, lambda: _scenario_with(lambda o: (
        o["valid_range"].__setitem__("d_min", 1e-30),
        o["state_probs"]["explicit"].__setitem__("LOS", {"family": "log_bell", "s": 1e-300, "mu": 0.0, "k": 1.0})))),
    "boolean-d-max": (scenario_from_dict, lambda: _scenario_with(
        lambda o: o["valid_range"].__setitem__("d_max", True))),
    "valid-range-not-an-object": (scenario_from_dict, lambda: _scenario_with(
        lambda o: o.__setitem__("valid_range", [1.0, 500.0]))),
    "unknown-environment": (scenario_from_dict, lambda: _scenario_with(
        lambda o: o.__setitem__("environment", "rural"))),
}


@pytest.mark.parametrize("parse, make", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_parameter_input_raises_value_error(parse, make):
    with pytest.raises(ValueError):
        parse(make())
