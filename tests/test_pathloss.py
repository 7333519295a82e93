"""Path-loss curves per state and trace rendering."""

import dataclasses
import json
import math

import numpy as np
import pytest

from v2vlos import (
    Density,
    DistanceClampWarning,
    DistanceTrace,
    DomainError,
    Environment,
    LogDistance,
    LosState,
    PathLossParams,
    StateTrace,
    builtin_model,
    chain,
    free_space_pl,
    render_path_loss,
    state_path_loss,
)


def test_free_space_reference_values():
    assert free_space_pl(1.0, 2.0e9) == pytest.approx(20 * math.log10(2.0e9) - 147.55, abs=1e-12)
    assert free_space_pl(1.0, 2.0e9) == pytest.approx(38.47, abs=5e-3)
    assert free_space_pl(500.0, 2.0e9) == pytest.approx(38.4706 + 20 * math.log10(500.0), abs=1e-3)
    assert free_space_pl(500.0, 2.0e9) == pytest.approx(92.45, abs=5e-3)


def test_free_space_twenty_db_per_decade():
    assert free_space_pl(100.0, 2.0e9) - free_space_pl(10.0, 2.0e9) == pytest.approx(20.0, abs=1e-12)


def test_free_space_domain():
    with pytest.raises(DomainError):
        free_space_pl(0.5, 2e9)
    with pytest.raises(DomainError):
        free_space_pl(10.0, 0.0)
    with pytest.raises(DomainError):
        free_space_pl(math.nan, 2e9)


def test_nlosv_is_free_space_plus_extra():
    p = PathLossParams.defaults()
    assert state_path_loss(LosState.NLOSv, 1.0, p) == pytest.approx(
        free_space_pl(1.0, p.carrier_freq_hz) + p.nlosv_extra_db, abs=1e-12)
    assert state_path_loss(LosState.NLOSv, 123.0, p) == pytest.approx(
        free_space_pl(123.0, p.carrier_freq_hz) + 8.0, abs=1e-12)


def test_los_with_free_space_parameters_equals_friis():
    f = 2.0e9
    p = PathLossParams(
        los=LogDistance(intercept_db=free_space_pl(1.0, f), exponent=2.0),
        nlosb=LogDistance(36.0, 2.9),
        carrier_freq_hz=f,
    )
    for d in (1.0, 10.0, 57.0, 500.0):
        assert state_path_loss(LosState.LOS, d, p) == pytest.approx(free_space_pl(d, f), abs=1e-9)


def test_nlosb_minus_los_grows_with_distance():
    p = PathLossParams.defaults()
    assert p.nlosb.exponent > p.los.exponent
    gaps = [state_path_loss(LosState.NLOSb, d, p) - state_path_loss(LosState.LOS, d, p)
            for d in np.linspace(1.0, 500.0, 100)]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_state_path_loss_domain():
    p = PathLossParams.defaults()
    with pytest.raises(DomainError):
        state_path_loss(LosState.LOS, 0.99, p)


def test_render_is_pointwise_map():
    model = builtin_model(Environment.URBAN, Density.MEDIUM)
    trace = chain(model).trace(DistanceTrace.from_distances(np.arange(1.0, 101.0)), 3)
    p = PathLossParams.defaults()
    series = render_path_loss(trace, p)
    assert series.dtype == np.float64 and series.shape == (len(trace),)
    for k, pl in enumerate(series.tolist()):
        assert pl == state_path_loss(LosState(int(trace.states[k])), float(trace.distances[k]), p)


def test_render_evaluates_distances_below_one_metre_at_one_metre():
    states = np.array([0, 1, 2], dtype=np.int8)
    p = PathLossParams.defaults()
    short = StateTrace(DistanceTrace.from_distances([2.0, 0.5, 0.7]), states)
    with pytest.warns(DistanceClampWarning, match="2 distance") as caught:
        series = render_path_loss(short, p)
    assert len(caught) == 1
    floor = StateTrace(DistanceTrace.from_distances([2.0, 1.0, 1.0]), states)
    assert series.tolist() == render_path_loss(floor, p).tolist()
    # The scalar functions keep the floor as a domain limit.
    with pytest.raises(DomainError):
        free_space_pl(0.5, 2.0e9)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_render_rejects_non_positive_and_non_finite_distances(bad):
    # render_path_loss never meets such a distance: building the grid rejects it.
    with pytest.raises(DomainError, match="finite and positive"):
        StateTrace(DistanceTrace.from_distances([2.0, bad, 0.7]), np.zeros(3, dtype=np.int8))


def test_render_reversed_trace_gives_reversed_series():
    ds = np.arange(1.0, 51.0)
    states = np.array([0, 1, 2] * 17, dtype=np.int8)[:50]
    fwd = StateTrace(DistanceTrace.from_distances(ds), states)
    rev = StateTrace(DistanceTrace.from_distances(ds[::-1]), states[::-1])
    p = PathLossParams.defaults()
    pl_fwd = render_path_loss(fwd, p).tolist()
    pl_rev = render_path_loss(rev, p).tolist()
    assert pl_fwd == pl_rev[::-1]


def test_alternating_states_offset_at_fixed_distance():
    d = 120.0
    states = np.array([0, 1] * 25, dtype=np.int8)
    trace = StateTrace(DistanceTrace.from_distances(np.full(50, d)), states)
    p = PathLossParams.defaults()
    series = render_path_loss(trace, p)
    offset = state_path_loss(LosState.NLOSv, d, p) - state_path_loss(LosState.LOS, d, p)
    for a, b in zip(series, series[1:]):
        assert abs(b - a) == pytest.approx(abs(offset), abs=1e-12)


def test_default_curve_ordering_has_crossover():
    # LOS < NLOSv < NLOSb beyond some distance; report where it starts.
    p = PathLossParams.defaults()
    ds = np.arange(1.0, 501.0)
    ordered = [
        state_path_loss(LosState.LOS, d, p)
        < state_path_loss(LosState.NLOSv, d, p)
        < state_path_loss(LosState.NLOSb, d, p)
        for d in ds
    ]
    assert ordered[-1]
    first = next(i for i in range(len(ordered)) if all(ordered[i:]))
    print(f"state-curve ordering holds from d* = {ds[first]:.0f} m onward")
    assert all(ordered[first:])


def test_params_file_round_trip(tmp_path):
    p = PathLossParams.defaults()
    path = tmp_path / "pl.json"
    path.write_text(json.dumps(dataclasses.asdict(p)), encoding="utf-8")
    assert PathLossParams.from_file(path) == p


def test_params_validation():
    with pytest.raises(ValueError):
        LogDistance(38.0, 0.0)
    with pytest.raises(ValueError):
        PathLossParams(LogDistance(38.0, 2.0), LogDistance(36.0, 2.9), nlosv_extra_db=-1.0)
    with pytest.raises(ValueError):
        PathLossParams.from_dict({"los": {"intercept_db": 1, "exponent": 2}})
