"""Probability vectors, transition matrices, repair rule, stationary solver."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from v2vlos import (
    ConvergenceError,
    Density,
    DistanceTrace,
    Environment,
    LogBell,
    LosState,
    OffsetMinusLogBell,
    Poly2,
    StateProbModel,
    builtin_model,
    chain,
    load_scenario,
    repair_vector,
    state_probabilities,
    stationary_distribution,
    transition_matrix,
)
from v2vlos import markov
from v2vlos.assembly import repair_array
from v2vlos.curves import curve_to_dict
from v2vlos.params import scenario_from_dict, scenario_to_dict
from v2vlos.states import STATE_NAMES

from conftest import all_models


def test_urban_medium_vector_at_100():
    # Independent evaluation of the two explicit curves plus complement.
    p_los = 0.8372 * math.exp(-0.0114 * 100.0)
    p_nlosv = (1.0 / (0.0312 * 100.0)) * math.exp(-((math.log(100.0) - 5.0063) ** 2) / 2.4544)
    p_nlosb = 1.0 - p_los - p_nlosv
    got = state_probabilities(builtin_model(Environment.URBAN, Density.MEDIUM), 100.0)
    assert got[LosState.LOS] == pytest.approx(p_los, abs=1e-12)
    assert got[LosState.NLOSv] == pytest.approx(p_nlosv, abs=1e-12)
    assert got[LosState.NLOSb] == pytest.approx(p_nlosb, abs=1e-12)
    assert got.tolist() == pytest.approx([0.2678, 0.300, 0.432], abs=1e-3)


def test_highway_high_vector_at_500():
    got = state_probabilities(builtin_model(Environment.HIGHWAY, Density.HIGH), 500.0)
    p_nlosb = -4.1e-7 * 500.0**2 + 0.00067 * 500.0 + 0.0
    assert got[LosState.LOS] == pytest.approx(0.3, abs=1e-12)
    assert got[LosState.NLOSb] == pytest.approx(p_nlosb, abs=1e-12)
    assert got[LosState.NLOSv] == pytest.approx(1.0 - 0.3 - 0.2325, abs=1e-6)


def test_highway_low_near_zero_distance_repairs_to_degenerate():
    model = builtin_model(Environment.HIGHWAY, Density.LOW)
    with pytest.warns(Warning):
        got = state_probabilities(model, 0.01)
    assert got[LosState.NLOSv] == 0.0
    assert got[LosState.LOS] == pytest.approx(1.0, abs=2e-3)
    assert got[LosState.NLOSb] == pytest.approx(0.0, abs=2e-3)
    assert got.sum() == pytest.approx(1.0, abs=1e-9)


def test_urban_medium_los_row_at_200():
    p_ll = 1.5e-6 * 200.0**2 - 1.2e-3 * 200.0 + 0.93
    p_lb = -5.9e-7 * 200.0**2 + 5.4e-4 * 200.0 + 0.0069
    row = transition_matrix(builtin_model(Environment.URBAN, Density.MEDIUM), 200.0)[LosState.LOS].tolist()
    assert row[0] == pytest.approx(p_ll, abs=1e-12)
    assert row[2] == pytest.approx(p_lb, abs=1e-12)
    assert row[1] == pytest.approx(1.0 - p_ll - p_lb, abs=1e-12)
    assert row == pytest.approx([0.75, 0.1587, 0.0913], abs=1e-4)


def test_highway_low_nlosb_row_nlosv_exactly_zero():
    # The two explicit curves share the same bell, so the complement vanishes.
    row = transition_matrix(builtin_model(Environment.HIGHWAY, Density.LOW), 150.0)[LosState.NLOSb]
    assert row[1] == 0.0
    assert row[0] + row[2] == pytest.approx(1.0, abs=1e-12)


def test_transition_row_agrees_with_matrix_rows():
    # The chain engine samples single rows; they must match the full matrix.
    for model in all_models():
        thresholds = chain(model).thresholds
        for d in (1.0, 70.0, 90.0, 250.0, 500.0):
            tm = transition_matrix(model, d)
            for origin in LosState:
                p0, p1, _ = tm[origin].tolist()
                assert thresholds(int(origin), d) == (p0, p0 + p1)


def test_rows_sum_to_one_across_scenarios():
    for model in all_models():
        for d in (1.0, 35.0, 70.0, 89.5, 90.0, 105.0, 250.0, 499.5, 500.0):
            tm = transition_matrix(model, d)
            assert np.all(tm >= 0.0) and np.all(tm <= 1.0)
            assert np.allclose(tm.sum(axis=1), 1.0, atol=1e-9)
            probs = state_probabilities(model, d)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_repair_leaves_valid_vector_untouched():
    for vec in [(0.2, 0.3, 0.5), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3)]:
        assert repair_vector(vec) == vec


def test_repair_zeroes_smallest_and_keeps_largest():
    got = repair_vector((0.9985, -0.00079, 0.00229))
    assert got == (0.9985, 0.0, 1.0 - 0.9985)
    got = repair_vector((0.3, 0.9, -0.2))
    assert got == (1.0 - 0.9, 0.9, 0.0)


def test_repair_tie_breaks_earliest_state():
    # Two equal smallest entries: the earlier state is zeroed.
    got = repair_vector((-0.1, -0.1, 0.9))
    assert got[0] == 0.0
    assert got == (0.0, 1.0 - 0.9, 0.9)


def test_repair_is_idempotent():
    for vec in [(1.2, 0.1, -0.3), (0.9985, -0.00079, 0.00229), (0.5, 0.6, -0.1)]:
        once = repair_vector(vec)
        assert repair_vector(once) == once
        assert min(once) >= 0.0
        assert sum(once) == pytest.approx(1.0, abs=1e-9)


def test_vector_and_matrix_validation():
    # stationary_distribution is the one function that takes a matrix from the caller.
    with pytest.raises(ValueError):
        stationary_distribution(np.eye(2))
    with pytest.raises(ValueError):
        stationary_distribution(np.full((3, 3), 0.5))


def test_vector_and_matrix_reject_non_finite_entries():
    nan, inf = math.nan, math.inf
    for m in [np.full((3, 3), nan), [[nan, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
              [[inf, -inf, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]:
        with pytest.raises(ValueError):
            stationary_distribution(m)


def test_assembly_never_returns_a_nan_probability(tmp_path):
    # A curve that is NaN at 100 m: 1/(s*d) overflows to inf and the bell underflows to 0.
    # No model can hold it, so neither assembly nor a sampler ever evaluates it.
    bell = LogBell(s=5e-324, mu=0.0, k=1e-300)
    assert math.isnan(bell.raw(100.0))
    model = builtin_model(Environment.URBAN, Density.MEDIUM)
    los_row = model.rows[0]
    explicit = {LosState.LOS: bell, LosState.NLOSb: los_row.explicit[LosState.NLOSb]}
    with pytest.raises(ValueError, match="state_probs.explicit.LOS"):
        dataclasses.replace(model, state_probs=StateProbModel(explicit, complement=LosState.NLOSv))
    with pytest.raises(ValueError, match="transitions.LOS.explicit.LOS"):
        dataclasses.replace(model, rows=(dataclasses.replace(los_row, explicit=explicit), *model.rows[1:]))
    obj = scenario_to_dict(model)
    obj["transitions"]["LOS"]["explicit"]["LOS"] = curve_to_dict(bell)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ValueError, match="transitions.LOS.explicit.LOS"):
        load_scenario(path)


# Finite coefficients over wide magnitudes: plausible values, and any finite float.
_coef = st.one_of(st.floats(-2.0, 2.0), st.floats(allow_nan=False, allow_infinity=False))
_positive = st.one_of(st.floats(1e-3, 10.0), st.floats(min_value=5e-324, allow_infinity=False))
_log_bell = st.fixed_dictionaries({"family": st.just("log_bell"), "s": _positive, "mu": _coef, "k": _positive})
_curve = st.recursive(
    st.one_of(
        st.fixed_dictionaries({"family": st.just("poly2"), "a": _coef, "b": _coef, "c": _coef}),
        st.fixed_dictionaries({"family": st.just("exp_decay"), "a": _coef, "b": _coef}),
        _log_bell,
        st.fixed_dictionaries({"family": st.just("offset_minus_log_bell"), "offset": _coef, "inner": _log_bell}),
    ),
    lambda inner: st.fixed_dictionaries(
        {"family": st.just("piecewise"), "d_t": st.floats(0.5, 600.0), "low": inner, "high": inner}),
    max_leaves=2,
)


@st.composite
def _vector(draw):
    complement = draw(st.sampled_from(STATE_NAMES))
    return {"explicit": {s: draw(_curve) for s in STATE_NAMES if s != complement}, "complement": complement}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    state_probs=_vector(),
    rows=st.tuples(_vector(), _vector(), _vector()),
    distances=st.lists(st.floats(1.0, 500.0), min_size=1, max_size=20),
    seed=st.integers(0, 2**64 - 1),
)
def test_any_loadable_scenario_assembles_everywhere_in_range(state_probs, rows, distances, seed):
    obj = scenario_to_dict(builtin_model(Environment.URBAN, Density.MEDIUM))
    obj.update(state_probs=state_probs, transitions=dict(zip(STATE_NAMES, rows)))
    try:
        model = scenario_from_dict(obj)
    except ValueError:
        assume(False)
    distances = [1.0, *distances, 500.0]
    for d in distances:
        state_probabilities(model, d)
        transition_matrix(model, d)
    # Three traces on one grid, sampled from the table, then with every draw left to the scalar thresholds.
    traces = [DistanceTrace.from_distances(distances)] * 3
    engine = [out.states.tobytes() for out in chain(model).batch(traces, seed)]
    with mock.patch.object(markov, "_GUARD", 2**53):
        assert [out.states.tobytes() for out in chain(model).batch(traces, seed)] == engine


# The table may stray from the scalar thresholds by this much; the guard band is 2**10 times wider.
_TABLE_ERROR = markov._GUARD / 2**10 * 2.0**-53


def assert_table_near_thresholds(model, distances, finite=True):
    """The table is within ``_TABLE_ERROR`` of the scalar thresholds wherever it is not NaN (everywhere if ``finite``)."""
    sampler = chain(model)
    d = np.array(distances)
    for origin in (-1, 0, 1, 2):
        table = sampler.table(origin, d)
        scalar = np.array([sampler.thresholds(origin, x) for x in distances]).T
        assert np.isfinite(table).all() or not finite
        gap = np.where(np.isnan(table), 0.0, np.abs(table - scalar))
        assert gap.max() <= _TABLE_ERROR, (origin, d[gap.max(axis=0).argmax()])


@settings(max_examples=100, deadline=None)
@given(scenario=st.sampled_from([(e, d) for e in Environment for d in Density]),
       distances=st.lists(st.floats(1.0, 500.0), min_size=1, max_size=200))
def test_table_is_within_the_guard_of_the_scalar_thresholds(scenario, distances):
    assert_table_near_thresholds(builtin_model(*scenario), [1.0, *distances, 500.0])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    state_probs=_vector(),
    rows=st.tuples(_vector(), _vector(), _vector()),
    distances=st.lists(st.floats(1.0, 500.0), min_size=1, max_size=20),
)
def test_table_of_any_loadable_scenario_is_within_the_guard(state_probs, rows, distances):
    obj = scenario_to_dict(builtin_model(Environment.URBAN, Density.MEDIUM))
    obj.update(state_probs=state_probs, transitions=dict(zip(STATE_NAMES, rows)))
    try:
        model = scenario_from_dict(obj)
    except ValueError:
        assume(False)
    # NaN marks a repair decided by a near tie, which the scalar thresholds decide.
    assert_table_near_thresholds(model, [1.0, *distances, 500.0], finite=False)


def test_a_curve_that_cancels_large_terms_is_a_known_limit_of_the_guard_band():
    # Exactness needs the table within the guard band of the scalar thresholds.
    # This loadable curve is 0.5 at 200 m, the difference of two terms near 1e5,
    # so a one-ulp change in the bell (numpy's exp against math.exp) moves it by
    # about 1.5e-11, past the band of 2**-40: the engine may then pick another
    # state than the scalar chain. No builtin scenario has such a curve.
    bell = LogBell(1.0 / (200.0 * (1e5 - 0.5)), math.log(200.0), 1.0)
    curve = OffsetMinusLogBell(1e5, bell)
    model = builtin_model(Environment.URBAN, Density.MEDIUM)
    block = StateProbModel({LosState.LOS: curve, LosState.NLOSb: Poly2(0.0, 0.0, 0.2)}, LosState.NLOSv)
    scenario_from_dict(scenario_to_dict(dataclasses.replace(model, state_probs=block)))  # loadable
    assert curve.raw(200.0) == pytest.approx(0.5)
    moved = 1e5 - math.nextafter(bell.raw(200.0), math.inf)
    assert abs(moved - curve.raw(200.0)) > markov._GUARD * 2.0**-53


_entries = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 1e-300, 0.25]))


@settings(max_examples=300, deadline=None)
@given(triples=st.lists(st.tuples(_entries, _entries, _entries), min_size=1, max_size=30))
def test_repair_array_repairs_each_column_like_repair_vector(triples):
    # Ties among the smallest and the largest entries are common: the same tie rules must hold.
    got = repair_array(np.array(triples, dtype=float).T.copy())
    assert [tuple(col) for col in got.T.tolist()] == [repair_vector(t) for t in triples]


def test_matrix_is_immutable():
    tm = transition_matrix(builtin_model(Environment.URBAN, Density.LOW), 100.0)
    with pytest.raises(ValueError):
        tm[0, 0] = 0.5
    probs = state_probabilities(builtin_model(Environment.URBAN, Density.LOW), 100.0)
    with pytest.raises(ValueError):
        probs[0] = 0.5
    assert (probs.shape, tm.shape, probs.dtype, tm.dtype) == ((3,), (3, 3), np.float64, np.float64)


def test_stationary_rank_one_chain():
    rows = np.array([[0.2, 0.3, 0.5]] * 3)
    pi, unique = stationary_distribution(rows)
    assert pi.tolist() == pytest.approx([0.2, 0.3, 0.5], abs=1e-9)
    assert unique


def test_stationary_identity_flagged_non_unique():
    pi, unique = stationary_distribution(np.eye(3))
    assert not unique
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)


def test_stationary_periodic_chain_does_not_converge():
    perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ConvergenceError):
        stationary_distribution(perm)


def test_stationary_vs_fitted_probabilities_reported_not_asserted():
    model = builtin_model(Environment.URBAN, Density.HIGH)
    pi, _ = stationary_distribution(transition_matrix(model, 50.0))
    fitted = state_probabilities(model, 50.0)
    tv = 0.5 * float(np.abs(pi - fitted).sum())
    print(f"urban-high d=50: stationary vs fitted total variation = {tv:.4f}")
    assert 0.0 <= tv <= 1.0

