"""Probability vectors, transition matrices, repair rule, stationary solver."""

import math

import numpy as np
import pytest

from v2vlos import (
    ConvergenceError,
    Density,
    Environment,
    LosState,
    StateProbVector,
    TransitionMatrix,
    builtin_model,
    repair_vector,
    state_probabilities,
    stationary_distribution,
    transition_matrix,
    transition_row,
)

from conftest import all_models


def test_urban_medium_vector_at_100():
    # Independent evaluation of the two explicit curves plus complement.
    p_los = 0.8372 * math.exp(-0.0114 * 100.0)
    p_nlosv = (1.0 / (0.0312 * 100.0)) * math.exp(-((math.log(100.0) - 5.0063) ** 2) / 2.4544)
    p_nlosb = 1.0 - p_los - p_nlosv
    got = state_probabilities(builtin_model(Environment.URBAN, Density.MEDIUM), 100.0)
    assert got.los == pytest.approx(p_los, abs=1e-12)
    assert got.nlosv == pytest.approx(p_nlosv, abs=1e-12)
    assert got.nlosb == pytest.approx(p_nlosb, abs=1e-12)
    assert (got.los, got.nlosv, got.nlosb) == pytest.approx((0.2678, 0.300, 0.432), abs=1e-3)


def test_highway_high_vector_at_500():
    got = state_probabilities(builtin_model(Environment.HIGHWAY, Density.HIGH), 500.0)
    p_nlosb = -4.1e-7 * 500.0**2 + 0.00067 * 500.0 + 0.0
    assert got.los == pytest.approx(0.3, abs=1e-12)
    assert got.nlosb == pytest.approx(p_nlosb, abs=1e-12)
    assert got.nlosv == pytest.approx(1.0 - 0.3 - 0.2325, abs=1e-6)


def test_highway_low_near_zero_distance_repairs_to_degenerate():
    model = builtin_model(Environment.HIGHWAY, Density.LOW)
    with pytest.warns(Warning):
        got = state_probabilities(model, 0.01)
    assert got.nlosv == 0.0
    assert got.los == pytest.approx(1.0, abs=2e-3)
    assert got.nlosb == pytest.approx(0.0, abs=2e-3)
    assert sum(got.as_tuple()) == pytest.approx(1.0, abs=1e-9)


def test_urban_medium_los_row_at_200():
    p_ll = 1.5e-6 * 200.0**2 - 1.2e-3 * 200.0 + 0.93
    p_lb = -5.9e-7 * 200.0**2 + 5.4e-4 * 200.0 + 0.0069
    row = transition_row(builtin_model(Environment.URBAN, Density.MEDIUM), LosState.LOS, 200.0)
    assert row[0] == pytest.approx(p_ll, abs=1e-12)
    assert row[2] == pytest.approx(p_lb, abs=1e-12)
    assert row[1] == pytest.approx(1.0 - p_ll - p_lb, abs=1e-12)
    assert row == pytest.approx((0.75, 0.1587, 0.0913), abs=1e-4)


def test_highway_low_nlosb_row_nlosv_exactly_zero():
    # The two explicit curves share the same bell, so the complement vanishes.
    row = transition_row(builtin_model(Environment.HIGHWAY, Density.LOW), LosState.NLOSb, 150.0)
    assert row[1] == 0.0
    assert row[0] + row[2] == pytest.approx(1.0, abs=1e-12)


def test_transition_row_agrees_with_matrix_rows():
    # The chain engine samples single rows; they must match the full matrix.
    for model in all_models():
        for d in (1.0, 70.0, 90.0, 250.0, 500.0):
            tm = transition_matrix(model, d)
            for origin in LosState:
                row = transition_row(model, origin, d)
                assert np.allclose(tm.m[int(origin)], row, atol=0.0)


def test_rows_sum_to_one_across_scenarios():
    for model in all_models():
        for d in (1.0, 35.0, 70.0, 89.5, 90.0, 105.0, 250.0, 499.5, 500.0):
            tm = transition_matrix(model, d)
            assert np.all(tm.m >= 0.0) and np.all(tm.m <= 1.0)
            assert np.allclose(tm.m.sum(axis=1), 1.0, atol=1e-9)
            probs = state_probabilities(model, d)
            assert sum(probs.as_tuple()) == pytest.approx(1.0, abs=1e-9)


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
    with pytest.raises(ValueError):
        StateProbVector(0.5, 0.6, 0.2)
    with pytest.raises(ValueError):
        StateProbVector(-0.1, 0.6, 0.5)
    with pytest.raises(ValueError):
        TransitionMatrix(np.eye(2), d=10.0)
    with pytest.raises(ValueError):
        TransitionMatrix(np.full((3, 3), 0.5), d=10.0)


def test_matrix_is_immutable():
    tm = transition_matrix(builtin_model(Environment.URBAN, Density.LOW), 100.0)
    with pytest.raises(ValueError):
        tm.m[0, 0] = 0.5


def test_stationary_rank_one_chain():
    rows = np.array([[0.2, 0.3, 0.5]] * 3)
    res = stationary_distribution(TransitionMatrix(rows, d=10.0))
    assert res.probs.as_tuple() == pytest.approx((0.2, 0.3, 0.5), abs=1e-9)
    assert res.unique


def test_stationary_identity_flagged_non_unique():
    res = stationary_distribution(TransitionMatrix(np.eye(3), d=10.0))
    assert not res.unique
    assert sum(res.probs.as_tuple()) == pytest.approx(1.0, abs=1e-9)


def test_stationary_periodic_chain_does_not_converge():
    perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ConvergenceError):
        stationary_distribution(TransitionMatrix(perm, d=10.0))


def test_stationary_vs_fitted_probabilities_reported_not_asserted():
    model = builtin_model(Environment.URBAN, Density.HIGH)
    res = stationary_distribution(transition_matrix(model, 50.0))
    fitted = state_probabilities(model, 50.0)
    tv = 0.5 * sum(abs(a - b) for a, b in zip(res.probs.as_tuple(), fitted.as_tuple()))
    print(f"urban-high d=50: stationary vs fitted total variation = {tv:.4f}")
    assert 0.0 <= tv <= 1.0


def test_vector_accessors():
    v = StateProbVector(0.2, 0.3, 0.5)
    assert v[LosState.LOS] == 0.2
    assert v[LosState.NLOSv] == 0.3
    assert v[LosState.NLOSb] == 0.5
    assert v.as_dict() == {LosState.LOS: 0.2, LosState.NLOSv: 0.3, LosState.NLOSb: 0.5}
    assert v.as_tuple() == (0.2, 0.3, 0.5)
