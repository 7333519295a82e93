"""Empirical counting, correlation, and curve refitting."""

import math

import numpy as np
import pytest

from v2vlos import (
    DegenerateError,
    Density,
    DistanceTrace,
    DomainError,
    EmpiricalStats,
    Environment,
    ExpDecay,
    LogBell,
    OffsetMinusLogBell,
    Piecewise,
    Poly2,
    RangeError,
    SingularError,
    StateTrace,
    accumulate,
    accumulate_traces,
    bin_of,
    builtin_model,
    empirical_state_probs,
    empirical_transition_probs,
    fit_expdecay,
    fit_logbell,
    fit_offset_minus_logbell,
    fit_poly2,
    fit_same_family,
    generate_states,
    pearson,
    raw_value,
    stationary_distribution,
    transition_matrix,
)
from v2vlos.estimation import DistanceBin, bin_centers


def labeled(ds, states, t0=0):
    ds = np.asarray(ds, dtype=float)
    return StateTrace(np.arange(t0, t0 + ds.size), ds, np.asarray(states, dtype=np.int8))


def test_bin_of_boundaries():
    assert bin_of(0.0).index == 0
    assert bin_of(9.999).index == 0
    assert bin_of(10.0).index == 1
    assert bin_of(499.0).index == 49
    assert bin_of(499.999).index == 49
    assert bin_of(500.0).index == 49  # the last bin is closed at the model's d_max
    for bad in (-0.001, 500.001, 501.0, math.nan):
        with pytest.raises(RangeError):
            bin_of(bad)


def test_bin_geometry():
    b = bin_of(25.0)
    assert (b.low, b.high, b.center) == (20.0, 30.0, 25.0)
    with pytest.raises(RangeError):
        DistanceBin(50)
    assert bin_centers()[0] == 5.0 and bin_centers()[-1] == 495.0


def test_accumulate_direct_counts():
    trace = labeled([25.0, 25.0, 25.0], [0, 0, 1])  # LOS, LOS, NLOSv
    stats = accumulate(EmpiricalStats(), trace)
    assert stats.transitions[2, 0, 0] == 1
    assert stats.transitions[2, 0, 1] == 1
    assert stats.transitions.sum() == 2
    assert stats.occupancy[2].tolist() == [2, 1, 0]
    assert stats.total_steps == 3


def test_accumulate_empty_trace_is_identity():
    empty = StateTrace(np.array([], dtype=np.int64), np.array([]), np.array([], dtype=np.int8))
    before = accumulate(EmpiricalStats(), labeled([25.0], [0]))
    after = accumulate(before, empty)
    assert after == before


def test_accumulate_does_not_mutate_input():
    base = EmpiricalStats()
    accumulate(base, labeled([25.0, 25.0], [0, 1]))
    assert base.total_steps == 0


def test_accumulate_range_error():
    with pytest.raises(RangeError):
        accumulate(EmpiricalStats(), labeled([500.001], [0]))


def test_accumulate_counts_d_max_in_last_bin():
    stats = accumulate(EmpiricalStats(), labeled([495.0, 500.0], [0, 2]))
    assert stats.occupancy[49].tolist() == [1, 0, 1]
    assert stats.transitions[49, 0, 2] == 1


def test_transition_attributed_to_from_step_bin():
    # Pair crossing a bin edge counts in the bin of the earlier step.
    trace = labeled([19.0, 21.0], [0, 2])
    stats = accumulate(EmpiricalStats(), trace)
    assert stats.transitions[1, 0, 2] == 1
    assert stats.transitions.sum() == 1
    assert stats.occupancy[1, 0] == 1 and stats.occupancy[2, 2] == 1


def test_merge_equals_concat_minus_boundary_transition():
    ds_a, ss_a = [15.0, 15.0, 25.0], [0, 1, 1]
    ds_b, ss_b = [25.0, 35.0, 35.0], [2, 2, 0]
    half_a = accumulate(EmpiricalStats(), labeled(ds_a, ss_a))
    half_b = accumulate(EmpiricalStats(), labeled(ds_b, ss_b, t0=3))
    merged = half_a + half_b
    concat = accumulate(EmpiricalStats(), labeled(ds_a + ds_b, ss_a + ss_b))
    assert np.array_equal(merged.occupancy, concat.occupancy)
    boundary = np.zeros_like(concat.transitions)
    boundary[bin_of(ds_a[-1]).index, ss_a[-1], ss_b[0]] = 1
    assert np.array_equal(concat.transitions, merged.transitions + boundary)


def test_merge_is_order_independent():
    t1 = labeled([15.0, 15.0], [0, 1])
    t2 = labeled([45.0, 45.0], [2, 2])
    t3 = labeled([75.0, 75.0], [1, 0])
    a = accumulate_traces([t1, t2, t3])
    b = accumulate_traces([t3, t1, t2])
    assert a == b


def test_empirical_transition_probs_rows():
    stats = EmpiricalStats()
    stats.transitions[4, 0] = [2, 1, 1]
    probs = empirical_transition_probs(stats)
    assert probs.probs[4, 0].tolist() == [0.5, 0.25, 0.25]
    assert probs.defined[4, 0]
    # Zero-count rows stay undefined, not zero.
    assert not probs.defined[4, 1]
    assert np.all(np.isnan(probs.probs[4, 1]))


def test_empirical_state_probs_bins():
    stats = EmpiricalStats()
    stats.occupancy[7] = [3, 1, 0]
    probs = empirical_state_probs(stats)
    assert probs.probs[7].tolist() == [0.75, 0.25, 0.0]
    assert probs.defined[7]
    assert not probs.defined[8]
    assert np.all(np.isnan(probs.probs[8]))


def test_estimator_recovers_assembled_matrix():
    model = builtin_model(Environment.URBAN, Density.HIGH)
    n = 2 * 10**5
    trace = DistanceTrace(np.arange(n), np.full(n, 105.0))
    chain = generate_states(model, trace, seed=31)
    stats = accumulate(EmpiricalStats(), chain)
    est = empirical_transition_probs(stats)
    ref = transition_matrix(model, 105.0).m
    assert np.all(est.defined[10])
    assert np.nanmax(np.abs(est.probs[10] - ref)) < 0.02


def test_long_chain_state_probs_match_stationary():
    model = builtin_model(Environment.URBAN, Density.MEDIUM)
    n = 10**6
    chain = generate_states(model, DistanceTrace(np.arange(n), np.full(n, 105.0)), seed=13)
    stats = accumulate(EmpiricalStats(), chain)
    est = empirical_state_probs(stats).probs[10]
    pi = stationary_distribution(transition_matrix(model, 105.0)).probs.as_array()
    assert np.max(np.abs(est - pi)) < 0.01


def test_pearson_trivial_cases():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson(xs, xs) == pytest.approx(1.0, abs=1e-12)
    assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_pairwise_deletion():
    xs = [1.0, 2.0, np.nan, 4.0, 5.0]
    ys = [2.0, 4.0, 100.0, 8.0, np.nan]
    # Only the three complete pairs (1,2), (2,4), (4,8) remain.
    assert pearson(xs, ys) == pytest.approx(1.0, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(DegenerateError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateError):
        pearson([1.0, np.nan], [1.0, 2.0])


def test_pearson_on_perturbed_curve():
    spec = ExpDecay(0.8372, 0.0114)
    ds = bin_centers()
    ys = np.array([raw_value(spec, float(d)) for d in ds])
    rng = np.random.default_rng(7)
    noisy = ys * (1.0 + 0.01 * rng.standard_normal(ys.size))
    assert pearson(ys, noisy) > 0.99


def test_fit_poly2_exact_recovery():
    true = Poly2(2e-6, -1e-3, 0.9)
    pts = [(d, raw_value(true, d)) for d in np.arange(5.0, 500.0, 10.0)]
    fit = fit_poly2(pts)
    assert abs(fit.spec.a - true.a) < 1e-9
    assert abs(fit.spec.b - true.b) < 1e-9
    assert abs(fit.spec.c - true.c) < 1e-9
    assert fit.sse < 1e-18


def test_fit_poly2_constant_points():
    fit = fit_poly2([(d, 0.5) for d in (10.0, 20.0, 30.0, 40.0)])
    assert abs(fit.spec.a) < 1e-9 and abs(fit.spec.b) < 1e-9
    assert fit.spec.c == pytest.approx(0.5, abs=1e-9)


def test_fit_poly2_singular_designs():
    with pytest.raises(SingularError):
        fit_poly2([(10.0, 1.0), (10.0, 1.0), (20.0, 2.0)])
    with pytest.raises(SingularError):
        fit_poly2([(10.0, 1.0), (20.0, 2.0)])


def test_fit_poly2_noisy_within_three_standard_errors():
    true = Poly2(2e-6, -1e-3, 0.9)
    sigma = 0.01
    ds = bin_centers()
    rng = np.random.default_rng(12345)
    ys = np.array([raw_value(true, float(d)) for d in ds]) + sigma * rng.standard_normal(ds.size)
    fit = fit_poly2(list(zip(ds, ys)))
    # Standard errors from the scaled design, mapped back to raw coefficients.
    scale = float(np.max(ds))
    u = ds / scale
    X = np.column_stack([u * u, u, np.ones_like(u)])
    cov = sigma**2 * np.linalg.inv(X.T @ X)
    se = np.sqrt(np.diag(cov)) / np.array([scale**2, scale, 1.0])
    for got, want, err in zip((fit.spec.a, fit.spec.b, fit.spec.c), (true.a, true.b, true.c), se):
        assert abs(got - want) <= 3.0 * err


def test_fit_expdecay_exact_recovery():
    true = ExpDecay(0.8372, 0.0114)
    pts = [(d, raw_value(true, d)) for d in np.arange(5.0, 500.0, 10.0)]
    fit = fit_expdecay(pts)
    assert fit.spec.a == pytest.approx(true.a, rel=1e-9)
    assert fit.spec.b == pytest.approx(true.b, rel=1e-9)


def test_fit_expdecay_excludes_nonpositive_with_warning():
    true = ExpDecay(0.5, 0.01)
    pts = [(d, raw_value(true, d)) for d in np.arange(10.0, 200.0, 10.0)] + [(300.0, 0.0)]
    with pytest.warns(UserWarning, match="non-positive"):
        fit = fit_expdecay(pts)
    assert fit.spec.a == pytest.approx(0.5, rel=1e-9)


def test_fit_logbell_self_recovery_on_bins():
    true = LogBell(0.0312, 5.0063, 2.4544)
    centers = bin_centers()[1:]  # bins 1..49
    pts = [(float(d), raw_value(true, float(d))) for d in centers]
    fit = fit_logbell(pts)
    assert fit.sse < 1e-6
    assert fit.spec.s == pytest.approx(true.s, rel=0.01)
    assert fit.spec.mu == pytest.approx(true.mu, rel=0.01)
    assert fit.spec.k == pytest.approx(true.k, rel=0.01)


def test_fit_logbell_degenerate_and_domain():
    with pytest.raises(DegenerateError):
        fit_logbell([(10.0, 0.0), (20.0, 0.0), (30.0, 0.0), (40.0, 0.0)])
    with pytest.raises(DegenerateError):
        fit_logbell([(10.0, 0.1), (20.0, 0.2), (30.0, 0.1)])
    with pytest.raises(DomainError):
        fit_logbell([(-1.0, 0.1), (20.0, 0.2), (30.0, 0.1), (40.0, 0.2)])
    with pytest.raises(DomainError):
        fit_logbell([(10.0, -0.1), (20.0, 0.2), (30.0, 0.1), (40.0, 0.2)])


def test_fit_logbell_on_polynomial_data_fits_worse_than_poly2():
    poly = Poly2(3.2e-6, -0.003, 1.0)  # positive on the sampled range
    pts = [(d, raw_value(poly, d)) for d in np.arange(5.0, 500.0, 10.0)]
    poly_fit = fit_poly2(pts)
    bell_fit = fit_logbell(pts)
    assert bell_fit.sse > poly_fit.sse


def test_fit_offset_minus_logbell_recovery():
    true = OffsetMinusLogBell(0.9132, LogBell(0.0484, 4.7076, 0.748))
    pts = [(float(d), raw_value(true, float(d))) for d in bin_centers()]
    fit = fit_offset_minus_logbell(pts)
    assert fit.spec.offset == pytest.approx(true.offset, abs=1e-6)
    assert fit.spec.inner.s == pytest.approx(true.inner.s, rel=0.01)
    assert fit.sse < 1e-9


def test_fit_same_family_piecewise():
    true = Piecewise(90.0, Poly2(-4.8e-5, -5.62e-3, 1.11), Poly2(-2.286e-6, 1.443e-3, 0.1022))
    pts = [(float(d), raw_value(true, float(d))) for d in bin_centers()]
    fit = fit_same_family(true, pts)
    assert isinstance(fit.spec, Piecewise)
    assert fit.spec.d_t == 90.0
    assert fit.sse < 1e-18
    for d in (5.0, 85.0, 90.0, 95.0, 495.0):
        assert raw_value(fit.spec, d) == pytest.approx(raw_value(true, d), abs=1e-9)
