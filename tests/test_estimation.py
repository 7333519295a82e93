"""Empirical counting, correlation, and curve refitting."""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    builtin_model,
    chain,
    empirical_state_probs,
    empirical_transition_probs,
    fit_expdecay,
    fit_logbell,
    fit_offset_minus_logbell,
    fit_poly2,
    fit_same_family,
    pearson,
    stationary_distribution,
    transition_matrix,
)
from v2vlos import markov
from v2vlos.estimation import bin_centers


def labeled(ds, states, t0=0):
    ds = np.asarray(ds, dtype=float)
    return StateTrace(DistanceTrace(np.arange(t0, t0 + ds.size), ds), np.asarray(states, dtype=np.int8))


def reference_accumulate(occupancy, transitions, trace):
    """Counts with one trace added in, as they were kept before batch counting."""
    d = trace.distances
    if d.size:
        lo, hi = float(d.min()), float(d.max())
        if not (lo >= 0.0 and hi <= 500.0):
            raise RangeError(f"trace distance {hi if lo >= 0.0 else lo} outside [0, 500.0]")
    bins = np.minimum(d // 10.0, 49).astype(np.int64)
    s = trace.states.astype(np.int64)
    occupancy, transitions = occupancy.copy(), transitions.copy()
    np.add.at(occupancy, (bins, s), 1)
    if s.size >= 2:
        np.add.at(transitions, (bins[:-1], s[:-1], s[1:]), 1)
    return occupancy, transitions


def reference_fold(traces):
    """Per-trace counts merged one trace at a time."""
    occupancy, transitions = np.zeros((50, 3), dtype=np.int64), np.zeros((50, 3, 3), dtype=np.int64)
    for trace in traces:
        occupancy, transitions = reference_accumulate(occupancy, transitions, trace)
    return occupancy, transitions


def test_accumulate_bin_boundaries():
    # The last bin is closed at the model's d_max.
    for d, index in ((5e-324, 0), (9.999, 0), (10.0, 1), (499.0, 49), (499.999, 49), (500.0, 49)):
        stats = accumulate([labeled([d], [0])])
        assert stats.occupancy[:, 0].nonzero()[0].tolist() == [index], d


def test_bin_geometry():
    centers = bin_centers()
    assert centers.size == 50
    assert (centers[0], centers[2], centers[-1]) == (5.0, 25.0, 495.0)


def test_accumulate_direct_counts():
    trace = labeled([25.0, 25.0, 25.0], [0, 0, 1])  # LOS, LOS, NLOSv
    stats = accumulate([trace])
    assert stats.transitions[2, 0, 0] == 1
    assert stats.transitions[2, 0, 1] == 1
    assert stats.transitions.sum() == 2
    assert stats.occupancy[2].tolist() == [2, 1, 0]
    assert stats.occupancy.sum() == 3


def test_accumulate_empty_batch_gives_zero_counts():
    stats = accumulate([])
    assert not stats.occupancy.any() and not stats.transitions.any()
    # An empty trace is rejected when its grid is built.
    with pytest.raises(DomainError, match="non-empty"):
        labeled([], [])


def test_accumulate_counts_are_read_only_int64():
    stats = accumulate([labeled([25.0, 25.0], [0, 1])])
    for counts in (stats.occupancy, stats.transitions):
        assert counts.dtype == np.int64 and not counts.flags.writeable
    with pytest.raises(ValueError):
        stats.occupancy[2, 0] = 5


def test_empirical_stats_shape_check():
    with pytest.raises(ValueError, match="shapes"):
        EmpiricalStats(np.zeros((49, 3)), np.zeros((50, 3, 3)))
    with pytest.raises(ValueError, match="shapes"):
        EmpiricalStats(np.zeros((50, 3)), np.zeros((50, 9)))


def test_accumulate_range_error():
    for bad in (500.001, 501.0, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a huge distance must not reach the bin cast
            with pytest.raises(RangeError, match=r"outside \[0, 500.0\]"):
                accumulate([labeled([25.0, bad, 25.0], [0, 1, 2])])
    # Distances below the bins, or not finite, are rejected when the grid is built.
    for bad in (-0.001, 0.0, -math.inf, math.inf, math.nan):
        with pytest.raises(DomainError, match="finite and positive"):
            labeled([25.0, bad, 25.0], [0, 1, 2])


def test_accumulate_counts_d_max_in_last_bin():
    stats = accumulate([labeled([495.0, 500.0], [0, 2])])
    assert stats.occupancy[49].tolist() == [1, 0, 1]
    assert stats.transitions[49, 0, 2] == 1


def test_transition_attributed_to_from_step_bin():
    # Pair crossing a bin edge counts in the bin of the earlier step.
    trace = labeled([19.0, 21.0], [0, 2])
    stats = accumulate([trace])
    assert stats.transitions[1, 0, 2] == 1
    assert stats.transitions.sum() == 1
    assert stats.occupancy[1, 0] == 1 and stats.occupancy[2, 2] == 1


def test_batch_equals_concat_minus_boundary_transition():
    ds_a, ss_a = [15.0, 15.0, 25.0], [0, 1, 1]
    ds_b, ss_b = [25.0, 35.0, 35.0], [2, 2, 0]
    batch = accumulate([labeled(ds_a, ss_a), labeled(ds_b, ss_b, t0=3)])
    concat = accumulate([labeled(ds_a + ds_b, ss_a + ss_b)])
    assert np.array_equal(batch.occupancy, concat.occupancy)
    boundary = np.zeros_like(concat.transitions)
    boundary[2, ss_a[-1], ss_b[0]] = 1  # 25 m lies in bin 2
    assert np.array_equal(concat.transitions, batch.transitions + boundary)


def test_batch_is_order_independent():
    traces = [labeled([15.0, 15.0], [0, 1]), labeled([45.0, 45.0], [2, 2]), labeled([75.0, 75.0], [1, 0])]
    a = accumulate(traces)
    for order in itertools.permutations(traces):
        b = accumulate(order)
        assert np.array_equal(a.occupancy, b.occupancy)
        assert np.array_equal(a.transitions, b.transitions)


# Distances that stress the bin rule: bin edges, their neighbours and 500 m.
_distances = st.one_of(
    st.floats(0.0, 500.0, exclude_min=True),
    st.sampled_from([5e-324, 9.999, 10.0, 250.0, 490.0, 499.999, 500.0]),
)
_traces = st.integers(1, 300).flatmap(
    lambda n: st.tuples(hnp.arrays(np.float64, n, elements=_distances), hnp.arrays(np.int8, n, elements=st.integers(0, 2)))
)


@settings(max_examples=300, deadline=None)
@given(batch=st.lists(_traces, max_size=12), block=st.integers(1, 600), data=st.data())
def test_batch_accumulate_matches_per_trace_fold(batch, block, data):
    traces = [labeled(ds, ss) for ds, ss in batch]
    occupancy, transitions = reference_fold(traces)
    yielded = []

    def lazy():
        for trace in traces:
            yielded.append(trace)
            yield trace

    with mock.patch.object(markov, "_COUNT_BLOCK", block):
        stats = accumulate(lazy())
        shuffled = accumulate(data.draw(st.permutations(traces)))
    assert yielded == traces  # every trace read exactly once
    for got in (stats, shuffled):
        assert np.array_equal(got.occupancy, occupancy)
        assert np.array_equal(got.transitions, transitions)


def test_empirical_transition_probs_rows():
    transitions = np.zeros((50, 3, 3), dtype=np.int64)
    transitions[4, 0] = [2, 1, 1]
    probs = empirical_transition_probs(EmpiricalStats(np.zeros((50, 3), dtype=np.int64), transitions))
    assert probs.probs[4, 0].tolist() == [0.5, 0.25, 0.25]
    assert probs.defined[4, 0]
    # Zero-count rows stay undefined, not zero.
    assert not probs.defined[4, 1]
    assert np.all(np.isnan(probs.probs[4, 1]))


def test_empirical_state_probs_bins():
    occupancy = np.zeros((50, 3), dtype=np.int64)
    occupancy[7] = [3, 1, 0]
    probs = empirical_state_probs(EmpiricalStats(occupancy, np.zeros((50, 3, 3), dtype=np.int64)))
    assert probs.probs[7].tolist() == [0.75, 0.25, 0.0]
    assert probs.defined[7]
    assert not probs.defined[8]
    assert np.all(np.isnan(probs.probs[8]))


def test_estimator_recovers_assembled_matrix():
    model = builtin_model(Environment.URBAN, Density.HIGH)
    n = 2 * 10**5
    trace = DistanceTrace(np.arange(n), np.full(n, 105.0))
    states = chain(model).trace(trace, 31)
    stats = accumulate([states])
    est = empirical_transition_probs(stats)
    ref = transition_matrix(model, 105.0).m
    assert np.all(est.defined[10])
    assert np.nanmax(np.abs(est.probs[10] - ref)) < 0.02


def test_long_chain_state_probs_match_stationary():
    model = builtin_model(Environment.URBAN, Density.MEDIUM)
    n = 10**6
    states = chain(model).trace(DistanceTrace(np.arange(n), np.full(n, 105.0)), 13)
    stats = accumulate([states])
    est = empirical_state_probs(stats).probs[10]
    pi = np.array(stationary_distribution(transition_matrix(model, 105.0)).probs.as_tuple())
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
    ys = np.array([spec.raw(float(d)) for d in ds])
    rng = np.random.default_rng(7)
    noisy = ys * (1.0 + 0.01 * rng.standard_normal(ys.size))
    assert pearson(ys, noisy) > 0.99


def test_fit_poly2_exact_recovery():
    true = Poly2(2e-6, -1e-3, 0.9)
    pts = [(d, true.raw(d)) for d in np.arange(5.0, 500.0, 10.0)]
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
    ys = np.array([true.raw(float(d)) for d in ds]) + sigma * rng.standard_normal(ds.size)
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
    pts = [(d, true.raw(d)) for d in np.arange(5.0, 500.0, 10.0)]
    fit = fit_expdecay(pts)
    assert fit.spec.a == pytest.approx(true.a, rel=1e-9)
    assert fit.spec.b == pytest.approx(true.b, rel=1e-9)


def test_fit_expdecay_excludes_nonpositive_with_warning():
    true = ExpDecay(0.5, 0.01)
    pts = [(d, true.raw(d)) for d in np.arange(10.0, 200.0, 10.0)] + [(300.0, 0.0)]
    with pytest.warns(UserWarning, match="non-positive"):
        fit = fit_expdecay(pts)
    assert fit.spec.a == pytest.approx(0.5, rel=1e-9)


def test_fit_expdecay_needs_two_distinct_positive_points():
    with pytest.raises(DegenerateError, match="2 distinct"):
        fit_expdecay([(10.0, 0.5), (10.0, 0.4)])
    with pytest.warns(UserWarning, match="non-positive"), pytest.raises(DegenerateError, match="2 distinct"):
        fit_expdecay([(10.0, 0.5), (20.0, 0.0), (30.0, -0.1)])


def test_fit_logbell_self_recovery_on_bins():
    true = LogBell(0.0312, 5.0063, 2.4544)
    centers = bin_centers()[1:]  # bins 1..49
    pts = [(float(d), true.raw(float(d))) for d in centers]
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
    pts = [(d, poly.raw(d)) for d in np.arange(5.0, 500.0, 10.0)]
    poly_fit = fit_poly2(pts)
    bell_fit = fit_logbell(pts)
    assert bell_fit.sse > poly_fit.sse


def test_fit_offset_minus_logbell_recovery():
    true = OffsetMinusLogBell(0.9132, LogBell(0.0484, 4.7076, 0.748))
    pts = [(float(d), true.raw(float(d))) for d in bin_centers()]
    fit = fit_offset_minus_logbell(pts)
    assert fit.spec.offset == pytest.approx(true.offset, abs=1e-6)
    assert fit.spec.inner.s == pytest.approx(true.inner.s, rel=0.01)
    assert fit.sse < 1e-9


def test_fit_offset_minus_logbell_degenerate_and_domain():
    with pytest.raises(DegenerateError, match="at least 4 points"):
        fit_offset_minus_logbell([(10.0, 0.5), (20.0, 0.4), (30.0, 0.3)])
    with pytest.raises(DomainError, match="positive distances"):
        fit_offset_minus_logbell([(0.0, 0.5), (20.0, 0.4), (30.0, 0.3), (40.0, 0.2)])
    # At such distances every bell on the grid underflows to zero.
    with pytest.raises(DegenerateError, match="no usable offset"):
        fit_offset_minus_logbell([(k * 1e300, 0.5) for k in (1.0, 2.0, 3.0, 4.0)])


def test_fit_same_family_piecewise():
    true = Piecewise(90.0, Poly2(-4.8e-5, -5.62e-3, 1.11), Poly2(-2.286e-6, 1.443e-3, 0.1022))
    pts = [(float(d), true.raw(float(d))) for d in bin_centers()]
    fit = fit_same_family(true, pts)
    assert isinstance(fit.spec, Piecewise)
    assert fit.spec.d_t == 90.0
    assert fit.sse < 1e-18
    for d in (5.0, 85.0, 90.0, 95.0, 495.0):
        assert fit.spec.raw(d) == pytest.approx(true.raw(d), abs=1e-9)


def test_fit_same_family_rejects_a_non_curve():
    with pytest.raises(TypeError, match="unknown curve spec"):
        fit_same_family("poly2", [(10.0, 0.5), (20.0, 0.4), (30.0, 0.3)])
