"""Empirical counting, correlation, and curve refitting."""

import itertools
import math
import os
import sys
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
    Environment,
    ExpDecay,
    LogBell,
    OffsetMinusLogBell,
    Piecewise,
    Poly2,
    StateTrace,
    accumulate,
    builtin_model,
    chain,
    fit_expdecay,
    fit_logbell,
    fit_offset_minus_logbell,
    fit_poly2,
    fit_same_family,
    frequencies,
    pearson,
    read_labeled_traces,
    stationary_distribution,
    transition_matrix,
)
from v2vlos import estimation, markov
from v2vlos.curves import log_bell_values
from v2vlos.estimation import _logbell_grid, bin_centers


def labeled(ds, states, t0=0):
    ds = np.asarray(ds, dtype=float)
    return StateTrace(DistanceTrace(np.arange(t0, t0 + ds.size), ds), np.asarray(states, dtype=np.int8))


def reference_accumulate(occupancy, transitions, trace):
    """Counts with one trace added in, as they were kept before batch counting."""
    d = trace.distances
    if d.size:
        lo, hi = float(d.min()), float(d.max())
        if not (lo >= 0.0 and hi <= 500.0):
            raise DomainError(f"trace distance {hi if lo >= 0.0 else lo} outside [0, 500.0]")
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
        occupancy, _ = accumulate([labeled([d], [0])])
        assert occupancy[:, 0].nonzero()[0].tolist() == [index], d


def test_bin_geometry():
    centers = bin_centers()
    assert centers.size == 50
    assert (centers[0], centers[2], centers[-1]) == (5.0, 25.0, 495.0)


def test_accumulate_direct_counts():
    trace = labeled([25.0, 25.0, 25.0], [0, 0, 1])  # LOS, LOS, NLOSv
    occupancy, transitions = accumulate([trace])
    assert occupancy.shape == (50, 3) and transitions.shape == (50, 3, 3)
    assert transitions[2, 0, 0] == 1
    assert transitions[2, 0, 1] == 1
    assert transitions.sum() == 2
    assert occupancy[2].tolist() == [2, 1, 0]
    assert occupancy.sum() == 3


def test_accumulate_empty_batch_gives_zero_counts():
    occupancy, transitions = accumulate([])
    assert not occupancy.any() and not transitions.any()
    # An empty trace is rejected when its grid is built.
    with pytest.raises(DomainError, match="non-empty"):
        labeled([], [])


def test_accumulate_counts_are_read_only_int64():
    counts = accumulate([labeled([25.0, 25.0], [0, 1])])
    assert isinstance(counts, tuple) and len(counts) == 2
    for array in counts:
        assert array.dtype == np.int64 and not array.flags.writeable
    with pytest.raises(ValueError):
        counts[0][2, 0] = 5


def test_a_distance_above_500_m_is_a_domain_error_in_generate_and_estimate():
    grid = DistanceTrace.from_distances([400.0, 505.0])
    with pytest.raises(DomainError, match="above model ceiling"):
        chain(builtin_model(Environment.URBAN, Density.MEDIUM)).trace(grid, 0)
    with pytest.raises(DomainError, match=r"trace distance 505.0 outside \[0, 500.0\]"):
        accumulate([StateTrace(grid, np.array([0, 1], dtype=np.int8))])


def test_accumulate_range_error():
    for bad in (500.001, 501.0, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a huge distance must not reach the bin cast
            with pytest.raises(DomainError, match=r"outside \[0, 500.0\]"):
                accumulate([labeled([25.0, bad, 25.0], [0, 1, 2])])
    # Distances below the bins, or not finite, are rejected when the grid is built.
    for bad in (-0.001, 0.0, -math.inf, math.inf, math.nan):
        with pytest.raises(DomainError, match="finite and positive"):
            labeled([25.0, bad, 25.0], [0, 1, 2])


def test_a_file_counts_as_its_traces_do_across_the_ends_of_int64(tmp_path):
    # From the largest time to the smallest, a difference of times wraps around to 1; that row starts a trace.
    path = tmp_path / "ends.csv"
    path.write_text("t,d,state\n9223372036854775806,10.0,LOS\n9223372036854775807,20.0,NLOSv\n"
                    "-9223372036854775808,30.0,NLOSb\n-9223372036854775807,40.0,LOS\n", encoding="utf-8")
    counts = accumulate(str(path))
    assert counts[1].sum() == 2
    for got, want in zip(counts, accumulate(read_labeled_traces(path))):
        assert got.dtype == want.dtype and np.array_equal(got, want) and not got.flags.writeable


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/fd")
def test_a_file_count_that_cannot_fork_fails_cleanly_or_stays_in_one_process(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_text("t,d,state\n0,10.0,LOS\n1,11.0,NLOSv\n", encoding="utf-8")
    monkeypatch.setattr(estimation, "_SHARD_BYTES", 0)
    # A failed fork raises and leaves no pipe open.
    open_fds = len(os.listdir("/proc/self/fd"))
    with mock.patch.object(os, "fork", side_effect=OSError(11, "Resource temporarily unavailable")):
        with pytest.raises(OSError, match="Resource temporarily unavailable"):
            estimation._count_file(path, 0)
    assert len(os.listdir("/proc/self/fd")) == open_fds
    # Without /proc the threads cannot be counted, so the count stays in one process.
    with mock.patch.object(os, "listdir", side_effect=FileNotFoundError(2, "No such file or directory")):
        assert estimation._split_point(path) is None
    counts = accumulate(path)
    assert counts[0].sum() == 2 and counts[1].sum() == 1


def test_accumulate_counts_d_max_in_last_bin():
    occupancy, transitions = accumulate([labeled([495.0, 500.0], [0, 2])])
    assert occupancy[49].tolist() == [1, 0, 1]
    assert transitions[49, 0, 2] == 1


def test_transition_attributed_to_from_step_bin():
    # Pair crossing a bin edge counts in the bin of the earlier step.
    trace = labeled([19.0, 21.0], [0, 2])
    occupancy, transitions = accumulate([trace])
    assert transitions[1, 0, 2] == 1
    assert transitions.sum() == 1
    assert occupancy[1, 0] == 1 and occupancy[2, 2] == 1


def test_batch_equals_concat_minus_boundary_transition():
    ds_a, ss_a = [15.0, 15.0, 25.0], [0, 1, 1]
    ds_b, ss_b = [25.0, 35.0, 35.0], [2, 2, 0]
    batch_occupancy, batch_transitions = accumulate([labeled(ds_a, ss_a), labeled(ds_b, ss_b, t0=3)])
    concat_occupancy, concat_transitions = accumulate([labeled(ds_a + ds_b, ss_a + ss_b)])
    assert np.array_equal(batch_occupancy, concat_occupancy)
    boundary = np.zeros_like(concat_transitions)
    boundary[2, ss_a[-1], ss_b[0]] = 1  # 25 m lies in bin 2
    assert np.array_equal(concat_transitions, batch_transitions + boundary)


def test_batch_is_order_independent():
    traces = [labeled([15.0, 15.0], [0, 1]), labeled([45.0, 45.0], [2, 2]), labeled([75.0, 75.0], [1, 0])]
    a = accumulate(traces)
    for order in itertools.permutations(traces):
        b = accumulate(order)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


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
        counts = accumulate(lazy())
        shuffled = accumulate(data.draw(st.permutations(traces)))
    assert yielded == traces  # every trace read exactly once
    for got_occupancy, got_transitions in (counts, shuffled):
        assert np.array_equal(got_occupancy, occupancy)
        assert np.array_equal(got_transitions, transitions)


def test_frequencies_of_transition_rows():
    transitions = np.zeros((50, 3, 3), dtype=np.int64)
    transitions[4, 0] = [2, 1, 1]
    probs = frequencies(transitions)
    assert probs.shape == (50, 3, 3)
    assert probs[4, 0].tolist() == [0.5, 0.25, 0.25]
    # Zero-count rows stay undefined (NaN), not zero.
    assert np.all(np.isnan(probs[4, 1]))


def test_frequencies_of_state_bins():
    occupancy = np.zeros((50, 3), dtype=np.int64)
    occupancy[7] = [3, 1, 0]
    probs = frequencies(occupancy)
    assert probs.shape == (50, 3)
    assert probs[7].tolist() == [0.75, 0.25, 0.0]
    assert np.all(np.isnan(probs[8]))


def test_estimator_recovers_assembled_matrix():
    model = builtin_model(Environment.URBAN, Density.HIGH)
    n = 2 * 10**5
    trace = DistanceTrace(np.arange(n), np.full(n, 105.0))
    states = chain(model).trace(trace, 31)
    _, transitions = accumulate([states])
    est = frequencies(transitions)
    ref = transition_matrix(model, 105.0)
    assert not np.isnan(est[10]).any()
    assert np.nanmax(np.abs(est[10] - ref)) < 0.02


def test_long_chain_state_probs_match_stationary():
    model = builtin_model(Environment.URBAN, Density.MEDIUM)
    n = 10**6
    states = chain(model).trace(DistanceTrace(np.arange(n), np.full(n, 105.0)), 13)
    occupancy, _ = accumulate([states])
    est = frequencies(occupancy)[10]
    pi, _ = stationary_distribution(transition_matrix(model, 105.0))
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
    ds = np.arange(5.0, 500.0, 10.0)
    fit = fit_poly2(ds, [true.raw(d) for d in ds])
    assert abs(fit.spec.a - true.a) < 1e-9
    assert abs(fit.spec.b - true.b) < 1e-9
    assert abs(fit.spec.c - true.c) < 1e-9
    assert fit.sse < 1e-18


def test_fit_poly2_constant_points():
    fit = fit_poly2([10.0, 20.0, 30.0, 40.0], [0.5] * 4)
    assert abs(fit.spec.a) < 1e-9 and abs(fit.spec.b) < 1e-9
    assert fit.spec.c == pytest.approx(0.5, abs=1e-9)


def test_fit_poly2_singular_designs():
    with pytest.raises(DegenerateError, match="distinct"):
        fit_poly2([10.0, 10.0, 20.0], [1.0, 1.0, 2.0])
    with pytest.raises(DegenerateError, match="distinct"):
        fit_poly2([10.0, 20.0], [1.0, 2.0])


def test_fit_poly2_noisy_within_three_standard_errors():
    true = Poly2(2e-6, -1e-3, 0.9)
    sigma = 0.01
    ds = bin_centers()
    rng = np.random.default_rng(12345)
    ys = np.array([true.raw(float(d)) for d in ds]) + sigma * rng.standard_normal(ds.size)
    fit = fit_poly2(ds, ys)
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
    ds = np.arange(5.0, 500.0, 10.0)
    fit = fit_expdecay(ds, [true.raw(d) for d in ds])
    assert fit.spec.a == pytest.approx(true.a, rel=1e-9)
    assert fit.spec.b == pytest.approx(true.b, rel=1e-9)


def test_fit_expdecay_excludes_nonpositive_with_warning():
    true = ExpDecay(0.5, 0.01)
    ds = np.arange(10.0, 200.0, 10.0)
    with pytest.warns(UserWarning, match="non-positive"):
        fit = fit_expdecay([*ds, 300.0], [*(true.raw(d) for d in ds), 0.0])
    assert fit.spec.a == pytest.approx(0.5, rel=1e-9)


def test_fit_expdecay_needs_two_distinct_positive_points():
    with pytest.raises(DegenerateError, match="2 distinct"):
        fit_expdecay([10.0, 10.0], [0.5, 0.4])
    with pytest.warns(UserWarning, match="non-positive"), pytest.raises(DegenerateError, match="2 distinct"):
        fit_expdecay([10.0, 20.0, 30.0], [0.5, 0.0, -0.1])


_ODD_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan, -math.nan, math.inf, -math.inf, 5e-324])


@settings(max_examples=200, deadline=None)
@given(d=hnp.arrays(np.float64, st.integers(0, 12), elements=_ODD_FLOATS | st.floats(allow_nan=True)))
def test_the_fits_count_distinct_distances_as_np_unique_does(d):
    # The fits take np.unique's sorting path (return_counts), which loads no numpy.ma; its default may hash instead.
    assert np.unique(d, return_counts=True)[0].size == np.unique(d).size
    n = np.unique(d).size
    if n < 3:
        with pytest.raises(DegenerateError, match=f"need at least 3 distinct distances, got {n}$"):
            fit_poly2(d, np.ones(d.size))


def test_fit_logbell_self_recovery_on_bins():
    true = LogBell(0.0312, 5.0063, 2.4544)
    centers = bin_centers()[1:]  # bins 1..49
    fit = fit_logbell(centers, [true.raw(float(d)) for d in centers])
    assert fit.sse < 1e-6
    assert fit.spec.s == pytest.approx(true.s, rel=0.01)
    assert fit.spec.mu == pytest.approx(true.mu, rel=0.01)
    assert fit.spec.k == pytest.approx(true.k, rel=0.01)


def test_fit_logbell_degenerate_and_domain():
    with pytest.raises(DegenerateError):
        fit_logbell([10.0, 20.0, 30.0, 40.0], [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(DegenerateError):
        fit_logbell([10.0, 20.0, 30.0], [0.1, 0.2, 0.1])
    with pytest.raises(DomainError):
        fit_logbell([-1.0, 20.0, 30.0, 40.0], [0.1, 0.2, 0.1, 0.2])
    with pytest.raises(DomainError):
        fit_logbell([10.0, 20.0, 30.0, 40.0], [-0.1, 0.2, 0.1, 0.2])


def reference_bell(d, s, mu, k):
    """The log-domain bell over an array, written out here so the references share no code with the search."""
    t = np.log(d) - mu
    return (1.0 / (s * d)) * np.exp(-(t * t) / k)


def reference_logbell_grid(d, y):
    """The bell grid search scored one point at a time, as it was before the array pass."""
    ln_d = np.log(d)
    mus = np.linspace(float(ln_d.min()) - 1.0, float(ln_d.max()) + 2.0, 17)
    ks = np.geomspace(0.2, 20.0, 15)
    best_sse = math.inf
    best = None
    for mu in mus:
        for k in ks:
            g = reference_bell(d, 1.0, mu, k)
            gg = float(g @ g)
            if gg == 0.0:
                continue
            q = float(g @ y) / gg
            if q <= 0.0:
                continue
            resid = q * g - y
            sse = float(resid @ resid)
            if sse < best_sse:
                best_sse = sse
                best = (1.0 / q, float(mu), float(k))
    if best is None:
        raise DegenerateError("no usable grid point for bell fit (values carry no signal)")
    return best_sse, best


def grid_point(d, index):
    """g of grid point ``index`` (row-major over 17 mu by 15 k) at distances ``d``."""
    ln_d = np.log(d)
    mus = np.linspace(float(ln_d.min()) - 1.0, float(ln_d.max()) + 2.0, 17)
    return reference_bell(d, 1.0, mus[index // 15], np.geomspace(0.2, 20.0, 15)[index % 15])


def grid_result(d, y, search):
    try:
        sse, params = search(d, y)
    except DegenerateError:
        return "degenerate"
    return [float.hex(v) for v in (sse, *params)]


_grid_values = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e4),
    st.floats(0.0, 2.0**-1022, allow_subnormal=True),
)


@settings(max_examples=400, deadline=None)
@given(n=st.integers(4, 60), kind=st.sampled_from(["any", "one-nonzero", "one-point", "two-points"]),
       data=st.data())
def test_logbell_grid_matches_the_scalar_loop(n, kind, data):
    # The pool makes repeated distances likely; equal distances make every
    # grid point's g proportional, so many points tie up to rounding.
    pool = data.draw(st.lists(st.floats(1.0, 500.0), min_size=1, max_size=n))
    d = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    if kind == "any":
        y = data.draw(hnp.arrays(float, n, elements=_grid_values))
    elif kind == "one-nonzero":
        y = np.zeros(n)
        y[data.draw(st.integers(0, n - 1))] = data.draw(_grid_values)
    else:
        # One grid point fits y exactly up to rounding, or two grid points
        # fit it equally well in exact arithmetic.
        first = data.draw(st.integers(0, 254))
        g = grid_point(d, first)
        y = data.draw(st.floats(1e-3, 1e3)) * g
        if kind == "two-points":
            h = grid_point(d, data.draw(st.sampled_from([i for i in (first - 15, first - 1, first + 1, first + 15)
                                                         if 0 <= i < 255])))
            y = g / np.sqrt(g @ g) + h / np.sqrt(h @ h)
    assert grid_result(d, y, _logbell_grid) == grid_result(d, y, reference_logbell_grid)


@pytest.mark.parametrize("d, y", [
    ([1.0, 10.0, 1e100, 1e200], [1.0, 0.5, 0.1, 0.1]),
    ([1.0, 2.0, 1e150, 1e300], [0.0, 0.5, 0.2, 0.0]),
    ([1.0, 3.0, 1e250, 2e250, 1e300], [0.3, 0.0, 0.0, 0.2, 0.1]),
], ids=["1e200", "1e300-zero-ends", "1e300"])
def test_logbell_grid_matches_the_scalar_loop_where_some_bells_underflow(d, y):
    # Over so many decades some grid rows are zero, or square to zero, and the
    # array finds no q there; the loop skips those rows and picks from the rest.
    d, y = np.array(d), np.array(y)
    assert grid_result(d, y, _logbell_grid) == grid_result(d, y, reference_logbell_grid) != "degenerate"


def test_logbell_grid_rescores_only_its_near_best_points():
    # One grid point fits this bell far better than the rest, so the scalar
    # formula runs once, not once for each of the 255 points. The array pass
    # is the one call whose mu is the whole grid column.
    true = LogBell(0.0312, 5.0063, 2.4544)
    d = bin_centers()
    y = np.array([true.raw(float(v)) for v in d])
    with mock.patch.object(estimation, "log_bell_values", wraps=log_bell_values) as scored:
        found = _logbell_grid(d, y)
    mus = [call.args[2] for call in scored.call_args_list]
    assert [np.shape(mu) for mu in mus] == [(17, 1, 1), ()]
    assert found == reference_logbell_grid(d, y)


def test_fit_logbell_on_polynomial_data_fits_worse_than_poly2():
    poly = Poly2(3.2e-6, -0.003, 1.0)  # positive on the sampled range
    ds = np.arange(5.0, 500.0, 10.0)
    ys = [poly.raw(d) for d in ds]
    poly_fit = fit_poly2(ds, ys)
    bell_fit = fit_logbell(ds, ys)
    assert bell_fit.sse > poly_fit.sse


def test_fit_offset_minus_logbell_recovery():
    true = OffsetMinusLogBell(0.9132, LogBell(0.0484, 4.7076, 0.748))
    ds = bin_centers()
    fit = fit_offset_minus_logbell(ds, [true.raw(float(d)) for d in ds])
    assert fit.spec.offset == pytest.approx(true.offset, abs=1e-6)
    assert fit.spec.inner.s == pytest.approx(true.inner.s, rel=0.01)
    assert fit.sse < 1e-9


def test_fit_offset_minus_logbell_degenerate_and_domain():
    with pytest.raises(DegenerateError, match="at least 4 points"):
        fit_offset_minus_logbell([10.0, 20.0, 30.0], [0.5, 0.4, 0.3])
    with pytest.raises(DomainError, match="positive distances"):
        fit_offset_minus_logbell([0.0, 20.0, 30.0, 40.0], [0.5, 0.4, 0.3, 0.2])
    # At such distances every bell on the grid underflows to zero.
    with pytest.raises(DegenerateError, match="no usable offset"):
        fit_offset_minus_logbell([k * 1e300 for k in (1.0, 2.0, 3.0, 4.0)], [0.5] * 4)


def test_fit_same_family_piecewise():
    true = Piecewise(90.0, Poly2(-4.8e-5, -5.62e-3, 1.11), Poly2(-2.286e-6, 1.443e-3, 0.1022))
    ds = bin_centers()
    fit = fit_same_family(true, ds, [true.raw(float(d)) for d in ds])
    assert isinstance(fit.spec, Piecewise)
    assert fit.spec.d_t == 90.0
    assert fit.sse < 1e-18
    for d in (5.0, 85.0, 90.0, 95.0, 495.0):
        assert fit.spec.raw(d) == pytest.approx(true.raw(d), abs=1e-9)


def test_fit_same_family_rejects_a_non_curve():
    with pytest.raises(TypeError, match="unknown curve spec"):
        fit_same_family("poly2", [10.0, 20.0, 30.0], [0.5, 0.4, 0.3])


def test_fit_same_family_piecewise_fits_a_point_at_the_threshold_high():
    # Piecewise.raw evaluates d == d_t on the high branch, so the fit puts
    # that point there too; without it the high branch has two points, too
    # few for a quadratic.
    true = Piecewise(90.0, Poly2(-4.8e-5, -5.62e-3, 1.11), Poly2(-2.286e-6, 1.443e-3, 0.1022))
    ds = np.array([60.0, 70.0, 80.0, 90.0, 100.0, 110.0])
    fit = fit_same_family(true, ds, [true.raw(float(d)) for d in ds])
    assert fit.sse < 1e-24
    for d in ds:
        assert fit.spec.low.raw(d) == pytest.approx(true.low.raw(d), abs=1e-12)
        assert fit.spec.high.raw(d) == pytest.approx(true.high.raw(d), abs=1e-12)


_FAMILY_FITS = {
    "poly2": fit_poly2,
    "exp_decay": fit_expdecay,
    "log_bell": fit_logbell,
    "offset_minus_log_bell": fit_offset_minus_logbell,
    "piecewise": lambda d, y: fit_same_family(Piecewise(25.0, Poly2(0.0, 0.0, 0.5), Poly2(0.0, 0.0, 0.5)), d, y),
}


@pytest.mark.parametrize("fit", _FAMILY_FITS.values(), ids=_FAMILY_FITS.keys())
def test_fits_reject_d_and_y_of_other_lengths_or_shapes(fit):
    with pytest.raises(DomainError, match="1-d and equal length"):
        fit([10.0, 20.0, 30.0, 40.0, 50.0], [0.5, 0.4, 0.3, 0.2])
    with pytest.raises(DomainError, match="1-d and equal length"):
        fit(np.array([[10.0, 20.0], [30.0, 40.0]]), np.array([[0.5, 0.4], [0.3, 0.2]]))


@pytest.mark.parametrize("spec", [
    Poly2(2e-6, -1e-3, 0.9),
    ExpDecay(0.8372, 0.0114),
    LogBell(0.0312, 5.0063, 2.4544),
    OffsetMinusLogBell(0.9132, LogBell(0.0484, 4.7076, 0.748)),
    Piecewise(90.0, Poly2(-4.8e-5, -5.62e-3, 1.11), Poly2(-2.286e-6, 1.443e-3, 0.1022)),
], ids=lambda spec: spec.family)
def test_fits_accept_plain_lists(spec):
    ds = bin_centers()
    ys = np.array([spec.raw(float(d)) for d in ds])
    assert fit_same_family(spec, ds.tolist(), ys.tolist()) == fit_same_family(spec, ds, ys)
