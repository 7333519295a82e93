"""The counter-based generation engine against a step-by-step reference.

The reference below is the plain sampler: one ``SplitMix64.next_float`` per
step, the initial state drawn from a freshly compiled state vector by inverse
CDF and every later one from a freshly compiled transition row; the urban-micro
baseline draws LOS when the uniform falls below P(LOS). :func:`scalar_states`
is the same loop over any sampler's scalar ``thresholds``. The engine, which
samples from the array ``table`` and leaves the draws near a threshold to
``thresholds``, must reproduce them byte for byte.
"""

import dataclasses
import math
import pickle
import warnings
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vlos import (
    BatchError,
    ConvergenceError,
    DegenerateError,
    Density,
    DistanceClampWarning,
    DistanceTrace,
    DomainError,
    Environment,
    ExpDecay,
    LogBell,
    LosState,
    MobilityProfile,
    OffsetMinusLogBell,
    ParseError,
    Poly2,
    SplitMix64,
    StateProbModel,
    UmiParams,
    V2vLosError,
    baseline,
    builtin_model,
    chain,
    derive_subseed,
    effective_distance,
    synth_distance_trace,
    umi_los_probability,
)
from v2vlos import errors, markov
from v2vlos.assembly import compile_vector
from v2vlos.params import scenario_from_dict, scenario_to_dict
from v2vlos.rng import uniforms


def uniform_block(seed, start, n):
    """Draws ``start .. start + n - 1`` of ``SplitMix64(seed).next_float()``, from ``uniforms``."""
    return uniforms(np.uint64(seed % 2**64), start, n)

URBAN_MEDIUM = builtin_model(Environment.URBAN, Density.MEDIUM)


def reference_states(model, trace, seed, over_range="error"):
    rng = SplitMix64(seed)
    ds = trace.distances.tolist()
    p0, p1, _ = compile_vector(model.state_probs)(effective_distance(ds[0], over_range))
    u = rng.next_float()
    s = 0 if u < p0 else (1 if u < p0 + p1 else 2)
    out = [s]
    for d in ds[1:]:
        p0, p1, _ = compile_vector(model.rows[s])(effective_distance(d, over_range))
        u = rng.next_float()
        s = 0 if u < p0 else (1 if u < p0 + p1 else 2)
        out.append(s)
    return np.array(out, dtype=np.int8)


def reference_umi(trace, p, seed):
    rng = SplitMix64(seed)
    blocked = int(LosState.NLOSb)
    return np.array([0 if rng.next_float() < umi_los_probability(d, p) else blocked
                     for d in trace.distances.tolist()], dtype=np.int8)


def scalar_states(sampler, trace, seed):
    """One state per step from ``sampler.thresholds`` alone, one ``next_float`` each."""
    rng, s, out = SplitMix64(seed), -1, []
    for d in trace.distances.tolist():
        c0, c1 = sampler.thresholds(s, d)
        u = rng.next_float()
        s = 0 if u < c0 else 1 if u < c1 else 2
        out.append(s)
    return np.array(out, dtype=np.int8)


def walk_trace(n, seed, d0=250.0, v_max=20.0):
    return synth_distance_trace(MobilityProfile("walk", d0=d0, n_steps=n, v_max=v_max), seed)


def assert_batch_matches(model, traces, seed, batch):
    assert len(batch) == len(traces)
    for i, (trace, out) in enumerate(zip(traces, batch)):
        assert out.states.tobytes() == reference_states(model, trace, derive_subseed(seed, i)).tobytes(), f"trace {i}"


def test_all_scenarios_match_reference(scenario):
    traces = [DistanceTrace.from_distances(np.arange(1.0, 501.0)), walk_trace(400, 3), walk_trace(300, 4, d0=20.0)]
    for trace in traces:
        out = chain(scenario).trace(trace, 123)
        assert out.states.tobytes() == reference_states(scenario, trace, 123).tobytes()
    assert_batch_matches(scenario, traces, 77, list(chain(scenario).batch(traces, 77)))


def test_ragged_batch_matches_reference():
    lengths = [1, 2, 7, 500, 3, markov._BLOCK + 5, 1]
    traces = [walk_trace(n, i) for i, n in enumerate(lengths)]
    assert_batch_matches(URBAN_MEDIUM, traces, 2024, list(chain(URBAN_MEDIUM).batch(traces, 2024)))
    assert_batch_matches(URBAN_MEDIUM, traces, 5, list(chain(URBAN_MEDIUM).batch(iter(traces), 5)))


def test_long_trace_crosses_uniform_blocks():
    trace = DistanceTrace.from_distances(np.tile(np.arange(1.0, 501.0), 200))  # 10^5 steps
    out = chain(URBAN_MEDIUM).trace(trace, 31)
    assert out.states.tobytes() == reference_states(URBAN_MEDIUM, trace, 31).tobytes()


def test_continuous_walk_distances_match_reference():
    traces = [walk_trace(500, 100 + i) for i in range(6)]
    assert_batch_matches(URBAN_MEDIUM, traces, 9, list(chain(URBAN_MEDIUM).batch(traces, 9)))


def test_clamped_distances_match_reference():
    trace = DistanceTrace.from_distances([0.2, 0.5, 0.99, 1.0, 250.0, 499.9, 500.0, 500.5, 750.0, 0.3, 620.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DistanceClampWarning)
        for seed in range(20):
            out = chain(URBAN_MEDIUM, over_range="clamp").trace(trace, seed)
            ref = reference_states(URBAN_MEDIUM, trace, seed, over_range="clamp")
            assert out.states.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [-1, -(2**63), -12345, 2**64, 2**64 + 7, 2**70 + 3])
def test_out_of_range_seeds_are_masked_like_splitmix(seed):
    trace = walk_trace(300, 1)
    out = chain(URBAN_MEDIUM).trace(trace, seed)
    assert out.states.tobytes() == reference_states(URBAN_MEDIUM, trace, seed).tobytes()
    assert out.states.tobytes() == chain(URBAN_MEDIUM).trace(trace, seed % 2**64).states.tobytes()


def test_umi_matches_reference():
    p = UmiParams(d1=15.0, d2=40.0)
    traces = [walk_trace(500, 7, d0=30.0), DistanceTrace.from_distances(np.arange(1.0, 501.0)), walk_trace(1, 8)]
    for trace in traces:
        assert baseline(p).trace(trace, -4).states.tobytes() == reference_umi(trace, p, -4).tobytes()
    batch = list(baseline(p).batch(traces, 11))
    assert len(batch) == len(traces)
    for i, (trace, out) in enumerate(zip(traces, batch)):
        assert out.states.tobytes() == reference_umi(trace, p, derive_subseed(11, i)).tobytes()


def test_batch_error_lists_exactly_the_failing_indices():
    good = walk_trace(50, 1)
    late = DistanceTrace.from_distances([490.0, 499.0, 505.0])  # fails on its last step
    first = DistanceTrace.from_distances([600.0, 100.0])  # fails on its initial draw
    traces = [good, late, good, first, good]
    with pytest.raises(BatchError) as err:
        list(chain(URBAN_MEDIUM).batch(traces, 3))
    assert [i for i, _ in err.value.failures] == [1, 3]
    assert all(isinstance(e, DomainError) for _, e in err.value.failures)


def test_every_error_survives_pickling():
    failures = [(i, DomainError(f"trace {i} outside [0, 500.0]")) for i in range(12)]
    errors_ = [V2vLosError("base"), DomainError("domain"), ConvergenceError("stuck"), DegenerateError("thin"),
               ParseError("bad number", line=7), ParseError("no line"), BatchError(failures),
               BatchError([(3, ParseError("bad state", line=2))])]
    assert {type(e) for e in errors_} == {c for c in vars(errors).values()
                                          if isinstance(c, type) and issubclass(c, V2vLosError)}
    for error in errors_:
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error) and copy.args == error.args and str(copy) == str(error)
        if isinstance(error, ParseError):
            assert copy.line == error.line
        if isinstance(error, BatchError):
            assert [(i, type(e), e.args) for i, e in copy.failures] == [(i, type(e), e.args) for i, e in error.failures]
    assert pickle.loads(pickle.dumps(errors_[-1])).failures[0][1].line == 2


def test_clamped_distances_in_a_batch_match_reference():
    # Below-floor steps at the start, in the middle and at the end of traces on
    # distinct grids, and one trace longer than a block, beside in-range ones.
    low = [0.2, 0.5, 0.99, 1.0, 250.0, 0.3, 120.0, 0.999]
    traces = [DistanceTrace.from_distances(low), walk_trace(40, 1), DistanceTrace.from_distances(low[::-1]),
              DistanceTrace.from_distances(np.tile(low, 5)), walk_trace(7, 2)]
    with mock.patch.object(markov, "_BLOCK", 12), pytest.warns(DistanceClampWarning):
        batch = list(chain(URBAN_MEDIUM).batch(traces, 21))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DistanceClampWarning)
        assert_batch_matches(URBAN_MEDIUM, traces, 21, batch)


@pytest.mark.parametrize("policy", ["error", "clamp"])
def test_clamp_warnings_come_at_the_steps_each_trace_reaches(policy):
    # Under "error" the traces on ``grid`` stop at 600 m and never reach the
    # clamped 0.5 m and 0.7 m after it; under "clamp" each trace warns at both.
    grid = DistanceTrace.from_distances([2.0, 600.0, 0.5, 300.0, 0.7])
    sampler = chain(URBAN_MEDIUM, over_range=policy)
    for traces in ([grid], [grid] * 30, [grid, walk_trace(40, 1)] * 10):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                list(sampler.batch(traces, 8))
                failed = []
            except BatchError as exc:
                failed = [i for i, _ in exc.failures]
        refused = policy == "error"
        assert failed == ([i for i, t in enumerate(traces) if t is grid] if refused else [])
        expected = 0 if refused else 2 * traces.count(grid)
        assert sum(issubclass(w.category, DistanceClampWarning) for w in caught) == expected


@pytest.mark.parametrize("block", [3, markov._BLOCK])
def test_over_range_distances_in_a_batch_follow_the_policy(block):
    good = walk_trace(50, 1)
    late = DistanceTrace.from_distances([490.0, 499.0, 500.0, 505.0, 400.0])  # fails on its fourth step
    first = DistanceTrace.from_distances([600.0, 100.0])  # fails on its initial draw
    traces = [good, late, good, first, late, good]
    with mock.patch.object(markov, "_BLOCK", block):
        with pytest.raises(BatchError) as err:
            list(chain(URBAN_MEDIUM).batch(traces, 3))
        clamped = list(chain(URBAN_MEDIUM, over_range="clamp").batch(traces, 3))
    assert [(i, str(e)) for i, e in err.value.failures] == [
        (1, "distance 505.0 m above model ceiling 500.0 m (policy 'error')"),
        (3, "distance 600.0 m above model ceiling 500.0 m (policy 'error')"),
        (4, "distance 505.0 m above model ceiling 500.0 m (policy 'error')"),
    ]
    for i, (trace, out) in enumerate(zip(traces, clamped)):
        assert out.states.tobytes() == reference_states(URBAN_MEDIUM, trace, derive_subseed(3, i), "clamp").tobytes()


@pytest.mark.parametrize("units", [2**8, markov._GUARD - 2, markov._GUARD + 2])
def test_only_a_draw_inside_the_guard_band_goes_to_the_scalar_thresholds(units):
    # The scalar thresholds sit on each step's own draw, so it picks NLOSb (u < u
    # is false); the table sits ``units`` * 2**-53 above and alone would pick LOS.
    inside = units <= markov._GUARD
    draws = uniform_block(5, 0, 4).tolist()
    calls = []

    def thresholds(origin, d):
        calls.append(d)
        return draws[int(d)], draws[int(d)]

    def table(origin, d):
        c = np.array([draws[int(x)] for x in d.tolist()]) + units * 2.0**-53
        return np.stack((c, c))

    sampler = markov.Sampler(thresholds, table)
    trace = DistanceTrace.from_distances([1e-3, 1.0, 2.0, 3.0])  # d = step index, so each step reads its own draw
    with mock.patch.object(markov, "_TABLE_FROM", 1):  # a lone trace is walked from the table too
        assert sampler.trace(trace, 5).states.tolist() == ([2, 2, 2, 2] if inside else [0, 0, 0, 0])
        assert calls == ([1e-3, 1.0, 2.0, 3.0] if inside else [])
        with mock.patch.object(markov, "_GUARD", -1):  # no band: the table's picks stand
            assert sampler.trace(trace, 5).states.tolist() == [0, 0, 0, 0]
    calls.clear()
    assert sampler.trace(trace, 5).states.tolist() == [2, 2, 2, 2]  # the scalar thresholds walk a lone trace
    assert calls == [1e-3, 1.0, 2.0, 3.0]


def test_curves_that_overflow_inside_the_range_sample_like_the_scalar_reference():
    # Both curves are finite at 1 m and 500 m but -inf at 250 m; the table
    # evaluates them without a RuntimeWarning and clamps them as the scalar does.
    bell = OffsetMinusLogBell(-1.7975e308, LogBell(1e-308, math.log(250.0), 0.01))
    los_row = StateProbModel({LosState.LOS: Poly2(1e305, -5e307, 0.0), LosState.NLOSb: bell}, LosState.NLOSv)
    model = dataclasses.replace(URBAN_MEDIUM, rows=(los_row, *URBAN_MEDIUM.rows[1:]),
                                state_probs=StateProbModel({LosState.LOS: Poly2(0.0, 0.0, 1.0),
                                                            LosState.NLOSb: bell}, LosState.NLOSv))
    model = scenario_from_dict(scenario_to_dict(model))  # loadable
    assert los_row.explicit[LosState.LOS].raw(250.0) == -math.inf and bell.raw(250.0) == -math.inf
    grid = DistanceTrace.from_distances([250.0, 249.0, 250.0, 251.0, 250.0, 1.0, 500.0, 250.0] * 8)
    traces = [grid, walk_trace(300, 4, d0=250.0, v_max=2.0), grid]
    assert_batch_matches(model, traces, 17, list(chain(model).batch(traces, 17)))


def test_a_repair_decided_by_a_near_tie_samples_like_the_scalar_reference():
    # LOS and NLOSb are equal at ``d0`` in the scalar evaluation and sum to more
    # than one, so the repair keeps LOS (the earlier state on a tie). Where
    # numpy's exp lands one ulp below math.exp, the array form alone would keep
    # NLOSb and move c0 from 0.7 to 0.3; the table leaves such steps to the scalar.
    b = 0.01
    candidates = np.linspace(100.0, 400.0, 3001)
    a = 0.7 * np.exp(b * candidates)
    scalar = np.array([x * math.exp(-b * d) for x, d in zip(a.tolist(), candidates.tolist())])
    below = np.flatnonzero(a * np.exp(-b * candidates) < scalar)
    k = int(below[0]) if below.size else 0
    d0, curve = float(candidates[k]), ExpDecay(float(a[k]), b)
    block = StateProbModel({LosState.LOS: curve, LosState.NLOSb: Poly2(0.0, 0.0, curve.raw(d0))}, LosState.NLOSv)
    assert compile_vector(block)(d0)[0] == curve.raw(d0)
    model = scenario_from_dict(scenario_to_dict(dataclasses.replace(URBAN_MEDIUM, state_probs=block)))
    assert np.isnan(chain(model).table(-1, np.full(3, d0))).all()
    traces = [DistanceTrace.from_distances([d0] * 5)] * 40
    assert_batch_matches(model, traces, 23, list(chain(model).batch(traces, 23)))


def test_batch_yields_the_good_traces_before_its_error():
    good = walk_trace(50, 1)
    bad = DistanceTrace.from_distances([600.0, 100.0])
    batch = chain(URBAN_MEDIUM).batch([bad, good, bad, good], seed=3)
    done = [next(batch), next(batch)]
    assert all(out.grid is good for out in done)
    expected = [chain(URBAN_MEDIUM).trace(good, derive_subseed(3, i)) for i in (1, 3)]  # traces keep their index
    assert [out.states.tobytes() for out in done] == [out.states.tobytes() for out in expected]
    with pytest.raises(BatchError) as err:
        next(batch)
    assert [i for i, _ in err.value.failures] == [0, 2]


def test_batch_is_lazy():
    # An endless input is read a bounded run at a time and generated in index order.
    grid = walk_trace(20, 2)
    batch = chain(URBAN_MEDIUM).batch(repeat(grid), seed=6)
    first = [next(batch) for _ in range(3)]
    expected = [chain(URBAN_MEDIUM).trace(grid, derive_subseed(6, i)) for i in range(3)]
    assert [out.states.tobytes() for out in first] == [out.states.tobytes() for out in expected]
    umi = baseline().batch(repeat(grid), seed=6)
    assert next(umi).states.tobytes() == baseline().trace(grid, derive_subseed(6, 0)).states.tobytes()


@pytest.mark.parametrize("shared, block, width", [(False, 100, 4), (True, 100, 28), (False, 3, 3)],
                         ids=["distinct-grids", "one-grid", "trace-limit"])
def test_a_stream_of_like_traces_is_read_no_further_than_its_chunk(shared, block, width):
    # A chunk holds 4 traces of 20 steps on distinct grids (chunk_width), 28
    # on one grid, and never more than _BLOCK; it is walked before the next
    # trace is read.
    grid = walk_trace(20, 2)
    read = []

    def stream():
        for i in range(200):
            read.append(i)
            yield grid if shared else walk_trace(20, i)

    with mock.patch.object(markov, "_CHUNK", 4 * 9 * 20), mock.patch.object(markov, "_BLOCK", block):
        assert markov.chunk_width(20) == min(4, block)
        next(chain(URBAN_MEDIUM).batch(stream(), seed=6))
    assert len(read) == width


def reference_batch(sampler, traces, seed):
    """``Sampler.batch`` as a loop of :func:`scalar_states`: (index, states) and (index, message) of the failures."""
    outs, failures = [], []
    for i, trace in enumerate(traces):
        try:
            outs.append((i, scalar_states(sampler, trace, derive_subseed(seed, i))))
        except DomainError as exc:
            failures.append((i, str(exc)))
    return outs, failures


# Below the 1 m floor, inside [1, 500] m (whole metres too) and above 500 m.
_distances = st.one_of(st.floats(0.01, 0.999), st.floats(1.0, 500.0), st.integers(1, 500).map(float),
                       st.floats(500.001, 800.0))
_grids = st.lists(st.lists(_distances, min_size=1, max_size=30), min_size=1, max_size=3)
_samplers = st.one_of(
    st.builds(lambda scenario, policy: chain(builtin_model(*scenario), policy),
              st.sampled_from([(e, d) for e in Environment for d in Density]), st.sampled_from(["error", "clamp"])),
    st.builds(lambda d1, d2: baseline(UmiParams(d1, d2)), st.floats(1.0, 50.0), st.floats(1.0, 80.0)),
)


@settings(max_examples=300, deadline=None)
@given(
    sampler=_samplers,
    grids=_grids,
    copies=st.booleans(),
    order=st.lists(st.integers(0, 5), max_size=14),
    seed=st.integers(0, 2**64 - 1),
    cap=st.integers(1, 5),
    block=st.integers(1, 40),
    table_from=st.sampled_from([1, markov._TABLE_FROM, 4, 100]),
    lazy=st.booleans(),
)
def test_shared_runs_match_per_trace_sampling(sampler, grids, copies, order, seed, cap, block, table_from, lazy):
    # Traces that reuse one DistanceTrace share its distance array; the order
    # interleaves the grids (A A B A C), whose lengths differ, and ``copies``
    # adds a distinct grid of equal distances beside each. A small ``_BLOCK``
    # makes blocks of a few steps, so most traces span several, and chunks of
    # a few traces; ``_CHUNK`` cuts chunks by their bytes (about ``cap``
    # traces on distinct grids, more on shared ones). Blocks with
    # fewer live traces than ``_TABLE_FROM`` are walked by the scalar thresholds.
    shared = [DistanceTrace.from_distances(ds) for ds in grids]
    shared += [DistanceTrace.from_distances(ds) for ds in grids] if copies else []
    traces = [shared[j % len(shared)] for j in order]
    read = []

    def once():
        for trace in traces:
            read.append(trace)
            yield trace

    longest = max(len(trace) for trace in shared)
    with warnings.catch_warnings(), mock.patch.object(markov, "_CHUNK", cap * 9 * longest), \
            mock.patch.object(markov, "_BLOCK", block), mock.patch.object(markov, "_TABLE_FROM", table_from):
        warnings.simplefilter("ignore", DistanceClampWarning)
        expected, expected_failures = reference_batch(sampler, traces, seed)
        got, failures = [], []
        try:
            got.extend(sampler.batch(once() if lazy else traces, seed))
        except BatchError as exc:
            failures = [(i, str(e)) for i, e in exc.failures]
    assert failures == expected_failures
    assert len(got) == len(expected)
    for out, (i, ref) in zip(got, expected):
        assert out.grid is traces[i]
        assert out.states.tobytes() == ref.tobytes()
        assert not out.states.flags.writeable
    if lazy:
        assert read == traces  # every trace read exactly once


def lookup_sampler(table):
    """A sampler whose scalar thresholds and array table both read ``table[(origin, d)]``."""
    def array(origin, d):
        return np.array([table[(origin, x)] for x in d.tolist()], dtype=float).reshape(-1, 2).T
    return markov.Sampler(lambda origin, d: table[(origin, d)], array)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_steps=st.integers(1, 6), n_traces=st.integers(1, 6), seed=st.integers(0, 2**64 - 1),
       guard=st.sampled_from([-1, 0, markov._GUARD]), table_from=st.sampled_from([1, markov._TABLE_FROM]))
def test_shared_runs_pick_like_the_scalar_loop_at_any_threshold(data, n_steps, n_traces, seed, guard, table_from):
    # Thresholds on and next to the run's own draws, outside [0, 1], NaN, and
    # c1 below c0; with no guard band (-1) the table alone picks all but NaN
    # (a lone trace too when ``_TABLE_FROM`` is 1).
    draws = np.concatenate([uniform_block(derive_subseed(seed, i), 0, n_steps) for i in range(n_traces)]).tolist()
    near = sorted({c for u in draws for c in (u, math.nextafter(u, 0.0), math.nextafter(u, 1.0))})
    value = st.sampled_from(near) | st.floats(allow_nan=True, allow_infinity=True)
    table = {(origin, k + 1.0): (data.draw(value), data.draw(value)) for origin in (-1, 0, 1, 2) for k in range(n_steps)}
    trace = DistanceTrace.from_distances([k + 1.0 for k in range(n_steps)])
    sampler = lookup_sampler(table)
    with mock.patch.object(markov, "_GUARD", guard), mock.patch.object(markov, "_TABLE_FROM", table_from):
        got = list(sampler.batch([trace] * n_traces, seed))
    for i, out in enumerate(got):
        assert out.states.tobytes() == scalar_states(sampler, trace, derive_subseed(seed, i)).tobytes()


def test_a_shared_grid_is_tabled_once_per_block():
    sampler = chain(URBAN_MEDIUM)
    sizes = []
    table = sampler.table
    sampler.table = lambda origin, d: sizes.append((origin, d.size)) or table(origin, d)
    trace = DistanceTrace.from_distances(np.arange(1.0, 51.0))
    other = DistanceTrace.from_distances(np.arange(1.0, 51.0))  # equal values in another array
    traces = [trace] * 11 + [other] + [trace] * 12
    assert_batch_matches(URBAN_MEDIUM, traces, 1, list(sampler.batch(traces, 1)))
    # One block of 50 steps: the two grids' distances once per origin, and step 0's for the initial draw.
    assert sizes == [(0, 100), (1, 100), (2, 100), (-1, 2)]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 2**12, 2**64 - 1), st.integers(-2**70, 2**70)),
    start=st.integers(0, 300),
    n=st.integers(0, 300),
)
def test_uniform_block_equals_splitmix_stream(seed, start, n):
    rng = SplitMix64(seed)
    for _ in range(start):
        rng.next_float()
    expected = [rng.next_float() for _ in range(n)]
    got = uniform_block(seed, start, n)
    assert got.dtype == np.float64
    assert got.tolist() == expected


def test_derive_subseed_rejects_a_negative_index():
    with pytest.raises(ValueError, match="non-negative"):
        derive_subseed(7, -1)
