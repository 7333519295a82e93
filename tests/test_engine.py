"""The counter-based generation engine against a step-by-step reference.

The reference below is the plain sampler: one ``SplitMix64.next_float`` per
step, the initial state drawn from ``state_probabilities`` by inverse CDF and
every later one from a freshly assembled ``transition_row``; the urban-micro
baseline draws LOS when the uniform falls below P(LOS). The engine must
reproduce it byte for byte.
"""

import math
import warnings
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vlos import (
    BatchError,
    Density,
    DistanceClampWarning,
    DistanceTrace,
    DomainError,
    Environment,
    LosState,
    MobilityProfile,
    SplitMix64,
    UmiParams,
    baseline,
    builtin_model,
    chain,
    derive_subseed,
    state_probabilities,
    synth_distance_trace,
    transition_row,
    umi_los_probability,
)
from v2vlos import markov
from v2vlos.rng import uniform_block

URBAN_MEDIUM = builtin_model(Environment.URBAN, Density.MEDIUM)


def reference_states(model, trace, seed, over_range="error"):
    rng = SplitMix64(seed)
    ds = trace.distances.tolist()
    p = state_probabilities(model, ds[0], over_range=over_range)
    u = rng.next_float()
    s = 0 if u < p.los else (1 if u < p.los + p.nlosv else 2)
    out = [s]
    for d in ds[1:]:
        p0, p1, _ = transition_row(model, LosState(s), d, over_range=over_range)
        u = rng.next_float()
        s = 0 if u < p0 else (1 if u < p0 + p1 else 2)
        out.append(s)
    return np.array(out, dtype=np.int8)


def reference_umi(trace, p, seed):
    rng = SplitMix64(seed)
    blocked = int(LosState.NLOSb)
    return np.array([0 if rng.next_float() < umi_los_probability(d, p) else blocked
                     for d in trace.distances.tolist()], dtype=np.int8)


def walk_trace(n, seed, d0=250.0, v_max=20.0):
    return synth_distance_trace(MobilityProfile("walk", d0=d0, n_steps=n, v_max=v_max), seed)


def assert_batch_matches(model, traces, seed, batch):
    assert len(batch) == len(traces)
    for i, (trace, out) in enumerate(zip(traces, batch)):
        sub = derive_subseed(seed, i)
        assert out.seed == sub
        assert out.states.tobytes() == reference_states(model, trace, sub).tobytes(), f"trace {i}"


def test_all_scenarios_match_reference(scenario):
    traces = [DistanceTrace.from_distances(np.arange(1.0, 501.0)), walk_trace(400, 3), walk_trace(300, 4, d0=20.0)]
    for trace in traces:
        out = chain(scenario).trace(trace, 123)
        assert out.states.tobytes() == reference_states(scenario, trace, 123).tobytes()
    assert_batch_matches(scenario, traces, 77, list(chain(scenario).batch(traces, 77)))


def test_ragged_batch_matches_reference():
    lengths = [1, 2, 7, 500, 3, markov._UNIFORM_BLOCK + 5, 1]
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
    assert out.seed == seed
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
        assert out.scenario == "umi"


def test_memo_cap_does_not_change_output(monkeypatch):
    monkeypatch.setattr(markov, "_ROW_CACHE_MAX", 4)
    traces = [walk_trace(200, i) for i in range(3)] + [DistanceTrace.from_distances(np.arange(1.0, 201.0))]
    assert_batch_matches(URBAN_MEDIUM, traces, 8, list(chain(URBAN_MEDIUM).batch(traces, 8)))


def test_batch_error_lists_exactly_the_failing_indices():
    good = walk_trace(50, 1)
    late = DistanceTrace.from_distances([490.0, 499.0, 505.0])  # fails on its last step
    first = DistanceTrace.from_distances([600.0, 100.0])  # fails on its initial draw
    traces = [good, late, good, first, good]
    with pytest.raises(BatchError) as err:
        list(chain(URBAN_MEDIUM).batch(traces, 3))
    assert [i for i, _ in err.value.failures] == [1, 3]
    assert all(isinstance(e, DomainError) for _, e in err.value.failures)


def test_batch_yields_the_good_traces_before_its_error():
    good = walk_trace(50, 1)
    bad = DistanceTrace.from_distances([600.0, 100.0])
    batch = chain(URBAN_MEDIUM).batch([bad, good, bad, good], seed=3)
    done = [next(batch), next(batch)]
    assert [out.seed for out in done] == [derive_subseed(3, 1), derive_subseed(3, 3)]
    with pytest.raises(BatchError) as err:
        next(batch)
    assert [i for i, _ in err.value.failures] == [0, 2]


def test_batch_is_lazy():
    # An endless input is read a bounded run at a time and generated in index order.
    batch = chain(URBAN_MEDIUM).batch(repeat(walk_trace(20, 2)), seed=6)
    first = [next(batch) for _ in range(3)]
    assert [out.seed for out in first] == [derive_subseed(6, i) for i in range(3)]
    umi = baseline().batch(repeat(walk_trace(20, 2)), seed=6)
    assert next(umi).seed == derive_subseed(6, 0)


def reference_batch(sampler, traces, seed):
    """``Sampler.batch`` as a plain loop of ``Sampler.trace``: the outputs, and the failures as (index, message)."""
    outs, failures = [], []
    for i, trace in enumerate(traces):
        try:
            outs.append(sampler.trace(trace, derive_subseed(seed, i)))
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
    order=st.lists(st.integers(0, 2), max_size=14),
    seed=st.integers(0, 2**64 - 1),
    width=st.integers(1, 5),
    cap=st.integers(1, 5),
    block=st.integers(1, 40),
    lazy=st.booleans(),
)
def test_shared_runs_match_per_trace_sampling(sampler, grids, order, seed, width, cap, block, lazy):
    # Traces that reuse one DistanceTrace share its distance array; the order
    # interleaves the grids (A A B A A), whose lengths differ.
    shared = [DistanceTrace.from_distances(ds) for ds in grids]
    traces = [shared[j % len(shared)] for j in order]
    read = []

    def once():
        for trace in traces:
            read.append(trace)
            yield trace

    longest = max(len(trace) for trace in shared)
    with warnings.catch_warnings(), mock.patch.object(markov, "_SHARED_MIN", width), \
            mock.patch.object(markov, "_SHARED_STEPS", cap * longest), mock.patch.object(markov, "_SHARED_BLOCK", block):
        warnings.simplefilter("ignore", DistanceClampWarning)
        # The reference gets a sampler of its own, so the two share no memo.
        expected, expected_failures = reference_batch(markov.Sampler(sampler.thresholds, sampler.tag), traces, seed)
        got, failures = [], []
        try:
            got.extend(sampler.batch(once() if lazy else traces, seed))
        except BatchError as exc:
            failures = [(i, str(e)) for i, e in exc.failures]
    assert failures == expected_failures
    assert len(got) == len(expected)
    for out, ref in zip(got, expected):
        assert (out.seed, out.scenario) == (ref.seed, ref.scenario)
        assert out.times is ref.times and out.distances is ref.distances
        assert out.states.tobytes() == ref.states.tobytes()
        assert not out.states.flags.writeable
    if lazy:
        assert read == traces  # every trace read exactly once


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_steps=st.integers(1, 6), n_traces=st.integers(1, 6), seed=st.integers(0, 2**64 - 1))
def test_shared_runs_pick_like_the_scalar_loop_at_any_threshold(data, n_steps, n_traces, seed):
    # Thresholds on and next to the run's own draws, outside [0, 1], NaN, and c1 below c0.
    draws = np.concatenate([uniform_block(derive_subseed(seed, i), 0, n_steps) for i in range(n_traces)]).tolist()
    near = sorted({c for u in draws for c in (u, math.nextafter(u, 0.0), math.nextafter(u, 1.0))})
    value = st.sampled_from(near) | st.floats(allow_nan=True, allow_infinity=True)
    table = {(origin, k + 1.0): (data.draw(value), data.draw(value)) for origin in (-1, 0, 1, 2) for k in range(n_steps)}
    trace = DistanceTrace.from_distances([k + 1.0 for k in range(n_steps)])
    with mock.patch.object(markov, "_SHARED_MIN", 1):
        got = list(markov.Sampler(lambda origin, d: table[(origin, d)], "t").batch([trace] * n_traces, seed))
    reference = markov.Sampler(lambda origin, d: table[(origin, d)], "t")
    for i, out in enumerate(got):
        assert out.states.tobytes() == reference.trace(trace, derive_subseed(seed, i)).states.tobytes()


def test_only_runs_of_the_shared_width_are_sampled_across_traces(monkeypatch):
    widths = []
    shared_states = markov._shared_states
    monkeypatch.setattr(markov, "_shared_states", lambda table, seeds: widths.append(seeds.size) or
                        shared_states(table, seeds))
    trace = DistanceTrace.from_distances(np.arange(1.0, 51.0))
    other = DistanceTrace.from_distances(np.arange(1.0, 51.0))  # equal values in another array
    n = markov._SHARED_MIN
    traces = [trace] * (n - 1) + [other] + [trace] * n
    assert_batch_matches(URBAN_MEDIUM, traces, 1, list(chain(URBAN_MEDIUM).batch(traces, 1)))
    assert widths == [n]


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
