"""The counter-based generation engine against a step-by-step reference.

The reference below is the plain sampler: one ``SplitMix64.next_float`` per
step, the initial state drawn from ``state_probabilities`` and every later one
from a freshly assembled ``transition_row``; the urban-micro baseline draws
LOS when the uniform falls below P(LOS). The engine must reproduce it
byte for byte.
"""

import warnings

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
    builtin_model,
    derive_subseed,
    generate_batch,
    generate_batch_umi,
    generate_states,
    generate_states_umi,
    iter_generate_batch,
    iter_generate_batch_umi,
    sample_initial_state,
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
    s = int(sample_initial_state(state_probabilities(model, ds[0], over_range=over_range), rng))
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
        out = generate_states(scenario, trace, seed=123)
        assert out.states.tobytes() == reference_states(scenario, trace, 123).tobytes()
    assert_batch_matches(scenario, traces, 77, generate_batch(scenario, traces, seed=77))


def test_ragged_batch_matches_reference():
    lengths = [1, 2, 7, 500, 3, markov._UNIFORM_BLOCK + 5, 1]
    traces = [walk_trace(n, i) for i, n in enumerate(lengths)]
    assert_batch_matches(URBAN_MEDIUM, traces, 2024, generate_batch(URBAN_MEDIUM, traces, seed=2024))
    assert_batch_matches(URBAN_MEDIUM, traces, 5, list(iter_generate_batch(URBAN_MEDIUM, traces, seed=5)))


def test_long_trace_crosses_uniform_blocks():
    trace = DistanceTrace.from_distances(np.tile(np.arange(1.0, 501.0), 200))  # 10^5 steps
    out = generate_states(URBAN_MEDIUM, trace, seed=31)
    assert out.states.tobytes() == reference_states(URBAN_MEDIUM, trace, 31).tobytes()


def test_continuous_walk_distances_match_reference():
    traces = [walk_trace(500, 100 + i) for i in range(6)]
    assert_batch_matches(URBAN_MEDIUM, traces, 9, generate_batch(URBAN_MEDIUM, traces, seed=9))


def test_clamped_distances_match_reference():
    trace = DistanceTrace.from_distances([0.2, 0.5, 0.99, 1.0, 250.0, 499.9, 500.0, 500.5, 750.0, 0.3, 620.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DistanceClampWarning)
        for seed in range(20):
            out = generate_states(URBAN_MEDIUM, trace, seed, over_range="clamp")
            ref = reference_states(URBAN_MEDIUM, trace, seed, over_range="clamp")
            assert out.states.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [-1, -(2**63), -12345, 2**64, 2**64 + 7, 2**70 + 3])
def test_out_of_range_seeds_are_masked_like_splitmix(seed):
    trace = walk_trace(300, 1)
    out = generate_states(URBAN_MEDIUM, trace, seed)
    assert out.seed == seed
    assert out.states.tobytes() == reference_states(URBAN_MEDIUM, trace, seed).tobytes()
    assert out.states.tobytes() == generate_states(URBAN_MEDIUM, trace, seed % 2**64).states.tobytes()


def test_umi_matches_reference():
    p = UmiParams(d1=15.0, d2=40.0)
    traces = [walk_trace(500, 7, d0=30.0), DistanceTrace.from_distances(np.arange(1.0, 501.0)), walk_trace(1, 8)]
    for trace in traces:
        assert generate_states_umi(trace, p, seed=-4).states.tobytes() == reference_umi(trace, p, -4).tobytes()
    for batch in (generate_batch_umi(traces, p, seed=11), list(iter_generate_batch_umi(traces, p, seed=11))):
        for i, (trace, out) in enumerate(zip(traces, batch)):
            assert out.states.tobytes() == reference_umi(trace, p, derive_subseed(11, i)).tobytes()
            assert out.scenario == "umi"


def test_memo_cap_does_not_change_output(monkeypatch):
    monkeypatch.setattr(markov, "_ROW_CACHE_MAX", 4)
    traces = [walk_trace(200, i) for i in range(3)] + [DistanceTrace.from_distances(np.arange(1.0, 201.0))]
    assert_batch_matches(URBAN_MEDIUM, traces, 8, generate_batch(URBAN_MEDIUM, traces, seed=8))


def test_batch_error_lists_exactly_the_failing_indices():
    good = walk_trace(50, 1)
    late = DistanceTrace.from_distances([490.0, 499.0, 505.0])  # fails on its last step
    first = DistanceTrace.from_distances([600.0, 100.0])  # fails on its initial draw
    traces = [good, late, good, first, good]
    with pytest.raises(BatchError) as err:
        generate_batch(URBAN_MEDIUM, traces, seed=3)
    assert [i for i, _ in err.value.failures] == [1, 3]
    assert all(isinstance(e, DomainError) for _, e in err.value.failures)


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
