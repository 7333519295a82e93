"""Chain generation: sampling, determinism, Markov structure, batches."""

import random

import numpy as np
import pytest

import v2vlos.assembly
from v2vlos import (
    BatchError,
    Density,
    DistanceTrace,
    DomainError,
    Environment,
    LosState,
    Poly2,
    SplitMix64,
    StateProbVector,
    StateTrace,
    builtin_model,
    derive_subseed,
    generate_batch,
    generate_states,
    sample_initial_state,
    stationary_distribution,
    transition_matrix,
)
from v2vlos.params import ScenarioModel, StateProbModel, TransitionRowModel

URBAN_MEDIUM = builtin_model(Environment.URBAN, Density.MEDIUM)


def constant_trace(d, n, t0=0):
    return DistanceTrace(np.arange(t0, t0 + n, dtype=np.int64), np.full(n, float(d)))


def test_distance_trace_validation():
    with pytest.raises(DomainError):
        DistanceTrace(np.array([0, 2], dtype=np.int64), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        DistanceTrace(np.array([], dtype=np.int64), np.array([]))
    with pytest.raises(DomainError):
        DistanceTrace.from_distances([1.0, -2.0])
    with pytest.raises(DomainError):
        DistanceTrace.from_distances([1.0, np.nan])
    tr = DistanceTrace.from_distances([1.0, 2.0, 3.0])
    assert len(tr) == 3
    assert tr.times.tolist() == [0, 1, 2]


def test_state_trace_validation():
    with pytest.raises(DomainError):
        StateTrace(np.arange(3), np.ones(3), np.array([0, 1], dtype=np.int8))
    with pytest.raises(DomainError):
        StateTrace(np.arange(2), np.ones(2), np.array([0, 7], dtype=np.int8))


def test_sample_initial_state_degenerate():
    rng = SplitMix64(123)
    sure_los = StateProbVector(1.0, 0.0, 0.0)
    assert all(sample_initial_state(sure_los, rng) is LosState.LOS for _ in range(50))
    sure_nlosb = StateProbVector(0.0, 0.0, 1.0)
    assert all(sample_initial_state(sure_nlosb, rng) is LosState.NLOSb for _ in range(50))


def test_sample_initial_state_frequencies():
    # Law of large numbers: one million draws land within 0.005 per state.
    probs = StateProbVector(0.5, 0.3, 0.2)
    rng = SplitMix64(2024)
    n = 10**6
    counts = [0, 0, 0]
    for _ in range(n):
        counts[int(sample_initial_state(probs, rng))] += 1
    for freq, p in zip((c / n for c in counts), probs.as_tuple()):
        assert abs(freq - p) < 0.005


def test_single_step_trace():
    trace = constant_trace(100.0, 1)
    out = generate_states(URBAN_MEDIUM, trace, seed=5)
    assert len(out) == 1
    assert out.scenario == "urban-medium"
    assert out.seed == 5


def _absorbing_model() -> ScenarioModel:
    one = Poly2(0.0, 0.0, 1.0)
    zero = Poly2(0.0, 0.0, 0.0)
    state = StateProbModel({LosState.LOS: Poly2(0.0, 0.0, 0.3), LosState.NLOSv: Poly2(0.0, 0.0, 0.4)},
                           complement=LosState.NLOSb)
    rows = (
        TransitionRowModel(LosState.LOS, {LosState.LOS: one, LosState.NLOSb: zero}, complement=LosState.NLOSv),
        TransitionRowModel(LosState.NLOSv, {LosState.LOS: zero, LosState.NLOSb: zero}, complement=LosState.NLOSv),
        TransitionRowModel(LosState.NLOSb, {LosState.LOS: zero, LosState.NLOSb: one}, complement=LosState.NLOSv),
    )
    return ScenarioModel(Environment.URBAN, Density.LOW, state, rows)


def test_identity_rows_freeze_the_state():
    model = _absorbing_model()
    trace = constant_trace(100.0, 200)
    for seed in (0, 1, 2, 3, 17):
        out = generate_states(model, trace, seed=seed)
        assert np.all(out.states == out.states[0])


def test_one_step_frequencies_match_assembled_row():
    # Empirical LOS-row frequencies over 1e5 steps vs the assembled matrix.
    model = URBAN_MEDIUM
    n = 10**5
    trace = constant_trace(50.0, n)
    out = generate_states(model, trace, seed=11)
    s = out.states
    ref = transition_matrix(model, 50.0).m
    from_los = s[:-1] == 0
    total = int(from_los.sum())
    for target in range(3):
        freq = int(((s[1:] == target) & from_los).sum()) / total
        assert abs(freq - ref[0, target]) < 0.01


def test_determinism_bit_identical():
    trace = DistanceTrace.from_distances(np.arange(1.0, 301.0))
    a = generate_states(URBAN_MEDIUM, trace, seed=99)
    b = generate_states(URBAN_MEDIUM, trace, seed=99)
    assert np.array_equal(a.states, b.states)
    c = generate_states(URBAN_MEDIUM, trace, seed=100)
    assert not np.array_equal(a.states, c.states)


def test_sampler_consults_only_previous_state_and_current_distance(monkeypatch):
    calls = []
    real = v2vlos.assembly.transition_row

    def instrumented(model, origin, d, over_range="error"):
        calls.append((int(origin), float(d)))
        return real(model, origin, d, over_range=over_range)

    monkeypatch.setattr(v2vlos.assembly, "transition_row", instrumented)
    # Strictly increasing distances keep the row memo cold, one call per step.
    trace = DistanceTrace.from_distances(np.linspace(10.0, 60.0, 51))
    out = generate_states(URBAN_MEDIUM, trace, seed=3)
    expected = [(int(out.states[k - 1]), float(trace.distances[k])) for k in range(1, len(trace))]
    assert calls == expected


def test_long_run_occupancy_matches_stationary():
    model = URBAN_MEDIUM
    n = 10**6
    out = generate_states(model, constant_trace(50.0, n), seed=8)
    pi = stationary_distribution(transition_matrix(model, 50.0)).probs.as_tuple()
    occ = [int((out.states == k).sum()) / n for k in range(3)]
    tv = 0.5 * sum(abs(a - b) for a, b in zip(occ, pi))
    assert tv < 0.01


def test_generate_batch_empty():
    assert generate_batch(URBAN_MEDIUM, [], seed=1) == []


def test_generate_batch_order_independence():
    traces = [DistanceTrace.from_distances(np.linspace(10.0 + i, 200.0 + i, 120)) for i in range(8)]
    batch = generate_batch(URBAN_MEDIUM, traces, seed=42)
    # Computing each index on its own, in shuffled order, gives the same output.
    order = list(range(8))
    random.Random(0).shuffle(order)
    redone = {}
    for i in order:
        redone[i] = generate_states(URBAN_MEDIUM, traces[i], derive_subseed(42, i))
    for i in range(8):
        assert np.array_equal(batch[i].states, redone[i].states)
        assert batch[i].seed == derive_subseed(42, i)


def test_generate_batch_aggregates_failures_with_indices():
    good = DistanceTrace.from_distances(np.full(5, 100.0))
    bad = DistanceTrace.from_distances(np.full(5, 600.0))  # above ceiling, error policy
    with pytest.raises(BatchError) as err:
        generate_batch(URBAN_MEDIUM, [good, bad, good, bad], seed=7)
    assert [i for i, _ in err.value.failures] == [1, 3]
    assert all(isinstance(e, DomainError) for _, e in err.value.failures)


def test_first_state_histogram_matches_state_probabilities():
    from v2vlos import iter_generate_batch, state_probabilities
    from itertools import repeat
    model = URBAN_MEDIUM
    n = 10**5
    trace = constant_trace(100.0, 1)
    counts = [0, 0, 0]
    for out in iter_generate_batch(model, repeat(trace, n), seed=1234):
        counts[int(out.states[0])] += 1
    ref = state_probabilities(model, 100.0).as_tuple()
    for k in range(3):
        assert abs(counts[k] / n - ref[k]) < 0.01


def test_over_range_policy_flows_through():
    trace = DistanceTrace.from_distances(np.full(10, 600.0))
    with pytest.raises(DomainError):
        generate_states(URBAN_MEDIUM, trace, seed=1)
    out = generate_states(URBAN_MEDIUM, trace, seed=1, over_range="clamp")
    assert len(out) == 10
