"""Chain generation: sampling, determinism, Markov structure, batches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    chain,
    accumulate,
    derive_subseed,
    dwell_statistics,
    empirical_state_probs,
    stationary_distribution,
    transition_matrix,
)
from v2vlos import markov
from v2vlos.params import ScenarioModel, StateProbModel

URBAN_MEDIUM = builtin_model(Environment.URBAN, Density.MEDIUM)


def sample_initial_state(probs, rng):
    """Inverse-CDF draw over (LOS, NLOSv, NLOSb), as the reference samplers take it."""
    u = rng.next_float()
    if u < probs.los:
        return LosState.LOS
    if u < probs.los + probs.nlosv:
        return LosState.NLOSv
    return LosState.NLOSb


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
        StateTrace(DistanceTrace.from_distances(np.ones(3)), np.array([0, 1], dtype=np.int8))
    with pytest.raises(DomainError):
        StateTrace(DistanceTrace.from_distances(np.ones(2)), np.array([0, 7], dtype=np.int8))


def test_state_trace_ignores_later_writes_to_its_inputs():
    times, distances, states = np.arange(4), np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 1, 2, 1], dtype=np.int8)
    # A read-only view of a writeable array can still change through its base.
    view = states[:]
    view.setflags(write=False)
    trace = StateTrace(DistanceTrace(times, distances), view)
    times[0], distances[0], states[0] = 9, 9.0, 2
    assert trace.times.tolist() == [0, 1, 2, 3]
    assert trace.distances.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert trace.states.tolist() == [0, 1, 2, 1]
    for column in (trace.times, trace.distances, trace.states):
        with pytest.raises(ValueError):
            column[0] = 1


def test_generated_trace_shares_the_frozen_distance_columns():
    trace = constant_trace(100.0, 5)
    out = chain(URBAN_MEDIUM).trace(trace, 5)
    assert out.grid is trace
    assert out.times is trace.times and out.distances is trace.distances
    assert not out.states.flags.writeable


_GRID = DistanceTrace.from_distances([1.0, 2.0])


@pytest.mark.parametrize("make", [
    lambda: DistanceTrace.from_distances([1.0, 2.0]),
    lambda: StateTrace(_GRID, [0, 2]),
    lambda: transition_matrix(URBAN_MEDIUM, 100.0),
    lambda: dwell_statistics([StateTrace(_GRID, [0, 2])]),
    lambda: empirical_state_probs(accumulate([StateTrace(_GRID, [0, 2])])),
], ids=["DistanceTrace", "StateTrace", "TransitionMatrix", "DwellStats", "BinnedProbs"])
def test_array_holding_types_compare_and_hash_by_identity(make):
    # A grid is its object: equal arrays never make two traces one grid.
    x, y = make(), make()
    assert x == x and not x != x
    assert x != y and not x == y
    assert hash(x) == hash(x)
    assert len({x, y, x}) == 2


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
    out = chain(URBAN_MEDIUM).trace(trace, 5)
    assert len(out) == 1
    assert out.scenario == "urban-medium"
    assert out.seed == 5


def _absorbing_model() -> ScenarioModel:
    one = Poly2(0.0, 0.0, 1.0)
    zero = Poly2(0.0, 0.0, 0.0)
    state = StateProbModel({LosState.LOS: Poly2(0.0, 0.0, 0.3), LosState.NLOSv: Poly2(0.0, 0.0, 0.4)},
                           complement=LosState.NLOSb)
    rows = (
        StateProbModel({LosState.LOS: one, LosState.NLOSb: zero}, complement=LosState.NLOSv),
        StateProbModel({LosState.LOS: zero, LosState.NLOSb: zero}, complement=LosState.NLOSv),
        StateProbModel({LosState.LOS: zero, LosState.NLOSb: one}, complement=LosState.NLOSv),
    )
    return ScenarioModel(Environment.URBAN, Density.LOW, state, rows)


def test_identity_rows_freeze_the_state():
    model = _absorbing_model()
    trace = constant_trace(100.0, 200)
    for seed in (0, 1, 2, 3, 17):
        out = chain(model).trace(trace, seed)
        assert np.all(out.states == out.states[0])


def test_one_step_frequencies_match_assembled_row():
    # Empirical LOS-row frequencies over 1e5 steps vs the assembled matrix.
    model = URBAN_MEDIUM
    n = 10**5
    trace = constant_trace(50.0, n)
    out = chain(model).trace(trace, 11)
    s = out.states
    ref = transition_matrix(model, 50.0).m
    from_los = s[:-1] == 0
    total = int(from_los.sum())
    for target in range(3):
        freq = int(((s[1:] == target) & from_los).sum()) / total
        assert abs(freq - ref[0, target]) < 0.01


def test_determinism_bit_identical():
    trace = DistanceTrace.from_distances(np.arange(1.0, 301.0))
    a = chain(URBAN_MEDIUM).trace(trace, 99)
    b = chain(URBAN_MEDIUM).trace(trace, 99)
    assert np.array_equal(a.states, b.states)
    c = chain(URBAN_MEDIUM).trace(trace, 100)
    assert not np.array_equal(a.states, c.states)


def test_sampler_consults_only_previous_state_and_current_distance(monkeypatch):
    # A guard band over all of [0, 1] leaves every draw to the scalar thresholds, called once per step.
    monkeypatch.setattr(markov, "_GUARD", 2**53)
    calls = []
    sampler = chain(URBAN_MEDIUM)
    real = sampler.thresholds

    def instrumented(origin, d):
        calls.append((int(origin), float(d)))
        return real(origin, d)

    sampler.thresholds = instrumented
    rising = DistanceTrace.from_distances(np.linspace(10.0, 60.0, 51))
    repeated = DistanceTrace.from_distances(np.tile([20.0, 20.0, 35.0, 20.0], 13))
    # The repeated trace runs twice on one sampler: nothing of the first run is kept for the second.
    outs = []
    for trace in (rising, repeated, repeated):
        calls.clear()
        out = sampler.trace(trace, 3)
        expected = [(int(out.states[k - 1]), float(trace.distances[k])) for k in range(1, len(trace))]
        assert calls == [(-1, float(trace.distances[0]))] + expected
        outs.append(out.states.tobytes())
    assert outs[1] == outs[2]


def test_long_run_occupancy_matches_stationary():
    model = URBAN_MEDIUM
    n = 10**6
    out = chain(model).trace(constant_trace(50.0, n), 8)
    pi = stationary_distribution(transition_matrix(model, 50.0)).probs.as_tuple()
    occ = [int((out.states == k).sum()) / n for k in range(3)]
    tv = 0.5 * sum(abs(a - b) for a, b in zip(occ, pi))
    assert tv < 0.01


def test_generate_batch_empty():
    assert list(chain(URBAN_MEDIUM).batch([], 1)) == []


_grids = st.sampled_from([
    DistanceTrace.from_distances(np.arange(1.0, 41.0)),  # integer metres
    DistanceTrace.from_distances(np.arange(300.0, 260.0, -1.0)),
    DistanceTrace.from_distances(np.linspace(10.5, 200.25, 33)),  # continuous
    DistanceTrace.from_distances(np.linspace(499.5, 3.75, 25)),
])
# Runs of traces on one grid, from a single trace to more than a dozen.
_width = st.sampled_from([1, 2, 11, 12, 14])


@settings(max_examples=60, deadline=None)
@given(
    scenario=st.sampled_from([(e, d) for e in Environment for d in Density]),
    runs=st.lists(st.tuples(_grids, _width), min_size=1, max_size=4),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_generate_batch_order_independence(scenario, runs, seed, data):
    model = builtin_model(*scenario)
    traces = [grid for grid, width in runs for _ in range(width)]
    # The whole batch, a permutation of it, and a subset in order (whose runs stay together).
    n = len(traces)
    shuffled = data.draw(st.permutations(range(n)))
    subset = sorted(data.draw(st.lists(st.integers(0, n - 1), unique=True)))
    reference = chain(model)
    for picked in (list(range(n)), shuffled, subset):
        batch = [traces[k] for k in picked]
        outs = list(chain(model).batch(batch, seed))
        assert len(outs) == len(batch)
        # Each trace is redone on its own, in shuffled order, from its sub-seed alone.
        for i in data.draw(st.permutations(range(len(batch)))):
            sub = derive_subseed(seed, i)
            assert outs[i].seed == sub
            assert outs[i].states.tobytes() == reference.trace(batch[i], sub).states.tobytes()


def test_generate_batch_aggregates_failures_with_indices():
    good = DistanceTrace.from_distances(np.full(5, 100.0))
    bad = DistanceTrace.from_distances(np.full(5, 600.0))  # above ceiling, error policy
    with pytest.raises(BatchError) as err:
        list(chain(URBAN_MEDIUM).batch([good, bad, good, bad], 7))
    assert [i for i, _ in err.value.failures] == [1, 3]
    assert all(isinstance(e, DomainError) for _, e in err.value.failures)


def test_first_state_histogram_matches_state_probabilities():
    from v2vlos import state_probabilities
    from itertools import repeat
    model = URBAN_MEDIUM
    n = 10**5
    trace = constant_trace(100.0, 1)
    counts = [0, 0, 0]
    for out in chain(model).batch(repeat(trace, n), 1234):
        counts[int(out.states[0])] += 1
    ref = state_probabilities(model, 100.0).as_tuple()
    for k in range(3):
        assert abs(counts[k] / n - ref[k]) < 0.01


def test_over_range_policy_flows_through():
    trace = DistanceTrace.from_distances(np.full(10, 600.0))
    with pytest.raises(DomainError):
        chain(URBAN_MEDIUM).trace(trace, 1)
    out = chain(URBAN_MEDIUM, over_range="clamp").trace(trace, 1)
    assert len(out) == 10
