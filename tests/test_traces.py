"""Synthetic mobility, dwell statistics, trace files, Fresnel clearance."""

import itertools
import math
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vlos import estimation, markov
from v2vlos import traces as trace_io
from v2vlos.rng import mix64
from v2vlos import (
    BatchError,
    Density,
    DistanceTrace,
    DomainError,
    Environment,
    LosState,
    MobilityProfile,
    ParseError,
    StateTrace,
    builtin_model,
    chain,
    fresnel_clearance_radius,
    read_distance_trace,
    read_labeled_traces,
    synth_distance_trace,
    write_state_traces,
)
from v2vlos.traces import DwellCount, synth_distance_traces

SPEED_OF_LIGHT = 299792458.0
SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_constant_profile_is_figure_input():
    profile = MobilityProfile("constant", d0=1.0, n_steps=500, speed=1.0)
    trace = synth_distance_trace(profile, seed=0)
    assert trace.distances.tolist() == [float(i) for i in range(1, 501)]


def test_zero_speed_gives_constant_distance():
    profile = MobilityProfile("constant", d0=42.0, n_steps=100, speed=0.0)
    trace = synth_distance_trace(profile, seed=5)
    assert np.all(trace.distances == 42.0)


def test_walk_respects_speed_bound():
    profile = MobilityProfile("walk", d0=250.0, n_steps=2000, v_max=20.0)
    for seed in (0, 1, 2):
        trace = synth_distance_trace(profile, seed=seed)
        deltas = np.abs(np.diff(trace.distances))
        assert float(deltas.max()) <= 20.0 + 1e-9
        assert float(trace.distances.min()) >= 1.0
        assert float(trace.distances.max()) <= 500.0


def test_envelope_profiles_respect_speed_bound():
    for kind, v in (("same_direction_highway", 25.0), ("urban_mixed", 20.0)):
        profile = MobilityProfile(kind, d0=100.0, n_steps=1000, speed=v)
        trace = synth_distance_trace(profile, seed=3)
        assert float(np.abs(np.diff(trace.distances)).max()) <= v + 1e-9


def test_opposing_highway_approaches_then_separates():
    profile = MobilityProfile("opposing_highway", d0=300.0, n_steps=20, speed=60.0)
    trace = synth_distance_trace(profile, seed=0)
    d = trace.distances
    assert d[1] == 240.0 and d[2] == 180.0
    assert float(d.min()) >= 1.0
    # After passing (reflection at the floor) the distance grows again.
    assert d[-1] > d[5]
    assert float(np.abs(np.diff(d)).max()) <= 60.0 + 1e-9


def test_constant_profile_reflects_at_ceiling():
    profile = MobilityProfile("constant", d0=495.0, n_steps=10, speed=20.0)
    trace = synth_distance_trace(profile, seed=0)
    assert float(trace.distances.max()) <= 500.0
    assert float(np.abs(np.diff(trace.distances)).max()) <= 20.0 + 1e-9


def test_profile_envelope_validation():
    with pytest.raises(ValueError):
        MobilityProfile("opposing_highway", d0=100.0, n_steps=10, speed=30.0)
    with pytest.raises(ValueError):
        MobilityProfile("same_direction_highway", d0=100.0, n_steps=10, speed=30.0)
    with pytest.raises(ValueError):
        MobilityProfile("urban_mixed", d0=100.0, n_steps=10, speed=25.0)
    with pytest.raises(ValueError):
        MobilityProfile("walk", d0=100.0, n_steps=10)
    with pytest.raises(ValueError):
        MobilityProfile("teleport", d0=100.0, n_steps=10, speed=1.0)
    with pytest.raises(ValueError):
        MobilityProfile("constant", d0=600.0, n_steps=10, speed=1.0)
    with pytest.raises(ValueError):
        MobilityProfile("constant", d0=10.0, n_steps=0, speed=1.0)


def test_profile_rejects_unbounded_steps():
    # A step may cross the 499 m wide range at most once; a larger or
    # non-finite speed would keep the reflection from ever settling.
    for kwargs in ({"kind": "walk", "v_max": math.inf}, {"kind": "walk", "v_max": math.nan},
                   {"kind": "walk", "v_max": 1e300}, {"kind": "walk", "v_max": 499.001},
                   {"kind": "constant", "speed": 1e12}, {"kind": "constant", "speed": -500.0},
                   {"kind": "constant", "speed": math.inf}):
        with pytest.raises(ValueError):
            MobilityProfile(d0=100.0, n_steps=10, **kwargs)
    for kwargs in ({"kind": "walk", "v_max": 499.0}, {"kind": "constant", "speed": -499.0}):
        trace = synth_distance_trace(MobilityProfile(d0=1.0, n_steps=50, **kwargs), seed=3)
        assert 1.0 <= trace.distances.min() and trace.distances.max() <= 500.0


def test_only_seeded_profiles_depend_on_the_seed():
    for kind, kwargs in (("constant", {"speed": 3.0}), ("opposing_highway", {"speed": 60.0}),
                         ("walk", {"v_max": 10.0}), ("same_direction_highway", {"speed": 10.0}),
                         ("urban_mixed", {"speed": 10.0})):
        profile = MobilityProfile(kind, d0=100.0, n_steps=50, **kwargs)
        a, b = synth_distance_trace(profile, seed=1), synth_distance_trace(profile, seed=2)
        assert profile.seeded == (not np.array_equal(a.distances, b.distances)), kind


def test_synthesis_is_deterministic_per_seed():
    profile = MobilityProfile("walk", d0=100.0, n_steps=300, v_max=10.0)
    a = synth_distance_trace(profile, seed=9)
    b = synth_distance_trace(profile, seed=9)
    c = synth_distance_trace(profile, seed=10)
    assert np.array_equal(a.distances, b.distances)
    assert not np.array_equal(a.distances, c.distances)


def reference_walk(d0, v_max, n_steps, seed):
    """The walk a step at a time: d_{k+1} = reflect(d_k + (2 u_k - 1) v_max) into [1, 500] m.

    u_k is draw k of the splitmix64 stream seeded with ``seed``:
    mix64(seed + (k + 1) * golden), top 53 bits, scaled by 2**-53.
    """
    d = [d0]
    for k in range(n_steps - 1):
        u = (mix64(seed + (k + 1) * 0x9E3779B97F4A7C15) >> 11) * 2.0**-53
        x = d[-1] + (2.0 * u - 1.0) * v_max
        while x < 1.0 or x > 500.0:
            x = 2.0 * 1.0 - x if x < 1.0 else 2.0 * 500.0 - x
        d.append(x)
    return np.array(d)


@settings(max_examples=150, deadline=None)
@given(d0=st.floats(1.0, 500.0), v_max=st.floats(0.0, 499.0, exclude_min=True), n_steps=st.integers(1, 300),
       count=st.integers(1, 80), data=st.data())
def test_cross_trace_synthesis_is_the_scalar_walk_bit_for_bit(d0, v_max, n_steps, count, data):
    # Up to 80 traces in one chunk: both sides of the width rule (_SYNTH_COLUMNS_FROM).
    seeds = data.draw(st.lists(st.integers(-2**63, 2**64 - 1), min_size=count, max_size=count))
    profile = MobilityProfile("walk", d0=d0, n_steps=n_steps, v_max=v_max)
    batch = list(synth_distance_traces(profile, seeds))
    assert len(batch) == len(seeds)
    for trace, seed in zip(batch, seeds):
        assert trace.distances.tobytes() == reference_walk(d0, v_max, n_steps, seed).tobytes()
        assert trace.times.tolist() == list(range(n_steps))
    # Trace i is the same alone, at another place in a batch and in chunks of another width.
    i = data.draw(st.integers(0, len(seeds) - 1))
    shift = data.draw(st.integers(0, len(seeds) - 1))
    width = data.draw(st.integers(1, 80))
    alone = synth_distance_trace(profile, seeds[i])
    with mock.patch.object(markov, "_CHUNK", width * 9 * n_steps):
        rotated = list(synth_distance_traces(profile, seeds[shift:] + seeds[:shift]))
    assert alone.distances.tobytes() == batch[i].distances.tobytes()
    assert rotated[(i - shift) % len(seeds)].distances.tobytes() == batch[i].distances.tobytes()


def test_a_synthesised_chunk_is_one_frozen_matrix():
    profile = MobilityProfile("walk", d0=250.0, n_steps=50, v_max=20.0)
    batch = list(synth_distance_traces(profile, range(40)))
    assert len({id(t.times) for t in batch}) == 1 and not batch[0].times.flags.writeable
    matrix = batch[0].distances.base
    assert matrix.shape == (40, 50) and matrix.flags.c_contiguous and not matrix.flags.writeable
    assert all(t.distances.base is matrix for t in batch)
    # An unseeded profile gives one shared trace, whatever the seeds.
    constant = list(synth_distance_traces(MobilityProfile("constant", d0=1.0, n_steps=5, speed=1.0), range(3)))
    assert constant[0] is constant[1] is constant[2]


def test_dwell_count_passes_each_trace_on_once_in_order():
    traces = [state_trace([0, 0, 1]), state_trace([2]), state_trace([1, 1, 0, 0])]
    count = DwellCount()
    with mock.patch.object(markov, "_COUNT_BLOCK", 2):
        assert list(count.tap(iter(traces))) == traces
    expected = dwell(traces)
    assert count.runs.tolist() == expected.runs.tolist() and count.n_traces == 3
    with pytest.raises(DomainError):
        DwellCount().mean_dwell  # noqa: B018


def test_dwell_count_runs_are_read_only_and_an_empty_count_has_no_mean_dwell():
    count = DwellCount()
    empty = count.runs
    with pytest.raises(ValueError):
        empty[0, 0] = 1
    with pytest.raises(AttributeError):
        count.runs = np.zeros((3, 1), dtype=np.int64)
    assert (count.n_traces, count.n_steps, count.changes) == (0, 0, 0)
    assert count.occupancy.tolist() == [0, 0, 0]
    with pytest.raises(DomainError, match="dwell statistics need at least one trace"):
        count.mean_dwell  # noqa: B018
    # A read between blocks leaves the later blocks counting.
    with mock.patch.object(markov, "_COUNT_BLOCK", 2):
        tapped = count.tap([state_trace([0, 0, 0]), state_trace([1]), state_trace([1, 1])])
        next(tapped)
        first = count.runs
        assert first.tolist() == [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
        for _ in tapped:
            pass
    with pytest.raises(ValueError):
        first[0, 3] = 5
    with pytest.raises(ValueError):
        count.runs[1, 1] = 5
    with pytest.raises(AttributeError):
        count.runs = first
    # The later block's runs are shorter, so they are added into the counts already read.
    assert count.runs.tolist() == [[0, 0, 0, 1], [0, 1, 1, 0], [0, 0, 0, 0]]
    assert first.tolist() == [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert (count.n_traces, count.n_steps, count.changes, count.mean_dwell) == (3, 6, 0, 2.0)


def dwell(traces):
    """A :class:`DwellCount` of ``traces``, every trace passed through its ``tap``."""
    count = DwellCount()
    for _ in count.tap(traces):
        pass
    return count


def state_trace(states, d=50.0):
    s = np.asarray(states, dtype=np.int8)
    return StateTrace(DistanceTrace(np.arange(s.size), np.full(s.size, d)), s)


def hist(stats, state):
    """Run-length histogram of one state as {length: count}."""
    row = stats.runs[int(state)]
    lengths = row.nonzero()[0]
    return dict(zip(lengths.tolist(), row[lengths].tolist()))


@dataclass(frozen=True)
class ReferenceDwell:
    """Per-trace dwell counts as they were kept before batch counting."""

    n_steps: int
    n_traces: int
    changes: int
    histograms: dict

    @property
    def mean_dwell(self):
        return self.n_steps / (self.changes + self.n_traces)

    def merge(self, other):
        hist = {s: dict(self.histograms.get(s, {})) for s in LosState}
        for s, h in other.histograms.items():
            for length, count in h.items():
                hist[s][length] = hist[s].get(length, 0) + count
        return ReferenceDwell(self.n_steps + other.n_steps, self.n_traces + other.n_traces,
                              self.changes + other.changes, hist)


def reference_dwell(trace):
    """One trace's state changes and per-state run lengths (final run included)."""
    s = trace.states
    last = np.empty(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=last[:-1])
    last[-1] = True
    ends = last.nonzero()[0]
    runs = ends.copy()
    runs[1:] -= ends[:-1]
    runs[0] += 1
    width = int(runs.max()) + 1
    counts = np.bincount(s[ends].astype(np.intp) * width + runs, minlength=3 * width).reshape(3, width)
    histograms = {}
    for state in LosState:
        lengths = counts[state].nonzero()[0]
        histograms[state] = dict(zip(lengths.tolist(), counts[state][lengths].tolist()))
    return ReferenceDwell(int(s.size), 1, int(ends.size) - 1, histograms)


def reference_merge(traces):
    """Per-trace counts folded one trace at a time."""
    total = ReferenceDwell(0, 0, 0, {s: {} for s in LosState})
    for trace in traces:
        total = total.merge(reference_dwell(trace))
    return total


def test_dwell_all_same_state():
    stats = dwell([state_trace([0] * 10)])
    assert stats.changes == 0
    assert stats.mean_dwell == 10.0
    assert hist(stats, LosState.LOS) == {10: 1}


def test_dwell_alternating():
    stats = dwell([state_trace([0, 2] * 5)])
    assert stats.changes == 9
    assert stats.mean_dwell == 1.0
    assert hist(stats, LosState.LOS) == {1: 5}
    assert hist(stats, LosState.NLOSb) == {1: 5}


def test_dwell_runs_and_histograms():
    stats = dwell([state_trace([0, 0, 0, 1, 1, 2, 0, 0])])
    assert stats.changes == 3
    assert hist(stats, LosState.LOS) == {3: 1, 2: 1}
    assert hist(stats, LosState.NLOSv) == {2: 1}
    assert hist(stats, LosState.NLOSb) == {1: 1}
    assert stats.occupancy.tolist() == [5, 2, 1]
    total_seconds = sum(length * n for s in LosState for length, n in hist(stats, s).items())
    assert total_seconds == stats.n_steps == 8


def test_dwell_invariant_under_relabeling():
    a = dwell([state_trace([0, 0, 1, 1, 2, 2, 0])])
    b = dwell([state_trace([1, 1, 2, 2, 0, 0, 1])])
    assert a.changes == b.changes
    assert a.mean_dwell == b.mean_dwell
    assert sorted(hist(a, LosState.LOS).items()) == sorted(hist(b, LosState.NLOSv).items())


def test_dwell_batch_aggregates():
    merged = dwell([state_trace([0] * 10), state_trace([0, 2] * 5)])
    assert merged.n_steps == 20
    assert merged.n_traces == 2
    assert merged.changes == 9
    assert merged.mean_dwell == pytest.approx(20.0 / 11.0)
    assert merged.runs.dtype == np.int64 and not merged.runs.flags.writeable
    with pytest.raises(DomainError):
        dwell([]).mean_dwell  # noqa: B018
    with pytest.raises(DomainError):
        dwell([state_trace([0]), state_trace([])])


def test_dwell_run_ends_at_every_trace_end():
    # Two traces of one state are two runs, not one run across the boundary.
    stats = dwell([state_trace([1, 1, 1]), state_trace([1, 1])])
    assert hist(stats, LosState.NLOSv) == {3: 1, 2: 1}
    assert stats.changes == 0


_batches = st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=300), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(batch=_batches, block=st.integers(1, 600))
def test_batch_dwell_matches_per_trace_merge(batch, block):
    traces = [state_trace(states) for states in batch]
    expected = reference_merge(traces)
    yielded = []

    def lazy():
        for trace in traces:
            yielded.append(trace)
            yield trace

    with mock.patch.object(markov, "_COUNT_BLOCK", block):
        stats = dwell(lazy())
    assert yielded == traces  # every trace read exactly once
    assert (stats.n_steps, stats.n_traces, stats.changes) == (expected.n_steps, expected.n_traces, expected.changes)
    assert {s: hist(stats, s) for s in LosState} == expected.histograms
    assert stats.occupancy.tolist() == [sum(n * k for k, n in expected.histograms[s].items()) for s in LosState]
    assert stats.mean_dwell == expected.mean_dwell


def test_fresnel_hand_evaluated():
    lam2 = SPEED_OF_LIGHT / 2.0e9
    expected2 = 0.6 * math.sqrt(lam2 * 250.0 * 250.0 / 500.0)
    got2 = fresnel_clearance_radius(250.0, 250.0, 2.0e9)
    assert got2 == pytest.approx(expected2, abs=1e-12)
    assert got2 == pytest.approx(2.60, abs=5e-3)

    got6 = fresnel_clearance_radius(250.0, 250.0, 6.0e9)
    assert got6 == pytest.approx(1.50, abs=5e-3)
    assert got2 - got6 == pytest.approx(1.10, abs=5e-3)


def test_fresnel_small_d1_limit():
    assert fresnel_clearance_radius(1e-9, 250.0, 2e9) < 1e-4


def test_fresnel_domain():
    for bad in ((0.0, 250.0, 2e9), (250.0, -1.0, 2e9), (250.0, 250.0, 0.0)):
        with pytest.raises(DomainError):
            fresnel_clearance_radius(*bad)


def test_fresnel_rejects_nan():
    for bad in ((math.nan, 250.0, 2e9), (250.0, 250.0, math.nan)):
        with pytest.raises(DomainError, match="finite real number"):
            fresnel_clearance_radius(*bad)


def test_fresnel_maximal_at_midpoint():
    total = 400.0
    xs = np.linspace(1.0, total - 1.0, 399)
    radii = [fresnel_clearance_radius(float(x), float(total - x), 2e9) for x in xs]
    assert np.argmax(radii) == np.argmin(np.abs(xs - total / 2.0))


def test_state_trace_write_read_round_trip(tmp_path):
    model = builtin_model(Environment.URBAN, Density.MEDIUM)
    trace = chain(model).trace(DistanceTrace.from_distances(np.arange(1.0, 101.0)), 7)
    path = tmp_path / "trace.csv"
    write_state_traces([trace], path)
    back = read_labeled_traces(path)
    assert len(back) == 1
    assert np.array_equal(back[0].states, trace.states)
    assert np.array_equal(back[0].distances, trace.distances)
    assert np.array_equal(back[0].times, trace.times)
    for column in (back[0].times, back[0].distances, back[0].states):
        with pytest.raises(ValueError):
            column[0] = 1


def test_write_read_write_is_byte_stable(tmp_path):
    model = builtin_model(Environment.HIGHWAY, Density.LOW)
    trace = chain(model).trace(DistanceTrace.from_distances(np.linspace(3.7, 402.7, 150)), 1)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_state_traces([trace], p1)
    write_state_traces(read_labeled_traces(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_multi_trace_file(tmp_path):
    model = builtin_model(Environment.URBAN, Density.LOW)
    traces = [
        chain(model).trace(DistanceTrace.from_distances(np.arange(10.0, 60.0)), s)
        for s in (1, 2, 3)
    ]
    path = tmp_path / "batch.csv"
    write_state_traces(traces, path)
    back = read_labeled_traces(path)
    assert len(back) == 3
    for orig, loaded in zip(traces, back):
        assert np.array_equal(orig.states, loaded.states)


@settings(max_examples=100, deadline=None)
@given(
    scenario=st.sampled_from([(e, d) for e in Environment for d in Density]),
    seed=st.integers(0, 2**64 - 1),
    batch=st.lists(st.lists(st.floats(1.0, 500.0), min_size=1, max_size=50), min_size=1, max_size=6),
)
def test_generated_batch_round_trips_through_labeled_file(scenario, seed, batch):
    model = builtin_model(*scenario)
    traces = list(chain(model).batch([DistanceTrace.from_distances(ds) for ds in batch], seed))
    provenance = [f"# scenario={model.tag}", f"# seed={seed}"]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_state_traces(traces, first, provenance)
        back = read_labeled_traces(first)
        write_state_traces(back, second, provenance)
        assert first.read_bytes() == second.read_bytes()
    assert len(back) == len(traces)
    for orig, loaded in zip(traces, back):
        for column in ("times", "distances", "states"):
            assert np.array_equal(getattr(orig, column), getattr(loaded, column))


def reference_labeled_file(traces, provenance):
    """The text of a labeled file, formatted one row at a time."""
    rows = [f"{t},{d!r},{('LOS', 'NLOSv', 'NLOSb')[s]}\n" for trace in traces
            for t, d, s in zip(trace.times.tolist(), trace.distances.tolist(), trace.states.tolist())]
    return "".join(line + "\n" for line in provenance) + "t,d,state\n" + "".join(rows)


@settings(max_examples=200, deadline=None)
@given(
    pivot=st.integers(-10**6, 10**6),
    grids=st.lists(st.tuples(st.integers(0, 24),
                             st.lists(st.floats(1e-3, 1e6) | st.integers(1, 500).map(float), min_size=1, max_size=25)),
                   min_size=1, max_size=3),
    runs=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), max_size=8),
    data=st.data(),
)
def test_writer_matches_row_by_row_format(pivot, grids, runs, data):
    # Every base grid holds time ``pivot``, so time restarts wherever one follows another.
    base = [DistanceTrace(np.arange(len(ds)) + pivot - k % len(ds), ds) for k, ds in grids]
    first = base[0]
    choices = base + [
        # The same distance array on other times; it holds ``pivot`` too unless ``first`` has one step.
        DistanceTrace(first.times + (1 if first.times[0] < pivot else -1), first.distances),
        DistanceTrace(first.times.copy(), first.distances.copy()),  # equal values in other arrays
    ]
    assert choices[-2].distances is first.distances and choices[-1].distances is not first.distances
    # Runs of one grid, in any order, so a grid can resume after another (A A B A).
    order = [choices[j % len(choices)] for j, n in runs for _ in range(n)]
    traces = [StateTrace(g, data.draw(st.lists(st.integers(0, 2), min_size=len(g), max_size=len(g)))) for g in order]
    provenance = ["# scenario=test", "# seed=3"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        if any(b.times[0] > a.times[-1] for a, b in zip(order, order[1:])):
            with pytest.raises(DomainError, match="would read back as one"):
                write_state_traces(iter(traces), path, provenance)
            assert not path.exists()
        else:
            write_state_traces(iter(traces), path, provenance)
            assert path.read_bytes() == reference_labeled_file(traces, provenance).encode("utf-8")


def test_writer_refuses_a_trace_that_would_read_back_merged(tmp_path):
    a = StateTrace(DistanceTrace(np.arange(0, 5), np.full(5, 10.0)), [0, 0, 1, 1, 2])
    b = StateTrace(DistanceTrace(np.arange(5, 10), np.full(5, 20.0)), [2, 2, 1, 0, 0])
    path = tmp_path / "out.csv"
    with pytest.raises(DomainError, match=r"^a trace from t=5 after one ending at t=4 would read back as one$"):
        write_state_traces([a, b], path)
    assert list(tmp_path.iterdir()) == []
    # A grid that starts at or before the last one's end restarts time: two traces.
    for start in (4, -3):
        c = StateTrace(DistanceTrace(np.arange(start, start + 5), np.full(5, 20.0)), b.states)
        write_state_traces([a, c], path)
        assert [t.times[0] for t in read_labeled_traces(path)] == [0, start]


_positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def trace_batches(draw):
    """1-6 state traces on grids of random times and distances, some grid objects shared and some equal copies."""
    grids = []
    for _ in range(draw(st.integers(1, 3))):
        start, ds = draw(st.integers(-4, 20)), draw(st.lists(_positive_floats, min_size=1, max_size=8))
        grids.append(DistanceTrace(np.arange(start, start + len(ds)) + draw(st.sampled_from([0, 2**62])), ds))
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        grid = draw(st.sampled_from(grids))
        if draw(st.booleans()):
            grid = DistanceTrace(grid.times.copy(), grid.distances.copy())
        batch.append(StateTrace(grid, draw(st.lists(st.integers(0, 2), min_size=len(grid), max_size=len(grid)))))
    return batch


@settings(max_examples=150, deadline=None)
@given(batch=trace_batches())
def test_writer_reader_round_trip_or_refusal(batch):
    merges = any(b.times[0] > a.times[-1] for a, b in zip(batch, batch[1:]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        if merges:
            with pytest.raises(DomainError):
                write_state_traces(batch, path)
            assert not path.exists()
            return
        write_state_traces(batch, path)
        back = read_labeled_traces(path)
    assert len(back) == len(batch)
    for orig, loaded in zip(batch, back):
        assert np.array_equal(loaded.times, orig.times) and np.array_equal(loaded.states, orig.states)
        assert loaded.distances.tobytes() == orig.distances.tobytes()


def test_header_variants_dispatch(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("t,d\n0,10.0\n1,11.0\n", encoding="utf-8")
    labeled = tmp_path / "labeled.csv"
    labeled.write_text("t,d,state\n0,10.0,LOS\n1,11.0,NLOSv\n", encoding="utf-8")
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("T, D, State\n0,10.0,NLOSb\n1,11.0,NLOSb\n", encoding="utf-8")

    assert read_distance_trace(plain).distances.tolist() == [10.0, 11.0]
    # A state column is tolerated (and dropped) when reading distances.
    assert read_distance_trace(labeled).distances.tolist() == [10.0, 11.0]
    got = read_labeled_traces(spaced)[0]
    assert got.states.tolist() == [2, 2]
    with pytest.raises(ParseError):
        read_labeled_traces(plain)


@pytest.mark.parametrize("text", [
    "t,d,state\n0,10.0,LOS\n1,11.0,NLOSv\n",
    "# seed=4\nt,d,state\n0,10.0,LOS\n1,11.0,NLOSv\n",
], ids=["header-first", "comment-first"])
def test_both_readers_skip_a_byte_order_mark(tmp_path, text):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert read_distance_trace(marked).distances.tolist() == [10.0, 11.0]
    (got,), (expected,) = read_labeled_traces(marked), read_labeled_traces(plain)
    assert (got.times.tolist(), got.distances.tolist(), got.states.tolist()) == \
        (expected.times.tolist(), expected.distances.tolist(), expected.states.tolist())


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,d,state\n0,10.0,LOS\n1,11.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_labeled_traces(path)
    assert err.value.line == 3
    path.write_text("t,d,state\n0,10.0,LOS\n1,11.0,SOMETIMES\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_labeled_traces(path)
    assert err.value.line == 3


def test_invalid_distance_is_range_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,d\n0,10.0\n1,-5.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 3") as err:
        read_distance_trace(path)
    assert err.value.line == 3


# Every rule a trace-file row must meet: a row that breaks it, and the error's text.
ROW_RULES = {
    "columns": ("1,11.0", "expected 3 columns, got 2"),
    "int": ("x,11.0,LOS", "invalid literal for int() with base 10: 'x'"),
    "float": ("1,d,LOS", "could not convert string to float: 'd'"),
    "nan": ("1,nan,LOS", "distance must be finite and positive, got nan"),
    "inf": ("1,inf,LOS", "distance must be finite and positive, got inf"),
    "zero": ("1,0,LOS", "distance must be finite and positive, got 0"),
    "negative": ("1,-5.0,LOS", "distance must be finite and positive, got -5.0"),
    "state": ("1,11.0,LOS?", "unknown state 'LOS?'"),
    "time": ("9223372036854775808,11.0,LOS", "time 9223372036854775808 does not fit in a 64-bit integer"),
}


def row_rule_file(path, rule):
    """A labelled file whose line 4 breaks ``rule``."""
    path.write_text(f"# seed=1\nt,d,state\n0,10.0,LOS\n{ROW_RULES[rule][0]}\n2,12.0,NLOSb\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "row-by-row"])
@pytest.mark.parametrize("read", [read_labeled_traces, read_distance_trace], ids=["labeled", "distance"])
@pytest.mark.parametrize("rule", ROW_RULES)
def test_every_row_rule_is_a_parse_error_naming_its_line(tmp_path, rule, read, bulk):
    path = row_rule_file(tmp_path / "in.csv", rule)
    with mock.patch.object(trace_io, "_USE_LOADTXT", bulk and trace_io._USE_LOADTXT):
        with pytest.raises(ParseError) as err:
            read(path)
    assert err.value.line == 4 and str(err.value) == f"line 4: {ROW_RULES[rule][1]}"


@pytest.mark.parametrize("header", ["t,d", "t,d,state"])
def test_a_header_with_only_comments_and_blank_lines_after_it_has_no_data_rows(tmp_path, header):
    path = tmp_path / "empty.csv"
    path.write_text(f"# seed=1\n{header}\n# no rows\n\n  \n#\n", encoding="utf-8")
    for read in (read_labeled_traces, read_distance_trace, lambda p: estimation._count_file(p, None)):
        with pytest.raises(ParseError) as err:
            read(path)
        assert str(err.value) == "no data rows found" and err.value.line is None


def test_distance_reader_rejects_multiple_traces(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("t,d\n0,10.0\n1,11.0\n0,20.0\n1,21.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="single trace"):
        read_distance_trace(path)


def test_comment_lines_anywhere_are_skipped_and_keep_line_numbers(tmp_path):
    path = tmp_path / "comments.csv"
    text = "# scenario=urban-medium\n# seed=41\nt,d,state\n0,10.0,LOS\n  # seed=x\n1,11.0,NLOSb\n#\n0,20.0,NLOSv\n"
    path.write_text(text, encoding="utf-8")
    got = read_labeled_traces(path)
    assert [(t.times.tolist(), t.distances.tolist(), t.states.tolist()) for t in got] == \
        [([0, 1], [10.0, 11.0], [0, 2]), ([0], [20.0], [1])]
    path.write_text(text + "# note\n1,x,LOS\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_labeled_traces(path)
    assert err.value.line == 10


def test_time_gap_rejected(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("t,d,state\n0,10.0,LOS\n2,11.0,LOS\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_labeled_traces(path)


# The block reader against the row-by-row reader it replaced. The reference
# below is that reader, unchanged: one Python tuple per row, traces split by
# comparing neighbouring tuples.


def ref_parse_rows(path):
    labeled = None
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                continue
            parts = line.split(",")
            if labeled is None:
                lowered = tuple(p.strip().lower() for p in parts)
                if lowered == ("t", "d"):
                    labeled = False
                elif lowered == ("t", "d", "state"):
                    labeled = True
                else:
                    raise ParseError(f"header must be 't,d' or 't,d,state', got {','.join(parts)!r}", line=lineno)
                continue
            expected = 3 if labeled else 2
            if len(parts) != expected:
                raise ParseError(f"expected {expected} columns, got {len(parts)}", line=lineno)
            try:
                t = int(parts[0])
                d = float(parts[1])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            if not math.isfinite(d) or d <= 0.0:
                raise ParseError(f"distance must be finite and positive, got {parts[1]}", line=lineno)
            state = None
            if labeled:
                name = parts[2].strip()
                if name not in LosState.__members__:
                    raise ParseError(f"unknown state {name!r}", line=lineno)
                state = LosState[name]
            rows.append((t, d, state))
    if labeled is None:
        raise ParseError("no header row found")
    if not rows:
        raise ParseError("no data rows found")
    return labeled, rows


def ref_split_traces(rows):
    groups = [[rows[0]]]
    for prev, cur in zip(rows, rows[1:]):
        if cur[0] <= prev[0]:
            groups.append([cur])
        else:
            groups[-1].append(cur)
    return groups


def ref_read_distance_trace(path):
    _, rows = ref_parse_rows(path)
    groups = ref_split_traces(rows)
    if len(groups) > 1:
        raise ParseError(f"expected a single trace, found {len(groups)} (time restarts)")
    ts = np.asarray([r[0] for r in rows], dtype=np.int64)
    ds = np.asarray([r[1] for r in rows], dtype=float)
    try:
        return DistanceTrace(ts, ds)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def ref_read_labeled_traces(path):
    labeled, rows = ref_parse_rows(path)
    if not labeled:
        raise ParseError("file has no state column")
    traces = []
    for group in ref_split_traces(rows):
        ts = np.asarray([r[0] for r in group], dtype=np.int64)
        ds = np.asarray([r[1] for r in group], dtype=float)
        ss = np.asarray([int(r[2]) for r in group], dtype=np.int8)
        try:
            traces.append(StateTrace(DistanceTrace(ts, ds), ss))
        except DomainError as exc:
            raise ParseError(str(exc)) from exc
    return traces


def outcome(read, path):
    """What a reader makes of a file: its traces bit for bit, or its exception."""
    try:
        result = read(path)
    except Exception as exc:
        return ("raises", type(exc), str(exc), getattr(exc, "line", None))
    digests = []
    for trace in result if isinstance(result, list) else [result]:
        digest = [trace.times.dtype.str, trace.times.tobytes(), trace.distances.dtype.str, trace.distances.tobytes()]
        if isinstance(trace, StateTrace):
            digest += [trace.states.dtype.str, trace.states.tobytes()]
        digests.append(tuple(digest))
    return ("reads", digests)


def assert_readers_agree(path):
    for new, ref in ((read_labeled_traces, ref_read_labeled_traces), (read_distance_trace, ref_read_distance_trace)):
        assert outcome(new, path) == outcome(ref, path)


_STATE_NAMES = ("LOS", "NLOSv", "NLOSb")
_PAD = st.sampled_from(["", "", " ", "  ", "\t", "\x0b", "\xa0", " "])
_FILLER = st.sampled_from(
    ["", " ", "\t", " \t ", "#", "# note", "# scenario=urban-low", "#seed=7", "  # seed = 12",
     "## seed=x", "# scenario = a=b", "#=", "# t,d,state"]
)
_DISTANCE = st.one_of(
    st.floats(min_value=5e-324, max_value=1e6).map(repr),
    st.floats(min_value=0.001, max_value=500.0).map(lambda x: f"{x:.3f}"),
    st.floats(min_value=1e-3, max_value=500.0).map(lambda x: f"{x:e}"),
    st.integers(1, 500).map(str),
    st.sampled_from(["1_0.5", "１２.5", "+3.5", "5.", ".5", "1e2", "500.0"]),
)
# Replacement fields, each making a row that the reference reader rejects,
# except for a few odd but valid spellings.
_BAD_TIME = st.sampled_from(["1.5", "x", "", "1e3", "0x1", "Ǿ12", "12\x1c", "- 1", "1 2", "١٢"])
_BAD_FLOAT = st.sampled_from(["abc", "", "1.2.3", "1.5x", "1.5\x1c", "\x1f2.5", "1_5", "Ǿ"])
_BAD_DISTANCE = st.sampled_from(["nan", "inf", "-inf", "0", "-1.5", "0.0", "-0.0", "1e-400", "1e400", "NaN", "Infinity"])
_BAD_STATE = st.sampled_from(["los", "LOSX", "", "NLOSbb", "LOS\x00", "NLOS", "LOSLOSLOS", "Ǿ", "LOS\x1c", "\x85NLOSv"])


def _time_text(draw, t, clean):
    form = "plain" if clean else draw(st.sampled_from(["plain", "plus", "zeros", "underscore", "fullwidth"]))
    if t < 0 or form == "plain":
        return str(t)
    if form == "plus":
        return f"+{t}"
    if form == "zeros":
        return f"00{t}"
    if form == "underscore":
        return "_".join(str(t)) if t >= 10 else str(t)
    return "".join(chr(ord(c) - ord("0") + ord("０")) for c in str(t))


# The first mutation of a trace file; a count's tests draw more valid files and held faults.
_MUTATIONS = (None, None, "columns", "time", "float", "distance", "state", "gap", "no data", "no header")
_COUNT_MUTATIONS = (None, None, None, "gap", "gap", "float")


@st.composite
def trace_files(draw, mutations=_MUTATIONS, labeled=None):
    """Text of a trace file: comments and blank lines anywhere, several traces, two mutations at most.

    Half the files pad no field and spell every time plainly, so that whole
    blocks reach the bulk conversion. The second mutation is a held fault, a
    time gap or restart, often with a bad row after it, which a whole read
    reports instead.
    """
    labeled = draw(st.booleans()) if labeled is None else labeled
    clean = draw(st.booleans())
    pad = st.just("") if clean else _PAD
    lines = []  # each entry a string, or a data row as a list of fields

    def filler():
        lines.extend(draw(st.lists(_FILLER, max_size=2)))

    filler()
    names = ("t", "d", "state") if labeled else ("t", "d")
    lines.append(",".join(draw(_PAD) + draw(st.sampled_from([n, n.upper(), n.title()])) + draw(_PAD) for n in names))
    header = len(lines) - 1
    rows = []
    traces = []  # the indices of each trace's rows
    last = None
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(-3, 12)) if last is None else last - draw(st.integers(0, 3))
        traces.append([])
        for k in range(draw(st.integers(1, 6))):
            filler()
            fields = [start + k, draw(_DISTANCE)] + ([draw(st.sampled_from(_STATE_NAMES))] if labeled else [])
            lines.append(fields)
            rows.append(len(lines) - 1)
            traces[-1].append(len(lines) - 1)
            last = start + k
    filler()

    if len(traces) > 1 and draw(st.booleans()):
        # A held fault in an earlier trace, then often a bad row in the last.
        held = draw(st.sampled_from([row for trace in traces[:-1] for row in trace]))
        lines[held][0] += draw(st.sampled_from([2, 3, -1, -4]))  # a gap, or a restart and the gap after it
        if draw(st.booleans()):
            lines[draw(st.sampled_from(traces[-1]))][1] = draw(_BAD_FLOAT)

    mutation = draw(st.sampled_from(mutations))
    row = lines[draw(st.sampled_from(rows))]
    if mutation == "columns":
        if draw(st.booleans()):
            row.append(draw(st.sampled_from(["", "LOS", "1"])))
        else:
            row.pop()
    elif mutation == "time":
        row[0] = draw(_BAD_TIME)
    elif mutation == "float":
        row[1] = draw(_BAD_FLOAT)
    elif mutation == "distance":
        row[1] = draw(_BAD_DISTANCE)
    elif mutation == "state" and labeled:
        row[2] = draw(_BAD_STATE)
    elif mutation == "gap":
        row[0] += draw(st.integers(1, 3))
    elif mutation == "no data":
        lines = [line for line in lines if isinstance(line, str)]
    elif mutation == "no header":
        del lines[header]

    text = []
    for line in lines:
        if isinstance(line, list):
            fields = [_time_text(draw, line[0], clean) if isinstance(line[0], int) else line[0], *line[1:]]
            line = ",".join(draw(pad) + f + draw(pad) for f in fields)
        text.append(line)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(text) + draw(st.sampled_from(["", newline]))


@settings(max_examples=500, deadline=None)
@given(text=trace_files(), block=st.integers(1, 64))
def test_block_reader_matches_row_reader(text, block):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(trace_io, "_BLOCK_BYTES", block):
        path = Path(tmp) / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_readers_agree(path)


# The file counter against the pipeline it replaced in estimate: accumulate over
# read_labeled_traces, which parses the whole file first, so only a distance above
# 500 m is left for accumulate to raise. A worker process with one thread, so that
# it may fork, counts each file in one process, split at each block edge, split at
# none, and split where accumulate(path) splits it, and then again in one process
# and at each split with the plain-row kernel refusing every chunk, so that every
# row goes through the exact parse; every result, counts or exception, must agree.
_COUNT_WORKER = """
import os, pickle, sys
from v2vlos import estimation, traces


def outcome(count):
    try:
        occupancy, transitions = count()
    except Exception as exc:
        return ("raises", type(exc).__name__, str(exc), getattr(exc, "line", None))
    return ("counts", occupancy.dtype.str, occupancy.tolist(), transitions.tolist())


estimation._SHARD_BYTES = 0
kernel = estimation._bin_plain
while True:
    try:
        path, block, splits = pickle.load(sys.stdin.buffer)
    except EOFError:
        break
    traces._BLOCK_BYTES = block
    got = [outcome(lambda: estimation.accumulate(traces.read_labeled_traces(path))),
           outcome(lambda: estimation.accumulate(path))]
    got += [outcome(lambda: estimation._count_file(path, split)) for split in splits]
    estimation._bin_plain = lambda data: None
    got += [outcome(lambda: estimation._count_file(path, split)) for split in [None, *splits]]
    estimation._bin_plain = kernel
    try:
        got.append(("a child is left", os.waitpid(-1, os.WNOHANG)))
    except ChildProcessError:
        pass
    pickle.dump(got, sys.stdout.buffer)
    sys.stdout.buffer.flush()
"""


@pytest.fixture(scope="module")
def count_worker():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    worker = subprocess.Popen([sys.executable, "-c", _COUNT_WORKER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              env=env)
    yield worker
    worker.stdin.close()
    assert worker.wait(timeout=60) == 0
    worker.stdout.close()


def block_edges(path, block):
    """Split points that cut the file's chunks of ``block`` bytes (``traces._chunks``) at each edge, and one that cuts none."""
    with mock.patch.object(trace_io, "_BLOCK_BYTES", block):
        try:
            sizes = [len(data) for data, *_ in itertools.islice(trace_io._chunks(path), 1, None)]
        except ParseError:  # no header
            sizes = []
    return [0, *itertools.accumulate(sizes), sum(sizes) + 1]


def assert_counted_as_before(worker, text, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        pickle.dump((str(path), block, block_edges(path, block)), worker.stdin)
        worker.stdin.flush()
        reference, *got = pickle.load(worker.stdout)
    assert got == [reference] * len(got)
    return reference


_can_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="splits the count with os.fork")


@_can_fork
@settings(max_examples=100, deadline=None)
@given(text=st.one_of(trace_files(), trace_files(_COUNT_MUTATIONS, labeled=True)), block=st.integers(1, 64))
def test_the_file_counter_counts_as_the_trace_pipeline_did_at_every_split(count_worker, text, block):
    assert_counted_as_before(count_worker, text, block)


@_can_fork
@pytest.mark.parametrize("text, error", [
    ("t,d\n# no rows\n", "no data rows found"),
    ("t,d,state\n# no rows\n\n  \n#\n", "no data rows found"),
    ("t,d\n0,1.0\n1,2.0\n", "file has no state column"),
    ("t,d,state\n0,600.0,LOS\n1,10.0,LOS\n2,700.0,LOS\n3,20.0,LOS\n", "trace distance 600.0 outside [0, 500.0]"),
    ("t,d,state\n0,600.0,LOS\n1,10.0,LOS\n2,700.0,LOS\n4,20.0,LOS\n", "time steps must increase by exactly one second"),
    ("t,d,state\n0,600.0,LOS\n2,10.0,LOS\n0,7.0,LOS\n1,x,LOS\n", "line 5: could not convert string to float: 'x'"),
])
@pytest.mark.parametrize("block", [1, 16])
def test_the_file_counter_keeps_the_fault_order_at_every_split(count_worker, text, error, block):
    assert assert_counted_as_before(count_worker, text, block)[2] == error


# Distances a hair below each multiple of 10 m (12 to 14 nines), the largest below 500 m, one that float rounds up
# to 10 m, 500 m, one that rounds down to it and one above it, one below 1 m, leading zeros, a bare dot and no dot.
_EDGE_DISTANCES = [f"{m - 1}.{'9' * k}" for m in range(10, 501, 10) for k in (12, 13, 14)] + [
    "499.99999999999997", "9.9999999999999995", "500.0", "500.", "500.000", "500.00000000000001", "500.5", "0.5",
    "007.5", "01.25", "09.5", "5.", "12"]
# Spellings the exact parse reads, or rejects, that the kernel must leave to it.
_ODD_DISTANCES = ["1e2", "2.5E1", "2.5e-1", "+3.5", "-3.5", " 3.5", "3.5 ", "1_0.5", "１２.5", "１.5", "١٢.5",
                  "1\x1c2.5", "12.5\x1c", ".5", "0.0", "0007.5", "12a.5", "3.5x", "1:5.5", "nan", "x", "500.0000000000001",
                  "501.0", "999.0"]
_ODD_TIMES = ["", "+{}", " {}", "{} ", "1{:0>18}", "99{:0>17}", "{}.0", "{}_0", "١{}"]
_ODD_STATES = ["LOS ", " NLOSv", "los", "NLOSx", "NLOS", "LOS\x00", "LOSv", "XLOSv", "NLOSbb"]
_ODD_ENDS = ["\r\n", "\n\n", "\n# note\n", "\n  \n", "\n#\n", "\n123"]


@st.composite
def plain_files(draw):
    """A labelled file of plain rows at edge distances, with up to two mutations that the kernel must refuse."""
    lines = draw(st.lists(st.sampled_from(["# seed=1", ""]), max_size=2)) + ["t,d,state"]
    rows, t = [], draw(st.sampled_from([0, 7, 10**17 - 3, 10**18 - 4]))  # the last runs from 18 digits into 19
    for _ in range(draw(st.integers(1, 40))):
        t = t + 1 if draw(st.integers(0, 7)) else draw(st.integers(0, 3))
        d = draw(st.floats(1.0, 500.0).map(repr) if draw(st.integers(0, 15)) else st.sampled_from(_EDGE_DISTANCES))
        rows.append([str(t), d, draw(st.sampled_from(_STATE_NAMES)), "\n"])
    for _ in range(draw(st.integers(0, 2))):
        row, field = draw(st.sampled_from(rows)), draw(st.integers(0, 3))
        odd = draw(st.sampled_from([_ODD_TIMES, _ODD_DISTANCES, _ODD_STATES, _ODD_ENDS][field]))
        row[field] = odd.format(row[0]) if field == 0 else odd
    text = "".join(line + "\n" for line in lines) + "".join(",".join(row[:3]) + row[3] for row in rows)
    return text if draw(st.booleans()) else text[:-len(rows[-1][3])]  # with or without the last line end


@_can_fork
@settings(max_examples=150, deadline=None)
@given(text=plain_files(), block=st.integers(16, 512))
def test_the_kernel_counts_as_the_exact_parse_in_one_process_and_split(count_worker, text, block):
    assert_counted_as_before(count_worker, text, block)


@pytest.mark.parametrize("field, odd", [(field, odd) for field, spellings in enumerate(
    [_ODD_TIMES, _ODD_DISTANCES, _ODD_STATES, _ODD_ENDS]) for odd in spellings])
def test_the_kernel_leaves_each_odd_spelling_to_the_exact_parse(tmp_path, field, odd):
    rows = [[str(t), f"{10.5 + t}", "NLOSv", "\n"] for t in range(6)]
    row = rows[5 if field == 3 else 3]  # a line end or what follows it, last in the file
    row[field] = odd.format(row[0]) if field == 0 else odd
    text = "".join(",".join(row[:3]) + row[3] for row in rows)
    assert estimation._bin_plain(text.encode("utf-8")) is None
    path = tmp_path / "odd.csv"
    path.write_text("t,d,state\n" + text, encoding="utf-8")
    kernel = counted_in_one_process(path)
    with mock.patch.object(estimation, "_bin_plain", lambda data: None):
        assert counted_in_one_process(path) == kernel


def counted_in_one_process(path):
    """The counts of a file, or its exception's type, message and line."""
    try:
        return [counts.tolist() for counts in estimation._count_file(path, None)]
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "line", None))


@pytest.mark.parametrize("distance, bin_", [("9.9999999999999995", 1), ("19.99999999999999", 1),
                                            ("19.9999999999999", 1), ("19.999999999999", 1), ("499.99999999999997", 49),
                                            ("500.0", 49), ("500.", 49), ("500.000", 49)],
                         ids=["9.9999999999999995", "19.99999999999999", "19.9999999999999", "19.999999999999",
                              "499.99999999999997", "500.0", "500.", "500.000"])
def test_a_distance_a_hair_below_a_bin_edge_counts_in_the_bin_of_its_float(tmp_path, distance, bin_):
    # float rounds the first up to 10.0; the others stay below their multiple of 10 or are 500 m, in the last bin.
    path = tmp_path / "edge.csv"
    path.write_text(f"t,d,state\n0,{distance},NLOSb\n", encoding="utf-8")
    occupancy, _ = estimation.accumulate(path)
    assert occupancy[bin_, 2] == occupancy.sum() == 1 and bin_ == min(int(float(distance) // 10), 49)
    # The kernel refuses an integer part ending in 9 whose fraction starts with 13 nines, and takes the others.
    refused = estimation._bin_plain(f"0,{distance},NLOSb\n".encode()) is None
    assert refused == distance.partition(".")[2].startswith("9" * 13)


@pytest.mark.parametrize("block", [1 << 10, 1 << 17])
def test_the_kernel_takes_every_chunk_a_walk_or_fleet_file_holds(tmp_path, monkeypatch, block):
    from v2vlos.cli import main

    monkeypatch.setattr(trace_io, "_BLOCK_BYTES", block)
    walk, fleet = tmp_path / "walk.csv", tmp_path / "fleet.csv"
    generate = ["generate", "--env", "highway", "--density", "medium", "--steps", "500", "--count", "40"]
    assert main([*generate, "--profile", "walk", "--vmax", "20", "--d0", "250", "--out", str(walk)]) == 0
    assert main([*generate, "--out", str(fleet)]) == 0  # separate1ms, from 1.0 to 500.0 m
    for path in (walk, fleet):
        chunks = list(trace_io._chunks(path))[1:]
        assert len(chunks) > 1 and all(estimation._bin_plain(data) is not None for data, *_ in chunks)
    assert any(b",500.0," in data for data, *_ in chunks)  # separate1ms traces end at 500 m


@pytest.mark.parametrize("field, value", [
    (0, "Ǿ12"), (0, "12Ǿ"), (0, "١٢"), (0, "１２"), (0, "12\x1c"), (0, "\x1f12"), (0, "1_2"), (0, "12\xa0"),
    (1, "\x1c2.5"), (1, "2.5\x1d"), (1, "Ǿ"), (1, "１.5"), (1, "2_5.5"), (1, "\u20032.5"),
    (2, "LOS\x00"), (2, "LOS\x00\x00\x00"), (2, "NLOSv\x1e"), (2, "\x85NLOSb"), (2, "LOSXXXXXXX"), (2, "\x0bLOS"),
])
def test_fields_np_loadtxt_reads_differently(tmp_path, field, value):
    """Fields that np.loadtxt reads otherwise than int, float and the state check, in a clean file."""
    rows = [[str(t), f"{10.0 + t}", "NLOSv"] for t in range(6)]
    rows[3][field] = value
    path = tmp_path / "quirk.csv"
    path.write_text("t,d,state\n" + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    for block in (16, 40, 1 << 17):
        with mock.patch.object(trace_io, "_BLOCK_BYTES", block):
            assert_readers_agree(path)


def test_block_reader_matches_row_reader_across_full_blocks(tmp_path):
    rng = np.random.default_rng(5)
    n = 6000  # about 0.35 MB of rows in all: three default chunks
    traces = [
        StateTrace(DistanceTrace(np.arange(size), rng.uniform(1.0, 500.0, size)), rng.integers(0, 3, size))
        for size in (n - 3, 7, n + 11)
    ]
    path = tmp_path / "big.csv"
    write_state_traces(traces, path, provenance=["# scenario=urban-low", "# seed=4"])
    assert_readers_agree(path)
    with mock.patch.object(trace_io, "_USE_LOADTXT", False):  # as under older numpy
        assert_readers_agree(path)
    back = read_labeled_traces(path)
    assert [len(t) for t in back] == [n - 3, 7, n + 11]
    # A state spelled with spaces takes the row-by-row path in one block only.
    lines = path.read_text().splitlines()
    lines[n + 40] = lines[n + 40].replace(",", " , ")
    path.write_text("\n".join(lines) + "\n")
    assert_readers_agree(path)
    lines[2 * n + 5] = lines[2 * n + 5].rsplit(",", 1)[0] + ",LOS?"
    path.write_text("\n".join(lines) + "\n")
    assert_readers_agree(path)
    with pytest.raises(ParseError) as err:
        read_labeled_traces(path)
    assert err.value.line == 2 * n + 6


def test_undecodable_bytes_raise_after_earlier_rows(tmp_path):
    body = b"t,d,state\n0,1.5,LOS\n" + b"".join(b"%d,2.5,NLOSv\n" % t for t in range(1, 3000))
    path = tmp_path / "bad.csv"
    with mock.patch.object(trace_io, "_BLOCK_BYTES", 1024):
        # The row error comes first, as in a reader that goes line by line.
        path.write_bytes(body.replace(b"\n7,2.5,", b"\n7,-2.5,") + b"\xff\n")
        assert_readers_agree(path)
        with pytest.raises(ParseError, match="line 9"):
            read_labeled_traces(path)
        path.write_bytes(body[:100] + b"\xff" + body[100:])
        assert_readers_agree(path)
        with pytest.raises(UnicodeDecodeError):
            read_labeled_traces(path)


def test_undecodable_bytes_inside_one_default_block(tmp_path):
    # About 36 kB of rows: the bad byte lies past the first 8 KiB decode
    # chunk, so it is met while a block of the default size is being read.
    body = b"t,d,state\n" + b"".join(b"%d,2.5,NLOSv\n" % t for t in range(3000))
    assert 8192 < len(body) < trace_io._BLOCK_BYTES
    path = tmp_path / "bad.csv"
    path.write_bytes(body + b"\xff\n")
    with pytest.raises(UnicodeDecodeError):
        read_labeled_traces(path)
    # A bad row decoded before the bad byte is reported first, with its line.
    path.write_bytes(body.replace(b"\n5,2.5,", b"\n5,-2.5,") + b"\xff\n")
    with pytest.raises(ParseError, match="line 7"):
        read_labeled_traces(path)


def test_lone_cr_line_ends_count_as_lines_in_every_chunk(tmp_path, monkeypatch):
    # Text mode ends a line at a lone CR too; the chunks end only at LF, so a chunk's lone CRs set later line numbers.
    monkeypatch.setattr(trace_io, "_BLOCK_BYTES", 16)
    path = tmp_path / "mixed.csv"
    path.write_bytes(b"t,d,state\r\n" + b"".join(b"%d,1.5,LOS\r%d,2.5,NLOSv\n" % (2 * k, 2 * k + 1) for k in range(20))
                     + b"40,x,LOS\n")
    assert_readers_agree(path)
    for read in (read_labeled_traces, lambda p: estimation._count_file(p, None)):
        with pytest.raises(ParseError) as err:
            read(path)
        assert err.value.line == 42


def _labeled_rows(start, n, state="LOS"):
    return "".join(f"{t},{10.0 + t},{state}\n" for t in range(start, start + n))


def test_a_bad_row_later_in_the_file_beats_a_held_time_gap(tmp_path, monkeypatch):
    monkeypatch.setattr(trace_io, "_BLOCK_BYTES", 48)
    path = tmp_path / "gap.csv"
    gap = "t,d,state\n0,10.0,LOS\n1,11.0,LOS\n3,13.0,LOS\n" + _labeled_rows(0, 30)
    path.write_text(gap + "30,abc,LOS\n")
    with pytest.raises(ParseError, match="could not convert string to float: 'abc'") as err:
        read_labeled_traces(path)
    assert err.value.line == 35
    # Without the bad row the gap is the error.
    path.write_text(gap)
    with pytest.raises(ParseError, match="exactly one second") as err:
        read_labeled_traces(path)
    assert err.value.line is None


@pytest.mark.parametrize("block", [1, 3, 8, 64])
def test_a_trace_spanning_blocks_reads_back_bit_for_bit(tmp_path, monkeypatch, block):
    monkeypatch.setattr(trace_io, "_BLOCK_BYTES", 25 * block)  # about ``block`` rows
    rng = np.random.default_rng(block)
    long = StateTrace(DistanceTrace(np.arange(-20, 180), rng.uniform(1.0, 500.0, 200)), rng.integers(0, 3, 200))
    short = StateTrace(DistanceTrace(np.arange(5, 8), rng.uniform(1.0, 500.0, 3)), rng.integers(0, 3, 3))
    path = tmp_path / "long.csv"
    write_state_traces([short, long, short], path, provenance=["# seed=3"])
    back = read_labeled_traces(path)
    assert len(back) == 3
    for got, want in zip(back, [short, long, short]):
        for column in ("times", "distances", "states"):
            a, b = getattr(got, column), getattr(want, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not a.flags.writeable


def test_failed_write_keeps_the_old_file(tmp_path):
    model = builtin_model(Environment.URBAN, Density.MEDIUM)
    good = DistanceTrace.from_distances([10.0, 11.0, 12.0])
    over = DistanceTrace.from_distances([499.0, 500.0, 501.0])
    path = tmp_path / "out.csv"
    path.write_bytes(b"old contents\n")
    # The good trace reaches the temporary file before the batch fails.
    with pytest.raises(BatchError):
        write_state_traces(chain(model).batch([good, over], 3), path)
    assert path.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_a_temporary_name_collision_overwrites_nothing(tmp_path, monkeypatch):
    taken = tmp_path / "out.csv.000000000000.tmp"
    taken.write_bytes(b"another writer's\n")
    monkeypatch.setattr(trace_io.os, "urandom", bytes)  # six zero bytes: the name taken above
    with pytest.raises(FileExistsError), trace_io.atomic_output(tmp_path / "out.csv") as handle:
        handle.write("t,d\n")
    assert taken.read_bytes() == b"another writer's\n"
    assert [p.name for p in tmp_path.iterdir()] == [taken.name]


def test_time_beyond_int64_is_parse_error(tmp_path):
    path = tmp_path / "big.csv"
    for value in ("9223372036854775808", "-9223372036854775809", "99999999999999999999"):
        path.write_text(f"# seed=1\nt,d,state\n{value},10.0,LOS\n", encoding="utf-8")
        for read in (read_labeled_traces, read_distance_trace):
            with pytest.raises(ParseError, match="64-bit") as err:
                read(path)
            assert err.value.line == 3
        # The row reader accepted the row and failed later, outside ParseError.
        with pytest.raises(OverflowError):
            ref_read_labeled_traces(path)
    path.write_text("t,d\n9223372036854775806,10.0\n9223372036854775807,11.0\n-9223372036854775808,3.0\n")
    assert_readers_agree(path)
    # The step from the smallest to the largest time wraps in int64 arithmetic.
    path.write_text("t,d,state\n-9223372036854775808,1.0,LOS\n9223372036854775807,2.0,LOS\n")
    assert_readers_agree(path)
    with pytest.raises(ParseError, match="exactly one second"):
        read_labeled_traces(path)
