"""Synthetic mobility, dwell statistics, trace files, Fresnel clearance."""

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vlos import markov
from v2vlos import traces as trace_io
from v2vlos import (
    BatchError,
    Density,
    DistanceTrace,
    DomainError,
    Environment,
    LosState,
    MobilityProfile,
    ParseError,
    RangeError,
    StateTrace,
    builtin_model,
    chain,
    dwell_statistics,
    fresnel_clearance_radius,
    read_distance_trace,
    read_labeled_traces,
    synth_distance_trace,
    write_state_traces,
)

SPEED_OF_LIGHT = 299792458.0


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
    stats = dwell_statistics([state_trace([0] * 10)])
    assert stats.changes == 0
    assert stats.mean_dwell == 10.0
    assert hist(stats, LosState.LOS) == {10: 1}


def test_dwell_alternating():
    stats = dwell_statistics([state_trace([0, 2] * 5)])
    assert stats.changes == 9
    assert stats.mean_dwell == 1.0
    assert hist(stats, LosState.LOS) == {1: 5}
    assert hist(stats, LosState.NLOSb) == {1: 5}


def test_dwell_runs_and_histograms():
    stats = dwell_statistics([state_trace([0, 0, 0, 1, 1, 2, 0, 0])])
    assert stats.changes == 3
    assert hist(stats, LosState.LOS) == {3: 1, 2: 1}
    assert hist(stats, LosState.NLOSv) == {2: 1}
    assert hist(stats, LosState.NLOSb) == {1: 1}
    assert stats.occupancy.tolist() == [5, 2, 1]
    total_seconds = sum(length * n for s in LosState for length, n in hist(stats, s).items())
    assert total_seconds == stats.n_steps == 8


def test_dwell_invariant_under_relabeling():
    a = dwell_statistics([state_trace([0, 0, 1, 1, 2, 2, 0])])
    b = dwell_statistics([state_trace([1, 1, 2, 2, 0, 0, 1])])
    assert a.changes == b.changes
    assert a.mean_dwell == b.mean_dwell
    assert sorted(hist(a, LosState.LOS).items()) == sorted(hist(b, LosState.NLOSv).items())


def test_dwell_batch_aggregates():
    merged = dwell_statistics([state_trace([0] * 10), state_trace([0, 2] * 5)])
    assert merged.n_steps == 20
    assert merged.n_traces == 2
    assert merged.changes == 9
    assert merged.mean_dwell == pytest.approx(20.0 / 11.0)
    assert merged.runs.dtype == np.int64 and not merged.runs.flags.writeable
    with pytest.raises(DomainError):
        dwell_statistics([])
    with pytest.raises(DomainError):
        dwell_statistics([state_trace([0]), state_trace([])])


def test_dwell_run_ends_at_every_trace_end():
    # Two traces of one state are two runs, not one run across the boundary.
    stats = dwell_statistics([state_trace([1, 1, 1]), state_trace([1, 1])])
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
        stats = dwell_statistics(lazy())
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
        assert (loaded.scenario, loaded.seed) == (model.tag, seed)


def reference_labeled_file(traces, provenance):
    """The text of a labeled file, formatted one row at a time."""
    rows = [f"{t},{d!r},{('LOS', 'NLOSv', 'NLOSb')[s]}\n" for trace in traces
            for t, d, s in zip(trace.times.tolist(), trace.distances.tolist(), trace.states.tolist())]
    return "".join(line + "\n" for line in provenance) + "t,d,state\n" + "".join(rows)


@settings(max_examples=200, deadline=None)
@given(
    grids=st.lists(st.tuples(st.integers(-10**6, 10**6),
                             st.lists(st.floats(1e-3, 1e6) | st.integers(1, 500).map(float), min_size=1, max_size=25)),
                   min_size=1, max_size=3),
    runs=st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), max_size=8),
    data=st.data(),
)
def test_writer_matches_row_by_row_format(grids, runs, data):
    base = [DistanceTrace(np.arange(t0, t0 + len(ds)), ds) for t0, ds in grids]
    first = base[0]
    choices = base + [
        DistanceTrace(first.times + 7, first.distances),  # the same distance array on other times
        DistanceTrace(first.times.copy(), first.distances.copy()),  # equal values in other arrays
    ]
    assert choices[-2].distances is first.distances and choices[-1].distances is not first.distances
    # Runs of one grid, in any order, so a grid can resume after another (A A B A).
    order = [choices[j % len(choices)] for j, n in runs for _ in range(n)]
    traces = [StateTrace(g, data.draw(st.lists(st.integers(0, 2), min_size=len(g), max_size=len(g)))) for g in order]
    provenance = ["# scenario=test", "# seed=3"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_state_traces(iter(traces), path, provenance)
        assert path.read_bytes() == reference_labeled_file(traces, provenance).encode("utf-8")


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
    with pytest.raises(RangeError, match="line 3"):
        read_distance_trace(path)


def test_distance_reader_rejects_multiple_traces(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("t,d\n0,10.0\n1,11.0\n0,20.0\n1,21.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="single trace"):
        read_distance_trace(path)


def test_comment_metadata_applied(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("# scenario=urban-medium\n# seed=41\nt,d,state\n0,10.0,LOS\n", encoding="utf-8")
    got = read_labeled_traces(path)[0]
    assert got.scenario == "urban-medium"
    assert got.seed == 41


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
    meta = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
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
                raise RangeError(f"line {lineno}: distance must be finite and positive, got {parts[1]}")
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
    return labeled, rows, meta


def ref_split_traces(rows):
    groups = [[rows[0]]]
    for prev, cur in zip(rows, rows[1:]):
        if cur[0] <= prev[0]:
            groups.append([cur])
        else:
            groups[-1].append(cur)
    return groups


def ref_read_distance_trace(path):
    _, rows, _ = ref_parse_rows(path)
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
    labeled, rows, meta = ref_parse_rows(path)
    if not labeled:
        raise ParseError("file has no state column")
    scenario = meta.get("scenario", "unknown")
    try:
        seed = int(meta.get("seed", "0"))
    except ValueError:
        seed = 0
    traces = []
    for group in ref_split_traces(rows):
        ts = np.asarray([r[0] for r in group], dtype=np.int64)
        ds = np.asarray([r[1] for r in group], dtype=float)
        ss = np.asarray([int(r[2]) for r in group], dtype=np.int8)
        try:
            traces.append(StateTrace(DistanceTrace(ts, ds), ss, scenario=scenario, seed=seed))
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
            digest += [trace.states.dtype.str, trace.states.tobytes(), trace.scenario, trace.seed]
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


@st.composite
def trace_files(draw):
    """Text of a trace file: comments and blank lines anywhere, several traces, one mutation at most.

    Half the files pad no field and spell every time plainly, so that whole
    blocks reach the bulk conversion.
    """
    labeled = draw(st.booleans())
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
    last = None
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(-3, 12)) if last is None else last - draw(st.integers(0, 3))
        for k in range(draw(st.integers(1, 6))):
            filler()
            fields = [start + k, draw(_DISTANCE)] + ([draw(st.sampled_from(_STATE_NAMES))] if labeled else [])
            lines.append(fields)
            rows.append(len(lines) - 1)
            last = start + k
    filler()

    mutation = draw(st.sampled_from([None, None, "columns", "time", "float", "distance", "state", "gap", "no data", "no header"]))
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
@given(text=trace_files(), block=st.integers(1, 5))
def test_block_reader_matches_row_reader(text, block):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(trace_io, "_BLOCK_LINES", block):
        path = Path(tmp) / "trace.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_readers_agree(path)


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
    for block in (2, 4, 1 << 15):
        with mock.patch.object(trace_io, "_BLOCK_LINES", block):
            assert_readers_agree(path)


def test_block_reader_matches_row_reader_across_full_blocks(tmp_path):
    rng = np.random.default_rng(5)
    n = trace_io._BLOCK_LINES
    traces = [
        StateTrace(DistanceTrace(np.arange(size), rng.uniform(1.0, 500.0, size)), rng.integers(0, 3, size),
                   scenario="urban-low", seed=4)
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
    with mock.patch.object(trace_io, "_BLOCK_LINES", 64):
        # The row error comes first, as in a reader that goes line by line.
        path.write_bytes(body.replace(b"\n7,2.5,", b"\n7,-2.5,") + b"\xff\n")
        assert_readers_agree(path)
        with pytest.raises(RangeError, match="line 9"):
            read_labeled_traces(path)
        path.write_bytes(body[:100] + b"\xff" + body[100:])
        assert_readers_agree(path)
        with pytest.raises(UnicodeDecodeError):
            read_labeled_traces(path)


def test_undecodable_bytes_inside_one_default_block(tmp_path):
    # About 36 kB of rows: the bad byte lies past the first 8 KiB decode
    # chunk, so it is met while a block of the default size is being read.
    body = b"t,d,state\n" + b"".join(b"%d,2.5,NLOSv\n" % t for t in range(3000))
    assert len(body) > 8192 and body.count(b"\n") < trace_io._BLOCK_LINES
    path = tmp_path / "bad.csv"
    path.write_bytes(body + b"\xff\n")
    with pytest.raises(UnicodeDecodeError):
        read_labeled_traces(path)
    # A bad row decoded before the bad byte is reported first, with its line.
    path.write_bytes(body.replace(b"\n5,2.5,", b"\n5,-2.5,") + b"\xff\n")
    with pytest.raises(RangeError, match="line 7"):
        read_labeled_traces(path)


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
