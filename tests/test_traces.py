"""Synthetic mobility, dwell statistics, trace files, Fresnel clearance."""

import math

import numpy as np
import pytest

from v2vlos import (
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
    dwell_statistics,
    fresnel_clearance_radius,
    generate_states,
    merge_dwell,
    read_distance_trace,
    read_labeled_traces,
    synth_distance_trace,
    write_state_trace,
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


def test_synthesis_is_deterministic_per_seed():
    profile = MobilityProfile("walk", d0=100.0, n_steps=300, v_max=10.0)
    a = synth_distance_trace(profile, seed=9)
    b = synth_distance_trace(profile, seed=9)
    c = synth_distance_trace(profile, seed=10)
    assert np.array_equal(a.distances, b.distances)
    assert not np.array_equal(a.distances, c.distances)


def state_trace(states, d=50.0):
    s = np.asarray(states, dtype=np.int8)
    return StateTrace(np.arange(s.size), np.full(s.size, d), s)


def test_dwell_all_same_state():
    stats = dwell_statistics(state_trace([0] * 10))
    assert stats.changes == 0
    assert stats.mean_dwell == 10.0
    assert stats.histograms[LosState.LOS] == {10: 1}


def test_dwell_alternating():
    stats = dwell_statistics(state_trace([0, 2] * 5))
    assert stats.changes == 9
    assert stats.mean_dwell == 1.0
    assert stats.histograms[LosState.LOS] == {1: 5}
    assert stats.histograms[LosState.NLOSb] == {1: 5}


def test_dwell_runs_and_histograms():
    stats = dwell_statistics(state_trace([0, 0, 0, 1, 1, 2, 0, 0]))
    assert stats.changes == 3
    assert stats.histograms[LosState.LOS] == {3: 1, 2: 1}
    assert stats.histograms[LosState.NLOSv] == {2: 1}
    assert stats.histograms[LosState.NLOSb] == {1: 1}
    total_seconds = sum(length * n for h in stats.histograms.values() for length, n in h.items())
    assert total_seconds == stats.n_steps == 8


def test_dwell_invariant_under_relabeling():
    a = dwell_statistics(state_trace([0, 0, 1, 1, 2, 2, 0]))
    b = dwell_statistics(state_trace([1, 1, 2, 2, 0, 0, 1]))
    assert a.changes == b.changes
    assert a.mean_dwell == b.mean_dwell
    assert sorted(a.histograms[LosState.LOS].items()) == sorted(b.histograms[LosState.NLOSv].items())


def test_merge_dwell_aggregates():
    a = dwell_statistics(state_trace([0] * 10))
    b = dwell_statistics(state_trace([0, 2] * 5))
    merged = merge_dwell([a, b])
    assert merged.n_steps == 20
    assert merged.n_traces == 2
    assert merged.changes == 9
    assert merged.mean_dwell == pytest.approx(20.0 / 11.0)
    with pytest.raises(DomainError):
        merge_dwell([])


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


def test_fresnel_maximal_at_midpoint():
    total = 400.0
    xs = np.linspace(1.0, total - 1.0, 399)
    radii = [fresnel_clearance_radius(float(x), float(total - x), 2e9) for x in xs]
    assert np.argmax(radii) == np.argmin(np.abs(xs - total / 2.0))


def test_state_trace_write_read_round_trip(tmp_path):
    model = builtin_model(Environment.URBAN, Density.MEDIUM)
    trace = generate_states(model, DistanceTrace.from_distances(np.arange(1.0, 101.0)), seed=7)
    path = tmp_path / "trace.csv"
    write_state_trace(trace, path)
    back = read_labeled_traces(path)
    assert len(back) == 1
    assert np.array_equal(back[0].states, trace.states)
    assert np.array_equal(back[0].distances, trace.distances)
    assert np.array_equal(back[0].times, trace.times)


def test_write_read_write_is_byte_stable(tmp_path):
    model = builtin_model(Environment.HIGHWAY, Density.LOW)
    trace = generate_states(model, DistanceTrace.from_distances(np.linspace(3.7, 402.7, 150)), seed=1)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_state_trace(trace, p1)
    write_state_trace(read_labeled_traces(p1)[0], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_multi_trace_file(tmp_path):
    model = builtin_model(Environment.URBAN, Density.LOW)
    traces = [
        generate_states(model, DistanceTrace.from_distances(np.arange(10.0, 60.0)), seed=s)
        for s in (1, 2, 3)
    ]
    path = tmp_path / "batch.csv"
    write_state_traces(traces, path)
    back = read_labeled_traces(path)
    assert len(back) == 3
    for orig, loaded in zip(traces, back):
        assert np.array_equal(orig.states, loaded.states)


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
