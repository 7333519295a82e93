"""Urban-micro baseline: closed form, memoryless trace generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vlos import (
    DistanceTrace,
    DomainError,
    LosState,
    UmiParams,
    baseline,
    umi_los_probability,
)


def constant_trace(d, n):
    return DistanceTrace(np.arange(n, dtype=np.int64), np.full(n, float(d)))


def test_probability_is_one_at_and_below_d1():
    for d in (0.5, 1.0, 10.0, 17.99, 18.0):
        assert umi_los_probability(d) == 1.0


def test_probability_at_36_hand_evaluated():
    expected = 0.5 * (1.0 - math.exp(-1.0)) + math.exp(-1.0)
    assert umi_los_probability(36.0) == pytest.approx(expected, abs=1e-15)
    assert umi_los_probability(36.0) == pytest.approx(0.6840, abs=1e-4)


def test_probability_strictly_positive_at_large_distance():
    p = umi_los_probability(1.0e6)
    assert 0.0 < p < 1.0e-4


def test_probability_non_increasing_beyond_d1():
    ds = np.arange(18.0, 2000.0, 0.5)
    ps = [umi_los_probability(float(d)) for d in ds]
    assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))


@settings(max_examples=300, deadline=None)
@given(
    d=st.floats(min_value=1e-3, max_value=1e4),
    d1=st.floats(min_value=1e-2, max_value=100.0),
    d2=st.floats(min_value=1e-2, max_value=100.0),
)
def test_probability_is_the_closed_form_bit_for_bit(d, d1, d2):
    e = math.exp(-d / d2)
    assert umi_los_probability(d, UmiParams(d1, d2)) == min(d1 / d, 1.0) * (1.0 - e) + e


def test_domain_and_param_validation():
    for bad in (0.0, -3.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            umi_los_probability(bad)
    with pytest.raises(ValueError):
        UmiParams(d1=0.0)
    with pytest.raises(ValueError):
        UmiParams(d2=-1.0)
    for bad in (math.inf, -math.inf, math.nan):
        for params in ({"d1": bad}, {"d2": bad}):
            with pytest.raises(ValueError, match="finite and positive"):
                UmiParams(**params)


def test_all_los_when_within_d1():
    trace = DistanceTrace.from_distances(np.linspace(1.0, 18.0, 30))
    out = baseline().trace(trace, 4)
    assert np.all(out.states == int(LosState.LOS))


def test_nlosv_never_emitted():
    trace = DistanceTrace.from_distances(np.linspace(1.0, 500.0, 500))
    out = baseline().trace(trace, 4)
    assert not np.any(out.states == int(LosState.NLOSv))


def test_los_fraction_at_36():
    n = 10**5
    out = baseline().trace(constant_trace(36.0, n), 21)
    frac = int((out.states == 0).sum()) / n
    assert abs(frac - 0.6840) < 0.01


def test_determinism():
    trace = DistanceTrace.from_distances(np.linspace(1.0, 400.0, 400))
    a = baseline().trace(trace, 77)
    b = baseline().trace(trace, 77)
    assert np.array_equal(a.states, b.states)


def test_per_step_independence_lag1():
    # At fixed distance P(LOS | prev LOS) and P(LOS | prev NLOSb) coincide.
    n = 10**6
    out = baseline().trace(constant_trace(36.0, n), 5)
    s = out.states
    prev_los = s[:-1] == 0
    prev_blk = ~prev_los
    p_after_los = int((s[1:][prev_los] == 0).sum()) / int(prev_los.sum())
    p_after_blk = int((s[1:][prev_blk] == 0).sum()) / int(prev_blk.sum())
    assert abs(p_after_los - p_after_blk) < 0.01


def test_batch_umi_sub_seeding():
    trace = constant_trace(100.0, 50)
    batch = list(baseline().batch([trace, trace], 9))
    assert len(batch) == 2
    assert not np.array_equal(batch[0].states, batch[1].states)
    again = list(baseline().batch([trace, trace], 9))
    assert np.array_equal(batch[0].states, again[0].states)
    assert np.array_equal(batch[1].states, again[1].states)
