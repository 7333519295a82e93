"""Compiled state vectors and transition rows against a reference evaluator.

The reference below is the generic scalar evaluator the compiled rows
replaced: an ``isinstance`` dispatch per curve, the [0, 1] clamp, the
complement and the repair rule, in that order. The compiled rows must agree
with it bit for bit, because the sampler's thresholds, and with them every
generated trace, come from these values.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vlos import (
    Density,
    DistanceClampWarning,
    DomainError,
    Environment,
    ExpDecay,
    LogBell,
    LosState,
    OffsetMinusLogBell,
    Piecewise,
    Poly2,
    ScenarioModel,
    StateProbModel,
    chain,
    state_probabilities,
    transition_matrix,
)

from conftest import all_models

TOL = 1e-9


def ref_raw(spec, d):
    if isinstance(spec, Poly2):
        return (spec.a * d + spec.b) * d + spec.c
    if isinstance(spec, ExpDecay):
        return spec.a * math.exp(-spec.b * d)
    if isinstance(spec, LogBell):
        t = math.log(d) - spec.mu
        return (1.0 / (spec.s * d)) * math.exp(-(t * t) / spec.k)
    if isinstance(spec, OffsetMinusLogBell):
        return spec.offset - ref_raw(spec.inner, d)
    if isinstance(spec, Piecewise):
        return ref_raw(spec.low if d < spec.d_t else spec.high, d)
    raise TypeError(type(spec).__name__)


def ref_eval(spec, d):
    v = ref_raw(spec, d)
    if v < 0.0:
        return 0.0
    if v > 1.0:
        return 1.0
    return v


def ref_repair(values):
    if min(values) >= 0.0 and abs(sum(values) - 1.0) <= TOL:
        return values
    i_small = min(range(3), key=lambda i: (values[i], i))
    rest = [i for i in range(3) if i != i_small]
    i_keep = max(rest, key=lambda i: (values[i], -i))
    i_other = rest[1] if i_keep == rest[0] else rest[0]
    out = [0.0, 0.0, 0.0]
    out[i_keep] = min(max(values[i_keep], 0.0), 1.0)
    out[i_other] = 1.0 - out[i_keep]
    return (out[0], out[1], out[2])


def ref_unrepaired(explicit, complement, d):
    vals = [0.0, 0.0, 0.0]
    total = 0.0
    for state, spec in explicit.items():
        v = ref_eval(spec, d)
        vals[int(state)] = v
        total += v
    vals[int(complement)] = 1.0 - total
    return (vals[0], vals[1], vals[2])


def ref_vector(model, origin, d):
    """Origin -1 is the state-probability vector; 0..2 are transition rows."""
    part = model.state_probs if origin < 0 else model.rows[origin]
    return ref_repair(ref_unrepaired(part.explicit, part.complement, d))


def bits(values):
    return tuple(float(v).hex() for v in values)


def row(model, origin, d, over_range="error"):
    """One row of the public transition matrix, as a tuple of floats."""
    return tuple(transition_matrix(model, d, over_range).m[origin].tolist())


def compiled(model, origin, d):
    if origin < 0:
        return state_probabilities(model, d).as_tuple()
    return row(model, origin, d)


L, V, B = LosState.LOS, LosState.NLOSv, LosState.NLOSb

# The builtin scenarios only put the complement on NLOSv or NLOSb; this one
# puts it on every state, with every curve family and a d_min above 1 m.
PERMUTED = ScenarioModel(
    Environment.URBAN,
    Density.LOW,
    StateProbModel({B: ExpDecay(0.8372, 0.0114), V: LogBell(0.0312, 5.0063, 2.4544)}, complement=L),
    (
        StateProbModel({V: Poly2(1.5e-6, -1.2e-3, 0.93), B: Poly2(-5.9e-7, 5.4e-4, 0.0069)}, complement=L),
        StateProbModel({B: Piecewise(90.0, Poly2(-4.8e-5, -5.62e-3, 1.11), Poly2(-2.286e-6, 1.443e-3, 0.1022)),
                        L: OffsetMinusLogBell(0.9132, LogBell(0.0484, 4.7076, 0.7480))}, complement=V),
        StateProbModel({L: LogBell(0.0346, 5.021, 1.5875), V: Poly2(-2.7e-7, 1.5e-4, -0.0031)}, complement=B),
    ),
    d_min=2.0,
)

MODELS = all_models()


@settings(max_examples=400, deadline=None)
@given(
    model=st.sampled_from(MODELS),
    origin=st.sampled_from([-1, 0, 1, 2]),
    d=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
)
def test_compiled_rows_match_reference(model, origin, d):
    assert bits(compiled(model, origin, d)) == bits(ref_vector(model, origin, d))


@settings(max_examples=300, deadline=None)
@given(origin=st.sampled_from([-1, 0, 1, 2]), d=st.floats(min_value=2.0, max_value=500.0, allow_nan=False))
def test_compiled_rows_match_reference_for_any_complement(origin, d):
    assert bits(compiled(PERMUTED, origin, d)) == bits(ref_vector(PERMUTED, origin, d))


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from(MODELS + [PERMUTED]),
    origin=st.sampled_from([-1, 0, 1, 2]),
    d=st.floats(min_value=2.0, max_value=500.0, allow_nan=False),
)
def test_chain_thresholds_match_reference(model, origin, d):
    # The chain compiles its own rows once; they must agree with the reference too.
    p = ref_vector(model, origin, d)
    assert bits(chain(model).thresholds(origin, d)) == bits((p[0], p[0] + p[1]))


def test_model_floor_is_the_models_own():
    with pytest.warns(DistanceClampWarning):
        assert row(PERMUTED, 0, 1.5) == row(PERMUTED, 0, 2.0)


def _piecewise_thresholds(model):
    return sorted({spec.d_t for row in model.rows for spec in row.explicit.values() if isinstance(spec, Piecewise)})


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.tag)
def test_compiled_rows_match_reference_at_edges(model):
    ds = [1.0, 500.0, math.nextafter(1.0, 2.0), math.nextafter(500.0, 0.0)]
    for d_t in _piecewise_thresholds(model):
        ds += [d_t, math.nextafter(d_t, 0.0), math.nextafter(d_t, 500.0)]
    thresholds = chain(model).thresholds
    for d in ds:
        for origin in (-1, 0, 1, 2):
            p = ref_vector(model, origin, d)
            assert bits(compiled(model, origin, d)) == bits(p), (model.tag, origin, d)
            assert bits(thresholds(origin, d)) == bits((p[0], p[0] + p[1])), (model.tag, origin, d)
        m = transition_matrix(model, d).m
        for origin in (0, 1, 2):
            assert bits(m[origin]) == bits(ref_vector(model, origin, d))


def test_highway_thresholds_are_covered():
    assert {d_t for m in MODELS for d_t in _piecewise_thresholds(m)} == {70.0, 90.0}


def test_urban_low_nlosb_row_is_repaired_everywhere_and_matches():
    model = next(m for m in MODELS if m.tag == "urban-low")
    nlosb = model.rows[2]
    for d in np.linspace(1.0, 500.0, 999).tolist():
        raw = ref_unrepaired(nlosb.explicit, nlosb.complement, d)
        assert ref_repair(raw) != raw  # the repair branch runs at every distance
        assert bits(row(model, 2, d)) == bits(ref_repair(raw))


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.tag)
def test_non_float_distances_take_the_checked_path(model):
    for origin in (0, 1, 2):
        expected = row(model, origin, 37.0)
        assert row(model, origin, 37) == expected
        assert row(model, origin, np.float64(37.0)) == expected
    for bad in (True, math.nan, math.inf, -5.0, 0.0, "37"):
        with pytest.raises(DomainError):
            transition_matrix(model, bad)
        with pytest.raises(DomainError):
            state_probabilities(model, bad)


def test_distance_policies_apply_to_compiled_rows():
    model = MODELS[0]
    with pytest.warns(DistanceClampWarning):
        low = row(model, 1, 0.25)
    assert low == row(model, 1, 1.0)
    with pytest.raises(DomainError):
        row(model, 1, 500.5)
    with pytest.raises(DomainError):
        state_probabilities(model, 500.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert row(model, 1, 500.5, over_range="clamp") == row(model, 1, 500.0)
        assert transition_matrix(model, 900.0, over_range="clamp").d == 500.0
    # An unknown policy is rejected even where it would not matter.
    with pytest.raises(ValueError):
        transition_matrix(model, 100.0, over_range="wrap")
    with pytest.raises(ValueError):
        state_probabilities(model, 100.0, over_range="wrap")
    with pytest.raises(ValueError):
        chain(model, over_range="wrap")  # when the sampler is built, before any draw
