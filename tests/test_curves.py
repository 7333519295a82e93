"""Curve family evaluation: values, clamping, branch selection, domains."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from v2vlos import (
    DomainError,
    ExpDecay,
    LogBell,
    OffsetMinusLogBell,
    Piecewise,
    Poly2,
    eval_curve,
)
from v2vlos.curves import contains_log_bell, curve_from_dict, curve_to_dict

from conftest import all_models, model_curves


def test_poly2_highway_high_at_500():
    # 0.8 - 1.5 + 1 = 0.3 in real arithmetic; binary doubles land 1.25 ulp low.
    v = eval_curve(Poly2(3.2e-6, -0.003, 1.0), 500.0)
    assert abs(v - 0.3) <= 4 * math.ulp(0.3)


def test_poly2_at_zero_clamp_ceiling():
    assert eval_curve(Poly2(1.5e-6, -0.0015, 1.0), 0.0) == 1.0


def test_logbell_hand_evaluated():
    # Independent direct evaluation of (1/(s d)) exp(-(ln d - mu)^2 / k).
    s, mu, k, d = 0.0312, 5.0063, 2.4544, 100.0
    expected = (1.0 / (s * d)) * math.exp(-((math.log(d) - mu) ** 2) / k)
    got = eval_curve(LogBell(s, mu, k), d)
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(0.300, abs=1e-3)


def test_expdecay_hand_evaluated():
    expected = 0.8372 * math.exp(-1.14)
    got = eval_curve(ExpDecay(0.8372, 0.0114), 100.0)
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(0.2678, abs=1e-4)


def test_clamping_floor_and_ceiling():
    assert eval_curve(Poly2(0.0, 0.0, -0.25), 10.0) == 0.0
    assert eval_curve(Poly2(0.0, 0.0, 1.75), 10.0) == 1.0
    assert Poly2(0.0, 0.0, -0.25).raw(10.0) == -0.25


def test_offset_minus_logbell():
    inner = LogBell(0.0289, 5.2782, 1.8424)
    spec = OffsetMinusLogBell(1.0, inner)
    d = 150.0
    assert spec.raw(d) == pytest.approx(1.0 - inner.raw(d), abs=1e-15)


def test_piecewise_branch_selection():
    spec = Piecewise(90.0, Poly2(0.0, 0.0, 0.2), Poly2(0.0, 0.0, 0.8))
    assert eval_curve(spec, 89.999) == 0.2
    assert eval_curve(spec, 90.001) == 0.8
    # Tie at the threshold takes the high branch.
    assert eval_curve(spec, 90.0) == 0.8


def test_domain_errors():
    bell = LogBell(0.03, 5.0, 2.0)
    for d in (0.0, -1.0):
        with pytest.raises(DomainError):
            eval_curve(bell, d)
        with pytest.raises(DomainError):
            eval_curve(OffsetMinusLogBell(1.0, bell), d)
        with pytest.raises(DomainError):
            eval_curve(Piecewise(70.0, Poly2(0, 0, 1), bell), d)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            eval_curve(Poly2(1e-6, -1e-3, 1.0), bad)
    # Pure polynomials are fine at and below zero.
    assert eval_curve(Poly2(0.0, 0.0, 0.5), -3.0) == 0.5


def test_contains_log_bell():
    bell = LogBell(0.03, 5.0, 2.0)
    assert contains_log_bell(bell)
    assert contains_log_bell(OffsetMinusLogBell(1.0, bell))
    assert contains_log_bell(Piecewise(70.0, Poly2(0, 0, 1), bell))
    assert not contains_log_bell(Piecewise(70.0, Poly2(0, 0, 1), Poly2(0, 0, 0)))
    assert not contains_log_bell(ExpDecay(1.0, 0.01))


def test_constructor_validation():
    with pytest.raises(ValueError):
        LogBell(0.0, 5.0, 2.0)
    with pytest.raises(ValueError):
        LogBell(0.03, 5.0, -1.0)
    with pytest.raises(ValueError):
        Piecewise(0.0, Poly2(0, 0, 1), Poly2(0, 0, 0))
    with pytest.raises(ValueError):
        Poly2(math.nan, 0.0, 1.0)
    with pytest.raises(ValueError):
        ExpDecay(math.inf, 0.01)
    # The inner curve of an offset-minus-bell is a bell, in code as in files.
    with pytest.raises(ValueError):
        OffsetMinusLogBell(1.0, Poly2(0, 0, 1))
    # Piecewise branches are curves, checked when built rather than when evaluated.
    with pytest.raises(ValueError):
        Piecewise(70.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        Piecewise(70.0, Poly2(0, 0, 1), {"family": "poly2", "a": 0, "b": 0, "c": 1})


def test_poly2_matches_independent_horner():
    # Regression against a direct independent evaluation, ulp-scale tolerance.
    for model in all_models():
        for _, spec in model_curves(model):
            specs = [spec]
            if isinstance(spec, Piecewise):
                specs = [spec.low, spec.high]
            for s in specs:
                if not isinstance(s, Poly2):
                    continue
                for d in (1.0, 37.5, 105.0, 250.0, 499.0):
                    expected = s.a * d * d + s.b * d + s.c
                    assert abs(s.raw(d) - expected) <= 4 * math.ulp(max(1.0, abs(expected)))


def test_all_builtin_curves_stay_in_unit_interval():
    for model in all_models():
        for label, spec in model_curves(model):
            for d in range(1, 501):
                v = eval_curve(spec, float(d))
                assert 0.0 <= v <= 1.0, (model.tag, label, d, v)


def test_values_match_raw_on_every_builtin_curve():
    # Poly2 runs the same float operations; the others differ in the last bits of numpy's exp and log.
    d = np.linspace(1.0, 500.0, 4991)
    for model in all_models():
        for label, spec in model_curves(model):
            raw = np.array([spec.raw(x) for x in d.tolist()])
            assert np.allclose(spec.values(d), raw, rtol=8 * 2.0**-52, atol=0.0), (model.tag, label)
            if isinstance(spec, Poly2):
                assert spec.values(d).tobytes() == raw.tobytes()


def test_curve_dict_round_trip():
    spec = Piecewise(
        70.0,
        OffsetMinusLogBell(0.9, LogBell(0.05, 4.7, 0.8)),
        Poly2(-2e-6, 1.6e-3, 0.051),
    )
    assert curve_from_dict(curve_to_dict(spec)) == spec
    assert curve_from_dict(curve_to_dict(ExpDecay(0.85, 0.006))) == ExpDecay(0.85, 0.006)


_coefficients = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_bells = st.builds(LogBell, _positive, _coefficients, _positive)
_curves = st.recursive(
    st.one_of(
        st.builds(Poly2, _coefficients, _coefficients, _coefficients),
        st.builds(ExpDecay, _coefficients, _coefficients),
        _bells,
        st.builds(OffsetMinusLogBell, _coefficients, _bells),
    ),
    lambda inner: st.builds(Piecewise, _positive, inner, inner),
    max_leaves=8,
)


@given(_curves)
def test_curve_trees_round_trip_through_json(spec):
    assert curve_from_dict(json.loads(json.dumps(curve_to_dict(spec)))) == spec


def test_curve_to_dict_rejects_a_non_curve():
    for bad in (1.0, "poly2", {"family": "poly2"}):
        with pytest.raises(TypeError, match="unknown curve spec"):
            curve_to_dict(bad)


def test_curve_dict_rejects_bad_input():
    with pytest.raises(ValueError):
        curve_from_dict({"family": "cubic", "a": 1})
    with pytest.raises(ValueError):
        curve_from_dict({"family": "poly2", "a": 1, "b": 2})
    with pytest.raises(ValueError):
        curve_from_dict({"family": "poly2", "a": 1, "b": 2, "c": 3, "d": 4})
