"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Criterion 4 generates ten million chain steps twice
and dominates the runtime.
"""

import math
import time
from itertools import repeat

import numpy as np
import pytest

from v2vlos import (
    Density,
    DistanceTrace,
    Environment,
    LosState,
    Piecewise,
    Poly2,
    UmiParams,
    accumulate,
    baseline,
    builtin_model,
    chain,
    empirical_transition_probs,
    eval_curve,
    fit_poly2,
    fit_same_family,
    fresnel_clearance_radius,
    pearson,
    state_probabilities,
    transition_matrix,
    umi_los_probability,
)
from v2vlos.estimation import bin_centers
from v2vlos.traces import dwell_statistics, write_state_traces

from conftest import ALL_SCENARIOS, all_models, model_curves
from test_cli import run_cli


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_row_stochastic_sweep():
    t0 = time.perf_counter()
    worst_row = 0.0
    worst_vec = 0.0
    for model in all_models():
        for d in range(1, 501):
            tm = transition_matrix(model, float(d))
            assert np.all(tm.m >= 0.0) and np.all(tm.m <= 1.0)
            worst_row = max(worst_row, float(np.max(np.abs(tm.m.sum(axis=1) - 1.0))))
            vec = state_probabilities(model, float(d)).as_tuple()
            assert all(0.0 <= p <= 1.0 for p in vec)
            worst_vec = max(worst_vec, abs(sum(vec) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_row <= 1e-9 and worst_vec <= 1e-9 and elapsed < 5.0
    report("criterion 1 (row-stochastic sweep)", ok,
           f"max row-sum error {worst_row:.2e}, max vector error {worst_vec:.2e}, {elapsed:.2f} s")


def test_criterion_2_table_value_spot_checks():
    # Real-valued table arithmetic gives 0.3; doubles land 1.25 ulp below it.
    p_hw = eval_curve(builtin_model(Environment.HIGHWAY, Density.HIGH).state_probs.explicit[LosState.LOS], 500.0)
    ok_hw = abs(p_hw - 0.3) <= 4 * math.ulp(0.3)

    p_urb = state_probabilities(builtin_model(Environment.URBAN, Density.MEDIUM), 100.0).los
    ok_urb = abs(p_urb - 0.2678) <= 1e-3

    p_ll = transition_matrix(builtin_model(Environment.URBAN, Density.MEDIUM), 200.0).m[LosState.LOS, LosState.LOS]
    ok_ll = abs(p_ll - 0.75) <= 1e-3

    report("criterion 2 (table spot checks)", ok_hw and ok_urb and ok_ll,
           f"hw-high P(LOS,500)={p_hw!r}, urb-med P(LOS,100)={p_urb:.5f}, LOS->LOS(200)={p_ll:.5f}")


def test_criterion_3_estimator_recovery():
    d = 105.0
    all_ok = True
    details = []
    for env, density in ALL_SCENARIOS:
        t0 = time.perf_counter()
        model = builtin_model(env, density)
        ref = transition_matrix(model, d).m

        def estimate(n, seed):
            trace = DistanceTrace(np.arange(n), np.full(n, d))
            states = chain(model).trace(trace, seed)
            est = empirical_transition_probs(accumulate([states]))
            assert np.all(est.defined[10])
            return float(np.max(np.abs(est.probs[10] - ref)))

        err_large = estimate(10**6, seed=1001)
        err_small = estimate(10**4, seed=1002)
        elapsed = time.perf_counter() - t0
        ok = err_large < 0.01 and err_small > err_large and elapsed < 60.0
        all_ok = all_ok and ok
        details.append(f"{model.tag}: 1e6 err {err_large:.4f}, 1e4 err {err_small:.4f}, {elapsed:.1f} s")
    report("criterion 3 (estimator recovery)", all_ok, "; ".join(details))


def test_criterion_4_dwell_statistics():
    t0 = time.perf_counter()
    n_traces = 10**5
    model = builtin_model(Environment.URBAN, Density.MEDIUM)
    trace = DistanceTrace.from_distances(np.arange(1.0, 501.0))

    proposed = dwell_statistics(chain(model).batch(repeat(trace, n_traces), 2024))
    memoryless = dwell_statistics(baseline(UmiParams()).batch(repeat(trace, n_traces), 2024))
    elapsed = time.perf_counter() - t0

    ok = (4.0 <= memoryless.mean_dwell <= 6.0) and (13.0 <= proposed.mean_dwell <= 21.0) and elapsed < 600.0
    report("criterion 4 (dwell statistics)", ok,
           f"umi mean dwell {memoryless.mean_dwell:.2f} s in [4, 6], "
           f"proposed {proposed.mean_dwell:.2f} s in [13, 21], {elapsed:.0f} s")


def test_criterion_5_umi_closed_form():
    exact_below = all(umi_los_probability(float(d)) == 1.0 for d in np.linspace(0.5, 18.0, 36))
    at_36 = umi_los_probability(36.0)
    ok = exact_below and abs(at_36 - 0.6840) <= 1e-4
    report("criterion 5 (umi closed form)", ok, f"P(LOS,36)={at_36:.6f}, d<=18 exactly 1: {exact_below}")


def test_criterion_6_fresnel_difference():
    r2 = fresnel_clearance_radius(250.0, 250.0, 2.0e9)
    r6 = fresnel_clearance_radius(250.0, 250.0, 6.0e9)
    diff = r2 - r6
    ok = 0.9 <= diff <= 1.2
    report("criterion 6 (fresnel difference)", ok, f"r(2GHz)={r2:.3f} m, r(6GHz)={r6:.3f} m, diff={diff:.3f} m")


def test_criterion_7_fit_round_trip():
    centers = bin_centers()
    grid = np.arange(10.0, 490.0 + 1e-9, 0.5)
    worst = 0.0
    worst_label = ""
    for model in all_models():
        for label, spec in model_curves(model):
            pts = [(float(c), spec.raw(float(c))) for c in centers]
            refit = fit_same_family(spec, pts).spec
            orig = np.array([spec.raw(float(d)) for d in grid])
            got = np.array([refit.raw(float(d)) for d in grid])
            rel = float(np.max(np.abs(got - orig))) / max(float(np.max(np.abs(orig))), 1e-12)
            if rel > worst:
                worst, worst_label = rel, f"{model.tag} {label}"
    sup_ok = worst <= 0.01

    # Noiseless quadratic recovery to 1e-9 on every builtin polynomial.
    coef_worst = 0.0
    for model in all_models():
        for _, spec in model_curves(model):
            if isinstance(spec, Piecewise):
                branches = [(spec.low, [c for c in centers if c < spec.d_t]),
                            (spec.high, [c for c in centers if c >= spec.d_t])]
            else:
                branches = [(spec, centers)]
            for branch, ds in branches:
                if not isinstance(branch, Poly2):
                    continue
                fit = fit_poly2([(float(c), branch.raw(float(c))) for c in ds]).spec
                coef_worst = max(coef_worst,
                                 abs(fit.a - branch.a), abs(fit.b - branch.b), abs(fit.c - branch.c))
    poly_ok = coef_worst <= 1e-9
    report("criterion 7 (fit round trip)", sup_ok and poly_ok,
           f"worst sup-norm {worst:.2e} ({worst_label}), worst poly2 coefficient error {coef_worst:.2e}")


def test_criterion_8_cli_determinism(tmp_path):
    args = ["generate", "--env", "urban", "--density", "medium",
            "--profile", "separate1ms", "--steps", "500", "--seed", "7"]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    r1 = run_cli(*args, "--out", str(out1))
    r2 = run_cli(*args, "--out", str(out2), cwd=str(tmp_path))
    ok = r1.returncode == 0 and r2.returncode == 0 and out1.read_bytes() == out2.read_bytes()
    report("criterion 8 (cli determinism)", ok,
           f"two fresh processes, byte-identical: {out1.read_bytes() == out2.read_bytes()}")


def test_criterion_9_correlation_substitute(tmp_path):
    # The published cross-city dataset is unavailable; the pinned substitute
    # is correlation robustness to 1% noise plus report emission.
    model = builtin_model(Environment.URBAN, Density.MEDIUM)
    centers = bin_centers()
    ys = np.array([state_probabilities(model, float(d)).los for d in centers])
    rng = np.random.default_rng(99)
    noisy = ys * (1.0 + 0.01 * rng.standard_normal(ys.size))
    r = pearson(ys, noisy)
    r_ok = r > 0.99

    trace = DistanceTrace.from_distances(np.arange(1.0, 451.0))
    traces = list(chain(model).batch(repeat(trace, 20), 5))
    trace_file = tmp_path / "labeled.csv"
    write_state_traces(traces, trace_file)
    result = run_cli("estimate", "--env", "urban", "--density", "medium", "--traces", str(trace_file))
    fmt_ok = result.returncode == 0 and "[los_probabilities]" in result.stdout
    for origin in ("LOS", "NLOSb", "NLOSv"):
        for target in ("LOS", "NLOSb", "NLOSv"):
            fmt_ok = fmt_ok and f"{origin}->{target}=" in result.stdout

    report("criterion 9 (correlation substitute)", r_ok and fmt_ok,
           f"pearson vs 1% noise r={r:.5f}, report emitted for user dataset: {fmt_ok}")
