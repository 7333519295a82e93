"""The refit's Levenberg-Marquardt solver, ``v2vlos._minpack.lmder``, against the one it replaced.

With scipy 1.16 or later installed, ``lmder(fun, x0)`` must give
``least_squares(fun, x0, method="lm", xtol=1e-14, ftol=1e-14)``'s ``x`` and residuals bit for bit: on every refit the
command line makes, and on a seeded corpus of random bell and offset-minus-bell fits. The other tests need no scipy.
"""

import contextlib
import math

import numpy as np
import pytest

from v2vlos import _minpack, estimation, load_scenario
from v2vlos.cli import main
from v2vlos.curves import log_bell_values
from v2vlos.errors import ConvergenceError, V2vLosError

from conftest import ALL_SCENARIOS

SCENARIOS = [(env.value, density.value) for env, density in ALL_SCENARIOS]

# (--seed, --vmax, --count) of the walk traces each scenario's refit reads.
WALKS = [(5, 20.0, 40), (1, 5.0, 30), (7, 60.0, 25), (11, 10.0, 60), (3, 40.0, 50)]

# ``generate`` flags of a short fast walk whose highway-medium and highway-high refits take a step that makes the
# bell 0 * inf, so the residuals hold NaN there and ``enorm`` meets a NaN with no small entry.
WILD_STEP = ["--profile", "walk", "--vmax", "60", "--d0", "250", "--steps", "40", "--count", "1", "--seed", "5"]

# Where qrfac recomputes the norm of the Jacobian's last column, scipy's C sums one entry past the Jacobian, memory
# it never wrote, so its last bits there depend on the heap (see ``_minpack._recomputed_norm``). Only such refits may
# differ. Of the corpus's 1,000 refits, 45 take that branch. Against scipy 1.17.1 with numpy 2.4.6 on x86-64, one to
# four of them differed per run, a different set in different processes (seeds 105, 654, 729, 753 and 813), each in
# the last bits of x after hundreds of evaluations, with sums of squares that agree to 1e-10.


@pytest.fixture(scope="module")
def least_squares():
    pytest.importorskip("scipy", minversion="1.16")
    from scipy.optimize import least_squares

    return least_squares


@contextlib.contextmanager
def recorded_refits():
    """Every refit made inside, as ``(residuals, x0, outcome)``: the bytes of ``x`` and ``f`` or the error raised."""
    calls, solve = [], _minpack.lmder

    def recording(fun, x0):
        try:
            x, f = solve(fun, x0)
        except ArithmeticError as exc:  # math.exp in the residuals overflows on a wild step
            calls.append((fun, list(x0), repr(exc)))
            raise
        calls.append((fun, list(x0), (x.tobytes(), f.tobytes())))
        return x, f

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_minpack, "lmder", recording)
        yield calls


def reads_past_the_jacobian(fun, x0) -> bool:
    """Whether the solver, on this refit, recomputes the norm of the Jacobian's last column."""
    last, norm = [], _minpack._recomputed_norm

    def watching(a, j, k):
        last.append(k == len(a) - 1)
        return norm(a, j, k)

    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(_minpack, "_recomputed_norm", watching)
        try:
            _minpack.lmder(fun, x0)
        except ArithmeticError:
            pass
    return any(last)


def matches_scipy(least_squares, fun, x0, outcome) -> bool:
    try:
        sol = least_squares(fun, x0, method="lm", xtol=_minpack.XTOL, ftol=_minpack.FTOL)
    except ArithmeticError as exc:
        return outcome == repr(exc)
    return outcome == (sol.x.tobytes(), sol.fun.tobytes())


@pytest.mark.filterwarnings("ignore:excluded .* from exponential fit:UserWarning")
@pytest.mark.parametrize("env, density", SCENARIOS, ids=[f"{e}-{d}" for e, d in SCENARIOS])
def test_every_cli_refit_matches_scipy(least_squares, env, density, tmp_path):
    scenario, traces = ["--env", env, "--density", density], str(tmp_path / "t.csv")
    inputs = [["--profile", "walk", "--d0", "250", "--seed", str(seed), "--vmax", str(vmax), "--count", str(count)]
              for seed, vmax, count in WALKS]
    if (env, density) == ("urban", "medium"):
        inputs.append(["--seed", "11", "--count", "20"])  # the input of the estimate-fit golden
    if (env, density) in {("highway", "medium"), ("highway", "high")}:
        inputs.append(WILD_STEP)  # its --steps, the later one, wins
    with recorded_refits() as refits:
        for flags in inputs:
            assert main(["generate", *scenario, "--steps", "500", *flags, "--out", traces]) == 0
            main(["estimate", *scenario, "--traces", traces, "--out-report", str(tmp_path / "r.txt"),
                  "--fit", "--out-model", str(tmp_path / "m.json")])  # a refit may fail, after refits that count
    assert refits
    with np.errstate(all="ignore"):
        differ = [call for call in refits if not matches_scipy(least_squares, *call)]
    assert not [call for call in differ if not reads_past_the_jacobian(*call[:2])]


def corpus_fit(seed):
    """Noisy points of a random offset minus bell (seeds divisible by 3) or bell: 4 to 60 of them, noise to 10 %."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 61))
    d = np.sort(rng.uniform(1.0, 500.0, n))
    y = log_bell_values(d, rng.uniform(0.5, 50.0), rng.uniform(1.0, 7.0), rng.uniform(0.3, 10.0))
    noisy = 1.0 + rng.uniform(0.0, 0.1) * rng.standard_normal(n)
    if seed % 3 == 0:
        return estimation.fit_offset_minus_logbell, d, (rng.uniform(0.5, 1.5) - y) * noisy
    return estimation.fit_logbell, d, np.abs(y * noisy)


@pytest.fixture(scope="module")
def corpus():
    """``(seed, residuals, x0, outcome)`` of every refit the corpus's fits make."""
    calls = []
    with np.errstate(all="ignore"):
        for seed in range(1000):
            fit, d, y = corpus_fit(seed)
            with recorded_refits() as refits:
                try:
                    fit(d, y)
                except (V2vLosError, ArithmeticError):
                    pass
            calls.extend((seed, *call) for call in refits)
    return calls


def test_the_corpus_matches_scipy(least_squares, corpus):
    assert len(corpus) >= 1000
    with np.errstate(all="ignore"):
        differ = [(seed, *call) for seed, *call in corpus if not matches_scipy(least_squares, *call)]
    assert [seed for seed, fun, x0, _ in differ if not reads_past_the_jacobian(fun, x0)] == []
    assert len(differ) <= 10


@pytest.mark.parametrize("seed", [186, 300, 339])
def test_a_step_that_overflows_is_a_convergence_error(seed):
    # A wild step sends ln s or ln k past about 709, where math.exp in the residuals overflows.
    fit, d, y = corpus_fit(seed)
    with pytest.raises(ConvergenceError, match=r"^refinement stepped out of range: OverflowError\("):
        fit(d, y)


@pytest.mark.parametrize("density", ["medium", "high"])
def test_a_wild_step_still_ends_in_a_model(density, tmp_path, capsys):
    scenario, traces, fitted = ["--env", "highway", "--density", density], str(tmp_path / "t.csv"), tmp_path / "m.json"
    assert main(["generate", *scenario, *WILD_STEP, "--out", traces]) == 0
    capsys.readouterr()
    assert main(["estimate", *scenario, "--traces", traces, "--out-report", str(tmp_path / "r.txt"),
                 "--fit", "--out-model", str(fitted)]) == 0
    assert capsys.readouterr().err == ""
    assert load_scenario(fitted).tag == f"highway-{density}"


@pytest.mark.filterwarnings("ignore:excluded .* from exponential fit:UserWarning")
def test_a_refit_that_overflows_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch):
    traces = tmp_path / "t.csv"
    assert main(["generate", "--env", "urban", "--density", "medium", *WILD_STEP, "--out", str(traces)]) == 0
    capsys.readouterr()

    def overflowing(fun, x0):
        raise OverflowError("math range error")

    monkeypatch.setattr(_minpack, "lmder", overflowing)
    assert main(["estimate", "--env", "urban", "--density", "medium", "--traces", str(traces), "--out-report",
                 str(tmp_path / "r.txt"), "--fit", "--out-model", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr() == ("", "error: refit state_probs.explicit.NLOSv: refinement stepped out of range: "
                                       "OverflowError('math range error')\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_a_non_finite_start_is_least_squares_error():
    with pytest.raises(ValueError, match=r"^Residuals are not finite in the initial point\.$"):
        _minpack.lmder(lambda x: np.array([1.0, math.inf]), [0.0])


def test_a_division_by_zero_is_ieee():
    div = _minpack._div
    assert div(1.0, 0.0) == math.inf and div(-2.0, 0.0) == -math.inf and div(3.0, -0.0) == -math.inf
    assert div(math.inf, 0.0) == math.inf and math.isnan(div(0.0, 0.0)) and math.isnan(div(math.nan, 0.0))
    assert div(1.0, 4.0) == 0.25


# [3e-20, 4e-20] mixes a small entry with an intermediate one: the C weighs the small one in, as scipy does.
@pytest.mark.parametrize("x", [[3.0, 4.0], [3e-30, 4e-30], [3e200, 4e200], [1e-25, 3.0, 4.0], [1e30, 3.0, 4e-40],
                               [3e-20, 4e-20], [0.0, 0.0], [-5.0]])
def test_enorm_neither_overflows_nor_underflows(x):
    expected = math.fsum(abs(v) ** 2 for v in x) ** 0.5 if max(map(abs, x)) < 1e100 else 5e200
    assert _minpack.enorm(x) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_enorm_of_a_nan_is_nan():
    # The NaN sums with the intermediate entries and no entry is small: C's s2 / x3max is NaN / 0.
    assert math.isnan(_minpack.enorm([math.nan, 1.0]))
    assert math.isnan(_minpack.enorm([math.nan]))
