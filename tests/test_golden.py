"""Byte-level goldens of small command-line runs.

Each case runs ``cli.main`` in-process in an empty directory and hashes its
exit code, its stdout (and stderr when it fails) and every file it writes,
with the ``#`` provenance lines removed. Every change must keep these
digests; a change that means to alter the output must say so and record new
ones (``python tests/test_golden.py`` prints the digests of the current
code). Every case also runs with each trace walked alone, with the guard
band widened so that the scalar thresholds decide every draw, and with
blocks of one to five steps, and streamed in small chunks: the engine must
give these bytes however it cuts the batch and whichever path decides a draw.

The refitted model of ``estimate --fit`` also depends on the last bits of
numpy's ``exp`` and ``log`` (the bell curves) and of its linear algebra (the
polynomial and exponential fits), so its digest holds only for the numpy
release it was recorded with; on any other release the refit is checked to
load with the builtin curve families instead. It does not depend on scipy:
the refit's Levenberg-Marquardt solver is the package's own.
"""

import contextlib
import hashlib
import io
import warnings
from pathlib import Path

import numpy
import pytest

from v2vlos import Density, Environment, builtin_model, load_scenario, markov, traces
from v2vlos.cli import main
from v2vlos.curves import curve_to_dict

from conftest import model_curves

COUNT = 20
SIZE = ["--count", str(COUNT), "--steps", "200"]

PROFILES = {
    "separate1ms": ["--profile", "separate1ms"],
    "constant": ["--profile", "constant", "--d0", "10", "--speed", "2"],
    "walk": ["--profile", "walk", "--d0", "100", "--vmax", "5"],
    "opposing": ["--profile", "opposing", "--d0", "400", "--speed", "60"],
    "same-direction": ["--profile", "same-direction", "--d0", "50", "--speed", "10"],
    "urban-mixed": ["--profile", "urban-mixed", "--d0", "30", "--speed", "8"],
}

SCENARIOS = [(e.value, d.value) for e in Environment for d in Density]


def trace_file(distances):
    return "t,d\n" + "".join(f"{t},{d!r}\n" for t, d in enumerate(distances))


# 19 distances below the 1 m floor, then 1 m up to 451 m.
BELOW_FLOOR = trace_file([0.05 * (k + 1) for k in range(19)] + [1.0 + 2.5 * k for k in range(181)])
# 300 m up to 698 m: past 500 m from step 101 on.
ABOVE_RANGE = trace_file([300.0 + 2.0 * k for k in range(200)])

ESTIMATE_INPUT = ["generate", "--env", "urban", "--density", "medium", "--count", str(COUNT), "--steps", "500",
                  "--seed", "11", "--out", "traces.csv"]


def _cases():
    cases = {}
    for env, density in SCENARIOS:
        scenario = ["--env", env, "--density", density]
        for profile, flags in PROFILES.items():
            cases[f"generate-{env}-{density}-{profile}"] = dict(
                argv=["generate", *scenario, *SIZE, *flags, "--seed", "7", "--out", "out.csv"],
                outputs=["out.csv"])
        cases[f"curves-{env}-{density}"] = dict(argv=["curves", *scenario, "--out", "out.csv"], outputs=["out.csv"])
    urban = ["--env", "urban", "--density", "medium"]
    highway = ["--env", "highway", "--density", "high"]
    cases["compare-urban-medium-separate1ms"] = dict(
        argv=["compare", *urban, *SIZE, "--seed", "5", "--out", "out.csv"], outputs=["out.csv"])
    cases["compare-highway-high-walk"] = dict(
        argv=["compare", *highway, *SIZE, *PROFILES["walk"], "--seed", "3", "--out", "out.csv"],
        outputs=["out.csv"])
    cases["compare-above-range-clamp"] = dict(
        argv=["compare", *urban, "--count", str(COUNT), "--trace-in", "in.csv", "--over-range", "clamp",
              "--seed", "9", "--out", "out.csv"],
        outputs=["out.csv"], files={"in.csv": ABOVE_RANGE})
    cases["compare-below-floor"] = dict(
        argv=["compare", *urban, "--count", str(COUNT), "--trace-in", "in.csv", "--seed", "4", "--out", "out.csv"],
        outputs=["out.csv"], files={"in.csv": BELOW_FLOOR})
    cases["generate-below-floor"] = dict(
        argv=["generate", *urban, "--count", str(COUNT), "--trace-in", "in.csv", "--seed", "4", "--out", "out.csv"],
        outputs=["out.csv"], files={"in.csv": BELOW_FLOOR})
    for policy in ("error", "clamp"):
        cases[f"generate-above-range-{policy}"] = dict(
            argv=["generate", *highway, "--count", str(COUNT), "--trace-in", "in.csv", "--over-range", policy,
                  "--seed", "4", "--out", "out.csv"],
            outputs=["out.csv"], files={"in.csv": ABOVE_RANGE})
    cases["estimate"] = dict(
        before=[ESTIMATE_INPUT],
        argv=["estimate", *urban, "--traces", "traces.csv", "--out-stats", "stats.csv"],
        outputs=["stats.csv"])
    cases["estimate-fit"] = dict(
        before=[ESTIMATE_INPUT],
        argv=["estimate", *urban, "--traces", "traces.csv", "--out-stats", "stats.csv",
              "--out-report", "report.txt", "--fit", "--out-model", "model.json"],
        outputs=["stats.csv", "report.txt"])
    return cases


CASES = _cases()


def without_provenance(text):
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_case(case):
    """Digest of one case, run in the current directory."""
    for name, text in case.get("files", {}).items():
        Path(name).write_text(text, encoding="utf-8")
    for argv in case.get("before", []):
        assert cli(argv)[0] == 0
    code, out, err = cli(case["argv"])
    parts = [f"exit={code}\n", without_provenance(out)]
    if code:
        parts.append(without_provenance(err))
    for name in case["outputs"]:
        path = Path(name)
        parts.append(f"--- {name}\n" + (without_provenance(path.read_text(encoding="utf-8")) if path.exists()
                                        else "(absent)\n"))
    return sha256("".join(parts))


GOLDEN = {
    'compare-above-range-clamp': 'e03b047519f565f18213dad4d6380786158de5c1569a2c83f29618585ec51870',
    'compare-below-floor': 'b48bb4b762105498403c51ff1482ad2f41ae762eb3c6631af3d825aff0483946',
    'compare-highway-high-walk': '664131d7f32f0bf6a13add799b20f5bb65a37f4521148a3ffb41d58db1695471',
    'compare-urban-medium-separate1ms': 'c56e68a209e4d8159635f0402f8aa1982fda2c95d46b270484c0e4d39a34e0e5',
    'curves-highway-high': 'fdd2e0d008504e755aeb8762ce041c0efde6a4ad60a65cfb88998c85de2422cd',
    'curves-highway-low': '322f3b332dc49a68691b2823f28af25b144a1a6f469d9d88f75a6803dd397c66',
    'curves-highway-medium': 'bc7fb8ac66062ec11112d6fcf971754d8966fa1fa8bd1c2e66a94b2b410cb674',
    'curves-urban-high': '544d635a21af38ddd06cdb0b8f191549a7b82063b732dd0fb88f4820b37760a2',
    'curves-urban-low': '36661264195552173f73e7bb20c4f2dd6d4bf6948c9901c895b1bcc911bdec0e',
    'curves-urban-medium': '502d04773c39c3c909ce5dfdecebce3949a4ce6f4f2e7b974d3cd48776999911',
    'estimate': '66c87dfedf89e1697253ca0899d47f3ef9a0f70468972424dda75508b5bac684',
    'estimate-fit': 'a6205aad1adc0e1909df3f37851cfd070644a1d018a810e3cade89455e4460d5',
    'generate-above-range-clamp': '11994af5552bc90729a3f8f07554593b75561e30ef52a4496aca23fbf4684e26',
    'generate-above-range-error': 'e3b4a313f7453c482198c1ad7dc3f8a5e29353b525595e98164cd7acf473f378',
    'generate-below-floor': 'a7093b0333881da9b93d48f0748e4fafa33264144fdbcf6a351bbe3b36ee3c1a',
    'generate-highway-high-constant': '7015c2a139568712079bb87d4a4d59780723813091837cd8c0553b597acae2c5',
    'generate-highway-high-opposing': 'd4d263da544d2d1720682a4bdae002b1ea388fbb96ab377bbc9a82a42979ec17',
    'generate-highway-high-same-direction': '7561252c449b6b592b11ff7eb059558a765c7e2e48076c685293ac59945d36df',
    'generate-highway-high-separate1ms': '7153a3578744a059529b5d5a9654574a10125e26e3bb891e5876cf4c4178f1cf',
    'generate-highway-high-urban-mixed': '2b388c0546994db3158c521b10048bd972815897f1e49c0336b5414e1c33ba4a',
    'generate-highway-high-walk': 'a42ad0cd4c7903a0c4667c9a404cdfbde7101970003796acfd4e762536c20c17',
    'generate-highway-low-constant': '79ed7ec45944e0b34c962703e800c896afe46d3c4c6de2f1fe7f3a6ce44c51d7',
    'generate-highway-low-opposing': '87aba2f7f85fcb0ab93e5b009cc6a5e0b4873cd693e609612b9b7872d67644cf',
    'generate-highway-low-same-direction': '67ce909460d3ba37a2730ec672cbd1717e821b0e37a410b7d2a7dd3dd7b0d3db',
    'generate-highway-low-separate1ms': '82d0442dbaa767e186fb8b706571db609bca4ec99d79f25c65909fc6409bec10',
    'generate-highway-low-urban-mixed': 'e6614720ff11fa3e5212351efe91015634f81223b29b25055c9a36002f387526',
    'generate-highway-low-walk': 'cab31597466e4fdd2105e328fd674c1a4978ad6175a452e9e73a59447e701087',
    'generate-highway-medium-constant': 'e760797b359d52b93992b7cdc9a1354d0ade9bd563cf2bb463fdb8d53fe51318',
    'generate-highway-medium-opposing': '9c0a99635878217dda3c15bdd8677196f0561bf166d849ea3eebce09215cb70f',
    'generate-highway-medium-same-direction': 'c3ce1e7ca04ec5e327e3382f3e47b254183f5d3c6182f6805affc13871c159f4',
    'generate-highway-medium-separate1ms': 'a30e33814f4f86f24df3f396c57c10d841b6fce60ed060297e5c30e6e6c7e88c',
    'generate-highway-medium-urban-mixed': '5ac06850dfdcc4550c88a54439920b81accf338a1b3b1f65ca86b6f233447852',
    'generate-highway-medium-walk': 'ea86597ca32e7a7bfe2bdb557cf0be93fe5f401d7b0cfbe07fc34774ce0918ee',
    'generate-urban-high-constant': '7d7373eebcbdc93e24d0748b7f5a73a751f92d3d46cda3cdb40de0375f9e4989',
    'generate-urban-high-opposing': 'fb3064bba78c422e356be601f55bcac8e388475d89acc9ad8945638cdbe23dec',
    'generate-urban-high-same-direction': 'af24219d0cd94b5b3af100c8fd96af38f7e9ebe6d78cb865090659b54f7e11a3',
    'generate-urban-high-separate1ms': '1d42e0b442cdd840769dab588100b9d18749860956ab9aafd5501f2d4af7f832',
    'generate-urban-high-urban-mixed': 'ede711bdb33003f35a59199b31b4eea5bd5f9985b59bf55fe5db7f95efe360a8',
    'generate-urban-high-walk': '12ea3834e0bba1ba695a8202ba1ba4680cd7ac16565cfe998e464c0cf2f16e84',
    'generate-urban-low-constant': 'a812975e94963fd0ee469163eb4940ee43fcdbb5ba7e860e982e8e4b4854aa2a',
    'generate-urban-low-opposing': 'd3ed8d9e5c0f776fa28c714cb599b8ad341bcc438777d6658600190c3af209c4',
    'generate-urban-low-same-direction': 'ed87e92586ff0bea8d749e6521170b7fdebf2d6f231979455a177c26b3e8347c',
    'generate-urban-low-separate1ms': 'b4e6af314cf8d9d8e20dfabbc3086d6032ba2ca445d4e96e9b4a7f562bc352b1',
    'generate-urban-low-urban-mixed': '9d236c4881c22f9d5ddcfd5a1bcf8900da3a23efac061f802d4066401e64057c',
    'generate-urban-low-walk': 'bd5f5ffa38a2f87f7ffd1187a5029228af6250e4bfaee9dec9c7d27919716d4c',
    'generate-urban-medium-constant': '5e0b9b05cd831f78b73210193ece32d1c28fc65e3375e618ac1c2eb0507156cb',
    'generate-urban-medium-opposing': 'f3787b8af1722f63c850ee7dda1eb175cfac8db4a4c0f79314ad210a5cb6030b',
    'generate-urban-medium-same-direction': '457fd3ff5fdcdff6edbb2dea90a5e9fb10da0aae71001aacd5b7e7a05755e978',
    'generate-urban-medium-separate1ms': '44673288c6de852f79cd61a2d0c48b687eef5dd1aa00a21dce18014cd57624b8',
    'generate-urban-medium-urban-mixed': '983f9ecfe182151b60d656f1231afdbcab8ff222ec6fad325261f934612f4e37',
    'generate-urban-medium-walk': '143c068df540253c872dfe74e80597ce8008ef867ac98f28a2e4f6e020da19cc',
}

# The refitted model of the "estimate-fit" case, and the numpy release
# (major.minor) it was recorded with.
FIT_NUMPY = "2.4"
FIT_MODEL_SHA256 = "8b5546585977c5db27e1fdc62fd7b8ae834a7fbeb33ff2de1deea3accd155453"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged_across_traces(name, tmp_path, monkeypatch):
    # Chunks of one trace: each trace is walked alone, not across the batch.
    monkeypatch.setattr(markov, "_CHUNK", 1)
    test_cli_output_is_unchanged(name, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged_by_the_scalar_oracle(name, tmp_path, monkeypatch):
    # A guard band of 2**53 units covers [0, 1]: the scalar thresholds pick every state.
    monkeypatch.setattr(markov, "_GUARD", 2**53)
    test_cli_output_is_unchanged(name, tmp_path, monkeypatch)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged_at_block_length(name, width, tmp_path, monkeypatch):
    # Every sampled case has COUNT traces, so blocks are at most ``width`` steps long.
    monkeypatch.setattr(markov, "_BLOCK", width * COUNT)
    test_cli_output_is_unchanged(name, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged_when_streamed_in_small_chunks(name, tmp_path, monkeypatch):
    # Synthesis chunks of 6 walk traces, synthesised together (the last, of
    # 2, a trace at a time), engine chunks of at most 4 traces in blocks of
    # one step, and dwell counts of 3 traces: every boundary falls inside the
    # batch, and the engine's cut the synthesised matrices.
    monkeypatch.setattr(markov, "_CHUNK", 6 * 9 * 200)
    monkeypatch.setattr(markov, "_BLOCK", 4)
    monkeypatch.setattr(traces, "_SYNTH_COLUMNS_FROM", 3)
    monkeypatch.setattr(markov, "_COUNT_BLOCK", 3 * 200)
    test_cli_output_is_unchanged(name, tmp_path, monkeypatch)


def curve_shape(obj):
    """A curve's JSON object with its coefficients removed: the family tree."""
    return {k: curve_shape(v) if isinstance(v, dict) else v for k, v in obj.items() if not isinstance(v, float)}


def check_refit_model(digest, env, density):
    """model.json, written by a case run here, has ``digest``, or on another numpy release the builtin families."""
    text = Path("model.json").read_text(encoding="utf-8")
    if numpy.__version__.split(".")[:2] == FIT_NUMPY.split("."):
        assert sha256(text) == digest
    else:
        fitted, builtin = load_scenario("model.json"), builtin_model(Environment(env), Density(density))
        assert fitted.tag == builtin.tag
        assert [(label, curve_shape(curve_to_dict(spec))) for label, spec in model_curves(fitted)] == \
               [(label, curve_shape(curve_to_dict(spec))) for label, spec in model_curves(builtin)]


def test_refit_model_is_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_case(CASES["estimate-fit"])
    check_refit_model(FIT_MODEL_SHA256, "urban", "medium")


def refit_case(env, density):
    """Walk traces of one scenario, spread over the whole 0-500 m range, then ``estimate --fit``."""
    scenario = ["--env", env, "--density", density]
    return dict(
        before=[["generate", *scenario, "--profile", "walk", "--vmax", "20", "--d0", "250", "--steps", "500",
                 "--count", "40", "--seed", "5", "--out", "traces.csv"]],
        argv=["estimate", *scenario, "--traces", "traces.csv", "--out-report", "report.txt",
              "--fit", "--out-model", "model.json"],
        outputs=["report.txt"])


# The refitted model of ``refit_case`` for every builtin scenario, recorded with numpy FIT_NUMPY.
REFIT_MODEL_SHA256 = {
    'urban-low': '3c93ef0757347d26d9e7d955e4634c4d9a9f7b68ab48856a2aac2bcc72e25333',
    'urban-medium': '08e1a92b1b92cb9620932092a42aea283f1e7fb01de6fb7df577f3d1dfcf04de',
    'urban-high': '09c86e3cbea1435c53e5e89c9d56ae34c1a7a5eac85084e69961a250972c37bb',
    'highway-low': '07d7fb375d0b01ca1b7c33c9678ddf56131604925656c78c8f5b78377f92edd6',
    'highway-medium': 'e30374596edb00e34e36e588c375d5e76e68b7ae10db76cace2f6799d1b99cb9',
    'highway-high': '23f478de4358c8e965e77f75761607c22bc4e86908dfc3d325e2db51ad4c4269',
}


@pytest.mark.parametrize("env, density", SCENARIOS, ids=[f"{e}-{d}" for e, d in SCENARIOS])
def test_refit_model_of_every_scenario_is_unchanged(env, density, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_case(refit_case(env, density))
    check_refit_model(REFIT_MODEL_SHA256[f"{env}-{density}"], env, density)


if __name__ == "__main__":
    import os
    import tempfile

    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            here = os.getcwd()
            os.chdir(workdir)
            try:
                print(f"    {name!r}: {run_case(CASES[name])!r},")
                if name == "estimate-fit":
                    print(f"# numpy {numpy.__version__}: model.json {sha256(Path('model.json').read_text())}")
            finally:
                os.chdir(here)
    print(f"# numpy {numpy.__version__}: refit models")
    for env, density in SCENARIOS:
        with tempfile.TemporaryDirectory() as workdir:
            here = os.getcwd()
            os.chdir(workdir)
            try:
                run_case(refit_case(env, density))
                print(f"    '{env}-{density}': {sha256(Path('model.json').read_text(encoding='utf-8'))!r},")
            finally:
                os.chdir(here)
