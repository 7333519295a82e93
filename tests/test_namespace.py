"""The package namespace: every public name loads on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import v2vlos

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("name", v2vlos.__all__)
def test_each_public_name_is_the_defining_modules_object(name):
    module = importlib.import_module(f"v2vlos.{v2vlos._MODULE_OF[name]}")
    assert getattr(v2vlos, name) is getattr(module, name)


def test_public_names_are_unique_and_listed_by_dir():
    assert len(set(v2vlos.__all__)) == len(v2vlos.__all__) == 63
    assert set(v2vlos.__all__) <= set(dir(v2vlos))
    assert {"__version__", "markov", "traces"} <= set(dir(v2vlos))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'v2vlos' has no attribute 'no_such_name'"):
        v2vlos.no_such_name  # noqa: B018
    assert not hasattr(v2vlos, "ScenarioModelX")
    with pytest.raises(ImportError):
        from v2vlos import no_such_name  # noqa: F401


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from v2vlos import *", namespace)
    assert {name: namespace[name] for name in v2vlos.__all__} == {name: getattr(v2vlos, name) for name in v2vlos.__all__}


def test_submodules_still_import_from_the_package():
    from v2vlos import markov, traces

    assert markov.chain is v2vlos.chain and traces.DwellCount is v2vlos.DwellCount
    assert v2vlos.umi is importlib.import_module("v2vlos.umi")


def test_importing_the_package_loads_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    script = ("import sys, v2vlos\n"
              "assert 'numpy' not in sys.modules, 'numpy'\n"
              "assert v2vlos.__version__ == '0.1.0'\n"
              "assert v2vlos.markov.chain is v2vlos.chain\n"
              "assert 'numpy' in sys.modules\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
