"""The benchmark's layer table names only what the package has.

`benchmarks/layers.py` wraps package functions and methods by name when a
run is traced; a name that no longer resolves breaks `--trace 1`.  These
tests resolve every entry the way `layers.install` does.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from demazure_crystals import cli

_SPEC = importlib.util.spec_from_file_location(
    "benchmark_layers", Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"
)
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)


@pytest.mark.parametrize(
    "module,path", [entry[1:3] for entry in layers.LAYERS], ids=[entry[0] for entry in layers.LAYERS]
)
def test_every_traced_layer_resolves(module, path):
    owner, attr = layers._resolve(importlib.import_module(f"demazure_crystals.{module}"), path)
    assert callable(getattr(owner, attr))


def test_every_traced_suite_exists():
    assert tuple(layers.SUITES) == cli.DEFAULT_SUITES


_TRACED_VERIFY = """
import json, os
import demazure_crystals.cli as cli
import layers

tracer = layers.Tracer()
layers.install(tracer)
code = cli.main(["verify", "--type", "A2", "--out", os.devnull])
calls = {name: stat.calls for name, stat in tracer.stats.items()}
print(json.dumps({"code": code, "calls": calls}))
"""


def test_a_traced_verify_resumes_every_suite():
    """A traced run replaces each cli.SUITES row with a wrapper that calls
    next() on the row's result; run in its own interpreter, so the wrappers
    do not reach the other tests."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "benchmarks"), str(root / "src")])
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_VERIFY],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    idle = [name for name in layers.SUITES if not result["calls"].get(f"cli.suite.{name}")]
    assert not idle
