"""The benchmark's layer table names only what the package has.

`benchmarks/layers.py` wraps package functions and methods by name when a
run is traced; a name that no longer resolves breaks `--trace 1`.  These
tests resolve every entry the way `layers.install` does.
"""

import importlib
import importlib.util
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
    assert set(layers.SUITES) <= set(cli.SUITES)
