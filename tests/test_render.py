"""The JSON writer of the CLI against json.dumps, and the work the `crystal`
render does after generation."""

import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from demazure_crystals import (
    GRID_TYPES,
    BInfRealization,
    BLambdaCrystal,
    b_lambda,
    cartan_matrix,
    grid_lambdas,
)
from demazure_crystals.cli import SUITES, _crystal_payload, _dumps, main
from demazure_crystals.demazure import CheckReport


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def run_json(capsys, *argv):
    """Output of a --format json command and the oracle's text for its payload."""
    main(list(argv))
    out = capsys.readouterr().out
    return out, oracle(json.loads(out)) + "\n"


GRID = [(t, lam) for t in GRID_TYPES for lam in grid_lambdas(t)]


@pytest.mark.parametrize("type_label,lam", GRID)
def test_crystal_payload_on_every_grid_weight(type_label, lam):
    payload = _crystal_payload(b_lambda(type_label, lam))
    assert _dumps(payload) == oracle(payload)


@pytest.mark.parametrize(
    "argv",
    [
        ("--type", "A2", "--lambda", "1,1", "--word", "1,2,1"),
        ("--type", "A1", "--lambda", "0", "--word", "1"),
        ("--type", "B2", "--lambda", "2,1", "--word", "2,1"),
        ("--type", "G2", "--lambda", "1,0", "--word", "1,2,1,2,1,2"),
    ],
)
def test_demazure_payload(capsys, argv):
    out, expected = run_json(capsys, "demazure", *argv, "--format", "json")
    assert out == expected


def test_verify_payload_of_the_default_grid(capsys):
    out, expected = run_json(capsys, "verify", "--format", "json")
    assert out == expected
    assert len(json.loads(out)["reports"]) == 2565


def test_verify_payload_with_a_failing_witness(capsys, monkeypatch):
    def failing_suite(args):
        yield CheckReport("FAKE", {"word": (1, 2), "note": 'a "b" · c\n'}, False, "x\t\\ · y")
        yield CheckReport("FAKE", {}, True)

    monkeypatch.setitem(SUITES, "synthetic", failing_suite)
    out, expected = run_json(capsys, "verify", "--suite", "synthetic", "--format", "json")
    assert out == expected


SPECIAL = ["", "·", "f1 f2 · u", '"q"', "back\\slash", "\x00\x1f\x7f", "a\tb\nc\r", " ", "\ud800"]
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.text(max_size=8)
    | st.sampled_from(SPECIAL)
)
KEYS = st.text(max_size=6) | st.sampled_from(SPECIAL)
TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(st.integers(), max_size=5)
    | st.dictionaries(KEYS, children, max_size=5),
    max_leaves=30,
)


@given(TREES)
def test_nested_trees_match_json_dumps(tree):
    assert _dumps(tree) == oracle(tree)


@pytest.mark.parametrize(
    "obj",
    [(1, 2), 1.5, [0, 1.0], {"weight": (1, 0)}, {"a": [{"b": 2.5}]}, {1: "int key"}],
    ids=["tuple", "float", "float-in-list", "tuple-in-dict", "nested-float", "int-key"],
)
def test_other_types_are_a_type_error(obj):
    with pytest.raises(TypeError):
        _dumps(obj)


@pytest.mark.parametrize("type_label,lam", [("A2", (2, 2)), ("B2", (2, 1))])
def test_payload_after_generate_makes_no_signature_pass(type_label, lam, monkeypatch):
    """Work-count guard: generation leaves eps and phi of every element
    stored, so the payload build is dict reads with no signature pass."""
    real = BInfRealization(cartan_matrix(type_label))
    crystal = BLambdaCrystal(real, lam)
    crystal.generate()
    calls = Counter()
    unwrapped = real._signature

    def counting(*args):
        calls["_signature"] += 1
        return unwrapped(*args)

    monkeypatch.setattr(real, "_signature", counting)
    payload = _crystal_payload(crystal)
    assert len(payload["elements"]) == len(crystal.generate())
    assert calls == Counter()
    # the wrappers do count: an element outside the crystal is scanned
    deepest = max(crystal.generate(), key=crystal.sort_key)
    real.eps(1, real.f(1, real.f(1, deepest)))
    assert calls["_signature"] > 0
