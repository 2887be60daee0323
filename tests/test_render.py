"""The JSON writer of the CLI against json.dumps, the streamed `crystal`
render against the list-building payload it replaced, and the work and memory
the render takes after generation."""

import contextlib
import json
import tracemalloc
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
from demazure_crystals.charring import render_weight
from demazure_crystals.cli import (
    SCHEMA,
    SUITES,
    _crystal_payload,
    _dumps,
    _element_name,
    _json_pieces,
    main,
)
from demazure_crystals.demazure import CheckReport


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def oracle_payload(crystal):
    """The crystal payload as lists, built through the crystal's operators."""
    elements = sorted(crystal.generate(), key=crystal.sort_key)
    names = {x: _element_name(crystal, x) for x in elements}
    edges = []
    for x in elements:
        for i in crystal.cartan.colors:
            y = crystal.f(i, x)
            if y is not None:
                edges.append({"from": names[x], "to": names[y], "color": i})
    return {
        "schema": SCHEMA,
        "type": crystal.cartan.type_label,
        "lambda": list(crystal.lam),
        "elements": [
            {
                "name": names[x],
                "word": list(crystal.peel(x)),
                "weight": list(crystal.wt(x)),
                "eps": [crystal.eps(i, x) for i in crystal.cartan.colors],
                "phi": [crystal.phi(i, x) for i in crystal.cartan.colors],
            }
            for x in elements
        ],
        "edges": edges,
    }


def oracle_render(payload, fmt):
    """The crystal output of each format, rendered whole from a list payload."""
    if fmt == "json":
        return oracle(payload) + "\n"
    if fmt == "dot":
        lines = ["digraph crystal {"]
        for entry in payload["elements"]:
            weight = ",".join(str(v) for v in entry["weight"])
            lines.append(f'  "{entry["name"]}" [label="{entry["name"]}\\n({weight})"];')
        for edge in payload["edges"]:
            lines.append(f'  "{edge["from"]}" -> "{edge["to"]}" [label="{edge["color"]}"];')
        return "\n".join(lines) + "\n}\n"
    return "".join(f'{e["name"]}\twt={render_weight(tuple(e["weight"]))}\n' for e in payload["elements"])


def consumed(payload):
    """The payload with its one-shot iterators read into lists."""
    return {k: v if type(v) in (str, int, bool, dict) else list(v) for k, v in payload.items()}


def run_json(capsys, *argv):
    """Output of a --format json command and the oracle's text for its payload."""
    main(list(argv))
    out = capsys.readouterr().out
    return out, oracle(json.loads(out)) + "\n"


GRID = [(t, lam) for t in GRID_TYPES for lam in grid_lambdas(t)]


@pytest.mark.parametrize("type_label,lam", GRID)
def test_crystal_payload_on_every_grid_weight(type_label, lam):
    crystal = b_lambda(type_label, lam)
    payload = consumed(_crystal_payload(crystal))
    assert payload == oracle_payload(crystal)
    assert _dumps(payload) == oracle(payload)
    # the iterators are one-shot
    payload = _crystal_payload(crystal)
    assert len(list(payload["elements"])) == len(crystal.generate())
    assert list(payload["elements"]) == []


@pytest.mark.parametrize("fmt", ["json", "dot", "text"])
@pytest.mark.parametrize("type_label,lam", GRID)
def test_streamed_crystal_output_matches_the_list_payload(capsys, type_label, lam, fmt):
    lam_text = ",".join(map(str, lam))
    assert main(["crystal", "--type", type_label, "--lambda", lam_text, "--format", fmt]) == 0
    expected = oracle_render(oracle_payload(b_lambda(type_label, lam)), fmt)
    assert capsys.readouterr().out == expected


class _Discard:
    """A text sink that keeps only the number of characters written to it."""

    def __init__(self):
        self.length = 0

    def writelines(self, pieces):
        for piece in pieces:
            self.length += len(piece)


@pytest.mark.parametrize("fmt,share", [("json", 0.5), ("dot", 1.0)])
def test_the_render_holds_one_entry_at_a_time(fmt, share):
    """Memory guard: after generation, rendering A3 (2,2,2) peaks (traced
    Python allocations) below a share of its output length: the names, the
    members and one entry, not the payload or the text (a whole-text render
    peaks at about 4 times the JSON and 8 times the dot output)."""
    argv = ["crystal", "--type", "A3", "--lambda", "2,2,2", "--format", fmt]
    with contextlib.redirect_stdout(_Discard()):
        assert main(argv) == 0  # generation and the peel memo are warm from here on
    sink = _Discard()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.length > 30_000
    assert peak < share * sink.length


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


@given(st.dictionaries(KEYS, TREES, min_size=1), st.booleans())
def test_json_pieces_match_json_dumps(payload, streamed):
    """Streamed pieces of a non-empty payload, with list values as lists or
    as one-shot iterators, join to json.dumps of it."""
    expected = oracle(payload) + "\n"
    if streamed:
        payload = {k: iter(v) if type(v) is list else v for k, v in payload.items()}
    assert "".join(_json_pieces(payload)) == expected


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
    """Work-count guard: the payload reads eps, phi and f of every element
    off the string index that generation built, with no signature pass once
    the peel memo is warm (its words are sort keys)."""
    real = BInfRealization(cartan_matrix(type_label))
    crystal = BLambdaCrystal(real, lam)
    sorted(crystal.generate(), key=crystal.sort_key)
    calls = Counter()
    unwrapped = real._signature

    def counting(*args):
        calls["_signature"] += 1
        return unwrapped(*args)

    monkeypatch.setattr(real, "_signature", counting)
    payload = consumed(_crystal_payload(crystal))
    assert len(payload["elements"]) == len(crystal.generate()) and payload["edges"]
    assert calls == Counter()
    # the wrappers do count: an element outside the crystal is scanned
    deepest = max(crystal.generate(), key=crystal.sort_key)
    real.eps(1, real.f(1, real.f(1, deepest)))
    assert calls["_signature"] > 0
