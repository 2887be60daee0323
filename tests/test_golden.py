"""Byte-for-byte golden outputs of the command line.

The files under `tests/golden/` hold the exact output of `crystal` and
`demazure` for a few weights, and `verify.sha256` holds the digests of the
`verify` report in text and JSON, for the default run and for two runs that
pass --type, --lambda, --word and --depth.  Any change to a name, an order,
a number or a line of these outputs fails here.
"""

import hashlib
from pathlib import Path

import pytest

from demazure_crystals.cli import main

GOLDEN = Path(__file__).parent / "golden"

CRYSTALS = [("A2", "1,1"), ("B2", "1,1"), ("G2", "1,0"), ("A3", "1,0,1")]
DEMAZURE = [("A2", "1,1", "1,2"), ("B2", "2,1", "2,1,2")]
VERIFY = [
    ("verify", ()),
    ("verify_A2_1-1_w1-2_d4", ("--type", "A2", "--lambda", "1,1", "--word", "1,2", "--depth", "4")),
    ("verify_B2_d5", ("--type", "B2", "--depth", "5")),
]
SUFFIX = {"text": "txt", "json": "json", "dot": "dot"}


def _run(tmp_path: Path, argv: list[str]) -> bytes:
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


def _crystal_cases():
    for type_label, lam in CRYSTALS:
        for fmt in ("text", "json", "dot"):
            name = f"crystal_{type_label}_{lam.replace(',', '-')}.{SUFFIX[fmt]}"
            argv = ["crystal", "--type", type_label, "--lambda", lam, "--format", fmt]
            yield pytest.param(name, argv, id=name)


def _demazure_cases():
    for type_label, lam, word in DEMAZURE:
        for fmt in ("text", "json"):
            name = (
                f"demazure_{type_label}_{lam.replace(',', '-')}"
                f"_w{word.replace(',', '-')}.{SUFFIX[fmt]}"
            )
            argv = [
                "demazure", "--type", type_label, "--lambda", lam,
                "--word", word, "--format", fmt,
            ]
            yield pytest.param(name, argv, id=name)


@pytest.mark.parametrize("name,argv", [*_crystal_cases(), *_demazure_cases()])
def test_golden_output(tmp_path, name, argv):
    assert _run(tmp_path, argv) == (GOLDEN / name).read_bytes()


def _verify_digests() -> dict[str, str]:
    digests = {}
    for line in (GOLDEN / "verify.sha256").read_text().splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests


def _verify_cases():
    for stem, options in VERIFY:
        for fmt in ("text", "json"):
            name = f"{stem}.{SUFFIX[fmt]}"
            argv = ["verify", *options, "--format", fmt]
            # the default run keeps its format as its id
            yield pytest.param(name, argv, id=name if options else fmt)


@pytest.mark.parametrize("name,argv", list(_verify_cases()))
def test_golden_verify_digest(tmp_path, name, argv):
    out = _run(tmp_path, argv)
    assert hashlib.sha256(out).hexdigest() == _verify_digests()[name]
