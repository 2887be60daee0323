"""Command-line interface: construct crystals, compute Demazure sets, and run
the verification suites.

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on usage errors (unknown type, malformed or non-dominant lambda,
non-reduced word, unknown suite, negative depth) and when the --out file
cannot be written (printed as "error: cannot write <path>: <reason>"),
3 when a resource limit is hit (CapacityError: B(inf) generation or
demazure_binf deeper than binf.MAX_DEPTH = 24, or a B(lambda) of more than
blambda.MAX_ELEMENTS = 200,000 elements, about 190 MB, refused by its Weyl
dimension before anything is lowered: crystal, demazure, verify --lambda).
crystal writes one element entry at a time, after generation and naming.
verify parses and checks every option once, for every selected type, before
any suite runs.  Every --depth from 0 is valid for every suite; one beyond
MAX_DEPTH is a resource limit, not a usage error: it exits 3, and only from
the suites that generate to that depth.  A deep --depth is slow: A3 has
3,045 B(inf) elements of depth <= 12, 73,996 of depth <= 24 and 16,563 more
in the operator table's boundary layer, about 300 bytes each, tuple included.
Each failed verify check carries a one-line command that runs it again.
The suites are the rows of SUITES; verify runs all of them by default, in
this order: eq4, strings, words, iota, psi, star, lem31, thm32, cor33, lem34,
thm35, thm35r, p3, braid.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from itertools import combinations
from _json import encode_basestring_ascii  # json.encoder's C function, without the json package

from .cartan import cartan_matrix, enumerate_weyl, SUPPORTED_TYPES
from .binf import CapacityError, b_inf
from .blambda import BLambdaCrystal, b_lambda, char_map
from .charring import render_polynomial, render_weight
from .core import FormalSum
from .demazure import (
    WORD_STATEMENTS,
    binf_consistency_check,
    braid_witness_search,
    demazure_blambda,
    refined_formula_check,
    star_involution_check,
    string_property_check,
    structural_check,
    word_independence_check,
)
from .grids import GRID_TYPES, grid_lambdas, star_depth

SCHEMA = "demazure/1"


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"malformed {what} {text!r}; expected comma-separated integers")


def _parse_lambda(type_label: str, lam_text: str) -> tuple[int, ...]:
    return cartan_matrix(type_label).check_dominant(_parse_ints(lam_text, "lambda"))


def _parse_word(type_label: str, word_text: str) -> tuple[int, ...]:
    word = _parse_ints(word_text, "word")
    # is_reduced rejects a letter outside the index set, through reflect
    if not enumerate_weyl(cartan_matrix(type_label)).is_reduced(word):
        raise ValueError(f"word {word} is not reduced")
    return word


def _element_name(crystal: BLambdaCrystal, x) -> str:
    word = crystal.peel(x)
    if not word:
        return "u"
    return " ".join(f"f{j}" for j in word) + " · u"


def _crystal_payload(crystal: BLambdaCrystal) -> dict:
    """The crystal's JSON payload.  Members are generated, sorted and named
    first, so a CapacityError comes before any write; "elements" and "edges"
    are one-shot iterators that read each member's place (string, k) on its
    i-string: eps_i = k, phi_i = len - 1 - k, and f_i is the next member."""
    members = sorted(crystal.generate(), key=crystal.sort_key)
    names = {x: _element_name(crystal, x) for x in members}
    index = [(i, *crystal.string_index(i)) for i in crystal.cartan.colors]

    def places(x):
        return [(i, strings[place[x][0]], place[x][1]) for i, strings, place in index]

    return {
        "schema": SCHEMA,
        "type": crystal.cartan.type_label,
        "lambda": list(crystal.lam),
        "elements": (
            {"name": names[x], "word": list(crystal.peel(x)), "weight": list(crystal.wt(x)),
             "eps": [k for _, _, k in on], "phi": [len(s) - 1 - k for _, s, k in on]}
            for x in members
            for on in (places(x),)
        ),
        "edges": (
            {"from": names[x], "to": names[s[k + 1]], "color": i}
            for x in members for i, s, k in places(x) if k + 1 < len(s)
        ),
    }


def _dumps(obj, indent: str = "") -> str:
    """json.dumps(obj, sort_keys=True, indent=2), written directly for dicts with
    str keys, lists, str, int, bool and None; other types raise TypeError."""
    kind = type(obj)
    if kind is int:
        return str(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is dict:
        body = sep.join([f"{encode_basestring_ascii(k)}: {_dumps(obj[k], inner)}" for k in sorted(obj)])
        return f"{{\n{inner}{body}\n{indent}}}" if obj else "{}"
    if kind is not list:
        raise TypeError(f"{kind.__name__} is not rendered as JSON")
    items = map(str, obj) if all(type(v) is int for v in obj) else [_dumps(v, inner) for v in obj]
    return f"[\n{inner}{sep.join(items)}\n{indent}]" if obj else "[]"


def _json_pieces(payload: dict):
    """_dumps(payload) + "\n" of a non-empty payload in pieces: one per key, and
    one per item of a list or iterator value, each item rendered by _dumps."""
    for n, key in enumerate(sorted(payload)):
        yield f"{',' if n else '{'}\n  {encode_basestring_ascii(key)}: "
        value = payload[key]
        if type(value) is not list and not hasattr(value, "__next__"):
            yield _dumps(value, "  ")
            continue
        sep = "["
        for item in value:
            yield f"{sep}\n    {_dumps(item, '    ')}"
            sep = ","
        yield "[]" if sep == "[" else "\n  ]"
    yield "\n}\n"


def _dot_lines(payload: dict):
    yield "digraph crystal {\n"
    for entry in payload["elements"]:
        yield f'  "{entry["name"]}" [label="{entry["name"]}\\n({",".join(map(str, entry["weight"]))})"];\n'
    for edge in payload["edges"]:
        yield f'  "{edge["from"]}" -> "{edge["to"]}" [label="{edge["color"]}"];\n'
    yield "}\n"


def _emit(pieces, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from None
    else:
        sys.stdout.writelines(pieces)


def cmd_crystal(args) -> int:
    payload = _crystal_payload(b_lambda(args.type, _parse_lambda(args.type, args.lam)))
    if args.format == "json":
        pieces = _json_pieces(payload)
    elif args.format == "dot":
        pieces = _dot_lines(payload)
    else:
        pieces = (f'{e["name"]}\twt={render_weight(tuple(e["weight"]))}\n' for e in payload["elements"])
    _emit(pieces, args.out)
    return 0


def cmd_demazure(args) -> int:
    crystal = b_lambda(args.type, _parse_lambda(args.type, args.lam))
    word = _parse_word(args.type, args.word)
    dem = demazure_blambda(crystal, word)
    character = char_map(crystal, FormalSum.from_elements(dem))
    report = refined_formula_check(crystal, word)
    members = sorted(dem, key=crystal.sort_key)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "type": args.type,
            "lambda": list(crystal.lam),
            "word": list(word),
            "size": len(dem),
            "members": [_element_name(crystal, x) for x in members],
            "character": [
                {"weight": list(mu), "coeff": c}
                for mu, c in sorted(character.items())
            ],
            "eq4": report.passed,
        }
        _emit(_json_pieces(payload), args.out)
    else:
        lines = [f"size {len(dem)}", "members:"]
        lines.extend(f"  {_element_name(crystal, x)}" for x in members)
        lines.append(f"character: {render_polynomial(character)}")
        lines.append(f"eq4: {'pass' if report.passed else 'FAIL'}")
        _emit(["\n".join(lines) + "\n"], args.out)
    return 0 if report.passed else 1


class _Case(namedtuple("_Case", "type lambdas depth group words short_words pairs")):
    """One selected type with its options parsed: its weights and depth, its
    Weyl group, every reduced word and the canonical words of length <= 3
    (both just --word if it was given), and its color pairs i < j."""

    __slots__ = ()

    def crystals(self):
        """The crystal of each weight, looked up as it is reached."""
        return (b_lambda(self.type, lam) for lam in self.lambdas)


def _cases(args) -> list[_Case]:
    """One case per selected type: --type if given (cartan_matrix rejects an
    unsupported one), else the grid.  Every option is parsed here, once, so a
    malformed one is a usage error whether or not the selected suites read it."""
    if args.depth is not None and args.depth < 0:
        raise ValueError(f"depth {args.depth} is negative")
    cases = []
    for type_label in GRID_TYPES if args.type is None else (args.type,):
        data = cartan_matrix(type_label)
        group = enumerate_weyl(data)
        word = None if args.word is None else _parse_word(type_label, args.word)
        lam = None if args.lam is None else _parse_lambda(type_label, args.lam)
        words = short = [word]
        if word is None:
            words = [r for w in group for r in sorted(group.reduced_words(w))]
            short = [w for w in group if len(w) <= 3]
        lambdas = grid_lambdas(type_label) if lam is None else (lam,)
        depth = star_depth(type_label) if args.depth is None else args.depth
        pairs = tuple(combinations(data.colors, 2))
        cases.append(_Case(type_label, lambdas, depth, group, words, short, pairs))
    return cases


def _statement(statement: str, c: _Case):
    """structural_check of statement on the case's realization, over the short
    words if it is quantified over a word, else once with no word."""
    words = c.short_words if statement in WORD_STATEMENTS else (None,)
    return (structural_check(statement, b_inf(c.type), depth=c.depth, word=w) for w in words)


# Every suite in the default order, each mapping one case to an iterator of
# its reports (benchmarks/layers.py wraps each row and calls next() on what it
# returns).  A row looks its check up as a module global when it runs, so a
# check replaced on this module is the one run.
SUITES = {
    "eq4": lambda c: (refined_formula_check(x, w) for x in c.crystals() for w in c.words),
    "strings": lambda c: (string_property_check(x, w) for x in c.crystals() for w in c.words),
    "words": lambda c: (word_independence_check(x, w) for x in c.crystals() for w in c.group),
    "iota": lambda c: (
        binf_consistency_check(x, w, c.depth) for x in c.crystals() for w in c.short_words
    ),
    "psi": lambda c: _statement("PSI", c),
    "star": lambda c: (star_involution_check(b_inf(t), c.depth) for t in (c.type,)),
    "lem31": lambda c: _statement("LEM31", c),
    "thm32": lambda c: _statement("THM32", c),
    "cor33": lambda c: _statement("COR33", c),
    "lem34": lambda c: _statement("LEM34", c),
    "thm35": lambda c: _statement("THM35", c),
    "thm35r": lambda c: _statement("THM35R", c),
    "p3": lambda c: _statement("P3", c),
    "braid": lambda c: (braid_witness_search(x, i, j) for x in c.crystals() for i, j in c.pairs),
}
DEFAULT_SUITES = tuple(SUITES)


def _reproduce(name: str, params: dict) -> str:
    """One command that runs suite name again on the check's type, lambda, word
    and depth (an empty word or a parameter with no option is left out)."""
    parts = ["demazure-crystals verify", f"--suite {name}"]
    for key in ("type", "lambda", "word", "depth"):
        value = params.get(key)
        if value is not None and value != ():
            text = value if isinstance(value, (str, int)) else ",".join(map(str, value))
            parts.append(f"--{key} {text}")
    return " ".join(parts)


def cmd_verify(args) -> int:
    names = [part for chunk in args.suite or DEFAULT_SUITES for part in chunk.split(",") if part]
    if not names:
        raise ValueError("no suites selected")
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    cases = _cases(args)
    reports = [(name, r) for name in names for case in cases for r in SUITES[name](case)]
    failed = [(name, r) for name, r in reports if not r.passed]
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "reports": [
                {
                    "suite": name,
                    "statement": r.statement,
                    "params": {k: str(v) for k, v in r.params.items()},
                    "passed": r.passed,
                    "witness": r.witness,
                    **({} if r.passed else {"reproduce": _reproduce(name, r.params)}),
                }
                for name, r in reports
            ],
            "passed": not failed,
        }
        _emit(_json_pieces(payload), args.out)
    else:
        lines = []
        for name, r in reports:
            tag = "PASS" if r.passed else "FAIL"
            detail = ""
            if not r.passed:
                detail = f"  witness: {r.witness}  reproduce: {_reproduce(name, r.params)}"
            pretty = " ".join(f"{k}={v}" for k, v in r.params.items())
            lines.append(f"[{tag}] {name} {r.statement} {pretty}{detail}")
        lines.append(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
        _emit(["\n".join(lines) + "\n"], args.out)
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demazure-crystals",
        description="Exact crystal combinatorics: construction, Demazure sets, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_crystal = sub.add_parser("crystal", help="generate a highest-weight crystal")
    p_crystal.add_argument("--type", required=True, help=f"one of {', '.join(SUPPORTED_TYPES)}")
    p_crystal.add_argument("--lambda", dest="lam", required=True, help="dominant weight, e.g. 1,0")
    p_crystal.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_crystal.add_argument("--out", help="write output to a file instead of stdout")
    p_crystal.set_defaults(func=cmd_crystal)

    p_dem = sub.add_parser("demazure", help="compute a Demazure subset and its character")
    p_dem.add_argument("--type", required=True)
    p_dem.add_argument("--lambda", dest="lam", required=True)
    p_dem.add_argument("--word", required=True, help="reduced word, e.g. 1,2,1")
    p_dem.add_argument("--format", choices=("text", "json"), default="text")
    p_dem.add_argument("--out")
    p_dem.set_defaults(func=cmd_demazure)

    p_verify = sub.add_parser("verify", help="run verification suites over the grid")
    p_verify.add_argument(
        "--suite",
        action="append",
        help=f"suites to run (repeatable or comma-separated); known: {', '.join(sorted(SUITES))}",
    )
    p_verify.add_argument("--type")
    p_verify.add_argument("--lambda", dest="lam")
    p_verify.add_argument("--word")
    p_verify.add_argument("--depth", type=int)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapacityError) else 2


if __name__ == "__main__":
    sys.exit(main())
