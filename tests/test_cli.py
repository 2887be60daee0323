"""Command-line behavior: formats, round trips, exit codes, determinism."""

import json

import pytest

from demazure_crystals import BInfRealization, CapacityError, b_inf, cartan_matrix, demazure_binf
from demazure_crystals.cli import main
from demazure_crystals.demazure import STRUCTURAL_STATEMENTS, WORD_STATEMENTS, structural_check
from demazure_crystals.grids import GRID_TYPES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_crystal_text_lists_one_line_per_element(capsys):
    code, out, _ = run(capsys, "crystal", "--type", "A2", "--lambda", "1,0")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 3
    assert lines[0].startswith("u\t")


def test_crystal_single_point(capsys):
    code, out, _ = run(capsys, "crystal", "--type", "A1", "--lambda", "0")
    assert code == 0
    assert len([line for line in out.splitlines() if line]) == 1


def test_crystal_json_round_trip(capsys):
    code, text_out, _ = run(capsys, "crystal", "--type", "A2", "--lambda", "1,1")
    assert code == 0
    code, json_out, _ = run(
        capsys, "crystal", "--type", "A2", "--lambda", "1,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(json_out)
    assert payload["schema"] == "demazure/1"
    names_from_json = {entry["name"] for entry in payload["elements"]}
    names_from_text = {line.split("\t")[0] for line in text_out.splitlines() if line}
    assert names_from_json == names_from_text
    assert len(payload["elements"]) == 8
    # every eps/phi list carries one value per color
    assert all(len(e["eps"]) == 2 and len(e["phi"]) == 2 for e in payload["elements"])


def test_crystal_dot_output(capsys):
    code, out, _ = run(
        capsys, "crystal", "--type", "A2", "--lambda", "1,1", "--format", "dot"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph crystal {"
    assert lines[-1] == "}"
    node_lines = [l for l in lines if "[label=" in l and "->" not in l]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == 8  # one node per element
    assert all('[label="1"]' in l or '[label="2"]' in l for l in edge_lines)


def test_crystal_determinism(capsys):
    first = run(capsys, "crystal", "--type", "B2", "--lambda", "1,1", "--format", "json")
    second = run(capsys, "crystal", "--type", "B2", "--lambda", "1,1", "--format", "json")
    assert first == second


def test_crystal_rejects_bad_lambda(capsys):
    code, _, err = run(capsys, "crystal", "--type", "A2", "--lambda", "1,-1")
    assert code == 2 and "dominant" in err
    code, _, err = run(capsys, "crystal", "--type", "A2", "--lambda", "1")
    assert code == 2
    code, _, err = run(capsys, "crystal", "--type", "Z9", "--lambda", "1,0")
    assert code == 2 and "unsupported" in err


def test_a_float_lambda_leaves_the_shared_crystal_integral(capsys):
    from demazure_crystals import b_lambda, clear_caches

    clear_caches()
    with pytest.raises(ValueError, match=r"lambda \(2\.0, 0\) is not a tuple of integers"):
        b_lambda("A2", (2.0, 0))
    assert main(["crystal", "--type", "A2", "--lambda", "2,0"]) == 0
    assert capsys.readouterr().out.startswith("u\twt=(2,0)\nf1 · u\twt=(0,1)\n")
    assert main(["crystal", "--type", "A2", "--lambda", "2,0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["elements"][0]["weight"] == [2, 0]


def test_demazure_output(capsys):
    code, out, _ = run(
        capsys, "demazure", "--type", "A2", "--lambda", "1,0", "--word", "1"
    )
    assert code == 0
    assert out.splitlines()[0] == "size 2"
    assert "character: e^{(1,0)} + e^{(-1,1)}" in out
    assert "eq4: pass" in out


def test_demazure_full_crystal(capsys):
    code, out, _ = run(
        capsys, "demazure", "--type", "A2", "--lambda", "1,1", "--word", "1,2,1"
    )
    assert code == 0
    assert out.splitlines()[0] == "size 8"


def test_demazure_json_format(capsys):
    code, out, _ = run(
        capsys,
        "demazure", "--type", "A2", "--lambda", "1,1", "--word", "1,2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 5 and len(payload["members"]) == 5
    assert payload["eq4"] is True
    assert sum(term["coeff"] for term in payload["character"]) == 5


def test_verify_depth_beyond_capacity_is_a_capacity_error(capsys):
    # generation-driven suites enforce the configured depth bound; a resource
    # limit has its own exit code, distinct from usage errors
    code, _, err = run(capsys, "verify", "--suite", "psi", "--type", "A2", "--depth", "40")
    assert code == 3 and "depth" in err


def test_the_maximum_depth_is_the_deepest_that_runs(capsys):
    """At binf.MAX_DEPTH = 24 all nine B(inf) suites run, although the table
    holds one layer more; one deeper is a resource limit, from the CLI and
    from demazure_binf alike."""
    suites = "psi,star,lem31,thm32,cor33,lem34,thm35,thm35r,p3"
    code, out, err = run(capsys, "verify", "--suite", suites, "--type", "A2", "--depth", "24")
    assert code == 0 and err == "" and out.endswith("\n34/34 checks passed\n")
    code, out, err = run(capsys, "verify", "--suite", suites, "--type", "A2", "--depth", "25")
    assert (code, out, err) == (3, "", "error: depth 25 exceeds the configured maximum 24\n")
    with pytest.raises(CapacityError) as error:
        demazure_binf(BInfRealization(cartan_matrix("A2")), (1,), 25)
    assert str(error.value) == "depth 25 exceeds the configured maximum 24"


@pytest.mark.parametrize(
    "argv",
    [
        ("crystal", "--type", "G2", "--lambda", "20,20"),
        ("crystal", "--type", "G2", "--lambda", "20,20", "--format", "json"),
        ("demazure", "--type", "G2", "--lambda", "20,20", "--word", "1,2"),
        ("verify", "--type", "G2", "--lambda", "20,20"),
        ("verify", "--suite", "words", "--type", "A3", "--lambda", "40,0,40"),
    ],
    ids=["crystal", "crystal-json", "demazure", "verify", "verify-words"],
)
def test_a_crystal_beyond_the_element_bound_is_a_capacity_error(capsys, monkeypatch, argv):
    """Every command that generates a B(lambda) refuses one larger than
    blambda.MAX_ELEMENTS before lowering any element, and exits 3."""
    from demazure_crystals import BInfRealization

    def refuse(self, i, b):
        raise AssertionError("generation lowered an element")

    monkeypatch.setattr(BInfRealization, "f", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: BLambdaCrystal(") and "the maximum is 200000" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("crystal", "--type", "G2", "--lambda", "20,20", "--format", fmt)
        for fmt in ("text", "json", "dot")
    ]
    + [("demazure", "--type", "G2", "--lambda", "20,20", "--word", "1,2", "--format", "json")],
    ids=["crystal-text", "crystal-json", "crystal-dot", "demazure-json"],
)
def test_a_capacity_error_leaves_no_out_file(tmp_path, capsys, argv):
    """The output is streamed, but generation comes before --out is opened."""
    target = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 3 and out == "" and "the maximum is 200000" in err
    assert not target.exists()


def test_verify_depth_zero_is_honoured(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "iota", "--type", "A2", "--lambda", "1,1", "--depth", "0"
    )
    assert code == 0
    report_lines = [line for line in out.splitlines() if line.startswith("[")]
    assert report_lines and all(line.endswith(" depth=0") for line in report_lines)
    assert "[FAIL]" not in out


def test_verify_depth_zero_reaches_the_structural_bound(capsys):
    """Depth 0 is valid for every suite: the structural checks run once,
    on the highest element alone."""
    code, out, err = run(capsys, "verify", "--suite", "psi", "--type", "A2", "--depth", "0")
    assert code == 0 and err == ""
    assert out == "[PASS] psi PSI type=A2 depth=0 word=None\n1/1 checks passed\n"


def test_verify_rejects_a_negative_depth(capsys):
    # without the check the star suite passes vacuously on an empty set
    code, out, err = run(capsys, "verify", "--suite", "star", "--type", "A2", "--depth", "-1")
    assert code == 2 and "negative" in err and out == ""


def test_demazure_rejects_non_reduced_word(capsys):
    code, _, err = run(
        capsys, "demazure", "--type", "A2", "--lambda", "1,0", "--word", "1,1"
    )
    assert code == 2 and "not reduced" in err


def test_verify_suite_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "eq4", "--type", "A2", "--lambda", "1,1"
    )
    assert code == 0
    assert "checks passed" in out
    assert "[FAIL]" not in out


def test_verify_statement_suite(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "cor33", "--type", "A2", "--word", "1,2", "--depth", "6",
    )
    assert code == 0
    assert "[PASS] cor33" in out


def test_verify_json_format(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "words", "--type", "B2", "--lambda", "1,1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(r["passed"] for r in payload["reports"])


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nosuch")
    assert code == 2 and "unknown suite" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, out, _ = run(
        capsys,
        "crystal", "--type", "A1", "--lambda", "2", "--format", "dot",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph crystal {")


@pytest.mark.parametrize(
    "argv",
    [
        ("crystal", "--type", "A1", "--lambda", "2"),
        ("demazure", "--type", "A2", "--lambda", "1,0", "--word", "1"),
        ("verify", "--suite", "eq4", "--type", "A1"),
    ],
)
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    # the target is a directory, so opening it for writing fails
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {tmp_path}: Is a directory\n"


def test_usage_error_exit_code(capsys):
    assert main(["crystal"]) == 2  # missing required flags
    capsys.readouterr()


def test_verify_reports_failure_with_exit_code_one(capsys, monkeypatch):
    from demazure_crystals.cli import SUITES
    from demazure_crystals.demazure import CheckReport

    def failing_suite(args):
        yield CheckReport("FAKE", {"type": "A1"}, False, "synthetic witness")

    monkeypatch.setitem(SUITES, "synthetic", failing_suite)
    code, out, _ = run(capsys, "verify", "--suite", "synthetic")
    assert code == 1
    assert "[FAIL]" in out and "synthetic witness" in out
    code, out, _ = run(capsys, "verify", "--suite", "synthetic", "--format", "json")
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize(
    "option, message",
    [
        (("--suite", "psi", "--type="), "unsupported type ''"),
        (("--suite", "eq4", "--type", "A2", "--word="), "malformed word ''"),
        (("--suite", "eq4", "--type", "A2", "--lambda="), "malformed lambda ''"),
    ],
)
def test_verify_empty_option_is_a_usage_error(capsys, option, message):
    # an empty value must not fall back to the whole grid
    code, out, err = run(capsys, "verify", *option)
    assert code == 2 and message in err and out == ""


def test_verify_suites_reject_an_unsupported_type_alike(capsys):
    grid = run(capsys, "verify", "--suite", "eq4", "--type", "X")
    structural = run(capsys, "verify", "--suite", "psi", "--type", "X")
    assert grid == structural
    code, out, err = grid
    assert code == 2 and out == "" and "unsupported type 'X'; supported:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("--suite", "psi,star,lem31", "--word", "9,9", "--lambda=x"),
            "color 9 outside the index set of A2",
        ),
        (("--suite", "psi,lem31,lem34", "--word", "9,9"), "color 9 outside the index set of A2"),
        (("--suite", "psi", "--lambda=1"), "weight (1,) does not have rank 2"),
        (("--suite", "star", "--lambda=x"), "malformed lambda 'x'"),
        (("--suite", "star", "--lambda=-1,0"), "is not dominant"),
        (("--suite", "thm32,cor33,thm35,thm35r,p3", "--lambda=x"), "malformed lambda 'x'"),
        (("--suite", "braid", "--word", "9"), "color 9 outside the index set of A2"),
        (("--suite", "lem34", "--word", "1,x"), "malformed word '1,x'"),
        (("--suite", "words", "--word", "1,1"), "word (1, 1) is not reduced"),
        (("--suite", "eq4", "--depth", "-1"), "depth -1 is negative"),
        (("--suite", "strings", "--depth", "-1"), "depth -1 is negative"),
        (("--suite", "words", "--depth", "-1"), "depth -1 is negative"),
        (("--suite", "braid", "--depth", "-1"), "depth -1 is negative"),
        (("--suite", "psi", "--lambda=1,1,1"), "weight (1, 1, 1) does not have rank 2"),
        (("--suite", "words", "--word", "1,0"), "color 0 outside the index set of A2"),
    ],
    # literal ids, so that a change of message wording does not rename the tests
    ids=[
        "argv0-color 9 outside the index set of A2",
        "argv1-color 9 outside the index set of A2",
        "argv2-weight (1,) does not have rank 2",
        "argv3-malformed lambda 'x'",
        "argv4-is not dominant",
        "argv5-malformed lambda 'x'",
        "argv6-color 9 outside the index set of A2",
        "argv7-malformed word '1,x'",
        "argv8-word (1, 1) is not reduced",
        "argv9-depth -1 is negative",
        "argv10-depth -1 is negative",
        "argv11-depth -1 is negative",
        "argv12-depth -1 is negative",
        "argv13-weight (1, 1, 1) does not have rank 2",
        "argv14-color 0 outside the index set of A2",
    ],
)
def test_verify_rejects_bad_options_that_its_suites_do_not_read(capsys, argv, message):
    code, out, err = run(capsys, "verify", "--type", "A2", *argv)
    assert code == 2 and out == "" and message in err


def test_verify_checks_options_against_every_grid_type(capsys):
    # without --type the whole grid is selected, and A1 has no color 2
    code, out, err = run(capsys, "verify", "--suite", "psi", "--word", "1,2")
    assert code == 2 and out == "" and "outside the index set of A1" in err


@pytest.mark.parametrize(
    "argv, calls",
    [
        (("--type", "A2", "--word", "1,2", "--lambda", "1,1"), 1),
        (("--word", "1"), len(GRID_TYPES)),
    ],
)
def test_verify_parses_the_word_once_per_selected_type(capsys, monkeypatch, argv, calls):
    from demazure_crystals import cli

    parsed = []
    parse = cli._parse_word

    def counted(type_label, word_text):
        parsed.append(type_label)
        return parse(type_label, word_text)

    monkeypatch.setattr(cli, "_parse_word", counted)
    code, _, _ = run(capsys, "verify", "--suite", "eq4,iota,thm32,words", *argv)
    assert code == 0 and len(parsed) == calls == len(set(parsed))


def test_verify_mixed_suites_accept_good_options(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "eq4,psi", "--type", "A2", "--word", "1,2", "--lambda", "1,1"
    )
    assert code == 0 and out.endswith("2/2 checks passed\n")


_CHECKS = (
    "refined_formula_check",
    "string_property_check",
    "word_independence_check",
    "binf_consistency_check",
    "structural_check",
    "star_involution_check",
    "braid_witness_search",
)


def _force_failures(monkeypatch):
    """Every check the suites run reports a failure with its own params."""
    from demazure_crystals import cli
    from demazure_crystals.demazure import CheckReport

    for name in _CHECKS:
        def failing(*args, _check=getattr(cli, name), **kwargs):
            report = _check(*args, **kwargs)
            return CheckReport(report.statement, report.params, False, "forced")

        monkeypatch.setattr(cli, name, failing)


def test_a_failed_check_prints_a_command_that_reproduces_it(capsys, monkeypatch):
    _force_failures(monkeypatch)
    code, out, _ = run(capsys, "verify", "--suite", "cor33", "--type", "A2", "--depth", "6")
    assert code == 1
    assert (
        "[FAIL] cor33 COR33 type=A2 depth=6 word=(1, 2)  witness: forced  "
        "reproduce: demazure-crystals verify --suite cor33 --type A2 --word 1,2 --depth 6"
    ) in out.splitlines()


def test_every_reproduce_command_runs_its_check_again(capsys, monkeypatch):
    _force_failures(monkeypatch)
    code, out, _ = run(capsys, "verify", "--type", "A2", "--lambda", "1,0")
    failures = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert code == 1 and len(failures) == len(out.splitlines()) - 1 > 14
    for line in failures:
        command = line.split("  reproduce: ")[1].split(" ")
        assert command[:2] == ["demazure-crystals", "verify"]
        code, again, _ = run(capsys, *command[1:])
        assert code == 1 and line in again.splitlines()


def test_a_failed_json_report_carries_the_same_command(capsys, monkeypatch):
    argv = ("verify", "--suite", "eq4", "--type", "A2", "--lambda", "1,1")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and "reproduce" not in out
    _force_failures(monkeypatch)
    code, text, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--format", "json")
    commands = [line.split("  reproduce: ")[1] for line in text.splitlines()[:-1]]
    assert code == 1 and [r["reproduce"] for r in json.loads(out)["reports"]] == commands
    assert "demazure-crystals verify --suite eq4 --type A2 --lambda 1,1 --word 1,2,1" in commands
    # the empty word has no option, so its command runs the suite for the weight
    assert commands[0] == "demazure-crystals verify --suite eq4 --type A2 --lambda 1,1"


@pytest.mark.parametrize("statement", STRUCTURAL_STATEMENTS)
def test_structural_check_needs_a_word_exactly_where_the_cli_gives_one(capsys, statement):
    argv = ("verify", "--suite", statement.lower(), "--type", "A2", "--depth", "2")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    words = [report["params"]["word"] for report in json.loads(out)["reports"]]
    with_words = "None" not in words
    assert with_words == (statement in WORD_STATEMENTS)
    canonical = ["()", "(1,)", "(2,)", "(1, 2)", "(2, 1)", "(1, 2, 1)"]  # length <= 3 in A2
    assert words == (canonical if with_words else ["None"])
    if with_words:
        with pytest.raises(ValueError, match=f"statement {statement} needs a word"):
            structural_check(statement, b_inf("A2"), depth=2)
    else:
        assert structural_check(statement, b_inf("A2"), depth=2).passed
        # a word it does not read would be echoed in the report, and its
        # reproduce command's --word 9,9 would be a usage error
        with pytest.raises(ValueError, match=f"statement {statement} takes no word"):
            structural_check(statement, b_inf("A2"), depth=2, word=(9, 9))
