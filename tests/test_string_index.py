"""The string-indexed Demazure kernel on B(lambda): the string index, the
operator and the lowering closure against the element-by-element walks
(`StringWalkOracle` in conftest), the string property check against its walk
over every string (`string_property_walk` in conftest), foreign elements, and
work-count guards."""

import random
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from demazure_crystals import (
    GRID_TYPES,
    BLambdaCrystal,
    FormalSum,
    b_inf,
    b_lambda,
    demazure_blambda,
    demazure_chain,
    demazure_operator,
    enumerate_weyl,
    grid_lambdas,
    refined_formula_check,
    string_property_check,
    w_add,
)
from demazure_crystals import demazure
from demazure_crystals.cli import main
from demazure_crystals.demazure import _f_closure_blambda

# every grid weight; A2 (2,2), B2 (2,1) and G2 (1,1) are the largest of their types
WEIGHTS = [(t, lam) for t in GRID_TYPES for lam in grid_lambdas(t)]


@pytest.mark.parametrize("type_label,lam", WEIGHTS)
def test_strings_match_the_element_walk(type_label, lam, string_walk_oracle):
    crystal = b_lambda(type_label, lam)
    for i in crystal.cartan.colors:
        strings = crystal.strings(i)
        expected = string_walk_oracle.strings(crystal, i)
        assert [(s[0], s) for s in strings] == expected
        place = crystal.string_index(i)[1]
        assert len(place) == len(crystal.generate())
        for sid, s in enumerate(strings):
            for k, x in enumerate(s):
                assert place[x] == (sid, k)


@pytest.mark.parametrize("type_label,lam", WEIGHTS)
def test_operator_matches_the_element_walk_on_every_basis_element(
    type_label, lam, string_walk_oracle
):
    crystal = b_lambda(type_label, lam)
    for x in sorted(crystal.generate(), key=crystal.sort_key):
        basis = FormalSum.basis(x)
        for i in crystal.cartan.colors:
            assert demazure_operator(crystal, i, basis) == string_walk_oracle.demazure_operator(
                crystal, i, basis
            ), (x, i)


@pytest.mark.parametrize("type_label,lam", WEIGHTS)
def test_closure_matches_the_element_walk_on_every_demazure_set(
    type_label, lam, string_walk_oracle
):
    crystal = b_lambda(type_label, lam)
    group = enumerate_weyl(crystal.cartan)
    for w in group:
        for cut in range(len(w) + 1):
            members = demazure_blambda(crystal, w[:cut])
            for i in crystal.cartan.colors:
                assert _f_closure_blambda(crystal, i, members) == string_walk_oracle.f_closure(
                    crystal, i, members
                ), (w[:cut], i)


_SUM_WEIGHTS = [("A2", (2, 2)), ("B2", (2, 1)), ("G2", (1, 1)), ("A3", (1, 0, 1))]


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    weight=st.sampled_from(_SUM_WEIGHTS),
    raw_color=st.integers(1, 3),
    terms=st.lists(st.tuples(st.integers(0, 10**6), st.integers(-3, 3)), max_size=20),
)
def test_operator_matches_the_element_walk_on_integer_sums(weight, raw_color, terms, string_walk_oracle):
    crystal = b_lambda(*weight)
    i = 1 + (raw_color - 1) % crystal.cartan.rank
    elements = sorted(crystal.generate(), key=crystal.sort_key)
    # whole strings with opposite signs make terms of the image cancel
    chain = crystal.strings(i)[terms[0][0] % len(crystal.strings(i))] if terms else ()
    pairs = [(elements[n % len(elements)], c) for n, c in terms]
    pairs += [(x, 1 if k % 2 else -1) for k, x in enumerate(chain)]
    x = FormalSum(pairs)
    result = demazure_operator(crystal, i, x)
    assert result == string_walk_oracle.demazure_operator(crystal, i, x)
    assert all(c != 0 for _, c in result.items())


def test_eq4_reads_the_index_only(monkeypatch):
    """Work-count guard: once generated and indexed, EQ4 on every w0 word
    makes no f, e or wt call."""
    crystal = BLambdaCrystal(b_inf("A2"), (2, 2))
    crystal.generate()
    for i in crystal.cartan.colors:
        crystal.string_index(i)
    calls = {"f": 0, "e": 0, "wt": 0}
    for name in calls:
        uncounted = getattr(crystal, name)

        def counting(*args, name=name, uncounted=uncounted):
            calls[name] += 1
            return uncounted(*args)

        monkeypatch.setattr(crystal, name, counting)
    group = enumerate_weyl(crystal.cartan)
    for word in sorted(group.reduced_words(group.longest)):
        assert refined_formula_check(crystal, word).passed
    assert calls == {"f": 0, "e": 0, "wt": 0}


# one kind left: an element of another lambda is a plain B(inf) element too
@pytest.mark.parametrize("kind", ["unreachable"])
def test_foreign_elements_are_rejected(kind):
    crystal = b_lambda("A2", (1, 1))
    real = crystal.realization
    x = real.f(1, real.f(1, real.highest))  # f_1^2 u leaves B((1,1))
    assert not crystal.contains_base(x)
    with pytest.raises(ValueError, match="is not an element of") as info:
        demazure_operator(crystal, 1, FormalSum.basis(crystal.highest) + FormalSum.basis(x))
    assert repr(x) in str(info.value)
    with pytest.raises(ValueError, match="is not an element of") as info:
        _f_closure_blambda(crystal, 2, {crystal.highest, x})
    assert repr(x) in str(info.value)


def _memoized_at_random(keep, rng):
    """(crystal, word) for every grid weight and reduced word: each crystal is
    fresh, and its memo holds the Demazure sets of word and of word[:-1],
    each member kept with probability keep."""
    for type_label, lam in WEIGHTS:
        shared = b_lambda(type_label, lam)
        crystal = BLambdaCrystal(shared.realization, lam)
        group = enumerate_weyl(crystal.cartan)
        for word in (r for w in group for r in sorted(group.reduced_words(w))):
            crystal._demazure_cache = {
                w: frozenset(x for x in sorted(demazure_blambda(shared, w), key=crystal.sort_key)
                             if rng.random() < keep)
                for w in (word[:-1], word)
            }
            yield crystal, word


def _verdict(report):
    return None if report.passed else (report.statement, report.witness)


def test_string_property_check_matches_its_walk_over_every_string(string_property_oracle):
    """On every grid crystal and reduced word (779 cases), with the memoized
    set and previous set kept whole or with members dropped at random,
    seeded, the local check and the walk over every string give the same
    verdict and witness.  EQ6 and TRICHOTOMY both fail at every fraction
    below 1."""
    rng, verdicts = random.Random(30), Counter()
    for keep in (1.0, 0.9, 0.7, 0.5):
        for crystal, word in _memoized_at_random(keep, rng):
            verdict = _verdict(string_property_check(crystal, word))
            assert verdict == string_property_oracle(crystal, word), (crystal, word, keep)
            verdicts[keep, verdict and verdict[0]] += 1
    assert sum(verdicts.values()) == 4 * 779
    assert verdicts[1.0, None] == 779
    assert all(verdicts[keep, name] for keep in (0.9, 0.7, 0.5) for name in ("EQ6", "TRICHOTOMY"))


def test_eq8_is_named_on_the_first_string_as_by_the_walk(monkeypatch, string_property_oracle):
    """With a closure that stops lowering, EQ8 fails on strings where the
    three cases hold, and on the same memoized sets as above the check names
    EQ8 or TRICHOTOMY, whichever string comes first, as the walk does."""
    rng, verdicts = random.Random(30), Counter()
    for keep in (1.0, 0.7):
        for crystal, word in _memoized_at_random(keep, rng):
            with monkeypatch.context() as patch:  # the memoized sets are built unpatched
                patch.setattr(demazure, "_f_closure_blambda", lambda crystal, i, members: set(members))
                verdict = _verdict(string_property_check(crystal, word))
                assert verdict == string_property_oracle(crystal, word), (crystal, word, keep)
            verdicts[keep, verdict and verdict[0]] += 1
    assert verdicts[1.0, "EQ8"] and verdicts[0.7, "EQ8"] and verdicts[0.7, "TRICHOTOMY"]


def test_the_strings_suite_reads_the_index_and_closes_once(monkeypatch, capsys):
    """The grid's strings suite passes with BLambdaCrystal.strings raising;
    with the Demazure sets memoized, each check of a nonempty word makes one
    closure, of the whole previous set along the last letter."""

    def no_strings(self, i):
        raise AssertionError("crystal.strings was read")

    monkeypatch.setattr(BLambdaCrystal, "strings", no_strings)
    assert main(["verify", "--suite", "strings"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "779/779 checks passed"
    crystal = BLambdaCrystal(b_inf("B2"), (2, 1))
    group = enumerate_weyl(crystal.cartan)
    words = [r for w in group for r in sorted(group.reduced_words(w))]
    for word in words:
        demazure_blambda(crystal, word)
    closures = []

    def counting(crystal, i, members):
        closures.append((i, members))
        return _f_closure_blambda(crystal, i, members)

    monkeypatch.setattr(demazure, "_f_closure_blambda", counting)
    for word in words:
        assert string_property_check(crystal, word).passed
    assert closures == [(w[-1], demazure_blambda(crystal, w[:-1])) for w in words if w]


@pytest.mark.parametrize("memo", ["current", "previous"])
def test_string_property_check_rejects_an_element_outside_the_crystal(memo):
    """An element outside the crystal in either memoized set raises the
    crystal's nonmember error, as the closure does."""
    crystal = BLambdaCrystal(b_inf("A2"), (1, 1))
    demazure_blambda(crystal, (1, 2))
    word = (1, 2) if memo == "current" else (1,)
    crystal._demazure_cache[word] |= {(5, 5, 5)}
    with pytest.raises(ValueError, match=re.escape(f"(5, 5, 5) is not an element of {crystal!r}")):
        string_property_check(crystal, (1, 2))


def test_string_index_rejects_an_unknown_color():
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"color {i} outside the index set of A2"):
            b_lambda("A2", (1, 1)).string_index(i)


def test_index_build_checks_normality_and_the_partition(monkeypatch):
    crystal = BLambdaCrystal(b_inf("A2"), (2, 1))
    real, u = crystal.realization, crystal.highest
    members = crystal.generate()
    colors = crystal.cartan.colors
    lower = {i: {x: crystal.f(i, x) for x in members} for i in colors}
    # the heads and their pairings as generation reads them, in B(inf)
    heads = {i: {x: w_add(crystal.lam, real.wt(x))[i - 1] for x in members if not real.eps(i, x)}
             for i in colors}
    for i in colors:
        assert crystal._build_index(i, heads[i], lower[i]) == crystal.string_index(i)
    # cut the color-1 string at u short: u then heads a string one too short
    with pytest.raises(RuntimeError, match="normality violated"):
        crystal._build_index(1, heads[1], {**lower[1], crystal.f(1, u): None})
    # send a later singleton string into the string at u: the strings overlap
    b = next(x for x in members if crystal.f(2, x) is None and crystal.e(2, x) is None)
    with pytest.raises(RuntimeError, match="failed to partition"):
        crystal._build_index(2, heads[2], {**lower[2], b: crystal.f(2, u)})
    # a head's pairing is checked against its string: one more at u fails
    message = "normality violated: color 1 string of length 2 at (), pairing 3"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        crystal._build_index(1, {**heads[1], u: heads[1][u] + 1}, lower[1])
    # a member that eps does not mark as a head is on no string: u's string is left over
    with pytest.raises(RuntimeError, match="failed to partition"):
        crystal._build_index(1, {x: p for x, p in heads[1].items() if x != u}, lower[1])
    # generating under an eps_1 that never reaches 0 never closes the color-1
    # cut, and runs past the crystal's 15 elements before any string is indexed
    monkeypatch.setattr(real, "eps", lambda i, b, eps=real.eps: 9 if i == 1 else eps(i, b))
    message = "generation of BLambdaCrystal(A2, lam=(2, 1)) passed its 15 elements; realization bug"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        BLambdaCrystal(real, (2, 1)).generate()


@pytest.mark.parametrize("color", [1.0, True])
def test_a_color_that_only_equals_an_int_is_rejected_by_the_operator(color):
    """The string index is keyed by color, and 1.0 and True hash as 1: once
    generated, string_index, strings, the Demazure operator and chain and
    the crystal operators f, e, eps and phi check the color before the index
    answers for color 1."""
    crystal = BLambdaCrystal(b_inf("A2"), (1, 1))
    crystal.generate()
    u = crystal.highest
    basis = FormalSum.basis(u)
    assert demazure_operator(crystal, 1, basis) == FormalSum.from_elements([(), (1,)])
    assert (crystal.f(1, u), crystal.e(1, (1,)), crystal.eps(1, (1,)), crystal.phi(1, u)) == ((1,), u, 1, 1)
    message = f"color {color} outside the index set of A2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        demazure_operator(crystal, color, basis)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        demazure_chain(crystal, (color,))
    for query, x in [(crystal.f, u), (crystal.e, (1,)), (crystal.eps, (1,)), (crystal.phi, u)]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            query(color, x)
    for query in (crystal.string_index, crystal.strings):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            query(color)
