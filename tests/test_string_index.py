"""The string-indexed Demazure kernel on B(lambda): the string index, the
operator and the lowering closure against the element-by-element walks
(`StringWalkOracle` in conftest), foreign elements, and a work-count guard."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from demazure_crystals import (
    GRID_TYPES,
    BLambdaCrystal,
    BLambdaElement,
    FormalSum,
    b_inf,
    b_lambda,
    demazure_blambda,
    demazure_operator,
    enumerate_weyl,
    grid_lambdas,
    refined_formula_check,
)
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
        word = w.canonical_word
        for cut in range(len(word) + 1):
            members = demazure_blambda(crystal, word[:cut])
            for i in crystal.cartan.colors:
                assert _f_closure_blambda(crystal, i, members) == string_walk_oracle.f_closure(
                    crystal, i, members
                ), (word[:cut], i)


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


def _foreign_elements():
    crystal = b_lambda("A2", (1, 1))
    x = crystal.f(1, crystal.highest)
    other_lambda = BLambdaElement(x.base, (2, 1))
    real = crystal.realization
    outside = real.f(1, real.f(1, real.highest))  # f_1^2 u leaves B((1,1))
    assert not crystal.contains_base(outside)
    unreachable = BLambdaElement(outside, crystal.lam)
    return crystal, [other_lambda, unreachable]


@pytest.mark.parametrize("which", [0, 1], ids=["other-lambda", "unreachable"])
def test_foreign_elements_are_rejected(which):
    crystal, foreign = _foreign_elements()
    x = foreign[which]
    with pytest.raises(ValueError, match="is not an element of") as info:
        demazure_operator(crystal, 1, FormalSum.basis(crystal.highest) + FormalSum.basis(x))
    assert repr(x) in str(info.value)
    with pytest.raises(ValueError, match="is not an element of") as info:
        _f_closure_blambda(crystal, 2, {crystal.highest, x})
    assert repr(x) in str(info.value)


def test_string_index_rejects_an_unknown_color():
    with pytest.raises(ValueError, match="outside the index set"):
        b_lambda("A2", (1, 1)).string_index(3)


def test_index_build_checks_normality_and_the_partition(monkeypatch):
    crystal = BLambdaCrystal(b_inf("A2"), (2, 1))
    u = crystal.highest
    members = crystal.generate()
    lower = {i: {x: crystal.f(i, x) for x in members} for i in crystal.cartan.colors}
    for i, lowering in lower.items():
        assert crystal._build_index(i, lowering) == crystal.string_index(i)
    # cut the color-1 string at u short: u then heads a string one too short
    with pytest.raises(RuntimeError, match="normality violated"):
        crystal._build_index(1, {**lower[1], crystal.f(1, u): None})
    # send a later singleton string into the string at u: the strings overlap
    b = next(x for x in members if crystal.f(2, x) is None and crystal.e(2, x) is None)
    with pytest.raises(RuntimeError, match="failed to partition"):
        crystal._build_index(2, {**lower[2], b: crystal.f(2, u)})
    # a head's eps is read in B(inf): a nonzero one there fails the check
    real = crystal.realization
    monkeypatch.setattr(real, "eps", lambda i, b, eps=real.eps: eps(i, b) + (b == u.base))
    with pytest.raises(RuntimeError, match="normality violated"):
        crystal._build_index(1, lower[1])
    with pytest.raises(RuntimeError, match="normality violated"):
        BLambdaCrystal(real, (2, 1)).generate()
