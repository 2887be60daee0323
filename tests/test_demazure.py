"""Demazure subsets, the operator on formal sums, and the structural checks."""

from itertools import product

import pytest

from demazure_crystals import demazure
from demazure_crystals import (
    BInfRealization,
    BLambdaCrystal,
    FormalSum,
    SUPPORTED_TYPES,
    WeightPolynomial,
    algebraic_demazure,
    b_inf,
    b_lambda,
    binf_consistency_check,
    braid_order,
    braid_witness_search,
    cartan_matrix,
    char_map,
    demazure_binf,
    demazure_blambda,
    demazure_chain,
    demazure_operator,
    enumerate_weyl,
    refined_formula_check,
    star_involution_check,
    string_property_check,
    structural_check,
    word_independence_check,
)


@pytest.mark.parametrize("type_label", SUPPORTED_TYPES)
def test_the_highest_element_is_an_element_although_it_is_falsy(type_label):
    """The highest element is the empty tuple, which is falsy: every query
    must treat it as an element, never as a missing one."""
    real = b_inf(type_label)
    u = real.highest
    assert u == () and not u
    for i in real.cartan.colors:
        fu = real.f(i, u)
        assert sum(fu) == 1 and real.e(i, fu) == u
        assert real.e(i, u) is None
        assert real.eps(i, u) == real.phi(i, u) == 0
        assert real.f_star(i, u) == fu  # the weight -alpha_i space is one element
        assert real.psi(i, u) == (u, 0)
    assert real.wt(u) == (0,) * real.cartan.rank
    assert real.peel(u) == () and real.replay(()) == u and real.star(u) == u
    assert real.sort_key(u) == (0, (), ())
    for depth in (0, 3):
        assert demazure_binf(real, (), depth) == {u}
    if type_label == "A2":
        trivial = b_lambda("A2", (0, 0))
        assert trivial.generate() == {u}
        basis = FormalSum.basis(u)
        for i in trivial.cartan.colors:
            assert trivial.f(i, u) is None and trivial.e(i, u) is None
            assert trivial.eps(i, u) == trivial.phi(i, u) == 0
            assert demazure_operator(trivial, i, basis) == basis
        assert trivial.wt(u) == (0, 0)
        assert char_map(trivial, u) == char_map(trivial, basis) == WeightPolynomial.monomial((0, 0))
        assert demazure_chain(trivial, (1, 2, 1)) == basis


def test_non_reduced_word_rejected():
    crystal = b_lambda("A2", (1, 0))
    with pytest.raises(ValueError):
        demazure_blambda(crystal, (1, 1))
    with pytest.raises(ValueError):
        demazure_binf(b_inf("A2"), (2, 2), 4)


def test_empty_word_is_the_highest_element():
    crystal = b_lambda("A2", (1, 0))
    assert demazure_blambda(crystal, ()) == {crystal.highest}
    assert demazure_binf(b_inf("A2"), (), 5) == {b_inf("A2").highest}


def test_frozen_sizes():
    assert len(demazure_blambda(b_lambda("A2", (1, 0)), (1,))) == 2
    assert len(demazure_blambda(b_lambda("A2", (1, 1)), (1, 2))) == 5
    assert len(demazure_blambda(b_lambda("A2", (1, 1)), (1, 2, 1))) == 8


def test_longest_word_recovers_the_whole_crystal():
    crystal = b_lambda("B2", (1, 1))
    group = enumerate_weyl(crystal.cartan)
    word = next(iter(group.reduced_words(group.longest)))
    assert demazure_blambda(crystal, word) == crystal.generate()


def test_demazure_binf_single_string():
    real = b_inf("A2")
    members = demazure_binf(real, (1,), 3)
    assert members == {real.replay((1,) * k) for k in range(4)}


def test_demazure_binf_two_letters_depth_two():
    # brute-force recursion: u, f1, f1^2, f2, f2^2, f2 f1 -- six elements;
    # one depth-2 element of the full crystal (f1 f2 u) lies outside
    real = b_inf("A2")
    members = demazure_binf(real, (1, 2), 2)
    assert len(members) == 6
    assert real.f(1, real.f(2, real.highest)) not in members
    assert len(real.generate(2)) == 7


def test_demazure_binf_restriction_stability():
    real = b_inf("B2")
    wide = demazure_binf(real, (1, 2, 1), 5)
    narrow = demazure_binf(real, (1, 2, 1), 4)
    assert narrow == {b for b in wide if sum(b) <= 4}


def _closure(step, i, members, depth):
    """The element walk the id walks replaced, kept as their oracle: the union
    of the step-strings of the members down to depth, each walk stopping at
    the first element already reached."""
    out = set()
    for b in members:
        d = sum(b)  # the depth of b; every step raises it by one
        while True:
            size = len(out)
            out.add(b)
            if len(out) == size or d >= depth:
                break
            b = step(i, b)
            d += 1
    return out


def _tails(step, i, members, depth):
    """The union of the whole step-string tails of the members."""
    out = set()
    for b in members:
        out.add(b)
        while sum(b) < depth:
            b = step(i, b)
            out.add(b)
    return out


@pytest.mark.parametrize("type_label,word", [("A2", (1, 2, 1)), ("B2", (2, 1, 2, 1)), ("G2", (1, 2, 1))])
@pytest.mark.parametrize("depth", [4, 6])
def test_closure_is_the_union_of_the_string_tails(type_label, word, depth):
    """The id walk stops at the first id already reached; the walks over the
    whole tails are the oracle, for f and for f_star."""
    real = b_inf(type_label)
    table = real.table(depth)
    for cut in range(len(word) + 1):
        members = demazure_binf(real, word[:cut], depth)
        ids = [table.elements.index(b) for b in members]
        for step, steps in ((real.f, table.f), (real.f_star, table.f_star)):
            for i in real.cartan.colors:
                walked = demazure._elements(table, demazure._walk(steps[i], table.starts[depth], ids))
                assert walked == _tails(step, i, members, depth) == _closure(step, i, members, depth)
    # the recursion through whole tails gives the same Demazure set
    members = {real.highest}
    for i in word:
        members = _tails(real.f, i, members, depth)
    assert demazure_binf(real, word, depth) == members


@pytest.mark.parametrize("type_label", ["A2", "B2", "G2"])
def test_lem31_and_lem34_id_unions_match_the_element_walks(type_label):
    """For every base of depth <= 4 and every color pair, the id walks of
    LEM31 and LEM34 at depth 6 give the element walks' sets."""
    depth = 6
    real = b_inf(type_label)
    table = real.table(depth)
    cut, colors = table.starts[depth], real.cartan.colors

    def walk(steps, i, ids):
        return demazure._walk(steps[i], cut, ids)

    def closure(step, i, members):
        return _closure(step, i, members, depth)

    def elements(ids):
        return demazure._elements(table, ids)

    for x in range(table.starts[depth - 1]):
        b = table.elements[x]
        for i, j in product(colors, colors):
            starred = walk(table.f_star, j, (x,))
            assert elements(starred) == closure(real.f_star, j, (b,))
            assert elements(walk(table.f, i, starred)) == closure(real.f, i, closure(real.f_star, j, (b,)))
            plain = walk(table.f, i, (x,))
            assert elements(plain) == closure(real.f, i, (b,))
            assert elements(walk(table.f_star, j, plain)) == closure(real.f_star, j, closure(real.f, i, (b,)))
            raised = {table.e[i][y] for y in starred} - {-1}
            assert elements(raised) == {real.e(i, c) for c in closure(real.f_star, j, (b,))} - {None}
            up = real.e(i, b)
            assert (table.e[i][x] == -1) == (up is None)
            if up is not None:
                assert elements(walk(table.f_star, j, (table.e[i][x],))) == closure(real.f_star, j, (up,))


def test_monotonicity_in_the_word():
    crystal = b_lambda("A2", (2, 1))
    for word in [(1,), (1, 2), (1, 2, 1)]:
        prev = demazure_blambda(crystal, word[:-1])
        assert prev <= demazure_blambda(crystal, word)


def test_raising_closure_on_demazure_sets():
    crystal = b_lambda("B2", (1, 1))
    group = enumerate_weyl(crystal.cartan)
    for w in group:
        for word in group.reduced_words(w):
            members = demazure_blambda(crystal, word)
            for x in members:
                for i in crystal.cartan.colors:
                    up = crystal.e(i, x)
                    assert up is None or up in members


def test_demazure_operator_frozen_examples():
    # zero pairing: single k = 0 term
    crystal = b_lambda("A2", (1, 0))
    u = crystal.highest
    assert demazure_operator(crystal, 2, FormalSum.basis(u)) == FormalSum.basis(u)
    # the full string for A1 at weight 2
    a1 = b_lambda("A1", (2,))
    chain = demazure_operator(a1, 1, FormalSum.basis(a1.highest))
    assert chain == FormalSum.from_elements(a1.generate())
    # pairing -1: the empty sum
    x = a1.f(1, a1.highest)  # weight 0
    y = a1.f(1, x)  # weight -2: operator gives -e(x)
    mid = demazure_operator(a1, 1, FormalSum.basis(x))
    assert mid == FormalSum.basis(x)  # pairing 0: single term
    low = demazure_operator(a1, 1, FormalSum.basis(y))
    assert low == -FormalSum.basis(x)
    # pairing exactly -1 appears in A2 at weight (-1, 1)
    a2 = b_lambda("A2", (1, 0))
    f1u = a2.f(1, a2.highest)
    assert a2.wt(f1u) == (-1, 1)
    assert demazure_operator(a2, 1, FormalSum.basis(f1u)) == FormalSum.zero()


@pytest.mark.parametrize("type_label,lam", [("A2", (1, 1)), ("B2", (1, 1))])
def test_demazure_operator_idempotent_on_basis_elements(type_label, lam):
    crystal = b_lambda(type_label, lam)
    for x in crystal.generate():
        for i in crystal.cartan.colors:
            once = demazure_operator(crystal, i, FormalSum.basis(x))
            assert demazure_operator(crystal, i, once) == once


def test_demazure_operator_fixes_string_sums():
    crystal = b_lambda("A2", (2, 1))
    for i in crystal.cartan.colors:
        for s in crystal.strings(i):
            total = FormalSum.from_elements(s)
            assert demazure_operator(crystal, i, total) == total


def test_refined_formula_small_grid():
    for type_label, lam in [("A1", (3,)), ("A2", (1, 1)), ("B2", (1, 1))]:
        crystal = b_lambda(type_label, lam)
        group = enumerate_weyl(crystal.cartan)
        for w in group:
            for word in group.reduced_words(w):
                assert refined_formula_check(crystal, word).passed


def test_refined_formula_both_longest_words_agree():
    crystal = b_lambda("A2", (1, 1))
    lhs = demazure_chain(crystal, (1, 2, 1))
    rhs = demazure_chain(crystal, (2, 1, 2))
    assert lhs == rhs == FormalSum.from_elements(crystal.generate())


def test_string_property_small_grid():
    crystal = b_lambda("A2", (1, 1))
    group = enumerate_weyl(crystal.cartan)
    for w in group:
        for word in group.reduced_words(w):
            assert string_property_check(crystal, word).passed
    assert string_property_check(crystal, ()).passed


def test_word_independence():
    crystal = b_lambda("A2", (1, 1))
    group = enumerate_weyl(crystal.cartan)
    w0 = group.longest
    report = word_independence_check(crystal, w0)
    assert report.passed and report.details["size"] == 8
    b2 = b_lambda("B2", (1, 1))
    for w in enumerate_weyl(b2.cartan):
        assert word_independence_check(b2, w).passed


def test_word_independence_rejects_an_element_of_another_type():
    a2_longest = enumerate_weyl(cartan_matrix("A2")).longest
    with pytest.raises(ValueError, match="not an element of the Weyl group of B2"):
        word_independence_check(b_lambda("B2", (1, 1)), a2_longest)


@pytest.mark.parametrize("statement", ["THM32", "COR33", "THM35", "THM35R", "P3"])
def test_structural_word_statements(statement):
    real = b_inf("A2")
    group = enumerate_weyl(real.cartan)
    for w in group:
        report = structural_check(statement, real, depth=5, word=w.canonical_word)
        assert report.passed, report.witness


def test_p3_names_the_base_whose_string_escapes(monkeypatch):
    """With the deepest layer cut from the Demazure set of s_1, the f_1
    string through the highest element leaves the set, and P3 says where."""
    full = demazure._demazure_ids

    def cut(realization, word, depth):
        deepest = realization.table(depth).starts[depth]
        return frozenset(x for x in full(realization, word, depth) if x < deepest)

    monkeypatch.setattr(demazure, "_demazure_ids", cut)
    report = structural_check("P3", b_inf("A2"), depth=3, word=(1,))
    assert not report.passed
    assert report.witness in {
        "string escapes at (), color 1",
        "string escapes at (1,), color 1",
    }


def test_structural_psi():
    for type_label in ("A2", "B2"):
        report = structural_check("PSI", b_inf(type_label), depth=5)
        assert report.passed, report.witness


def test_structural_base_statements():
    for statement in ("LEM31", "LEM34"):
        report = structural_check(statement, b_inf("A2"), depth=5)
        assert report.passed, report.witness


def test_structural_single_base_example():
    """LEM34 at depth 6 quantifies over every base of depth <= 4 and every
    color pair, the base f_2 u with colors (1, 1) among them."""
    report = structural_check("LEM34", b_inf("A2"), depth=6)
    assert report.passed, report.witness


def test_lem31_names_the_base_where_the_unions_differ():
    """With f_star replaced by f, lowering along 1 then 2 and along 2 then 1
    from the highest element reach different sets."""
    real = BInfRealization(cartan_matrix("A2"))
    real.f_star = real.f
    report = structural_check("LEM31", real, depth=4)
    assert not report.passed
    assert report.witness == "unions differ at base (), colors (1,2)"


def test_lem34_names_the_extra_element():
    """With a starred step of two lowerings, raising f_1^2 u gives f_1 u,
    which no starred string from u or e_1 u = 0 reaches."""
    real = BInfRealization(cartan_matrix("A2"))
    plain_f = real.f
    real.f_star = lambda j, b: plain_f(j, plain_f(j, b))
    report = structural_check("LEM34", real, depth=4)
    assert not report.passed
    assert report.witness == "extra element (1,) at base (), colors (1,1)"


# (statement, depth, word, operator, corruption of the original operator, witness)
_BINF_WITNESS_CASES = {
    "psi-highest": (
        "PSI", 3, None, "psi", lambda psi, real: lambda i, b: (psi(i, b)[0], psi(i, b)[1] + 1),
        "highest element maps to ((), 1) at color 1",
    ),
    "psi-collision": (
        "PSI", 3, None, "psi", lambda psi, real: lambda i, b: psi(i, () if (i, b) == (1, (0, 1)) else b),
        "psi_1 collision between () and (0, 1)",
    ),
    "psi-starred": (
        "PSI", 3, None, "f_star", lambda f_star, real: lambda i, b: b,
        "starred lowering mismatch at (), color 1",
    ),
    "psi-lowering": (
        "PSI", 3, None, "phi", lambda phi, real: lambda i, b: phi(i, b) + 1,
        "lowering does not commute at (), color 1",
    ),
    "psi-raising-zero": (
        "PSI", 3, None, "phi", lambda phi, real: lambda i, b: phi(i, b) - 1,
        "raising zero mismatch at (), color 1",
    ),
    "psi-raising": (
        "PSI", 3, None, "phi", lambda phi, real: lambda i, b: phi(i, b) - (real.eps(i, b) > 0),
        "raising does not commute at (0, 1, 1), color 1",
    ),
    "star-involution": (
        "STAR", 3, None, "star", lambda star, real: lambda b: star(b) + (1,),
        "involution fails at ()",
    ),
    "star-weight": (
        "STAR", 3, None, "star",
        lambda star, real: lambda b: (1,) if b == () else () if b == (1,) else star(b),
        "weight not preserved at ()",
    ),
    "star-twisted": (
        "STAR", 3, None, "f_star", lambda f_star, real: lambda i, b: b,
        "twisted lowering fails at (), color 1",
    ),
    "thm32": ("THM32", 3, (1, 2), "f_star", lambda f_star, real: real.f, "sets differ at (0, 1, 1)"),
    "cor33": ("COR33", 3, (1, 2), "star", lambda star, real: lambda b: b, "sets differ at (0, 1, 1)"),
    "thm35r": ("THM35R", 3, (1, 2), "f_star", lambda f_star, real: real.f, "sets differ at (0, 1, 1)"),
    "thm35": (
        "THM35", 3, (1,), "e", lambda e, real: lambda i, b: (0, 1) if b == () else e(i, b),
        "raising escapes at (), color 1",
    ),
    # e_1 f_1 u = f_1^2 u lies in the set at depth 2 but not at depth 1
    "shallower-depth": (
        "THM35", 2, (1,), "e", lambda e, real: lambda i, b: (2,) if (i, b) == (1, (1,)) else e(i, b),
        "fails at depth 1: raising escapes at (1,), color 1",
    ),
    # the depth-1 elements go missing from the shallower rerun only
    "restriction": (
        "PSI", 2, None, "generate", lambda generate, real: lambda d: generate(0 if d == 1 else d),
        "depth 2 result does not restrict to depth 1",
    ),
}


@pytest.mark.parametrize("case", sorted(_BINF_WITNESS_CASES))
def test_binf_checks_name_their_failure_witness(case):
    """Each case corrupts one operator of a fresh realization, as an instance
    attribute, so that exactly one failure branch of the check fires first."""
    statement, depth, word, name, corrupt, witness = _BINF_WITNESS_CASES[case]
    real = BInfRealization(cartan_matrix("A2"))
    setattr(real, name, corrupt(getattr(real, name), real))
    if statement == "STAR":
        report = star_involution_check(real, depth)
    else:
        report = structural_check(statement, real, depth=depth, word=word)
    assert not report.passed
    assert report.witness == witness


def test_structural_check_rejects_unknown_statement():
    with pytest.raises(ValueError):
        structural_check("NOSUCH", b_inf("A2"), depth=4)
    with pytest.raises(ValueError):
        structural_check("THM32", b_inf("A2"), depth=4)  # word is required
    with pytest.raises(ValueError):
        structural_check("PSI", b_inf("A2"), depth=0)
    with pytest.raises(ValueError):
        demazure_binf(b_inf("A2"), (1,), -1)
    with pytest.raises(ValueError):
        braid_witness_search(b_lambda("A2", (1, 0)), 1, 1)


def test_infinity_side_consistency():
    for type_label, lam in [("A2", (1, 1)), ("B2", (1, 0))]:
        crystal = b_lambda(type_label, lam)
        group = enumerate_weyl(crystal.cartan)
        for w in group:
            report = binf_consistency_check(crystal, w.canonical_word, 6)
            assert report.passed, report.witness


def _member(crystal, word):
    """The element of the crystal whose peel word is word."""
    return next(x for x in crystal.generate() if crystal.peel(x) == word)


def _drop(crystal, word, *peel_words):
    """Memoize the Demazure set of word without the elements of peel_words."""
    members = demazure_blambda(crystal, word)
    crystal._demazure_cache[word] = frozenset(x for x in members if crystal.peel(x) not in peel_words)


def _eq4_coefficient(crystal, monkeypatch):
    chain = demazure.demazure_chain
    extra = FormalSum.basis(_member(crystal, (1,)))
    monkeypatch.setattr(demazure, "demazure_chain", lambda c, word: chain(c, word) + extra)
    return refined_formula_check(crystal, (1, 2))


def _eq4_support(crystal, monkeypatch):
    _drop(crystal, (1, 2), (2, 2, 1))
    return refined_formula_check(crystal, (1, 2))


def _eq6(crystal, monkeypatch):
    _drop(crystal, (1, 2), (1,))
    return string_property_check(crystal, (1, 2))


def _trichotomy(crystal, monkeypatch):
    demazure_blambda(crystal, (1, 2))
    _drop(crystal, (1,), (1,))
    return string_property_check(crystal, (1, 2))


def _eq8(crystal, monkeypatch):
    # for a correct closure the trichotomy implies EQ8, so the closure stops lowering
    demazure_blambda(crystal, (1, 2))
    monkeypatch.setattr(demazure, "_f_closure_blambda", lambda c, i, members: set(members))
    return string_property_check(crystal, (1, 2))


def _word_independence(crystal, monkeypatch):
    _drop(crystal, (2, 1, 2), (1, 2, 2, 1))
    return word_independence_check(crystal, enumerate_weyl(crystal.cartan).longest)


def _iota(crystal, monkeypatch):
    _drop(crystal, (1, 2), (2, 1))
    return binf_consistency_check(crystal, (1, 2), 6)


@pytest.mark.parametrize(
    "corrupt,statement,witness",
    [
        (_eq4_coefficient, "EQ4", "coefficient 2 at (1,)"),
        (_eq4_support, "EQ4", "support mismatch at (1, 2)"),
        (_eq6, "EQ6", "color 2 string at (1,) meets the set in 2 elements"),
        (_trichotomy, "TRICHOTOMY", "string at (1,): |current|=3, |previous|=0"),
        (
            _eq8,
            "EQ8",
            "string at (): closure of the previous intersection differs at (0, 1)",
        ),
        (
            _word_independence,
            "WORD_INDEPENDENCE",
            "words (1, 2, 1) and (2, 1, 2) differ at (1, 2, 1)",
        ),
        (_iota, "IOTA", "sets differ at (1, 1)"),
    ],
    ids=["EQ4-coefficient", "EQ4-support", "EQ6", "TRICHOTOMY", "EQ8", "WORD_INDEPENDENCE", "IOTA"],
)
def test_blambda_checks_name_their_witness(corrupt, statement, witness, monkeypatch):
    """On A2 (1, 1), each check fails on one corrupted memoized Demazure set
    (or on a corrupted chain or closure) and names the element where it fails."""
    crystal = BLambdaCrystal(b_inf("A2"), (1, 1))  # fresh, so its caches are its own
    report = corrupt(crystal, monkeypatch)
    assert not report.passed
    assert (report.statement, report.witness) == (statement, witness)


def test_string_trichotomy_on_the_infinity_side():
    """On a truncated string {head, f head, ...} the intersection with a
    Demazure subset is empty, the head alone, or the whole truncated string."""
    depth = 5
    real = b_inf("A2")
    group = enumerate_weyl(real.cartan)
    heads = {
        (i, b)
        for b in real.generate(depth)
        for i in real.cartan.colors
        if real.eps(i, b) == 0
    }
    for w in group:
        members = demazure_binf(real, w.canonical_word, depth)
        for i, head in heads:
            string = [head]
            cur = head
            while sum(cur) < depth:
                cur = real.f(i, cur)
                string.append(cur)
            inter = members & set(string)
            assert inter in (set(), {head}, set(string))


def test_blambda_strings_are_prefixes_of_infinity_strings():
    """Each highest-weight string is the membership-bounded prefix of the
    ambient infinity-crystal string with the same head."""
    for type_label, lam in [("A2", (2, 1)), ("B2", (1, 1))]:
        crystal = b_lambda(type_label, lam)
        real = crystal.realization
        for i in crystal.cartan.colors:
            for s in crystal.strings(i):
                cur = s[0]
                assert real.eps(i, cur) == 0
                for member in s[1:]:
                    cur = real.f(i, cur)
                    assert member == cur
                # the next ambient step, which always exists, falls outside
                assert not crystal.contains_base(real.f(i, cur))


def test_key_mass_cross_oracle():
    """|B_w(lambda)| equals the coefficient mass of the group-ring chain
    applied to e^lambda, tying the recursion to the algebraic operator."""
    from demazure_crystals import apply_demazure_word

    for type_label, lam in [("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 0))]:
        crystal = b_lambda(type_label, lam)
        data = crystal.cartan
        group = enumerate_weyl(data)
        for w in group:
            for word in group.reduced_words(w):
                poly = apply_demazure_word(data, word, WeightPolynomial.monomial(lam))
                assert poly.total() == len(demazure_blambda(crystal, word))


def test_braid_orders():
    assert braid_order(cartan_matrix("A1xA1"), 1, 2) == 2
    assert braid_order(cartan_matrix("A2"), 1, 2) == 3
    assert braid_order(cartan_matrix("B2"), 1, 2) == 4
    assert braid_order(cartan_matrix("G2"), 1, 2) == 6
    # color 0 would read row -1, color 3 past the matrix, and (1, 1) no order
    with pytest.raises(ValueError, match="color 0 outside the index set of A2"):
        braid_order(cartan_matrix("A2"), 0, 1)
    with pytest.raises(ValueError, match="color 3 outside the index set of A2"):
        braid_order(cartan_matrix("A2"), 3, 1)
    with pytest.raises(ValueError, match="two distinct colors"):
        braid_order(cartan_matrix("B2"), 1, 1)
    with pytest.raises(ValueError, match="color 3 outside the index set of A2"):
        braid_witness_search(b_lambda("A2", (1, 1)), 3, 1)


def test_braid_search_commuting_colors_has_no_witness():
    for lam in [(0, 0), (1, 2), (2, 2)]:
        report = braid_witness_search(b_lambda("A1xA1", lam), 1, 2)
        assert report.passed
        assert report.details["witness_count"] == 0


def test_braid_search_a2_report():
    report = braid_witness_search(b_lambda("A2", (1, 1)), 1, 2)
    assert report.passed  # the Demazure-sum instances agree
    assert report.details["sum_instances"] >= 1
    report0 = braid_witness_search(b_lambda("A2", (0, 0)), 1, 2)
    assert report0.details["witness_count"] == 0


def test_intertwining_with_the_group_ring():
    for type_label, lam in [("A2", (1, 1)), ("B2", (1, 1))]:
        crystal = b_lambda(type_label, lam)
        data = crystal.cartan
        for x in crystal.generate():
            for i in data.colors:
                crystal_side = char_map(crystal, demazure_operator(crystal, i, FormalSum.basis(x)))
                ring_side = algebraic_demazure(data, i, char_map(crystal, x))
                assert crystal_side == ring_side


def test_check_report_repr_on_failure_paths():
    # forcing a failure report through a wrong expectation exercises the witness plumbing
    crystal = b_lambda("A2", (1, 0))
    report = refined_formula_check(crystal, (1,))
    assert report.passed and report.witness is None
    assert len(FormalSum.from_elements(demazure_blambda(crystal, (1,)))) == 2


def test_check_report_defaults():
    failed = demazure.CheckReport("EQ4", {}, False)
    assert failed.witness == "unspecified failure" and not failed
    assert demazure.CheckReport("EQ4", {}, False, "at u").witness == "at u"
    passed = demazure.CheckReport("EQ4", {}, True)
    assert passed and passed.witness is None
    other = demazure.CheckReport("EQ4", {}, True)
    assert passed.details == {} and passed.details is not other.details
    details = {"size": 3}
    assert demazure.CheckReport("EQ4", {}, True, details=details).details is details


@pytest.mark.parametrize("statement", ["PSI", "STAR"])
def test_psi_and_star_scan_without_peeling(statement):
    """Both scan generation's order, (depth, coordinates): no element is
    peeled to sort the scan."""
    realization = BInfRealization(cartan_matrix("A3"))
    if statement == "PSI":
        report = structural_check("PSI", realization, depth=6)
    else:
        report = star_involution_check(realization, 6)
    assert report.passed, report.witness
    assert realization._peel_cache == {(): ()}
