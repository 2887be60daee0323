"""Demazure subsets, the operator on formal sums, and the structural checks."""

import gc
import random
import re
import weakref
from collections import Counter
from itertools import product

import pytest

from demazure_crystals import demazure
from demazure_crystals import (
    BInfRealization,
    BLambdaCrystal,
    FormalSum,
    SUPPORTED_TYPES,
    TensorCrystal,
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
    w_add,
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


@pytest.mark.parametrize("letter", [1.0, True])
def test_a_letter_that_only_equals_a_color_is_rejected_on_a_warm_memo(letter):
    """Once (1, 2) is memoized, a word whose first letter is 1.0 or True,
    equal to 1 with its hash, raises the cold call's error instead of
    reading the memo of (1, 2)."""
    crystal = BLambdaCrystal(b_inf("A2"), (1, 1))  # fresh, so its memo is its own
    real = BInfRealization(cartan_matrix("A2"))
    assert len(demazure_blambda(crystal, (1, 2))) == 5 and structural_check("THM32", real, depth=4, word=(1, 2))
    message = re.escape(f"color {letter} outside the index set of A2")
    with pytest.raises(ValueError, match=message):
        demazure_blambda(crystal, (letter, 2))
    with pytest.raises(ValueError, match=message):
        demazure_binf(real, (letter, 2), 4)
    with pytest.raises(ValueError, match=message):
        structural_check("THM32", real, depth=4, word=(letter, 2))


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
    b2_longest = enumerate_weyl(cartan_matrix("B2")).longest  # (1, 2, 1, 2), not reduced in A2
    with pytest.raises(ValueError, match=r"^\(1, 2, 1, 2\) is not an element of the Weyl group of A2$"):
        word_independence_check(b_lambda("A2", (1, 1)), b2_longest)


# The oracle for exact truncation: every statement passes at every depth
# from 0, so a check at depth d - 1 passes wherever the one at d does.
_ORACLE_DEPTHS = [(t, d) for t in ("A2", "B2", "G2") for d in range(7)] + [("A3", d) for d in range(6)]


@pytest.mark.parametrize("statement", ["THM32", "COR33", "THM35", "THM35R", "P3"])
def test_structural_word_statements(statement):
    for type_label, depth in _ORACLE_DEPTHS:
        real = b_inf(type_label)
        for w in enumerate_weyl(real.cartan):
            report = structural_check(statement, real, depth=depth, word=w)
            assert report.passed, (type_label, depth, w, report.witness)


def test_demazure_binf_restricts_at_every_depth():
    """On every short word (length <= 3), the set at depth d - 1, on a
    realization generated no deeper, is the set at depth d restricted."""
    for type_label, depth in _ORACLE_DEPTHS:
        if depth:
            shallow = BInfRealization(cartan_matrix(type_label))
            for w in enumerate_weyl(shallow.cartan):
                if len(w) <= 3:
                    deep = demazure_binf(b_inf(type_label), w, depth)
                    restricted = {b for b in deep if sum(b) < depth}
                    assert demazure_binf(shallow, w, depth - 1) == restricted


def test_p3_names_the_base_whose_string_escapes(monkeypatch):
    """With the deepest layer cut from the Demazure set of s_1, the f_1
    string through the highest element leaves the set, and P3 names the
    member two steps above the first id outside it: (1,), whose f_1 is the
    member (2,) and whose f_1 f_1 is (3,)."""
    full = demazure._demazure_ids

    def cut(table, word, depth):
        return frozenset(x for x in full(table, word, depth) if x < table.starts[depth])

    monkeypatch.setattr(demazure, "_demazure_ids", cut)
    report = structural_check("P3", b_inf("A2"), depth=3, word=(1,))
    assert not report.passed
    assert report.witness == "string escapes at (1,), color 1"


def test_p3_has_the_verdict_of_its_walk_oracle(monkeypatch, p3_walk_oracle):
    """The local P3 and the walk of every string tail to the cut agree on
    every Weyl element at the oracle depths, and on those Demazure sets with
    members dropped at random, seeded: four subsets of each set."""
    rng, full, verdicts = random.Random(29), demazure._demazure_ids, Counter()
    current = {}
    monkeypatch.setattr(demazure, "_demazure_ids", lambda table, word, depth: current["members"])
    for type_label, depth in _ORACLE_DEPTHS:
        real = b_inf(type_label)
        table = real.table(depth)
        for w in enumerate_weyl(real.cartan):
            members = full(table, w, depth)
            for keep in (1.0, 0.9, 0.8, 0.7, 0.5):
                current["members"] = frozenset(x for x in members if keep == 1.0 or rng.random() < keep)
                local = demazure._check_p3(table, depth, w)
                walked = p3_walk_oracle(table, depth, current["members"])
                assert (local is None) == (walked is None), (type_label, depth, w, local)
                verdicts[keep, local is None] += 1
    assert verdicts[1.0, False] == 0 and all(verdicts[keep, False] for keep in (0.9, 0.8, 0.7, 0.5))


def test_structural_psi():
    for type_label, depth in _ORACLE_DEPTHS:
        report = structural_check("PSI", b_inf(type_label), depth=depth)
        assert report.passed, (type_label, depth, report.witness)


def test_realization_psi_is_the_table_split():
    """On every id at the oracle depths and every color, the realization's
    psi, star of e_i^a star(b), is PSI's split (y, a) of the id off the
    table, read back as the element pair (elements[y], -a)."""
    for type_label, top in {t: d for t, d in _ORACLE_DEPTHS}.items():
        real = BInfRealization(cartan_matrix(type_label))
        table = real.table(top)
        for x, b in enumerate(table.elements[: table.starts[top + 1]]):
            for i in real.cartan.colors:
                y, a = demazure._split(table, i, x)
                assert real.psi(i, b) == (table.elements[y], -a), (type_label, b, i)


@pytest.mark.parametrize("type_label,top", [("A2", 8), ("B2", 8), ("G2", 8), ("A3", 6)])
def test_psi_on_ids_matches_the_tensor_crystal_pass(type_label, top, tensor_psi_oracle):
    """PSI's two-factor rule on ids gives the verdict of the TensorCrystal
    pass on element pairs at every depth up to top."""
    real = BInfRealization(cartan_matrix(type_label))
    real.table(top)
    for depth in range(top + 1):
        assert structural_check("PSI", real, depth=depth).witness is None
        assert tensor_psi_oracle(real, depth) is None


def test_the_binf_statements_read_no_operator_beside_the_table(monkeypatch):
    """Once the table is built, STAR and the eight structural statements (the
    word ones on every Weyl element) pass at A3 depth 6 with phi, wt, eps,
    f_star and psi refusing on the realization: PSI's phi_i is the e_i walk
    plus the weight column, and STAR compares that column.  The tensor rule
    is written out on ids, so TensorCrystal.f and .e are never called."""
    real = BInfRealization(cartan_matrix("A3"))
    real.table(6)

    def refuse(*args):
        raise AssertionError("an operator outside the table was called")

    for name in ("phi", "wt", "eps", "f_star", "psi"):
        monkeypatch.setattr(real, name, refuse)
    monkeypatch.setattr(TensorCrystal, "f", refuse)
    monkeypatch.setattr(TensorCrystal, "e", refuse)
    assert star_involution_check(real, 6).passed
    every_word = list(enumerate_weyl(real.cartan))
    for statement in demazure.STRUCTURAL_STATEMENTS:
        for word in every_word if statement in demazure.WORD_STATEMENTS else [None]:
            report = structural_check(statement, real, depth=6, word=word)
            assert report.passed, (statement, word, report.witness)


def test_star_is_the_whole_word_conversion(star_oracle):
    """star, one lowering from the memo of a shallower tuple, equals the
    oracle's f*-replay of the peel word on every element at the oracle
    depths, asked cold and deepest first so that each walk runs far."""
    for type_label, top in {t: d for t, d in _ORACLE_DEPTHS}.items():
        real = BInfRealization(cartan_matrix(type_label))
        oracle = star_oracle(real)
        for b in sorted(oracle.real.generate(top), reverse=True):
            assert real.star(b) == oracle.star(b), (type_label, b)


def test_structural_base_statements(base_union_oracles):
    """LEM31 and LEM34 pass on every oracle depth, and so do their union
    loops over every color pair: the same verdicts."""
    for type_label, depth in _ORACLE_DEPTHS:
        for statement, oracle in base_union_oracles.items():
            report = structural_check(statement, b_inf(type_label), depth=depth)
            assert report.passed, (type_label, depth, report.witness)
            assert oracle(b_inf(type_label), depth) is None, (type_label, depth, statement)


@pytest.mark.parametrize("type_label", ["A2", "B2", "G2"])
def test_lem31_and_lem34_id_unions_match_the_element_walks(type_label, string_union):
    """At depth 6, for every base of depth <= 4 and every color pair, the
    union loops' id unions along f_i and f*_j from the base and their
    compositions give the element walks' sets, and the table's e_i agrees
    with realization.e on the f*_j union and at the base, as does the f*_j
    union from e_i of the base."""
    depth = 6
    real = b_inf(type_label)
    table = real.table(depth)

    def union(steps, i, ids):
        return demazure._elements(table, string_union(steps[i], table.starts[depth], ids))

    def closure(step, i, members):
        return _closure(step, i, members, depth)

    for x in range(table.starts[depth - 1]):
        b = table.elements[x]
        for i, j in product(real.cartan.colors, repeat=2):
            starred = string_union(table.f_star[j], table.starts[depth], (x,))
            assert demazure._elements(table, starred) == closure(real.f_star, j, (b,))
            assert union(table.f, i, starred) == closure(real.f, i, closure(real.f_star, j, (b,)))
            plain = string_union(table.f[i], table.starts[depth], (x,))
            assert demazure._elements(table, plain) == closure(real.f, i, (b,))
            assert union(table.f_star, j, plain) == closure(real.f_star, j, closure(real.f, i, (b,)))
            raised = demazure._elements(table, {table.e[i][y] for y in starred} - {-1})
            assert raised == {real.e(i, c) for c in closure(real.f_star, j, (b,))} - {None}
            up = real.e(i, b)
            assert (table.e[i][x] == -1) == (up is None)
            if up is not None:
                assert union(table.f_star, j, (table.e[i][x],)) == closure(real.f_star, j, (up,))


@pytest.mark.parametrize("statement", demazure.STRUCTURAL_STATEMENTS)
def test_structural_check_calls_its_handler_once(statement, monkeypatch):
    """One run, at the depth asked, on the one table fetched: no second run
    one level shallower."""
    handler, calls = demazure._HANDLERS[statement], []
    monkeypatch.setitem(demazure._HANDLERS, statement, lambda *args: calls.append(args) or handler(*args))
    real = b_inf("A2")
    word = (1, 2) if statement in demazure.WORD_STATEMENTS else None
    assert structural_check(statement, real, depth=4, word=word).passed
    assert calls == [(real.table(4), 4, word)]


def test_every_handler_runs_on_the_table_alone():
    """An A3 table(6) outlives its realization, which the table does not keep,
    and every handler passes on it: the word statements on every Weyl
    element's canonical word."""
    real = BInfRealization(cartan_matrix("A3"))
    table, words = real.table(6), list(enumerate_weyl(real.cartan))
    gone = weakref.ref(real)
    del real
    gc.collect()
    assert gone() is None
    for statement, handler in demazure._HANDLERS.items():
        for word in words if statement in demazure.WORD_STATEMENTS else [None]:
            assert handler(table, 6, word) is None, (statement, word)


def test_structural_single_base_example():
    """LEM34 at depth 6 quantifies over every base of depth <= 4 and every
    color pair, the base f_2 u with colors (1, 1) among them."""
    report = structural_check("LEM34", b_inf("A2"), depth=6)
    assert report.passed, report.witness


def _identity_star(f, e, star, x):
    """The column corruption that makes star the identity, so that the
    table's f*_i = star f_i star is f_i."""
    star[:] = range(len(star))


def test_lem31_names_the_base_where_the_unions_differ(corrupt_columns):
    """With the star column replaced by the identity, the table's f*_i =
    star f_i star is f_i, so f_1 f_2 u and f_2 f_1 u differ at the highest
    element u, the least id of the i != j half; the i = j half passes, since
    f_i commutes with itself."""
    real = BInfRealization(cartan_matrix("A2"))
    corrupt_columns(real, _identity_star)
    report = structural_check("LEM31", real, depth=4)
    assert not report.passed
    assert report.witness == "f_1 f*_2 and f*_2 f_1 differ at base (), colors (1,2)"


def test_lem34_names_the_extra_element(corrupt_columns):
    """With the star column replaced by the identity, f*_i is f_i on the
    table, and e_2 f_1 takes f_2 u = (0, 1) to zero, while f_1 e_2 takes it
    to f_1 u = (1,): the least failure is on the i != j half, at the least id
    of depth 1."""
    real = BInfRealization(cartan_matrix("A2"))
    corrupt_columns(real, _identity_star)
    report = structural_check("LEM34", real, depth=5)
    assert not report.passed
    assert report.witness == "e_2 f*_1 and f*_1 e_2 differ at base (0, 1), colors (2,1)"


def _swap_f_star_1(table, b, c):
    """Swap f*_1 of the elements b and c, of one depth, in the table."""
    x, y, steps = table.elements.index(b), table.elements.index(c), table.f_star[1]
    steps[x], steps[y] = steps[y], steps[x]


def test_lem31_and_lem34_name_their_local_witnesses_for_one_color():
    """With f*_1 of (0, 1, 1) and of (0, 2) swapped in the table, to (1, 2)
    and (1, 1, 1), the least failures are on the i = j halves, each with its
    own witness: at (0, 1), f_1 f*_1 is (2, 1) and f*_1 f_1 is (1, 2), not
    f_1 f_1 = (1, 1, 1); at (0, 1, 1), e_1 f*_1 is zero where f*_1 e_1 is
    (1, 1)."""
    real = BInfRealization(cartan_matrix("A2"))
    _swap_f_star_1(real.table(4), (0, 1, 1), (0, 2))
    report = structural_check("LEM31", real, depth=4)
    assert report.witness == (
        "f_1 f*_1 and f*_1 f_1 differ, not as f*_1 f*_1 and f_1 f_1, at base (0, 1), colors (1,1)"
    )
    report = structural_check("LEM34", real, depth=4)
    assert report.witness == (
        "e_1 f*_1 and f*_1 e_1 differ, and e_1 f*_1 is not the identity, at base (0, 1, 1), colors (1,1)"
    )


def test_the_two_color_halves_take_no_relaxation():
    """For i != j both checks are the plain commutations, although the
    relaxed cases of i = j would give the union identities there too.  On
    the A2 table at depth 4: with f*_2 of x = (0, 2, 1), of depth 3, taken
    to f_1 x, e_1 f*_2 x = x, and LEM34 reads that last layer; with f*_2 of
    f_1 u and of f_2 u taken to f_1 f_1 u and f_1 f_2 u, f_1 f*_2 u =
    f*_2 f*_2 u and f*_2 f_1 u = f_1 f_1 u at the highest element u."""
    real = BInfRealization(cartan_matrix("A2"))
    table = real.table(4)
    x = table.elements.index((0, 2, 1))
    table.f_star[2][x] = table.f[1][x]
    report = structural_check("LEM34", real, depth=4)
    assert report.witness == "e_1 f*_2 and f*_2 e_1 differ at base (0, 2, 1), colors (1,2)"
    real = BInfRealization(cartan_matrix("A2"))
    table = real.table(4)
    f, g = table.f[1], table.f_star[2]
    g[f[0]], g[g[0]] = f[f[0]], f[g[0]]
    report = structural_check("LEM31", real, depth=4)
    assert report.witness == "f_1 f*_2 and f*_2 f_1 differ at base (), colors (1,2)"


@pytest.mark.parametrize("type_label,depth,lem31,lem34", [
    ("A2", 8, 12, 20), ("B2", 8, 17, 30), ("G2", 8, 17, 32), ("A3", 6, 38, 86),
])
def test_the_one_color_relaxations_are_reached(type_label, depth, lem31, lem34):
    """On correct tables, LEM31 takes its second case (f g x = g g x and
    g f x = f f x, where f g x != g f x) at lem31 pairs (x, i), with f = f_i
    and g = f*_i, and LEM34 its identity case (e g x = x, where e g x is not
    g e x) at lem34 pairs: the plain commutations of the i != j halves fail
    there.  As the proof in structural_check says, s = eps_i + eps*_i +
    <wt, h_i> is 1 at each LEM31 pair and 0 at each LEM34 pair."""
    real = b_inf(type_label)
    table = real.table(depth)
    assert structural_check("LEM31", real, depth=depth) and structural_check("LEM34", real, depth=depth)
    second, identity = [], []
    for i in real.cartan.colors:
        f, g, e = table.f[i], table.f_star[i], table.e[i]
        second += [(x, i) for x in range(table.starts[depth - 1]) if f[g[x]] != g[f[x]]]
        identity += [(x, i) for x in range(table.starts[depth]) if e[g[x]] != (g[e[x]] if e[x] >= 0 else -1)]
    assert (len(second), len(identity)) == (lem31, lem34)

    def s(x, i):
        b = table.elements[x]
        return real.eps(i, b) + real.eps_star(i, b) + real.wt(b)[i - 1]

    assert {s(x, i) for x, i in second} == {1} and {s(x, i) for x, i in identity} == {0}


@pytest.mark.parametrize(
    "corruption", [
        "star swaps (1,) and (0, 1)", "star = identity", "swapped f_star entry",
        "swapped f_star of (0, 1, 1) and (0, 2)",
    ],
)
def test_lem31_and_lem34_fail_wherever_their_union_oracles_do(corruption, base_union_oracles, corrupt_columns):
    """Under the corruption, on every oracle type at every depth up to its
    largest, the split check fails wherever its union loop over every color
    pair does, and each union loop fails somewhere.  The star corruptions
    are made on the star column, before f* is derived from it."""
    caught = set()
    for type_label, top in {t: d for t, d in _ORACLE_DEPTHS}.items():  # the largest depth of each type
        real = BInfRealization(cartan_matrix(type_label))
        if corruption == "star swaps (1,) and (0, 1)":  # an involution that breaks the weight
            corrupt_columns(real, _redirect("star", {(1,): (0, 1), (0, 1): (1,)}))
        elif corruption == "star = identity":
            corrupt_columns(real, _identity_star)
        table = real.table(top)
        if corruption == "swapped f_star entry":  # f*_1 of the two least ids of depth 1: still graded
            steps, x = table.f_star[1], table.starts[1]
            steps[x], steps[x + 1] = steps[x + 1], steps[x]
        elif corruption.startswith("swapped f_star of"):  # both of depth 2 on every oracle type
            _swap_f_star_1(table, (0, 1, 1), (0, 2))
        for depth in range(top + 1):
            for statement, oracle in base_union_oracles.items():
                if oracle(real, depth) is not None:
                    caught.add(statement)
                    report = structural_check(statement, real, depth=depth)
                    assert not report.passed, (type_label, depth, statement)
    assert caught == {"LEM31", "LEM34"}


@pytest.mark.parametrize("type_label", ["A2", "B2", "G2"])
def test_every_binf_statement_at_the_smallest_depths_on_a_fresh_realization(type_label):
    """At depths 0, 1 and 2, on a realization whose table is no deeper than
    asked, so that f and f* are tabled only up to that depth: the eight
    structural statements (the word ones on every Weyl element) and STAR."""
    group = enumerate_weyl(cartan_matrix(type_label))
    for depth in range(3):
        for statement in demazure.STRUCTURAL_STATEMENTS:
            real = BInfRealization(cartan_matrix(type_label))
            words = list(group) if statement in demazure.WORD_STATEMENTS else [None]
            for word in words:
                report = structural_check(statement, real, depth=depth, word=word)
                assert report.passed, (statement, depth, word, report.witness)
        assert star_involution_check(BInfRealization(cartan_matrix(type_label)), depth).passed


def _redirect(column, mapping):
    """The column corruption that gives each element b in mapping the entry
    that column, "star" or the color of an e column, has for mapping[b]."""
    def corrupt(f, e, star, x):
        entries = star if column == "star" else e[column]
        old = list(entries)
        for b, c in mapping.items():
            entries[x(b)] = old[x(c)]

    return corrupt


# (statement, depth, word, column, corruption, witness).  On a fresh
# realization, the column star, or the color of an e column, is corrupted
# before f* and the weights are derived from it (see _corrupt): the mapping
# of _redirect, or None for the identity star.  The column "wt" is the weight
# column, where the corruption (b, delta) shifts the weight of b in the table
# and in realization.wt alike.
_BINF_WITNESS_CASES = {
    "psi-collision": ("PSI", 3, None, 2, {(1,): (0, 1)}, "psi_2 collision between (0, 1) and (1,)"),
    # star not an involution: f*_1 u = star (1,) is (0, 1), whose psi_1 is ((0, 1), 0), not (u, 1)
    "psi-starred": ("PSI", 3, None, "star", {(1,): (0, 1)}, "starred lowering mismatch at (), color 1"),
    "psi-lowering": (
        "PSI", 3, None, "star", {(1,): (0, 1), (0, 1): (1,)}, "lowering does not commute at (), color 1",
    ),
    # no single graded corruption of an f, e or star column on A2 up to depth 3 reaches the raising
    # branches first; a shifted weight does: phi_1(u) drops to -1, below the level 0 at u
    "psi-raising-zero": ("PSI", 3, None, "wt", ((), (-1, 0)), "raising zero mismatch at (), color 1"),
    "psi-raising": (
        "PSI", 3, None, "wt", ((0, 1, 1), (-1, 0)), "raising does not commute at (0, 1, 1), color 1",
    ),
    "star-involution": ("STAR", 3, None, "star", {(1,): (0, 1)}, "involution fails at (1,)"),
    "star-weight": ("STAR", 3, None, "star", {(1,): (0, 1), (0, 1): (1,)}, "weight not preserved at (0, 1)"),
    # star the identity makes the table's f*_i = star f_i star equal to f_i
    "thm32": ("THM32", 3, (1, 2), "star", None, "sets differ at (0, 1, 1)"),
    "cor33": ("COR33", 3, (1, 2), "star", None, "sets differ at (0, 1, 1)"),
    "thm35r": ("THM35R", 3, (1, 2), "star", None, "sets differ at (0, 1, 1)"),
    # e_2 (2,) is taken to e_2 (0, 2) = (0, 1)
    "thm35": ("THM35", 3, (1,), 2, {(2,): (0, 2)}, "raising escapes at (2,), color 2"),
    # PSI scans one color at a time, yet reports the first failure in
    # (element, color) order: (0, 1) comes before (1,) in generation's order
    "psi-earlier-element": (
        "PSI", 3, None, "star", {(0, 2): (1, 1), (2,): (1, 1)}, "starred lowering mismatch at (0, 1), color 2",
    ),
    "psi-smaller-color": (
        "PSI", 3, None, "star", {(0, 1, 1): (2,), (0, 2): (2,)}, "starred lowering mismatch at (0, 1), color 1",
    ),
}


def _corrupt(real, case, depth, corrupt_columns):
    """Apply the case's corruption to a fresh realization, whose table is then
    built at depth.  A corrupted e column is corrupted in realization.e too,
    which the tensor crystal of PSI's oracle reads."""
    name, corruption = _BINF_WITNESS_CASES[case][3:5]
    if name != "wt":
        corrupt_columns(real, _identity_star if corruption is None else _redirect(name, corruption))
    if name not in ("star", "wt"):
        real.e = lambda i, b, e=real.e: e(i, corruption.get(b, b) if i == name else b)
    table = real.table(depth)
    if name == "wt":
        b, delta = corruption
        x, wt = table.elements.index(b), real.wt
        table.wt[x] = w_add(table.wt[x], delta)
        real.wt = lambda c: w_add(wt(c), delta) if c == b else wt(c)


@pytest.mark.parametrize("type_label", ["A2", "B2", "G2"])
@pytest.mark.parametrize("case", sorted(c for c, spec in _BINF_WITNESS_CASES.items() if spec[0] == "PSI"))
def test_psi_corruptions_fail_as_the_tensor_crystal_pass_does(case, type_label, tensor_psi_oracle, corrupt_columns):
    """Under each PSI corruption, at every depth up to 8, PSI on ids and the
    TensorCrystal pass on element pairs give the same verdict and witness;
    on A2 at the case's depth, the case's witness.  Both read the corrupted
    column: star through the table, e through the table and the tensor
    crystal's realization.e, wt as PSI's weight column and as the tensor
    crystal's realization.wt."""
    _, case_depth, _, _, _, witness = _BINF_WITNESS_CASES[case]
    real = BInfRealization(cartan_matrix(type_label))
    _corrupt(real, case, 8, corrupt_columns)
    verdicts = [structural_check("PSI", real, depth=depth).witness for depth in range(9)]
    assert verdicts == [tensor_psi_oracle(real, depth) for depth in range(9)]
    assert type_label != "A2" or verdicts[case_depth] == witness


@pytest.mark.parametrize("case", sorted(_BINF_WITNESS_CASES))
def test_binf_checks_name_their_failure_witness(case, corrupt_columns):
    """Each case corrupts one column of a fresh realization's table so that
    exactly one failure branch of the check fires first."""
    statement, depth, word, _, _, witness = _BINF_WITNESS_CASES[case]
    real = BInfRealization(cartan_matrix("A2"))
    _corrupt(real, case, depth, corrupt_columns)
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
        demazure_binf(b_inf("A2"), (1,), -1)
    with pytest.raises(ValueError):
        braid_witness_search(b_lambda("A2", (1, 0)), 1, 1)


def test_infinity_side_consistency():
    for type_label, lam in [("A2", (1, 1)), ("B2", (1, 0))]:
        crystal = b_lambda(type_label, lam)
        group = enumerate_weyl(crystal.cartan)
        for w in group:
            report = binf_consistency_check(crystal, w, 6)
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
        members = demazure_binf(real, w, depth)
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


def test_psi_asks_each_split_once_per_pass(monkeypatch):
    """One run of PSI makes one pass per color, in color order, splits each
    id at most once in a pass, and never asks the realization's psi."""
    real = BInfRealization(cartan_matrix("A3"))
    split, asked = demazure._split, []
    monkeypatch.setattr(demazure, "_split", lambda table, i, x: asked.append((i, x)) or split(table, i, x))
    real.psi = None
    assert structural_check("PSI", real, depth=6).passed
    assert [i for i, _ in asked] == sorted(i for i, _ in asked)
    assert len(set(asked)) == len(asked)
    assert {i for i, _ in asked} == set(real.cartan.colors)


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
