"""Highest-weight crystals: membership, strings, characters, normality, and
the crystal graph stored as its string index."""

import re
import signal

import pytest
from hypothesis import given, strategies as st

from demazure_crystals import (
    GRID_TYPES,
    BInfRealization,
    CapacityError,
    BLambdaCrystal,
    FormalSum,
    WeightPolynomial,
    apply_word,
    b_inf,
    b_lambda,
    cartan_matrix,
    char_map,
    clear_caches,
    enumerate_weyl,
    freudenthal_character,
    grid_lambdas,
    refined_formula_check,
    w_sub,
    weyl_dim,
)

SMALL_GRID = [
    ("A1", (0,)),
    ("A1", (3,)),
    ("A1xA1", (2, 1)),
    ("A2", (1, 0)),
    ("A2", (1, 1)),
    ("A2", (2, 2)),
    ("B2", (1, 1)),
    ("B2", (2, 0)),
    ("G2", (1, 0)),
    ("G2", (0, 1)),
    ("A3", (1, 0, 1)),
]


def test_non_dominant_rejected():
    with pytest.raises(ValueError, match=r"lambda \(1, -1\) is not dominant"):
        b_lambda("A2", (1, -1))
    for lam in ((1,), (1, 1, 1)):
        with pytest.raises(ValueError, match="does not have rank 2"):
            b_lambda("A2", lam)


@pytest.mark.parametrize("lam", [(2.0, 0), (1.5, 0), (True, 1)])
def test_a_non_integer_lambda_is_rejected(lam):
    """lru_cache keys (2.0, 0) and (2, 0) alike, so a float lambda that got
    through would hand its float weights to every later b_lambda("A2", (2, 0)),
    or get the cached integer crystal back: both twins are cached first."""
    data = cartan_matrix("A2")
    b_lambda("A2", (2, 0)), b_lambda("A2", (1, 1))
    for build in (lambda: b_lambda("A2", lam), lambda: weyl_dim(data, lam),
                  lambda: freudenthal_character(data, lam)):
        with pytest.raises(ValueError, match=r"is not a tuple of integers$"):
            build()
    assert all(type(x) is int for x in b_lambda("A2", (2, 0)).lam)


def test_zero_weight_crystal_is_a_point():
    crystal = b_lambda("A2", (0, 0))
    assert crystal.generate() == {crystal.highest}
    assert char_map(crystal, crystal.highest) == WeightPolynomial.monomial((0, 0))


def test_highest_element_is_killed_by_raising():
    crystal = b_lambda("A2", (1, 1))
    for i in crystal.cartan.colors:
        assert crystal.e(i, crystal.highest) is None


def test_lowering_cutoff_at_the_membership_boundary():
    crystal = b_lambda("A2", (1, 0))
    x = crystal.f(1, crystal.highest)
    assert x is not None
    assert crystal.f(1, x) is None  # second step leaves the membership set
    # empty string below the highest element for a zero coordinate
    assert crystal.f(2, crystal.highest) is None


@pytest.mark.parametrize("type_label,lam", SMALL_GRID)
def test_size_matches_dimension_oracle(type_label, lam):
    crystal = b_lambda(type_label, lam)
    assert len(crystal.generate()) == weyl_dim(cartan_matrix(type_label), lam)


@pytest.mark.parametrize("type_label,lam", SMALL_GRID)
def test_character_matches_freudenthal_oracle(type_label, lam):
    crystal = b_lambda(type_label, lam)
    total = FormalSum.from_elements(crystal.generate())
    assert char_map(crystal, total) == freudenthal_character(cartan_matrix(type_label), lam)


def test_char_map_frozen_small_crystal():
    crystal = b_lambda("A2", (1, 0))
    total = FormalSum.from_elements(crystal.generate())
    assert char_map(crystal, total) == WeightPolynomial(
        {(1, 0): 1, (-1, 1): 1, (0, -1): 1}
    )
    assert char_map(crystal, FormalSum.zero()) == WeightPolynomial.zero()
    assert char_map(crystal, crystal.highest) == WeightPolynomial.monomial((1, 0))


def test_string_partition_a2():
    crystal = b_lambda("A2", (1, 0))
    strings = crystal.strings(1)
    assert sorted(len(s) for s in strings) == [1, 2]
    assert sum(len(s) for s in crystal.strings(2)) == 3


@pytest.mark.parametrize("type_label,lam", [("A2", (1, 1)), ("B2", (1, 1))])
def test_string_structure(type_label, lam):
    """The strings partition the crystal, and they and f and e agree with
    B(inf)'s f and e, cut off by the membership test."""
    crystal = b_lambda(type_label, lam)
    real = crystal.realization
    members = crystal.generate()

    def member(base):
        return base if base is not None and crystal.contains_base(base) else None

    for i in crystal.cartan.colors:
        strings = crystal.strings(i)
        assert sum(len(s) for s in strings) == len(members)
        seen = set()
        for s in strings:
            assert real.e(i, s[0]) is None
            for a, b in zip(s, s[1:]):
                assert member(real.f(i, a)) == b
            assert member(real.f(i, s[-1])) is None
            assert seen.isdisjoint(s)
            seen.update(s)
        for x in members:
            assert crystal.f(i, x) == member(real.f(i, x))
            assert crystal.e(i, x) == member(real.e(i, x))
        # the highest element heads its string for every color
        head_of_u = next(s for s in strings if crystal.highest in s)
        assert head_of_u[0] == crystal.highest


@pytest.mark.parametrize("type_label,lam", [("A2", (1, 1)), ("A2", (2, 1)), ("B2", (1, 1))])
def test_normality(type_label, lam):
    """eps is B(inf)'s eps; phi counts the B(inf) f_i steps that
    stay inside the membership bound."""
    crystal = b_lambda(type_label, lam)
    real = crystal.realization
    for x in crystal.generate():
        for i in crystal.cartan.colors:
            assert crystal.eps(i, x) == real.eps(i, x)
            down, steps = real.f(i, x), 0
            while crystal.contains_base(down):
                down, steps = real.f(i, down), steps + 1
            assert crystal.phi(i, x) == steps


@pytest.mark.parametrize("type_label,lam", [("A2", (1, 1)), ("B2", (1, 1))])
def test_inverse_property_and_weight_shift(type_label, lam):
    crystal = b_lambda(type_label, lam)
    data = crystal.cartan
    for x in crystal.generate():
        assert crystal.wt(x) == tuple(
            l + w for l, w in zip(lam, crystal.realization.wt(x))
        )
        for i in data.colors:
            assert crystal.phi(i, x) == crystal.eps(i, x) + crystal.wt(x)[i - 1]
            y = crystal.f(i, x)
            if y is not None:
                assert crystal.e(i, y) == x
                assert crystal.wt(y) == w_sub(crystal.wt(x), data.alpha(i))


def lowest(crystal):
    """The unique element killed by every lowering operator."""
    candidates = [x for x in crystal.generate() if all(crystal.f(i, x) is None for i in crystal.cartan.colors)]
    if len(candidates) != 1:
        raise RuntimeError(f"expected one lowest element, found {len(candidates)}")
    return candidates[0]


@pytest.mark.parametrize("type_label,lam", SMALL_GRID)
def test_unique_lowest_element(type_label, lam):
    crystal = b_lambda(type_label, lam)
    low = lowest(crystal)
    w0 = enumerate_weyl(crystal.cartan).longest
    assert crystal.wt(low) == apply_word(crystal.cartan, w0, lam)


@pytest.mark.parametrize("lam", [(0, 0), (1, 0), (0, 2), (1, 1), (2, 2)])
def test_a2_lowest_element_witness(lam):
    """f_1^{l2} f_2^{l1+l2} f_1^{l1} applied to the highest element is the
    unique lowest element."""
    crystal = b_lambda("A2", lam)
    l1, l2 = lam
    x = crystal.highest
    for i, power in ((1, l1), (2, l1 + l2), (1, l2)):
        for _ in range(power):
            x = crystal.f(i, x)
            assert x is not None
    assert all(crystal.f(i, x) is None for i in crystal.cartan.colors)
    assert x == lowest(crystal)


def test_raising_commutes_with_the_ambient_realization():
    crystal = b_lambda("A2", (2, 1))
    real = b_inf("A2")
    for x in crystal.generate():
        for i in crystal.cartan.colors:
            up = crystal.e(i, x)
            ambient = real.e(i, x)
            assert (up is None) == (ambient is None)
            if up is not None:
                assert up == ambient


# --- the crystal graph read from the string index ----------------------------

MEMO_GRID = sorted(
    {(t, lam) for t in GRID_TYPES for lam in grid_lambdas(t)} | {("A2", (2, 2)), ("B2", (2, 1))}
)


def _uncached_f(crystal, i, x):
    nb = crystal.realization.f(i, x)
    return nb if crystal.contains_base(nb) else None


def _uncached_e(crystal, i, x):
    nb = crystal.realization.e(i, x)
    assert nb is None or crystal.contains_base(nb)
    return nb


def _ambient_eps(crystal, i, x):
    return crystal.realization.eps(i, x)


def _ambient_phi(crystal, i, x):
    return crystal.realization.phi(i, x) + crystal.lam[i - 1]


_ORACLES = {"f": _uncached_f, "e": _uncached_e, "eps": _ambient_eps, "phi": _ambient_phi}


def _assert_matches_uncached(crystal, op, members):
    indexed, uncached = getattr(crystal, op), _ORACLES[op]
    for x in members:
        for i in crystal.cartan.colors:
            assert indexed(i, x) == uncached(crystal, i, x), (op, x, i)


@pytest.mark.parametrize("type_label,lam", MEMO_GRID)
def test_memoized_operators_match_the_uncached_ones(type_label, lam):
    """f and e equal the membership-cut operators of B(inf), eps and phi the
    B(inf) statistics shifted by lambda, whichever operator comes first."""
    members = sorted(b_lambda(type_label, lam).generate())
    for order in (("e", "f", "eps", "phi"), ("phi", "eps", "f", "e")):
        crystal = BLambdaCrystal(b_inf(type_label), lam)
        # cold: the first query generates the crystal and its index
        for op in order:
            _assert_matches_uncached(crystal, op, members)
        assert crystal.generate() == frozenset(members)
        for op in order:  # warm: every answer is a read
            _assert_matches_uncached(crystal, op, members)


_WALK_WEIGHTS = [
    ("A1xA1", (2, 1)),
    ("A2", (2, 1)),
    ("B2", (2, 1)),
    ("G2", (1, 1)),
    ("A3", (1, 0, 1)),
]


@given(
    st.sampled_from(_WALK_WEIGHTS),
    st.lists(st.tuples(st.booleans(), st.integers(1, 3)), max_size=12),
)
def test_random_operator_words_agree_with_a_fresh_crystal(weight, steps):
    type_label, lam = weight
    memoized = b_lambda(type_label, lam)
    memoized.generate()
    fresh = BLambdaCrystal(b_inf(type_label), lam)
    x = memoized.highest
    for lowering, raw in steps:
        i = 1 + (raw - 1) % memoized.cartan.rank
        if lowering:
            y, expected = memoized.f(i, x), fresh.f(i, x)
            assert expected == _uncached_f(fresh, i, x)
        else:
            y, expected = memoized.e(i, x), fresh.e(i, x)
            assert expected == _uncached_e(fresh, i, x)
        assert y == expected
        if y is not None:
            x = y


@pytest.mark.parametrize("type_label,lam", [("A2", (2, 2)), ("B2", (2, 1)), ("G2", (1, 1))])
def test_memos_are_bounded_by_rank_times_size(type_label, lam):
    """The string index is the only store of the graph: one place per
    element and color, and no per-edge memo beside it."""
    crystal = BLambdaCrystal(b_inf(type_label), lam)
    group = enumerate_weyl(crystal.cartan)
    for word in sorted(group.reduced_words(group.longest)):
        assert refined_formula_check(crystal, word).passed
    colors = crystal.cartan.colors
    for x in crystal.generate():
        for i in colors:
            crystal.f(i, x), crystal.e(i, x), crystal.eps(i, x), crystal.phi(i, x)
    assert set(crystal._string_index) == set(colors)
    places = sum(len(crystal.string_index(i)[1]) for i in colors)
    assert places == crystal.cartan.rank * len(crystal.generate())
    assert set(vars(crystal)) == {
        "realization", "cartan", "lam", "highest",
        "_generated", "_string_index", "_demazure_cache",
    }


def test_warm_queries_skip_the_membership_test(monkeypatch):
    """Work-count guard: once generated, the refined formula on every w0 word
    and the string partitions are answered from the memoized graph."""
    crystal = BLambdaCrystal(b_inf("A2"), (2, 2))
    crystal.generate()
    calls = []
    uncounted = crystal.contains_base

    def counting(base):
        calls.append(base)
        return uncounted(base)

    monkeypatch.setattr(crystal, "contains_base", counting)
    group = enumerate_weyl(crystal.cartan)
    for word in sorted(group.reduced_words(group.longest)):
        assert refined_formula_check(crystal, word).passed
    for i in crystal.cartan.colors:
        crystal.strings(i)
    assert len(calls) == 0


def test_clear_caches_rebuilds_the_shared_crystals():
    before = b_lambda("A2", (2, 1))
    members = before.generate()
    edges = {(i, x, before.f(i, x)) for x in members for i in before.cartan.colors}
    clear_caches()
    after = b_lambda("A2", (2, 1))
    assert after is not before
    assert after.realization is not before.realization
    assert after.generate() == members
    assert {(i, x, after.f(i, x)) for x in members for i in after.cartan.colors} == edges


def test_element_equality_contract():
    """A fresh copy of a member answers as the member does."""
    crystal = b_lambda("A2", (2, 1))
    members = crystal.generate()
    for x in members:
        # fresh tuples, so no comparison can succeed on identity alone
        copy = tuple(list(x))
        assert copy == x and hash(copy) == hash(x)
        # copies work as keys of the string index and formal sums
        for i in crystal.cartan.colors:
            assert crystal.f(i, copy) == crystal.f(i, x)
            assert crystal.e(i, copy) == crystal.e(i, x)
            assert crystal.string_index(i)[1][copy] == crystal.string_index(i)[1][x]
        total = FormalSum.basis(x) + FormalSum.basis(copy)
        assert total == 2 * FormalSum.basis(x) and total.coefficient(copy) == 2
    assert {tuple(list(x)) for x in members} == members


_QUERIES = {
    "f": lambda crystal, i, x: crystal.f(i, x),
    "e": lambda crystal, i, x: crystal.e(i, x),
    "eps": lambda crystal, i, x: crystal.eps(i, x),
    "phi": lambda crystal, i, x: crystal.phi(i, x),
    "wt": lambda crystal, i, x: crystal.wt(x),
    "char_map": lambda crystal, i, x: char_map(crystal, x),
    "char_map-sum": lambda crystal, i, x: char_map(
        crystal, FormalSum.from_elements((crystal.highest, x))
    ),
}


@pytest.mark.parametrize("op", list(_QUERIES))
def test_operators_reject_an_element_the_crystal_does_not_reach(op):
    """f_1^2 u is a B(inf) element outside B((1, 1)); its B(inf) weight
    shifted by (1, 1) would be (-3, 3), no weight of V((1, 1))."""
    real = b_inf("A2")
    unreachable = real.f(1, real.f(1, real.highest))
    for warm in (False, True):
        crystal = BLambdaCrystal(real, (1, 1))
        if warm:
            crystal.generate()
        for i in crystal.cartan.colors:
            with pytest.raises(ValueError, match="is not an element of") as info:
                _QUERIES[op](crystal, i, unreachable)
            assert str(info.value) == f"{unreachable!r} is not an element of {crystal!r}"


def test_generated_crystal_answers_from_the_index_only(monkeypatch):
    """Work-count guard: after generate(), f, e, eps and phi of every element
    and color call no realization operator and no membership test."""
    crystal = BLambdaCrystal(b_inf("B2"), (2, 1))
    members = crystal.generate()
    calls = {"f": 0, "e": 0, "eps": 0, "contains_base": 0}
    for name in calls:
        owner = crystal if name == "contains_base" else crystal.realization
        uncounted = getattr(owner, name)

        def counting(*args, name=name, uncounted=uncounted):
            calls[name] += 1
            return uncounted(*args)

        monkeypatch.setattr(owner, name, counting)
    for x in members:
        for i in crystal.cartan.colors:
            crystal.f(i, x), crystal.e(i, x), crystal.eps(i, x), crystal.phi(i, x)
    assert calls == {"f": 0, "e": 0, "eps": 0, "contains_base": 0}


def test_generation_refuses_a_crystal_beyond_the_maximum_before_lowering(monkeypatch):
    """G2 (20, 20) has 85,766,121 elements: the Weyl dimension is compared
    with MAX_ELEMENTS before any f is asked, so nothing is built."""
    from demazure_crystals import blambda

    real = BInfRealization(cartan_matrix("G2"))

    def refuse(i, b):
        raise AssertionError("generation lowered an element")

    monkeypatch.setattr(real, "f", refuse)
    crystal = BLambdaCrystal(real, (20, 20))
    with pytest.raises(CapacityError, match="85766121 elements; the maximum is 200000"):
        crystal.generate()
    with pytest.raises(CapacityError):
        crystal.strings(1)
    assert weyl_dim(real.cartan, (20, 20)) == 85_766_121 > blambda.MAX_ELEMENTS
    # the bound is inclusive: a crystal of exactly MAX_ELEMENTS elements is built
    monkeypatch.setattr(blambda, "MAX_ELEMENTS", 7)
    with pytest.raises(AssertionError, match="lowered"):
        BLambdaCrystal(real, (0, 1)).generate()
    with pytest.raises(CapacityError, match="14 elements; the maximum is 7"):
        BLambdaCrystal(real, (1, 0)).generate()


def test_generation_stops_once_it_passes_weyl_dim(monkeypatch):
    """With eps_1 = 9 everywhere, phi_1 > 0 on every element, so the color-1
    cut never closes and f_1 would lower forever.  Generation raises at once
    when it holds one element more than weyl_dim (3 for A2 (1, 0)): after
    three f steps, under an alarm that turns a stall into a failure."""

    def stalled(signum, frame):
        raise AssertionError("generation did not stop")

    real = BInfRealization(cartan_matrix("A2"))
    f = real.f
    steps = []
    monkeypatch.setattr(real, "eps", lambda i, b, eps=real.eps: 9 if i == 1 else eps(i, b))
    monkeypatch.setattr(real, "f", lambda i, b: steps.append((i, b)) or f(i, b))
    crystal = BLambdaCrystal(real, (1, 0))
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(5)
    try:
        message = "generation of BLambdaCrystal(A2, lam=(1, 0)) passed its 3 elements; realization bug"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            crystal.generate()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(steps) == 3
