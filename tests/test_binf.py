"""The infinity-crystal realization: coordinates, embeddings, starred operators."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from demazure_crystals import (
    BInfRealization,
    CapacityError,
    ElementaryCrystal,
    GRID_TYPES,
    SUPPORTED_TYPES,
    TensorCrystal,
    b_inf,
    cartan_matrix,
    clear_caches,
    demazure_binf,
    enumerate_weyl,
    star_involution_check,
    structural_check,
    w_sub,
)
from demazure_crystals import binf
from demazure_crystals.demazure import STRUCTURAL_STATEMENTS, WORD_STATEMENTS
from demazure_crystals.cli import main

# The default blocks as literals.  b_inf derives each from the breadth-first
# order of the Weyl group, so a change of that order shows up here rather
# than as a silent change of coordinates or witness strings.
BLOCKS = {
    "A1": (1,),
    "A1xA1": (1, 2),
    "A2": (1, 2, 1),
    "B2": (1, 2, 1, 2),
    "G2": (1, 2, 1, 2, 1, 2),
    "A3": (1, 2, 1, 3, 2, 1),
}


def kostant_profile(data, depth):
    """Oracle: multisets of positive roots, counted by total height.

    The number of infinity-crystal elements of depth d equals the number of
    ways to write a height-d element of the positive root lattice as a
    multiset of positive roots, summed over all such elements.
    """
    by_weight = Counter()
    roots = data.positive_roots
    heights = [sum(r) for r in roots]

    def rec(idx, remaining, acc):
        if idx == len(roots):
            by_weight[acc] += 1
            return
        k = 0
        while k * heights[idx] <= remaining:
            rec(
                idx + 1,
                remaining - k * heights[idx],
                tuple(a + k * r for a, r in zip(acc, roots[idx])),
            )
            k += 1

    rec(0, depth, (0,) * data.rank)
    return by_weight


def element_root_coords(realization, b):
    """Root coordinates of -wt(b), read off the coordinate tuple."""
    block = realization.block
    out = [0] * realization.cartan.rank
    for k, a in enumerate(b):
        out[block[k % len(block)] - 1] += a
    return tuple(out)


def test_blocks_are_reduced_words_for_the_longest_element():
    assert set(BLOCKS) == set(SUPPORTED_TYPES)
    for type_label, block in BLOCKS.items():
        assert b_inf(type_label).block == block
        group = enumerate_weyl(cartan_matrix(type_label))
        assert group.is_reduced(block)
        assert group.element_of_word(block) == group.longest


def test_frozen_coordinates_a2():
    real = b_inf("A2")
    u = real.highest
    assert real.f(1, u) == (1,)
    assert real.f(1, real.f(1, u)) == (2,)
    assert real.f(2, u) == (0, 1)
    assert real.f(2, real.f(1, u)) == (1, 1)
    assert real.f(1, real.f(2, u)) == (0, 1, 1)
    assert real.e(1, u) is None
    assert real.e(1, real.f(1, u)) == u


def test_statistics_a2():
    real = b_inf("A2")
    u = real.highest
    f2u = real.f(2, u)
    assert real.eps(1, u) == 0 and real.phi(1, u) == 0
    assert real.eps(1, f2u) == 0
    assert real.phi(1, f2u) == 1  # eps + <wt, h_1> = 0 + 1
    assert real.wt(f2u) == (1, -2)  # -alpha_2


def test_weight_shift_and_depth():
    real = b_inf("B2")
    data = real.cartan
    for b in real.generate(4):
        for i in data.colors:
            fb = real.f(i, b)
            assert sum(fb) == sum(b) + 1
            assert real.wt(fb) == w_sub(real.wt(b), data.alpha(i))


@pytest.mark.parametrize("type_label", ["A1", "A1xA1", "A2", "B2", "G2", "A3"])
def test_generation_matches_kostant_partition_oracle(type_label):
    depth = 4 if type_label in ("G2", "A3") else 5
    real = b_inf(type_label)
    data = real.cartan
    expected = kostant_profile(data, depth)
    actual = Counter(element_root_coords(real, b) for b in real.generate(depth))
    assert actual == expected


def test_generation_counts_frozen():
    assert len(b_inf("A1").generate(3)) == 4  # the single string
    # Kostant profile for A2: 1, 3, 7, 13, 22 cumulative
    assert [len(b_inf("A2").generate(d)) for d in range(5)] == [1, 3, 7, 13, 22]


def test_inverse_property_on_generated_sets():
    real = b_inf("A2")
    for b in real.generate(5):
        for i in real.cartan.colors:
            assert real.e(i, real.f(i, b)) == b
            up = real.e(i, b)
            if up is not None:
                assert real.f(i, up) == b
            assert (up is None) == (real.eps(i, b) == 0)


def test_peel_and_replay():
    real = b_inf("A2")
    assert real.peel(real.highest) == ()
    assert real.peel(real.f(1, real.highest)) == (1,)
    for b in real.generate(5):
        word = real.peel(b)
        assert len(word) == sum(b)
        assert real.replay(word) == b


def test_psi_frozen_examples():
    real = b_inf("A2")
    u = real.highest
    assert real.psi(1, u) == (u, 0)
    assert real.psi(1, real.f(1, u)) == (u, -1)
    assert real.psi(2, u) == (u, 0)
    # left action forced on the infinity factor: the split-off factor stays fresh
    assert real.psi(1, real.f(2, u)) == (real.f(2, u), 0)


def test_star_operator_frozen_examples():
    real = b_inf("A2")
    u = real.highest
    f1u = real.f(1, u)
    assert real.f_star(1, u) == f1u
    assert real.f_star(1, f1u) == real.f(1, f1u)
    assert real.f_star(2, f1u) == real.f(1, real.f(2, u))
    assert real.e_star(1, u) is None
    assert real.e_star(1, f1u) == u


def test_eps_star_frozen_examples():
    real = b_inf("A2")
    u = real.highest
    f1u = real.f(1, u)
    assert real.eps_star(1, u) == 0
    assert real.eps_star(1, f1u) == 1
    assert real.eps_star(2, f1u) == 0
    # hand-evaluated in the rotated pattern: f2 f2 f1 applied to u
    f2f2f1 = real.f(2, real.f(2, f1u))
    assert f2f2f1 == (1, 2)
    assert real.eps_star(2, f2f2f1) == 1


def test_eps_star_counts_e_star_steps():
    real = b_inf("B2")
    for b in real.generate(4):
        for i in real.cartan.colors:
            steps = 0
            cur = b
            while (cur := real.e_star(i, cur)) is not None:
                steps += 1
            assert steps == real.eps_star(i, b)


def test_star_involution_and_weight():
    for type_label in ("A2", "B2"):
        real = b_inf(type_label)
        for b in real.generate(5):
            sb = real.star(b)
            assert real.star(sb) == b
            assert real.wt(sb) == real.wt(b)
    assert b_inf("A2").star(b_inf("A2").highest) == b_inf("A2").highest


def test_star_frozen_example():
    real = b_inf("A2")
    f2f1u = real.f(2, real.f(1, real.highest))
    assert real.star(f2f1u) == real.f(1, real.f(2, real.highest))
    assert real.star(real.f(1, real.highest)) == real.f(1, real.highest)


def test_star_keeps_no_answer_of_an_f_replaced_on_the_instance():
    """star lowers through the class's f: with the colors of f swapped on the
    instance while star fills its memo on every element of depth <= 4, then
    restored, star agrees with a fresh realization's there."""
    real, fresh = BInfRealization(cartan_matrix("A2")), BInfRealization(cartan_matrix("A2"))
    elements = sorted(fresh.generate(4))
    real.f = lambda i, b, f=real.f: f(3 - i, b)
    swapped = [real.star(b) for b in elements]
    del real.f
    assert swapped == [real.star(b) for b in elements] == [fresh.star(b) for b in elements]


def test_star_twists_lowering():
    for type_label in ("A2", "B2"):
        real = b_inf(type_label)
        for b in real.generate(4):
            for i in real.cartan.colors:
                assert real.star(real.f(i, b)) == real.f_star(i, real.star(b))


def test_lowering_and_starred_lowering_commute_for_distinct_colors():
    real = b_inf("A2")
    for b in real.generate(4):
        for i in real.cartan.colors:
            for j in real.cartan.colors:
                if i != j:
                    assert real.f(i, real.f_star(j, b)) == real.f_star(j, real.f(i, b))


def bicrystal_conditions(real, depth):
    """The Kashiwara-Saito conditions of one color (Duke Math. J. 89, 1997,
    Prop. 3.2.3), read off the table at every id of depth <= depth - 2.  With
    s = eps_i(b) + eps*_i(b) + <wt b, h_i>: s >= 0; s = 0 gives f_i b = f*_i b;
    s >= 1 gives eps*_i(f_i b) = eps*_i(b) and eps_i(f*_i b) = eps_i(b);
    s >= 2 gives f_i f*_i b = f*_i f_i b.  eps_i counts the e_i column up to
    zero, and eps*_i is eps_i of star.  Returns the failures as (condition,
    element, color) and how often each case of s was met."""
    table = real.table(depth)
    failures, cases = [], Counter()
    for i in real.cartan.colors:
        e, f, f_star = table.e[i], table.f[i], table.f_star[i]

        def eps(x):
            n = 0
            while (x := e[x]) >= 0:
                n += 1
            return n

        def eps_star(x):
            return eps(table.star[x])

        for x in range(table.starts[depth - 1]):
            s = eps(x) + eps_star(x) + real.wt(table.elements[x])[i - 1]
            case = "s < 0" if s < 0 else f"s = {s}" if s < 2 else "s >= 2"
            cases[case] += 1
            holds = {
                "s < 0": False,
                "s = 0": f[x] == f_star[x],
                "s = 1": eps_star(f[x]) == eps_star(x) and eps(f_star[x]) == eps(x),
                "s >= 2": eps_star(f[x]) == eps_star(x) and eps(f_star[x]) == eps(x)
                and f[f_star[x]] == f_star[f[x]],
            }[case]
            if not holds:
                failures.append((case, table.elements[x], i))
    return failures, cases


@pytest.mark.parametrize("type_label,depth", [("A2", 8), ("B2", 8), ("G2", 8), ("A3", 6)])
def test_the_table_meets_the_bicrystal_conditions_of_one_color(type_label, depth):
    """The conditions for i != j are LEM31's commutation; these are the
    others, and every case of s is met."""
    failures, cases = bicrystal_conditions(b_inf(type_label), depth)
    assert failures == []
    assert set(cases) == {"s = 0", "s = 1", "s >= 2"}


def _identity_star(f, e, star, x):
    """The column corruption that makes star the identity."""
    star[:] = range(len(star))


def test_the_bicrystal_conditions_catch_an_identity_star(corrupt_table):
    """With the star column the identity, f*_i is f_i and eps*_i is eps_i,
    and STAR still passes.  At b = f_2 u, s = 1 for color 1, yet eps*_1(f_1
    b) = eps_1(f_1 f_2 u) = 1, not eps*_1(b) = 0."""
    real = BInfRealization(cartan_matrix("A2"))
    corrupt_table(real, 6, _identity_star)
    assert star_involution_check(real, 6).passed
    failures, _ = bicrystal_conditions(real, 6)
    assert failures[0] == ("s = 1", (0, 1), 1)


def test_f_star_e_star_inverse():
    real = b_inf("G2")
    for b in real.generate(3):
        for i in real.cartan.colors:
            assert real.e_star(i, real.f_star(i, b)) == b


# blocks that contain every color but are no reduced word of w0
NON_W0_BLOCKS = {("A2", (1, 1, 2, 1)), ("A2", (1, 2, 2, 2, 1, 2)), ("A3", (1, 2, 3))}


def carried_onto_the_default_table(real, depth):
    """Replay each element's peel word of real in the default realization, on
    the ids of depth <= depth + 1.  Returns the first of the bijection and
    the table columns star, f, f_star and wt (f and f_star on the ids of
    depth <= depth) that the replay does not carry onto the default table's,
    or None."""
    home = BInfRealization(real.cartan)
    table, default = real.table(depth), home.table(depth)
    n = table.starts[depth + 2]
    index = {b: x for x, b in enumerate(default.elements[:n])}
    to = [index.get(home.replay(real.peel(b))) for b in table.elements[:n]]
    if n != default.starts[depth + 2] or sorted(to) != list(range(n)):
        return "bijection"
    if any(default.star[to[x]] != to[y] for x, y in enumerate(table.star[:n])):
        return "star"
    for name in ("f", "f_star"):
        for i, column in getattr(table, name).items():
            if any(getattr(default, name)[i][to[x]] != to[y] for x, y in enumerate(column)):
                return name
    if any(default.wt[to[x]] != w for x, w in enumerate(table.wt)):
        return "wt"
    return None


def w0_blocks(type_label):
    data = cartan_matrix(type_label)
    group = enumerate_weyl(data)
    return sorted(group.reduced_words(group.longest))


@pytest.mark.parametrize(
    "type_label,depth,blocks", [("A2", 10, 2), ("B2", 10, 2), ("G2", 10, 2), ("A3", 9, 16)]
)
def test_every_reduced_word_of_w0_gives_the_default_table(type_label, depth, blocks):
    """B(inf) does not depend on the block: on every reduced word of w0,
    peel words replayed in the default realization carry the table onto the
    default one, star included, whose closed form differs from block to
    block; and PSI, STAR, LEM31 and LEM34 pass there."""
    assert len(w0_blocks(type_label)) == blocks
    for block in w0_blocks(type_label):
        real = BInfRealization(cartan_matrix(type_label), block)
        assert carried_onto_the_default_table(real, depth) is None, block
        assert star_involution_check(real, depth).passed, block
        for statement in ("PSI", "LEM31", "LEM34"):
            report = structural_check(statement, real, depth=depth)
            assert report.passed, (block, statement, report.witness)


def test_an_identity_star_on_another_block_is_not_carried(corrupt_table):
    """Negative control: with the star column the identity on the A2 block
    (2, 1, 2), an involution that keeps the weight, STAR passes, yet the
    replay does not carry it onto the default star."""
    real = BInfRealization(cartan_matrix("A2"), (2, 1, 2))
    corrupt_table(real, 10, _identity_star)
    assert star_involution_check(real, 10).passed
    assert carried_onto_the_default_table(real, 10) == "star"


def test_truncation_stability_of_operations(window_oracle):
    """The support-only signature rule agrees with a tensor word three zero
    blocks wider than the support, for every type, on every rotation of the
    main block, on every reduced word of w0, and on blocks that are no
    reduced word of w0: the rule needs only a block that contains every
    color."""
    blocks = set(NON_W0_BLOCKS)
    for type_label, block in BLOCKS.items():
        blocks.update((type_label, rotated_block(type_label, k)) for k in range(len(block)))
        blocks.update((type_label, word) for word in w0_blocks(type_label))
    for type_label, block in sorted(blocks):
        real = BInfRealization(cartan_matrix(type_label), block)
        oracle = window_oracle(real)
        for b in real.generate(4):
            for i in real.cartan.colors:
                assert real.f(i, b) == oracle.f(i, b)
                assert real.eps(i, b) == oracle.eps(i, b)
                assert real.phi(i, b) == oracle.phi(i, b)
                if real.eps(i, b) > 0:
                    assert real.e(i, b) == oracle.e(i, b)
                else:
                    assert real.e(i, b) is None


def test_generate_restriction_stability():
    real = b_inf("A2")
    full = real.generate(5)
    assert real.generate(4) == frozenset(b for b in full if sum(b) <= 4)


def test_generate_rejects_a_negative_depth():
    real = BInfRealization(cartan_matrix("A2"))
    real.generate(3)  # the cached layers must not answer a negative depth
    with pytest.raises(ValueError, match="nonnegative"):
        real.generate(-2)
    with pytest.raises(ValueError, match="nonnegative"):
        star_involution_check(real, -2)


def test_capacity_errors():
    real = BInfRealization(cartan_matrix("A2"))
    with pytest.raises(CapacityError, match="depth 25 exceeds the configured maximum 24"):
        real.generate(25)


def test_demazure_binf_beyond_the_maximum_depth_is_a_capacity_error():
    real = BInfRealization(cartan_matrix("A2"))
    with pytest.raises(CapacityError, match="depth 25 exceeds the configured maximum 24"):
        demazure_binf(real, (1,), 25)


# The operator table: generation's list numbered once, f, e and f_star as ids.


def assert_table_agrees(real, table):
    """The numbering is generation's sorted list, every layer numbered, and
    every entry, star's included, is the realization's own answer; -1
    exactly where e is zero.  f and f_star stop one layer short of the last
    layer numbered, e, star and wt cover it."""
    elements, starts = table.elements, table.starts
    depth = len(starts) - 2  # the last layer numbered
    assert elements == sorted(real.generate(depth), key=lambda b: (sum(b), b))
    assert [sum(elements[x]) for x in starts[:-1]] == list(range(depth + 1))
    assert all(sum(elements[starts[d + 1] - 1]) == d for d in range(depth + 1))
    assert len(table.star) == len(table.wt) == starts[-1]
    for i in real.cartan.colors:
        assert len(table.f[i]) == len(table.f_star[i]) == starts[depth]
        assert len(table.e[i]) == starts[depth + 1]
        for x, b in enumerate(elements):
            up = real.e(i, b)
            assert (table.e[i][x] == -1) == (up is None), (i, b)
            if up is not None:
                assert elements[table.e[i][x]] == up
            if x < starts[depth]:
                assert elements[table.f[i][x]] == real.f(i, b)
                assert elements[table.f_star[i][x]] == real.f_star(i, b)
    for x, b in enumerate(elements):
        assert elements[table.star[x]] == real.star(b), b
        assert table.wt[x] == real.wt(b), b


@pytest.mark.parametrize("type_label", ["A2", "B2", "G2", "A3"])
def test_the_table_agrees_with_the_operators(type_label):
    real = BInfRealization(cartan_matrix(type_label))
    table = real.table(6)
    assert len(table.starts) == 9 and table.elements[0] == real.highest  # numbered to the boundary layer 7
    assert_table_agrees(real, table)


def _counting_star(starred):
    """binf._star counting its outermost calls by tuple into starred: _star
    recurses through its module name, so the inner calls pass here too."""
    star, nested = binf._star, []

    def counting(block, f, memo, highest, b):
        if not nested:
            starred[b] += 1
        nested.append(b)
        try:
            return star(block, f, memo, highest, b)
        finally:
            nested.pop()

    return counting


def test_a_deeper_query_grows_the_same_table(monkeypatch):
    """table(7) after table(4) is the same table, grown in place: in total
    one signature pass per (color, id) of depth <= 7, the ids lowered, and
    one star per id past the highest, whose star the table starts with;
    a shallower or equal depth does no more."""
    real = BInfRealization(cartan_matrix("B2"))
    passes, starred = Counter(), Counter()
    unwrapped = real._signature

    def counting(i, coords):
        passes[i, coords] += 1
        return unwrapped(i, coords)

    monkeypatch.setattr(real, "_signature", counting)
    monkeypatch.setattr(binf, "_star", _counting_star(starred))
    table = real.table(4)
    assert len(table.starts) == 7
    assert real.table(7) is table and len(table.starts) == 10
    lowered = table.elements[: table.starts[8]]
    assert passes == Counter({(i, b): 1 for i in real.cartan.colors for b in lowered})
    assert starred == Counter(table.elements[1:])
    calls = passes.copy(), starred.copy()
    assert real.table(5) is table and real.table(7) is table and (passes, starred) == calls
    monkeypatch.undo()
    assert_table_agrees(real, table)


def test_a_shallow_table_after_deep_generation_answers_as_a_fresh_one():
    """After generate(12) on A3, table(2) is generation's whole record, yet
    STAR, the eight structural statements (the word ones on every Weyl
    element) and the Demazure sets answer at depth 2 exactly as on a fresh
    realization's table(2)."""
    data = cartan_matrix("A3")
    real, fresh = BInfRealization(data), BInfRealization(data)
    real.generate(12)
    assert len(real.table(2).starts) == 14 and len(fresh.table(2).starts) == 5
    group = enumerate_weyl(data)
    for statement in STRUCTURAL_STATEMENTS:
        for word in group if statement in WORD_STATEMENTS else [None]:
            deep, shallow = (structural_check(statement, r, depth=2, word=word) for r in (real, fresh))
            assert (deep.passed, deep.witness) == (shallow.passed, shallow.witness), (statement, word)
    deep, shallow = (star_involution_check(r, 2) for r in (real, fresh))
    assert (deep.passed, deep.witness) == (shallow.passed, shallow.witness)
    for word in group:
        assert demazure_binf(real, word, 2) == demazure_binf(fresh, word, 2), word


def test_the_table_checks_its_depth_without_generate(monkeypatch):
    """table(depth) lowers generation's list itself: on a fresh realization
    it calls generate zero times, and still rejects a negative depth and one
    past MAX_DEPTH with generate's errors."""
    real = BInfRealization(cartan_matrix("A2"))
    calls = []
    monkeypatch.setattr(real, "generate", lambda depth: calls.append(depth))
    table = real.table(3)
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        real.table(-1)
    with pytest.raises(CapacityError, match="depth 25 exceeds the configured maximum 24"):
        real.table(25)
    assert calls == []
    monkeypatch.undo()
    assert_table_agrees(real, table)


def test_clear_caches_drops_the_table():
    before = b_inf("A2")
    kept = before.table(3)
    clear_caches()
    after = b_inf("A2")
    assert after is not before and after._table is not kept and after._table.elements == [after.highest]
    fresh = after.table(3)
    assert fresh.elements == kept.elements[: fresh.starts[5]]


def test_the_table_calls_no_operator_and_fills_no_memo():
    """table() lowers by signature passes of its own: on a fresh realization,
    with f, e, eps, star, peel and generate refusing, it builds and agrees
    with the operators, and the star memo stays empty."""
    real = BInfRealization(cartan_matrix("A3"))

    def refuse(*args):
        raise AssertionError("an operator was called")

    for name in ("f", "e", "eps", "star", "peel", "generate"):
        setattr(real, name, refuse)
    table = real.table(5)
    assert real._star_cache == {}
    for name in ("f", "e", "eps", "star", "peel", "generate"):
        delattr(real, name)
    assert_table_agrees(BInfRealization(real.cartan), table)


@pytest.mark.parametrize("type_label", GRID_TYPES)
def test_the_columns_are_signature_passes_and_the_star(type_label):
    """At every depth <= 8, on a fresh realization: f_i of each id of depth
    <= depth is the signature pass of a fresh, unshared realization, e_i of
    each id of depth <= depth + 1 its pass too (-1 where eps_i is 0), and
    star that realization's star."""
    data = cartan_matrix(type_label)
    oracle = BInfRealization(data)
    for depth in range(9):
        table = BInfRealization(data).table(depth)
        elements = table.elements[: table.starts[depth + 2]]
        assert elements == sorted(oracle.generate(depth + 1), key=lambda b: (sum(b), b))
        for i in data.colors:
            passes = [oracle._signature(i, b) for b in elements]
            assert table.f[i] == [elements.index(oracle._bump(b, p, +1))
                                  for b, (_, p, _) in zip(elements[: table.starts[depth + 1]], passes)]
            assert table.e[i] == [elements.index(oracle._bump(b, p, -1)) if eps else -1
                                  for b, (eps, _, p) in zip(elements, passes)]
        assert table.star == [elements.index(oracle.star(b)) for b in elements]


def _misdirect_f_1_of_0_1(real, target):
    """Make generation take f_1 (0, 1) on A2, a bump at position 3, to target."""
    bump = real._bump

    def misdirected(coords, position, delta):
        return target if (coords, position, delta) == ((0, 1), 3, +1) else bump(coords, position, delta)

    real._bump = misdirected


def test_two_f_edges_into_one_id_have_no_inverse():
    """e_i is the inverse of f_i, so an f_i column that is not one to one
    raises: here generation takes f_1 (0, 1) to f_1 (1,) = (2,)."""
    real = BInfRealization(cartan_matrix("A2"))
    _misdirect_f_1_of_0_1(real, (2,))
    with pytest.raises(RuntimeError) as error:
        real.table(3)
    assert str(error.value) == "f_1 maps (0, 1) and (1,) to (2,); realization bug"


@pytest.mark.parametrize("type_label", ["A2", "B2", "G2", "A3"])
def test_the_weight_column_is_the_weight_by_coordinates(type_label, wt_oracle):
    """The column built along f from wt(highest) = 0 is the weight summed one
    coordinate at a time, on every id of depth <= 9, with one tuple per
    weight."""
    real = BInfRealization(cartan_matrix(type_label))
    table = real.table(8)
    assert table.wt == [wt_oracle(real, b) for b in table.elements]
    assert len({id(w) for w in table.wt}) == len(set(table.wt))


# (image generation gives f_1 (0, 1) on A2, error): the image is numbered in
# its layer, but the weight column built along f finds it out
_MISWEIGHED = {
    "another weight": (
        (0, 2), "f edges into (0, 2) give it the weights (-1, -1) and (2, -4); realization bug",
    ),
}


@pytest.mark.parametrize("case", sorted(_MISWEIGHED))
def test_the_table_rejects_a_weight_it_cannot_derive(case):
    """Generation takes f_1 (0, 1) to (0, 2), of another weight, which f_2
    (0, 1) reaches too: writing the weight column raises."""
    target, message = _MISWEIGHED[case]
    real = BInfRealization(cartan_matrix("A2"))
    _misdirect_f_1_of_0_1(real, target)
    with pytest.raises(RuntimeError) as error:
        real.table(3)
    assert str(error.value) == message


@pytest.mark.parametrize("type_label", ["A2", "B2", "G2"])
def test_set_statements_read_only_the_table(type_label):
    """Once the table is built, the seven statements about Demazure sets
    pass with every element operator, peel and generation refusing."""
    real = BInfRealization(cartan_matrix(type_label))
    real.table(5)

    def refuse(*args):
        raise AssertionError("an element operator was called")

    for name in ("f", "e", "eps", "phi", "f_star", "star", "psi", "peel", "generate"):
        setattr(real, name, refuse)
    for statement in ("LEM31", "LEM34"):
        report = structural_check(statement, real, depth=5)
        assert report.passed, report.witness
    for w in enumerate_weyl(real.cartan):
        for statement in ("THM32", "COR33", "THM35", "THM35R", "P3"):
            report = structural_check(statement, real, depth=5, word=w)
            assert report.passed, (statement, w, report.witness)


@pytest.mark.parametrize("check", ["STAR", "PSI"])
def test_star_and_psi_read_only_the_table(check):
    """Once the table is built, STAR and PSI at every depth up to it read
    f, e, f_star, star and wt off the table's ids: none of those operators,
    no eps or phi, no peel word, no generation and no signature pass."""
    real = BInfRealization(cartan_matrix("A2"))
    real.table(5)

    def refuse(*args):
        raise AssertionError("an operator outside the table was called")

    for name in ("f", "e", "eps", "phi", "wt", "star", "f_star", "psi", "peel", "generate", "_signature"):
        setattr(real, name, refuse)
    for depth in range(6):
        if check == "STAR":
            report = star_involution_check(real, depth)
        else:
            report = structural_check("PSI", real, depth=depth)
        assert report.passed, (depth, report.witness)


@pytest.mark.parametrize("type_label", ["A2", "B2", "G2"])
def test_lazy_tensor_rule_matches_the_eager_one_on_split_pairs(type_label, eager_tensor):
    """PSI's products B(inf) x B_c, for each color c: every element of depth
    at most 5 with every level -3..3, under every color."""
    real = BInfRealization(cartan_matrix(type_label))
    cartan = real.cartan
    elements = sorted(real.generate(5))
    for c in cartan.colors:
        crystal = TensorCrystal(cartan, (real, ElementaryCrystal(cartan, c)))
        for word in product(elements, range(-3, 4)):
            for i in cartan.colors:
                assert crystal.f(i, word) == eager_tensor(crystal, i, word, True)
                assert crystal.e(i, word) == eager_tensor(crystal, i, word, False)


def test_block_validation():
    data = cartan_matrix("A2")
    with pytest.raises(ValueError):
        BInfRealization(data, block=(1, 1))  # color 2 never occurs
    with pytest.raises(ValueError):
        BInfRealization(data, block=())
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"color {i} outside the index set of A2"):
            BInfRealization(data, block=(1, 2, i))


@pytest.mark.parametrize("color", [1.0, True])
def test_a_color_that_only_equals_an_int_is_rejected_on_a_warm_memo(color):
    """1.0 and True hash and compare as 1: f, e and eps check the color once
    per call, before the signature pass would read it as a row index, and
    the starred operators check it even when the star memo is warm."""
    real = BInfRealization(cartan_matrix("A2"))
    u = real.highest
    assert (real.f(1, u), real.e(1, (1,)), real.eps(1, (1,))) == ((1,), u, 1)
    message = f"color {color} outside the index set of A2"
    for query, b in [(real.f, u), (real.e, (1,)), (real.eps, (1,)), (real.f_star, u), (real.e_star, (1,))]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            query(color, b)


@pytest.mark.parametrize("type_label", ["A1", "A1xA1", "A2", "B2", "G2", "A3"])
@pytest.mark.parametrize(
    "op", ["f", "e", "eps", "phi", "f_star", "e_star", "eps_star", "psi"]
)
def test_operators_reject_a_color_outside_the_index_set(type_label, op):
    # color 0 used to search forever for its position; rank + 1 read past
    # the Cartan matrix
    real = BInfRealization(cartan_matrix(type_label))
    for b in (real.highest, real.f(1, real.f(1, real.highest))):
        for i in (0, real.cartan.rank + 1):
            with pytest.raises(ValueError, match=f"color {i} outside the index set"):
                getattr(real, op)(i, b)


@given(
    st.sampled_from(["A1xA1", "A2", "B2", "G2", "A3"]),
    st.lists(st.integers(1, 3), min_size=0, max_size=6),
)
def test_random_lowering_words_respect_the_core_identities(type_label, raw_word):
    real = b_inf(type_label)
    data = real.cartan
    word = tuple(1 + (c - 1) % data.rank for c in raw_word)
    b = real.replay(word)
    assert sum(b) == len(word)
    assert real.replay(real.peel(b)) == b
    assert real.star(real.star(b)) == b
    assert real.wt(real.star(b)) == real.wt(b)
    for i in data.colors:
        assert real.phi(i, b) == real.eps(i, b) + real.wt(b)[i - 1]
        assert real.e(i, real.f(i, b)) == b
        assert real.eps_star(i, real.f_star(i, b)) == real.eps_star(i, b) + 1


# Starred operators conjugated by the closed-form star, against whole-word
# conversion through rotated realizations (StarOracle in conftest.py).

DIFF_TYPES = ["A1", "A1xA1", "A2", "B2", "G2", "A3"]


def diff_depth(type_label):
    return 4 if type_label == "G2" else 5


def rotated_block(type_label, k):
    block = BLOCKS[type_label]
    return block[k:] + block[:k]


def assert_starred_agree(real, oracle, elements, e_first):
    for b in elements:
        for i in real.cartan.colors:
            if e_first:
                assert real.e_star(i, b) == oracle.e_star(i, b)
                assert real.f_star(i, b) == oracle.f_star(i, b)
            else:
                assert real.f_star(i, b) == oracle.f_star(i, b)
                assert real.e_star(i, b) == oracle.e_star(i, b)
            assert real.eps_star(i, b) == oracle.eps_star(i, b)
            assert real.psi(i, b) == oracle.psi(i, b)
        assert real.star(b) == oracle.star(b)
        assert real.peel(b) == oracle.peel(oracle.real, b)


@pytest.mark.parametrize("type_label", DIFF_TYPES)
def test_starred_operators_match_whole_word_conversion(type_label, star_oracle):
    """Cold twice (e_star first, deepest elements first; then f_star first,
    shallowest first), then warm; on the main block and on every rotation
    of it."""
    data = cartan_matrix(type_label)
    for k in range(len(BLOCKS[type_label])):
        block = rotated_block(type_label, k)
        oracle = star_oracle(BInfRealization(data, block))
        elements = sorted(oracle.real.generate(diff_depth(type_label)), key=oracle.real.sort_key)
        assert_starred_agree(BInfRealization(data, block), oracle, elements[::-1], e_first=True)
        real = BInfRealization(data, block)
        assert_starred_agree(real, oracle, elements, e_first=False)
        assert_starred_agree(real, oracle, elements, e_first=True)


@pytest.mark.parametrize("type_label", DIFF_TYPES)
def test_convert_from_matches_replay_of_the_peel_word(type_label, star_oracle):
    data = cartan_matrix(type_label)
    depth = diff_depth(type_label)
    rotations = [
        BInfRealization(data, rotated_block(type_label, k))
        for k in range(len(BLOCKS[type_label]))
    ]
    for src in rotations:
        # deepest first: the first conversions walk all the way up
        elements = sorted(src.generate(depth), key=src.sort_key, reverse=True)
        for dst in rotations:
            for b in elements:
                assert dst.convert_from(src, b) == dst.replay(star_oracle.peel(src, b))


STEP = st.tuples(st.sampled_from(["f", "f_star", "e_star"]), st.integers(1, 3))


# the fixture returns the oracle class, so nothing is shared between examples
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["A1xA1", "A2", "B2", "G2", "A3"]), st.lists(STEP, max_size=8))
def test_random_starred_walks_match_whole_word_conversion(star_oracle, type_label, steps):
    shared = b_inf(type_label)
    fresh = BInfRealization(shared.cartan)
    oracle = star_oracle(shared)
    rank = shared.cartan.rank
    b = shared.highest
    for name, raw in steps:
        i = 1 + (raw - 1) % rank
        if name == "f":
            nxt = shared.f(i, b)
        else:
            nxt = getattr(shared, name)(i, b)
            assert nxt == getattr(fresh, name)(i, b) == getattr(oracle, name)(i, b)
        if nxt is not None:
            b = nxt
    for i in shared.cartan.colors:
        assert shared.eps_star(i, b) == fresh.eps_star(i, b) == oracle.eps_star(i, b)
    assert shared.star(b) == fresh.star(b) == oracle.star(b)


def test_warm_f_star_pass_converts_nothing_and_scans_once(monkeypatch):
    """Work-count guard: once f_star has seen an element, asking again is
    two star memo reads around one signature pass (the f), with no
    conversion, and the star memo does not grow."""
    real = BInfRealization(cartan_matrix("A2"))
    elements = sorted(real.generate(5), key=real.sort_key)

    def f_star_pass():
        return [real.f_star(i, b) for i in real.cartan.colors for b in elements]

    first = f_star_pass()
    deeper = real.replay((1, 1, 2) + real.peel(max(elements, key=real.sort_key)))
    counts = Counter()

    def counting(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        return wrapper

    memo = len(real._star_cache)
    for name in ("convert_from", "_signature"):
        monkeypatch.setattr(real, name, counting(name, getattr(real, name)))
    assert f_star_pass() == first
    assert counts == Counter({"_signature": len(first)})
    # the star memo holds the queried elements and their f_i images only
    assert len(real._star_cache) == memo <= (real.cartan.rank + 1) * len(elements)
    # the wrappers do count: star lowers an element f_star has not seen by f
    counts.clear()
    real.f_star(2, deeper)
    assert counts["_signature"] > 1 and counts["convert_from"] == 0 and len(real._star_cache) > memo


def test_cold_conversion_peels_only_its_source_and_star_peels_nothing(monkeypatch):
    """Work-count guard: conversion asks its source for one peel word per
    element and the target for none, and star lowers once from the star of
    a shallower tuple, so a cold star pass asks no realization for a peel word."""
    data = cartan_matrix("A2")
    rotations = [BInfRealization(data, rotated_block("A2", k)) for k in range(3)]
    real = rotations[0]
    elements = sorted(real.generate(5))
    counts = Counter()
    for r in rotations:
        def counting(b, r=r, peel=r.peel):
            counts[r.block] += 1
            return peel(b)

        monkeypatch.setattr(r, "peel", counting)
    for dst in rotations[1:]:
        assert len({dst.convert_from(real, b) for b in elements}) == len(elements)
    assert counts == Counter({real.block: 2 * len(elements)})
    counts.clear()
    assert len({real.star(b) for b in elements}) == len(elements)
    assert counts == Counter()


@pytest.mark.parametrize("type_label", ["A2", "G2"])
def test_starred_operators_neither_convert_nor_peel(type_label, monkeypatch):
    """Work-count guard: the starred operators conjugate by the closed-form
    star, so a cold pass makes no conversion and asks for no peel word."""
    real = BInfRealization(cartan_matrix(type_label))
    elements = sorted(real.generate(5))
    counts = Counter()

    def counting(name, method):
        def wrapper(*args):
            counts[name] += 1
            return method(*args)

        return wrapper

    for name in ("convert_from", "peel"):
        monkeypatch.setattr(real, name, counting(name, getattr(real, name)))
    for b in elements:
        real.star(b)
        for i in real.cartan.colors:
            real.f_star(i, b), real.e_star(i, b), real.eps_star(i, b), real.psi(i, b)
    assert counts == Counter()
    # the wrappers do count
    real.sort_key(elements[-1]), real.convert_from(real, elements[-1])
    assert counts == Counter({"peel": 1, "convert_from": 1})


def test_clear_caches_drops_the_starred_memos():
    before = b_inf("A2")
    b = before.f(1, before.f(2, before.highest))
    expected = [before.f_star(i, b) for i in before.cartan.colors]
    assert before._star_cache
    clear_caches()
    after = b_inf("A2")
    assert after is not before
    assert not after._star_cache
    assert [after.f_star(i, b) for i in after.cartan.colors] == expected


# The signature pass: f, e and eps are one pass each and keep no memo, so no
# call, in any order and on any tuple, changes a later answer; phi is eps
# plus the pairing of wt.


@pytest.mark.parametrize("type_label", DIFF_TYPES)
@pytest.mark.parametrize("order", ["ef", "fe"])
def test_stored_eps_phi_and_wt_match_a_fresh_realization(type_label, order, wt_oracle):
    """Cold, e first or f first over generate(5): every f and e answer, zero
    included, equals the signature pass of a fresh, unshared realization,
    and then eps, phi and the stored wt agree with that pass and the old
    per-coordinate weight loop on every element."""
    data = cartan_matrix(type_label)
    elements = sorted(BInfRealization(data).generate(5))
    real, fresh = BInfRealization(data), BInfRealization(data)
    for op in order:
        for b in elements:
            for i in data.colors:
                eps, f_position, e_position = fresh._signature(i, b)
                if op == "f":
                    assert real.f(i, b) == fresh._bump(b, f_position, +1), (i, b)
                else:
                    assert real.e(i, b) == (fresh._bump(b, e_position, -1) if eps else None), (i, b)
    for b in elements:
        weight = wt_oracle(fresh, b)
        assert real.wt(b) == weight
        for i in data.colors:
            eps = fresh._signature(i, b)[0]
            assert (real.eps(i, b), real.phi(i, b)) == (eps, eps + weight[i - 1])


@pytest.mark.parametrize("type_label", DIFF_TYPES)
def test_wt_matches_the_per_coordinate_loop(type_label, wt_oracle):
    data = cartan_matrix(type_label)
    for k in range(len(BLOCKS[type_label])):
        rot = BInfRealization(data, rotated_block(type_label, k))
        for b in rot.generate(diff_depth(type_label) + 1):
            assert rot.wt(b) == wt_oracle(rot, b), (rot.block, b)


def test_no_call_on_a_tuple_changes_a_later_answer(capsys):
    """e_1 of (1, 0), a trailing zero, is (); f_1 of (0,) is (1,).  Had
    either call filed its edge under the other end's key, f_1 u would read
    (1, 0) from then on, and IOTA would fail at (1, 0) on the shared A2."""
    clear_caches()
    try:
        real = b_inf("A2")
        assert (real.e(1, (1, 0)), real.f(1, (0,))) == ((), (1,))
        assert (real.f(1, ()), real.e(1, (1,))) == ((1,), ())
        assert main(["verify", "--type", "A2"]) == 0
        assert capsys.readouterr().out.endswith("\n277/277 checks passed\n")
    finally:
        clear_caches()


NOT_ELEMENTS = {
    "trailing zero": [(0,), (1, 0), (0, 1, 0)],
    "negative": [(-1,), (1, -1, 1)],
    "non-int": [(1.0,), (True,), (0, 2.5), (1, "1")],
}


@pytest.mark.parametrize("case", sorted(NOT_ELEMENTS))
def test_star_and_peel_reject_a_tuple_that_is_no_element(case, monkeypatch):
    """star and peel, and so the starred operators and sort_key, raise one
    ValueError for a tuple with a trailing zero, a negative or a non-int
    coordinate, where star leaked StopIteration or recursed without end, peel
    blamed the realization and sort_key's sum raised TypeError.  The check
    runs on a memo miss only."""
    real = BInfRealization(cartan_matrix("A2"))
    for b in NOT_ELEMENTS[case]:
        message = f"{b!r} is not a B(inf) element: its coordinates must be nonnegative ints with no trailing zero"
        for query in (real.star, real.peel, real.sort_key, lambda b: real.f_star(1, b), lambda b: real.psi(2, b)):
            with pytest.raises(ValueError) as error:
                query(b)
            assert str(error.value) == message
    checks = []
    monkeypatch.setattr(binf, "_check_element", lambda b, check=binf._check_element: checks.append(b) or check(b))
    b = real.f(2, real.f(1, real.highest))
    cold = (real.star(b), real.peel(b))
    assert checks == [b, b]
    assert (real.star(b), real.peel(b)) == cold and checks == [b, b]


def test_public_operators_check_the_color_only():
    """f, e, eps, phi and wt assume an element and check only the color: no
    element check rides on the signature pass."""
    real = BInfRealization(cartan_matrix("A2"))
    assert real.f(1, (-1,)) == (-1, 0, 1)
    assert (real.e(1, (-1,)), real.eps(1, (-1,)), real.phi(1, (-1,)), real.wt((-1,))) == (None, 0, 2, (2, -1))
    with pytest.raises(ValueError, match="color 3 outside the index set of A2"):
        real.f(3, (-1,))


def test_f_e_and_eps_make_one_signature_pass_each(monkeypatch):
    """Work-count guard: f, e and eps keep no memo, so each public call is
    one signature pass of its own (color, element), cold or repeated, and
    phi is the pass of its eps."""
    real = BInfRealization(cartan_matrix("A3"))
    elements = sorted(real.generate(5))
    calls = Counter()
    unwrapped = real._signature

    def counting(i, coords):
        calls[(i, coords)] += 1
        return unwrapped(i, coords)

    monkeypatch.setattr(real, "_signature", counting)
    for op in (real.f, real.e, real.eps, real.phi, real.f):
        for b in elements:
            for i in real.cartan.colors:
                before = sum(calls.values())
                op(i, b)
                assert sum(calls.values()) == before + 1, (op.__name__, i, b)
    assert set(calls.values()) == {5}


def test_a_cold_peel_scans_each_color_and_element_at_most_once(monkeypatch):
    """Work-count guard: peel tries the colors in order, one pass each, and
    raises at the first with eps > 0, so a cold walk scans each (j, b) once."""
    real = BInfRealization(cartan_matrix("B2"))
    elements = sorted(real.generate(3), key=real.sort_key)
    calls = Counter()
    unwrapped = real._signature

    def counting(i, coords):
        calls[(i, coords)] += 1
        return unwrapped(i, coords)

    deeper = real.f(2, real.f(1, elements[-1]))
    cold = BInfRealization(real.cartan)
    monkeypatch.setattr(cold, "_signature", counting)
    assert cold.peel(deeper) == real.peel(deeper)
    assert calls and max(calls.values()) == 1
