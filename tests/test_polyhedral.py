"""B(lambda) membership: generation by the phi cut against Kashiwara's bound.

Generation keeps f_i x exactly when phi_i(x) > 0.  Its members are checked
against the bound eps_i(star b) <= <lam, h_i>, against weyl_dim and
Freudenthal's character on blocks of every kind, and by the work it does
not do.  Nakashima's polyhedral forms, which the package no longer uses,
stay here as a second oracle: on the reduced words of w0 whose closure
stays in the block they describe eps_star, their lattice points count
weyl_dim and every generated member lies among them.
"""

import signal
from collections import Counter
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from demazure_crystals import (
    GRID_TYPES,
    BInfRealization,
    BLambdaCrystal,
    FormalSum,
    b_inf,
    b_lambda,
    cartan_matrix,
    char_map,
    enumerate_weyl,
    freudenthal_character,
    grid_lambdas,
    weyl_dim,
)

# in the order that numbers the w0-word test ids
TYPES = ("A1", "A1xA1", "A2", "B2", "G2", "A3")

LADDER = [("A3", (3, 3, 3)), ("G2", (3, 3))]
GRID = [(t, lam) for t in GRID_TYPES for lam in grid_lambdas(t)]
# the reduced words of w0 whose closure leaves positions 1..len(block)
REJECTED = [("A3", (2, 1, 2, 3, 2, 1)), ("A3", (2, 3, 2, 1, 2, 3))]
# two such words of A4, a type that add_type puts in the table
A4_MATRIX = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
A4_LEAVING = [(1, 2, 3, 2, 4, 3, 2, 1, 2, 3), (1, 2, 3, 4, 2, 3, 2, 1, 2, 3)]


def _dot(form, coords) -> int:
    return sum(map(mul, form, coords))


def _eps_star_member(realization, lam, base) -> bool:
    """Kashiwara's membership bound."""
    return all(realization.eps_star(i, base) <= lam[i - 1] for i in realization.cartan.colors)


def _seed(realization, i):
    """lam_i - x_k - sum_{j<k} a_{i,i_j} x_j without lam_i, k the first position of color i."""
    block, row = realization.block, realization.cartan.matrix[i - 1]
    k = block.index(i)
    return tuple(-row[c - 1] for c in block[:k]) + (-1,) + (0,) * (len(block) - k - 1)


def _close_forms(realization, seeds, *, halt=False):
    """Close forms c . x on positions 1..len(block) under Nakashima's maps
    S_k c = c - c_k beta_k if c_k > 0, else c - c_k beta_{k-}, where
    beta_k = x_k + sum_{k<j<k+} a_{i_k,i_j} x_j + x_{k+}, k+ / k- is the
    next / previous position of color i_k and a missing k- gives 0.  Forms
    are cut off at len(block); the flag tells whether one reached past it,
    and halt returns at the first that does.  On some reduced words of w0
    (A4 (1,2,3,2,4,3,2,1,2,3)) the closure without halt never ends."""
    n, block, a = len(realization.block), realization.block, realization.cartan.matrix
    color = (0,) + block * 2  # color[p] is the color of position p <= 2 len(block)
    betas, prev = {}, {}
    for k, i in enumerate(block, 1):
        kp, row = color.index(i, k + 1), a[i - 1]
        betas[k] = [(k < p < kp) * row[cp - 1] + (p in (k, kp)) for p, cp in enumerate(color[1:], 1)]
        prev[kp] = k
    out, todo, left = set(seeds), list(seeds), False
    while todo:
        form = todo.pop()
        for k, c in enumerate(form, 1):
            beta = c and betas.get(k if c > 0 else prev.get(k))
            if beta:
                new = [x - c * y for x, y in zip(form + (0,) * n, beta)]
                left = left or any(new[n:])
                if left and halt:
                    return frozenset(out), True
                cut = tuple(new[:n])
                if cut not in out:
                    out.add(cut)
                    todo.append(cut)
    return frozenset(out), left


def _lambda_forms(realization):
    """(i, L): on a reduced word of w0 whose closure stays in the block, b is
    in B(lam) iff L . b <= lam_i for all, and eps_i(star b) = max L . b over
    color i.  -L runs over the closure of _seed(realization, i).  Any other
    block raises ValueError naming it."""
    group = enumerate_weyl(realization.cartan)
    block = realization.block
    if len(block) != len(group.longest) or not group.is_reduced(block):
        raise ValueError(f"block {block} is not a reduced word of w0")
    forms = []
    for i in realization.cartan.colors:
        closed, left = _close_forms(realization, [_seed(realization, i)], halt=True)
        if left:
            raise ValueError(f"block {block}: Nakashima's forms leave positions 1..{len(block)}")
        forms += [(i, tuple(-c for c in form)) for form in sorted(closed)]
    return forms


def _w0_words():
    for type_label in TYPES:
        group = enumerate_weyl(cartan_matrix(type_label))
        for word in sorted(group.reduced_words(group.longest)):
            yield type_label, word


def test_default_blocks_give_the_expected_inequalities():
    """A2: x1 <= l1, x2 - x1 <= l2, x3 <= l2; A3 and G2 likewise, form by form."""
    def forms(type_label):
        return set(_lambda_forms(b_inf(type_label)))

    assert forms("A2") == {(1, (1, 0, 0)), (2, (-1, 1, 0)), (2, (0, 0, 1))}
    assert forms("A3") == {
        (1, (1, 0, 0, 0, 0, 0)),
        (2, (-1, 1, 0, 0, 0, 0)),
        (2, (0, 0, 1, 0, 0, 0)),
        (3, (0, -1, 0, 1, 0, 0)),
        (3, (0, 0, -1, 0, 1, 0)),
        (3, (0, 0, 0, 0, 0, 1)),
    }
    assert forms("G2") == {
        (1, (1, 0, 0, 0, 0, 0)),
        (2, (-3, 1, 0, 0, 0, 0)),
        (2, (0, -2, 3, 0, 0, 0)),
        (2, (0, 0, -3, 2, 0, 0)),
        (2, (0, 0, 0, -1, 3, 0)),
        (2, (0, 0, 0, 0, 0, 1)),
    }


def test_the_closure_uses_both_maps():
    """In A2 (1, 2, 1), beta_1 = x1 - x2 + x3: S_1 takes x1 - x2 (c_1 > 0) to
    -x3, and S_3 takes -x3 (c_3 < 0, 3- = 1) back to x1 - x2."""
    realization = b_inf("A2")
    both = {(1, -1, 0), (0, 0, -1)}
    assert _close_forms(realization, [(1, -1, 0)]) == (both, False)
    assert _close_forms(realization, [(0, 0, -1)]) == (both, False)
    assert _close_forms(realization, [(-1, 0, 0)]) == ({(-1, 0, 0)}, False)  # 1- is missing
    # x2 - x3 reaches x4 - x5, which is cut off to zero
    assert _close_forms(realization, [(0, 1, -1)]) == ({(0, 1, -1), (0, 0, 0), (1, 0, 0)}, True)


@pytest.mark.parametrize("type_label,lam", GRID + LADDER)
def test_membership_equals_the_eps_star_bound_on_every_candidate(type_label, lam):
    """Every f_i x of every element x, accepted or not, on a fresh realization."""
    realization = BInfRealization(cartan_matrix(type_label))
    crystal = BLambdaCrystal(realization, lam)
    for x in crystal.generate():
        for i in realization.cartan.colors:
            candidate = realization.f(i, x)
            assert crystal.contains_base(candidate) == _eps_star_member(realization, lam, candidate)


_SAMPLED = {t: BInfRealization(cartan_matrix(t)) for t in TYPES}


@settings(deadline=None)  # a fresh crystal per example, G2 (4, 4) of 15,625 elements
@given(
    st.sampled_from(sorted(_SAMPLED)),
    st.lists(st.integers(1, 3), max_size=14),
    st.lists(st.integers(0, 4), min_size=3, max_size=3),
)
def test_membership_equals_the_eps_star_bound_on_sampled_elements(type_label, word, lam):
    realization = _SAMPLED[type_label]
    rank = realization.cartan.rank
    base = realization.replay([1 + (i - 1) % rank for i in word])
    crystal = BLambdaCrystal(realization, tuple(lam[:rank]))
    assert crystal.contains_base(base) == _eps_star_member(realization, lam, base)


@pytest.mark.parametrize("type_label,word", [w for w in _w0_words() if w not in REJECTED])
def test_eps_star_is_the_largest_form_on_every_accepted_w0_word(type_label, word):
    realization = BInfRealization(cartan_matrix(type_label), word)
    by_color = {i: [form for c, form in _lambda_forms(realization) if c == i] for i in word}
    for b in realization.generate(6 if type_label in ("A3", "G2") else 8):
        for i, forms in by_color.items():
            assert realization.eps_star(i, b) == max(_dot(form, b) for form in forms)


def test_exactly_two_w0_words_are_rejected():
    rejected = []
    for type_label, word in _w0_words():
        try:
            _lambda_forms(BInfRealization(cartan_matrix(type_label), word))
        except ValueError:
            rejected.append((type_label, word))
    assert rejected == REJECTED


@pytest.mark.parametrize("type_label,word", REJECTED)
def test_cut_off_forms_of_a_rejected_word_miss_eps_star(type_label, word):
    """Forms cut back to positions 1..len(block) describe eps_star wrongly there."""
    realization = BInfRealization(cartan_matrix(type_label), word)
    misses, left = 0, False
    for i in realization.cartan.colors:
        forms, reached = _close_forms(realization, [_seed(realization, i)])
        left = left or reached
        for b in realization.generate(5):
            misses += realization.eps_star(i, b) != max(-_dot(form, b) for form in forms)
    assert left and misses > 0


def _assert_built(realization, lam):
    """The crystal on realization's block has weyl_dim elements and
    Freudenthal's character, and peel and replay carry it onto the crystal
    on the default block."""
    data = realization.cartan
    crystal = BLambdaCrystal(realization, lam)
    members = crystal.generate()
    assert len(members) == weyl_dim(data, lam)
    assert char_map(crystal, FormalSum.from_elements(members)) == freudenthal_character(data, lam)
    home = b_inf(data.type_label)
    assert {home.convert_from(realization, x) for x in members} == b_lambda(data.type_label, lam).generate()


@pytest.mark.parametrize(
    "type_label,block",
    REJECTED
    + [("A2", (1, 1, 2)), ("A2", (1, 1, 2, 1)), ("A2", (1, 2, 2, 2, 1, 2)), ("A3", (1, 2, 3))]
    + [("A4", block) for block in A4_LEAVING],
)
def test_every_block_builds_the_crystal(add_type, type_label, block):
    """The phi cut needs no forms: the w0 words whose forms leave the block,
    and blocks that are no reduced word of w0, build B(lam)."""
    add_type("A4", A4_MATRIX)
    realization = BInfRealization(cartan_matrix(type_label), block)
    rank = realization.cartan.rank
    for lam in ((1,) * rank, (2,) + (0,) * (rank - 1)):
        _assert_built(realization, lam)


def test_a_block_that_is_no_w0_word_can_keep_its_forms_and_be_wrong():
    """A2 (1, 1, 2, 1): the closure stays on positions 1..4, yet misses
    eps_star, so the forms are limited to reduced words of w0."""
    realization = BInfRealization(cartan_matrix("A2"), (1, 1, 2, 1))
    forms = {i: _close_forms(realization, [_seed(realization, i)]) for i in (1, 2)}
    assert not any(left for _, left in forms.values())
    forms = {i: closed for i, (closed, _) in forms.items()}
    assert any(
        realization.eps_star(i, b) != max(-_dot(form, b) for form in forms[i])
        for b in realization.generate(5)
        for i in (1, 2)
    )


def test_generation_builds_no_rotation_and_converts_nothing(monkeypatch):
    calls = Counter()
    for name in ("convert_from", "eps_star"):
        original = getattr(BInfRealization, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(BInfRealization, name, counted)
    realization = BInfRealization(cartan_matrix("A3"))
    crystal = BLambdaCrystal(realization, (2, 2, 2))
    assert len(crystal.generate()) == weyl_dim(realization.cartan, (2, 2, 2))
    assert not realization._star_cache
    assert calls == Counter()


def _count_lattice_points(n: int, inequalities) -> int:
    """Points x of Z^n with bound + form . x >= 0 for every (bound, form).

    Depth-first over x_1, ..., x_n: an inequality is decided at the last
    position where its form is nonzero, so it bounds that coordinate given
    the earlier ones, and a branch ends as soon as its interval is empty.
    """
    at: list[list] = [[] for _ in range(n + 1)]
    for bound, form in inequalities:
        last = max((k + 1 for k, c in enumerate(form) if c), default=0)
        at[last].append((bound, form))
    if any(bound < 0 for bound, _ in at[0]):
        return 0

    def count(x: list[int]) -> int:
        k = len(x)
        if k == n:
            return 1
        low, high = 0, None  # x_k >= 0 is itself one of the cone forms
        for bound, form in at[k + 1]:
            rest, c = bound + _dot(form, x), form[k]
            if c > 0:
                low = max(low, -(rest // c))
            else:
                high = rest // -c if high is None else min(high, rest // -c)
        assert high is not None, f"coordinate {k + 1} is unbounded"
        return sum(count(x + [v]) for v in range(low, high + 1))

    return count([])


@pytest.mark.parametrize("type_label,lam", GRID + LADDER)
def test_lattice_points_of_the_forms_count_weyl_dim(type_label, lam):
    """The cone forms (the closure of every x_k, cut back to the block) and
    the lambda forms cut out weyl_dim points, no crystal asked, and every
    member of generation is one of them: the two sets are equal."""
    realization = BInfRealization(cartan_matrix(type_label))
    n = len(realization.block)
    cone, _ = _close_forms(realization, [tuple(int(j == k) for j in range(n)) for k in range(n)])
    inequalities = [(0, form) for form in cone]
    inequalities += [(lam[i - 1], tuple(-c for c in form)) for i, form in _lambda_forms(realization)]
    assert _count_lattice_points(n, inequalities) == weyl_dim(realization.cartan, lam)
    for b in BLambdaCrystal(realization, lam).generate():
        coords = b + (0,) * (n - len(b))
        assert all(bound + _dot(form, coords) >= 0 for bound, form in inequalities), b


@pytest.mark.parametrize(
    "type_label, matrix, block",
    [
        ("B3", ((2, -1, 0), (-1, 2, -1), (0, -2, 2)), (1, 2, 1, 3, 2, 1, 3, 2, 3)),
        ("C3", ((2, -1, 0), (-1, 2, -2), (0, -1, 2)), (1, 2, 1, 3, 2, 1, 3, 2, 3)),
        ("A4", A4_MATRIX, (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)),
    ],
    ids=["B3", "C3", "A4"],
)
def test_a_new_type_is_one_matrix(add_type, type_label, matrix, block):
    """With only its matrix in the table, a rank-3 or rank-4 type gets its
    default block, its lambda forms and a B(rho) that matches both oracles."""
    add_type(type_label, matrix)
    data = cartan_matrix(type_label)
    assert b_inf(type_label).block == block
    crystal = b_lambda(type_label, data.rho)
    members = crystal.generate()
    assert len(members) == weyl_dim(data, data.rho) == 2 ** len(data.positive_roots)
    assert char_map(crystal, FormalSum.from_elements(members)) == freudenthal_character(
        data, data.rho
    )


@pytest.mark.parametrize("block", A4_LEAVING)
def test_forms_that_leave_the_block_are_rejected_at_the_first_one(add_type, block):
    """Both are reduced words of A4's w0 whose forms leave positions 1..10,
    and closing them cut back to the block never ends, so _lambda_forms stops
    at the first form that leaves; the alarm turns a closure that runs on
    into a failure."""

    def stalled(signum, frame):
        raise AssertionError("_lambda_forms did not return")

    add_type("A4", A4_MATRIX)
    realization = BInfRealization(cartan_matrix("A4"), block)
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match=r"forms leave positions 1\.\.10$"):
            _lambda_forms(realization)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
