"""B(lambda) membership by Nakashima's linear inequalities.

The forms are checked against the eps_star bound they replace, against
weyl_dim with no crystal at all, on every reduced word of w0, on the blocks
they reject, and by the work that generation no longer does.
"""

import signal
from collections import Counter
from operator import mul

import pytest
from hypothesis import given, strategies as st

from demazure_crystals import (
    GRID_TYPES,
    BInfRealization,
    BLambdaCrystal,
    FormalSum,
    b_inf,
    b_lambda,
    cartan_matrix,
    char_map,
    clear_caches,
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


def _dot(form, coords) -> int:
    return sum(map(mul, form, coords))


def _eps_star_member(realization, lam, base) -> bool:
    """The membership bound the forms replace."""
    return all(realization.eps_star(i, base) <= lam[i - 1] for i in realization.cartan.colors)


def _seed(realization, i):
    """lam_i - x_k - sum_{j<k} a_{i,i_j} x_j without lam_i, k the first position of color i."""
    block, row = realization.block, realization.cartan.matrix[i - 1]
    k = block.index(i)
    return tuple(-row[c - 1] for c in block[:k]) + (-1,) + (0,) * (len(block) - k - 1)


def _w0_words():
    for type_label in TYPES:
        group = enumerate_weyl(cartan_matrix(type_label))
        for word in sorted(group.reduced_words(group.longest)):
            yield type_label, word


def test_default_blocks_give_the_expected_inequalities():
    """A2: x1 <= l1, x2 - x1 <= l2, x3 <= l2; A3 and G2 likewise, form by form."""
    def forms(type_label):
        return {(i, form) for i, form in b_inf(type_label).lambda_forms}

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
    assert realization._close_forms([(1, -1, 0)]) == (both, False)
    assert realization._close_forms([(0, 0, -1)]) == (both, False)
    assert realization._close_forms([(-1, 0, 0)]) == ({(-1, 0, 0)}, False)  # 1- is missing
    # x2 - x3 reaches x4 - x5, which is cut off to zero
    assert realization._close_forms([(0, 1, -1)]) == ({(0, 1, -1), (0, 0, 0), (1, 0, 0)}, True)


def test_forms_are_built_once_and_dropped_with_the_caches():
    clear_caches()
    realization = b_inf("B2")
    assert "lambda_forms" not in vars(realization)
    forms = realization.lambda_forms
    assert realization.lambda_forms is forms
    clear_caches()
    assert "lambda_forms" not in vars(b_inf("B2"))


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
    by_color = {i: [form for c, form in realization.lambda_forms if c == i] for i in word}
    for b in realization.generate(6 if type_label in ("A3", "G2") else 8):
        for i, forms in by_color.items():
            assert realization.eps_star(i, b) == max(_dot(form, b) for form in forms)


def test_exactly_two_w0_words_are_rejected():
    rejected = []
    for type_label, word in _w0_words():
        try:
            BInfRealization(cartan_matrix(type_label), word).lambda_forms
        except ValueError:
            rejected.append((type_label, word))
    assert rejected == REJECTED


@pytest.mark.parametrize("type_label,word", REJECTED)
def test_cut_off_forms_of_a_rejected_word_miss_eps_star(type_label, word):
    """Forms cut back to positions 1..len(block) describe eps_star wrongly there."""
    realization = BInfRealization(cartan_matrix(type_label), word)
    misses, left = 0, False
    for i in realization.cartan.colors:
        forms, reached = realization._close_forms([_seed(realization, i)])
        left = left or reached
        for b in realization.generate(5):
            misses += realization.eps_star(i, b) != max(-_dot(form, b) for form in forms)
    assert left and misses > 0


@pytest.mark.parametrize(
    "type_label,block",
    REJECTED + [("A2", (1, 1, 2)), ("A2", (1, 1, 2, 1)), ("A2", (1, 2, 2, 2, 1, 2))],
)
def test_an_unsupported_block_fails_at_construction(type_label, block):
    realization = BInfRealization(cartan_matrix(type_label), block)
    lam = (1,) * realization.cartan.rank
    with pytest.raises(ValueError, match=rf"^block \({', '.join(map(str, block))}\)"):
        BLambdaCrystal(realization, lam)


def test_a_block_that_is_no_w0_word_can_keep_its_forms_and_be_wrong():
    """A2 (1, 1, 2, 1): the closure stays on positions 1..4, yet misses
    eps_star, so blocks are limited to reduced words of w0."""
    realization = BInfRealization(cartan_matrix("A2"), (1, 1, 2, 1))
    forms = {i: realization._close_forms([_seed(realization, i)]) for i in (1, 2)}
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
    """No crystal: the cone forms (the closure of every x_k, cut back to the
    block) and the lambda forms cut out weyl_dim points."""
    realization = BInfRealization(cartan_matrix(type_label))
    n = len(realization.block)
    cone, _ = realization._close_forms([tuple(int(j == k) for j in range(n)) for k in range(n)])
    inequalities = [(0, form) for form in cone]
    inequalities += [(lam[i - 1], tuple(-c for c in form)) for i, form in realization.lambda_forms]
    assert _count_lattice_points(n, inequalities) == weyl_dim(realization.cartan, lam)


@pytest.mark.parametrize(
    "type_label, matrix, block",
    [
        ("B3", ((2, -1, 0), (-1, 2, -1), (0, -2, 2)), (1, 2, 1, 3, 2, 1, 3, 2, 3)),
        ("C3", ((2, -1, 0), (-1, 2, -2), (0, -1, 2)), (1, 2, 1, 3, 2, 1, 3, 2, 3)),
        (
            "A4",
            ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
            (1, 2, 1, 3, 2, 1, 4, 3, 2, 1),
        ),
    ],
    ids=["B3", "C3", "A4"],
)
def test_a_new_type_is_one_matrix(add_type, type_label, matrix, block):
    """With only its matrix in the table, a rank-3 or rank-4 type gets its
    default block, its lambda forms and a B(rho) that matches both oracles."""
    add_type(type_label, matrix)
    data = cartan_matrix(type_label)
    assert b_inf(type_label).block == block
    assert b_inf(type_label).lambda_forms
    crystal = b_lambda(type_label, data.rho)
    members = crystal.generate()
    assert len(members) == weyl_dim(data, data.rho) == 2 ** len(data.positive_roots)
    assert char_map(crystal, FormalSum.from_elements(members)) == freudenthal_character(
        data, data.rho
    )


@pytest.mark.parametrize("block", [(1, 2, 3, 2, 4, 3, 2, 1, 2, 3), (1, 2, 3, 4, 2, 3, 2, 1, 2, 3)])
def test_forms_that_leave_the_block_are_rejected_at_the_first_one(add_type, block):
    """Both are reduced words of A4's w0 whose forms leave positions 1..10,
    and closing them cut back to the block never ends, so lambda_forms stops
    at the first form that leaves; the alarm turns a closure that runs on
    into a failure."""

    def stalled(signum, frame):
        raise AssertionError("lambda_forms did not return")

    add_type("A4", ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)))
    realization = BInfRealization(cartan_matrix("A4"), block)
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match=r"forms leave positions 1\.\.10$"):
            realization.lambda_forms
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
