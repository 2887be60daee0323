"""Root data, reflections, Weyl enumeration, reduced words."""

import re
import signal
from functools import partial
from itertools import product

import pytest
from hypothesis import given, strategies as st

from demazure_crystals import (
    GRID_TYPES,
    SUPPORTED_TYPES,
    apply_word,
    cartan_matrix,
    enumerate_weyl,
    reflect,
)

WEYL_ORDERS = {"A1": 2, "A1xA1": 4, "A2": 6, "B2": 8, "G2": 12, "A3": 24}
POSITIVE_ROOT_COUNTS = {"A1": 1, "A1xA1": 2, "A2": 3, "B2": 4, "G2": 6, "A3": 6}


def test_defining_matrices():
    assert cartan_matrix("A1").matrix == ((2,),)
    assert cartan_matrix("A2").matrix == ((2, -1), (-1, 2))
    assert cartan_matrix("B2").matrix == ((2, -1), (-2, 2))
    assert cartan_matrix("G2").matrix == ((2, -1), (-3, 2))


def test_unsupported_type_rejected():
    with pytest.raises(ValueError):
        cartan_matrix("E8")


def test_grid_types_are_supported():
    assert set(GRID_TYPES) <= set(SUPPORTED_TYPES)


@pytest.mark.parametrize(
    "matrix, message",
    [
        (((2, -2), (-2, 2)), "not positive definite"),  # affine: infinitely many roots
        (((2, -3), (-3, 2)), "not positive definite"),  # hyperbolic
        (((2, -1), (0, 2)), "zero pattern must be symmetric"),  # symmetrizer divides by 0
        (((2, -1, -1), (-2, 2, -1), (-1, -1, 2)), "is not symmetric"),  # no symmetrizer
    ],
    ids=["affine", "hyperbolic", "zero-pattern", "unsymmetrizable"],
)
def test_cartan_matrix_rejects_a_matrix_before_deriving_from_it(add_type, matrix, message):
    """Root data is derived only from a matrix of finite type; the alarm
    turns an endless root closure into a failure."""

    def stalled(signum, frame):
        raise AssertionError("cartan_matrix did not return")

    add_type("X", matrix)
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match=message):
            cartan_matrix("X")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_symmetrizers():
    assert cartan_matrix("A2").symmetrizer == (1, 1)
    assert cartan_matrix("B2").symmetrizer == (2, 1)
    assert cartan_matrix("G2").symmetrizer == (3, 1)
    assert cartan_matrix("A3").symmetrizer == (1, 1, 1)


@pytest.mark.parametrize("type_label", SUPPORTED_TYPES)
def test_rho_pairs_to_one(type_label):
    data = cartan_matrix(type_label)
    assert all(data.rho[i - 1] == 1 for i in data.colors)


@pytest.mark.parametrize("type_label", SUPPORTED_TYPES)
def test_positive_root_counts(type_label):
    assert len(cartan_matrix(type_label).positive_roots) == POSITIVE_ROOT_COUNTS[type_label]


@pytest.mark.parametrize("type_label", SUPPORTED_TYPES)
def test_simple_roots_have_integral_root_coords(type_label):
    # roots are integer root-coordinate tuples; their images in the weight
    # basis are distinct, nonzero, and with their negatives closed under W
    data = cartan_matrix(type_label)
    positive = {data.fund_coords(root) for root in data.positive_roots}
    negative = {tuple(-x for x in beta) for beta in positive}
    assert len(positive) == len(data.positive_roots)
    assert (0,) * data.rank not in positive
    assert not positive & negative
    for i in data.colors:
        simple = tuple(int(j == i) for j in data.colors)
        assert simple in data.positive_roots
        assert data.fund_coords(simple) == data.alpha(i)
        for beta in positive | negative:
            assert reflect(data, i, beta) in positive | negative


def test_reflect_fundamental_weights_a2():
    data = cartan_matrix("A2")
    assert reflect(data, 1, (1, 0)) == (-1, 1)
    assert reflect(data, 1, (0, 1)) == (0, 1)


def test_reflect_word_composition_a2():
    # three reflections composed by hand: s1 then s2 then s1 on (1,1)
    data = cartan_matrix("A2")
    assert apply_word(data, (1, 2, 1), (1, 1)) == (-1, -1)


@given(
    st.sampled_from(SUPPORTED_TYPES),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
)
def test_reflect_is_an_involution(type_label, coords):
    data = cartan_matrix(type_label)
    mu = tuple(coords[: data.rank])
    for i in data.colors:
        assert reflect(data, i, reflect(data, i, mu)) == mu


@pytest.mark.parametrize("type_label", SUPPORTED_TYPES)
def test_reflect_rejects_a_color_or_a_weight_outside_the_type(type_label):
    data = cartan_matrix(type_label)
    w0 = enumerate_weyl(data).longest
    for i in (0, data.rank + 1):
        with pytest.raises(ValueError, match=f"color {i} outside the index set"):
            reflect(data, i, data.rho)
        with pytest.raises(ValueError, match=f"color {i} outside the index set"):
            apply_word(data, (1, i), data.rho)
    for mu in (data.rho[1:], data.rho + (1,)):
        for act in (partial(reflect, data, 1), partial(apply_word, data, (1,)), w0.apply):
            with pytest.raises(ValueError, match=f"does not have rank {data.rank}"):
                act(mu)


@pytest.mark.parametrize("type_label", SUPPORTED_TYPES)
def test_weyl_group_orders(type_label):
    assert len(enumerate_weyl(cartan_matrix(type_label))) == WEYL_ORDERS[type_label]


def _inversion_count(data, w):
    """Independent length oracle: positive roots sent to negative roots."""
    positive = {data.fund_coords(beta) for beta in data.positive_roots}
    return sum(
        w.apply(data.fund_coords(root)) not in positive for root in data.positive_roots
    )


@pytest.mark.parametrize("type_label", SUPPORTED_TYPES)
def test_length_equals_inversion_count(type_label):
    data = cartan_matrix(type_label)
    for w in enumerate_weyl(data):
        assert w.length == _inversion_count(data, w)


@pytest.mark.parametrize("type_label", SUPPORTED_TYPES)
def test_length_of_inverse(type_label):
    group = enumerate_weyl(cartan_matrix(type_label))
    for w in group:
        assert group.element_of_word(tuple(reversed(w.canonical_word))).length == w.length


def test_reduced_words_base_cases():
    group = enumerate_weyl(cartan_matrix("A2"))
    assert group.reduced_words(group.identity) == {()}
    assert group.reduced_words(group.element_of_word((1,))) == {(1,)}
    assert group.reduced_words(group.longest) == {(1, 2, 1), (2, 1, 2)}


@pytest.mark.parametrize("word", [(1, 2, 1), (2,), (1, 2)])
def test_reduced_words_rejects_an_element_of_another_type(word):
    """A foreign element raises before the cache is read or written, so the
    group's own longest element keeps its reduced words."""
    b2 = enumerate_weyl(cartan_matrix("B2"))
    foreign = enumerate_weyl(cartan_matrix("A2")).element_of_word(word)
    message = f"{foreign.canonical_word} is not an element of the Weyl group of B2"
    with pytest.raises(ValueError, match=re.escape(message)):
        b2.reduced_words(foreign)
    assert b2.reduced_words(b2.longest) == {(1, 2, 1, 2), (2, 1, 2, 1)}


@pytest.mark.parametrize("type_label", ["A1xA1", "A2", "B2", "G2"])
def test_reduced_words_match_exhaustive_search(type_label):
    # oracle: enumerate every word of length l(w) and keep those multiplying to w
    data = cartan_matrix(type_label)
    group = enumerate_weyl(data)
    for w in group:
        brute = {
            word
            for word in product(data.colors, repeat=w.length)
            if group.element_of_word(word) == w
        }
        assert group.reduced_words(w) == brute


def test_reduced_word_count_for_longest_a3():
    group = enumerate_weyl(cartan_matrix("A3"))
    assert len(group.reduced_words(group.longest)) == 16


@pytest.mark.parametrize("type_label", SUPPORTED_TYPES)
def test_every_reduced_word_reproduces_the_element(type_label):
    data = cartan_matrix(type_label)
    group = enumerate_weyl(data)
    off_rho = tuple(range(2, data.rank + 2))  # (2, 3, ...): off the rho line from rank 2
    for w in group:
        for word in group.reduced_words(w):
            assert group.element_of_word(word) == w
            for mu in (data.rho, off_rho):
                assert apply_word(data, word, mu) == w.apply(mu)


def test_is_reduced():
    group = enumerate_weyl(cartan_matrix("A2"))
    assert group.is_reduced((1, 2, 1))
    assert not group.is_reduced((1, 1))
    with pytest.raises(ValueError):
        group.is_reduced((7,))


@pytest.mark.parametrize("type_label", SUPPORTED_TYPES)
def test_element_of_word_rejects_letters_outside_the_index_set(type_label):
    data = cartan_matrix(type_label)
    group = enumerate_weyl(data)
    for letter in (0, data.rank + 1):
        message = f"color {letter} outside the index set of {type_label}"
        with pytest.raises(ValueError, match=message):
            group.element_of_word((1, letter))


@pytest.mark.parametrize("type_label", SUPPORTED_TYPES)
def test_longest_element_sends_dominant_to_antidominant(type_label):
    data = cartan_matrix(type_label)
    w0 = enumerate_weyl(data).longest
    image = w0.apply(data.rho)
    assert all(x < 0 for x in image)


def test_cartan_data_is_an_immutable_record_compared_field_by_field():
    data = cartan_matrix("B2")
    twin = type(data)(*data)
    assert twin == data and hash(twin) == hash(data) and twin is not data
    assert data != cartan_matrix("G2")
    assert data._replace(type_label="C2") != data
    with pytest.raises(AttributeError):
        data.rank = 3
    with pytest.raises(AttributeError):
        data.note = "extra"
    assert repr(data).startswith("CartanData(type_label='B2', rank=2, matrix=((2, -1), (-2, 2)),")


def test_weyl_elements_compare_and_hash_by_their_image_of_rho_alone():
    group = enumerate_weyl(cartan_matrix("A2"))
    w = group.longest
    twin = type(w)(w.rho_image, 0, (), None)
    assert twin == w and hash(twin) == hash(w)
    assert {twin: 1}[w] == 1
    assert w != group.identity and w != w.rho_image
    assert repr(w) == "WeylElement(rho_image=(-1, -1), length=3, canonical_word=(1, 2, 1))"


@pytest.mark.parametrize("lam", [(2.0, 0), (1.5, 0), (True, 0), (0, False)])
def test_check_dominant_takes_integer_coordinates_only(lam):
    with pytest.raises(ValueError, match=r"is not a tuple of integers$"):
        cartan_matrix("A2").check_dominant(lam)
