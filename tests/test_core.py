"""Crystal axioms on the elementary and tensor constructions, and formal sums."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from demazure_crystals import (
    NEG_INF,
    ElementaryCrystal,
    FormalSum,
    TensorCrystal,
    cartan_matrix,
    w_sub,
)


@given(st.integers(min_value=-100, max_value=100))
def test_neg_inf_is_absorbing_and_below_every_integer(n):
    assert NEG_INF + n == NEG_INF
    assert NEG_INF < n
    assert max(NEG_INF, n) == n


def test_neg_inf_max_total():
    assert max(NEG_INF, NEG_INF) == NEG_INF


def test_elementary_defining_relations():
    data = cartan_matrix("A2")
    crystal = ElementaryCrystal(data, 1)
    b0 = 0
    assert crystal.f(1, b0) == -1
    assert crystal.e(1, -1) == b0
    assert crystal.phi(1, -2) == -2
    assert crystal.eps(1, -2) == 2
    assert crystal.eps(2, b0) == NEG_INF
    assert crystal.phi(2, b0) == NEG_INF
    assert crystal.f(2, b0) is None
    assert crystal.e(2, b0) is None
    assert crystal.wt(3) == (6, -3)  # 3 * alpha_1


def test_elementary_rejects_bad_color():
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"color {i} outside the index set of A2"):
            ElementaryCrystal(cartan_matrix("A2"), i)


def _pair(data, color_a, color_b):
    return TensorCrystal(
        data, (ElementaryCrystal(data, color_a), ElementaryCrystal(data, color_b))
    )


@pytest.mark.parametrize("word", [(0,), (0, 0, 5)], ids=["short", "long"])
@pytest.mark.parametrize("op", ["f", "e", "eps", "phi", "wt"])
def test_tensor_rejects_a_word_of_the_wrong_arity(op, word):
    crystal = _pair(cartan_matrix("A2"), 1, 1)
    args = (word,) if op == "wt" else (1, word)
    with pytest.raises(ValueError, match=f"^word has {len(word)} parts for 2 factors$"):
        getattr(crystal, op)(*args)


def test_tensor_lowering_rule():
    data = cartan_matrix("A2")
    crystal = _pair(data, 1, 1)
    # phi(left)=0 is not > eps(right)=0: act right
    assert crystal.f(1, (0, 0)) == (0, -1)
    # phi(left)=1 > eps(right)=0: act left
    assert crystal.f(1, (1, 0)) == (0, 0)


def test_tensor_lowering_prefers_left_over_other_color_factor():
    # eps of a factor of another color is -inf, so the left factor always acts
    data = cartan_matrix("A2")
    crystal = _pair(data, 1, 2)
    word = (2, 0)
    assert crystal.f(1, word) == (1, 0)


def test_tensor_raising_rule_and_statistics():
    data = cartan_matrix("A2")
    crystal = _pair(data, 1, 1)
    word = (0, -1)
    # phi(left)=0 >= eps(right)=1 is false: act right
    assert crystal.e(1, word) == (0, 0)
    assert crystal.eps(1, word) == 1
    assert crystal.phi(1, (1, 0)) == 1


LEVELS = (-2, -1, 0, 1)


def _sample_words(data):
    for colors in product(data.colors, repeat=2):
        for levels in product(LEVELS, repeat=2):
            yield (
                _pair(data, *colors),
                levels,
            )


@pytest.mark.parametrize("type_label", ["A2", "B2"])
def test_inverse_property_on_tensor_samples(type_label):
    data = cartan_matrix(type_label)
    for crystal, word in _sample_words(data):
        for i in data.colors:
            down = crystal.f(i, word)
            if down is not None:
                assert crystal.e(i, down) == word
            up = crystal.e(i, word)
            if up is not None:
                assert crystal.f(i, up) == word


@pytest.mark.parametrize("type_label", ["A2", "B2"])
def test_weight_shift_on_tensor_samples(type_label):
    data = cartan_matrix(type_label)
    for crystal, word in _sample_words(data):
        for i in data.colors:
            down = crystal.f(i, word)
            if down is not None:
                assert crystal.wt(down) == w_sub(crystal.wt(word), data.alpha(i))


@pytest.mark.parametrize("type_label", ["A2", "B2"])
def test_phi_equals_eps_plus_weight_on_tensor_samples(type_label):
    data = cartan_matrix(type_label)
    for crystal, word in _sample_words(data):
        for i in data.colors:
            eps = crystal.eps(i, word)
            phi = crystal.phi(i, word)
            if eps != NEG_INF and phi != NEG_INF:
                assert phi == eps + crystal.wt(word)[i - 1]
            else:
                assert eps == NEG_INF and phi == NEG_INF


@pytest.mark.parametrize("type_label", ["A2", "B2", "G2"])
def test_tensor_associativity_on_triples(type_label):
    """Left-nested and right-nested groupings act identically under the
    canonical regrouping bijection."""
    data = cartan_matrix(type_label)
    for colors in product(data.colors, repeat=3):
        singles = tuple(ElementaryCrystal(data, c) for c in colors)
        flat = TensorCrystal(data, singles)
        left = TensorCrystal(data, (TensorCrystal(data, singles[:2]), singles[2]))
        right = TensorCrystal(data, (singles[0], TensorCrystal(data, singles[1:])))

        def to_left(word):
            a, b, c = word
            return ((a, b), c)

        def to_right(word):
            a, b, c = word
            return (a, (b, c))

        def from_left(word):
            if word is None:
                return None
            (a, b), c = word
            return (a, b, c)

        def from_right(word):
            if word is None:
                return None
            a, (b, c) = word
            return (a, b, c)

        for word in product(LEVELS, repeat=3):
            for i in data.colors:
                expected_f = flat.f(i, word)
                expected_e = flat.e(i, word)
                assert from_left(left.f(i, to_left(word))) == expected_f
                assert from_right(right.f(i, to_right(word))) == expected_f
                assert from_left(left.e(i, to_left(word))) == expected_e
                assert from_right(right.e(i, to_right(word))) == expected_e
                assert left.eps(i, to_left(word)) == flat.eps(i, word)
                assert right.eps(i, to_right(word)) == flat.eps(i, word)
                assert left.phi(i, to_left(word)) == flat.phi(i, word)
                assert right.phi(i, to_right(word)) == flat.phi(i, word)
            assert left.wt(to_left(word)) == flat.wt(word)
            assert right.wt(to_right(word)) == flat.wt(word)


RULE_LEVELS = range(-3, 4)


@pytest.mark.parametrize("type_label", ["A2", "B2", "G2"])
@pytest.mark.parametrize("arity", [2, 3])
def test_lazy_tensor_rule_matches_the_eager_one(type_label, arity, eager_tensor):
    """f and e read only phi of the proper prefixes and eps of the factors
    the scan passes; the eager rule reads every statistic of every factor.
    Every color pattern, every word of levels -3..3, every color."""
    data = cartan_matrix(type_label)
    for colors in product(data.colors, repeat=arity):
        crystal = TensorCrystal(data, [ElementaryCrystal(data, c) for c in colors])
        for word in product(RULE_LEVELS, repeat=arity):
            for i in data.colors:
                assert crystal.f(i, word) == eager_tensor(crystal, i, word, True)
                assert crystal.e(i, word) == eager_tensor(crystal, i, word, False)


@pytest.mark.parametrize("type_label", ["A2", "B2", "G2"])
def test_lazy_tensor_rule_matches_the_eager_one_on_nested_products(type_label, eager_tensor):
    """A factor that is itself a product answers eps, phi and wt by the
    tensor rule, so the lazy reads go through a second level."""
    data = cartan_matrix(type_label)
    for colors in product(data.colors, repeat=3):
        singles = tuple(ElementaryCrystal(data, c) for c in colors)
        left = TensorCrystal(data, (TensorCrystal(data, singles[:2]), singles[2]))
        right = TensorCrystal(data, (singles[0], TensorCrystal(data, singles[1:])))
        for a, b, c in product(RULE_LEVELS, repeat=3):
            for crystal, word in ((left, ((a, b), c)), (right, (a, (b, c)))):
                for i in data.colors:
                    assert crystal.f(i, word) == eager_tensor(crystal, i, word, True)
                    assert crystal.e(i, word) == eager_tensor(crystal, i, word, False)


def test_formal_sum_basics():
    a, b = "a", "b"
    s = FormalSum.basis(a) + FormalSum.basis(b) + FormalSum.basis(a)
    assert s.coefficient(a) == 2
    assert s.coefficient(b) == 1
    assert (s - s) == FormalSum.zero()
    assert not (s - s)
    assert (-s).coefficient(a) == -2
    assert (3 * FormalSum.basis(a)).coefficient(a) == 3
    assert 0 * s == FormalSum.zero()
    assert s.support() == {a, b}
    assert not s.all_coefficients_one()
    assert FormalSum.from_elements([a, b]).all_coefficients_one()


@given(st.dictionaries(st.integers(0, 5), st.integers(-4, 4), max_size=5))
def test_formal_sum_cancellation(coeffs):
    s = FormalSum(coeffs)
    assert all(v != 0 for _, v in s.items())
    assert s + (-s) == FormalSum.zero()
