"""Group-ring arithmetic and the crystal-free character oracles."""

import pytest
from hypothesis import given, strategies as st

from demazure_crystals import (
    FormalSum,
    WeightPolynomial,
    algebraic_demazure,
    apply_demazure_word,
    cartan_matrix,
    enumerate_weyl,
    freudenthal_character,
    reflect,
    render_polynomial,
    w_add,
    weyl_dim,
)

DIMENSIONS = [
    ("A1", (0,), 1),
    ("A1", (3,), 4),
    ("A1xA1", (2, 2), 9),
    ("A2", (1, 0), 3),
    ("A2", (1, 1), 8),
    ("A2", (2, 2), 27),
    ("B2", (1, 0), 5),
    ("B2", (0, 1), 4),
    ("B2", (2, 2), 81),
    ("G2", (0, 1), 7),
    ("G2", (1, 0), 14),
    ("G2", (1, 1), 64),
    ("A3", (1, 0, 0), 4),
    ("A3", (0, 1, 0), 6),
    ("A3", (1, 0, 1), 15),
    ("A3", (1, 1, 1), 64),
]


def _mul(f, g):
    """The group-ring product: e^mu * e^nu = e^{mu+nu}."""
    out = {}
    for mu, c in f.items():
        for nu, d in g.items():
            key = w_add(mu, nu)
            out[key] = out.get(key, 0) + c * d
    return WeightPolynomial(out)


def _map_exponents(f, fn):
    """Sum of c e^{fn(mu)} over the terms c e^mu of f."""
    out = {}
    for mu, c in f.items():
        out[fn(mu)] = out.get(fn(mu), 0) + c
    return WeightPolynomial(out)


def _weights(rank):
    return st.tuples(*(st.integers(-3, 3) for _ in range(rank)))


def _polys(rank):
    return st.dictionaries(_weights(rank), st.integers(-3, 3), max_size=5).map(
        WeightPolynomial
    )


@given(_polys(2), _polys(2), _polys(2))
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert _mul(f, g) == _mul(g, f)
    assert _mul(f + g, h) == _mul(f, h) + _mul(g, h)
    assert f - f == WeightPolynomial.zero()


def test_monomial_multiplication_adds_exponents():
    e1 = WeightPolynomial.monomial((1, 0))
    e2 = WeightPolynomial.monomial((0, -2), 3)
    assert _mul(e1, e2) == WeightPolynomial.monomial((1, -2), 3)


def test_arithmetic_keeps_the_polynomial_class():
    f = WeightPolynomial.monomial((1, 0))
    for g in (f + f, f - f, -f, 2 * f, 0 * f, _mul(f, f), WeightPolynomial.zero()):
        assert type(g) is WeightPolynomial
    assert f != FormalSum({(1, 0): 1})
    assert repr(-f) == "WeightPolynomial(-e^{(1,0)})"


def test_algebraic_demazure_frozen_examples():
    data = cartan_matrix("A2")
    omega1 = WeightPolynomial.monomial((1, 0))
    image = algebraic_demazure(data, 1, omega1)
    assert image == WeightPolynomial({(1, 0): 1, (-1, 1): 1})  # e^w1 + e^{w1 - a1}
    # pairing -1 annihilates the monomial
    assert algebraic_demazure(data, 1, WeightPolynomial.monomial((-1, 1))) == (
        WeightPolynomial.zero()
    )
    # pairing -3 produces the negated interior sum
    neg = algebraic_demazure(data, 1, WeightPolynomial.monomial((-3, 0)))
    assert neg == WeightPolynomial({(-1, -1): -1, (1, -2): -1})


@given(_polys(2))
def test_algebraic_demazure_is_idempotent(f):
    data = cartan_matrix("B2")
    for i in data.colors:
        once = algebraic_demazure(data, i, f)
        assert algebraic_demazure(data, i, once) == once


@given(_polys(2))
def test_divided_difference_identity(f):
    """Multiplying back: D_i f * (1 - e^{-alpha_i}) = f - e^{-alpha_i} * s_i f."""
    data = cartan_matrix("G2")
    one = WeightPolynomial.monomial((0, 0))
    for i in data.colors:
        shift = WeightPolynomial.monomial(tuple(-a for a in data.alpha(i)))
        lhs = _mul(algebraic_demazure(data, i, f), one - shift)
        rhs = f - _mul(shift, _map_exponents(f, lambda mu: reflect(data, i, mu)))
        assert lhs == rhs


@pytest.mark.parametrize("type_label,lam,expected", DIMENSIONS)
def test_weyl_dimension_table(type_label, lam, expected):
    assert weyl_dim(cartan_matrix(type_label), lam) == expected


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError, match="is not dominant"):
        weyl_dim(cartan_matrix("A2"), (-1, 0))


@pytest.mark.parametrize("oracle", [weyl_dim, freudenthal_character])
@pytest.mark.parametrize("lam", [(1,), (1, 1, 1)])
def test_oracles_reject_a_weight_of_the_wrong_length(oracle, lam):
    with pytest.raises(ValueError, match="does not have rank 2"):
        oracle(cartan_matrix("A2"), lam)


@pytest.mark.parametrize("mu", [(1,), (1, 1, 1)])
def test_algebraic_demazure_rejects_a_monomial_of_the_wrong_length(mu):
    data = cartan_matrix("A2")
    f = WeightPolynomial({(1, 1): 1, mu: 1})
    for i in data.colors:
        with pytest.raises(ValueError, match="does not have rank 2"):
            algebraic_demazure(data, i, f)
    with pytest.raises(ValueError, match="does not have rank 2"):
        apply_demazure_word(data, (1, 2), f)


def test_algebraic_demazure_rejects_a_color_outside_the_index_set():
    data = cartan_matrix("A2")
    f = WeightPolynomial.monomial((1, 1))
    for i in (0, 3):
        with pytest.raises(ValueError, match=f"color {i} outside the index set"):
            algebraic_demazure(data, i, f)
        with pytest.raises(ValueError, match=f"color {i} outside the index set"):
            apply_demazure_word(data, (1, i), f)


def test_freudenthal_frozen_examples():
    a1 = cartan_matrix("A1")
    assert freudenthal_character(a1, (0,)) == WeightPolynomial.monomial((0,))
    assert freudenthal_character(a1, (2,)) == WeightPolynomial(
        {(2,): 1, (0,): 1, (-2,): 1}
    )
    # adjoint of A2: six extreme weights plus the doubled zero weight
    adjoint = freudenthal_character(cartan_matrix("A2"), (1, 1))
    assert adjoint.coefficient((0, 0)) == 2
    assert adjoint.total() == 8
    assert sorted(c for mu, c in adjoint.items() if mu != (0, 0)) == [1] * 6


def test_freudenthal_interior_multiplicity_g2():
    # the 14-dimensional character: 12 nonzero weights and a doubled zero weight
    char = freudenthal_character(cartan_matrix("G2"), (1, 0))
    assert char.coefficient((0, 0)) == 2
    assert char.total() == 14


@pytest.mark.parametrize(
    "type_label,lam",
    [("A2", (2, 1)), ("B2", (1, 2)), ("G2", (1, 1)), ("A3", (1, 1, 0))],
)
def test_freudenthal_is_weyl_invariant(type_label, lam):
    data = cartan_matrix(type_label)
    char = freudenthal_character(data, lam)
    for i in data.colors:
        assert _map_exponents(char, lambda mu: reflect(data, i, mu)) == char
    assert char.total() == weyl_dim(data, lam)


@pytest.mark.parametrize("type_label,lam", [("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 0))])
def test_demazure_chain_along_longest_word_gives_the_character(type_label, lam):
    data = cartan_matrix(type_label)
    group = enumerate_weyl(data)
    target = freudenthal_character(data, lam)
    for word in group.reduced_words(group.longest):
        start = WeightPolynomial.monomial(lam)
        assert apply_demazure_word(data, word, start) == target


def test_render_polynomial():
    poly = WeightPolynomial({(1, 0): 1, (0, 0): 2, (-1, 0): -1})
    assert render_polynomial(poly) == "e^{(1,0)} + 2*e^{(0,0)} - e^{(-1,0)}"
    assert render_polynomial(WeightPolynomial.zero()) == "0"


def test_inner_form_values():
    data = cartan_matrix("G2")
    # long root alpha_1 has squared length 6, short root alpha_2 has 2
    assert data.root_pairing(data.alpha(1), (1, 0)) == 6
    assert data.root_pairing(data.alpha(2), (0, 1)) == 2
    assert data.root_pairing(data.alpha(1), (0, 1)) == -3
    assert data.root_pairing(data.alpha(2), (1, 0)) == -3
