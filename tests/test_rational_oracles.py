"""The integer character oracles against the rational ones they replaced.

The rational versions solve C x = nu by Gaussian elimination over the
rationals for every inner product, enumerate the dominant weights inside the
box spanned by lam - w0(lam), and expand orbits over the whole Weyl group.
They are kept here only as the oracle for `weyl_dim` and
`freudenthal_character`.
"""

from fractions import Fraction
from itertools import product

import pytest

from demazure_crystals import (
    SUPPORTED_TYPES,
    WeightPolynomial,
    apply_word,
    cartan_matrix,
    enumerate_weyl,
    freudenthal_character,
    reflect,
    weyl_dim,
)

# largest coordinate per type: 195 dominant weights in all
GRID_BOUNDS = {"A1": 8, "A1xA1": 4, "A2": 5, "A3": 3, "B2": 5, "G2": 4}


def _solve_rational(matrix, rhs):
    """Solve M x = rhs exactly by Gaussian elimination over the rationals."""
    n = len(rhs)
    aug = [
        [Fraction(matrix[r][c]) for c in range(n)] + [Fraction(rhs[r])]
        for r in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def _inner(data, mu, nu):
    """W-invariant form, normalized by the symmetrizer, through the solver."""
    y = _solve_rational(data.matrix, nu)
    return sum(
        (y[j] * data.symmetrizer[j] * mu[j] for j in range(data.rank)), Fraction(0)
    )


def _coroot_pairing(data, mu, root):
    """<mu, alpha^vee> = 2 (mu, alpha) / (alpha, alpha) for a root in root coords."""
    d = data.symmetrizer
    num = sum(root[j] * d[j] * mu[j] for j in range(data.rank))
    den = sum(
        root[i] * root[j] * d[i] * data.matrix[i][j]
        for i in range(data.rank)
        for j in range(data.rank)
    )
    return Fraction(2 * num, den)


def rational_weyl_dim(data, lam):
    top = tuple(x + r for x, r in zip(lam, data.rho))
    value = Fraction(1)
    for root in data.positive_roots:
        value *= _coroot_pairing(data, top, root) / _coroot_pairing(data, data.rho, root)
    assert value.denominator == 1
    return int(value)


def _dominate(data, mu):
    while True:
        for i in data.colors:
            if mu[i - 1] < 0:
                mu = reflect(data, i, mu)
                break
        else:
            return mu


def rational_freudenthal_character(data, lam):
    group = enumerate_weyl(data)
    rank, rho = data.rank, data.rho
    span = _solve_rational(data.matrix, tuple(a - b for a, b in zip(lam, apply_word(data, group.longest, lam))))
    assert all(x.denominator == 1 and x >= 0 for x in span)
    candidates = []
    for partial in product(*(range(int(x) + 1) for x in span)):
        mu = tuple(lam[r] - sum(data.matrix[r][c] * partial[c] for c in range(rank)) for r in range(rank))
        if data.is_dominant(mu):
            candidates.append((sum(partial), partial, mu))
    candidates.sort()

    def shifted(mu):
        return tuple(m + r for m, r in zip(mu, rho))

    top_norm = _inner(data, shifted(lam), shifted(lam))
    mult = {}
    for height, rc, mu in candidates:
        if height == 0:
            mult[mu] = 1
            continue
        total = Fraction(0)
        for root in data.positive_roots:
            alpha = data.fund_coords(root)
            k = 1
            while all(rc[j] - k * root[j] >= 0 for j in range(rank)):
                nu = tuple(m + k * a for m, a in zip(mu, alpha))
                total += mult.get(_dominate(data, nu), 0) * _inner(data, nu, alpha)
                k += 1
        value = 2 * total / (top_norm - _inner(data, shifted(mu), shifted(mu)))
        assert value.denominator == 1 and value >= 0
        mult[mu] = int(value)
    return WeightPolynomial({apply_word(data, w, mu): m for mu, m in mult.items() for w in group})


def _grid(type_label):
    rank = cartan_matrix(type_label).rank
    return list(product(range(GRID_BOUNDS[type_label] + 1), repeat=rank))


@pytest.mark.parametrize("type_label", SUPPORTED_TYPES)
def test_integer_oracles_match_the_rational_ones(type_label):
    data = cartan_matrix(type_label)
    for lam in _grid(type_label):
        dim = weyl_dim(data, lam)
        assert type(dim) is int
        assert dim == rational_weyl_dim(data, lam)
        char = freudenthal_character(data, lam)
        assert all(type(c) is int for _, c in char.items())
        assert char == rational_freudenthal_character(data, lam), (type_label, lam)
