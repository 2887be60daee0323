"""Exact root-system and Weyl-group data for the supported finite types.

Weights are integer tuples in the fundamental-weight basis: coords[i-1] is
the pairing <mu, h_i> with the i-th simple coroot.  The j-th simple root is
the j-th column of the Cartan matrix in this basis, so reflections and
coroot pairings are direct component reads.  All arithmetic is exact;
rationals appear only when converting to root-basis coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

Weight = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

_CARTAN_MATRICES: dict[str, Matrix] = {
    "A1": ((2,),),
    "A1xA1": ((2, 0), (0, 2)),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "G2": ((2, -1), (-3, 2)),
}

SUPPORTED_TYPES = ("A1", "A1xA1", "A2", "A3", "B2", "G2")


def w_add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def w_sub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def w_scale(n: int, a: Weight) -> Weight:
    return tuple(n * x for x in a)


def _solve_rational(matrix: Matrix, rhs) -> tuple[Fraction, ...]:
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


def _det(mat: list[list[Fraction]]) -> Fraction:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = Fraction(0)
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in mat[1:]]
        total += (-1) ** c * mat[0][c] * _det(minor)
    return total


@dataclass(frozen=True)
class CartanData:
    """Cartan matrix together with derived exact root data.

    positive_roots are stored in root-basis coordinates (multiplicities of
    the simple roots); symmetrizer holds the positive integers d_i making
    diag(d) * matrix symmetric.
    """

    type_label: str
    rank: int
    matrix: Matrix
    positive_roots: tuple[tuple[int, ...], ...]
    rho: Weight
    symmetrizer: tuple[int, ...]

    @property
    def colors(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    def alpha(self, i: int) -> Weight:
        """Simple root alpha_i in fundamental-weight coordinates."""
        return tuple(self.matrix[k][i - 1] for k in range(self.rank))

    def fund_coords(self, root_coords) -> Weight:
        """Fundamental-weight coordinates of sum_j x_j alpha_j."""
        return tuple(
            sum(self.matrix[r][j] * root_coords[j] for j in range(self.rank))
            for r in range(self.rank)
        )

    def root_coords(self, mu: Weight) -> tuple[Fraction, ...]:
        """Exact root-basis coordinates of mu (solves C x = mu)."""
        return _solve_rational(self.matrix, mu)

    def inner(self, mu: Weight, nu: Weight) -> Fraction:
        """W-invariant symmetric bilinear form, normalized by the symmetrizer."""
        y = self.root_coords(nu)
        return sum(
            (y[j] * self.symmetrizer[j] * mu[j] for j in range(self.rank)),
            Fraction(0),
        )

    def coroot_pairing(self, mu: Weight, root: tuple[int, ...]) -> Fraction:
        """<mu, alpha^vee> = 2 (mu, alpha) / (alpha, alpha) for a root in root coords."""
        d = self.symmetrizer
        num = sum(root[j] * d[j] * mu[j] for j in range(self.rank))
        den = sum(
            root[i] * root[j] * d[i] * self.matrix[i][j]
            for i in range(self.rank)
            for j in range(self.rank)
        )
        return Fraction(2 * num, den)

    def is_dominant(self, mu: Weight) -> bool:
        return all(x >= 0 for x in mu)


def _symmetrizer(matrix: Matrix) -> tuple[int, ...]:
    rank = len(matrix)
    d: list[Fraction | None] = [None] * rank
    for start in range(rank):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            u = stack.pop()
            for v in range(rank):
                if u != v and matrix[u][v] != 0 and d[v] is None:
                    d[v] = d[u] * Fraction(matrix[u][v], matrix[v][u])
                    stack.append(v)
    denom_lcm = 1
    for x in d:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in d]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def _positive_roots(matrix: Matrix) -> tuple[tuple[int, ...], ...]:
    """Closure of the simple roots under simple reflections, positive part."""
    rank = len(matrix)
    simple = [tuple(1 if j == k else 0 for j in range(rank)) for k in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for x in frontier:
            fund = tuple(
                sum(matrix[r][c] * x[c] for c in range(rank)) for r in range(rank)
            )
            for i in range(rank):
                y = list(x)
                y[i] -= fund[i]
                y = tuple(y)
                if y not in roots and all(v >= 0 for v in y) and any(v > 0 for v in y):
                    roots.add(y)
                    fresh.append(y)
        frontier = fresh
    return tuple(sorted(roots))


def _validate(data: CartanData) -> None:
    c = data.matrix
    n = data.rank
    for i in range(n):
        if c[i][i] != 2:
            raise ValueError("diagonal Cartan entries must equal 2")
        for j in range(n):
            if i != j and c[i][j] > 0:
                raise ValueError("off-diagonal Cartan entries must be <= 0")
            if (c[i][j] == 0) != (c[j][i] == 0):
                raise ValueError("Cartan zero pattern must be symmetric")
    sym = [
        [Fraction(data.symmetrizer[i] * c[i][j]) for j in range(n)] for i in range(n)
    ]
    for i in range(n):
        for j in range(n):
            if sym[i][j] != sym[j][i]:
                raise ValueError("symmetrized Cartan matrix is not symmetric")
    for k in range(1, n + 1):
        minor = [row[:k] for row in sym[:k]]
        if _det(minor) <= 0:
            raise ValueError("symmetrized Cartan matrix is not positive definite")


@lru_cache(maxsize=None)
def cartan_matrix(type_label: str) -> CartanData:
    """Full Cartan record for one of the supported finite types."""
    if type_label not in _CARTAN_MATRICES:
        supported = ", ".join(SUPPORTED_TYPES)
        raise ValueError(f"unsupported type {type_label!r}; supported: {supported}")
    matrix = _CARTAN_MATRICES[type_label]
    rank = len(matrix)
    data = CartanData(
        type_label=type_label,
        rank=rank,
        matrix=matrix,
        positive_roots=_positive_roots(matrix),
        rho=(1,) * rank,
        symmetrizer=_symmetrizer(matrix),
    )
    _validate(data)
    return data


def reflect(data: CartanData, i: int, mu: Weight) -> Weight:
    """Simple reflection s_i(mu) = mu - <mu, h_i> alpha_i."""
    c = mu[i - 1]
    alpha = data.alpha(i)
    return tuple(m - c * a for m, a in zip(mu, alpha))


def apply_word(data: CartanData, word, mu: Weight) -> Weight:
    """Apply the reflections of a word, first letter first."""
    for i in word:
        mu = reflect(data, i, mu)
    return mu


def _reflection_matrix(data: CartanData, i: int) -> Matrix:
    n = data.rank
    rows = []
    for k in range(n):
        row = [1 if k == j else 0 for j in range(n)]
        row[i - 1] -= data.matrix[k][i - 1]
        rows.append(tuple(row))
    return tuple(rows)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
        for r in range(n)
    )


@dataclass(frozen=True)
class WeylElement:
    """Group element canonicalized by its integer action on fundamental coords.

    canonical_word stores one reduced word in application order: the first
    letter acts first, the last letter acts last.
    """

    matrix: Matrix
    length: int = field(compare=False)
    canonical_word: tuple[int, ...] = field(compare=False)

    def apply(self, mu: Weight) -> Weight:
        return tuple(sum(row[j] * mu[j] for j in range(len(mu))) for row in self.matrix)


class WeylGroup:
    """The full Weyl group, generated by breadth-first closure."""

    def __init__(self, data: CartanData):
        self.cartan = data
        self._refl = {i: _reflection_matrix(data, i) for i in data.colors}
        identity = tuple(
            tuple(1 if r == c else 0 for c in range(data.rank))
            for r in range(data.rank)
        )
        seen: dict[Matrix, WeylElement] = {
            identity: WeylElement(identity, 0, ())
        }
        frontier = [seen[identity]]
        while frontier:
            fresh = []
            for w in frontier:
                for i in data.colors:
                    m2 = _mat_mul(self._refl[i], w.matrix)
                    if m2 not in seen:
                        elt = WeylElement(m2, w.length + 1, w.canonical_word + (i,))
                        seen[m2] = elt
                        fresh.append(elt)
            frontier = fresh
        self._by_matrix = seen
        self.elements: tuple[WeylElement, ...] = tuple(
            sorted(seen.values(), key=lambda w: (w.length, w.canonical_word))
        )
        self.identity = seen[identity]
        self._rw_cache: dict[Matrix, frozenset[tuple[int, ...]]] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def longest(self) -> WeylElement:
        top = max(w.length for w in self.elements)
        candidates = [w for w in self.elements if w.length == top]
        if len(candidates) != 1:
            raise RuntimeError("longest element is not unique; not a finite Weyl group")
        return candidates[0]

    def element_of_word(self, word) -> WeylElement:
        m = self.identity.matrix
        for i in word:
            m = _mat_mul(self._refl[i], m)
        return self._by_matrix[m]

    def is_reduced(self, word) -> bool:
        for i in word:
            if i not in self._refl:
                raise ValueError(f"letter {i} outside the index set")
        return self.element_of_word(word).length == len(word)

    def reduced_words(self, w: WeylElement) -> frozenset[tuple[int, ...]]:
        """All reduced words of w, letters in application order."""
        cached = self._rw_cache.get(w.matrix)
        if cached is not None:
            return cached
        if w.length == 0:
            words = frozenset({()})
        else:
            out = set()
            for i in self.cartan.colors:
                v = self._by_matrix[_mat_mul(self._refl[i], w.matrix)]
                if v.length == w.length - 1:
                    out.update(word + (i,) for word in self.reduced_words(v))
            words = frozenset(out)
        self._rw_cache[w.matrix] = words
        return words


@lru_cache(maxsize=None)
def enumerate_weyl(data: CartanData) -> WeylGroup:
    return WeylGroup(data)
