"""Exact root-system and Weyl-group data for the supported finite types.

Weights are integer tuples in the fundamental-weight basis: coords[i-1] is
the pairing <mu, h_i> with the i-th simple coroot.  The j-th simple root is
the j-th column of the Cartan matrix in this basis, so reflections and
coroot pairings are direct component reads.  All arithmetic is integer,
the symmetrizer's ratios of Cartan entries included.  The invariant form is
never solved for: it is paired against a root given in root coordinates, where
(mu, alpha_j) = d_j mu_j with d the symmetrizer.

A Weyl group element is its canonical word, the least of its reduced words
in lexicographic order.  The group is found through the images w(rho) of the
regular weight rho, which no two elements share: s_i w is one reflect of
that weight, and a word names the element of apply_word(word, rho).  No
matrices.

A type is one entry of _CARTAN_MATRICES, checked before anything is derived
from it.  CartanData owns the input rules every module applies, each with
one ValueError wording: check_color, check_weight and check_dominant.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm

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

SUPPORTED_TYPES = tuple(_CARTAN_MATRICES)


def w_add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def w_sub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def w_scale(n: int, a: Weight) -> Weight:
    return tuple(n * x for x in a)


def _det(mat: list[list[int]]) -> int:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in mat[1:]]
        total += (-1) ** c * mat[0][c] * _det(minor)
    return total


class CartanData(namedtuple("CartanData", "type_label rank matrix positive_roots rho symmetrizer")):
    """Cartan matrix together with derived exact root data, an immutable
    record compared and hashed field by field.

    positive_roots are stored in root-basis coordinates (multiplicities of
    the simple roots); symmetrizer holds the positive integers d_i making
    diag(d) * matrix symmetric.
    """

    __slots__ = ()

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

    def root_pairing(self, mu: Weight, root) -> int:
        """(mu, sum_j root_j alpha_j) = sum_j root_j d_j mu_j, root in root coordinates."""
        return sum(r * d * m for r, d, m in zip(root, self.symmetrizer, mu))

    def is_dominant(self, mu: Weight) -> bool:
        return all(x >= 0 for x in mu)

    def check_color(self, i: int) -> int:
        if type(i) is not int or not 0 < i <= self.rank:  # not isinstance: True is an int
            raise ValueError(f"color {i} outside the index set of {self.type_label}")
        return i

    def check_weight(self, mu) -> Weight:
        mu = tuple(mu)
        if len(mu) != self.rank:
            raise ValueError(f"weight {mu} does not have rank {self.rank}")
        return mu

    def check_dominant(self, lam) -> Weight:
        lam = self.check_weight(lam)
        if any(type(x) is not int for x in lam):
            raise ValueError(f"lambda {lam} is not a tuple of integers")
        if not self.is_dominant(lam):
            raise ValueError(f"lambda {lam} is not dominant")
        return lam


def _symmetrizer(matrix: Matrix) -> tuple[int, ...]:
    """Coprime positive d with diag(d) * matrix symmetric, if one exists: along
    the Dynkin graph d_v = d_u a_uv / a_vu, each a fraction num / den reduced
    by gcd, then all scaled by the lcm of the denominators."""
    rank = len(matrix)
    d: list[tuple[int, int] | None] = [None] * rank
    for start in range(rank):
        if d[start] is not None:
            continue
        d[start] = (1, 1)
        stack = [start]
        while stack:
            u = stack.pop()
            for v in range(rank):
                if u != v and matrix[u][v] != 0 and d[v] is None:
                    num, den = d[u][0] * -matrix[u][v], d[u][1] * -matrix[v][u]
                    g = gcd(num, den)
                    d[v] = (num // g, den // g)
                    stack.append(v)
    scale = lcm(*(den for _, den in d))
    ints = [num * scale // den for num, den in d]
    g = gcd(*ints)
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


def _validate(matrix: Matrix) -> tuple[int, ...]:
    """The symmetrizer of a matrix of finite type, else a ValueError.  The zero
    pattern goes first (_symmetrizer divides by transposed entries), positive
    definiteness before _positive_roots, endless on affine or hyperbolic ones."""
    n = len(matrix)
    for i in range(n):
        if matrix[i][i] != 2:
            raise ValueError("diagonal Cartan entries must equal 2")
        for j in range(n):
            if i != j and matrix[i][j] > 0:
                raise ValueError("off-diagonal Cartan entries must be <= 0")
            if (matrix[i][j] == 0) != (matrix[j][i] == 0):
                raise ValueError("Cartan zero pattern must be symmetric")
    d = _symmetrizer(matrix)
    sym = [[d[i] * matrix[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if sym[i][j] != sym[j][i]:
                raise ValueError("symmetrized Cartan matrix is not symmetric")
    for k in range(1, n + 1):
        minor = [row[:k] for row in sym[:k]]
        if _det(minor) <= 0:
            raise ValueError("symmetrized Cartan matrix is not positive definite")
    return d


@lru_cache(maxsize=None)
def cartan_matrix(type_label: str) -> CartanData:
    """Full Cartan record for one of the supported finite types."""
    if type_label not in _CARTAN_MATRICES:
        supported = ", ".join(SUPPORTED_TYPES)
        raise ValueError(f"unsupported type {type_label!r}; supported: {supported}")
    matrix = _CARTAN_MATRICES[type_label]
    symmetrizer = _validate(matrix)
    return CartanData(
        type_label=type_label,
        rank=len(matrix),
        matrix=matrix,
        positive_roots=_positive_roots(matrix),
        rho=(1,) * len(matrix),
        symmetrizer=symmetrizer,
    )


def reflect(data: CartanData, i: int, mu: Weight) -> Weight:
    """Simple reflection s_i(mu) = mu - <mu, h_i> alpha_i."""
    data.check_color(i)
    data.check_weight(mu)
    c = mu[i - 1]
    return tuple(m - c * row[i - 1] for m, row in zip(mu, data.matrix))


def apply_word(data: CartanData, word, mu: Weight) -> Weight:
    """Apply the reflections of a word, first letter first."""
    for i in word:
        mu = reflect(data, i, mu)
    return mu


class WeylGroup:
    """The full Weyl group, generated by breadth-first closure: s_i w is the
    element whose image of rho is reflect(i, w(rho)).  An element is its
    canonical word, the least of its reduced words in lexicographic order, and
    len(w) is its length: breadth-first order with colors ascending reaches
    each image first along that word."""

    def __init__(self, data: CartanData):
        self.cartan = data
        words: dict[Weight, tuple[int, ...]] = {data.rho: ()}
        queue = [data.rho]
        for image in queue:  # appended to while read: breadth-first
            for i in data.colors:
                nxt = reflect(data, i, image)
                if nxt not in words:
                    words[nxt] = words[image] + (i,)
                    queue.append(nxt)
        self._word = words
        self._image = {word: image for image, word in words.items()}
        self.elements: tuple[tuple[int, ...], ...] = tuple(sorted(self._image, key=lambda w: (len(w), w)))
        self._rw_cache: dict[tuple[int, ...], frozenset[tuple[int, ...]]] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def longest(self) -> tuple[int, ...]:
        *rest, top = self.elements
        if rest and len(rest[-1]) == len(top):
            raise RuntimeError("longest element is not unique; not a finite Weyl group")
        return top

    def element_of_word(self, word) -> tuple[int, ...]:
        return self._word[apply_word(self.cartan, word, self.cartan.rho)]

    def is_reduced(self, word) -> bool:
        return len(self.element_of_word(word)) == len(word)

    def reduced_words(self, w: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
        """All reduced words of the element w, letters in application order."""
        for letter in w:  # before the memo, where 1.0 and True hit 1
            self.cartan.check_color(letter)
        if w not in self._image:
            if self.is_reduced(w):
                raise ValueError(f"{w} is not the canonical word of its element of the Weyl group of "
                                 f"{self.cartan.type_label}: that is {self.element_of_word(w)}")
            raise ValueError(f"{w} is not an element of the Weyl group of {self.cartan.type_label}")
        cached = self._rw_cache.get(w)
        if cached is not None:
            return cached
        if not w:
            words = frozenset({()})
        else:
            out = set()
            for i in self.cartan.colors:
                v = self._word[reflect(self.cartan, i, self._image[w])]
                if len(v) == len(w) - 1:
                    out.update(word + (i,) for word in self.reduced_words(v))
            words = frozenset(out)
        self._rw_cache[w] = words
        return words


@lru_cache(maxsize=None)
def enumerate_weyl(data: CartanData) -> WeylGroup:
    return WeylGroup(data)
