"""Depth-truncated realization of the infinity crystal.

Elements live in a semi-infinite tensor power of elementary crystals whose
color pattern cycles through a fixed block that contains every color (by
default the longest Weyl element, its least reduced word in lexicographic
order), read so that position 1 is the rightmost tensor factor.  The coordinate tuple (a_1, a_2, ...) stands for

    ... (x) b_{i_3}(-a_3) (x) b_{i_2}(-a_2) (x) b_{i_1}(-a_1),

finitely many a_k nonzero.  An element is that tuple itself, trailing zeros
stripped, so equality and hashing are the tuple's.  The empty tuple () is the
highest element; every stored element is reachable from it by lowering
operators, and its depth sum(b) equals the height of -wt(b).  Generation
numbers the elements once, by position in one list sorted by (depth,
coordinates), and writes the operator table on those ids as it numbers each
layer: f_i, e_i its inverse, the weights, star on the f columns and f*_i =
star f_i star.  table() returns that one table, which only grows, and every
B(inf) statement is read off it.  A lowering adds one to one coordinate, so a
walk cut at depth d ends at the first id of depth d or more.

Operators are evaluated by the tensor signature rule on the support alone.
One pass from left to right gives each color-i factor the term "its
coordinate minus the pairing <h_i, .> of the factors to its left"; eps_i is
the largest term, phi_i = eps_i + <h_i, wt>, f_i acts on the rightmost
factor attaining the maximum and e_i on the leftmost.  Every factor left of
the support has coordinate 0 and sees pairing 0, so its term is 0: eps_i is
the maximum of 0 and the support terms, e_i (only when eps_i > 0) acts
inside the support, and f_i acts at the rightmost support maximizer or, when
no support term reaches 0, at the first color-i position above the support,
which lies within one block because every block contains every color.  The
public f, e and eps are one pass each and keep no memo, so no call changes a
later answer; phi = eps_i + <h_i, wt>.  These and wt check the color only
and assume an element: f(1, (-1,)) is (-1, 0, 1).  CapacityError is raised
only by generation deeper than MAX_DEPTH.

The coordinates are b's starred string (Kashiwara, Duke Math. J. 71, 1993;
Nakashima-Zelevinsky, Adv. Math. 131, 1997): a_1 = eps*_{i_1}(b), the rest
belong to e*_{i_1}^{a_1} b, and b = f*_{i_1}^{a_1} f*_{i_2}^{a_2} ... highest.
So the star involution has a closed form, star(b) = f_{i_1}^{a_1}
f_{i_2}^{a_2} ... highest: one f_i from the memoized star of b with its first
nonzero coordinate lowered by one (_star).  Every starred operator is a
conjugate: f*_i = star f_i star, e*_i likewise, eps*_i = eps_i star, and psi_i
splits b into e*_i^a b and the level -a of b_i(-a), with a = eps*_i(b).  peel
walks up, each step along the smallest color with eps_i > 0, to the nearest
cached ancestor.  star, peel and sort_key reject a tuple that is no element
on a memo miss.  The realization keeps the crystal only (the peel and star
memos and the table generation writes); a check's memo lives on the table.
blambda.clear_caches() drops the shared realizations.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from itertools import islice
from operator import sub

from .cartan import CartanData, Weight, cartan_matrix, enumerate_weyl

MAX_DEPTH = 24


class CapacityError(RuntimeError):
    """Generation beyond MAX_DEPTH, or of a B(lambda) beyond blambda.MAX_ELEMENTS."""


# An element: its coordinate tuple, trailing zeros absent.
BInfElement = tuple[int, ...]
BInfTable = namedtuple("BInfTable", "elements starts f e f_star star wt cartan demazure")


def _in_range(depth: int) -> int:
    """depth, once checked: generate and table accept an int 0 <= depth <= MAX_DEPTH."""
    if type(depth) is not int:  # not isinstance: True is an int
        raise ValueError(f"depth {depth!r} is not an int")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_DEPTH:
        raise CapacityError(f"depth {depth} exceeds the configured maximum {MAX_DEPTH}")
    return depth


def _check_element(b) -> None:
    """ValueError unless b has the shape of an element: int coordinates, none
    negative, no trailing zero."""
    if any(type(a) is not int or a < 0 for a in b) or b and not b[-1]:  # not isinstance: True is an int
        raise ValueError(f"{b!r} is not a B(inf) element: its coordinates must be "
                         "nonnegative ints with no trailing zero")


def _strip(coords) -> BInfElement:
    n = len(coords)
    while n and coords[n - 1] == 0:
        n -= 1
    return tuple(coords[:n])


class BInfRealization:
    """One choice of semi-infinite color pattern with its peel and star memos."""

    def __init__(self, cartan: CartanData, block: tuple[int, ...] | None = None):
        if block is None:
            block = enumerate_weyl(cartan).longest
        block = tuple(map(cartan.check_color, block))
        if not block:
            raise ValueError("color block must be non-empty")
        for i in cartan.colors:
            if i not in block:
                raise ValueError(f"color {i} missing from the block")
        self.cartan = cartan
        self.block = block
        self.highest: BInfElement = ()
        self._peel_cache: dict[BInfElement, tuple[int, ...]] = {(): ()}
        self._star_cache: dict[BInfElement, BInfElement] = {}
        colors = cartan.colors  # the table: generation's record on ids, positions in elements
        self._table = BInfTable([self.highest], [0, 1], {i: [] for i in colors}, {i: [-1] for i in colors},
                                {i: [] for i in colors}, [0], [(0,) * cartan.rank], cartan, {})

    # signature rule -------------------------------------------------------

    def _signature(self, i: int, coords: tuple[int, ...]):
        """The tensor signature rule for color i in one pass, support left to right.

        Returns (eps, f_position, e_position), positions counting from the
        right (1 is rightmost); e_position is 0 when eps is.  i is not checked:
        color 0 would read the last row of the matrix, so the public f, e and
        eps check it once per call.
        """
        block, length = self.block, len(self.block)
        row = self.cartan.matrix[i - 1]
        best = pairing = f_position = e_position = 0
        for p in range(len(coords), 0, -1):
            c = block[(p - 1) % length]
            a = coords[p - 1]
            if c == i:
                term = a - pairing
                if term > best:
                    best = term
                    f_position = e_position = p
                elif term == best:
                    f_position = p
            pairing -= a * row[c - 1]
        if not f_position:
            f_position = len(coords) + 1
            while block[(f_position - 1) % length] != i:
                f_position += 1
        return best, f_position, e_position

    def _bump(self, coords: tuple[int, ...], position: int, delta: int) -> BInfElement:
        ext = list(coords) + [0] * max(0, position - len(coords))
        ext[position - 1] += delta
        if ext[position - 1] < 0:
            raise RuntimeError("negative coordinate; realization bug")
        return _strip(ext)

    # crystal operations ----------------------------------------------------

    def f(self, i: int, b: BInfElement) -> BInfElement:
        """Lowering operator; total: one signature pass, the color checked first."""
        return self._bump(b, self._signature(self.cartan.check_color(i), b)[1], +1)

    def e(self, i: int, b: BInfElement) -> BInfElement | None:
        """Raising operator, one pass as in f; zero exactly when eps(i, b) = 0."""
        eps, _, position = self._signature(self.cartan.check_color(i), b)
        return self._bump(b, position, -1) if eps else None

    def eps(self, i: int, b: BInfElement) -> int:
        """The largest term of one signature pass, as in f."""
        return self._signature(self.cartan.check_color(i), b)[0]

    def phi(self, i: int, b: BInfElement) -> int:
        return self.eps(i, b) + self.wt(b)[i - 1]

    def wt(self, b: BInfElement) -> Weight:
        """Coordinates summed per color, then one product with the Cartan matrix."""
        length, depths = len(self.block), [0] * self.cartan.rank
        for k, a in enumerate(b):
            depths[self.block[k % length] - 1] += a
        return tuple(-sum(x * d for x, d in zip(row, depths)) for row in self.cartan.matrix)

    # reachability ----------------------------------------------------------

    def peel(self, b: BInfElement) -> tuple[int, ...]:
        """Word (j_1, ..., j_m) with b = f_{j_1} f_{j_2} ... f_{j_m} highest.

        peel(b) = (j,) + peel(e_j b), j the smallest color with eps_j(b) > 0,
        one signature pass per color tried: the walk raises up to the nearest
        cached ancestor and stores every word on the way back down.  b is
        checked on a memo miss (_check_element).
        """
        cache, chain = self._peel_cache, []
        if (out := cache.get(b)) is None:
            _check_element(b)
        while out is None:
            for j in self.cartan.colors:
                eps, _, position = self._signature(j, b)
                if eps:
                    break
            else:
                raise RuntimeError("nonzero element with every eps zero; realization bug")
            chain.append((b, j))
            b = self._bump(b, position, -1)
            out = cache.get(b)
        for x, j in reversed(chain):
            out = cache[x] = (j,) + out
        return out

    def replay(self, word) -> BInfElement:
        """Apply lowering operators, last letter first: f_{w_1} ... f_{w_m} highest."""
        cur = self.highest
        for i in reversed(word):
            cur = self.f(i, cur)
        return cur

    def convert_from(self, src: BInfRealization, b: BInfElement) -> BInfElement:
        """Re-express an element of another realization of the same crystal:
        replay its peel word here.  A public utility; the package itself
        never converts."""
        if src is self:
            return b
        if src.cartan is not self.cartan:
            raise ValueError("realizations over different Cartan data")
        return self.replay(src.peel(b))

    def generate(self, depth: int) -> frozenset[BInfElement]:
        """Exactly the elements of depth <= depth, off generation's list, sorted by
        (depth, coordinates): ids are positions, starts[d] the first of depth d."""
        self._grow(_in_range(depth))
        return frozenset(islice(self._table.elements, self._table.starts[depth + 1]))

    def _grow(self, depth: int) -> None:
        """Number the layers up to depth, each once, into the table: lower each
        id of the last layer k once per color, number the images sorted as
        layer k + 1 and write f_i on layer k; on layer k + 1, e_i, its inverse
        (-1 for zero: e_i f_i = 1), wt along f, one tuple per weight, and star
        by _star on f, its memo seeded with layer k's stars; then f*_i = star
        f_i star on layer k.  Two f_i edges into one id, or two f edges that
        give one id different weights, raise RuntimeError mid-layer, and the
        table is then half-written: a realization bug."""
        table = self._table
        elements, starts, wt, star = table.elements, table.starts, table.wt, table.star
        star_on_ids = partial(_star, self.block, lambda c, x: table.f[c][x])
        while len(starts) <= depth + 1:
            layer, last = range(starts[-2], starts[-1]), elements[starts[-2] :]
            images = {i: [self._bump(b, self._signature(i, b)[1], +1) for b in last] for i in table.f}
            ids = {y: x for x, y in enumerate(sorted(set().union(*images.values())), len(elements))}
            elements += ids
            starts.append(len(elements))
            wt += [None] * len(ids)
            weights = {}  # a weight fixes the depth, so one layer holds every tuple of its weights
            for i, column in table.f.items():
                column += map(ids.__getitem__, images.pop(i))  # popped: the image tuples go once numbered
                inverse, alpha = table.e[i], self.cartan.alpha(i)
                inverse += [-1] * len(ids)
                for x in layer:
                    y = column[x]
                    if inverse[y] >= 0:
                        raise RuntimeError(f"f_{i} maps {elements[inverse[y]]!r} and {elements[x]!r} "
                                           f"to {elements[y]!r}; realization bug")
                    inverse[y] = x
                    w = tuple(map(sub, wt[x], alpha))
                    if wt[y] is None:
                        wt[y] = weights.setdefault(w, w)
                    elif wt[y] != w:
                        raise RuntimeError(f"f edges into {elements[y]!r} give it the weights {wt[y]} and {w}; "
                                           "realization bug")
            star += map(partial(star_on_ids, dict(zip(last, star[layer.start :])), 0), ids)
            for i, column in table.f.items():
                table.f_star[i] += [star[column[star[x]]] for x in layer]

    def table(self, depth: int) -> BInfTable:
        """BInfTable: generation's record (see _grow), numbered at least one
        boundary layer past depth.  One object for the realization's life,
        whose lists only grow, so an id keeps its entries; starts[d] is the
        first id of depth d.  f and f_star cover every numbered layer but the
        last, e, star and wt all; cartan and demazure (demazure_binf's memo)."""
        self._grow(_in_range(depth) + 1)  # the boundary layer, which may lie past MAX_DEPTH
        return self._table

    # starred operators: conjugation by the closed-form star ---------------

    def star(self, b: BInfElement) -> BInfElement:
        """Weight-preserving involution by _star through the class's f, never
        one set on the instance.  The memo holds b -> star(b) only, so STAR's
        star(star(b)) is a second answer, not a read-back."""
        if (out := self._star_cache.get(b)) is None:
            _check_element(b)
            out = _star(self.block, partial(BInfRealization.f, self), self._star_cache, self.highest, b)
        return out

    def f_star(self, i: int, b: BInfElement) -> BInfElement:
        """Starred lowering: star f_i star."""
        return self.star(self.f(i, self.star(b)))

    def e_star(self, i: int, b: BInfElement) -> BInfElement | None:
        """Starred raising: star e_i star, zero where e_i is."""
        up = self.e(i, self.star(b))
        return None if up is None else self.star(up)

    def eps_star(self, i: int, b: BInfElement) -> int:
        """Largest k with e_star^k b nonzero: eps_i of star(b)."""
        return self.eps(i, self.star(b))

    def psi(self, i: int, b: BInfElement) -> tuple[BInfElement, int]:
        """Split off the rightmost color-i elementary factor: (e*_i^a b, -a)
        with a = eps*_i(b), the level -a standing for the element b_i(-a) of
        ElementaryCrystal(cartan, i).  On the highest element: (highest, 0)."""
        s, a = self.star(b), 0
        while (up := self.e(i, s)) is not None:
            s, a = up, a + 1
        return self.star(s), -a

    def sort_key(self, b: BInfElement):
        """(depth, peel word, b), peel first: a non-element is its ValueError."""
        word = self.peel(b)
        return (sum(b), word, b)

    def __repr__(self) -> str:
        return f"BInfRealization({self.cartan.type_label}, block={self.block})"


def _star(block, f, memo, highest, b):
    """star(b) = f_{i_1}^{a_1} f_{i_2}^{a_2} ... highest: f_c, c b's color at
    its first nonzero position, on the answer for b less one there, which
    need not be an element, memoized by tuple; on tuples or on table ids."""
    if not b:
        return highest
    out = memo.get(b)
    if out is None:
        p = next(k for k, a in enumerate(b) if a)
        lower = _star(block, f, memo, highest, _strip(b[:p] + (b[p] - 1,) + b[p + 1 :]))
        out = memo[b] = f(block[p % len(block)], lower)
    return out


@lru_cache(maxsize=None)
def b_inf(type_label: str) -> BInfRealization:
    """Shared main realization for a type, on the default block: the
    longest Weyl element, a word."""
    return BInfRealization(cartan_matrix(type_label))
