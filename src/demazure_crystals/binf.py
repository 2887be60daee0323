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
coordinates), and writes f_i on those ids as it lowers; table() adds e_i, its
inverse, star replayed on f, f*_i = star f_i star and the weights, and every
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
later answer; phi = eps_i + <h_i, wt>.  CapacityError is raised only by
generation deeper than MAX_DEPTH.

The coordinates are b's starred string (Kashiwara, Duke Math. J. 71, 1993;
Nakashima-Zelevinsky, Adv. Math. 131, 1997): a_1 = eps*_{i_1}(b), the rest
belong to e*_{i_1}^{a_1} b, and b = f*_{i_1}^{a_1} f*_{i_2}^{a_2} ... highest.
So the star involution has a closed form, star(b) = f_{i_1}^{a_1}
f_{i_2}^{a_2} ... highest: one f_i from the memoized star of b with its first
nonzero coordinate lowered by one (_star).  Every starred operator is a
conjugate: f*_i = star f_i star, e*_i likewise, eps*_i = eps_i star, and psi_i
splits b into e*_i^a b and the level -a of b_i(-a), with a = eps*_i(b).  peel
walks up, each step along the smallest color with eps_i > 0, to the nearest
cached ancestor.  star and peel reject a tuple that is no element on a memo
miss.  The realization keeps the crystal only (the wt, peel and star memos,
generation, table); a check's memo lives on the table.  blambda.clear_caches() drops the shared realizations.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from itertools import islice

from .cartan import CartanData, Weight, cartan_matrix, enumerate_weyl

MAX_DEPTH = 24


class CapacityError(RuntimeError):
    """Generation beyond MAX_DEPTH, or of a B(lambda) beyond blambda.MAX_ELEMENTS."""


# An element: its coordinate tuple, trailing zeros absent.
BInfElement = tuple[int, ...]
BInfTable = namedtuple("BInfTable", "depth elements starts f e f_star star wt cartan demazure")


def _in_range(depth: int) -> int:
    """depth, once checked: generate and table accept 0 <= depth <= MAX_DEPTH."""
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
    """One choice of semi-infinite color pattern with its weight, peel and star memos."""

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
        self._wt_cache: dict[BInfElement, Weight] = {}
        self._peel_cache: dict[BInfElement, tuple[int, ...]] = {(): ()}
        self._star_cache: dict[BInfElement, BInfElement] = {}
        self._elements: list[BInfElement] = [self.highest]
        self._starts: list[int] = [0, 1]
        self._f: dict[int, list[int]] = {i: [] for i in cartan.colors}  # f_i on ids, written by _grow
        self._table: BInfTable | None = None

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
        val = self._wt_cache.get(b)
        if val is None:
            length, depths = len(self.block), [0] * self.cartan.rank
            for k, a in enumerate(b):
                depths[self.block[k % length] - 1] += a
            val = self._wt_cache[b] = tuple(
                -sum(x * d for x, d in zip(row, depths)) for row in self.cartan.matrix
            )
        return val

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
        return frozenset(islice(self._elements, self._starts[depth + 1]))

    def _grow(self, depth: int) -> None:  # lower each last id once per color; number the next layer sorted
        elements, starts = self._elements, self._starts
        while len(starts) <= depth + 1:
            last = elements[starts[-2] :]
            images = {i: [self._bump(b, self._signature(i, b)[1], +1) for b in last] for i in self._f}
            ids = {y: x for x, y in enumerate(sorted(set().union(*images.values())), len(elements))}
            for i, column in images.items():
                self._f[i] += map(ids.__getitem__, column)
            elements += ids
            starts.append(len(elements))

    def table(self, depth: int) -> BInfTable:
        """BInfTable: the layers of generation's list up to depth and one
        boundary layer on, kept until a deeper depth is asked.  Ids are
        positions in that list, table.elements, which a deeper generation only
        appends to.  f, e and star come from _columns.  On the ids of depth <=
        table.depth it derives f_star[i] = star f_i star and wt, one shared
        tuple per weight, along f from wt(highest) = 0 with wt(f_i x) = wt(x) -
        alpha_i: an id no f edge reaches, and two f edges that give one id
        different weights, raise RuntimeError.  The table carries cartan and
        demazure, a fresh memo for demazure_binf."""
        if self._table is None or not 0 <= depth <= self._table.depth:
            self._grow(_in_range(depth) + 1)  # the boundary layer, which may lie past MAX_DEPTH
            elements, starts = self._elements, self._starts[: depth + 3]
            f, e, star = self._columns(depth)
            f_star = {i: [star[column[star[x]]] for x in range(len(column))] for i, column in f.items()}
            alphas = {i: self.cartan.alpha(i) for i in f}
            wt, weights = [(0,) * self.cartan.rank] + [None] * (starts[depth + 1] - 1), {}
            for x in range(starts[depth + 1]):
                if wt[x] is None:
                    raise RuntimeError(f"no f edge reaches {elements[x]!r}; realization bug")
                for i, column in f.items() if x < starts[depth] else ():
                    y, w = column[x], tuple(a - b for a, b in zip(wt[x], alphas[i]))
                    if wt[y] is None:
                        wt[y] = weights.setdefault(w, w)
                    elif wt[y] != w:
                        raise RuntimeError(f"f edges into {elements[y]!r} give it the weights {wt[y]} and {w}; "
                                           "realization bug")
            self._table = BInfTable(depth, elements, starts, f, e, f_star, star, wt, self.cartan, {})
        return self._table

    def _columns(self, depth: int) -> tuple[dict, dict, list]:
        """(f, e, star): f[i] generation's column on the ids of depth <= depth,
        e[i] its inverse (-1 for zero; exact since e_i f_i = 1, and two f_i
        edges into one id raise RuntimeError) and star, by _star on f, on those
        of depth <= depth + 1."""
        bound, top, elements = self._starts[depth + 1], self._starts[depth + 2], self._elements
        f, e = {i: column[:bound] for i, column in self._f.items()}, {}
        for i, column in f.items():
            e[i] = inverse = [-1] * top
            for x, y in enumerate(column):
                if inverse[y] >= 0:
                    raise RuntimeError(f"f_{i} maps {elements[inverse[y]]!r} and {elements[x]!r} "
                                       f"to {elements[y]!r}; realization bug")
                inverse[y] = x
        star = partial(_star, self.block, lambda c, x: f[c][x], {}, 0)
        return f, e, list(map(star, islice(elements, top)))

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
        return (sum(b), self.peel(b), b)

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
