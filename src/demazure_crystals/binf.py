"""Depth-truncated realization of the infinity crystal.

Elements live in a semi-infinite tensor power of elementary crystals whose
color pattern cycles through a fixed block that contains every color (by
default the canonical word of the longest Weyl element, its first reduced
word in breadth-first order), read so that position 1 is the rightmost
tensor factor.  The coordinate tuple (a_1, a_2, ...) stands for

    ... (x) b_{i_3}(-a_3) (x) b_{i_2}(-a_2) (x) b_{i_1}(-a_1),

finitely many a_k nonzero.  An element is that tuple itself, trailing zeros
stripped, so equality and hashing are the tuple's.  The empty tuple () is the
highest element; every stored element is reachable from it by lowering
operators, and its depth sum(b) equals the height of -wt(b).  Generation
numbers the elements once, by position in one list sorted by (depth,
coordinates), and table() keeps f_i, f*_i, e_i and star as lists of those
ids, the paper's ingredients, off which every statement about Demazure sets
is read: every f_i and f*_i raises depth by one, so a walk cut at depth d
ends at the first id of depth d or more.

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
pass is shared: f and e store eps at both ends of the edge they find (along
f_i eps rises by one), an eps miss runs e's pass, and phi is read from eps
and wt.  CapacityError is raised only by generation deeper than MAX_DEPTH.

The coordinates are b's starred string (Kashiwara, Duke Math. J. 71, 1993;
Nakashima-Zelevinsky, Adv. Math. 131, 1997): a_1 = eps*_{i_1}(b), the rest
belong to e*_{i_1}^{a_1} b, and b = f*_{i_1}^{a_1} f*_{i_2}^{a_2} ... highest.
So the star involution has a closed form, star(b) = f_{i_1}^{a_1}
f_{i_2}^{a_2} ... highest, one replay of the coordinate word, and every
starred operator is a conjugate: f*_i = star f_i star, e*_i likewise,
eps*_i = eps_i star, and psi_i splits b into e*_i^a b and the level -a of
b_i(-a), with a = eps*_i(b).  star memoizes its answers; peel walks up by
first letters to the nearest cached ancestor.  Every cache lives on the
realization, and blambda.clear_caches() drops the shared realizations and all
of them with it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import islice, repeat

from .cartan import CartanData, Weight, cartan_matrix, enumerate_weyl

MAX_DEPTH = 24


class CapacityError(RuntimeError):
    """Generation beyond MAX_DEPTH, or of a B(lambda) beyond blambda.MAX_ELEMENTS."""


# An element: its coordinate tuple, trailing zeros absent.
BInfElement = tuple[int, ...]
BInfTable = namedtuple("BInfTable", "depth elements starts f e f_star star")


def _strip(coords) -> BInfElement:
    n = len(coords)
    while n and coords[n - 1] == 0:
        n -= 1
    return tuple(coords[:n])


class BInfRealization:
    """One choice of semi-infinite color pattern with its operator caches."""

    def __init__(self, cartan: CartanData, block: tuple[int, ...] | None = None):
        if block is None:
            block = enumerate_weyl(cartan).longest.canonical_word
        block = tuple(map(cartan.check_color, block))
        if not block:
            raise ValueError("color block must be non-empty")
        for i in cartan.colors:
            if i not in block:
                raise ValueError(f"color {i} missing from the block")
        self.cartan = cartan
        self.block = block
        self.highest: BInfElement = ()
        self._f_cache: dict[tuple[int, BInfElement], BInfElement] = {}
        self._e_cache: dict[tuple[int, BInfElement], BInfElement | None] = {}
        self._eps_cache: dict[tuple[int, BInfElement], int] = {}
        self._wt_cache: dict[BInfElement, Weight] = {}
        self._peel_cache: dict[BInfElement, tuple[int, ...]] = {(): ()}
        self._star_cache: dict[BInfElement, BInfElement] = {}
        self._elements: list[BInfElement] = [self.highest]
        self._starts: list[int] = [0, 1]
        self._table: BInfTable | None = None
        # depth -> {word -> frozenset of table ids}, filled by demazure.demazure_binf
        self._demazure_cache: dict = {}

    # signature rule -------------------------------------------------------

    def _signature(self, i: int, coords: tuple[int, ...]):
        """The tensor signature rule for color i in one pass, support left to right.

        Returns (eps, f_position, e_position), positions counting from the
        right (1 is rightmost); e_position is 0 when eps is.  Every operator
        reaches it on a cache miss, so a color outside the index set is
        rejected here.
        """
        self.cartan.check_color(i)
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

    def _edge(self, i: int, upper: BInfElement, lower: BInfElement, eps: int) -> None:
        """Store lower = f_i upper both ways, and eps at both ends (eps of upper)."""
        up, down = (i, upper), (i, lower)
        self._f_cache[up] = lower
        self._e_cache[down] = upper
        self._eps_cache[up], self._eps_cache[down] = eps, eps + 1

    def f(self, i: int, b: BInfElement) -> BInfElement:
        """Lowering operator; total (the infinity crystal is lower-free)."""
        out = self._f_cache.get((i, b))
        if out is None:
            eps, position, _ = self._signature(i, b)
            out = self._bump(b, position, +1)
            self._edge(i, b, out, eps)
        return out

    def e(self, i: int, b: BInfElement) -> BInfElement | None:
        """Raising operator; zero exactly when eps(i, b) = 0."""
        key = (i, b)
        if key in self._e_cache:
            return self._e_cache[key]
        eps, _, position = self._signature(i, b)
        if not eps:
            self._e_cache[key] = None
            self._eps_cache[key] = eps
            return None
        out = self._bump(b, position, -1)
        self._edge(i, out, b, eps - 1)
        return out

    def eps(self, i: int, b: BInfElement) -> int:
        key = (i, b)
        if key not in self._eps_cache:
            self.e(i, b)  # not in _e_cache either, so e runs the pass and stores eps
        return self._eps_cache[key]

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

    def first_letter(self, b: BInfElement) -> int:
        """The smallest color whose eps is positive on a non-highest element."""
        for i in self.cartan.colors:
            if self.eps(i, b) > 0:
                return i
        raise RuntimeError("nonzero element with every eps zero; realization bug")

    def peel(self, b: BInfElement) -> tuple[int, ...]:
        """Word (j_1, ..., j_m) with b = f_{j_1} f_{j_2} ... f_{j_m} highest.

        peel(b) = (j,) + peel(e_j b) with j = first_letter(b): the walk raises
        up to the nearest cached ancestor and stores every word on the way
        back down.
        """
        cache, chain = self._peel_cache, []
        out = cache.get(b)
        while out is None:
            j = self.first_letter(b)
            chain.append((b, j))
            b = self.e(j, b)
            out = cache.get(b)
        for x, j in reversed(chain):
            out = cache[x] = (j,) + out
        return out

    def replay(self, word) -> BInfElement:
        """Apply lowering operators, last letter first: f_{w_1} ... f_{w_m} highest.

        star replays the coordinate word, convert_from a peel word.
        """
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
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if depth > MAX_DEPTH:
            raise CapacityError(f"depth {depth} exceeds the configured maximum {MAX_DEPTH}")
        elements, starts = self._elements, self._starts
        while len(starts) <= depth + 1:
            last = islice(elements, starts[-2], starts[-1])
            elements += sorted({self.f(i, b) for b in last for i in self.cartan.colors})
            starts.append(len(elements))
        return frozenset(islice(elements, starts[depth + 1]))

    def table(self, depth: int) -> BInfTable:
        """BInfTable: generation's list, at least to depth, with f[i] and f_star[i]
        on the ids of depth < table.depth, star on those of depth <= table.depth
        and e[i] on all (-1 for zero), read once per id off self.f, self.f_star,
        self.star and self.e, so an operator replaced on the instance is the
        one tabled (an image outside the list gets a new id, and an e entry)."""
        if self._table is None or not 0 <= depth <= self._table.depth:
            self.generate(depth)  # rejects a depth out of range
            elements, starts = self._elements, self._starts
            index = {b: x for x, b in enumerate(elements)}

            def ids(op, members):  # per color, the id of each member's image, -1 for zero
                return {i: [-1 if y is None else index.setdefault(y, len(index))
                            for y in map(op, repeat(i), members)] for i in self.cartan.colors}

            f, f_star = (ids(op, elements[: starts[-2]]) for op in (self.f, self.f_star))
            star = [index.setdefault(y, len(index)) for y in map(self.star, list(index))]
            e = ids(self.e, list(index))
            elements = elements if len(index) == len(elements) else list(index)
            self._table = BInfTable(len(starts) - 2, elements, starts, f, e, f_star, star)
        return self._table

    # starred operators: conjugation by the closed-form star ---------------

    def star(self, b: BInfElement) -> BInfElement:
        """Weight-preserving involution: f_{i_1}^{a_1} f_{i_2}^{a_2} ... highest,
        the coordinates replayed last position first.

        The memo stores b -> star(b) only.  Storing star(b) -> b as well would
        let the STAR check's star(star(b)) read back its own first answer
        instead of testing the involution with a second replay.
        """
        out = self._star_cache.get(b)
        if out is None:
            length = len(self.block)
            word = [self.block[k % length] for k, a in enumerate(b) for _ in range(a)]
            out = self._star_cache[b] = self.replay(word)
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
        ElementaryCrystal(cartan, i).  On the highest element: (highest, 0).
        """
        s = self.star(b)
        a = self.eps(i, s)
        for _ in range(a):
            s = self.e(i, s)
        return self.star(s), -a

    # polyhedral realization (Nakashima) -----------------------------------

    def _close_forms(self, seeds, *, halt=False) -> tuple[frozenset[tuple[int, ...]], bool]:
        """Close forms c . x on positions 1..len(block) under Nakashima's maps
        S_k c = c - c_k beta_k if c_k > 0, else c - c_k beta_{k-}, where
        beta_k = x_k + sum_{k<j<k+} a_{i_k,i_j} x_j + x_{k+}, k+ / k- is the
        next / previous position of color i_k and a missing k- gives 0.  Forms
        are cut off at len(block); the flag tells whether one reached past it,
        and halt returns at the first that does.  Precondition: the block is a
        reduced word of w0 (lambda_forms checks it); on other blocks, and on
        some reduced words whose forms leave the block (A4 (1,2,3,2,4,3,2,1,2,3)),
        the closure without halt may never end."""
        n, block, a = len(self.block), self.block, self.cartan.matrix
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

    @cached_property
    def lambda_forms(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(i, L), built once: b is in B(lam) iff L . b <= lam_i for all, and
        eps_star(i, b) = max L . b over color i.  -L runs over the closure of
        -x_k - sum_{j<k} a_{i,i_j} x_j, k the first position of color i.
        Only a reduced word of w0 has them (elsewhere the closure may stay in
        the block and be wrong, or never end)."""
        group = enumerate_weyl(self.cartan)
        if len(self.block) != group.longest.length or not group.is_reduced(self.block):
            raise ValueError(f"block {self.block} is not a reduced word of w0")
        n, forms = len(self.block), []
        for i in self.cartan.colors:
            k, row = self.block.index(i), self.cartan.matrix[i - 1]
            seed = tuple(-row[c - 1] for c in self.block[:k]) + (-1,) + (0,) * (n - k - 1)
            closed, left = self._close_forms([seed], halt=True)
            if left:
                raise ValueError(f"block {self.block}: Nakashima's forms leave positions 1..{n}")
            forms += [(i, tuple(-c for c in form)) for form in sorted(closed)]
        return tuple(forms)

    def sort_key(self, b: BInfElement):
        return (sum(b), self.peel(b), b)

    def __repr__(self) -> str:
        return f"BInfRealization({self.cartan.type_label}, block={self.block})"


@lru_cache(maxsize=None)
def b_inf(type_label: str) -> BInfRealization:
    """Shared main realization for a type, on the default block: the
    canonical word of the longest Weyl element."""
    return BInfRealization(cartan_matrix(type_label))
