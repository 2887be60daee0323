"""Depth-truncated realization of the infinity crystal.

Elements live in a semi-infinite tensor power of elementary crystals whose
color pattern cycles through a fixed block that contains every color (by
default a reduced word for the longest Weyl element), read so that position
1 is the rightmost tensor factor.  The coordinate tuple (a_1, a_2, ...)
stands for

    ... (x) b_{i_3}(-a_3) (x) b_{i_2}(-a_2) (x) b_{i_1}(-a_1),

finitely many a_k nonzero.  The all-zero tuple is the highest element; every
stored element is reachable from it by lowering operators, and depth(b) =
sum(a_k) equals the height of -wt(b).

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
and wt.  CapacityError is raised only by generation deeper than max_depth.

The coordinates are b's starred string (Kashiwara, Duke Math. J. 71, 1993;
Nakashima-Zelevinsky, Adv. Math. 131, 1997): a_1 = eps*_{i_1}(b), the rest
belong to e*_{i_1}^{a_1} b, and b = f*_{i_1}^{a_1} f*_{i_2}^{a_2} ... highest.
So the star involution has a closed form, star(b) = f_{i_1}^{a_1}
f_{i_2}^{a_2} ... highest, one replay of the coordinate word, and every
starred operator is a conjugate: f*_i = star f_i star, e*_i likewise,
eps*_i = eps_i star, and psi_i splits b into e*_i^a b and b_i(-a) with
a = eps*_i(b).  star memoizes its answers; peel walks up by first letters
to the nearest cached ancestor.  Every cache lives on the realization, and
blambda.clear_caches() drops the shared realizations and all of them with
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .cartan import CartanData, Weight, cartan_matrix, enumerate_weyl
from .core import Elementary

DEFAULT_BLOCKS: dict[str, tuple[int, ...]] = {
    "A1": (1,),
    "A1xA1": (1, 2),
    "A2": (1, 2, 1),
    "B2": (1, 2, 1, 2),
    "G2": (1, 2, 1, 2, 1, 2),
    "A3": (1, 2, 1, 3, 2, 1),
}


class CapacityError(RuntimeError):
    """Generation was asked for a depth beyond the configured max_depth."""


def _strip(coords) -> tuple[int, ...]:
    n = len(coords)
    while n and coords[n - 1] == 0:
        n -= 1
    return tuple(coords[:n])


@dataclass(frozen=True, slots=True)
class BInfElement:
    """Coordinate tuple relative to a fixed realization; trailing zeros absent.

    Equality, hashing and repr use the coordinates only; depth is derived.
    """

    coords: tuple[int, ...]
    depth: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "depth", sum(self.coords))

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"BInf{self.coords}"


class BInfRealization:
    """One choice of semi-infinite color pattern with its operator caches."""

    def __init__(
        self,
        cartan: CartanData,
        block: tuple[int, ...] | None = None,
        max_depth: int = 24,
    ):
        if block is None:
            block = DEFAULT_BLOCKS[cartan.type_label]
        block = tuple(block)
        if not block:
            raise ValueError("color block must be non-empty")
        for i in block:
            if i not in cartan.colors:
                raise ValueError(f"block letter {i} outside the index set")
        for i in cartan.colors:
            if i not in block:
                raise ValueError(f"color {i} missing from the block")
        self.cartan = cartan
        self.block = block
        self.max_depth = max_depth
        self.highest = BInfElement(())
        self._f_cache: dict[tuple[int, tuple[int, ...]], BInfElement] = {}
        self._e_cache: dict[tuple[int, tuple[int, ...]], BInfElement | None] = {}
        self._eps_cache: dict[tuple[int, tuple[int, ...]], int] = {}
        self._wt_cache: dict[tuple[int, ...], Weight] = {}
        self._peel_cache: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}
        self._star_cache: dict[tuple[int, ...], BInfElement] = {}
        self._gen_layers: list[frozenset[BInfElement]] = [frozenset({self.highest})]
        # depth -> {word -> frozenset}, filled by demazure.demazure_binf
        self._demazure_cache: dict = {}

    # signature rule -------------------------------------------------------

    def _signature(self, i: int, coords: tuple[int, ...]):
        """The tensor signature rule for color i in one pass, support left to right.

        Returns (eps, f_position, e_position), positions counting from the
        right (1 is rightmost); e_position is 0 when eps is.
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
        return BInfElement(_strip(ext))

    # crystal operations ----------------------------------------------------

    def _edge(self, i: int, upper: BInfElement, lower: BInfElement, eps: int) -> None:
        """Store lower = f_i upper both ways, and eps at both ends (eps of upper)."""
        up, down = (i, upper.coords), (i, lower.coords)
        self._f_cache[up] = lower
        self._e_cache[down] = upper
        self._eps_cache[up], self._eps_cache[down] = eps, eps + 1

    def f(self, i: int, b: BInfElement) -> BInfElement:
        """Lowering operator; total (the infinity crystal is lower-free)."""
        out = self._f_cache.get((i, b.coords))
        if out is None:
            eps, position, _ = self._signature(i, b.coords)
            out = self._bump(b.coords, position, +1)
            self._edge(i, b, out, eps)
        return out

    def e(self, i: int, b: BInfElement) -> BInfElement | None:
        """Raising operator; zero exactly when eps(i, b) = 0."""
        key = (i, b.coords)
        if key in self._e_cache:
            return self._e_cache[key]
        eps, _, position = self._signature(i, b.coords)
        if not eps:
            self._e_cache[key] = None
            self._eps_cache[key] = eps
            return None
        out = self._bump(b.coords, position, -1)
        self._edge(i, out, b, eps - 1)
        return out

    def eps(self, i: int, b: BInfElement) -> int:
        key = (i, b.coords)
        if key not in self._eps_cache:
            self.e(i, b)  # not in _e_cache either, so e runs the pass and stores eps
        return self._eps_cache[key]

    def phi(self, i: int, b: BInfElement) -> int:
        return self.eps(i, b) + self.wt(b)[i - 1]

    def wt(self, b: BInfElement) -> Weight:
        """Coordinates summed per color, then one product with the Cartan matrix."""
        val = self._wt_cache.get(b.coords)
        if val is None:
            length, depths = len(self.block), [0] * self.cartan.rank
            for k, a in enumerate(b.coords):
                depths[self.block[k % length] - 1] += a
            val = self._wt_cache[b.coords] = tuple(
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
        out = cache.get(b.coords)
        while out is None:
            j = self.first_letter(b)
            chain.append((b.coords, j))
            b = self.e(j, b)
            out = cache.get(b.coords)
        for coords, j in reversed(chain):
            out = cache[coords] = (j,) + out
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
        """Exactly the elements of depth <= depth (lowering raises depth by one)."""
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if depth > self.max_depth:
            raise CapacityError(f"depth {depth} exceeds the configured maximum {self.max_depth}")
        while len(self._gen_layers) <= depth:
            last = self._gen_layers[-1]
            layer = frozenset(
                self.f(i, b) for b in last for i in self.cartan.colors
            )
            self._gen_layers.append(layer)
        out = set()
        for layer in self._gen_layers[: depth + 1]:
            out.update(layer)
        return frozenset(out)

    # starred operators: conjugation by the closed-form star ---------------

    def star(self, b: BInfElement) -> BInfElement:
        """Weight-preserving involution: f_{i_1}^{a_1} f_{i_2}^{a_2} ... highest,
        the coordinates replayed last position first.

        The memo stores b -> star(b) only.  Storing star(b) -> b as well would
        let the STAR check's star(star(b)) read back its own first answer
        instead of testing the involution with a second replay.
        """
        out = self._star_cache.get(b.coords)
        if out is None:
            length = len(self.block)
            word = [self.block[k % length] for k, a in enumerate(b.coords) for _ in range(a)]
            out = self._star_cache[b.coords] = self.replay(word)
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

    def psi(self, i: int, b: BInfElement) -> tuple[BInfElement, Elementary]:
        """Split off the rightmost color-i elementary factor.

        Returns (e*_i^a b, b_i(-a)) with a = eps*_i(b); on the highest
        element this is (highest, b_i(0)).
        """
        s = self.star(b)
        a = self.eps(i, s)
        for _ in range(a):
            s = self.e(i, s)
        return self.star(s), Elementary(i, -a)

    # polyhedral realization (Nakashima) -----------------------------------

    def _close_forms(self, seeds) -> tuple[frozenset[tuple[int, ...]], bool]:
        """Close forms c . x on positions 1..len(block) under Nakashima's maps
        S_k c = c - c_k beta_k if c_k > 0, else c - c_k beta_{k-}, where
        beta_k = x_k + sum_{k<j<k+} a_{i_k,i_j} x_j + x_{k+}, k+ / k- is the
        next / previous position of color i_k and a missing k- gives 0.  Forms
        are cut off at len(block); the flag tells whether one reached past it.
        Precondition: the block is a reduced word of w0 (lambda_forms checks
        it); on other blocks the closure may never end."""
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
            closed, left = self._close_forms([seed])
            if left:
                raise ValueError(f"block {self.block}: Nakashima's forms leave positions 1..{n}")
            forms += [(i, tuple(-c for c in form)) for form in sorted(closed)]
        return tuple(forms)

    def sort_key(self, b: BInfElement):
        return (b.depth, self.peel(b), b.coords)

    def __repr__(self) -> str:
        return f"BInfRealization({self.cartan.type_label}, block={self.block})"


@lru_cache(maxsize=None)
def b_inf(type_label: str) -> BInfRealization:
    """Shared main realization for a type, block as in DEFAULT_BLOCKS."""
    return BInfRealization(cartan_matrix(type_label))
