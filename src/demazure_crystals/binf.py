"""Depth-truncated realization of the infinity crystal.

Elements live in a semi-infinite tensor power of elementary crystals whose
color pattern cycles through a fixed block, a reduced word for the longest
Weyl element read so that position 1 is the rightmost tensor factor.  The
coordinate tuple (a_1, a_2, ...) stands for

    ... (x) b_{i_3}(-a_3) (x) b_{i_2}(-a_2) (x) b_{i_1}(-a_1),

finitely many a_k nonzero.  The all-zero tuple is the highest element; every
stored element is reachable from it by lowering operators, and depth(b) =
sum(a_k) equals the height of -wt(b).

Operators are evaluated by the tensor signature rule on a fixed finite
window: the blocks that hold the support plus two all-zero blocks on the
left.  With one full zero block of padding the window statistics agree with
the semi-infinite object, and an operator acts at most one zero block to
the left of the support (Nakashima-Zelevinsky, polyhedral realizations), so
an action inside the leftmost block is reported as a realization bug.
CapacityError is raised only by generation deeper than max_depth.

The embedding that splits off the rightmost elementary factor of color i is
realized by converting to the rotated color pattern that starts with i.
Conversion, peel and star are parent-recursive: with j the first letter of
the peel word of b, the parent e_j b is handled first and one operator step
finishes the job,

    peel(b) = (j,) + peel(e_j b),
    convert(b) = f_j convert(e_j b),
    star(b) = f*_j star(e_j b),

so a query walks up only to the nearest cached ancestor and fills the cache
on the way back down: each new element costs one operator step.  Starred
operators act on the split-off factor and convert back; f*, e* and eps* are
memoized per realization, and f*_i b = c also records e*_i c = b.  Every
cache lives on the realization and its rotations; blambda.clear_caches()
drops the shared realizations and all of them with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .cartan import CartanData, Weight, cartan_matrix, w_add, w_scale
from .core import NEG_INF, Elementary

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


def _fill_from_nearest_cached(src, b, cache, step):
    """cache[b] = step(j, cache[e_j b]) with j the first letter of src.peel(b).

    cache is keyed by coordinates of src and always holds the highest
    element; the walk goes up the peel word to the nearest cached ancestor
    and stores every element on the way back down.
    """
    out = cache.get(b.coords)
    if out is not None:
        return out
    chain = []
    cur = b
    for j in src.peel(b):
        chain.append((cur.coords, j))
        cur = src.e(j, cur)
        out = cache.get(cur.coords)
        if out is not None:
            break
    for coords, j in reversed(chain):
        out = step(j, out)
        cache[coords] = out
    return out


@dataclass(frozen=True, slots=True)
class BInfElement:
    """Coordinate tuple relative to a fixed realization; trailing zeros absent.

    Equality, hashing and repr use the coordinates only; depth is derived.
    """

    coords: tuple[int, ...]
    depth: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "depth", sum(self.coords))

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
        self._rotations: dict[int, BInfRealization] = {0: self}
        self._f_cache: dict[tuple[int, tuple[int, ...]], BInfElement] = {}
        self._e_cache: dict[tuple[int, tuple[int, ...]], BInfElement | None] = {}
        self._eps_cache: dict[tuple[int, tuple[int, ...]], int] = {}
        self._phi_cache: dict[tuple[int, tuple[int, ...]], int] = {}
        self._wt_cache: dict[tuple[int, ...], Weight] = {}
        self._peel_cache: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}
        # source block -> (source coords -> element of this realization)
        self._convert_cache: dict[tuple[int, ...], dict[tuple[int, ...], BInfElement]] = {}
        self._star_cache: dict[tuple[int, ...], BInfElement] = {(): self.highest}
        # (i, coords) -> result of f_star / e_star / eps_star, None included
        self._f_star_memo: dict[tuple[int, tuple[int, ...]], BInfElement] = {}
        self._e_star_memo: dict[tuple[int, tuple[int, ...]], BInfElement | None] = {}
        self._eps_star_memo: dict[tuple[int, tuple[int, ...]], int] = {}
        self._gen_layers: list[frozenset[BInfElement]] = [frozenset({self.highest})]
        # (word, depth) -> DemazureSet, filled by demazure.demazure_binf
        self._demazure_cache: dict = {}

    # window machinery -----------------------------------------------------

    def _window_len(self, support: int) -> int:
        """The blocks holding the support plus two all-zero blocks."""
        length = len(self.block)
        return ((support + length - 1) // length + 2) * length

    def _scan(self, i: int, coords: tuple[int, ...]):
        """Per-factor eps and prefix phi for color i, window left to right."""
        length = len(self.block)
        support = len(coords)
        n = self._window_len(support)
        row = self.cartan.matrix[i - 1]
        eps_list = [0] * n
        phi_pref = [0] * n
        acc = NEG_INF
        for j in range(n):
            p = n - j
            c = self.block[(p - 1) % length]
            a = coords[p - 1] if p <= support else 0
            if c == i:
                eps_list[j] = a
                acc = max(-a, acc - a * row[c - 1])
            else:
                eps_list[j] = NEG_INF
                acc = acc - a * row[c - 1]
            phi_pref[j] = acc
        return n, eps_list, phi_pref

    def _bump(self, coords: tuple[int, ...], position: int, delta: int) -> BInfElement:
        ext = list(coords) + [0] * max(0, position - len(coords))
        ext[position - 1] += delta
        if ext[position - 1] < 0:
            raise RuntimeError("negative coordinate; realization bug")
        return BInfElement(_strip(ext))

    def _act(self, i: int, coords: tuple[int, ...], raising: bool) -> BInfElement:
        length = len(self.block)
        n, eps_list, phi_pref = self._scan(i, coords)
        j = n - 1
        if raising:
            while j > 0 and phi_pref[j - 1] >= eps_list[j]:
                j -= 1
        else:
            while j > 0 and phi_pref[j - 1] > eps_list[j]:
                j -= 1
        if j < length:
            raise RuntimeError("action landed in the leftmost padding block; realization bug")
        position = n - j
        if self.block[(position - 1) % length] != i:
            raise RuntimeError("action landed on a factor of the wrong color")
        return self._bump(coords, position, -1 if raising else +1)

    # crystal operations ----------------------------------------------------

    def f(self, i: int, b: BInfElement) -> BInfElement:
        """Lowering operator; total (the infinity crystal is lower-free)."""
        key = (i, b.coords)
        out = self._f_cache.get(key)
        if out is None:
            out = self._act(i, b.coords, raising=False)
            self._f_cache[key] = out
            self._e_cache[(i, out.coords)] = b
        return out

    def e(self, i: int, b: BInfElement) -> BInfElement | None:
        """Raising operator; zero exactly when eps(i, b) = 0."""
        key = (i, b.coords)
        if key in self._e_cache:
            return self._e_cache[key]
        if self.eps(i, b) == 0:
            out = None
        else:
            out = self._act(i, b.coords, raising=True)
        self._e_cache[key] = out
        if out is not None:
            self._f_cache[(i, out.coords)] = b
        return out

    def eps(self, i: int, b: BInfElement) -> int:
        key = (i, b.coords)
        val = self._eps_cache.get(key)
        if val is None:
            length = len(self.block)
            support = len(b.coords)
            n = self._window_len(support)
            row = self.cartan.matrix[i - 1]
            acc = NEG_INF
            wt_acc = 0
            for j in range(n):
                p = n - j
                c = self.block[(p - 1) % length]
                a = b.coords[p - 1] if p <= support else 0
                if c == i:
                    acc = max(acc, a - wt_acc)
                wt_acc -= a * row[c - 1]
            val = int(acc)
            if val < 0:
                raise RuntimeError("negative eps on a reachable element; realization bug")
            self._eps_cache[key] = val
        return val

    def phi(self, i: int, b: BInfElement) -> int:
        key = (i, b.coords)
        val = self._phi_cache.get(key)
        if val is None:
            _, _, phi_pref = self._scan(i, b.coords)
            val = int(phi_pref[-1])
            self._phi_cache[key] = val
        return val

    def wt(self, b: BInfElement) -> Weight:
        val = self._wt_cache.get(b.coords)
        if val is None:
            length = len(self.block)
            val = (0,) * self.cartan.rank
            for k, a in enumerate(b.coords):
                if a:
                    color = self.block[k % length]
                    val = w_add(val, w_scale(-a, self.cartan.alpha(color)))
            self._wt_cache[b.coords] = val
        return val

    # reachability ----------------------------------------------------------

    def peel(self, b: BInfElement) -> tuple[int, ...]:
        """Word (j_1, ..., j_m) with b = f_{j_1} f_{j_2} ... f_{j_m} highest.

        Deterministic: at each step raise with the smallest color whose eps
        is positive, so peel(b) = (j_1,) + peel(e_{j_1} b).
        """
        cache = self._peel_cache
        chain = []
        cur = b
        word = cache.get(cur.coords)
        while word is None:
            for i in self.cartan.colors:
                if self.eps(i, cur) > 0:
                    break
            else:
                raise RuntimeError("nonzero element with every eps zero; realization bug")
            chain.append((cur.coords, i))
            cur = self.e(i, cur)
            word = cache.get(cur.coords)
        for coords, i in reversed(chain):
            word = (i,) + word
            cache[coords] = word
        return word

    def replay(self, word) -> BInfElement:
        """Apply lowering operators, last letter first: f_{w_1} ... f_{w_m} highest.

        convert_from reaches the same element one step at a time; the tests
        use this whole-word form as its reference.
        """
        cur = self.highest
        for i in reversed(word):
            cur = self.f(i, cur)
        return cur

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

    # rotated realizations and starred operators ----------------------------

    def rotation(self, k: int) -> BInfRealization:
        k %= len(self.block)
        rot = self._rotations.get(k)
        if rot is None:
            rot = BInfRealization(
                self.cartan, self.block[k:] + self.block[:k], max_depth=self.max_depth
            )
            self._rotations[k] = rot
        return rot

    def _rotation_for_color(self, i: int) -> tuple[BInfRealization, BInfRealization]:
        k = self.block.index(i)
        return self.rotation(k), self.rotation(k + 1)

    def convert_from(self, src: BInfRealization, b: BInfElement) -> BInfElement:
        """Re-express an element of another realization of the same crystal.

        With j the first letter of src.peel(b), the image of b is f_j of the
        image of e_j b; the walk stops at the nearest cached ancestor.
        """
        if src is self:
            return b
        if src.cartan is not self.cartan:
            raise ValueError("realizations over different Cartan data")
        cache = self._convert_cache.get(src.block)
        if cache is None:
            cache = self._convert_cache[src.block] = {(): self.highest}
        return _fill_from_nearest_cached(src, b, cache, self.f)

    def psi(self, i: int, b: BInfElement) -> tuple[BInfElement, Elementary]:
        """Split off the rightmost color-i elementary factor.

        Returns (b', b'') with b' in this realization and b'' = b_i(-a) the
        elementary factor; on the highest element this is (highest, b_i(0)).
        """
        rot, shift = self._rotation_for_color(i)
        rb = rot.convert_from(self, b)
        a1 = rb.coords[0] if rb.coords else 0
        rest = BInfElement(rb.coords[1:])
        return self.convert_from(shift, rest), Elementary(i, -a1)

    def f_star(self, i: int, b: BInfElement) -> BInfElement:
        """Starred lowering: lower the split-off color-i factor and pull back."""
        key = (i, b.coords)
        out = self._f_star_memo.get(key)
        if out is None:
            rot, _ = self._rotation_for_color(i)
            rb = rot.convert_from(self, b)
            coords = rb.coords if rb.coords else (0,)
            bumped = BInfElement((coords[0] + 1,) + coords[1:])
            out = self.convert_from(rot, bumped)
            self._f_star_memo[key] = out
            self._e_star_memo[(i, out.coords)] = b
        return out

    def e_star(self, i: int, b: BInfElement) -> BInfElement | None:
        """Starred raising; zero exactly when the split-off factor is b_i(0)."""
        key = (i, b.coords)
        if key in self._e_star_memo:
            return self._e_star_memo[key]
        rot, _ = self._rotation_for_color(i)
        rb = rot.convert_from(self, b)
        a1 = rb.coords[0] if rb.coords else 0
        if a1 == 0:
            out = None
        else:
            lowered = BInfElement(_strip((a1 - 1,) + rb.coords[1:]))
            out = self.convert_from(rot, lowered)
            self._f_star_memo[(i, out.coords)] = b
        self._e_star_memo[key] = out
        return out

    def eps_star(self, i: int, b: BInfElement) -> int:
        """Largest k with e_star^k b nonzero: the split-off factor's depth."""
        key = (i, b.coords)
        val = self._eps_star_memo.get(key)
        if val is None:
            rot, _ = self._rotation_for_color(i)
            rb = rot.convert_from(self, b)
            val = rb.coords[0] if rb.coords else 0
            self._eps_star_memo[key] = val
        return val

    def star(self, b: BInfElement) -> BInfElement:
        """Weight-preserving involution: star(b) = f*_j star(e_j b), j the
        first letter of peel(b); the walk stops at the nearest cached ancestor."""
        return _fill_from_nearest_cached(self, b, self._star_cache, self.f_star)

    def sort_key(self, b: BInfElement):
        return (b.depth, self.peel(b), b.coords)

    def __repr__(self) -> str:
        return f"BInfRealization({self.cartan.type_label}, block={self.block})"


@lru_cache(maxsize=None)
def b_inf(type_label: str) -> BInfRealization:
    """Shared main realization for a type, block as in DEFAULT_BLOCKS."""
    return BInfRealization(cartan_matrix(type_label))
