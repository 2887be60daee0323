"""Highest-weight crystals realized inside the infinity crystal.

B(lam) is the component of u_inf (x) t_lam (x) c in B(inf) (x) T_lam (x) C
(Kashiwara, Duke Math. J. 71, 1993), and t_lam and c are single elements,
so an element of B(lam) is an infinity-crystal element b.  lam belongs to
the crystal, not to its elements.  Raising acts as in B(inf), and so does
lowering, cut off to zero where phi_i(b) = eps_i(b) + <lam + wt b, h_i> is
0: the B(inf) operators and weights decide membership, and any block that
contains every color will do.  Statistics come from tensoring with t_lam,
whose -inf statistics leave eps untouched and shift phi and wt by lam.

The crystal graph is stored only as its string index.  generate() reads
each member's pairing <lam + wt x, h_i> off its coordinates once and its
B(inf) eps_i once per color: x is lowered along i where phi_i = eps_i +
pairing > 0, and heads an i-string where eps_i is 0.  Normality, a head's
pairing equal to its string's length L, is checked once per string, so
<wt, h_i> = L - 2k at s_k.  f, e, eps, phi, wt and strings(i) read the
index, which raises ValueError for an element outside generate(), and
contains_base is membership in generate().  Above MAX_ELEMENTS (by
weyl_dim) generate() raises CapacityError at once; past weyl_dim elements,
which only a wrong eps or wt can reach, RuntimeError.

Membership is not assumed correct: the dimension and character oracles in
the test suite validate it for every weight in the verification grid, and
the tests compare it with Kashiwara's bound eps_i(star b) <= <lam, h_i>.
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import Weight, cartan_matrix, w_add
from .binf import BInfElement, BInfRealization, CapacityError, b_inf
from .charring import WeightPolynomial, weyl_dim
from .core import FormalSum


class _Place(dict):
    """element -> (string number, position); any other key raises the one
    nonmember ValueError.  It keeps the crystal's repr, not the crystal, so
    the index forms no reference cycle."""

    def __init__(self, crystal: str):
        self.crystal = crystal

    def __missing__(self, x):
        raise ValueError(f"{x!r} is not an element of {self.crystal}")


MAX_ELEMENTS = 200_000  # under 1 KB each: generate() of G2 (5,5), 46,656 elements, peaks at 51 MB


class BLambdaCrystal:
    def __init__(self, realization: BInfRealization, lam: Weight):
        lam = realization.cartan.check_dominant(lam)
        self.realization = realization
        self.cartan = realization.cartan
        self.lam = lam
        self.highest = realization.highest
        self._generated: frozenset[BInfElement] | None = None
        # i -> (strings, place), built by generate
        self._string_index: dict[int, tuple] = {}
        # word -> frozenset, filled by demazure.demazure_blambda
        self._demazure_cache: dict = {(): frozenset({self.highest})}

    def contains_base(self, base: BInfElement) -> bool:
        return base in self.generate()

    def _locate(self, i: int, x: BInfElement) -> tuple[tuple[BInfElement, ...], int]:
        """(members, k): the i-string through x and the position of x on it."""
        strings, place = self.string_index(i)
        sid, k = place[x]
        return strings[sid], k

    def f(self, i: int, x: BInfElement) -> BInfElement | None:
        members, k = self._locate(i, x)
        return members[k + 1] if k + 1 < len(members) else None

    def e(self, i: int, x: BInfElement) -> BInfElement | None:
        members, k = self._locate(i, x)
        return members[k - 1] if k else None

    def eps(self, i: int, x: BInfElement) -> int:
        return self._locate(i, x)[1]

    def phi(self, i: int, x: BInfElement) -> int:
        members, k = self._locate(i, x)
        return len(members) - 1 - k

    def wt(self, x: BInfElement) -> Weight:
        """<wt x, h_i> = L - 2k at the place k of x on its i-string s_0 .. s_L."""
        self.generate()
        return tuple(len(strings[sid]) - 1 - 2 * k
                     for strings, place in self._string_index.values() for sid, k in (place[x],))

    def generate(self) -> frozenset[BInfElement]:
        """Closure of the highest element under lowering; finite in finite type.
        Its i-heads and lowering maps become the string index of every color."""
        if self._generated is None:
            if (size := weyl_dim(self.cartan, self.lam)) > MAX_ELEMENTS:
                raise CapacityError(f"{self!r} has {size} elements; the maximum is {MAX_ELEMENTS}")
            real, lam, colors = self.realization, self.lam, self.cartan.colors
            out = {self.highest}
            heads: dict[int, dict] = {i: {} for i in colors}  # eps_i 0: member -> pairing
            lower: dict[int, dict] = {i: {} for i in colors}
            frontier = [self.highest]
            while frontier:
                fresh = []
                for x in frontier:
                    pairing = w_add(lam, real.wt(x))
                    for i in colors:
                        eps = real.eps(i, x)
                        if not eps:
                            heads[i][x] = pairing[i - 1]
                        y = real.f(i, x) if eps + pairing[i - 1] > 0 else None
                        lower[i][x] = y
                        if y is not None and y not in out:
                            out.add(y)
                            fresh.append(y)
                            if len(out) > size:
                                raise RuntimeError(f"generation of {self!r} passed its {size} "
                                                   "elements; realization bug")
                frontier = fresh
            self._string_index = {i: self._build_index(i, heads[i], lower[i]) for i in colors}
            self._generated = frozenset(out)
        return self._generated

    def string_index(self, i: int) -> tuple[tuple, dict]:
        """(strings, place): the i-strings as member tuples, heads in sort_key
        order, and the (string number, position) of every element.  Built by
        generate(), which the first call runs.  The color is checked first:
        the index answers 1.0 and True as 1."""
        if self.cartan.check_color(i) not in self._string_index:
            self.generate()
        return self._string_index[i]

    def _build_index(self, i: int, heads: dict, lower: dict) -> tuple[tuple, dict]:
        """string_index(i) off the heads (member -> pairing, where eps_i is 0)
        and the lowering map x -> f_i x (None at the boundary)."""
        strings, place = [], _Place(repr(self))
        for n, head in enumerate(sorted(heads, key=self.sort_key)):
            chain, x = [], head
            while x is not None:
                if x in place:
                    raise RuntimeError("i-strings failed to partition the crystal")
                place[x] = (n, len(chain))
                chain.append(x)
                x = lower[x]
            if heads[head] != len(chain) - 1:
                raise RuntimeError(
                    f"normality violated: color {i} string of length {len(chain) - 1} "
                    f"at {head!r}, pairing {heads[head]}"
                )
            strings.append(tuple(chain))
        if len(place) != len(lower):
            raise RuntimeError("i-strings failed to partition the crystal")
        return tuple(strings), place

    def strings(self, i: int) -> tuple[tuple[BInfElement, ...], ...]:
        """Partition into i-strings: tuples head, f head, ..., whose head s[0]
        is killed by raising."""
        return self.string_index(i)[0]

    def peel(self, x: BInfElement) -> tuple[int, ...]:
        # raising agrees with the ambient realization, so the peel word does too
        return self.realization.peel(x)

    def sort_key(self, x: BInfElement):
        return self.realization.sort_key(x)

    def __repr__(self) -> str:
        return f"BLambdaCrystal({self.cartan.type_label}, lam={self.lam})"


def b_lambda(type_label: str, lam: tuple[int, ...]) -> BLambdaCrystal:
    """Shared crystal instance over the type's main realization.  lam is
    checked before the lookup, whose key (2.0, 0) or (True, 0) would find the
    crystal of (2, 0) or (1, 0), or store float weights under it."""
    return _shared_b_lambda(type_label, cartan_matrix(type_label).check_dominant(lam))


@lru_cache(maxsize=None)
def _shared_b_lambda(type_label: str, lam: tuple[int, ...]) -> BLambdaCrystal:
    return BLambdaCrystal(b_inf(type_label), lam)


def clear_caches() -> None:
    """Drop the shared b_lambda and b_inf instances, and with them every
    string index and Demazure set they hold and every per-realization cache
    (the operator table and the peel and star memos); no cycle delays it."""
    _shared_b_lambda.cache_clear()
    b_inf.cache_clear()


def char_map(crystal: BLambdaCrystal, x) -> WeightPolynomial:
    """Linear extension of element -> e^{wt(element)}; an element outside
    the crystal, alone or in a formal sum, is rejected by wt."""
    if not isinstance(x, FormalSum):
        x = FormalSum.basis(x)
    coeffs: dict[Weight, int] = {}
    for element, coeff in x.items():
        mu = crystal.wt(element)
        coeffs[mu] = coeffs.get(mu, 0) + coeff
    return WeightPolynomial(coeffs)
